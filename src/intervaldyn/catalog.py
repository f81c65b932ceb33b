"""Bundled map families and the parameters they need.

Families: logistic(lam), tent(slope), doubling, lorenz (contracting, golden
rotation number), bimodal (two invariant chaotic halves), zigzag3 (slope-3
piecewise-linear, one transitive cycle).

Two computed constants live here as well:

* ``feigenbaum_lambda()`` locates the period-doubling accumulation parameter
  of the logistic family by bisecting the superstable 2^k parameters and
  extrapolating the geometric tail.
* ``golden_lorenz_delta_mantissa()`` writes down the dyadic intercept of
  the contracted rotation x/2 + delta (mod 1) whose rotation number is the
  golden mean, from its binary digits.  Double precision cannot hold this
  parameter (mode-locking plateaus near it are wider than an ulp), so the
  value is a big-integer mantissa and the map carries exact dyadic
  coefficients.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from math import isqrt

from .branch import DECREASING, INCREASING, poly_branch
from .maps import PiecewiseMap

#: Prime modulus for the exact orbit engine on integer-linear maps.  Safe
#: prime: ord(2) and ord(3) are at least (q-1)/2 ~ 1.07e9, so /q-rational
#: orbits of the doubling/tent/zigzag3 maps cannot collapse at any horizon
#: used here.
ORBIT_PRIME = 2147483579

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Mantissa precision of the lorenz family intercept; locks the rotation
#: number to within ~2^-27000 of the golden mean, far beyond the horizons
#: (<= 1e5) at which the map is analysed.
LORENZ_BITS = 40000


def logistic(lam) -> PiecewiseMap:
    lam = Fraction(lam)
    coeffs = (Fraction(0), lam, -lam)
    return PiecewiseMap(
        [
            poly_branch(0, Fraction(1, 2), coeffs, INCREASING),
            poly_branch(Fraction(1, 2), 1, coeffs, DECREASING),
        ],
        critical=[Fraction(1, 2)],
        name=f"logistic({float(lam):.10g})",
    )


def tent(slope=2) -> PiecewiseMap:
    s = Fraction(slope)
    return PiecewiseMap(
        [
            poly_branch(0, Fraction(1, 2), (0, s), INCREASING),
            poly_branch(Fraction(1, 2), 1, (s, -s), DECREASING),
        ],
        critical=[Fraction(1, 2)],
        name=f"tent({float(s):g})",
    )


def doubling() -> PiecewiseMap:
    return PiecewiseMap(
        [
            poly_branch(0, Fraction(1, 2), (0, 2), INCREASING),
            poly_branch(Fraction(1, 2), 1, (-1, 2), INCREASING),
        ],
        critical=[Fraction(1, 2)],
        name="doubling",
    )


def bimodal() -> PiecewiseMap:
    """Continuous bimodal map with both halves invariant and chaotic.

    Piecewise linear through (0,2/5), (1/5,0), (4/5,1), (1,3/5): both halves
    [0,1/2] and [1/2,1] are invariant transitive cycles (mirror images of one
    another), the interface 1/2 is a repelling fixed point interior to the
    middle branch, and no other point of either half touches it.  C = {1/5, 4/5}.
    """
    f5 = Fraction(1, 5)
    return PiecewiseMap(
        [
            poly_branch(0, f5, (Fraction(2, 5), -2), DECREASING),
            poly_branch(f5, 4 * f5, (Fraction(-1, 3), Fraction(5, 3)), INCREASING),
            poly_branch(4 * f5, 1, (Fraction(13, 5), -2), DECREASING),
        ],
        critical=[f5, 4 * f5],
        name="bimodal",
    )


def zigzag3() -> PiecewiseMap:
    """Piecewise-linear slope-3 zigzag; a single transitive cycle [0,1], C = {1/3, 2/3}."""
    t = Fraction(1, 3)
    return PiecewiseMap(
        [
            poly_branch(0, t, (0, 3), INCREASING),
            poly_branch(t, 2 * t, (2, -3), DECREASING),
            poly_branch(2 * t, 1, (-2, 3), INCREASING),
        ],
        critical=[t, 2 * t],
        name="zigzag3",
    )


# -- contracted rotation (Lorenz-type, wandering intervals) ---------------------


def _sturmian_bit(n: int) -> int:
    # floor((n+1)g) - floor(ng) with g the golden mean, exact in integers:
    # floor(k*g) = (isqrt(5 k^2) - k) // 2
    def fl(k: int) -> int:
        return (isqrt(5 * k * k) - k) // 2

    return fl(n + 1) - fl(n)


@functools.lru_cache(maxsize=None)
def golden_lorenz_delta_mantissa() -> int:
    """delta * 2^LORENZ_BITS for the golden-rotation contracted rotation x/2 + delta.

    delta's binary digits are 1 followed by the golden Sturmian bits, the
    series of a contracted rotation with irrational rotation number (Bugeaud,
    C. R. Acad. Sci. Paris 317, 1993; Laurent and Nogueira, J. Mod. Dyn. 12,
    2018); the wrap bits of the orbit of the critical value 0 under the
    truncated map are then those Sturmian bits.
    """
    return int("1" + "".join(str(_sturmian_bit(n)) for n in range(1, LORENZ_BITS)), 2)


@functools.lru_cache(maxsize=None)
def lorenz() -> PiecewiseMap:
    """Contracting Lorenz map f(x) = x/2 + delta (mod 1), golden rotation number.

    Injective with two increasing slope-1/2 branches; the nonwandering set is
    a minimal Cantor set and the gap (delta - 1/2, delta) is a wandering
    interval.  Coefficients are exact dyadics so the exact orbit paths stay
    faithful far beyond double precision.
    """
    delta = Fraction(golden_lorenz_delta_mantissa(), 1 << LORENZ_BITS)
    c = 2 * (1 - delta)
    half = Fraction(1, 2)
    return PiecewiseMap(
        [
            poly_branch(0, c, (delta, half), INCREASING),
            poly_branch(c, 1, (delta - 1, half), INCREASING),
        ],
        critical=[c],
        name="lorenz",
    )


# -- Feigenbaum point ----------------------------------------------------------


def _superstable(k: int, lo: float, hi: float) -> float:
    """Logistic parameter where 1/2 is periodic with period 2^k (bisection)."""
    period = 1 << k

    def g(lam: float) -> float:
        x = 0.5
        for _ in range(period):
            x = lam * x * (1.0 - x)
        return x - 0.5

    glo, ghi = g(lo), g(hi)
    if glo * ghi > 0:
        raise ValueError(f"superstable bracket failed at k={k}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=None)
def feigenbaum_lambda() -> float:
    """Accumulation parameter of the logistic period-doubling cascade.

    Bisects the superstable parameters lambda_k for periods 2^k up to
    2^13 and extrapolates the geometric tail; accurate to ~1e-10.
    """
    lams = [2.0, 1.0 + math.sqrt(5.0)]
    for k in range(2, 14):
        d = lams[-1] - lams[-2]
        guess = lams[-1] + d / 4.669201609
        lams.append(_superstable(k, lams[-1] + d / 40.0, guess + d / 3.0))
    d1, d2 = lams[-2] - lams[-3], lams[-1] - lams[-2]
    return lams[-1] + d2 / (d1 / d2 - 1.0)


def logistic_feigenbaum() -> PiecewiseMap:
    return logistic(feigenbaum_lambda())


#: family name -> (constructor, its parameters with their defaults)
FAMILIES = {
    "logistic": (logistic, {"lam": 4}),
    "tent": (tent, {"slope": 2}),
    "doubling": (doubling, {}),
    "lorenz": (lorenz, {}),
    "bimodal": (bimodal, {}),
    "zigzag3": (zigzag3, {}),
}


def standard_catalog() -> dict[str, PiecewiseMap]:
    """The maps exercised by the verification suite."""
    return {
        "logistic3.2": logistic(Fraction(16, 5)),
        "logistic3.5": logistic(Fraction(7, 2)),
        "logistic3.83": logistic(Fraction(383, 100)),
        "feigenbaum": logistic_feigenbaum(),
        "logistic4": logistic(4),
        "tent2": tent(2),
        "doubling": doubling(),
    }
