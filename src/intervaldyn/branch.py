"""Closed-form branch expressions for piecewise interval maps.

A branch is either a polynomial in x or a power composite
``offset + sign * (phi(x)) ** exponent`` with ``phi`` a polynomial and
``exponent >= 1``.  Coefficients and domain endpoints are kept as exact
`Fraction`s so that derivatives, one-sided limits, monotone inverses and
interval images carry no sampling error; float mirrors are precomputed for
the fast paths.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import FlatBranch, RangeViolation

INCREASING = "increasing"
DECREASING = "decreasing"

_MONO_SAMPLES = 64


def as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v)  # exact binary value of the float
    raise TypeError(f"cannot interpret {v!r} as an exact coefficient")


def poly_eval_float(coeffs: tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_eval_fraction(coeffs: tuple[Fraction, ...], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_derive(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return tuple(c * k for k, c in enumerate(coeffs) if k >= 1)


class BranchSpec:
    """One monotone branch of a piecewise map.

    ``lo``/``hi`` give the domain interval; the value is
    ``offset + sign * phi(x)**exponent`` with ``phi`` the polynomial with
    coefficients ``coeffs`` (low degree first).  A plain polynomial branch
    uses ``offset=0, sign=1, exponent=1``.
    """

    __slots__ = (
        "lo", "hi", "coeffs", "monotonicity", "exponent", "offset", "sign",
        "flo", "fhi", "fcoeffs", "fdcoeffs", "fexp", "foffset",
    )

    def __init__(self, lo, hi, coeffs, monotonicity, exponent=1, offset=0, sign=1):
        self.lo = as_fraction(lo)
        self.hi = as_fraction(hi)
        self.coeffs = tuple(as_fraction(c) for c in coeffs)
        self.monotonicity = monotonicity
        self.exponent = as_fraction(exponent)
        self.offset = as_fraction(offset)
        self.sign = int(sign)
        self.flo = float(self.lo)
        self.fhi = float(self.hi)
        self.fcoeffs = tuple(float(c) for c in self.coeffs)
        self.fdcoeffs = tuple(float(c) for c in poly_derive(self.coeffs))
        self.fexp = float(self.exponent)
        self.foffset = float(self.offset)
        self._validate()

    def __repr__(self):
        return (
            f"BranchSpec([{self.flo:.6g},{self.fhi:.6g}], {self.fcoeffs}, "
            f"{self.monotonicity}, exp={self.fexp}, off={self.foffset}, s={self.sign})"
        )

    def __eq__(self, other):
        if not isinstance(other, BranchSpec):
            return NotImplemented
        return (
            self.lo == other.lo and self.hi == other.hi
            and self.coeffs == other.coeffs
            and self.monotonicity == other.monotonicity
            and self.exponent == other.exponent
            and self.offset == other.offset
            and self.sign == other.sign
        )

    def __hash__(self):
        return hash((self.lo, self.hi, self.coeffs, self.exponent, self.offset, self.sign))

    @property
    def plain_polynomial(self) -> bool:
        """The value is phi(x) itself: exponent 1, offset 0 and sign +1."""
        return self.exponent == 1 and self.offset == 0 and self.sign == 1

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        if self.lo >= self.hi:
            raise ValueError(f"empty branch domain [{self.lo}, {self.hi}]")
        if self.monotonicity not in (INCREASING, DECREASING):
            raise ValueError(f"bad monotonicity {self.monotonicity!r}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.exponent < 1:
            raise ValueError(f"exponent {self.exponent} < 1")
        if len(self.coeffs) < 2 or all(c == 0 for c in self.coeffs[1:]):
            raise FlatBranch("constant branch expression cannot be non-flat")
        if self.exponent.denominator != 1:
            for t in self._sample_points():
                if poly_eval_fraction(self.coeffs, t) < 0:
                    raise ValueError("fractional exponent requires phi >= 0 on the domain")
        vlo, vhi = self.value(self.flo), self.value(self.fhi)
        if min(vlo, vhi) < -1e-12 or max(vlo, vhi) > 1.0 + 1e-12:
            raise RangeViolation(
                f"branch maps [{self.flo:.6g},{self.fhi:.6g}] onto "
                f"[{min(vlo, vhi):.6g},{max(vlo, vhi):.6g}], leaving [0,1]"
            )
        want = 1.0 if self.monotonicity == INCREASING else -1.0
        step = (self.fhi - self.flo) / _MONO_SAMPLES
        for k in range(_MONO_SAMPLES + 1):
            t = self.flo + k * step
            d = self.derivative(t)
            if math.isnan(d):
                continue
            if d * want < -1e-12:
                raise ValueError(
                    f"declared {self.monotonicity} but derivative is {d:.3g} at x={t:.6g}"
                )

    def _sample_points(self) -> Iterable[Fraction]:
        w = self.hi - self.lo
        for k in range(_MONO_SAMPLES + 1):
            yield self.lo + w * Fraction(k, _MONO_SAMPLES)

    # -- evaluation ----------------------------------------------------------

    def value(self, x: float) -> float:
        """Float branch value (no domain check)."""
        phi = poly_eval_float(self.fcoeffs, x)
        if self.fexp == 1.0:
            return self.foffset + (phi if self.sign == 1 else -phi)
        return self.power_value(phi)

    def power_value(self, phi: float) -> float:
        """``offset + sign * phi**exponent`` for a power composite, given phi(x).

        Batch engines call this element by element, so that their power
        rounds exactly as the scalar value does.
        """
        if self.exponent.denominator == 1:
            p = phi ** int(self.exponent)
        else:
            p = math.pow(phi, self.fexp) if phi >= 0.0 else math.nan
        return self.foffset + self.sign * p

    def value_exact(self, x) -> Fraction:
        """Exact value at a rational point (exact for integer exponents)."""
        x = as_fraction(x)
        phi = poly_eval_fraction(self.coeffs, x)
        if self.exponent.denominator != 1:
            return as_fraction(self.foffset + self.sign * float(phi) ** self.fexp)
        return self.offset + self.sign * phi ** int(self.exponent)

    def derivative(self, x: float) -> float:
        phi = poly_eval_float(self.fcoeffs, x)
        dphi = poly_eval_float(self.fdcoeffs, x)
        if self.fexp == 1.0:
            return self.sign * dphi
        if phi == 0.0 and self.fexp < 2.0 and self.fexp != 1.0:
            return math.copysign(math.inf, self.sign * dphi)
        if phi < 0.0 and self.exponent.denominator != 1:
            return math.nan
        return self.sign * self.fexp * abs(phi) ** (self.fexp - 1.0) * _powsign(phi, self.exponent) * dphi

    def interval_image(self, lo: float, hi: float, margin: float = 0.0) -> tuple[float, float]:
        """Image of [lo, hi] under the monotone branch, outward-rounded by margin."""
        a, b = self.value(lo), self.value(hi)
        if a > b:
            a, b = b, a
        return a - margin, b + margin

    # -- inversion ------------------------------------------------------------

    def inverse(self, y: float) -> float:
        """The unique x in the closed domain with value(x) = y (y clamped to range).

        Closed form for polynomial degree <= 2, monotone bisection otherwise.
        """
        ylo, yhi = self.interval_image(self.flo, self.fhi)
        y = min(max(y, ylo), yhi)
        deg = len(self.fcoeffs) - 1
        u = (y - self.foffset) * self.sign
        if self.fexp == 1.0:
            t = u
        elif self.exponent.denominator == 1 and int(self.exponent) % 2 == 0:
            if u < 0:
                u = 0.0
            r = u ** (1.0 / self.fexp)
            mid = 0.5 * (self.flo + self.fhi)
            s = 1.0 if poly_eval_float(self.fcoeffs, mid) >= 0 else -1.0
            t = s * r
        else:
            t = math.copysign(abs(u) ** (1.0 / self.fexp), u)
        x = self._invert_phi(t, deg)
        if x is None:
            return self._bisect_inverse(y)
        return min(max(x, self.flo), self.fhi)

    def _invert_phi(self, t: float, deg: int) -> float | None:
        c = self.fcoeffs
        if deg == 1:
            return (t - c[0]) / c[1]
        if deg == 2:
            a, b, cc = c[2], c[1], c[0] - t
            disc = b * b - 4.0 * a * cc
            if disc < 0:
                disc = 0.0
            sq = math.sqrt(disc)
            if b >= 0:
                q = -0.5 * (b + sq)
            else:
                q = -0.5 * (b - sq)
            roots = []
            if a != 0:
                roots.append(q / a)
            if q != 0:
                roots.append(cc / q)
            lo, hi = self.flo - 1e-9, self.fhi + 1e-9
            inside = [r for r in roots if lo <= r <= hi]
            if inside:
                return inside[0]
            if roots:
                mid = 0.5 * (lo + hi)
                return min(roots, key=lambda r: abs(r - mid))
        return None

    def _bisect_inverse(self, y: float) -> float:
        lo, hi = self.flo, self.fhi
        inc = self.monotonicity == INCREASING
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            below = self.value(mid) <= y
            if below == inc:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-16:
                break
        return 0.5 * (lo + hi)

    # -- local normal form ------------------------------------------------------

    def vanishing_order_at(self, c) -> Fraction:
        """Leading exponent of |value(x) - value(c)| as x -> c within the domain.

        Raises FlatBranch when the order cannot be certified (all polynomial
        derivatives vanish at c, or a fractional-power phi is not a local
        diffeomorphism there).
        """
        c = as_fraction(c)
        if self.exponent != 1:
            phi_c = poly_eval_fraction(self.coeffs, c)
            dphi_c = poly_eval_fraction(poly_derive(self.coeffs), c)
            if dphi_c == 0:
                raise FlatBranch(f"phi is not a local diffeomorphism at x={float(c):.6g}")
            return self.exponent if phi_c == 0 else Fraction(1)
        coeffs = self.coeffs
        for order in range(1, len(self.coeffs)):
            coeffs = poly_derive(coeffs)
            if coeffs and poly_eval_fraction(coeffs, c) != 0:
                return Fraction(order)
        raise FlatBranch(f"polynomial branch is flat at x={float(c):.6g}")


def _powsign(phi: float, exponent: Fraction) -> float:
    if phi >= 0:
        return 1.0
    return -1.0 if int(exponent) % 2 == 0 else 1.0


def poly_branch(lo, hi, coeffs, monotonicity) -> BranchSpec:
    """Plain polynomial branch."""
    return BranchSpec(lo, hi, coeffs, monotonicity)


def power_branch(lo, hi, offset, phi_coeffs, exponent, monotonicity, sign=1) -> BranchSpec:
    """Composite branch offset + sign*(phi(x))**exponent."""
    return BranchSpec(lo, hi, phi_coeffs, monotonicity, exponent=exponent, offset=offset, sign=sign)

