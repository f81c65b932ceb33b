"""Fixed-point big-integer arithmetic with directed rounding.

Values are mantissas m representing m / 2**p for a context precision p.
Used wherever double precision is structurally inadequate: the lorenz
orbits, homterval search and verdicts, and the witness chain, pullback,
certification and replay.  Only the operations those paths need are here.

A map enters as ``branch_table``: the coefficient mantissas of each branch
and the cut mantissas.  A mantissa x lies in branch ``bisect_left(cuts, x)``
when each boundary belongs to the branch on its left, ``bisect_right(cuts,
x)`` when it belongs to the one on its right, and ``poly_down`` and
``poly_up``, the one rounded step, bound its image below and above (the
floor and ceiling of it for an affine row whose slope is an exact mantissa).
Point orbits run through one loop, ``orbit_stats._dyadic_orbit``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

from .errors import NotClassified


def from_fraction(fr: Fraction, p: int, round_up: bool = False) -> int:
    num = fr.numerator << p
    den = fr.denominator
    return -((-num) // den) if round_up else num // den


def _float_shift(m: int, p: int) -> int:
    """The bits of m below the ulp of the doubles next to m / 2^p.

    Those doubles are the multiples of 2^(shift - p) by integers of at most
    53 bits; 2^-1074 is the least ulp, that of the subnormals.
    """
    return max(m.bit_length() - 53, p - 1074, 0)


def to_float(m: int, p: int) -> float:
    """The largest double at or below m / 2^p."""
    shift = _float_shift(m, p)
    return math.ldexp(m >> shift, shift - p)


def to_float_up(m: int, p: int) -> float:
    """The smallest double at or above m / 2^p."""
    shift = _float_shift(m, p)
    head = m >> shift
    return math.ldexp(head + (head << shift != m), shift - p)


def to_fraction(m: int, p: int) -> Fraction:
    return Fraction(m, 1 << p)


def _lead_product(lead: int, x: int, p: int, round_up: bool) -> int:
    """(lead * x) / 2^p rounded down or up, skipping lead's trailing zero bits.

    An integer or other dyadic coefficient has about p such bits, so the
    product is a small-by-big multiplication instead of a p-by-p one.
    """
    z = min((lead & -lead).bit_length() - 1, p) if lead else p
    prod = (lead >> z) * x
    return -((-prod) >> (p - z)) if round_up else prod >> (p - z)


def poly_down(coeffs: tuple[int, ...], x: int, p: int) -> int:
    """Horner lower bound of sum c_k x^k for mantissas, x >= 0."""
    acc = _lead_product(coeffs[-1], x, p, False) + coeffs[-2]
    for c in reversed(coeffs[:-2]):
        acc = ((acc * x) >> p) + c
    return acc


def poly_up(coeffs: tuple[int, ...], x: int, p: int) -> int:
    acc = _lead_product(coeffs[-1], x, p, True) + coeffs[-2]
    for c in reversed(coeffs[:-2]):
        acc = -((-(acc * x)) >> p) + c
    return acc


def branch_table(pmap, p: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The coefficient mantissas of each branch (low degree first) and the
    interior breakpoints at precision p, rounded down.  Raises NotClassified
    for a branch that is not a plain polynomial."""
    if not all(b.plain_polynomial for b in pmap.branches):
        raise NotClassified("mantissa arithmetic supports plain polynomial branches only")
    cms = [tuple(from_fraction(c, p) for c in b.coeffs) for b in pmap.branches]
    return cms, [from_fraction(c, p) for c in pmap.breakpoints[1:-1]]


def branch_of(cuts: list[int], lo: int, hi: int) -> int | None:
    """The branch holding all of [lo, hi] (a cut belongs to its left branch),
    or None when the interval straddles a cut."""
    idx = bisect_left(cuts, lo)
    return idx if idx == bisect_left(cuts, hi) else None
