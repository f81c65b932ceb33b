"""Fixed-point big-integer arithmetic with directed rounding.

Values are mantissas m representing m / 2**p for a context precision p.
Used wherever double precision is structurally inadequate: exact orbits of
the contracted rotation, certified interval propagation for witness
construction.  Only the operations those paths need are provided.

A map's branch boundaries enter as cut mantissas (``cut_mantissas``), and a
mantissa x lies in branch ``bisect_left(cuts, x)`` when each boundary
belongs to the branch on its left, ``bisect_right(cuts, x)`` when it belongs
to the one on its right.  Dyadic-affine maps (every branch b0 + s x with
dyadic b0 and s) step through ``affine_table``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction


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


def cut_mantissas(pmap, p: int) -> list[int]:
    """The interior breakpoints of a map as mantissas at precision p (rounded down)."""
    return [from_fraction(c, p) for c in pmap.breakpoints[1:-1]]


def branch_of(cuts: list[int], lo: int, hi: int) -> int | None:
    """The branch holding all of [lo, hi] (a cut belongs to its left branch),
    or None when the interval straddles a cut."""
    idx = bisect_left(cuts, lo)
    return idx if idx == bisect_left(cuts, hi) else None


def affine_table(pmap, p: int) -> tuple[list[tuple[int, Fraction]], list[int]]:
    """A dyadic-affine map at precision p: (intercept mantissa, exact slope)
    of each branch, and the cut mantissas."""
    coeffs = [(from_fraction(b.coeffs[0], p), b.coeffs[1]) for b in pmap.branches]
    return coeffs, cut_mantissas(pmap, p)


def affine_point(x: int, branch: tuple[int, Fraction]) -> int:
    """b0 + s x for one row (b0, s) of ``affine_table``, rounded down."""
    b0, slope = branch
    return (x * slope.numerator) // slope.denominator + b0


def affine_interval(lo: int, hi: int, branch: tuple[int, Fraction]) -> tuple[int, int]:
    """The image of [lo, hi] under one row of ``affine_table``, its lower end
    rounded down and its upper end up: the image of hi is the lower end on a
    decreasing branch."""
    b0, slope = branch
    if slope < 0:
        lo, hi = hi, lo
    ilo = (lo * slope.numerator) // slope.denominator + b0
    ihi = -((-hi * slope.numerator) // slope.denominator) + b0
    return ilo, ihi
