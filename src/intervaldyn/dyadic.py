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


def to_float(m: int, p: int) -> float:
    """Float at or below m / 2^p (truncates extra mantissa bits)."""
    if m.bit_length() <= 62:
        return m / (1 << p)
    shift = m.bit_length() - 53
    return math.ldexp(m >> shift, shift - p)


def to_float_up(m: int, p: int) -> float:
    """Float at or above m / 2^p."""
    if m.bit_length() <= 62:
        # compared as fractions: float(1 << p) overflows for p > 1023
        f = m / (1 << p)
        return math.nextafter(f, math.inf) if Fraction(f) < Fraction(m, 1 << p) else f
    shift = m.bit_length() - 53
    head = m >> shift
    if head << shift != m:
        head += 1
    return math.ldexp(head, shift - p)


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
    """The images of lo rounded down and of hi rounded up under one row of
    ``affine_table``, in increasing order."""
    b0, slope = branch
    ilo = (lo * slope.numerator) // slope.denominator + b0
    ihi = -((-hi * slope.numerator) // slope.denominator) + b0
    return (ilo, ihi) if ilo <= ihi else (ihi, ilo)
