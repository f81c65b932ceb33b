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

Their products skip known zero bits.  The leading coefficient is shifted
right past its trailing zeros before it multiplies x, and a lower Horner
product (t + c) x is split as t x + c x when c has at most SPLIT_BITS
significant bits.  Near 0, where t and x are short and an integer c is not,
that is a short product instead of a p-bit one.  The split gives the same
integers as the single product.
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


def quotient_float(num: int, den: int, round_up: bool = False) -> float:
    """The largest double at or below num / den (den > 0), or with round_up
    the smallest double at or above it."""
    f = num / den  # correctly rounded
    a, b = f.as_integer_ratio()
    if round_up:
        return math.nextafter(f, math.inf) if a * den < num * b else f
    return math.nextafter(f, -math.inf) if a * den > num * b else f


def to_fraction(m: int, p: int) -> Fraction:
    return Fraction(m, 1 << p)


def _trailing_zeros(c: int, p: int) -> int:
    return min((c & -c).bit_length() - 1, p) if c else p


def _lead_product(lead: int, x: int, p: int, round_up: bool) -> int:
    """(lead * x) / 2^p rounded down or up, skipping lead's trailing zero bits.

    An integer or other dyadic coefficient has about p such bits, so the
    product is a small-by-big multiplication instead of a p-by-p one.
    """
    z = _trailing_zeros(lead, p)
    prod = (lead >> z) * x
    return -((-prod) >> (p - z)) if round_up else prod >> (p - z)


#: A Horner coefficient with at most this many significant bits is multiplied
#: on its own (``_horner_product``).  A dyadic coefficient, an integer or one
#: read from a double, has at most 53; any other has about p, and splitting it
#: would add a second p-bit product: ~1.5x slower on logistic(39/10) and
#: logistic(383/100) orbits at thousands of bits.
SPLIT_BITS = 64


def _horner_product(t: int, c: int, x: int, p: int) -> int:
    """(t + c) * x, as t * x + c * x when c has at most SPLIT_BITS significant
    bits, skipping c's trailing zero bits.

    Near 0, where t and x are short and an integer coefficient c is not,
    this is a short-by-short and a small-by-short product instead of a
    p-by-short one.  A coefficient with more bits keeps the single product.
    """
    z = _trailing_zeros(c, p)
    head = c >> z
    if head.bit_length() > SPLIT_BITS:
        return (t + c) * x
    return t * x + ((head * x) << z)


def poly_down(coeffs: tuple[int, ...], x: int, p: int) -> int:
    """Horner lower bound of sum c_k x^k for mantissas, x >= 0."""
    acc = _lead_product(coeffs[-1], x, p, False)
    for c in coeffs[-2:0:-1]:
        acc = _horner_product(acc, c, x, p) >> p
    return acc + coeffs[0]


def poly_up(coeffs: tuple[int, ...], x: int, p: int) -> int:
    acc = _lead_product(coeffs[-1], x, p, True)
    for c in coeffs[-2:0:-1]:
        acc = -((-_horner_product(acc, c, x, p)) >> p)
    return acc + coeffs[0]


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
