"""Fixed-point big-integer arithmetic with directed rounding.

Values are mantissas m representing m / 2**p for a context precision p.
Used wherever double precision is structurally inadequate: exact orbits of
the contracted rotation, certified interval propagation for witness
construction.  Only the operations those paths need are provided.
"""

from __future__ import annotations

import math
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
        return math.nextafter(m / (1 << p), math.inf) if (m / (1 << p)) * (1 << p) < m else m / (1 << p)
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
