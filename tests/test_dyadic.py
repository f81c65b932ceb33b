import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from intervaldyn import dyadic


def _horner(coeffs, x, p, round_up):
    """Plain directed Horner: every product is a full multiplication."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = (-((-(acc * x)) >> p) if round_up else (acc * x) >> p) + c
    return acc


@pytest.mark.parametrize("p", [8, 64, 333, 1000])
def test_poly_bounds_match_plain_horner(p):
    # leading coefficients with p or more trailing zero bits (integers), some
    # (dyadics), none (rounded non-dyadics) and zero, of both signs
    rng = random.Random(p)
    leads = [4 << p, -4 << p, 3 << (p // 2), -(5 << (p // 3)), 0, 1]
    leads += [rng.randint(-(8 << p), 8 << p) for _ in range(4)]
    for lead in leads:
        for deg in (1, 2, 3):
            coeffs = tuple(rng.randint(-(8 << p), 8 << p) for _ in range(deg)) + (lead,)
            for x in (0, 1, 1 << p, rng.randint(0, 1 << p), rng.randint(-(1 << p), 2 << p)):
                assert dyadic.poly_down(coeffs, x, p) == _horner(coeffs, x, p, False)
                assert dyadic.poly_up(coeffs, x, p) == _horner(coeffs, x, p, True)


# coefficients at precision P_HORNER: dyadic ones (a few significant bits over
# up to P_HORNER + 3 trailing zeros, as integer coefficients have) and
# non-dyadic ones (every bit significant); points near 0 (short) and anywhere
P_HORNER = 700
ZEROS = st.integers(0, P_HORNER + 3) | st.integers(P_HORNER - 3, P_HORNER + 3)
DYADIC_COEFFS = st.builds(lambda k, z: k << z, st.integers(-(1 << 20), 1 << 20), ZEROS)
FULL_COEFFS = st.integers(-(8 << P_HORNER), 8 << P_HORNER)
POINTS = st.integers(0, P_HORNER + 1).flatmap(lambda b: st.integers(0, 1 << b))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(DYADIC_COEFFS | FULL_COEFFS, min_size=2, max_size=4), POINTS)
def test_split_horner_products_match_plain_horner(coeffs, x):
    # degrees 1 to 3: poly_down and poly_up multiply a short coefficient on
    # its own; the plain Horner formula above is the reference
    coeffs = tuple(coeffs)
    assert dyadic.poly_down(coeffs, x, P_HORNER) == _horner(coeffs, x, P_HORNER, False)
    assert dyadic.poly_up(coeffs, x, P_HORNER) == _horner(coeffs, x, P_HORNER, True)


# -- directed conversion and enclosure, as properties compared in Fractions ------

# mantissas of every length from 1 to 130 bits, so the 54- to 62-bit ones
# that a double cannot hold are drawn as often as the others
MANTISSAS = st.integers(1, 130).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))


@settings(derandomize=True, deadline=None)
@given(MANTISSAS | st.just(0), st.integers(0, 1300))
@example(2**62 - 1, 62)
@example(1, 1075)
@example(3, 1075)
def test_to_float_is_the_largest_double_below(m, p):
    x = Fraction(m, 1 << p)
    f = dyadic.to_float(m, p)
    assert Fraction(f) <= x < Fraction(math.nextafter(f, math.inf))


@settings(derandomize=True, deadline=None)
@given(MANTISSAS | st.just(0), st.integers(0, 1300))
@example(2**62 - 1, 62)
@example(1, 1075)
@example(1, 1300)
def test_to_float_up_is_the_smallest_double_above(m, p):
    x = Fraction(m, 1 << p)
    f = dyadic.to_float_up(m, p)
    assert Fraction(math.nextafter(f, -math.inf)) < x <= Fraction(f)


# slopes of both signs with dyadic denominators, as in dyadic-affine maps;
# at P_AFFINE bits every one of them is an exact mantissa
SLOPES = st.builds(Fraction, st.integers(-64, 64).filter(bool), st.sampled_from([1, 2, 4, 8, 1 << 40]))
ENDS = st.integers(-(1 << 80), 1 << 80)
P_AFFINE = 48


@settings(derandomize=True, deadline=None)
@given(ENDS, SLOPES, ENDS, ENDS)
@example(3 << 47, Fraction(-3, 2), 129 << 40, 131 << 40)  # tent(3/2)'s right branch
def test_affine_interval_encloses_the_image(b0, slope, lo, hi):
    # the interval step of a dyadic-affine row (b0, s): the lower end is
    # poly_down of the end that maps lowest, the upper end poly_up of the other
    lo, hi = min(lo, hi), max(lo, hi)
    row = (b0, dyadic.from_fraction(slope, P_AFFINE))
    assert row[1] == slope * (1 << P_AFFINE)
    if row[1] < 0:
        lo, hi = hi, lo
    ilo, ihi = dyadic.poly_down(row, lo, P_AFFINE), dyadic.poly_up(row, hi, P_AFFINE)
    ends = sorted(b0 + slope * x for x in (lo, hi))
    assert ilo == math.floor(ends[0]) and ihi == math.ceil(ends[1])
