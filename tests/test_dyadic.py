import random

import pytest

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
