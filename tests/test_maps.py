from fractions import Fraction

import numpy as np
import pytest

from intervaldyn import (
    CriticalPoint,
    FlatBranch,
    GapOverlap,
    MINUS,
    PLUS,
    PiecewiseMap,
    RangeViolation,
    Termination,
    poly_branch,
    power_branch,
)
from intervaldyn import catalog
from intervaldyn.branch import BranchSpec
from intervaldyn.mapspec import parse_mapspec
from intervaldyn.orbit_stats import orbit_points


def test_tent_evaluate(tent2):
    assert tent2.evaluate(0.25) == 0.5
    assert tent2.evaluate(0.75) == 0.5
    assert tent2.evaluate(0.0) == 0.0
    assert tent2.evaluate(1.0) == 0.0


def test_logistic_critical_point_rejected(logistic4):
    with pytest.raises(CriticalPoint):
        logistic4.evaluate(0.5)
    with pytest.raises(CriticalPoint):
        logistic4.evaluate(0.5 + 1e-15)


def test_doubling_evaluate(doubling_map):
    assert doubling_map.evaluate(0.75) == 0.5
    assert doubling_map.evaluate(0.25) == 0.5
    assert doubling_map.evaluate(1.0) == 1.0


def test_one_sided_limits(doubling_map, logistic4, bimodal_map, lorenz_map):
    assert doubling_map.one_sided_limit(0.5, MINUS) == 1.0
    assert doubling_map.one_sided_limit(0.5, PLUS) == 0.0
    assert logistic4.one_sided_limit(0.5, MINUS) == 1.0
    assert logistic4.one_sided_limit(0.5, PLUS) == 1.0
    # a float critical point names the exact one, and the limit is taken there
    assert bimodal_map.one_sided_limit(0.2, MINUS) == 0.0
    assert bimodal_map.one_sided_limit(0.8, PLUS) == 1.0
    assert lorenz_map.one_sided_limit(float(lorenz_map.critical[0]), PLUS) == 0.0


def test_continuity_flags(logistic4, doubling_map, tent2, bimodal_map):
    assert logistic4.continuity == (True,)
    assert tent2.continuity == (True,)
    assert doubling_map.continuity == (False,)
    assert bimodal_map.continuity == (True, True)
    assert logistic4.is_continuous and not doubling_map.is_continuous


def test_orbit_truncates_at_critical(doubling_map):
    orb = doubling_map.iterate_orbit(0.5, 10)  # discontinuous at 1/2
    assert orb.termination is Termination.CRITICAL
    assert orb.trunc_step == 0 and orb.trunc_critical == 0.5
    assert list(orb.points) == [0.5]


def test_orbit_continues_through_critical(logistic4):
    orb = logistic4.iterate_orbit(0.5, 5)  # continuous map: pass-through default
    assert orb.termination is Termination.HORIZON
    assert list(orb.points) == [0.5, 1.0, 0.0, 0.0, 0.0, 0.0]


def test_pass_through_is_decided_per_critical_point():
    # 3x | 2-3x | 2x-1 is continuous at 1/3 and not at 2/3: the float orbit
    # passes 1/3 onto the exact f(1/3-) = 1 and stops at 2/3, as the exact one does
    zigzag = parse_mapspec(
        "branch = (0, 1/3) : 0, 3 : increasing\n"
        "branch = (1/3, 2/3) : 2, -3 : decreasing\n"
        "branch = (2/3, 1) : -1, 2 : increasing\n"
        "critical = 1/3, 2/3\n"
    )
    assert zigzag.continuity == (True, False)
    assert zigzag.iterate_orbit(1 / 3, 3).points.tolist() == [1 / 3, 1.0, 1.0, 1.0]
    for x0 in (Fraction(1, 3), Fraction(1, 27), Fraction(2, 9), Fraction(2, 3)):
        orb = zigzag.iterate_orbit(float(x0), 6)
        pts, truncated = orbit_points(zigzag, x0, 6)
        assert orb.points.tolist() == pts.tolist()
        assert (orb.termination is Termination.CRITICAL) == truncated


def test_degenerate_value_ends_the_orbit(monkeypatch):
    # a branch value that is NaN, as a fractional power of a negative phi
    # would be, gets through neither evaluate nor iterate_orbit
    pmap = parse_mapspec("branch = (0, 1) : 0, 1 : increasing\n")
    monkeypatch.setattr(BranchSpec, "value", lambda self, x: float("nan"))
    with pytest.raises(RangeViolation):
        pmap.evaluate(0.3)
    orb = pmap.iterate_orbit(0.3, 5)
    assert orb.termination is Termination.DEGENERATE and orb.points.tolist() == [0.3]


def test_doubling_period_two_orbit(doubling_map):
    orb = doubling_map.iterate_orbit(1 / 3, 4)
    assert orb.termination is Termination.HORIZON
    expect = [1 / 3, 2 / 3, 1 / 3, 2 / 3, 1 / 3]
    assert np.allclose(orb.points, expect, atol=1e-12)


def test_orbit_semigroup_property(logistic32):
    x0 = 0.2137
    full = logistic32.iterate_orbit(x0, 50).points
    head = logistic32.iterate_orbit(x0, 20).points
    tail = logistic32.iterate_orbit(head[-1], 30).points
    assert full[20] == head[-1]
    assert np.array_equal(full[20:], tail)


def test_check_nonflat_catalog(logistic4, tent2, doubling_map, bimodal_map, lorenz_map):
    assert logistic4.check_nonflat() == {0.5: (2.0, 2.0)}
    assert tent2.check_nonflat() == {0.5: (1.0, 1.0)}
    assert doubling_map.check_nonflat() == {0.5: (1.0, 1.0)}
    assert lorenz_map.check_nonflat()[lorenz_map.fcritical[0]] == (1.0, 1.0)
    assert bimodal_map.check_nonflat() == {0.2: (1.0, 1.0), 0.8: (1.0, 1.0)}


def test_flat_branch_rejected():
    with pytest.raises(FlatBranch):
        poly_branch(0, 1, (Fraction(1, 2), 0, 0), "increasing")


def test_power_branch_nonflat_exponent():
    # f = 1/2 + (x - 1/2)^3 on the right of c=1/2 (cubic tangency)
    b = power_branch(Fraction(1, 2), 1, Fraction(1, 2), (Fraction(-1, 2), 1), 3, "increasing")
    assert b.vanishing_order_at(Fraction(1, 2)) == 3
    left = poly_branch(0, Fraction(1, 2), (0, 1), "increasing")
    pmap = PiecewiseMap([left, b], critical=[Fraction(1, 2)])
    assert pmap.check_nonflat()[0.5] == (1.0, 3.0)


def test_one_sided_limit_first_order(logistic4, tent2):
    # |f(c -/+ h) - f(c -/+)| <= K h^alpha for the certified exponent
    report = {**logistic4.check_nonflat(), **tent2.check_nonflat()}
    for pmap in (logistic4, tent2):
        alpha, beta = pmap.check_nonflat()[0.5]
        for side, expo in ((MINUS, alpha), (PLUS, beta)):
            lim = pmap.one_sided_limit(0.5, side)
            for k in range(3, 9):
                h = 10.0 ** -k
                x = 0.5 - h if side == MINUS else 0.5 + h
                assert abs(pmap.evaluate(x) - lim) <= 8.0 * h**expo


def test_localize_identity(doubling_map):
    g = doubling_map.localize(keep_minus=[0.5], keep_plus=[0.5], gaps={})
    for x in np.linspace(0.01, 0.99, 37):
        if abs(x - 0.5) < 1e-9:
            continue
        assert g.evaluate(float(x)) == doubling_map.evaluate(float(x))


def test_localize_doubling_plus_side(doubling_map):
    half = Fraction(1, 2)
    g = doubling_map.localize(
        keep_minus=[half], keep_plus=[], gaps={(half, PLUS): Fraction(3, 5)}
    )
    assert g.critical == doubling_map.critical
    # untouched off the gap
    assert g.evaluate(0.3) == doubling_map.evaluate(0.3)
    assert g.evaluate(0.7) == doubling_map.evaluate(0.7)
    # the excluded side heads to 0 and differs inside the gap
    assert g.one_sided_limit(0.5, PLUS) == 0.0
    assert g.evaluate(0.55) != doubling_map.evaluate(0.55)
    assert 0.0 < g.evaluate(0.55) < 0.1
    # orbit invariance for orbits avoiding the gap
    rng = np.random.default_rng(7)
    checked = 0
    for x0 in rng.uniform(0, 1, 400):
        orb_f = doubling_map.iterate_orbit(float(x0), 12)
        pts = orb_f.points
        if ((pts > 0.5) & (pts < 0.6)).any():
            continue
        orb_g = g.iterate_orbit(float(x0), 12)
        assert np.array_equal(orb_f.points, orb_g.points)
        checked += 1
    assert checked > 10


def test_localize_gap_overlap_rejected(bimodal_map):
    with pytest.raises(GapOverlap):
        bimodal_map.localize(
            keep_minus=[Fraction(1, 5), Fraction(4, 5)],
            keep_plus=[Fraction(4, 5)],
            gaps={(Fraction(1, 5), PLUS): Fraction(9, 10)},  # crosses c=4/5
        )


def test_localized_orbit_closure_agreement(lorenz_map):
    # localize away from the generator orbits: any x avoiding the gaps has
    # an identical orbit under f and g for the full horizon
    c = lorenz_map.critical[0]
    g = lorenz_map.localize(keep_minus=[c], keep_plus=[c], gaps={})
    x = 0.123456
    a = lorenz_map.iterate_orbit(x, 200).points
    b = g.iterate_orbit(x, 200).points
    assert np.array_equal(a, b)


def test_interval_image_splits_at_critical(logistic4):
    pieces = logistic4.interval_image(0.4, 0.6)
    assert len(pieces) == 2
    lo = min(p[0] for p in pieces)
    hi = max(p[1] for p in pieces)
    assert hi == 1.0
    assert abs(lo - logistic4.evaluate(0.4)) < 1e-12


def test_range_violation_guard():
    with pytest.raises(Exception):
        poly_branch(0, 1, (0, 2), "increasing")  # maps onto [0,2]
