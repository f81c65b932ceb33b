import math
from fractions import Fraction

import numpy as np

from intervaldyn import PiecewiseMap, catalog, poly_branch
from intervaldyn.attractors import (
    basin_census,
    classify_attractor,
    critical_orbit_closure,
    detect_periodic_like,
    signed_critical_sides,
    SignedCriticalSides,
)
from intervaldyn.maps import MINUS, PLUS
from intervaldyn.orbit_stats import batch_cells


def contraction_map():
    # x/2 with a declared (continuous) critical point at 1/2
    h = Fraction(1, 2)
    return PiecewiseMap(
        [
            poly_branch(0, h, (0, h), "increasing"),
            poly_branch(h, 1, (0, h), "increasing"),
        ],
        critical=[h],
        name="halving-split",
    )


def test_detect_periodic_like_contraction():
    certified, inconclusive = detect_periodic_like(contraction_map(), max_period=2)
    assert len(certified) == 1
    assert certified[0].points == (0.0,)
    assert not inconclusive


def test_detect_periodic_like_logistic32(logistic32):
    certified, _ = detect_periodic_like(logistic32, max_period=4)
    two = [a for a in certified if a.diagnostics["period"] == 2]
    assert len(two) == 1
    lam = 3.2
    r = math.sqrt((lam - 3) * (lam + 1))
    expect = sorted(((lam + 1 - r) / (2 * lam), (lam + 1 + r) / (2 * lam)))
    assert np.allclose(sorted(two[0].points), expect, atol=1e-9)
    # the fixed points 0 and 1-1/lam are repelling: not certified
    assert all(a.diagnostics["period"] != 1 for a in certified)


def test_periodic_like_count_bound_catalog(logistic4, tent2, doubling_map, lorenz_map):
    for pmap in (logistic4, tent2, doubling_map, lorenz_map):
        certified, _ = detect_periodic_like(pmap, max_period=6)
        not_genuine = [a for a in certified if a.diagnostics["hits_critical"]]
        assert len(not_genuine) <= 2 * len(pmap.critical)


def test_signed_sides_full_logistic(logistic4):
    sides = signed_critical_sides(logistic4, 0.2137, 1_000_000)
    assert sides.minus == (0.5,) and sides.plus == (0.5,)


def test_signed_sides_attracting_cycle(logistic32):
    sides = signed_critical_sides(logistic32, 0.2137, 100_000)
    assert sides.minus == () and sides.plus == ()


def test_signed_sides_doubling_periodic(doubling_map):
    sides = signed_critical_sides(doubling_map, Fraction(1, 3), 1000)
    assert sides.minus == () and sides.plus == ()
    assert not sides.flagged


def test_critical_orbit_closure_logistic4(logistic4):
    sides = SignedCriticalSides((0.5,), (0.5,))
    est, gens = critical_orbit_closure(logistic4, sides, 10_000, 2.0**-10)
    # orbit of f(1/2) = 1 is 1, 0, 0, ...: the closure is {0, 1} only
    assert list(est.cells) == [0, 1023]
    assert set(gens) == {(0.5, MINUS), (0.5, PLUS)}


def test_critical_orbit_closure_float_critical_points():
    # zigzag3's float critical points 1/3 and 2/3 are not exact; f(1/3+) taken
    # at the float 1/3 is 1 + 2^-54, whose exact orbit leaves [0, 1]
    pmap = catalog.zigzag3()
    fc = pmap.fcritical
    est, _ = critical_orbit_closure(pmap, SignedCriticalSides(fc, fc), 5000, 2.0**-10)
    assert list(est.cells) == [0, 1023]  # f(1/3+-) = 1 and f(2/3+-) = 0 are fixed


def test_critical_orbit_closure_localize_consistency(bimodal_map):
    # exclude both sides of the critical point the dynamics never visits;
    # generator closures agree cell-for-cell between f and the surgery g
    q = Fraction(4, 5)
    g = bimodal_map.localize(
        keep_minus=[Fraction(1, 5)],
        keep_plus=[Fraction(1, 5)],
        gaps={(q, MINUS): Fraction(7, 10), (q, PLUS): Fraction(9, 10)},
    )
    sides = SignedCriticalSides((0.2,), (0.2,))
    est_f, _ = critical_orbit_closure(bimodal_map, sides, 20_000, 2.0**-10)
    est_g, _ = critical_orbit_closure(g, sides, 20_000, 2.0**-10)
    assert np.array_equal(est_f.cells, est_g.cells)


def test_critical_closure_forward_invariant(feigenbaum_map):
    # orbit-point images stay inside the support; whole-cell images overshoot
    # by at most ceil(sup|f'|) cells at this resolution
    from intervaldyn.cells import neighborhood, ncells

    eps = 2.0**-10
    est, _ = critical_orbit_closure(
        feigenbaum_map, SignedCriticalSides((0.5,), (0.5,)), 400_000, eps
    )
    n = ncells(eps)
    slack = 4  # ceil of the maximum derivative of the map
    nb = set(neighborhood(est.cells, slack, n).tolist())
    support = set(est.cells.tolist())
    for c in est.cells:
        for ilo, ihi in feigenbaum_map.interval_image(c * eps, (c + 1) * eps):
            for tcell in range(max(0, int(ilo / eps)), min(n - 1, int(ihi / eps)) + 1):
                assert tcell in nb
    # points actually on the generator orbit map back into the support itself
    v = feigenbaum_map.one_sided_limit(0.5, "minus")
    pts = feigenbaum_map.iterate_orbit(v, 5000).points
    for x, y in zip(pts, pts[1:]):
        assert min(int(y / eps), n - 1) in support


def _support_of(pmap, x0, horizon=400_000, fine_bits=14):
    batch = batch_cells(pmap, np.array([x0]), horizon, horizon // 2, fine_bits)
    return batch.window_visited[0]


def test_classify_cycle_logistic4(logistic4):
    mask = _support_of(logistic4, 0.2137)
    est = classify_attractor(logistic4, 2.0**-12, mask, 14)
    assert est.kind == "cycle"
    assert est.intervals == [(0.0, 1.0)]


def test_classify_periodic_logistic32(logistic32):
    mask = _support_of(logistic32, 0.2137, horizon=100_000)
    est = classify_attractor(logistic32, 2.0**-12, mask, 14)
    assert est.kind == "periodic_like"
    assert len(est.points) == 2


def test_classify_cantor_feigenbaum(feigenbaum_map):
    mask = _support_of(feigenbaum_map, 0.2137, horizon=1_000_000)
    est = classify_attractor(feigenbaum_map, 2.0**-12, mask, 14)
    assert est.kind == "cantor", est.diagnostics
    assert est.diagnostics["slope"] <= 0.8


def test_classification_refinement_stable(logistic4, logistic32):
    # verdicts agree at eps and eps/2
    for pmap, x0 in ((logistic4, 0.2137), (logistic32, 0.3)):
        mask = _support_of(pmap, x0, horizon=200_000, fine_bits=14)
        kinds = set()
        for eps in (2.0**-10, 2.0**-11):
            est = classify_attractor(pmap, eps, mask, 14)
            kinds.add(est.kind)
        assert len(kinds) == 1


def test_census_logistic4_single_cycle(logistic4):
    report = basin_census(logistic4, 50, seed=11, horizon=200_000, eps=2.0**-12)
    assert len(report.clusters) == 1
    c = report.clusters[0]
    assert c.estimate.kind == "cycle"
    assert c.fraction == 1.0
    assert report.bound_ok and report.bound == 1


def test_census_period3_window():
    pmap = catalog.logistic(Fraction(383, 100))
    report = basin_census(pmap, 60, seed=5, horizon=200_000, eps=2.0**-12)
    assert len(report.clusters) == 1
    est = report.clusters[0].estimate
    assert est.kind == "periodic_like"
    assert len(est.points) == 3


def test_census_bimodal_two_attractors(bimodal_map):
    # the halves are invariant; the attracting cores inside them are the
    # cycles [0, 2/5] and [3/5, 1]
    report = basin_census(bimodal_map, 80, seed=3, horizon=200_000, eps=2.0**-12)
    kinds = [c.estimate.kind for c in report.clusters]
    assert len(report.clusters) == 2
    assert kinds == ["cycle", "cycle"]
    ivs = sorted(tuple(np.round(c.estimate.intervals, 3).ravel()) for c in report.clusters)
    assert abs(ivs[0][0] - 0.0) < 0.01 and abs(ivs[0][1] - 0.4) < 0.01
    assert abs(ivs[1][0] - 0.6) < 0.01 and abs(ivs[1][1] - 1.0) < 0.01
    assert report.non_periodic_count() == 2 <= report.bound == 2


def test_census_periodic_support_reiterates(logistic32):
    report = basin_census(logistic32, 30, seed=9, horizon=100_000, eps=2.0**-12)
    est = report.clusters[0].estimate
    assert est.kind == "periodic_like"
    for p in est.points:
        x = p
        for _ in range(1000):
            x = logistic32.evaluate(x)
        assert min(abs(x - t) for t in est.points) < 1e-9


def test_census_json_schema(logistic32):
    report = basin_census(logistic32, 10, seed=2, horizon=50_000, eps=2.0**-10)
    doc = report.to_json()
    assert '"schema": 1' in doc
    assert '"seed": 2' in doc
