import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from intervaldyn import Observable, PiecewiseMap, poly_branch, catalog
from intervaldyn.structure import (
    birkhoff_max_oracle,
    classify_homterval,
    find_homtervals,
    first_return_map,
    is_full_branch,
    lap_counts,
    lap_entropy,
    periodic_orbits,
    strong_transitivity_check,
    wandering_attractor_check,
    word_domain,
    word_eval,
)

PHI_X = Observable.identity()


def halving_map():
    # x -> x/2 with a non-critical breakpoint at 1/2 (smooth join)
    h = Fraction(1, 2)
    return PiecewiseMap(
        [
            poly_branch(0, h, (0, h), "increasing"),
            poly_branch(h, 1, (0, h), "increasing"),
        ],
        critical=[],
        name="halving",
    )


def test_word_domains_partition(logistic4):
    doms = [word_domain(logistic4, (i, j)) for i in range(2) for j in range(2)]
    assert all(d is not None for d in doms)
    total = sum(hi - lo for lo, hi in doms)
    assert abs(total - 1.0) < 1e-9


def test_periodic_orbits_logistic4_fixed_points(logistic4):
    table = periodic_orbits(logistic4, 1, [PHI_X])
    pts = sorted(p for o in table.orbits for p in o.points)
    assert np.allclose(pts, [0.0, 0.75], atol=1e-12)


def test_periodic_orbits_without_critical_points():
    # x -> x/2 has no critical point; its only periodic orbit is the fixed point 0
    table = periodic_orbits(halving_map(), 2, [PHI_X])
    assert [o.points for o in table.orbits] == [(0.0,)]
    assert table.fix_counts == {1: 1, 2: 1}


def _necklaces(q: int) -> int:
    """Primitive binary necklaces of length q: the period-q orbits of the 2-shift."""
    mobius = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1, 11: -1, 12: 0}
    return sum(mobius[d] * 2 ** (q // d) for d in range(1, q + 1) if q % d == 0) // q


def test_fix_counts_doubling_powers(logistic4):
    table = periodic_orbits(logistic4, 12, [])
    for q in range(1, 13):
        assert table.fix_counts[q] == 2**q, (q, table.fix_counts[q])
        # each orbit once, also where its points sit farther apart than the
        # dedupe tolerance from the roots found under its other rotations
        assert len(table.of_period(q)) == _necklaces(q), q
    assert len(table.orbits) == 747


@pytest.mark.parametrize(
    "name, digest",
    [
        ("logistic4", "8e8c69dcefad"),
        ("logistic3.83", "541c0728e5ed"),
        ("bimodal", "017dcd5ce4dc"),
    ],
)
def test_periodic_orbit_table_pinned(name, digest):
    # sha256 prefixes of to_csv() at Q = 8, the depth the historic command uses
    pmap = catalog.bimodal() if name == "bimodal" else catalog.standard_catalog()[name]
    csv = periodic_orbits(pmap, 8, [PHI_X]).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest()[:12] == digest


def test_periodic_orbit_verification_invariants(logistic4):
    table = periodic_orbits(logistic4, 8, [PHI_X])
    for orb in table.orbits:
        x = orb.points[0]
        y = word_eval(logistic4, orb.word, x)
        assert abs(y - x) <= 1e-12
        for i, a in enumerate(orb.points):
            for b in orb.points[i + 1 :]:
                assert abs(a - b) > 1e-10


def test_period2_mean_closed_form(logistic32):
    table = periodic_orbits(logistic32, 2, [PHI_X])
    orbs = table.of_period(2)
    assert len(orbs) == 1
    lam = 3.2
    assert abs(orbs[0].means["x"] - (lam + 1) / (2 * lam)) < 1e-9  # 0.65625
    assert orbs[0].multiplier < 1  # attracting
    csv = table.to_csv()
    assert csv.splitlines()[0] == "period,points,multiplier,mean_x"
    assert any(line.startswith("2,") for line in csv.splitlines())


def test_return_map_doubling_dyadic_branches(doubling_map):
    rm = first_return_map(doubling_map, (0.0, 0.5), horizon=12)
    assert is_full_branch(rm, tol=1e-9)
    by_time = {b.time: b.domain for b in rm.branches}
    assert abs(by_time[1][0] - 0.0) < 1e-12 and abs(by_time[1][1] - 0.25) < 1e-12
    assert abs(by_time[2][0] - 0.25) < 1e-12 and abs(by_time[2][1] - 0.375) < 1e-12
    assert abs(by_time[3][0] - 0.375) < 1e-12 and abs(by_time[3][1] - 0.4375) < 1e-12


def test_return_map_branch_semantics(doubling_map):
    rm = first_return_map(doubling_map, (0.0, 0.5), horizon=10)
    a, b = rm.base
    for br in rm.branches[:6]:
        lo, hi = br.domain
        for x in np.linspace(lo + 1e-9, hi - 1e-9, 5):
            y = float(x)
            for j in range(1, br.time):
                y = doubling_map.evaluate(y)
                assert not (a < y < b), "premature return"
            y = doubling_map.evaluate(y)
            assert a - 1e-9 <= y <= b + 1e-9
            assert br.image[0] - 1e-9 <= y <= br.image[1] + 1e-9


def test_return_map_invariant_interval_single_branch():
    rm = first_return_map(halving_map(), (0.0, 0.4), horizon=5)
    assert len(rm.branches) == 1
    br = rm.branches[0]
    assert br.time == 1
    assert abs(br.domain[0] - 0.0) < 1e-12 and abs(br.domain[1] - 0.4) < 1e-12
    assert not is_full_branch(rm)  # image (0, 0.2) is a strict subset


def test_return_map_residual_shrinks(logistic4):
    rm = first_return_map(logistic4, (0.3, 0.7), horizon=50, min_branch_width=1e-9)
    total = sum(b.domain[1] - b.domain[0] for b in rm.branches)
    assert rm.residual_length < 0.01 * 0.4
    assert abs(total + rm.residual_length - 0.4) < 1e-6


def test_return_map_feigenbaum_gap_full_branch(feigenbaum_map):
    # nice interval: the top-level gap of the Cantor attractor, bounded by
    # critical-orbit points whose orbits stay on the attractor
    orb = feigenbaum_map.iterate_orbit(0.5, 5).points
    lo, hi = orb[4] + 1e-9, orb[3] - 1e-9
    rm = first_return_map(feigenbaum_map, (lo, hi), horizon=60, min_branch_width=1e-5)
    assert rm.branches
    assert is_full_branch(rm, tol=1e-3)


def test_find_homtervals_doubling_none(doubling_map):
    assert find_homtervals(doubling_map, 9, 0.01) == []


def test_homterval_basin_at_attracting_cycle(logistic32):
    cands = find_homtervals(logistic32, 24, 0.01)
    assert cands, "attracting-cycle basin should leave homterval candidates"
    inside = [c for c in cands if c[0] > 0.4 and c[1] < 0.9]
    assert inside
    verdict = classify_homterval(logistic32, inside[0], 200)
    assert verdict.verdict == "basin"


def test_lorenz_gap_is_wandering(lorenz_map):
    # candidates must be isolated at the same horizon they are classified at:
    # any interval strictly larger than the wandering gap eventually hits C
    horizon = 10_000
    cands = find_homtervals(lorenz_map, horizon, 0.05)
    g_lo = lorenz_map.evaluate(1.0)
    g_hi = lorenz_map.evaluate(0.0)
    holder = [c for c in cands if abs(c[0] - g_lo) < 1e-6 and abs(c[1] - g_hi) < 1e-6]
    assert holder, (cands, (g_lo, g_hi))
    verdict = classify_homterval(lorenz_map, holder[0], horizon)
    assert verdict.verdict == "wandering", verdict
    # a plain expanding map has no candidates to classify (vacuous case)
    assert find_homtervals(catalog.tent(2), 9, 0.01) == []


def test_wandering_attractor_check_lorenz(lorenz_map):
    g_lo = lorenz_map.evaluate(1.0)
    g_hi = lorenz_map.evaluate(0.0)
    match = wandering_attractor_check(lorenz_map, (g_lo + 1e-9, g_hi - 1e-9), 30_000, 2.0**-12)
    assert match.matched, match.distance_cells
    assert match.distance_cells <= 2.0
    assert match.candidate_count == 4  # 2^(2 * #C)
    assert match.contains_critical_cell


def test_lap_counts_full_maps(logistic4, tent2, doubling_map):
    for pmap in (logistic4, tent2, doubling_map):
        counts = lap_counts(pmap, 16)
        assert counts == [2**k for k in range(1, 17)]


def test_lap_submultiplicative(logistic32, bimodal_map, lorenz_map):
    for pmap in (logistic32, bimodal_map, lorenz_map):
        counts = lap_counts(pmap, 14)
        lap = {n + 1: c for n, c in enumerate(counts)}
        for n in range(1, 8):
            for m in range(1, 15 - n):
                assert lap[n + m] <= lap[n] * lap[m]


def test_lap_entropy_catalog(logistic4, tent2, feigenbaum_map):
    assert abs(lap_entropy(logistic4, 24).entropy - math.log(2)) < 0.05
    assert abs(lap_entropy(tent2, 24).entropy - math.log(2)) < 0.02
    assert lap_entropy(feigenbaum_map, 24).entropy <= 0.05


def test_lap_entropy_lorenz_low(lorenz_map):
    lc = lap_entropy(lorenz_map, 24)
    assert lc.entropy <= 0.05
    assert lc.counts[:4] == [2, 3, 4, 5]  # injective rotation-like growth


def test_strong_transitivity_logistic4(logistic4):
    rep = strong_transitivity_check(logistic4, (0.0, 1.0), [(0.4, 0.41)], 30, 2.0**-10)
    assert rep.passed
    assert rep.cover_times[0] <= 30


def test_strong_transitivity_fails_on_point_cycle(logistic32):
    # the 2-point orbit's small hull is not a cycle of intervals: probes
    # contract onto the cycle and never sweep the hull
    lam = 3.2
    r = math.sqrt((lam - 3) * (lam + 1))
    p1, p2 = (lam + 1 - r) / (2 * lam), (lam + 1 + r) / (2 * lam)
    hull = [(p1 - 1e-3, p1 + 1e-3), (p2 - 1e-3, p2 + 1e-3)]
    rep = strong_transitivity_check(
        logistic32, hull, [(p1 - 5e-5, p1 + 5e-5)], 40, 1e-6
    )
    assert not rep.passed
    assert rep.residues[0] > 1e-4


def test_doubling_cover_time_exact(doubling_map):
    w = 0.01
    rng = np.random.default_rng(5)
    expect = math.ceil(math.log2(1.0 / w)) + 1
    for a in rng.uniform(0, 1 - w, 6):
        rep = strong_transitivity_check(
            doubling_map, (0.0, 1.0), [(float(a), float(a) + w)], 60, 2.0**-10
        )
        assert rep.passed
        assert rep.cover_times[0] == expect, (a, rep.cover_times)


class _Stub:
    def __init__(self, **kw):
        self.__dict__.update(kw)


def test_birkhoff_oracle_periodic_like(logistic32):
    table = periodic_orbits(logistic32, 2, [PHI_X])
    orb = table.of_period(2)[0]
    att = _Stub(kind="periodic_like", points=orb.points)
    res = birkhoff_max_oracle(logistic32, att, PHI_X)
    assert abs(res.value - 0.65625) < 1e-9


def test_birkhoff_oracle_cycle_lower_bound(logistic4):
    att = _Stub(kind="cycle", intervals=[(0.0, 1.0)], eps=2.0**-12)
    res = birkhoff_max_oracle(logistic4, att, PHI_X, Q=12)
    assert res.value >= 0.75 - 1e-12
    trace_vals = [res.trace[q] for q in sorted(res.trace)]
    assert all(b >= a - 1e-15 for a, b in zip(trace_vals, trace_vals[1:]))


def test_birkhoff_oracle_constant(logistic4, logistic32):
    const = Observable.constant(Fraction(2, 5))
    cyc = _Stub(kind="cycle", intervals=[(0.0, 1.0)], eps=2.0**-12)
    res = birkhoff_max_oracle(logistic4, cyc, const, Q=4)
    assert abs(res.value - 0.4) < 1e-15
    table = periodic_orbits(logistic32, 2, [const])
    per = _Stub(kind="periodic_like", points=table.of_period(2)[0].points)
    assert abs(birkhoff_max_oracle(logistic32, per, const).value - 0.4) < 1e-15


def test_birkhoff_oracle_rejects_unresolved(logistic4):
    with pytest.raises(Exception):
        birkhoff_max_oracle(logistic4, _Stub(kind="unresolved"), PHI_X)
