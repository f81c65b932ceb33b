import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from intervaldyn import Observable, catalog
from intervaldyn.cells import cells_of_points
from intervaldyn.errors import ResolutionTooFine
from intervaldyn.maps import Termination
from intervaldyn.mapspec import parse_mapspec
from intervaldyn.orbit_stats import (
    _BranchTable,
    batch_cells,
    birkhoff_envelope,
    detect_historic,
    dyadic_orbit_cells,
    empirical_measure,
    omega_limit_estimate,
    orbit_points,
    statistical_omega_estimate,
    stats_csv,
    visiting_frequency,
)

PHI_X = Observable.identity()

# closed form: period-2 orbit of the logistic family from f(f(x)) = x
LAM = 3.2
P_MINUS = (LAM + 1 - math.sqrt((LAM - 3) * (LAM + 1))) / (2 * LAM)
P_PLUS = (LAM + 1 + math.sqrt((LAM - 3) * (LAM + 1))) / (2 * LAM)


def test_visiting_frequency_alternating_orbit(doubling_map):
    fs = visiting_frequency(doubling_map, Fraction(1, 3), (0.0, 0.5), 40)
    for cp, f in zip(fs.checkpoints, fs.frequencies):
        if cp % 2 == 0:
            assert f == 0.5
    assert not fs.truncated


def test_visiting_frequency_fixed_point(logistic4):
    fs = visiting_frequency(logistic4, 0.75, (0.7, 0.8), 256)
    assert np.all(fs.frequencies == 1.0)
    assert fs.tail_max == 1.0


def test_visiting_frequency_acip_symmetry(logistic4):
    # acip of the full logistic map gives [0,1/2] mass 1/2
    fs = visiting_frequency(logistic4, 0.2137, (0.0, 0.5), 1_000_000)
    assert abs(fs.frequencies[-1] - 0.5) < 0.01


def test_frequency_partition_sums_to_one(logistic32):
    a = visiting_frequency(logistic32, 0.271, (0.0, 0.37), 4096)
    b = visiting_frequency(logistic32, 0.271, [(0.37, 1.0 + 1e-9)], 4096)
    assert np.allclose(a.frequencies + b.frequencies, 1.0, atol=1e-12)


def test_omega_limit_period2(logistic32):
    est = omega_limit_estimate(logistic32, 0.3, 2000, 6000, 1e-3)
    assert list(est.cells) == [int(P_MINUS / 1e-3), int(P_PLUS / 1e-3)]


def test_omega_limit_fixed_point(logistic32):
    # repelling fixed point still has a constant orbit when started exactly there
    p = 1 - 1 / LAM
    est = omega_limit_estimate(logistic32, p, 10, 200, 1e-3)
    assert len(est.cells) <= 2  # numerical drift may straddle one boundary


def test_omega_limit_full_support(logistic4):
    est = omega_limit_estimate(logistic4, 0.2137, 500_000, 1_000_000, 1e-2)
    assert len(est.cells) == 100


def test_statistical_omega_doubling(doubling_map):
    est = statistical_omega_estimate(doubling_map, Fraction(1, 3), 40, 1e-2)
    assert list(est.cells) == [33, 66]


def test_statistical_vs_omega_period2(logistic32):
    n = 100_000
    st = statistical_omega_estimate(logistic32, 0.377, n, 2.0**-10)
    om = omega_limit_estimate(logistic32, 0.377, n // 2, n, 2.0**-10)
    assert np.array_equal(st.cells, om.cells)


def test_statistical_subset_of_omega_when_theta_small(logistic4, tent2):
    for pmap, x0 in ((logistic4, 0.2137), (tent2, 0.517)):
        n = 4096
        st = statistical_omega_estimate(pmap, x0, n, 2.0**-8, theta=1.0 / n)
        om = omega_limit_estimate(pmap, x0, 0, n, 2.0**-8)
        assert np.isin(st.cells, om.cells).all()


def test_birkhoff_fixed_point(logistic4):
    series = birkhoff_envelope(logistic4, 0.75, PHI_X, 1024)
    assert np.all(series.averages == 0.75)
    assert np.all(series.env_sup == 0.75)


def test_birkhoff_period2_mean(logistic32):
    # mean of the attracting 2-cycle; generic starts pay the transient at O(1/n)
    series = birkhoff_envelope(logistic32, 0.271, PHI_X, 1_000_000)
    assert abs(series.averages[-1] - (LAM + 1) / (2 * LAM)) < 1e-6  # 0.65625
    series = birkhoff_envelope(logistic32, P_MINUS, PHI_X, 10_000)
    assert abs(series.averages[-1] - (LAM + 1) / (2 * LAM)) < 1e-6


def test_birkhoff_doubling_exact_half(doubling_map):
    series = birkhoff_envelope(doubling_map, Fraction(1, 3), PHI_X, 64)
    for cp, avg in zip(series.checkpoints, series.averages):
        if cp % 2 == 0:
            assert abs(avg - 0.5) < 1e-14


def test_birkhoff_constant_observable(logistic4, doubling_map):
    const = Observable.constant(Fraction(3, 8))  # dyadic: float averaging is exact
    for pmap in (logistic4, doubling_map):
        series = birkhoff_envelope(pmap, 0.3217, const, 512)
        assert np.all(series.averages == 0.375)
        assert np.all(series.env_sup == series.env_inf)
    rough = Observable.constant(Fraction(3, 7))
    series = birkhoff_envelope(logistic4, 0.3217, rough, 512)
    assert np.allclose(series.averages, 3 / 7, atol=1e-15)


def test_envelope_invariants(logistic4):
    series = birkhoff_envelope(logistic4, 0.2137, PHI_X, 1 << 14)
    assert np.all(series.env_sup >= series.env_inf)
    assert np.all(series.averages <= 1.0) and np.all(series.averages >= 0.0)
    # tail sup cannot jump by more than half the observable range per doubling
    jumps = np.diff(series.env_sup)
    assert np.all(jumps <= 0.5 + 1e-12)


def test_detect_historic_negative_on_attracting_cycle(logistic32):
    verdict = detect_historic(logistic32, 0.271, PHI_X, 1 << 14, 0.05)
    assert not verdict.historic
    assert verdict.gap < 0.01


def test_detect_historic_negative_at_feigenbaum(feigenbaum_map):
    # unique ergodicity: two independent starts converge to equal averages
    v1 = detect_historic(feigenbaum_map, 0.2137, PHI_X, 1 << 20, 0.01)
    v2 = detect_historic(feigenbaum_map, 0.6123, PHI_X, 1 << 20, 0.01)
    assert not v1.historic and not v2.historic
    assert v1.gap < 1e-2 and v2.gap < 1e-2
    assert abs(v1.series.averages[-1] - v2.series.averages[-1]) < 1e-2


def test_empirical_measure_normalized(logistic4, doubling_map):
    for pmap in (logistic4, doubling_map):
        mu = empirical_measure(pmap, 0.2137, 100_000, 2.0**-10)
        assert abs(float(mu.weights.sum()) - 1.0) <= 1e-12


def test_truncated_orbit_flagged(doubling_map):
    # exact rational orbit that lands on the discontinuity: 1/4 -> 1/2 stop
    fs = visiting_frequency(doubling_map, Fraction(1, 4), (0.0, 0.5), 100)
    assert fs.truncated


def test_exact_engine_matches_true_rational_orbit(doubling_map):
    pts, truncated = orbit_points(doubling_map, Fraction(1, 5), 8)
    assert not truncated
    expect = [Fraction(1, 5), Fraction(2, 5), Fraction(4, 5), Fraction(3, 5), Fraction(1, 5)]
    assert np.allclose(pts[:5], [float(e) for e in expect], atol=0)


def test_batch_matches_scalar_exact_engine(tent2):
    seeds = np.array([0.2137, 0.5521, 0.8313])
    n, transient = 4096, 1024
    res = batch_cells(tent2, seeds, n, transient, fine_bits=10)
    for i, s in enumerate(seeds):
        est = omega_limit_estimate(tent2, float(s), transient, n, 2.0**-10)
        batch_set = np.flatnonzero(res.window_visited[i])
        # batch uses iterates 1..n, scalar includes x_0 .. x_n from transient on
        assert np.isin(batch_set, est.cells).all()
        assert len(np.setdiff1d(est.cells, batch_set)) <= 1


def test_batch_float_map_matches_scalar(logistic32):
    seeds = np.array([0.271, 0.612])
    res = batch_cells(logistic32, seeds, 4096, 2048, fine_bits=10)
    for i, s in enumerate(seeds):
        est = omega_limit_estimate(logistic32, float(s), 2048, 4096, 2.0**-10)
        assert np.array_equal(np.flatnonzero(res.window_visited[i]), est.cells)


def test_stats_csv_matches_separate_series(logistic4, doubling_map):
    V_list = [(0.0, 0.5), [(0.1, 0.2), (0.7, 0.9)]]
    for pmap, x0, n in ((logistic4, 0.2137, 5000), (doubling_map, Fraction(1, 4), 100)):
        series = birkhoff_envelope(pmap, x0, PHI_X, n)
        freqs = [visiting_frequency(pmap, x0, V, n).frequencies for V in V_list]
        lines = ["n,average,tail_sup,tail_inf,freq_V0,freq_V1"]
        for i, cp in enumerate(series.checkpoints):
            values = [series.averages[i], series.env_sup[i], series.env_inf[i]]
            values += [f[i] for f in freqs]
            lines.append(",".join([str(int(cp))] + [f"{v:.17g}" for v in values]))
        assert stats_csv(pmap, x0, PHI_X, V_list, n) == "\n".join(lines) + "\n"


# sha256 prefixes of (window_visited, counts, final) recorded before the block
# kernel replaced the per-step loop: 64 seeds x 2e4 steps, transient 1e4,
# fine_bits 12.  bimodal has three float expressions (the gather path),
# tent2 and doubling run on the exact /q path.
BATCH_DIGESTS = {
    "logistic3.2": ("90395767351c43cc", "9ae8ee779f5a4c29", "e9675e7c765fb98e"),
    "logistic3.83": ("f227124576f4bcb7", "58939c329d540faf", "79e23692b727e45f"),
    "feigenbaum": ("7dea16dd1336e52d", "57fd20d6109f695e", "13e79066d825f021"),
    "logistic4": ("f6c7abd5abbeb692", "9ee6e4fb4e0b38fa", "e881df7d3950f6c9"),
    "tent2": ("e381c5db3da49c6e", "49aff517fd4cc8c4", "def9669a36f49844"),
    "doubling": ("6d10f5f41d1a6edc", "632be47355c690ae", "b01fe1e1ed848a57"),
    "bimodal": ("2a0c0dd462d56dd7", "d82471b107ea6c20", "816f399d6bb664fd"),
}


@pytest.mark.parametrize("name", sorted(BATCH_DIGESTS))
def test_batch_cells_pinned(name):
    pmap = catalog.bimodal() if name == "bimodal" else catalog.standard_catalog()[name]
    seeds = np.random.default_rng(2021).uniform(0.001, 0.999, 64)
    res = batch_cells(pmap, seeds, 20_000, 10_000, fine_bits=12, want_counts=True)
    digests = tuple(
        hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]
        for a in (res.window_visited, res.counts, res.final)
    )
    assert digests == BATCH_DIGESTS[name]


# f(x) = 1 - (1-2x)^2 with its right half spelt two ways (one shared
# expression, or two), and the flatter f(x) = 1 - |1-2x|^3
POWER_SPECS = [
    "branch = (0, 1/2) : 1, -2 : increasing : exp=2, offset=1, sign=-1\n"
    "branch = (1/2, 1) : 1, -2 : decreasing : exp=2, offset=1, sign=-1\n",
    "branch = (0, 1/2) : 1, -2 : increasing : exp=2, offset=1, sign=-1\n"
    "branch = (1/2, 1) : -1, 2 : decreasing : exp=2, offset=1, sign=-1\n",
    "branch = (0, 1/2) : 1, -2 : increasing : exp=3, offset=1, sign=-1\n"
    "branch = (1/2, 1) : 1, -2 : decreasing : exp=3, offset=1, sign=1\n",
]


# seeds at the endpoints: logistic4 takes 0.5 to exactly 1.0, which the clamp
# moves, and 0.25 onto its fixed point 0.75; bimodal takes its critical point
# 0.8 to 1.0; 1e-300 starts below the least normal double
CLAMP_SEEDS = np.concatenate(
    [[0.5, 0.25, 0.75, 0.8, 1e-300], np.random.default_rng(2021).uniform(0.001, 0.999, 59)]
)
# (window_visited, counts, final) on CLAMP_SEEDS, n 5000, transient 100,
# fine_bits 12, recorded when the clamp still ran after every step
CLAMP_DIGESTS = {
    "logistic4": ("d663a770742212b6", "c7ca5b3a2c03a4a2", "57cfee27aae99353"),
    "bimodal": ("fd34ec02b47c96c5", "8a6e5ed86e8abedb", "8a284e05c90edf55"),
}


@pytest.mark.parametrize("name", sorted(CLAMP_DIGESTS))
def test_batch_cells_clamped_blocks_pinned(name):
    pmap = catalog.bimodal() if name == "bimodal" else catalog.logistic(4)
    res = batch_cells(pmap, CLAMP_SEEDS, 5000, 100, fine_bits=12, want_counts=True)
    digests = tuple(
        hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]
        for a in (res.window_visited, res.counts, res.final)
    )
    assert digests == CLAMP_DIGESTS[name]


@pytest.mark.parametrize("spec", POWER_SPECS, ids=["square-shared", "square-mirrored", "cube"])
def test_batch_power_branches_match_scalar(spec):
    pmap = parse_mapspec(spec + "critical = 1/2\n")
    seeds = np.array([0.2137, 0.3779, 0.6123, 0.9011])
    n, transient = 2000, 1000
    res = batch_cells(pmap, seeds, n, transient, fine_bits=12)
    for i, s in enumerate(seeds):
        orb = pmap.iterate_orbit(float(s), n)
        assert len(orb.points) == n + 1
        cells = cells_of_points(orb.points[transient:], 2.0**-12)
        assert np.array_equal(np.flatnonzero(res.window_visited[i]), cells)
        assert res.final[i] == orb.points[-1]


STEPPER_MAPS = {
    "logistic4": lambda: catalog.logistic(4),  # one row: no branch lookup
    "bimodal": catalog.bimodal,  # three rows, looked up
    **{
        f"power-{i}": (lambda spec=spec: parse_mapspec(spec + "critical = 1/2\n"))
        for i, spec in enumerate(POWER_SPECS)
    },
}


def _bits(a):
    """The float64 bit patterns of a, with every NaN made one NaN."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).view(np.uint64)


@pytest.mark.parametrize("name", sorted(STEPPER_MAPS))
def test_branch_table_stepper_matches_value(name):
    # bit for bit against the scalar value, with the branch given and looked
    # up (inside the branch, where the lookup cannot pick its neighbour)
    pmap = STEPPER_MAPS[name]()
    step = _BranchTable.of(pmap).stepper()
    for i, b in enumerate(pmap.branches):
        xs = np.linspace(b.flo, b.fhi, 513)
        want = _bits([b.value(x) for x in xs])
        out = np.empty_like(xs)
        step(xs, out, np.full(xs.size, i))
        assert np.array_equal(_bits(out), want), (i, "given")
        out = np.empty(xs.size - 2)
        step(xs[1:-1], out)
        assert np.array_equal(_bits(out), want[1:-1]), (i, "looked up")


@pytest.mark.parametrize("fine_bits", [33, -1])
def test_batch_rejects_fine_bits_before_allocating(fine_bits, logistic4, tent2, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before checking fine_bits")

    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setattr(np, "empty", refuse)
    for pmap in (logistic4, tent2):
        with pytest.raises(ValueError, match="fine_bits"):
            batch_cells(pmap, np.array([0.3, 0.6]), 10, 5, fine_bits=fine_bits)


@pytest.mark.parametrize("seed", [0.0, 1.0, -0.25, 1.5, math.nan])
def test_batch_rejects_seeds_outside_the_open_interval(seed, logistic4, tent2, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before checking the seeds")

    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setattr(np, "empty", refuse)
    for pmap in (logistic4, tent2):
        with pytest.raises(ValueError, match=r"seeds must lie in \(0, 1\)"):
            batch_cells(pmap, np.array([0.3, seed]), 10, 5, fine_bits=8)


def test_rounded_endpoint_moves_inward_in_both_engines(logistic4):
    # 4x(1-x) rounds onto 1 within 2^-28 of 1/2: both engines move it to the
    # largest double below 1, whose image is 2^-51 (1 - 2^-53), not the fixed point 0
    x0 = 0.5 + 2.0**-30
    orb = logistic4.iterate_orbit(x0, 4)
    assert orb.termination is Termination.HORIZON
    assert orb.points[1] == 1.0 - 2.0**-53
    assert orb.points[2] == 2.0**-51 * (1.0 - 2.0**-53)
    assert batch_cells(logistic4, np.array([x0]), 4, 1, fine_bits=8).final[0] == orb.points[-1]


def test_rounded_endpoint_no_longer_absorbs_the_statistics(logistic4):
    # this seed rounds onto 1 at step 843 397; sent on to the fixed point 0
    # its average was 0.4227 and its frequency of [0, 1/2) 0.5771
    last = stats_csv(logistic4, 0.30116040783238995, PHI_X, [(0.0, 0.5)], 10**6).splitlines()[-1]
    n, average, _, _, freq = last.split(",")
    assert n == "1000000"
    assert abs(float(average) - 0.5) < 0.01 and abs(float(freq) - 0.5) < 0.01


_SEEDS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(-(2.0**-28), 2.0**-28).map(lambda d: 0.5 + d),
)


@settings(derandomize=True, deadline=None)
@given(
    lam=st.one_of(st.just(Fraction(4)), st.fractions(3, 4, max_denominator=1000)),
    bimodal=st.booleans(),
    seeds=st.lists(_SEEDS, min_size=1, max_size=4),
    n=st.integers(1, 2000),
    data=st.data(),
)
def test_batch_cells_follow_the_scalar_engine(lam, bimodal, seeds, n, data):
    pmap = catalog.bimodal() if bimodal else catalog.logistic(lam)
    seeds = [s for s in seeds if pmap.nearest_critical(s) is None]
    assume(seeds)
    transient = data.draw(st.integers(1, n))
    res = batch_cells(pmap, np.array(seeds), n, transient, fine_bits=10)
    for i, s in enumerate(seeds):
        orb = pmap.iterate_orbit(s, n)
        assert orb.termination is Termination.HORIZON
        cells = cells_of_points(orb.points[transient:], 2.0**-10)
        assert np.array_equal(np.flatnonzero(res.window_visited[i]), cells)
        assert res.final[i] == orb.points[-1]


@pytest.mark.parametrize("want_counts", [False, True])
def test_batch_rejects_masks_beyond_memory(want_counts, logistic4, tent2, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before checking the memory needed")

    seeds = np.linspace(0.1, 0.9, 4096)  # 4096 seeds x 2^32 cells: 16 TiB of masks
    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setattr(np, "empty", refuse)
    for pmap in (logistic4, tent2):
        with pytest.raises(ResolutionTooFine, match="physical memory"):
            batch_cells(pmap, seeds, 10, 5, fine_bits=32, want_counts=want_counts)


@pytest.mark.parametrize("first", [0, 1])
def test_orbit_points_keeps_engines_apart(doubling_map, first):
    # Fraction(1, 2) == 0.5, but the exact engine stops on the discontinuity
    # while the /q engine moves 0.5 off it
    x0s = [Fraction(1, 2), 0.5]
    for x0 in x0s[first:] + x0s[:first]:
        pts, truncated = orbit_points(doubling_map, x0, 10)
        if isinstance(x0, Fraction):
            assert truncated and pts.tolist() == [0.5]
        else:
            assert not truncated and len(pts) == 11 and pts[0] != 0.5


def test_orbit_points_keeps_signed_zeros_apart(logistic4):
    # -0.0 == 0.0, but the float orbit starts from the seed's own sign
    for x0 in (0.0, -0.0, 0.0):
        pts, _ = orbit_points(logistic4, x0, 3)
        assert math.copysign(1.0, pts[0]) == math.copysign(1.0, x0)


def test_orbit_points_takes_long_fraction_seeds(lorenz_map):
    # the critical point has a 40 000-bit denominator, past the limit on
    # converting integers to decimal strings
    c = lorenz_map.critical[0]
    pts, truncated = orbit_points(lorenz_map, c, 1)
    assert not truncated and pts.tolist() == [float(c), 1.0]
    assert orbit_points(lorenz_map, c, 1)[0] is pts


def test_orbit_points_holds_one_read_only_orbit(logistic4):
    pts, _ = orbit_points(logistic4, 0.2137, 100)
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[1] = 0.5
    again, _ = orbit_points(logistic4, 0.2137, 100)
    assert again is pts
    # an equal map is another map object: its orbit is computed afresh
    other, _ = orbit_points(catalog.logistic(4), 0.2137, 100)
    assert other is not pts and np.array_equal(other, pts)
    assert orbit_points(logistic4, 0.2137, 101)[0] is not pts


def _plain(value):
    if dataclasses.is_dataclass(value):
        return {k: _plain(v) for k, v in vars(value).items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize(
    "stat",
    [
        lambda m, x0: stats_csv(m, x0, PHI_X, [(0.0, 0.5)], 4096),
        lambda m, x0: detect_historic(m, x0, PHI_X, 4096, 0.1),
        lambda m, x0: omega_limit_estimate(m, x0, 2048, 4096, 2.0**-8),
        lambda m, x0: statistical_omega_estimate(m, x0, 4096, 2.0**-8),
    ],
    ids=["stats_csv", "detect_historic", "omega", "statistical_omega"],
)
def test_statistics_repeat_on_the_held_orbit(stat, logistic4, doubling_map):
    for pmap, x0 in ((logistic4, 0.3217), (doubling_map, 0.3217), (doubling_map, Fraction(1, 7))):
        assert _plain(stat(pmap, x0)) == _plain(stat(pmap, x0))


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


# sha256 prefixes of (points, truncated), recorded before the exact engines
# shared one table and one step each: n = 5000 on the /q engine (float seeds)
# and the Fraction engine, where 1/4 lands exactly on 1/2 and 1/9 on 1/3;
# n = 2000 on the lorenz dyadic engine
EXACT_ORBIT_DIGESTS = {
    ("tent2", "0.2137"): "35ab918bddb2aa14",
    ("tent2", "0.5"): "a63d5bafbdc63638",
    ("tent2", "1/4"): "f7089339cbae813f",
    ("tent2", "5/1048576"): "226ed9f8e8c20e96",
    ("tent2", "1/9"): "d6a0e8b0dd4d2bd5",
    ("tent2", "2/7"): "35a9e60147c05099",
    ("tent2", "123456/1000003"): "e0a71aa469a131a9",
    ("doubling", "0.2137"): "92a1d816181c09d4",
    ("doubling", "0.5"): "f822b348cfe35c43",
    ("doubling", "1/4"): "900aef996b0edc60",
    ("doubling", "5/1048576"): "aadf2788db65c6ec",
    ("doubling", "1/9"): "4dfeec5990ecfe2d",
    ("doubling", "2/7"): "99d2ada8aabb1e39",
    ("doubling", "123456/1000003"): "fd45d319ba02efa5",
    ("zigzag3", "0.2137"): "9a85c5ff004c2248",
    ("zigzag3", "0.5"): "d80bb71acb572b02",
    ("zigzag3", "1/4"): "d76163166cbb53f0",
    ("zigzag3", "5/1048576"): "febbb4bcbe44dd05",
    ("zigzag3", "1/9"): "2d737c3d00758698",
    ("zigzag3", "2/7"): "9d1809a27cc2bf61",
    ("zigzag3", "123456/1000003"): "66d934f56f913925",
    ("lorenz", "0.2137"): "12cbd687e448fa9a",
    ("lorenz", "1/3"): "0696dc9034c5483e",
}


@pytest.mark.parametrize("name, seed", sorted(EXACT_ORBIT_DIGESTS))
def test_exact_orbits_pinned(name, seed):
    pmap = {"tent2": catalog.tent(2), "doubling": catalog.doubling(),
            "zigzag3": catalog.zigzag3(), "lorenz": catalog.lorenz()}[name]
    x0 = Fraction(seed) if "/" in seed else float(seed)
    pts, truncated = orbit_points(pmap, x0, 2000 if name == "lorenz" else 5000)
    assert _digest(pts, truncated) == EXACT_ORBIT_DIGESTS[name, seed]


def test_dyadic_orbit_cells_pinned(lorenz_map):
    # recorded with the orbit points above: the gap's midpoint at 2^-16 over
    # the whole orbit, and the critical value f(c+) at 2^-12
    g_lo, g_hi = lorenz_map.evaluate(1.0), lorenz_map.evaluate(0.0)
    mid = dyadic_orbit_cells(lorenz_map, Fraction(0.5 * (g_lo + g_hi)), 3000, 16)
    assert _digest(mid) == "60be62292372c4d3"
    crit = lorenz_map.one_sided_limit_exact(lorenz_map.critical[0], "plus")
    assert _digest(dyadic_orbit_cells(lorenz_map, crit, 3000, 12)) == "654130609fab469d"


@pytest.mark.parametrize("name", ["tent2", "doubling", "zigzag3"])
def test_float_seeds_run_on_their_nearest_q_rational(name):
    # a float seed of an integer-linear map runs as the Fraction round(x0 q)/q
    pmap = {"tent2": catalog.tent(2), "doubling": catalog.doubling(),
            "zigzag3": catalog.zigzag3()}[name]
    q = catalog.ORBIT_PRIME
    for x0 in (0.2137, 0.5, 1 / 3, 2 / 3, 0.9999):
        pts, truncated = orbit_points(pmap, x0, 3000)
        pts = pts.copy()
        exact, exact_truncated = orbit_points(pmap, Fraction(round(x0 * q), q), 3000)
        assert np.array_equal(pts, exact) and truncated == exact_truncated, x0


def test_exact_orbits_put_a_cut_in_its_left_branch(lorenz_map, doubling_map):
    # a mantissa equal to a cut is not right of it: lorenz's left branch
    # sends c (in cell 0 at 2^-1) to 1 (cell 1), its right branch to 0
    cells = dyadic_orbit_cells(lorenz_map, lorenz_map.critical[0], 1, 1)
    assert cells.tolist() == [0, 1]
    # on the /q engine p = floor(q/2) lies left of 1/2 (q is odd)
    q = catalog.ORBIT_PRIME
    pts, _ = orbit_points(doubling_map, (q // 2) / q, 1)
    assert pts[1] == (q - 1) / q
