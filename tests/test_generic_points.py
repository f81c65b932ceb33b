import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intervaldyn import Observable, catalog, dyadic, generic_points
from intervaldyn.errors import EnvelopeViolation, NotClassified
from intervaldyn.generic_points import (
    NestedWitness,
    StageRecord,
    _BranchArith,
    _ChainBuilder,
    _certify_forward,
    construct_historic_point,
    construct_max_average_point,
    replay_positions,
    verify_witness,
)
from intervaldyn.mapspec import parse_mapspec
from intervaldyn.orbit_stats import detect_historic

PHI_X = Observable.identity()
FULL = [(0.0, 1.0)]


@pytest.fixture(scope="module")
def logistic4_witness(logistic4):
    return construct_historic_point(logistic4, FULL, PHI_X, (0.75,), (0.0,), stages=2)


@pytest.fixture(scope="module")
def tent2_witness(tent2):
    return construct_historic_point(tent2, FULL, PHI_X, (2 / 3,), (0.0,), stages=2)


@pytest.fixture(scope="module")
def doubling_witness(doubling_map):
    return construct_historic_point(doubling_map, FULL, PHI_X, (1 / 3, 2 / 3), (0.0,), stages=2)


# sha256 of to_json() of the stages=2 witnesses: neither the forward pass's
# precision schedule nor a faster exact arithmetic may move a bit of them.
# logistic4 was re-recorded when the quadratic pullback began taking its root
# sign from the branch's monotonicity, which moves its stage intervals (not
# its envelope): before, three of its pullback steps took the root across 1/2.
# All three were re-recorded when dyadic.to_float and to_float_up began
# rounding subnormal results in their own direction: the forward pass had
# bounded positive observable values near 0 from above by 0.0.  The upper
# envelope at the last three checkpoints rose by at most 8.4e-17, and
# nothing else moved.  All three were re-recorded again when the observable
# bounds of the forward pass and the cumulative averages began rounding down
# and up instead of to nearest: every envelope value moved outward by at most
# 1 ulp, a phase mark by at most 2, and nothing moved inward.
WITNESS_DIGESTS = {
    "tent2": "90879203f7f7d7added42e5da0e1022701e72391326ee32fbbc5755fbea1c395",
    "logistic4": "5f5e5b91edb8814b6229b7d14ae9b19443058fb62b8a6e15bbdc7d14f87ba370",
    "doubling": "78cfa1754fcdb0f9f74ecc0baf6d740dfbb5557e44e409c6305d0df334a5073b",
}


@pytest.mark.parametrize("name", sorted(WITNESS_DIGESTS))
def test_witness_json_pinned(request, name):
    witness = request.getfixturevalue(f"{name}_witness")
    assert hashlib.sha256(witness.to_json().encode()).hexdigest() == WITNESS_DIGESTS[name]


# sha256 of replay_positions of the stages=2 witnesses, recorded before the
# replay became a call of the dyadic orbit loop
REPLAY_DIGESTS = {
    "tent2": "04eb3a06c9f7434ab3db6759822305bcaa39bcc4526dededbeb2cc29dd1eae47",
    "logistic4": "5aa41dbdc8f0648a685bff51734030b45391bca090f8da777d821a8750a5c1dc",
    "doubling": "d2a2b7bb50ca0051aaab9f09bc1ca637190022036443ee135cbc535b9646a1ef",
}


@pytest.mark.parametrize("name", sorted(REPLAY_DIGESTS))
def test_replay_positions_pinned(request, name):
    pmap = {"tent2": catalog.tent(2), "logistic4": catalog.logistic(4), "doubling": catalog.doubling()}[name]
    witness = request.getfixturevalue(f"{name}_witness")
    pts = replay_positions(pmap, witness)
    assert len(pts) == witness.total_steps
    assert hashlib.sha256(pts.tobytes()).hexdigest() == REPLAY_DIGESTS[name]


# logistic(4) with its left branch written as 1/4 + (-1/4 + 4x - 4x^2)
OFFSET_LOGISTIC4 = (
    "branch = (0, 1/2) : -1/4, 4, -4 : increasing : exp=1, offset=1/4\n"
    "branch = (1/2, 1) : 0, 4, -4 : decreasing\n"
    "critical = 1/2\n"
)


def test_witness_rejects_a_branch_with_an_offset():
    # the mantissa arithmetic evaluates phi alone; it ignored the offset
    pmap = parse_mapspec(OFFSET_LOGISTIC4)
    with pytest.raises(NotClassified, match="plain polynomial"):
        construct_historic_point(pmap, FULL, PHI_X, (0.75,), (0.0,), stages=2,
                                 check_transitivity=False)
    with pytest.raises(NotClassified, match="plain polynomial"):
        dyadic.branch_table(pmap, 64)


@pytest.mark.parametrize("p", [64, 200])
def test_image_outer_encloses_the_branch_image(logistic4, p):
    rng = np.random.default_rng(p)
    one = 1 << p
    cms, _ = dyadic.branch_table(logistic4, p)
    for branch, cm in zip(logistic4.branches, cms):
        arith = _BranchArith(branch)
        for _ in range(200):
            lo, hi = sorted(int((branch.lo + (branch.hi - branch.lo) * Fraction(t)) * one) for t in rng.random(2))
            ilo, ihi = arith.image_outer(lo, hi, p, cm)
            image = [branch.value_exact(Fraction(x, one)) for x in (lo, hi)]
            assert Fraction(ilo, one) <= min(image) and max(image) <= Fraction(ihi, one)


@pytest.mark.parametrize(
    "name, target, digest",
    [
        ("logistic4", 0.75, "23895a89f770e754"),
        ("logistic4", 0.0, "eabc875ada583633"),
        ("tent2", 2 / 3, "cbca7abd537b9e4f"),
    ],
)
def test_steer_distances_pinned(request, name, target, digest):
    # sha256 prefix of the grid distances that steer a connection, recorded
    # while the chain builder ran its own backward search
    dist = _ChainBuilder(request.getfixturevalue(name))._steer_distances(target)
    assert hashlib.sha256(dist.tobytes()).hexdigest()[:16] == digest


def test_historic_witness_logistic4(logistic4, logistic4_witness):
    w = logistic4_witness
    assert w.envelope_gap() >= 0.4
    assert w.certified_sup >= 0.7
    assert w.certified_inf <= 0.2
    report = verify_witness(logistic4, w)
    assert report.violations == 0
    assert report.historic


def test_witness_nesting_and_dominance(logistic4_witness):
    w = logistic4_witness
    (l1, h1), (l2, h2) = w.stages[0].interval, w.stages[1].interval
    assert l1 < l2 < h2 < h1
    margin = min((l2 - l1) / (h1 - l1), (h1 - h2) / (h1 - l1))
    assert margin >= 1e-3
    # block dominance: each shadow block is at least 4x all previous history
    t = 0
    for item in w.plan:
        start_of_shadow = item["end"] - item["shadow"]
        assert item["shadow"] >= 4 * t or item["shadow"] >= 4 * (start_of_shadow - item["connect"])
        t = item["end"]


def test_witness_rejects_equal_means(logistic4):
    with pytest.raises(ValueError):
        construct_historic_point(logistic4, FULL, PHI_X, (0.75,), (0.75,), stages=1)


def test_doubling_witness_gap(doubling_map, doubling_witness):
    w = doubling_witness
    assert w.envelope_gap() >= 0.25
    report = verify_witness(doubling_map, w)
    assert report.violations == 0


def test_tent_witness(tent2, tent2_witness):
    w = tent2_witness
    assert w.envelope_gap() >= 0.4
    assert verify_witness(tent2, w).violations == 0


def test_constant_observable_envelope(logistic4):
    const = Observable.constant(Fraction(2, 5))
    w = construct_historic_point(
        logistic4, FULL, const, (0.75,), (0.0,), stages=1, check_transitivity=False,
        _single_phase=True,
    )
    assert np.allclose(w.envelope_lo, 0.4, atol=1e-12)
    assert np.allclose(w.envelope_hi, 0.4, atol=1e-12)


def test_constant_observable_envelope_encloses_its_value(logistic4):
    # 2/5 is no double: the envelope must hold it exactly, and the certified
    # sup (a lower bound) and inf (an upper bound) must not pass it
    kappa = Fraction(2, 5)
    w = construct_historic_point(
        logistic4, FULL, Observable.constant(kappa), (0.75,), (0.0,), stages=1,
        check_transitivity=False, _single_phase=True,
    )
    assert all(Fraction(lo) <= kappa <= Fraction(hi) for lo, hi in zip(w.envelope_lo, w.envelope_hi))
    assert Fraction(w.certified_sup) <= kappa <= Fraction(w.certified_inf)


def test_sum_scaled_rounds_each_average_outward():
    # each average is the nearest double on its side of the exact quotient of
    # the scaled sum, and so on its side of the exact average of the values
    values = np.random.default_rng(7).random(1000)
    values[::7] *= 2.0**-60  # values with bits below 2^-53
    for round_up in (False, True):
        rounded = math.ceil if round_up else math.floor
        acc, exact = 0, Fraction(0)
        for i, avg in enumerate(generic_points._sum_scaled(values, round_up)):
            acc += rounded(values[i] * (1 << 53))
            exact += Fraction(values[i])
            quotient = Fraction(acc, (i + 1) << 53)
            if round_up:
                assert Fraction(math.nextafter(avg, -math.inf)) < quotient <= Fraction(avg)
                assert exact / (i + 1) <= Fraction(avg)
            else:
                assert Fraction(avg) <= quotient < Fraction(math.nextafter(avg, math.inf))
                assert Fraction(avg) <= exact / (i + 1)


def test_zero_stage_witness(logistic4):
    w = construct_historic_point(logistic4, FULL, PHI_X, (0.75,), (0.0,), stages=0)
    assert w.total_steps == 1
    assert w.envelope_lo[0] == 0.0 and w.envelope_hi[0] == 1.0
    assert verify_witness(logistic4, w).violations == 0


class _Stub:
    def __init__(self, **kw):
        self.__dict__.update(kw)


def test_max_average_single_phase(logistic4):
    att = _Stub(kind="cycle", intervals=[(0.0, 1.0)], eps=2.0**-12)
    witness, oracle = construct_max_average_point(logistic4, att, PHI_X, Q=12, stages=3)
    assert oracle >= 0.75 - 1e-12
    end_lo = float(witness.envelope_lo[-1])
    end_hi = float(witness.envelope_hi[-1])
    assert oracle - 0.02 <= end_lo and end_hi <= oracle + 0.02
    assert verify_witness(logistic4, witness).violations == 0


def test_max_average_rejects_periodic(logistic32):
    att = _Stub(kind="periodic_like", points=(0.5130445, 0.7994555))
    with pytest.raises(NotClassified):
        construct_max_average_point(logistic32, att, PHI_X)


def test_random_points_are_not_historic_at_matched_horizon(logistic4, logistic4_witness):
    # Lebesgue-typical points equidistribute: their envelope gap is small at
    # the witness horizon, unlike the constructed point
    horizon = logistic4_witness.total_steps
    rng = np.random.default_rng(42)
    gaps = []
    for x0 in rng.uniform(0.05, 0.95, 20):
        verdict = detect_historic(logistic4, float(x0), PHI_X, horizon, 0.25)
        gaps.append(verdict.gap)
    assert sum(g < 0.1 for g in gaps) >= 16
    assert logistic4_witness.envelope_gap() > 0.4


def test_witness_frequency_concentration(logistic4, logistic4_witness):
    # the lingering phases visit many cells only rarely: the positive-
    # frequency cell set is strictly smaller than the omega cell set
    from intervaldyn.generic_points import replay_positions
    from intervaldyn.cells import cells_of_points
    import math

    pts = replay_positions(logistic4, logistic4_witness)
    n = len(pts)
    eps = 2.0**-8
    om = cells_of_points(pts, eps)
    counts = np.bincount(
        np.clip((pts / eps).astype(np.int64), 0, 255), minlength=256
    )
    st = np.flatnonzero(counts / n > 1.0 / math.sqrt(n))
    assert np.isin(st, om).all()
    assert len(st) < len(om) / 2
    # the concentration sits on the two target orbits
    assert any(abs((c + 0.5) * eps - 0.0) < 0.05 for c in st)
    assert any(abs((c + 0.5) * eps - 0.75) < 0.05 for c in st)


def test_witness_json_roundtrip(logistic4_witness):
    doc = json.loads(logistic4_witness.to_json())
    assert doc["schema"] == 1
    assert doc["certified_sup"] == logistic4_witness.certified_sup
    from intervaldyn.generic_points import frac_from_hex

    lo_str, hi_str = doc["stages"][-1]["interval"]
    assert frac_from_hex(lo_str) == logistic4_witness.final_interval[0]
    assert frac_from_hex(hi_str) == logistic4_witness.final_interval[1]


def _captured_certify(monkeypatch):
    """Record the arguments construct_historic_point passes to _certify_forward."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _certify_forward(*args)

    monkeypatch.setattr(generic_points, "_certify_forward", spy)
    return calls


def test_precision_schedule_keeps_every_bound(monkeypatch, tent2):
    calls = _captured_certify(monkeypatch)
    w = construct_historic_point(tent2, FULL, PHI_X, (2 / 3,), (0.0,), stages=2)
    (pmap, phi, j_lo, j_hi, bits), = calls
    assert bits[0] == w.precision_bits and len(bits) == w.total_steps + 1
    assert all(a >= b for a, b in zip(bits, bits[1:]))
    assert bits[-1] < bits[0] - 64  # the pass does shed precision
    scheduled = _certify_forward(pmap, phi, j_lo, j_hi, bits)
    uniform = _certify_forward(pmap, phi, j_lo, j_hi, [bits[0]] * len(bits))
    assert np.array_equal(scheduled[0], uniform[0])
    assert np.array_equal(scheduled[1], uniform[1])


def test_starved_schedule_raises(monkeypatch, tent2):
    calls = _captured_certify(monkeypatch)
    construct_historic_point(tent2, FULL, PHI_X, (2 / 3,), (0.0,), stages=1)
    (pmap, phi, j_lo, j_hi, bits), = calls
    # too few bits after the first step: the interval widens until it meets C
    starved = [bits[0]] + [96] * (len(bits) - 1)
    with pytest.raises(EnvelopeViolation, match="straddles C"):
        _certify_forward(pmap, phi, j_lo, j_hi, starved)


def test_certify_puts_a_cut_in_its_left_branch(doubling_map):
    # [1/4, 1/2] ends on the cut and lies in the left branch; [1/2, 3/4]
    # starts on it and straddles C
    lo, hi = _certify_forward(doubling_map, PHI_X, Fraction(1, 4), Fraction(1, 2), [64, 64])
    assert (lo[0], hi[0]) == (0.25, 0.5)
    with pytest.raises(EnvelopeViolation, match="straddles C at step 0"):
        _certify_forward(doubling_map, PHI_X, Fraction(1, 2), Fraction(3, 4), [64, 64])


def test_replay_puts_a_cut_in_its_left_branch(doubling_map):
    # a midpoint on the cut 1/2 maps by 2x to 1, not by 2x - 1 to 0
    half = Fraction(1, 2)
    stage = StageRecord(1, 1, 1, (half, half), 0.0, [])
    none = np.empty(0)
    witness = NestedWitness("doubling", "x", [stage], 2, 64, none, none, none, [], 1.0, 0.0)
    assert replay_positions(doubling_map, witness).tolist() == [0.5, 1.0]


@pytest.mark.parametrize("p", [64, 256])
def test_inverse_inner_sound_on_non_dyadic_branch(p):
    # logistic(3.83): no coefficient is dyadic, and near the critical value
    # the two roots of each endpoint merge
    lam = Fraction(383, 100)
    top = lam / 4
    one = 1 << p
    centers = [top * k / 16 for k in range(1, 16)]
    centers += [top * (1 - Fraction(1, 1 << k)) for k in range(4, p - 8, 12)]
    targets = []
    for c in centers:
        m = int(c * one)
        for w in (64, 1 << (p // 2), 1 << (p - 12)):
            targets.append((max(m - w, 0), m + w))
    peak = int(top * one)
    targets += [(peak - w, peak - g) for w in (1 << 20, 1 << (p // 2)) for g in (0, 1, 5)]
    for branch in catalog.logistic(lam).branches:
        arith = _BranchArith(branch)
        found = 0
        for ylo, yhi in targets:
            res = arith.inverse_inner(ylo, yhi, p)
            if res is None:
                continue
            found += 1
            xlo, xhi = (Fraction(v, one) for v in res)
            image = [lam * x * (1 - x) for x in (xlo, xhi)]
            if xlo <= Fraction(1, 2) <= xhi:
                image.append(top)
            assert Fraction(ylo, one) <= min(image) and max(image) <= Fraction(yhi, one), (ylo, yhi)
        assert found >= len(targets) * 2 // 3


# left branch 4x(1-x), right branch 4/3 (1-x^2): both take 1/2 to 1, but the
# quadratic of one branch continued past 1/2 is not the other branch
SPLIT_QUADRATIC = (
    "branch = (0, 1/2) : 0, 4, -4 : increasing\n"
    "branch = (1/2, 1) : 4/3, 0, -4/3 : decreasing\n"
    "critical = 1/2\n"
)


@pytest.mark.parametrize("p", [128, 256])
def test_inverse_inner_stays_on_its_branch(p):
    # targets within 2^-80 of the critical value 1: the two roots of 4x(1-x)
    # lie within 2^-40 of the critical point, one of them on the right branch
    one = 1 << p
    targets = [(one - (1 << k), one - (1 << (k - 2))) for k in range(p - 120, p - 79, 8)]
    for branch in parse_mapspec(SPLIT_QUADRATIC).branches:
        arith = _BranchArith(branch)
        for ylo, yhi in targets:
            xlo, xhi = (Fraction(v, one) for v in arith.inverse_inner(ylo, yhi, p))
            assert branch.lo <= xlo <= xhi <= branch.hi, (branch, ylo, yhi)
            image = [branch.coeffs[0] + branch.coeffs[1] * x + branch.coeffs[2] * x * x for x in (xlo, xhi)]
            assert Fraction(ylo, one) <= min(image) and max(image) <= Fraction(yhi, one)


# one step of a sequence of square roots: the change of precision, what n is
# (0, a discriminant 16 2^p (2^p - y) of logistic(4)'s inverse with y of the
# given percentage of p's bits, or a square next to the last root), the seed
# of y and an offset
ROOT_STEP = st.tuples(
    st.integers(-40, 160),
    st.sampled_from(["zero", "discriminant", "discriminant", "square"]),
    st.integers(0, 1 << 32),
    st.integers(0, 100),
    st.integers(-3, 3),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(1, 400), st.lists(ROOT_STEP, min_size=1, max_size=24))
def test_seeded_root_is_isqrt(p, steps):
    # precision that rises and falls, n = 0, n next to the last root and n
    # far from it: every root is math.isqrt's
    arith = _BranchArith(catalog.logistic(4).branches[0])
    last_n, last_p = 0, p
    for dp, kind, seed, percent, off in steps:
        p = max(p + dp, 1)
        if kind == "zero":
            n = 0
        elif kind == "discriminant":
            y = random.Random(seed).getrandbits(p * percent // 100)
            n = max((16 << (2 * p)) - (y << (p + 4)) + off, 0)
        else:
            root = math.isqrt(last_n << (2 * max(p - last_p, 0)))
            n = max((root + off) ** 2 + seed % 5 - 2, 0)
        assert arith.isqrt(n, p) == math.isqrt(n)
        last_n, last_p = n, p


@pytest.mark.parametrize("p", [64, 320])
def test_image_inner_reuses_an_end_only_at_its_precision(logistic4, p):
    # the same mantissas after a change of precision are other points, and
    # are evaluated again
    arith = _BranchArith(logistic4.branches[0])
    lo, hi = 1 << (p - 20), 1 << (p - 4)
    for q in (p, p, 2 * p, p):
        cm = dyadic.branch_table(logistic4, q)[0][0]
        fresh = _BranchArith(logistic4.branches[0]).image_inner(lo, hi, q, cm)
        assert arith.image_inner(lo, hi, q, cm) == fresh


def test_shadow_ball_follows_precision_and_floor(logistic4):
    builder = _ChainBuilder(logistic4)
    for p, floor_bits in ((320, 48), (320, 48), (320, 200), (640, 200), (320, 48)):
        builder.p, builder.floor_bits = p, floor_bits
        fresh = _ChainBuilder(logistic4)
        fresh.p, fresh.floor_bits = p, floor_bits
        assert builder._ball(0.0, 1e-3) == fresh._ball(0.0, 1e-3)


# observables of degree <= 2 with rational coefficients, some of them with
# their vertex v in [0, 1], on [lo, hi] with float ends anywhere in [0, 1],
# subnormal ones included
SMALL_FRACTIONS = st.fractions(-8, 8, max_denominator=1000)
OBSERVABLE_COEFFS = st.lists(SMALL_FRACTIONS, min_size=1, max_size=3) | st.builds(
    lambda c0, c2, v: [c0, -2 * c2 * v, c2],
    SMALL_FRACTIONS, SMALL_FRACTIONS, st.fractions(0, 1, max_denominator=1000),
)
UNIT_FLOATS = st.floats(0, 1) | st.floats(0, 1e-300)


@settings(derandomize=True, deadline=None)
@given(OBSERVABLE_COEFFS, UNIT_FLOATS, UNIT_FLOATS)
def test_observable_bounds_are_the_nearest_doubles_outside_the_range(coeffs, a, b):
    # the nearest doubles below and above the exact least and greatest
    # values, taken here at the ends and at the vertex when it lies inside;
    # range_on gives the same exact values
    phi = Observable.poly(coeffs)
    lo, hi = min(a, b), max(a, b)
    c = [Fraction(v) for v in coeffs]
    points = [Fraction(lo), Fraction(hi)]
    if len(c) == 3 and c[2] != 0 and lo < -c[1] / (2 * c[2]) < hi:
        points.append(-c[1] / (2 * c[2]))
    values = [sum(ck * x**k for k, ck in enumerate(c)) for x in points]
    least, greatest = min(values), max(values)
    assert phi.range_on(Fraction(lo), Fraction(hi)) == (least, greatest)
    flo, fhi = phi.bounds(lo, hi)
    assert Fraction(flo) <= least < Fraction(math.nextafter(flo, math.inf))
    assert Fraction(math.nextafter(fhi, -math.inf)) < greatest <= Fraction(fhi)
