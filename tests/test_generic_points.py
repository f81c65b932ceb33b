import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from intervaldyn import Observable, catalog, generic_points
from intervaldyn.errors import EnvelopeViolation, NotClassified
from intervaldyn.generic_points import (
    _BranchArith,
    _certify_forward,
    construct_historic_point,
    construct_max_average_point,
    verify_witness,
)
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
# precision schedule nor a faster exact arithmetic may move a bit of them
WITNESS_DIGESTS = {
    "tent2": "781ec3c6750b8be0cfee00f31d3da516452660966570490e8d87a8f0421fc4a4",
    "logistic4": "3d7a2577c302b30aa770f50fe26b763b39508db36aa3bfa898607c17de069f03",
    "doubling": "ba062ce59bd0ea54dbd7a678be59a96558b12a4fb1dcbf117847684573857373",
}


@pytest.mark.parametrize("name", sorted(WITNESS_DIGESTS))
def test_witness_json_pinned(request, name):
    witness = request.getfixturevalue(f"{name}_witness")
    assert hashlib.sha256(witness.to_json().encode()).hexdigest() == WITNESS_DIGESTS[name]


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
