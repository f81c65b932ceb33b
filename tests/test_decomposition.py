import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intervaldyn import PiecewiseMap, catalog, poly_branch
from intervaldyn.cells import cells_containing, ncells
from intervaldyn.decomposition import (
    component_of_critical,
    decompose,
    grid_graph,
    merge_components,
    nonwandering_estimate,
)
from intervaldyn.errors import DichotomyViolation, ResolutionTooFine
from intervaldyn.mapspec import parse_mapspec

from test_orbit_stats import POWER_SPECS


def halving_with_critical():
    h = Fraction(1, 2)
    return PiecewiseMap(
        [
            poly_branch(0, h, (0, h), "increasing"),
            poly_branch(h, 1, (0, h), "increasing"),
        ],
        critical=[h],
        name="halving-split",
    )


def reference_ranges(pmap, eps):
    """The target ranges of each cell by exact Fractions, cell by cell and
    segment by segment: the scalar reference of grid_graph."""
    eps_fr = Fraction(eps)
    inv = 1 / eps_fr
    noise = Fraction(1, 10**12) * inv  # float-noise guard, in cell units
    n = ncells(eps)
    breaks = list(pmap.breakpoints[1:-1])
    critical = set(pmap.critical)
    one = Fraction(1)
    ranges = []
    for i in range(n):
        lo = i * eps_fr
        hi = min((i + 1) * eps_fr, one)
        marks = [lo] + [b for b in breaks if lo < b < hi] + [hi]
        segs = []
        for a, b in zip(marks, marks[1:]):
            if b <= a:
                continue
            idx = pmap.branch_index(float((a + b) / 2))
            br = pmap.branches[idx]
            va, vb = br.value_exact(a), br.value_exact(b)
            # openness: a critical endpoint is excluded from the domain, and
            # the half-open cell convention excludes the cell's own top (< 1)
            a_open = a in critical
            b_open = b in critical or (b == hi and b != one)
            if va <= vb:
                vlo, vhi = va, vb
                lo_open, hi_open = a_open, b_open
            else:
                vlo, vhi = vb, va
                lo_open, hi_open = b_open, a_open
            slo = vlo * inv
            shi = vhi * inv
            ia = int(slo)  # open or attained: values just above a boundary sit in its cell
            frac_hi = shi - int(shi)
            if frac_hi == 0 and hi_open:
                ib = int(shi) - 1
            else:
                ib = int(shi)
            if slo - ia != 0 and slo - ia < noise:
                ia -= 1
            if frac_hi != 0 and int(shi) + 1 - shi < noise:
                ib += 1
            segs.append((max(0, ia), min(n - 1, max(ib, ia))))
        segs.sort()
        merged = [segs[0]]
        for a, b in segs[1:]:
            if a <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        ranges.append(merged)
    return ranges


# the catalog, maps with breakpoints off the dyadic grid (bimodal, zigzag3),
# big-integer coefficients (lorenz's 40 000-bit delta, the Feigenbaum
# lambda's float), non-dyadic slopes, the power branches, and x/2 + 2^-44,
# whose values fit int64 at 2^-12 while their scaling to cells does not
REFERENCE_MAPS = {
    **{name: (lambda name=name: catalog.standard_catalog()[name]) for name in catalog.standard_catalog()},
    "bimodal": catalog.bimodal,
    "zigzag3": catalog.zigzag3,
    "lorenz": catalog.lorenz,
    "tent(3/2)": lambda: catalog.tent(Fraction(3, 2)),
    "logistic(39/10)": lambda: catalog.logistic(Fraction(39, 10)),
    **{
        f"power-{i}": (lambda spec=spec: parse_mapspec(spec + "critical = 1/2\n"))
        for i, spec in enumerate(POWER_SPECS)
    },
    "power-3/2": lambda: parse_mapspec(
        "branch = (0, 10/11) : 1, -11/10 : decreasing : exp=3\n"
        "branch = (10/11, 1) : -10, 11 : increasing : exp=3/2\n"
        "critical = 10/11\n"
    ),
    "x/2 + 2^-44": lambda: PiecewiseMap(
        [poly_branch(0, 1, (Fraction(1, 2**44), Fraction(1, 2)), "increasing")], critical=[]
    ),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_MAPS))
def test_grid_graph_matches_the_scalar_reference(name):
    pmap = REFERENCE_MAPS[name]()
    finest = (2.0**-14,) if name in ("logistic4", "bimodal") else ()
    for eps in (1 / 8, 2.0**-8, 1e-3, 3e-4, 2.0**-10, 2.0**-12, *finest):
        assert grid_graph(pmap, eps).ranges == reference_ranges(pmap, eps), eps


@st.composite
def monotone_maps(draw):
    """1-3 monotone affine or quadratic branches with rational coefficients
    between rational breakpoints; a breakpoint is a smooth join where the
    branch on its right continues the one on its left, else critical."""
    cuts = draw(st.sets(st.fractions(0, 1, max_denominator=12), max_size=2))
    ends = [Fraction(0), *sorted(cuts - {0, 1}), Fraction(1)]
    values = st.fractions(0, 1, max_denominator=16)
    branches, critical = [], []
    for lo, hi in zip(ends, ends[1:]):
        yb = draw(values)
        if branches and yb != ya + delta and (yb > ya + delta) == (delta > 0) and draw(st.booleans()):
            ya = ya + delta
        else:
            if branches:
                critical.append(lo)
            ya = draw(values.filter(lambda y: y != yb))
        delta = yb - ya
        # ya + delta * ((1 - c) t + c t^2) with t = (x - lo) / w is monotone for |c| <= 1
        c = draw(st.one_of(st.just(Fraction(0)), st.fractions(-1, 1, max_denominator=4)))
        w = hi - lo
        coeffs = [
            ya - delta * (1 - c) * lo / w + delta * c * lo**2 / w**2,
            delta * (1 - c) / w - 2 * delta * c * lo / w**2,
            delta * c / w**2,
        ]
        mono = "increasing" if delta > 0 else "decreasing"
        branches.append(poly_branch(lo, hi, coeffs if c else coeffs[:2], mono))
    return PiecewiseMap(branches, critical)


@settings(derandomize=True, deadline=None)
@given(
    pmap=monotone_maps(),
    eps=st.one_of(st.integers(1, 12).map(lambda k: 2.0**-k), st.sampled_from([0.1, 0.03, 0.007, 1e-3])),
)
def test_grid_graph_follows_the_scalar_reference(pmap, eps):
    assert grid_graph(pmap, eps).ranges == reference_ranges(pmap, eps)


@pytest.mark.parametrize(
    "delta, cell2, cell3",
    [
        (Fraction(1, 2**44), [(0, 1)], [(1, 2)]),
        (Fraction(-1, 2**44), [(0, 1)], [(1, 2)]),
        (Fraction(1, 2**30), [(1, 1)], [(1, 2)]),
        (Fraction(0), [(1, 1)], [(1, 1)]),
        (Fraction(1, 10**12), [(1, 1)], [(1, 2)]),
        (Fraction(-1, 10**12), [(0, 1)], [(1, 1)]),
    ],
)
def test_grid_graph_noise_guard_and_open_top(delta, cell2, cell3):
    # x/2 + delta at 2^-8: the images of cells 2 and 3 are [1, 1.5] and
    # [1.5, 2] cells plus 256 delta.  Less than 1e-12 from a boundary, not
    # exactly 1e-12, the range widens by a cell; an exact top that is the
    # cell's own open top drops one.  Recorded with the per-cell Fraction loop.
    pmap = PiecewiseMap([poly_branch(0, 1, (delta, Fraction(1, 2)), "increasing")], critical=[])
    gd = grid_graph(pmap, 2.0**-8)
    assert (gd.ranges[2], gd.ranges[3]) == (cell2, cell3)


def test_targets_are_the_sorted_unique_range_cells(logistic4, bimodal_map, lorenz_map):
    for pmap in (logistic4, bimodal_map, lorenz_map):
        gd = grid_graph(pmap, 2.0**-10)
        for i in range(gd.ncells):
            want = np.unique(np.concatenate([np.arange(lo, hi + 1) for lo, hi in gd.ranges[i]]))
            got = gd.targets(i)
            assert got.dtype == want.dtype and np.array_equal(got, want), (pmap.name, i)


def test_grid_graph_doubling_eighth(doubling_map):
    gd = grid_graph(doubling_map, 1 / 8)
    t0 = set(gd.targets(0).tolist())
    assert {0, 1} <= t0 <= {0, 1, 2}  # image of [0,1/8] is [0,1/4]


def test_grid_graph_critical_cell_logistic4(logistic4):
    gd = grid_graph(logistic4, 1 / 8)
    # both cells meeting c=1/2 map into [f(3/8), 1] = [15/16, 1]: the top cell
    for i in (3, 4):
        assert set(gd.targets(i).tolist()) == {7}


def test_grid_over_approximation(logistic4, doubling_map, bimodal_map, lorenz_map):
    rng = np.random.default_rng(123)
    for pmap in (logistic4, doubling_map, bimodal_map, lorenz_map):
        gd = grid_graph(pmap, 2.0**-8)
        xs = rng.uniform(0, 1, 2500)
        for x in xs:
            x = float(x)
            try:
                y = pmap.evaluate(x)
            except Exception:
                continue
            i = min(int(x / gd.eps), gd.ncells - 1)
            j = min(int(y / gd.eps), gd.ncells - 1)
            assert gd.has_edge(i, j), (pmap.name, x, y, i, j)


def test_resolution_guard(logistic4):
    with pytest.raises(ResolutionTooFine):
        grid_graph(logistic4, 1e-6)


def test_nonwandering_logistic32():
    pmap = catalog.logistic(Fraction(16, 5))
    gd = grid_graph(pmap, 1e-3)
    omega = nonwandering_estimate(gd)
    lam = 3.2
    keys = [0.0, 1 - 1 / lam]
    r = (lam + 1) * (lam - 3)
    keys += [(lam + 1 - r**0.5) / (2 * lam), (lam + 1 + r**0.5) / (2 * lam)]
    for x in keys:
        assert any(c in omega for c in cells_containing(x, 1e-3)), x
    assert len(omega) <= 60  # bounded inflation around the recurrent pieces


def test_nonwandering_logistic4_full(logistic4):
    gd = grid_graph(logistic4, 2.0**-8)
    omega = nonwandering_estimate(gd)
    assert len(omega) == gd.ncells  # chain recurrence fills [0,1]


def test_nonwandering_contraction_sink():
    pmap = halving_with_critical()
    gd = grid_graph(pmap, 2.0**-8)
    omega = nonwandering_estimate(gd)
    assert all(c <= 2 for c in omega)  # only a neighborhood of 0


def test_component_empty_for_unreachable_critical():
    pmap = halving_with_critical()
    gd = grid_graph(pmap, 2.0**-8)
    u = component_of_critical(gd, 0.5)
    assert len(u) == 0


def test_component_full_logistic4(logistic4):
    gd = grid_graph(logistic4, 2.0**-8)
    omega = nonwandering_estimate(gd)
    u = component_of_critical(gd, 0.5, omega)
    assert np.array_equal(u, omega)


@pytest.mark.parametrize(
    "name, digest", [("bimodal", "dbc67b4abc0b2246"), ("logistic4", "2f88e9ce00d238e7")]
)
def test_components_pinned(name, digest):
    # sha256 prefix of U(c) for each c at 2^-10, recorded before the reverse
    # adjacency was built in one place
    pmap = catalog.bimodal() if name == "bimodal" else catalog.logistic(4)
    gd = grid_graph(pmap, 2.0**-10)
    h = hashlib.sha256()
    for c in pmap.fcritical:
        h.update(component_of_critical(gd, c).tobytes())
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "name, k, digest",
    [
        ("logistic4", 10, "1139fcc0cb19d970"),
        ("logistic4", 12, "2f6b93c1afe5a6d7"),
        ("bimodal_map", 10, "76ffe7d8eb530bfc"),
        ("bimodal_map", 12, "07765f4fee7e3478"),
        ("lorenz_map", 10, "dbb74c31e38cd4af"),
        ("lorenz_map", 12, "e8ef25858a8486d9"),
    ],
)
def test_graph_pinned(request, name, k, digest):
    # sha256 prefix of the forward and reverse CSR and the nonwandering
    # estimate, recorded while both adjacencies were still built per call
    gd = grid_graph(request.getfixturevalue(name), 2.0**-k)
    h = hashlib.sha256()
    for a in (*gd.adjacency_csr(), *gd.reverse_csr(), nonwandering_estimate(gd)):
        h.update(a.tobytes())
    assert h.hexdigest()[:16] == digest


def test_reverse_csr_matches_edge_loop(bimodal_map):
    gd = grid_graph(bimodal_map, 2.0**-8)
    indptr, indices = gd.adjacency_csr()
    preds = [[] for _ in range(gd.ncells)]
    for i in range(gd.ncells):
        for j in indices[indptr[i] : indptr[i + 1]]:
            preds[j].append(i)
    rptr, rind = gd.reverse_csr()
    assert [rind[rptr[j] : rptr[j + 1]].tolist() for j in range(gd.ncells)] == preds


def test_distances_to_matches_brute_force(bimodal_map):
    gd = grid_graph(bimodal_map, 2.0**-8)
    succ = [gd.targets(i).tolist() for i in range(gd.ncells)]
    # the cells of each critical point, one cell of the right half (which
    # the left half cannot reach), and a run of cells
    for cells in ([51, 52], [204, 205], [200], list(range(120, 136))):
        want = [0 if i in cells else -1 for i in range(gd.ncells)]
        level = 0
        while True:
            nxt = [
                i for i in range(gd.ncells)
                if want[i] < 0 and any(want[j] == level for j in succ[i])
            ]
            if not nxt:
                break
            level += 1
            for i in nxt:
                want[i] = level
        assert gd.distances_to(cells).tolist() == want, cells
    assert -1 in gd.distances_to([200]).tolist()


def test_components_bimodal_disjoint(bimodal_map):
    est = decompose(bimodal_map, 2.0**-8)
    assert est.class_count() == 2
    a = next(cl["cells"] for cl in est.classes if 0.2 in cl["members"])
    b = next(cl["cells"] for cl in est.classes if 0.8 in cl["members"])
    overlap = np.intersect1d(a, b)
    assert len(overlap) <= 4  # boundary cells at the interface only
    assert a.max() <= (1 << 7) + 1 and b.min() >= (1 << 7) - 1  # halves separated


def test_components_shared_cycle_zigzag():
    est = decompose(catalog.zigzag3(), 2.0**-8)
    assert est.class_count() == 1  # both critical points share one transitive cycle
    assert set(est.classes[0]["members"]) == {1 / 3, 2 / 3}


def test_class_count_bound_catalog(logistic4, tent2, doubling_map, bimodal_map, lorenz_map):
    for pmap in (logistic4, tent2, doubling_map, bimodal_map, lorenz_map, catalog.zigzag3()):
        for eps in (2.0**-8, 2.0**-10):
            est = decompose(pmap, eps)
            assert est.class_count() <= len(pmap.critical), pmap.name


def test_forward_preimage_closure(logistic4, bimodal_map):
    # nonwandering predecessors of U(c) stay in U(c): the reachability-level
    # form of g^{-1}(U(c)) = U(c)
    for pmap in (logistic4, bimodal_map):
        gd = grid_graph(pmap, 2.0**-8)
        omega = nonwandering_estimate(gd)
        omega_set = set(omega.tolist())
        for c in pmap.fcritical:
            u = set(component_of_critical(gd, c, omega).tolist())
            for i in omega:
                if any(lo <= j <= hi for lo, hi in gd.ranges[i] for j in u):
                    if int(i) in omega_set and any(
                        j in u for j in gd.targets(int(i))
                    ):
                        assert int(i) in u


def test_monotone_in_eps(bimodal_map):
    pmap = catalog.logistic(Fraction(16, 5))
    for m in (pmap, bimodal_map):
        fine = grid_graph(m, 2.0**-9)
        coarse = grid_graph(m, 2.0**-8)
        om_f = nonwandering_estimate(fine)
        om_c = set(nonwandering_estimate(coarse).tolist())
        coarsened = {int(c) // 2 for c in om_f}
        assert coarsened <= om_c


def test_merge_dichotomy_violation():
    a = np.arange(0, 60, dtype=np.int64)
    b = np.arange(40, 100, dtype=np.int64)  # overlap 20 = third of each
    with pytest.raises(DichotomyViolation):
        merge_components({0.3: a, 0.7: b}, 2.0**-8)


def test_merge_near_total_overlap_merges():
    a = np.arange(0, 64, dtype=np.int64)
    b = np.arange(0, 60, dtype=np.int64)
    est = merge_components({0.3: a, 0.7: b}, 2.0**-8)
    assert est.class_count() == 1
