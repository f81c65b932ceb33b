"""Attractor detection, classification and basin census.

Classification realizes the trichotomy periodic-like / Cantor / cycle of
intervals at finite resolution, with an explicit unresolved verdict.  The
discrimination between Cantor sets and interval cycles uses the box-count
slope across three refinement levels (>= 0.95 interval-like, <= 0.8 Cantor,
between unresolved), plus a perfectness proxy for Cantor supports.

The census samples uniformly at random, approximating Lebesgue-genericity;
Baire-generic claims are exercised by constructed witness points (see
generic_points), never by sampling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cells import cellset_from_bool, coarsen_bool, hausdorff_cells, runs
from .maps import MINUS, PLUS, PiecewiseMap
from .orbit_stats import CellEstimate, batch_cells, omega_limit_estimate, orbit_points
from .structure import PeriodicOrbit, periodic_orbits

#: classification thresholds (box-count slope)
SLOPE_INTERVAL = 0.95
SLOPE_CANTOR = 0.80
MAX_PERIOD_CELLS = 64
#: a support of more runs than this is not reported as a cycle of intervals
MAX_INTERVAL_COUNT = 16
#: distance from a candidate periodic point at which its probes start, and
#: the number of returns they are followed for
PROBE_RADIUS = 1e-4
PROBE_HORIZON = 64


@dataclass
class AttractorEstimate:
    kind: str                         # periodic_like | cantor | cycle | unresolved
    eps: float
    points: tuple[float, ...] | None = None
    intervals: list[tuple[float, float]] | None = None
    cells: np.ndarray | None = None
    fine_mask: np.ndarray | None = None
    fine_bits: int = 0
    generators: list[tuple[float, str]] | None = None
    one_sided: bool = False
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "eps": self.eps}
        if self.points is not None:
            out["points"] = list(map(float, self.points))
        if self.intervals is not None:
            out["intervals"] = [list(map(float, iv)) for iv in self.intervals]
        if self.cells is not None:
            out["cell_ranges"] = runs(self.cells)
        if self.generators:
            out["generators"] = [[float(c), side] for c, side in self.generators]
        out.update(
            {k: v for k, v in self.diagnostics.items() if isinstance(v, (int, float, str, bool))}
        )
        return out


@dataclass
class SignedCriticalSides:
    minus: tuple[float, ...]
    plus: tuple[float, ...]
    flagged: list[tuple[float, str, float]] = field(default_factory=list)

    def generators(self) -> list[tuple[float, str]]:
        return [(c, MINUS) for c in self.minus] + [(c, PLUS) for c in self.plus]


# ---------------------------------------------------------------------------
# periodic-like detection


def detect_periodic_like(
    pmap: PiecewiseMap, max_period: int = 8
) -> tuple[list[AttractorEstimate], list[PeriodicOrbit]]:
    """Certified periodic-like attractors plus probe-inconclusive candidates.

    Candidates come from the branch-word enumeration (domain-endpoint roots
    are the orbits through C, i.e. the strictly one-sided ones); each is
    certified by monotone convergence of probes started on one side.
    """
    table = periodic_orbits(pmap, max_period, [])
    certified: list[AttractorEstimate] = []
    inconclusive: list[PeriodicOrbit] = []
    for orb in table.orbits:
        if orb.multiplier > 1.0 + 1e-9 and not orb.hits_critical:
            continue  # interior repelling orbit cannot be an attractor
        res = _certify_probe(pmap, orb)
        if res == "attracts":
            certified.append(
                AttractorEstimate(
                    "periodic_like",
                    0.0,
                    points=orb.points,
                    one_sided=orb.hits_critical,
                    diagnostics={
                        "period": orb.period,
                        "multiplier": orb.multiplier,
                        "hits_critical": orb.hits_critical,
                    },
                )
            )
        elif res == "inconclusive":
            inconclusive.append(orb)
    return certified, inconclusive


def _certify_probe(pmap, orb: PeriodicOrbit) -> str:
    p = orb.points[0]
    q = orb.period
    verdicts = []
    for sgn in (-1.0, 1.0):
        x = p + sgn * PROBE_RADIUS
        if not 0.0 <= x <= 1.0:
            verdicts.append("escapes")
            continue
        d0 = abs(x - p)
        converged = escaped = False
        d_prev = d0
        for _ in range(PROBE_HORIZON):
            try:
                for _ in range(q):
                    x = pmap.evaluate(x)
            except Exception:
                escaped = True
                break
            d = abs(x - p)
            if d > 4.0 * d0:
                escaped = True
                break
            if d > d_prev + 1e-15:
                break
            d_prev = d
            if d < 1e-10:
                converged = True
                break
        verdicts.append("attracts" if converged else ("escapes" if escaped else "stalls"))
    if "attracts" in verdicts:
        return "attracts"
    if all(v == "escapes" for v in verdicts):
        return "escapes"
    return "inconclusive"


# ---------------------------------------------------------------------------
# signed critical sides and critical-orbit closures

LADDER = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def signed_critical_sides(pmap: PiecewiseMap, x0, n: int) -> SignedCriticalSides:
    """C_- / C_+ membership: the orbit accumulates on c from below / above,
    tested down a decreasing ladder of neighborhood widths."""
    pts, truncated = orbit_points(pmap, x0, n)
    minus, plus, flagged = [], [], []
    for c in pmap.fcritical:
        below = pts[(pts < c)]
        above = pts[(pts > c)]
        d_minus = float(c - below.max()) if len(below) else math.inf
        d_plus = float(above.min() - c) if len(above) else math.inf
        for side, d in ((MINUS, d_minus), (PLUS, d_plus)):
            if d < LADDER[-1]:
                (minus if side == MINUS else plus).append(c)
            elif d < LADDER[0]:
                flagged.append((c, side, d))
    return SignedCriticalSides(tuple(minus), tuple(plus), flagged)


def critical_orbit_closure(
    pmap: PiecewiseMap, sides: SignedCriticalSides, n: int, eps: float
):
    """Union of visited-cell closures of the signed critical-value orbits."""
    gens = sides.generators()
    if not gens:
        raise ValueError("signed sides are empty")
    cell_sets = []
    truncated = False
    for c, side in gens:
        est = omega_limit_estimate(pmap, pmap.one_sided_limit_exact(c, side), 0, n, eps)
        truncated |= est.truncated
        cell_sets.append(est.cells)
    cells = np.unique(np.concatenate(cell_sets))
    return CellEstimate(cells, eps, truncated), gens


# ---------------------------------------------------------------------------
# classification


def classify_attractor(
    pmap: PiecewiseMap, eps: float, fine_mask: np.ndarray, fine_bits: int
) -> AttractorEstimate:
    """Trichotomy verdict for a support estimate.

    ``fine_mask`` marks the support's cells at 2^-fine_bits, at least two
    refinements below eps; its coarsenings to eps, eps/2 and eps/4 give the
    box-count slope.  Unresolved is a valid verdict.
    """
    eps_bits = round(-math.log2(eps))
    if fine_bits < eps_bits + 2:
        raise ValueError("fine mask must be at least two refinements below eps")

    mask4 = fine_mask
    for _ in range(fine_bits - eps_bits - 2):
        mask4 = coarsen_bool(mask4, 2)
    mask2 = coarsen_bool(mask4, 2)
    mask1 = coarsen_bool(mask2, 2)
    n1, n2, n4 = int(mask1.sum()), int(mask2.sum()), int(mask4.sum())
    cells = cellset_from_bool(mask1)
    slope = 0.5 * (math.log2(max(n2, 1) / max(n1, 1)) + math.log2(max(n4, 1) / max(n2, 1)))
    diag = {"n_eps": n1, "n_eps2": n2, "n_eps4": n4, "slope": slope}

    if n1 <= MAX_PERIOD_CELLS:
        pts = _probe_cycle(pmap, cells, eps)
        if pts is not None:
            return AttractorEstimate(
                "periodic_like", eps, points=pts, cells=cells,
                fine_mask=fine_mask, fine_bits=fine_bits,
                diagnostics={**diag, "period": len(pts)},
            )

    if slope >= SLOPE_INTERVAL:
        intervals = [(s * eps, (e + 1) * eps) for s, e in runs(cells)]
        runs2 = runs(cellset_from_bool(mask2))
        stable = abs(len(intervals) - len(runs2)) <= 1
        if len(intervals) <= MAX_INTERVAL_COUNT and stable:
            if _union_invariant(pmap, intervals, eps):
                return AttractorEstimate(
                    "cycle", eps, intervals=intervals, cells=cells,
                    fine_mask=fine_mask, fine_bits=fine_bits, diagnostics=diag,
                )
        diag["interval_count"] = len(intervals)
        diag["stable"] = stable
        return AttractorEstimate(
            "unresolved", eps, cells=cells, fine_mask=fine_mask,
            fine_bits=fine_bits, diagnostics=diag,
        )

    if slope <= SLOPE_CANTOR:
        if _perfectness_proxy(cells, fine_mask, fine_bits, eps_bits):
            return AttractorEstimate(
                "cantor", eps, cells=cells, fine_mask=fine_mask,
                fine_bits=fine_bits, diagnostics=diag,
            )
        diag["isolated_cell"] = True
    return AttractorEstimate(
        "unresolved", eps, cells=cells, fine_mask=fine_mask,
        fine_bits=fine_bits, diagnostics=diag,
    )


def _probe_cycle(pmap, cells, eps):
    """Settle 4096 steps from support-cell midpoints and detect a short cycle."""
    settle = 4096
    for idx in (len(cells) // 2, 0, len(cells) - 1):
        x = (float(cells[idx]) + 0.5) * eps
        pts, _ = orbit_points(pmap, x, settle + 4 * MAX_PERIOD_CELLS)
        if len(pts) < settle:
            continue
        tail = pts[settle:]
        for q in range(1, MAX_PERIOD_CELLS + 1):
            if len(tail) <= q:
                break
            if abs(tail[q] - tail[0]) < 1e-9:
                cycle = tuple(float(t) for t in tail[:q])
                if all(
                    abs(tail[j + q] - tail[j]) < 1e-8
                    for j in range(min(q, len(tail) - q))
                ):
                    return cycle
    return None


def _union_invariant(pmap, intervals, eps) -> bool:
    """f(union) inside the union up to one cell of slack."""
    for lo, hi in intervals:
        for ilo, ihi in pmap.interval_image(lo, hi):
            ok = any(
                jlo - eps <= ilo and ihi <= jhi + eps for jlo, jhi in intervals
            )
            if not ok:
                # an image may span two adjacent support intervals
                covered = all(
                    any(jlo - eps <= x <= jhi + eps for jlo, jhi in intervals)
                    for x in np.linspace(ilo, ihi, 9)
                )
                if not covered:
                    return False
    return True


def _perfectness_proxy(cells, fine_mask, fine_bits, eps_bits) -> bool:
    """No isolated support cell that also fails to split under refinement."""
    if len(cells) < 2:
        return False
    factor = 1 << (fine_bits - eps_bits)
    gaps_prev = np.diff(cells)
    for i, c in enumerate(cells):
        left_gap = gaps_prev[i - 1] if i > 0 else np.iinfo(np.int64).max
        right_gap = gaps_prev[i] if i < len(gaps_prev) else np.iinfo(np.int64).max
        if min(left_gap, right_gap) <= 2:
            continue  # has a neighbor within two cells
        sub = fine_mask[c * factor : (c + 1) * factor]
        if int(sub.sum()) < 2:
            return False
    return True


# ---------------------------------------------------------------------------
# basin census


@dataclass
class CensusCluster:
    estimate: AttractorEstimate
    count: int
    fraction: float
    ambiguous: bool = False


@dataclass
class CensusReport:
    pmap_name: str
    clusters: list[CensusCluster]
    n_samples: int
    horizon: int
    eps: float
    seed: int
    bound: int
    bound_ok: bool
    unresolved_count: int

    def non_periodic_count(self) -> int:
        return sum(1 for c in self.clusters if c.estimate.kind != "periodic_like")

    def to_json(self) -> str:
        doc = {
            "schema": 1,
            "map": self.pmap_name,
            "n_samples": self.n_samples,
            "horizon": self.horizon,
            "eps": self.eps,
            "seed": self.seed,
            "bound": self.bound,
            "bound_ok": self.bound_ok,
            "attractors": [
                {
                    **c.estimate.to_json_dict(),
                    "basin_fraction": c.fraction,
                    "ambiguous": c.ambiguous,
                }
                for c in self.clusters
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=1)


def basin_census(
    pmap: PiecewiseMap,
    n_samples: int,
    seed: int,
    horizon: int,
    eps: float,
) -> CensusReport:
    """Sampled attractor census with Hausdorff clustering and bound checks.

    Clusters supports within 2 cells Hausdorff distance at resolution eps
    (two estimates of one attractor differ by boundary cells only), then
    classifies each cluster's union support and checks the finiteness bound:
    #C for continuous maps, #C + 2^(2#C) otherwise.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    eps_bits = round(-math.log2(eps))
    fine_bits = eps_bits + 2
    rng = np.random.default_rng(seed)
    x0s = rng.uniform(0.001, 0.999, n_samples)
    batch = batch_cells(pmap, x0s, horizon, horizon // 2, fine_bits=fine_bits)

    reps: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    counts: list[int] = []
    ambiguous: list[bool] = []
    for i in range(n_samples):
        mask = batch.window_visited[i]
        coarse = cellset_from_bool(coarsen_bool(mask, 4))  # 2^-fine_bits to eps
        placed = False
        for k, rep in enumerate(reps):
            d = hausdorff_cells(coarse, rep)
            if d <= 2.0:
                counts[k] += 1
                masks[k] |= mask
                if d > 0:
                    ambiguous[k] = True
                placed = True
                break
        if not placed:
            reps.append(coarse)
            masks.append(mask.copy())
            counts.append(1)
            ambiguous.append(False)

    clusters = []
    unresolved = 0
    for rep, mask, cnt, amb in zip(reps, masks, counts, ambiguous):
        est = classify_attractor(pmap, eps, mask, fine_bits)
        if est.kind == "unresolved":
            unresolved += 1
        clusters.append(CensusCluster(est, cnt, cnt / n_samples, amb))
    clusters.sort(key=lambda c: -c.count)

    nc = len(pmap.critical)
    bound = nc if pmap.is_continuous else nc + (1 << (2 * nc))
    non_periodic = sum(1 for c in clusters if c.estimate.kind != "periodic_like")
    return CensusReport(
        pmap.name,
        clusters,
        n_samples,
        horizon,
        eps,
        seed,
        bound,
        non_periodic <= bound,
        unresolved,
    )
