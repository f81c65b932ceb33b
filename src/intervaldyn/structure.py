"""Structural analysis: branch words, periodic orbits, return maps, homtervals,
lap-number entropy, strong transitivity and the Birkhoff maximum oracle.

Everything here is driven by symbolic branch itineraries: a word
(i_0, ..., i_{q-1}) names the composition of branches i_0 then i_1 ...,
whose domain is an exact interval obtained by monotone pullback.  This
keeps f^q decompositions certified without naive root searching.  One
enumeration, ``_word_levels``, builds the words and domains level by level
for both ``periodic_orbits`` and the float homterval search, and
``PiecewiseMap.pieces`` is the one split at breakpoints for interval images
and return maps.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import dyadic
from .branch import DECREASING
from .cells import hausdorff_cells, cells_containing
from .errors import DegenerateFamily, IntervalDynError, NotClassified
from .maps import PiecewiseMap, MINUS, PLUS
from .observables import Observable
from .orbit_stats import (
    DYADIC_ORBIT_BITS,
    _BranchTable,
    birkhoff_envelope,
    omega_limit_estimate,
    orbit_points,
)

_ROOT_TOL = 1e-13
_VERIFY_TOL = 1e-12


# ---------------------------------------------------------------------------
# branch words


def _pull(pmap: PiecewiseMap, idx: int, dom: tuple[float, float] | None):
    """Domain of the word (idx,) + v from the domain of v: its pullback
    through branch idx, or None if empty."""
    if dom is None:
        return None
    b = pmap.branches[idx]
    ilo, ihi = b.interval_image(b.flo, b.fhi)
    lo, hi = max(dom[0], ilo), min(dom[1], ihi)
    if lo > hi:
        return None
    x1, x2 = b.inverse(lo), b.inverse(hi)
    return (x2, x1) if x1 > x2 else (x1, x2)


def word_domain(pmap: PiecewiseMap, word: tuple[int, ...]) -> tuple[float, float] | None:
    """Closed domain interval of the branch-word composition, or None if empty."""
    last = pmap.branches[word[-1]]
    dom = (last.flo, last.fhi)
    for idx in reversed(word[:-1]):
        dom = _pull(pmap, idx, dom)
    return dom


def _word_levels(pmap: PiecewiseMap, n: int, min_width: float):
    """The words of lengths 1, ..., n, one level at a time: yields each
    level's words, all branches at length 1 and after that those whose
    domains are wider than min_width, with the dict of the level's domains
    (None where empty).  Only the kept words are extended to the next level.
    """
    doms = {(i,): (b.flo, b.fhi) for i, b in enumerate(pmap.branches)}
    words = list(doms)
    yield words, doms
    for _ in range(n - 1):
        # w + (i,) pulls back the domain of its suffix, found among this
        # level's domains unless w[1:] was too thin to keep
        nxt = {}
        for w in words:
            for i in range(len(pmap.branches)):
                v = w[1:] + (i,)
                dom = doms[v] if v in doms else word_domain(pmap, v)
                nxt[w + (i,)] = _pull(pmap, w[0], dom)
        doms = nxt
        words = [w for w, d in doms.items() if d is not None and d[1] - d[0] > min_width]
        yield words, doms


def word_eval(pmap: PiecewiseMap, word: tuple[int, ...], x: float) -> float:
    for idx in word:
        x = pmap.branches[idx].value(x)
    return x


def word_monotonicity(pmap: PiecewiseMap, word: tuple[int, ...]) -> str:
    flips = sum(1 for idx in word if pmap.branches[idx].monotonicity == "decreasing")
    return "decreasing" if flips % 2 else "increasing"


# ---------------------------------------------------------------------------
# periodic orbits


@dataclass
class PeriodicOrbit:
    points: tuple[float, ...]
    period: int
    multiplier: float
    means: dict[str, float]
    hits_critical: bool
    word: tuple[int, ...]

    def inside(self, intervals, slack: float) -> bool:
        """Every point lies within ``slack`` of one of the intervals."""
        return all(
            any(lo - slack <= p <= hi + slack for lo, hi in intervals) for p in self.points
        )


@dataclass
class PeriodicOrbitTable:
    max_period: int
    orbits: list[PeriodicOrbit]
    fix_counts: dict[int, int]

    def of_period(self, q: int) -> list[PeriodicOrbit]:
        return [o for o in self.orbits if o.period == q]

    def to_csv(self) -> str:
        names = sorted({k for o in self.orbits for k in o.means})
        lines = ["period,points,multiplier," + ",".join(f"mean_{n}" for n in names)]
        for o in sorted(self.orbits, key=lambda o: (o.period, o.points)):
            pts = ";".join(f"{p:.17g}" for p in o.points)
            means = ",".join(f"{o.means[n]:.17g}" for n in names)
            lines.append(f"{o.period},{pts},{o.multiplier:.17g},{means}")
        return "\n".join(lines) + "\n"


def _least_rotation(word: tuple[int, ...]) -> tuple[int, ...]:
    return min(word[i:] + word[:i] for i in range(len(word)))


def _level_roots(pmap, step, words, doms, q):
    """Roots of f_w(x) - x on the domain of each word w of one level, one
    list per word: the samples where |f_w(x) - x| <= _ROOT_TOL, then the
    bisected sign changes.  Each word is sampled on np.linspace's grid, 33
    points where f_w increases and 9 where it decreases.  All samples, then
    all brackets, are evaluated at once by ``step``, letter by letter.
    """
    letters = np.array(words, dtype=np.min_scalar_type(len(pmap.branches))).reshape(len(words), q)
    lo, hi = np.array(doms).reshape(len(words), 2).T
    flips = np.array([b.monotonicity == "decreasing" for b in pmap.branches])
    s = np.where(flips[letters].sum(axis=1) % 2, 9, 33)
    s[hi - lo < 1e-15] = 1
    ends = np.cumsum(s)
    wid = np.repeat(np.arange(len(words), dtype=np.int32), s)
    xs = np.arange(s.sum(), dtype=float)
    xs -= (ends - s)[wid]
    xs *= ((hi - lo) / np.maximum(s - 1, 1))[wid]
    xs += lo[wid]
    xs[ends - 1] = np.where(s > 1, hi, lo)

    def g(x, w):
        """f_w(x) - x for the words of the indices w, rounded as word_eval."""
        y, spare = x.copy(), np.empty_like(x)
        word = letters[w]  # one gather per call, a column view per letter
        for k in range(q):
            step(y, spare, word[:, k])
            y, spare = spare, y
        return y - x

    gs = np.empty_like(xs)
    n = 1 << 14  # samples per slice, which bounds the temporaries of g
    for i in range(0, xs.size, n):
        gs[i : i + n] = g(xs[i : i + n], wid[i : i + n])
    flat = np.bincount(wid[np.abs(gs) < 1e-13], minlength=len(words))
    bad = np.flatnonzero((flat >= np.maximum(6, s - 2)) & (hi - lo > 1e-6))
    if bad.size:
        dlo, dhi = doms[bad[0]]
        raise DegenerateFamily(f"f^{q} fixes an interval inside [{dlo:.6g},{dhi:.6g}]")
    at = np.flatnonzero(np.abs(gs) <= _ROOT_TOL)
    g1, g2 = gs[:-1], gs[1:]
    br = np.flatnonzero((wid[:-1] == wid[1:]) & (g1 != 0.0) & (g2 != 0.0) & ((g1 > 0) != (g2 > 0)))
    # every bracket in lockstep; each stops on an exact zero or at width 1e-15
    a, b, ga, wb = xs[br], xs[br + 1], gs[br], wid[br]
    live = np.arange(br.size)
    for _ in range(80):
        if not live.size:
            break
        mid = 0.5 * (a[live] + b[live])
        gm = g(mid, wb[live])
        zero, same = gm == 0.0, (gm > 0) == (ga[live] > 0)
        a[live] = np.where(zero | same, mid, a[live])
        b[live] = np.where(zero | ~same, mid, b[live])
        ga[live] = np.where(same, gm, ga[live])
        live = live[~(zero | (b[live] - a[live] <= 1e-15))]
    found: list[list[float]] = [[] for _ in words]
    for w, x in zip(wid[at].tolist() + wb.tolist(), xs[at].tolist() + (0.5 * (a + b)).tolist()):
        found[w].append(x)
    return found


def periodic_orbits(
    pmap: PiecewiseMap, Q: int, observables: list[Observable] | None = None
) -> PeriodicOrbitTable:
    """Enumerate periodic orbits of period <= Q via branch-word root isolation.

    Each length-q itinerary has a monotone composition on an exact interval;
    roots of f^q = id are isolated per word, one level of words at a time.
    Orbits through the critical set (domain-endpoint roots) are kept and
    flagged: they are the one-sided periodic-like candidates.
    """
    observables = observables or []
    step = _BranchTable.of(pmap).stepper()
    fix_counts: dict[int, int] = {}
    orbits: list[PeriodicOrbit] = []
    known_points: list[tuple[float, int]] = []  # sorted (point, period), for dedupe
    for q, (words, doms) in enumerate(_word_levels(pmap, Q, 1e-14), 1):
        fix_count = 0
        level = _level_roots(pmap, step, words, [doms[w] for w in words], q)
        for word, roots in zip(words, level):
            last = -math.inf
            for root in sorted(roots):
                if root - last <= 1e-12:
                    continue  # one root, found twice
                last = root
                pts, d, x = [], 1.0, root  # the orbit points, multiplier and f_w(root)
                for idx in word:
                    b = pmap.branches[idx]
                    pts.append(x)
                    d *= b.derivative(x)
                    x = b.value(x)
                mult = abs(d)
                # residuals of expanding compositions are amplified by the
                # multiplier; the root location itself is at machine precision.
                # A NaN residual (a point rounded out of a power branch) fails.
                if not abs(x - root) <= _VERIFY_TOL * max(1.0, mult):
                    continue
                fix_count += 1
                near = known_points[
                    bisect_left(known_points, (root - 2e-10,)):
                    bisect_right(known_points, (root + 2e-10, math.inf))
                ]
                if any(abs(root - p) < 1e-10 and q % d == 0 for p, d in near):
                    continue
                if any(abs(a - b) < 1e-10 for i, a in enumerate(pts) for b in pts[i + 1 :]):
                    continue  # lower-period orbit traversed multiple times
                hits = any(abs(p - c) < 1e-9 for p in pts for c in pmap.fcritical)
                if not hits and word != _least_rotation(word):
                    # an orbit that misses C has one itinerary per point, so it
                    # was listed from its least rotation, enumerated earlier at
                    # this level; its forward-propagated points can lie farther
                    # than the dedupe tolerance from this root
                    continue
                means = {phi.name: float(np.mean([phi(p) for p in pts])) for phi in observables}
                orbits.append(PeriodicOrbit(tuple(pts), q, mult, means, hits, word))
                for p in pts:
                    insort(known_points, (p, q))
        fix_counts[q] = fix_count
    return PeriodicOrbitTable(Q, orbits, fix_counts)


# ---------------------------------------------------------------------------
# first-return maps


@dataclass
class ReturnBranch:
    domain: tuple[float, float]
    time: int
    monotonicity: str
    image: tuple[float, float]
    word: tuple[int, ...]


@dataclass
class ReturnMap:
    base: tuple[float, float]
    branches: list[ReturnBranch]
    residual_length: float
    horizon: int

    def to_json_dict(self) -> dict:
        return {
            "base": list(self.base),
            "horizon": self.horizon,
            "residual_length": self.residual_length,
            "branches": [
                {
                    "domain": list(b.domain),
                    "time": b.time,
                    "monotonicity": b.monotonicity,
                    "image": list(b.image),
                }
                for b in self.branches
            ],
        }


def _pull_window(pmap: PiecewiseMap, word: tuple[int, ...], wlo, whi, lo, hi):
    """The part of [lo, hi] that the word sends onto [wlo, whi]: both ends
    inverted through the word, sorted and clipped to [lo, hi]."""
    ends = [wlo, whi]
    for idx in reversed(word):
        ends = [pmap.branches[idx].inverse(y) for y in ends]
    x1, x2 = sorted(ends)
    return max(x1, lo), min(x2, hi)


def first_return_map(
    pmap: PiecewiseMap,
    interval: tuple[float, float],
    horizon: int,
    min_branch_width: float = 1e-12,
) -> ReturnMap:
    """Partition of I by first-return time and itinerary.

    Pieces of I are iterated symbolically; when an image straddles the base
    interval, the returning window is pulled back through the branch word
    (closed-form monotone inverses) and emitted as a return branch.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("base interval must be a nonempty subinterval of [0,1]")
    branches_out: list[ReturnBranch] = []
    residual = 0.0
    # worklist entries: (dom_lo, dom_hi, word, img_lo, img_hi)
    work = []
    for lo, hi, idx in pmap.pieces(a, b):
        img = pmap.branches[idx].interval_image(lo, hi)
        work.append((lo, hi, (idx,), img[0], img[1]))
    while work:
        dom_lo, dom_hi, word, img_lo, img_hi = work.pop()
        t = len(word)
        if dom_hi - dom_lo < min_branch_width:
            residual += max(0.0, dom_hi - dom_lo)
            continue
        # windows of the image: inside (a,b) returns, outside continues
        windows = _cut_window(img_lo, img_hi, a, b)
        for wlo, whi, inside in windows:
            if whi - wlo <= 1e-15:
                continue
            x1, x2 = _pull_window(pmap, word, wlo, whi, dom_lo, dom_hi)
            if x2 - x1 <= 0:
                continue
            if inside:
                if x2 - x1 < min_branch_width:
                    residual += x2 - x1
                else:
                    branches_out.append(
                        ReturnBranch(
                            (x1, x2), t, word_monotonicity(pmap, word), (wlo, whi), word
                        )
                    )
                continue
            if t >= horizon:
                residual += x2 - x1
                continue
            for plo, phi_, idx in pmap.pieces(wlo, whi):
                nlo, nhi = pmap.branches[idx].interval_image(plo, phi_)
                y1, y2 = _pull_window(pmap, word, plo, phi_, x1, x2)
                if y2 - y1 > 0:
                    work.append((y1, y2, word + (idx,), nlo, nhi))
    branches_out.sort(key=lambda rb: rb.domain[0])
    return ReturnMap((a, b), branches_out, residual, horizon)


def _cut_window(img_lo, img_hi, a, b):
    """Partition [img_lo, img_hi] by the base interval (a, b)."""
    out = []
    if img_lo < a:
        out.append((img_lo, min(img_hi, a), False))
    mid_lo, mid_hi = max(img_lo, a), min(img_hi, b)
    if mid_hi > mid_lo:
        out.append((mid_lo, mid_hi, True))
    if img_hi > b:
        out.append((max(img_lo, b), img_hi, False))
    return out


def is_full_branch(rm: ReturnMap, tol: float = 1e-9) -> bool:
    """True iff every return branch image covers the base up to tol at both ends."""
    a, b = rm.base
    if not rm.branches:
        return False
    return all(br.image[0] <= a + tol and br.image[1] >= b - tol for br in rm.branches)


# ---------------------------------------------------------------------------
# homtervals and wandering intervals


@dataclass
class HomtervalVerdict:
    interval: tuple[float, float]
    verdict: str  # "wandering" | "basin" | "undecided"
    horizon: int
    detail: str = ""


def find_homtervals(pmap: PiecewiseMap, n: int, min_len: float) -> list[tuple[float, float]]:
    """Intervals wider than min_len whose first n images avoid C.

    These are the domains of the branch words of length n + 1 (the word
    levels of ``periodic_orbits``), so neighbours meet at the preimages of
    C.  A non-critical breakpoint also splits the domains at its preimages:
    they are C-free but not maximal.  Words whose domain is no wider than
    min_len are not extended (their extensions can only be thinner), which
    bounds the work for expanding maps.  Increasing dyadic-affine maps use
    exact mantissa pullbacks: their float-parameter shadow is a different
    map, and backward float error is amplified by the inverse slopes.
    """
    if pmap.dyadic_affine and all(b.coeffs[1] > 0 for b in pmap.branches):
        # not the word levels: they take the domain of a word whose suffix
        # was thinner than min_len from ``word_domain``, a pullback through
        # the whole word, which in mantissas is quadratic in big-integer
        # pullbacks at n = 10 000
        return _find_homtervals_dyadic(pmap, n, min_len)
    for words, doms in _word_levels(pmap, n + 1, min_len):
        pass  # to the last level, the words of length n + 1
    return sorted(doms[w] for w in words)


def _find_homtervals_dyadic(pmap: PiecewiseMap, n: int, min_len: float):
    """Exact homterval search for increasing dyadic-affine maps.

    Pieces carry exact domain/image mantissas; the j-step composition is
    affine with a known slope, so domain cuts at critical-image crossings
    are exact shifts.
    """
    p = DYADIC_ORBIT_BITS
    min_m = max(1, dyadic.from_fraction(Fraction(min_len), p))
    cms, cuts = dyadic.branch_table(pmap, p)
    crit = {dyadic.from_fraction(c, p) for c in pmap.critical}
    # pieces: (dom_lo, dom_hi, img_lo, img_hi, inv_num, inv_den)
    # where dom = dom_lo + (img - img_lo) * inv_num / inv_den, all mantissas;
    # the branch domains are the pieces of the 0-step composition
    edges = [0] + cuts + [1 << p]
    pieces = [(lo, hi, lo, hi, 1, 1) for lo, hi in zip(edges, edges[1:])]
    for _ in range(n + 1):
        nxt = []
        for dlo, dhi, ilo, ihi, inv_n, inv_d in pieces:
            if dhi - dlo < min_m:
                continue
            inner = [t for t in crit if ilo < t < ihi]
            windows = []
            if not inner:
                windows.append((dlo, dhi, ilo, ihi))
            else:
                marks = [ilo] + sorted(inner) + [ihi]
                for wlo, whi in zip(marks, marks[1:]):
                    a = dlo + ((wlo - ilo) * inv_n) // inv_d
                    b = dlo + ((whi - ilo) * inv_n) // inv_d
                    if b - a >= min_m:
                        windows.append((a, b, wlo, whi))
            for a, b, wlo, whi in windows:
                # a window starting on a cut lies in the branch right of it
                i = bisect_right(cuts, wlo)
                slope = pmap.branches[i].coeffs[1]
                nxt.append(
                    (a, b, dyadic.poly_down(cms[i], wlo, p), dyadic.poly_down(cms[i], whi, p),
                     inv_n * slope.denominator, inv_d * slope.numerator)
                )
        pieces = nxt
        if not pieces:
            break
    # inward rounding: the critical-value orbits bounding these pieces pass
    # exponentially close to C, so an outward float ulp would flip verdicts
    out = [
        (dyadic.to_float_up(dlo, p), dyadic.to_float(dhi, p))
        for dlo, dhi, *_ in pieces
        if dhi - dlo >= min_m
    ]
    return sorted((lo, hi) for lo, hi in out if lo < hi)


def classify_homterval(pmap: PiecewiseMap, J: tuple[float, float], horizon: int) -> HomtervalVerdict:
    """Wandering / basin-of-periodic-like / undecided, at the given horizon.

    Basin: the midpoint orbit converges to a periodic-like attractor, found
    by a settle-and-cycle probe.
    Wandering: all pairwise image intersections f^j(J) cap f^k(J) empty up
    to the horizon and no convergence was detected.

    The images are ``_dyadic_interval_orbit``'s enclosures, one directed
    mantissa image a step at DYADIC_ORBIT_BITS; a map with a power branch
    raises NotClassified before the probe runs.  C counts as hit only when an
    enclosure meets it: on Feigenbaum that is often some steps later than a
    float image with an outward margin reports, at about 7x its cost (45 ms
    a call against 6 ms on a 2-core VM).
    """
    lo, hi = float(J[0]), float(J[1])
    table = dyadic.branch_table(pmap, DYADIC_ORBIT_BITS)
    cycle = _convergent_cycle(pmap, 0.5 * (lo + hi), horizon)
    if cycle is not None:
        return HomtervalVerdict((lo, hi), "basin", horizon, f"converges to {cycle}")
    images, ok = _dyadic_interval_orbit(pmap, table, lo, hi, horizon)
    if not ok:
        return HomtervalVerdict(
            (lo, hi), "undecided", horizon, f"image hits C after {len(images) - 1} steps"
        )
    ordered = sorted(images[1:])  # f^j(J), 1 <= j <= horizon
    if any(ahi >= blo for (_, ahi), (blo, _) in zip(ordered, ordered[1:])):
        return HomtervalVerdict((lo, hi), "undecided", horizon, "image intervals overlap")
    return HomtervalVerdict((lo, hi), "wandering", horizon, "pairwise disjoint images")


def _dyadic_interval_orbit(pmap: PiecewiseMap, table, lo: float, hi: float, n: int):
    """Mantissa intervals enclosing J, f(J), ..., f^n(J) at DYADIC_ORBIT_BITS,
    and False when an image meets C.

    ``table`` is ``dyadic.branch_table(pmap, DYADIC_ORBIT_BITS)``.  An image
    is the hull of ``dyadic.image_outer`` over the pieces between the cuts
    (f stays monotone across a non-critical one), clamped to [0, 2^p].  Image
    separations shrink exponentially on a Cantor attractor, so comparisons
    stay on full mantissas, where float projections of disjoint images meet.
    """
    p = DYADIC_ORBIT_BITS
    cms, cuts = table
    decreasing = [b.monotonicity == DECREASING for b in pmap.branches]
    crit = [dyadic.from_fraction(c, p) for c in pmap.critical]
    mlo = dyadic.from_fraction(Fraction(lo), p)
    mhi = dyadic.from_fraction(Fraction(hi), p, round_up=True)
    out = [(mlo, mhi)]
    for _ in range(n):
        if any(mlo <= t <= mhi for t in crit):
            return out, False
        first = bisect_left(cuts, mlo)
        ends = [mlo, *cuts[first:bisect_left(cuts, mhi)], mhi]
        images = [
            dyadic.image_outer(cms[i], decreasing[i], a, b, p)
            for i, (a, b) in enumerate(zip(ends, ends[1:]), first)
        ]
        mlo = max(min(a for a, _ in images), 0)
        mhi = min(max(b for _, b in images), 1 << p)
        out.append((mlo, mhi))
    return out, True


def _convergent_cycle(pmap, x0, horizon):
    pts, _ = orbit_points(pmap, x0, min(max(horizon, 256), 20000))
    if len(pts) < 8:
        return None
    for q in range(1, 65):
        if len(pts) <= 2 * q or abs(pts[-1] - pts[-1 - q]) >= 1e-9:
            continue
        cycle = tuple(float(t) for t in pts[-q:])
        if _cycle_attracts(pmap, cycle):
            return tuple(round(t, 9) for t in cycle)
    return None


def _cycle_attracts(pmap, cycle):
    """Probe whether a candidate cycle actually attracts a neighborhood.

    A contracting map glues nearby orbit segments below float resolution, so
    lag-recurrence alone cannot distinguish an attracting cycle from a
    recurrent non-periodic orbit; a probe displaced by 1e-4 must come back."""
    p0 = cycle[0]
    for sgn in (1.0, -1.0):
        y = min(max(p0 + sgn * 1e-4, 1e-12), 1.0 - 1e-12)
        start = abs(y - p0)
        try:
            for _ in range(8 * len(cycle)):  # eight returns
                y = pmap.evaluate(y)
        except Exception:
            continue
        if abs(y - p0) < 0.25 * start:
            return True
    return False


@dataclass
class WanderingMatch:
    matched: bool
    generators: list[tuple[float, str]]
    distance_cells: float
    candidate_count: int
    contains_critical_cell: bool
    distances: dict


def wandering_attractor_check(
    pmap: PiecewiseMap, J: tuple[float, float], n: int, eps: float
) -> WanderingMatch:
    """Match the omega-estimate of a wandering interval against unions of
    critical-value orbit closures over V subset {f(c+-)}.

    Reports the best-matching V (Hausdorff distance <= 2 cells to match),
    the candidate count bound 2^(2#C), and whether the matched closure
    contains a cell of the critical set.
    """
    mid = 0.5 * (J[0] + J[1])
    omega = omega_limit_estimate(pmap, mid, n // 2, n, eps).cells
    gen_cells = {
        (c, side): omega_limit_estimate(pmap, pmap.one_sided_limit_exact(cf, side), 0, n, eps).cells
        for cf, c, side in _sides(pmap)
    }
    sides = list(gen_cells)
    best = None
    distances = {}
    for mask in range(1, 1 << len(sides)):
        chosen = [sides[i] for i in range(len(sides)) if mask >> i & 1]
        union = np.unique(np.concatenate([gen_cells[s] for s in chosen]))
        d = hausdorff_cells(omega, union)
        distances[tuple(chosen)] = d
        if best is None or d < best[1] or (d == best[1] and len(chosen) > len(best[0])):
            best = (chosen, d, union)
    chosen, d, union = best
    crit_cells = {
        cc for c in pmap.fcritical for cc in cells_containing(c, eps)
    }
    contains_crit = bool(crit_cells & set(union.tolist()))
    return WanderingMatch(
        matched=d <= 2.0,
        generators=chosen,
        distance_cells=d,
        candidate_count=(1 << (2 * len(pmap.critical))),
        contains_critical_cell=contains_crit,
        distances=distances,
    )


def _sides(pmap):
    for cf in pmap.critical:
        yield cf, float(cf), MINUS
        yield cf, float(cf), PLUS


# ---------------------------------------------------------------------------
# lap numbers and entropy


@dataclass
class LapCount:
    counts: list[int]
    entropy: float


def _initial_laps(pmap: PiecewiseMap, domain=None):
    """Maximal monotone laps of f (merging smooth non-critical joins)."""
    crit = set(pmap.fcritical)
    laps = []
    cur = None
    for i, br in enumerate(pmap.branches):
        if cur is not None and float(br.lo) not in crit and cur[2] == br.monotonicity:
            cur = (cur[0], br.fhi, br.monotonicity)
        else:
            if cur is not None:
                laps.append(cur)
            cur = (br.flo, br.fhi, br.monotonicity)
    laps.append(cur)
    if domain is not None:
        clipped = []
        for dlo, dhi in domain:
            for llo, lhi, mono in laps:
                lo, hi = max(llo, dlo), min(lhi, dhi)
                if hi - lo > 1e-12:
                    clipped.append((lo, hi, mono))
        laps = clipped
    return laps


def lap_counts(pmap: PiecewiseMap, n_max: int, domain=None) -> list[int]:
    """Lap numbers of f^1..f^n_max via image-state propagation.

    States are lap image intervals; laps with identical images evolve
    identically, so they are aggregated with multiplicities (the counts stay
    exact while the state dictionary stays small for the families here).
    Raises IntervalDynError when a count reaches 0: a lap number is at least
    1, so the float image states have lost every lap.
    """
    states: dict[tuple[float, float], int] = {}
    for lo, hi, _ in _initial_laps(pmap, domain):
        img = _image_interval(pmap, lo, hi)
        states[img] = states.get(img, 0) + 1
    counts = [sum(states.values())]
    for _ in range(1, n_max):
        nxt: dict[tuple[float, float], int] = {}
        for (lo, hi), cnt in states.items():
            cuts = [c for c in pmap.fcritical if lo + 1e-12 < c < hi - 1e-12]
            edges = [lo] + cuts + [hi]
            for wlo, whi in zip(edges, edges[1:]):
                if whi - wlo <= 1e-13:
                    continue
                img = _image_interval(pmap, wlo, whi)
                nxt[img] = nxt.get(img, 0) + cnt
        states = nxt
        if not states:
            raise IntervalDynError(f"lap count of f^{len(counts) + 1} is 0 (laps under 1e-13 are dropped)")
        counts.append(sum(states.values()))
        if len(states) > 300_000:
            raise MemoryError("lap state explosion; raise resolution or lower n_max")
    return counts


def _image_interval(pmap, lo, hi):
    pieces = pmap.interval_image(lo, hi)
    img_lo = min(p[0] for p in pieces)
    img_hi = max(p[1] for p in pieces)
    return (round(img_lo, 12), round(img_hi, 12))


def lap_entropy(pmap: PiecewiseMap, n_max: int = 24, domain=None) -> LapCount:
    """Topological entropy estimate from the lap-number growth rate.

    The log-lap increments are fitted as h + beta*log(1+1/n) over the tail
    half, which is exact for lap sequences of the form C * n^beta * e^(h n);
    the polynomial factor dominates at zero entropy (period-doubling limit,
    rotation-like maps) and would otherwise contaminate a plain slope at
    reachable n_max.  Raises IntervalDynError when a lap count passes the
    double range, where its logarithm cannot be taken in floats.
    """
    if n_max < 8:
        raise ValueError("n_max >= 8 required")
    counts = lap_counts(pmap, n_max, domain)
    if max(counts).bit_length() > 1023:
        raise IntervalDynError(f"lap counts pass the double range before n = {n_max}")
    logc = np.log(np.asarray(counts, dtype=float))  # counts may pass 2^63
    diffs = np.diff(logc)
    ns = np.arange(2, n_max + 1, dtype=float)
    k = max(4, len(diffs) // 2)
    design = np.column_stack([np.ones(k), np.log1p(1.0 / ns[-k:])])
    coef, *_ = np.linalg.lstsq(design, diffs[-k:], rcond=None)
    return LapCount(counts, max(float(coef[0]), 0.0))


# ---------------------------------------------------------------------------
# strong transitivity


@dataclass
class TransitivityReport:
    passed: bool
    cover_times: list[int | None]
    residues: list[float]
    probes: list[tuple[float, float]]


def _union_merge(segments: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not segments:
        return []
    segments = sorted(segments)
    out = [segments[0]]
    for lo, hi in segments[1:]:
        if lo <= out[-1][1] + 1e-12:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _covers(union, target, eps):
    """Largest uncovered gap of `target` intervals relative to the union."""
    worst = 0.0
    for tlo, thi in target:
        pos = tlo
        for ulo, uhi in union:
            if uhi < tlo:
                continue
            if ulo > thi:
                break
            if ulo > pos:
                worst = max(worst, ulo - pos)
            pos = max(pos, uhi)
            if pos >= thi:
                break
        if pos < thi:
            worst = max(worst, thi - pos)
    return worst


def strong_transitivity_check(
    pmap: PiecewiseMap,
    J,
    probes,
    N: int,
    eps: float,
) -> TransitivityReport:
    """Check that every probe's image chain covers J up to eps.

    The pass verdict uses the cumulative union probe, f(probe), ...; the
    reported cover time is the number of terms until a single image set
    f^(T-1)(probe) covers J by itself, which is the deterministic quantity
    (cumulative unions can cover one step early by lucky alignment).
    """
    target = [tuple(map(float, iv)) for iv in (J if isinstance(J, list) else [J])]
    cover_times: list[int | None] = []
    residues: list[float] = []
    passed_all = True
    for probe in probes:
        union = [tuple(map(float, probe))]
        frontier = list(union)
        time = None
        union_covered = False
        for k in range(1, N + 1):
            if _covers(frontier, target, eps) <= eps:
                time = k
                break
            if not union_covered and _covers(union, target, eps) <= eps:
                union_covered = True
            new_frontier = []
            for lo, hi in frontier:
                for seg in pmap.interval_image(lo, hi):
                    new_frontier.append(seg)
            frontier = _union_merge(new_frontier)
            union = _union_merge(union + frontier)
        residues.append(_covers(union, target, eps))
        cover_times.append(time)
        if time is None and not union_covered and residues[-1] > eps:
            passed_all = False
    return TransitivityReport(passed_all, cover_times, residues, list(probes))


# ---------------------------------------------------------------------------
# Birkhoff maximum oracle


@dataclass
class OracleResult:
    value: float
    argmax_orbit: PeriodicOrbit | None
    trace: dict[int, float] = field(default_factory=dict)
    method: str = ""


def birkhoff_max_oracle(pmap: PiecewiseMap, attractor, phi: Observable, Q: int = 12) -> OracleResult:
    """max { int phi dmu : mu invariant, mu(A) = 1 }, by attractor kind.

    Cycle of intervals: maximum of phi-means over periodic orbits of period
    <= Q supported in A (periodic points are dense in a cycle), with the
    running maximum per period as a convergence trace.  Cantor: Birkhoff
    average along the generating critical orbit (unique ergodicity).
    Periodic-like: the orbit mean.
    """
    kind = getattr(attractor, "kind", None)
    if kind in (None, "unresolved"):
        raise NotClassified("birkhoff_max_oracle needs a classified attractor")
    if kind == "periodic_like":
        pts = np.asarray(attractor.points)
        return OracleResult(float(np.mean(phi(pts))), None, method="orbit mean")
    if kind == "cantor":
        gens = getattr(attractor, "generators", None) or [
            (c, MINUS) for c in pmap.fcritical
        ]
        c, side = gens[0]
        series = birkhoff_envelope(pmap, pmap.one_sided_limit_exact(c, side), phi, 1 << 17)
        return OracleResult(
            float(series.averages[-1]), None, method="uniquely ergodic critical orbit"
        )
    if kind == "cycle":
        table = periodic_orbits(pmap, Q, [phi])
        slack = 2.0 * getattr(attractor, "eps", 1e-9) + 1e-9
        best = None
        trace: dict[int, float] = {}
        running = -math.inf
        for q in range(1, Q + 1):
            for orb in table.of_period(q):
                if not orb.inside(attractor.intervals, slack):
                    continue
                m = orb.means[phi.name]
                if m > running:
                    running = m
                    best = orb
            trace[q] = running
        if best is None:
            raise NotClassified("no periodic orbit found inside the cycle support")
        return OracleResult(running, best, trace, method="periodic means")
    raise NotClassified(f"unknown attractor kind {kind!r}")
