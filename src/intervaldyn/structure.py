"""Structural analysis: branch words, periodic orbits, return maps, homtervals,
lap-number entropy, strong transitivity and the Birkhoff maximum oracle.

Everything here is driven by symbolic branch itineraries: a word
(i_0, ..., i_{q-1}) names the composition of branches i_0 then i_1 ...,
whose domain is an exact interval obtained by monotone pullback.  This
keeps f^q decompositions certified without naive root searching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dyadic
from .cells import hausdorff_cells, cells_containing
from .errors import DegenerateFamily, NotClassified
from .maps import PiecewiseMap, MINUS, PLUS
from .observables import Observable
from .orbit_stats import DYADIC_ORBIT_BITS, dyadic_orbit_cells, omega_limit_estimate

_ROOT_TOL = 1e-13
_VERIFY_TOL = 1e-12


# ---------------------------------------------------------------------------
# branch words


def word_domain(pmap: PiecewiseMap, word: tuple[int, ...]) -> tuple[float, float] | None:
    """Closed domain interval of the branch-word composition, or None if empty."""
    b_last = pmap.branches[word[-1]]
    lo, hi = b_last.flo, b_last.fhi
    for idx in reversed(word[:-1]):
        b = pmap.branches[idx]
        ilo, ihi = b.interval_image(b.flo, b.fhi)
        lo2, hi2 = max(lo, ilo), min(hi, ihi)
        if lo2 > hi2:
            return None
        x1, x2 = b.inverse(lo2), b.inverse(hi2)
        if x1 > x2:
            x1, x2 = x2, x1
        lo, hi = x1, x2
        if hi - lo < 0:
            return None
    return lo, hi


def word_eval(pmap: PiecewiseMap, word: tuple[int, ...], x: float) -> float:
    for idx in word:
        x = pmap.branches[idx].value(x)
    return x


def word_monotonicity(pmap: PiecewiseMap, word: tuple[int, ...]) -> str:
    flips = sum(1 for idx in word if pmap.branches[idx].monotonicity == "decreasing")
    return "decreasing" if flips % 2 else "increasing"


def _word_derivative(pmap: PiecewiseMap, word: tuple[int, ...], x: float) -> float:
    d = 1.0
    for idx in word:
        d *= pmap.branches[idx].derivative(x)
        x = pmap.branches[idx].value(x)
    return d


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

    def mean(self, name: str) -> float:
        return self.means[name]


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


def _roots_in_word(pmap, word, lo, hi, samples):
    """Roots of f_word(x) - x on [lo, hi] (monotone composition)."""
    if hi - lo < 1e-15:
        xs = [lo]
    else:
        xs = np.linspace(lo, hi, samples)
    gs = [word_eval(pmap, word, float(x)) - float(x) for x in xs]
    flat = sum(1 for g in gs if abs(g) < 1e-13)
    if flat >= max(6, samples - 2) and hi - lo > 1e-6:
        raise DegenerateFamily(
            f"f^{len(word)} fixes an interval inside [{lo:.6g},{hi:.6g}]"
        )
    roots = []
    for x, g in zip(xs, gs):
        if abs(g) <= _ROOT_TOL:
            roots.append(float(x))
    for (x1, g1), (x2, g2) in zip(zip(xs, gs), zip(xs[1:], gs[1:])):
        if g1 == 0.0 or g2 == 0.0 or (g1 > 0) == (g2 > 0):
            continue
        a, b, ga = float(x1), float(x2), g1
        for _ in range(80):
            mid = 0.5 * (a + b)
            gm = word_eval(pmap, word, mid) - mid
            if gm == 0.0:
                a = b = mid
                break
            if (gm > 0) == (ga > 0):
                a, ga = mid, gm
            else:
                b = mid
            if b - a <= 1e-15:
                break
        roots.append(0.5 * (a + b))
    deduped: list[float] = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > 1e-12:
            deduped.append(r)
    return deduped


def periodic_orbits(
    pmap: PiecewiseMap, Q: int, observables: list[Observable] | None = None
) -> PeriodicOrbitTable:
    """Enumerate periodic orbits of period <= Q via branch-word root isolation.

    Each length-q itinerary has a monotone composition on an exact interval;
    roots of f^q = id are isolated per word.  Orbits through the critical set
    (domain-endpoint roots) are kept and flagged: they are the one-sided
    periodic-like candidates.
    """
    observables = observables or []
    nb = len(pmap.branches)
    fix_counts: dict[int, int] = {}
    orbits: list[PeriodicOrbit] = []
    known_points: list[tuple[float, int]] = []  # (point, period) for dedupe

    words: list[tuple[tuple[int, ...], tuple[float, float]]] = [
        ((i,), (b.flo, b.fhi)) for i, b in enumerate(pmap.branches)
    ]
    for q in range(1, Q + 1):
        fix_count = 0
        for word, (lo, hi) in words:
            mono = word_monotonicity(pmap, word)
            samples = 33 if mono == "increasing" else 9
            for root in _roots_in_word(pmap, word, lo, hi, samples):
                mult = abs(_word_derivative(pmap, word, root))
                # residuals of expanding compositions are amplified by the
                # multiplier; the root location itself is at machine precision
                err = abs(word_eval(pmap, word, root) - root)
                if err > _VERIFY_TOL * max(1.0, mult):
                    continue
                fix_count += 1
                if any(
                    abs(root - p) < 1e-10 and q % d == 0 for p, d in known_points
                ):
                    continue
                pts = [root]
                for idx in word[:-1]:
                    pts.append(pmap.branches[idx].value(pts[-1]))
                if any(
                    abs(a - b) < 1e-10
                    for i, a in enumerate(pts)
                    for b in pts[i + 1 :]
                ):
                    continue  # lower-period orbit traversed multiple times
                hits = any(abs(p - c) < 1e-9 for p in pts for c in pmap.fcritical)
                if not hits and word != _least_rotation(word):
                    # an orbit that misses C has one itinerary per point, so it
                    # was listed from its least rotation, enumerated earlier at
                    # this level; its forward-propagated points can lie farther
                    # than the dedupe tolerance from this root
                    continue
                means = {
                    phi.name: float(np.mean([phi(p) for p in pts]))
                    for phi in observables
                }
                orbits.append(
                    PeriodicOrbit(tuple(pts), q, mult, means, hits, word)
                )
                for p in pts:
                    known_points.append((p, q))
        fix_counts[q] = fix_count
        if q < Q:
            nxt = []
            for word, _ in words:
                for i in range(nb):
                    w2 = word + (i,)
                    dom = word_domain(pmap, w2)
                    if dom is not None and dom[1] - dom[0] > 1e-14:
                        nxt.append((w2, dom))
            words = nxt
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


def _invert_word(pmap: PiecewiseMap, word: tuple[int, ...], y: float) -> float:
    for idx in reversed(word):
        y = pmap.branches[idx].inverse(y)
    return y


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
    for lo, hi, idx in _split_at_breaks(pmap, a, b):
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
            x1 = _invert_word(pmap, word, wlo)
            x2 = _invert_word(pmap, word, whi)
            if x1 > x2:
                x1, x2 = x2, x1
            x1, x2 = max(x1, dom_lo), min(x2, dom_hi)
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
            for plo, phi_, idx in _split_at_breaks(pmap, wlo, whi):
                nlo, nhi = pmap.branches[idx].interval_image(plo, phi_)
                y1 = _invert_word(pmap, word, plo)
                y2 = _invert_word(pmap, word, phi_)
                if y1 > y2:
                    y1, y2 = y2, y1
                y1, y2 = max(y1, x1), min(y2, x2)
                if y2 - y1 > 0:
                    work.append((y1, y2, word + (idx,), nlo, nhi))
    branches_out.sort(key=lambda rb: rb.domain[0])
    return ReturnMap((a, b), branches_out, residual, horizon)


def _split_at_breaks(pmap: PiecewiseMap, lo: float, hi: float):
    """(lo, hi) split at interior breakpoints, tagged with the branch index."""
    pts = [lo] + [c for c in pmap.fbreaks[1:-1] if lo < c < hi] + [hi]
    out = []
    for p, q in zip(pts, pts[1:]):
        if q - p > 1e-15:
            out.append((p, q, pmap.branch_index(0.5 * (p + q))))
    return out


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
    """Maximal intervals of length >= min_len whose first n images avoid C.

    Pieces whose domain drops below min_len are discarded (they can only
    shrink further), which bounds the work for expanding maps.  Increasing
    dyadic-affine maps use exact mantissa pullbacks: their float-parameter
    shadow is a different map, and backward float error is amplified by the
    inverse slopes.
    """
    if pmap.dyadic_affine and all(b.coeffs[1] > 0 for b in pmap.branches):
        return _find_homtervals_dyadic(pmap, n, min_len)
    pieces = [
        (lo, hi, (idx,)) for lo, hi, idx in _split_at_breaks(pmap, 0.0, 1.0)
    ]
    for _ in range(n):
        nxt = []
        for lo, hi, word in pieces:
            if hi - lo < min_len:
                continue
            img_lo, img_hi = _word_image(pmap, word, lo, hi)
            cuts = [c for c in pmap.fcritical if img_lo + 1e-14 < c < img_hi - 1e-14]
            if not cuts:
                idx = pmap.branch_index(0.5 * (img_lo + img_hi))
                nxt.append((lo, hi, word + (idx,)))
                continue
            edges = [img_lo] + cuts + [img_hi]
            for wlo, whi in zip(edges, edges[1:]):
                if whi - wlo <= 1e-14:
                    continue
                x1, x2 = _invert_word(pmap, word, wlo), _invert_word(pmap, word, whi)
                if x1 > x2:
                    x1, x2 = x2, x1
                x1, x2 = max(x1, lo), min(x2, hi)
                if x2 - x1 >= min_len:
                    idx = pmap.branch_index(0.5 * (wlo + whi))
                    nxt.append((x1, x2, word + (idx,)))
        pieces = nxt
        if not pieces:
            break
    return sorted((lo, hi) for lo, hi, _ in pieces)


def _word_image(pmap, word, lo, hi):
    """Image interval of [lo,hi] under the word composition (monotone)."""
    for idx in word:
        lo, hi = pmap.branches[idx].interval_image(lo, hi)
    return lo, hi


def _find_homtervals_dyadic(pmap: PiecewiseMap, n: int, min_len: float):
    """Exact homterval search for increasing dyadic-affine maps.

    Pieces carry exact domain/image mantissas; the j-step composition is
    affine with a known slope, so domain cuts at critical-image crossings
    are exact shifts.
    """
    p = DYADIC_ORBIT_BITS
    one = 1 << p
    from fractions import Fraction

    min_m = max(1, dyadic.from_fraction(Fraction(min_len), p))
    cuts = [dyadic.from_fraction(c, p) for c in pmap.breakpoints[1:-1]]
    crit = {dyadic.from_fraction(c, p) for c in pmap.critical}
    coeffs = []
    for br in pmap.branches:
        b0 = dyadic.from_fraction(br.coeffs[0], p)
        slope = br.coeffs[1]
        coeffs.append((b0, slope.numerator, slope.denominator))
    # pieces: (dom_lo, dom_hi, img_lo, img_hi, inv_num, inv_den)
    # where dom = dom_lo + (img - img_lo) * inv_num / inv_den, all mantissas
    pieces = []
    edges = [0] + cuts + [one]
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo < min_m:
            continue
        idx = sum(1 for t in cuts if lo >= t)
        b0, sn, sd = coeffs[idx]
        ilo = (lo * sn) // sd + b0
        ihi = (hi * sn) // sd + b0
        pieces.append((lo, hi, ilo, ihi, sd, sn))
    for _ in range(n):
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
                idx = sum(1 for t in cuts if wlo >= t)
                b0, sn, sd = coeffs[idx]
                nlo = (wlo * sn) // sd + b0
                nhi = (whi * sn) // sd + b0
                nxt.append((a, b, nlo, nhi, inv_n * sd, inv_d * sn))
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


def _interval_orbit(pmap: PiecewiseMap, lo: float, hi: float, n: int):
    """Forward interval images J, f(J), ..., f^n(J); None when J straddles C.

    Exact dyadic propagation for dyadic-affine maps, float endpoints with
    outward margin otherwise.
    """
    out = [(lo, hi)]
    if pmap.dyadic_affine:
        p = DYADIC_ORBIT_BITS
        coeffs = [
            (dyadic.from_fraction(br.coeffs[0], p), br.coeffs[1]) for br in pmap.branches
        ]
        cuts = [dyadic.from_fraction(c, p) for c in pmap.breakpoints[1:-1]]
        mlo = dyadic.from_fraction(_to_frac(lo), p)
        mhi = dyadic.from_fraction(_to_frac(hi), p, round_up=True)
        for _ in range(n):
            idx_lo = sum(1 for t in cuts if mlo > t)
            idx_hi = sum(1 for t in cuts if mhi > t)
            if idx_lo != idx_hi:
                return out, False
            b0, slope = coeffs[idx_lo]
            mlo = (mlo * slope.numerator) // slope.denominator + b0
            mhi = -((-mhi * slope.numerator) // slope.denominator) + b0
            if mlo > mhi:
                mlo, mhi = mhi, mlo
            out.append((dyadic.to_float(mlo, p), dyadic.to_float(mhi, p)))
        return out, True
    margin = 1e-13
    for _ in range(n):
        if any(lo - 1e-14 <= c <= hi + 1e-14 for c in pmap.fcritical):
            return out, False
        pieces = pmap.interval_image(lo, hi, margin)
        lo = min(p[0] for p in pieces)
        hi = max(p[1] for p in pieces)
        out.append((lo, hi))
    return out, True


def _to_frac(x: float):
    from fractions import Fraction

    return Fraction(x)


def classify_homterval(
    pmap: PiecewiseMap,
    J: tuple[float, float],
    horizon: int,
    periodic_attractors: list | None = None,
) -> HomtervalVerdict:
    """Wandering / basin-of-periodic-like / undecided, at the given horizon.

    Basin: the midpoint orbit converges to a periodic-like attractor
    (detected ones if supplied, otherwise a settle-and-cycle probe).
    Wandering: all pairwise image intersections f^j(J) cap f^k(J) empty up
    to the horizon and no convergence was detected.
    """
    lo, hi = float(J[0]), float(J[1])
    mid = 0.5 * (lo + hi)
    cycle = _convergent_cycle(pmap, mid, horizon, periodic_attractors)
    if cycle is not None:
        return HomtervalVerdict((lo, hi), "basin", horizon, f"converges to {cycle}")
    if pmap.dyadic_affine:
        ok, disjoint, steps = _dyadic_disjoint_images(pmap, lo, hi, horizon)
    else:
        images, ok = _interval_orbit(pmap, lo, hi, horizon)
        steps = len(images) - 1
        disjoint = True
        if ok:
            ordered = sorted(images[1:])  # f^j(J), 1 <= j < k
            for (alo, ahi), (blo, bhi) in zip(ordered, ordered[1:]):
                if ahi >= blo:
                    disjoint = False
                    break
    if not ok:
        return HomtervalVerdict(
            (lo, hi), "undecided", horizon, f"image hits C after {steps} steps"
        )
    if not disjoint:
        return HomtervalVerdict((lo, hi), "undecided", horizon, "image intervals overlap")
    return HomtervalVerdict((lo, hi), "wandering", horizon, "pairwise disjoint images")


def _dyadic_disjoint_images(pmap: PiecewiseMap, lo: float, hi: float, horizon: int):
    """Exact C-avoidance and pairwise disjointness of interval images.

    Image separations shrink exponentially (they accumulate on the Cantor
    attractor), so the comparisons must stay on full mantissas; the float
    projections of genuinely disjoint images coincide.
    """
    from fractions import Fraction

    p = DYADIC_ORBIT_BITS
    coeffs = [
        (dyadic.from_fraction(b.coeffs[0], p), b.coeffs[1]) for b in pmap.branches
    ]
    cuts = [dyadic.from_fraction(c, p) for c in pmap.breakpoints[1:-1]]
    crit = [dyadic.from_fraction(c, p) for c in pmap.critical]
    mlo = dyadic.from_fraction(Fraction(lo), p)
    mhi = dyadic.from_fraction(Fraction(hi), p, round_up=True)
    images: list[tuple[int, int]] = []
    for j in range(horizon):
        if any(mlo <= t <= mhi for t in crit):
            return False, False, j
        idx_lo = sum(1 for t in cuts if mlo > t)
        idx_hi = sum(1 for t in cuts if mhi > t)
        if idx_lo != idx_hi:
            return False, False, j
        b0, slope = coeffs[idx_lo]
        mlo = (mlo * slope.numerator) // slope.denominator + b0
        mhi = -((-mhi * slope.numerator) // slope.denominator) + b0
        if mlo > mhi:
            mlo, mhi = mhi, mlo
        images.append((mlo, mhi))
    images.sort()
    for (alo, ahi), (blo, bhi) in zip(images, images[1:]):
        if ahi >= blo:
            return True, False, horizon
    return True, True, horizon


def _convergent_cycle(pmap, x0, horizon, periodic_attractors, tol=1e-7):
    pts, truncated = _settled_orbit(pmap, x0, horizon)
    if pts is None:
        return None
    if periodic_attractors:
        for att in periodic_attractors:
            target = np.asarray(att.points if hasattr(att, "points") else att)
            if min(abs(float(pts[-1]) - t) for t in target) < tol:
                return tuple(round(float(t), 9) for t in target)
        return None
    for q in range(1, 65):
        if len(pts) <= 2 * q or abs(pts[-1] - pts[-1 - q]) >= 1e-9:
            continue
        cycle = tuple(float(t) for t in pts[-q:])
        if _cycle_attracts(pmap, cycle):
            return tuple(round(t, 9) for t in cycle)
    return None


def _cycle_attracts(pmap, cycle, r=1e-4):
    """Probe whether a candidate cycle actually attracts a neighborhood.

    A contracting map glues nearby orbit segments below float resolution, so
    lag-recurrence alone cannot distinguish an attracting cycle from a
    recurrent non-periodic orbit; a displaced probe must come back."""
    q = len(cycle)
    p0 = cycle[0]
    for sgn in (1.0, -1.0):
        y = min(max(p0 + sgn * r, 1e-12), 1.0 - 1e-12)
        start = abs(y - p0)
        ok = True
        for _ in range(8):
            for _ in range(q):
                try:
                    y = pmap.evaluate(y)
                except Exception:
                    ok = False
                    break
            if not ok:
                break
        if ok and abs(y - p0) < 0.25 * start:
            return True
    return False


def _settled_orbit(pmap, x0, horizon):
    from .orbit_stats import orbit_points

    n = min(max(horizon, 256), 20000)
    pts, truncated = orbit_points(pmap, x0, n)
    if len(pts) < 8:
        return None, truncated
    return pts, truncated


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
    eps_bits = max(1, round(-math.log2(eps)))
    transient = n // 2
    if pmap.dyadic_affine:
        from fractions import Fraction

        omega = dyadic_orbit_cells(pmap, Fraction(mid), n, eps_bits, transient)
        gen_cells = {
            (c, side): dyadic_orbit_cells(
                pmap, pmap.one_sided_limit_exact(cf, side), n, eps_bits, 0
            )
            for cf, c, side in _sides(pmap)
        }
    else:
        omega = omega_limit_estimate(pmap, mid, transient, n, eps).cells
        gen_cells = {}
        for cf, c, side in _sides(pmap):
            v = pmap.one_sided_limit(cf, side)
            gen_cells[(c, side)] = omega_limit_estimate(pmap, v, 0, n, eps).cells
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

    def lap(self, n: int) -> int:
        return self.counts[n - 1]


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
    reachable n_max.
    """
    if n_max < 8:
        raise ValueError("n_max >= 8 required")
    counts = lap_counts(pmap, n_max, domain)
    logc = np.log(counts)
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
                for seg in pmap.interval_image(lo, hi, margin=0.0):
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
        v = pmap.one_sided_limit(c, side)
        from .orbit_stats import birkhoff_envelope

        series = birkhoff_envelope(pmap, _seed_for(pmap, c, side), phi, 1 << 17)
        return OracleResult(
            float(series.averages[-1]), None, method="uniquely ergodic critical orbit"
        )
    if kind == "cycle":
        intervals = attractor.intervals
        table = periodic_orbits(pmap, Q, [phi])
        slack = 2.0 * getattr(attractor, "eps", 1e-9) + 1e-9
        best = None
        trace: dict[int, float] = {}
        running = -math.inf
        for q in range(1, Q + 1):
            for orb in table.of_period(q):
                if not all(
                    any(lo - slack <= p <= hi + slack for lo, hi in intervals)
                    for p in orb.points
                ):
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


def _seed_for(pmap: PiecewiseMap, c: float, side: str):
    """Exact seed for the critical-value orbit when the mapping supports it."""
    from fractions import Fraction

    v = pmap.one_sided_limit_exact(Fraction(c) if not hasattr(c, "denominator") else c, side)
    if pmap.integer_linear or pmap.dyadic_affine:
        return v
    return float(v)
