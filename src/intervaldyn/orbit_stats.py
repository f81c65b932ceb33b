"""Empirical statistics along orbits.

Orbit engines
-------------
Three engines feed the statistics, chosen per map:

* generic maps run in double precision (the default scalar/batch path);
* integer-coefficient piecewise-linear maps (doubling, tent, zigzag3) run
  exactly on rationals p/q.  Double-precision orbits of such maps shed one
  mantissa bit per step and collapse onto 0 within ~50 steps, so long-run
  float statistics would be pure artifact.  Float seeds are moved to the
  nearest p/ORBIT_PRIME, whose orbit cannot hit the critical set and whose
  period exceeds 1e9 steps; Fraction seeds keep their own denominator.
* dyadic-affine contracting maps with big-integer coefficients (the lorenz
  family) run on fixed-point mantissas with bounded truncation.

Statistics are reported at dyadic checkpoints n = 2^k; "tail" quantities
are sup/inf of partial values over the window (n/2, n].
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dyadic
from .branch import BranchSpec
from .catalog import ORBIT_PRIME
from .cells import cell_indices, cells_of_points, ncells
from .errors import ResolutionTooFine
from .maps import ABOVE_ZERO, BELOW_ONE, MINUS, PiecewiseMap, Termination
from .observables import Observable

#: Mantissa precision for dyadic-affine exact orbits (above the lorenz
#: intercept precision, so truncation noise stays below every feature).
DYADIC_ORBIT_BITS = 41000


# ---------------------------------------------------------------------------
# orbit engines


#: The last orbit orbit_points computed: (map, key, result), keyed by
#: x0's type, value and sign (-0.0 == 0.0, but their float orbits differ in
#: sign) and n.
#: The statistics of one orbit (omega, omega*, the Birkhoff envelope) each
#: ask for it in turn; one held orbit serves them all and bounds what is kept.
_last_orbit: tuple | None = None


def orbit_points(pmap: PiecewiseMap, x0, n: int) -> tuple[np.ndarray, bool]:
    """Orbit array x_0..x_n (possibly shorter) plus a truncation flag.

    The array is read-only: the last orbit computed is held and returned
    again for the same map object, the same x0 (type, value and sign) and n.
    """
    global _last_orbit
    key = (type(x0), x0, math.copysign(1.0, x0), n)
    held = _last_orbit
    if held is not None and held[0] is pmap and held[1] == key:
        return held[2]
    held = _last_orbit = None  # drop the held orbit before the next is computed
    pts, truncated = _compute_orbit(pmap, x0, n)
    pts.flags.writeable = False
    _last_orbit = (pmap, key, (pts, truncated))
    return pts, truncated


def _compute_orbit(pmap: PiecewiseMap, x0, n: int) -> tuple[np.ndarray, bool]:
    if pmap.integer_linear:
        if not isinstance(x0, Fraction):
            q = ORBIT_PRIME  # the seed moves to the nearest p/q in (0, 1), as in batch_cells
            x0 = Fraction(min(max(round(float(x0) * q), 1), q - 1), q)
        return _exact_orbit(pmap, x0, n)
    if pmap.dyadic_affine:
        x0 = x0 if isinstance(x0, Fraction) else Fraction(float(x0))
        return _dyadic_orbit(pmap, x0, n, DYADIC_ORBIT_BITS), False
    orb = pmap.iterate_orbit(float(x0), n)
    return orb.points, orb.termination is not Termination.HORIZON


def _linear_tables(pmap: PiecewiseMap, q: int):
    """Slopes ms, scaled intercepts bq = q b, scaled thresholds and exact hits
    of an integer-linear map on the points p/q.

    tq[i] = floor(q t_i) for the interior breakpoints t_i, so p/q lies in
    branch ``idx = bisect_left(tq, p)``, which sends p to ms[idx] p + bq[idx].
    hits[i] = q t_i where that is an integer and -1 otherwise, with a -1 after
    the last, so p/q is the breakpoint right of it exactly when p == hits[idx].
    """
    ms = [int(b.coeffs[1]) for b in pmap.branches]
    bq = [int(b.coeffs[0]) * q for b in pmap.branches]
    cuts = pmap.breakpoints[1:-1]
    tq = [t.numerator * q // t.denominator for t in cuts]
    hits = [p if q % t.denominator == 0 else -1 for p, t in zip(tq, cuts)] + [-1]
    return ms, bq, tq, hits


def _exact_orbit(pmap: PiecewiseMap, x0: Fraction, n: int):
    """Exact orbit of a rational seed p/q under an integer-linear map.

    Follows the orbit convention when the orbit hits a breakpoint exactly:
    pass through where the map is continuous, stop at a discontinuity.
    """
    passes = dict(zip(pmap.critical, pmap.continuity))
    p, q = x0.numerator, x0.denominator
    ms, bq, tq, hits = _linear_tables(pmap, q)
    pts = np.empty(n + 1)
    pts[0] = p / q
    for k in range(n):
        idx = bisect_left(tq, p)
        if p == hits[idx]:
            bp = pmap.breakpoints[idx + 1]
            if not passes.get(bp, True):
                return pts[: k + 1], True
            val = pmap.one_sided_limit_exact(bp, MINUS)
            p, q = val.numerator, val.denominator
            ms, bq, tq, hits = _linear_tables(pmap, q)
        else:
            p = ms[idx] * p + bq[idx]
        pts[k + 1] = p / q
    return pts, False


def _dyadic_orbit(pmap: PiecewiseMap, x0: Fraction, n: int, p: int) -> np.ndarray:
    """Orbit x_0..x_n on mantissas at precision p, each step and each
    point rounded down (``poly_down``, ``to_float``)."""
    cms, cuts = dyadic.branch_table(pmap, p)
    pts = np.empty(n + 1)
    x = dyadic.from_fraction(x0, p)
    pts[0] = dyadic.to_float(x, p)
    for k in range(n):
        x = dyadic.poly_down(cms[bisect_left(cuts, x)], x, p)
        pts[k + 1] = dyadic.to_float(x, p)
    return pts


def dyadic_orbit_cells(pmap: PiecewiseMap, x0: Fraction, n: int, eps_bits: int) -> np.ndarray:
    """Cells at 2^-eps_bits of a dyadic-affine orbit over [0, n]: those of its
    exact mantissas, as each is rounded down to a float and cell bounds are floats."""
    return omega_limit_estimate(pmap, x0, 0, n, 2.0**-eps_bits).cells


# ---------------------------------------------------------------------------
# batch engine

#: Steps per block of the batch engine: its iterates are written into one
#: (BLOCK_STEPS, n_seeds) array and turned into cells a block at a time.
BLOCK_STEPS = 1024

#: Largest supported ``fine_bits``: the exact engine forms
#: ``state << fine_bits`` with state < ORBIT_PRIME < 2**31 in int64.
MAX_FINE_BITS = 32


@dataclass
class BatchCells:
    """Visited-cell masks for a batch of seeds (iterate times 1..n)."""

    fine_bits: int
    window_visited: np.ndarray       # (n_samples, 2**fine_bits) bool over [transient, n]
    counts: np.ndarray | None        # (n_samples, 2**fine_bits) int64 over [1, n]
    final: np.ndarray
    n: int
    transient: int


@dataclass(frozen=True)
class _BranchTable:
    """The float branch expressions of a map, one row per distinct expression.

    Row r evaluates the polynomial ``coeffs[r]`` (low degree first, padded
    with zero leading terms to a common degree, which leaves Horner's
    rounding unchanged) and then ``outer[r]``, the vectorised
    ``offset + sign * phi**exponent`` (None where that is phi itself).
    """

    breaks: np.ndarray               # interior breakpoints
    branch_row: np.ndarray           # row of each branch
    coeffs: np.ndarray               # (rows, degree + 1)
    outer: tuple

    @classmethod
    def of(cls, pmap: PiecewiseMap) -> "_BranchTable":
        rows: dict[tuple, int] = {}
        reps, branch_row = [], []
        for b in pmap.branches:
            key = (b.fcoeffs, b.exponent, b.foffset, b.sign)
            if key not in rows:
                rows[key] = len(reps)
                reps.append(b)
            branch_row.append(rows[key])
        coeffs = np.zeros((len(reps), max(len(b.fcoeffs) for b in reps)))
        for r, b in enumerate(reps):
            coeffs[r, : len(b.fcoeffs)] = b.fcoeffs
        return cls(
            np.asarray(pmap.fbreaks[1:-1]),
            np.asarray(branch_row),
            coeffs,
            tuple(_vector_outer(b) for b in reps),
        )

    def stepper(self):
        """``step(x, out, idx=None)``: out = f(x) in place, rounded as
        ``BranchSpec.value`` up to the sign of a zero.  ``idx`` is each x's
        branch, looked up when None; a one-row table needs neither."""
        if len(self.coeffs) == 1:
            top, *lower = self.coeffs[0][::-1]
            outer = self.outer[0]

            def step(x, out, idx=None):
                np.multiply(x, top, out=out)
                for k, c in enumerate(lower):
                    if k:
                        np.multiply(out, x, out=out)
                    if c:  # adding 0.0 only turns -0.0 into 0.0, which no later step tells apart
                        np.add(out, c, out=out)
                if outer is not None:
                    out[:] = outer(out)

            return step

        top, *lower = [np.ascontiguousarray(col) for col in self.coeffs[self.branch_row].T[::-1]]
        breaks, branch_row = self.breaks, self.branch_row
        special = [(r, f) for r, f in enumerate(self.outer) if f is not None]

        def step(x, out, idx=None):
            if idx is None:
                idx = breaks.searchsorted(x, "left")
            np.multiply(top[idx], x, out=out)
            for k, col in enumerate(lower):
                if k:
                    np.multiply(out, x, out=out)
                np.add(out, col[idx], out=out)
            if special:
                row = branch_row[idx]
                for r, f in special:
                    m = row == r
                    out[m] = f(out[m])

        return step


def _vector_outer(b: BranchSpec):
    """Vectorised ``offset + sign * phi**exponent`` of a branch, or None for phi itself."""
    if b.fexp != 1.0:
        # element by element through the scalar's own power, which numpy's
        # vectorised power does not reproduce bit for bit
        power = np.frompyfunc(b.power_value, 1, 1)
        # a NaN passes on silently, as in value()
        return np.errstate(invalid="ignore")(lambda phi: power(phi).astype(float))
    if b.foffset == 0.0 and b.sign == 1:
        return None
    return lambda phi: b.foffset + b.sign * phi


def batch_cells(
    pmap: PiecewiseMap,
    x0s: np.ndarray,
    n: int,
    transient: int,
    fine_bits: int = 14,
    want_counts: bool = False,
) -> BatchCells:
    """Cell visit masks (and optional counts) for many seeds simultaneously.

    Integer-linear maps run exactly on p/ORBIT_PRIME, all others in double
    precision.  Iterates are produced BLOCK_STEPS steps at a time into one
    preallocated (BLOCK_STEPS, n_seeds) block; cell indices, counts and visit
    masks are then updated once per block.  A float block is stepped
    without the endpoint clamp and stepped again with it only when one of
    its iterates leaves (0, 1).

    Float seeds follow the orbit convention of maps.py, as the scalar engine
    does, except at an iterate within CRITICAL_TOL of a critical point: it
    takes its branch's float value here, not the exact limit.

    Raises, before allocating, ValueError for a seed outside (0, 1) and
    ResolutionTooFine when the masks and counts would not fit in memory.
    """
    if not 0 <= fine_bits <= MAX_FINE_BITS:
        raise ValueError(f"fine_bits must lie in [0, {MAX_FINE_BITS}], got {fine_bits}")
    x0s = np.asarray(x0s, dtype=float)
    outside = ~((x0s > 0.0) & (x0s < 1.0))  # NaN fails both comparisons
    if outside.any():
        raise ValueError(f"seeds must lie in (0, 1), got {float(x0s[outside][0])!r}")
    ns = len(x0s)
    nf = 1 << fine_bits
    need = ns * nf * (9 if want_counts else 1)  # bool masks, plus int64 counts
    memory = _physical_memory()
    if need > memory:
        raise ResolutionTooFine(
            f"{ns} seeds at 2^-{fine_bits} need {need / 2**30:.3g} GiB of cell "
            f"{'masks and counts' if want_counts else 'masks'}, more than the "
            f"{memory / 2**30:.3g} GiB of physical memory"
        )
    visited = np.zeros(ns * nf, dtype=bool)
    counts = np.zeros(ns * nf, dtype=np.int64) if want_counts else None
    offsets = np.arange(ns, dtype=np.int64) * nf

    exact = pmap.integer_linear
    q = ORBIT_PRIME
    block = min(BLOCK_STEPS, n)
    # row 0 carries the state into the block, rows 1..block receive its iterates
    states = np.empty((block + 1, ns), dtype=np.int64 if exact else float)
    if exact:
        states[0] = np.clip(np.round(x0s * q).astype(np.int64), 1, q - 1)
        ms, bq, tq = (np.asarray(t, dtype=np.int64) for t in _linear_tables(pmap, q)[:3])

        def raw(p, out):  # out = q f(p/q), in place
            idx = tq.searchsorted(p, "left")  # p > tq[i]  <=>  x > threshold_i
            np.multiply(ms[idx], p, out=out)
            np.add(out, bq[idx], out=out)
    else:
        states[0] = x0s
        raw = _BranchTable.of(pmap).stepper()
        mask = np.empty(ns, dtype=bool)
    rows = list(states)
    cells = np.empty((block, ns), dtype=np.int64)

    step = 0  # iterates produced
    while step < n:
        size = min(block, n - step)
        for j in range(size):
            raw(rows[j], rows[j + 1])
        iterates, ev = states[1 : size + 1], cells[:size]
        if exact:
            np.left_shift(iterates, fine_bits, out=ev)
            np.floor_divide(ev, q, out=ev)
        else:
            # where every iterate lies in (0, 1) the clamp would change none
            # of them; otherwise (an endpoint hit, an overshoot, or a NaN,
            # which fails both comparisons) the block is stepped again with it
            if not (iterates.max() < 1.0 and iterates.min() > 0.0):
                for x, y in zip(rows[:size], rows[1 : size + 1]):
                    raw(x, y)
                    # the orbit convention of maps.py for values that round onto
                    # or past 0 or 1: no double lies between BELOW_ONE and 1, so
                    # these three calls move them to BELOW_ONE and ABOVE_ZERO
                    np.minimum(y, BELOW_ONE, out=y)
                    np.less_equal(y, 0.0, out=mask)
                    np.copyto(y, ABOVE_ZERO, where=mask)
            np.multiply(iterates, nf, out=ev, casting="unsafe")
            np.minimum(ev, nf - 1, out=ev)
        ev += offsets
        ev = ev.ravel()
        if want_counts:
            np.add.at(counts, ev, 1)
        t0 = max(transient, step + 1)
        step += size
        if step >= t0:
            visited[ev[(t0 - (step - size + 1)) * ns :]] = True
        states[0] = states[size]
    final = states[0] / q if exact else states[0].copy()
    return BatchCells(
        fine_bits,
        visited.reshape(ns, nf),
        counts.reshape(ns, nf) if counts is not None else None,
        final,
        n,
        transient,
    )


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the system does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


# ---------------------------------------------------------------------------
# series types


@dataclass
class BirkhoffSeries:
    """Partial Birkhoff averages on the dyadic checkpoint grid.

    ``env_sup``/``env_inf`` are sup/inf of S_m/m over (checkpoint/2, checkpoint].
    """

    observable: str
    checkpoints: np.ndarray
    averages: np.ndarray
    env_sup: np.ndarray
    env_inf: np.ndarray
    truncated: bool = False

    def gap(self) -> float:
        return float(self.env_sup[-1] - self.env_inf[-1])


@dataclass
class FrequencySeries:
    checkpoints: np.ndarray
    frequencies: np.ndarray
    tail_max: float
    truncated: bool = False


@dataclass
class CellEstimate:
    cells: np.ndarray
    eps: float
    truncated: bool = False


@dataclass
class HistoricVerdict:
    historic: bool
    gap: float
    gap_tol: float
    horizon: int
    series: BirkhoffSeries


@dataclass
class EmpiricalMeasure:
    eps: float
    weights: np.ndarray
    sample_length: int

    def __post_init__(self):
        total = float(self.weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")
        nc = ncells(self.eps)
        if np.flatnonzero(self.weights).size and np.flatnonzero(self.weights).max() >= nc:
            raise ValueError("positive weight outside the cell range")


def _checkpoints(n: int) -> np.ndarray:
    ks = [1 << k for k in range(0, max(1, n).bit_length()) if (1 << k) <= n]
    if not ks or ks[-1] != n:
        ks.append(n)
    return np.asarray(ks, dtype=np.int64)


def series_from_values(
    values: np.ndarray, observable: str, truncated: bool = False
) -> BirkhoffSeries:
    """Birkhoff series of phi-values along an orbit (values[j] = phi(x_j))."""
    n = len(values)
    if n == 0:
        raise ValueError("empty orbit")
    csum = np.cumsum(values)
    partial = csum / np.arange(1, n + 1, dtype=float)
    cps = _checkpoints(n)
    avgs = partial[cps - 1]
    sup = np.empty(len(cps))
    inf = np.empty(len(cps))
    for i, cp in enumerate(cps):
        window = partial[cp // 2 : cp]
        sup[i] = window.max()
        inf[i] = window.min()
    return BirkhoffSeries(observable, cps, avgs, sup, inf, truncated)


# ---------------------------------------------------------------------------
# operations


def visiting_frequency(pmap: PiecewiseMap, x0, V, n: int) -> FrequencySeries:
    """Frequency of orbit time spent in V (an interval or a finite union).

    Membership convention is half-open [lo, hi), so V and its complement
    partition [0,1] exactly.  Returns the dyadic-checkpoint series and the
    tail-window maximum as the upper estimate of the limsup frequency.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    return _frequency_series(*_sample(pmap, x0, n), V)


def _sample(pmap: PiecewiseMap, x0, n: int) -> tuple[np.ndarray, bool]:
    """The orbit points x_0..x_{n-1} that time averages run over (fewer if truncated)."""
    pts, truncated = orbit_points(pmap, x0, n)
    return (pts[: max(1, len(pts) - 1)] if len(pts) > n else pts), truncated


def _frequency_series(pts: np.ndarray, truncated: bool, V) -> FrequencySeries:
    member = np.zeros(len(pts), dtype=float)
    for lo, hi in _as_intervals(V):
        member += ((pts >= lo) & (pts < hi)).astype(float)
    np.clip(member, 0.0, 1.0, out=member)
    series = series_from_values(member, "indicator", truncated)
    return FrequencySeries(
        series.checkpoints, series.averages, float(series.env_sup[-1]), truncated
    )


def _as_intervals(V):
    if isinstance(V, tuple) and len(V) == 2 and np.isscalar(V[0]):
        return [V]
    return list(V)


def omega_limit_estimate(
    pmap: PiecewiseMap, x0, n_transient: int, n: int, eps: float
) -> CellEstimate:
    """Cells visited by the orbit segment [n_transient, n]: an outer estimate
    of the omega-limit set at resolution eps (over-approximates by transient
    visits, under-approximates by unvisited rare cells)."""
    if not 0 <= n_transient <= n:
        raise ValueError("need n >= n_transient >= 0")
    pts, truncated = orbit_points(pmap, x0, n)
    if len(pts) <= n_transient:
        return CellEstimate(np.empty(0, dtype=np.int64), eps, True)
    return CellEstimate(cells_of_points(pts[n_transient:], eps), eps, truncated)


def statistical_omega_estimate(
    pmap: PiecewiseMap, x0, n: int, eps: float, theta: float | None = None
) -> CellEstimate:
    """Cells whose visit frequency over [0, n] exceeds theta (default 1/sqrt(n))."""
    if theta is None:
        theta = 1.0 / math.sqrt(n)
    if theta <= 0:
        raise ValueError("theta must be positive")
    pts, truncated = orbit_points(pmap, x0, n)
    counts = np.bincount(cell_indices(pts, eps), minlength=ncells(eps))
    cells = np.flatnonzero(counts / len(pts) > theta).astype(np.int64)
    return CellEstimate(cells, eps, truncated)


def birkhoff_envelope(pmap: PiecewiseMap, x0, phi: Observable, n: int) -> BirkhoffSeries:
    pts, truncated = _sample(pmap, x0, n)
    return series_from_values(phi(pts), phi.name, truncated)


def detect_historic(
    pmap: PiecewiseMap, x0, phi: Observable, n: int, gap_tol: float
) -> HistoricVerdict:
    """Horizon-relative historic-behavior verdict.

    Historic iff the final tail envelope gap exceeds gap_tol and the gap has
    not decayed monotonically over the last three checkpoints.
    """
    if gap_tol <= 0:
        raise ValueError("gap_tol must be positive")
    series = birkhoff_envelope(pmap, x0, phi, n)
    gaps = series.env_sup - series.env_inf
    gap = float(gaps[-1])
    decaying = len(gaps) >= 3 and gaps[-1] < gaps[-2] < gaps[-3]
    return HistoricVerdict(
        historic=bool(gap > gap_tol and not decaying),
        gap=gap,
        gap_tol=gap_tol,
        horizon=int(series.checkpoints[-1]),
        series=series,
    )


def empirical_measure(pmap: PiecewiseMap, x0, n: int, eps: float) -> EmpiricalMeasure:
    pts, _ = orbit_points(pmap, x0, n)
    counts = np.bincount(cell_indices(pts, eps), minlength=ncells(eps)).astype(float)
    return EmpiricalMeasure(eps, counts / len(pts), len(pts))


def stats_csv(pmap: PiecewiseMap, x0, phi: Observable, V_list, n: int) -> str:
    """One row per dyadic checkpoint: average, tail envelope, V-frequencies."""
    if V_list and n < 1:
        raise ValueError("n >= 1 required")
    pts, truncated = _sample(pmap, x0, n)
    series = series_from_values(phi(pts), phi.name, truncated)
    freq_series = [_frequency_series(pts, truncated, V) for V in V_list]
    header = ["n", "average", "tail_sup", "tail_inf"] + [
        f"freq_V{i}" for i in range(len(V_list))
    ]
    lines = [",".join(header)]
    for i, cp in enumerate(series.checkpoints):
        row = [
            str(int(cp)),
            f"{series.averages[i]:.17g}",
            f"{series.env_sup[i]:.17g}",
            f"{series.env_inf[i]:.17g}",
        ]
        for fs in freq_series:
            row.append(f"{fs.frequencies[i]:.17g}" if i < len(fs.frequencies) else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
