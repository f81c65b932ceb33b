"""Constructed witness points for generic statistical behavior.

A witness is built as a *covering chain* of dyadic intervals V_0, V_1, ...
with f(V_j) >= V_{j+1} certified: connections steer the chain into a small
ball around a target periodic orbit, shadow phases hold it there (the balls
re-cover themselves under the expanding dynamics, so the chain never
thins), and phase lengths grow so each phase dominates all previous history.
Pulling the final interval back through the recorded branch word yields a
nested interval J_K whose every point realizes the planned partial-average
swings; propagating J_K forward with outward rounding then *re-certifies*
the envelope independently of the pullback arithmetic.

Precision: the chain starts at CHAIN_BITS and doubles when a phase needs a
finer ball floor.  The pullback and the certification pass need precision
proportional to the accumulated expansion.  The pullback raises its
precision with the backward contraction and returns the precision it used
at each step.  The forward pass starts at the largest of these and then
follows the schedule down: step j runs at the larger of the precisions of
steps j and j + 1, and surplus bits are shed in chunks of at least
SHED_BITS, flooring lo and ceiling hi.  Both round outward, so the interval
stays an enclosure whatever the schedule; a schedule that is too low can
only widen it, until it straddles the critical set and the pass raises
EnvelopeViolation instead of certifying a looser envelope.  Double
precision would die after ~50 steps.

At each precision the arithmetic skips work that the bits do not need, and
every mantissa stays the one that plain arithmetic would give.  The
pullback takes a square root by one Newton step off the last root when that
step is close enough to finish exactly (``_BranchArith.isqrt``), and calls
``math.isqrt`` otherwise.  The chain builds each shadow ball once per
precision and floor, and reuses the value at an end it was clipped to.  The
forward pass bounds phi by exact integer evaluations at the interval's two
float ends (``Observable.bounds``), rounded outward, and the cumulative
averages are rounded outward from exact integer sums (``_sum_scaled``).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import isqrt

import numpy as np

from . import dyadic
from .branch import DECREASING
from .cells import cell_of
from .decomposition import grid_graph
from .errors import EnvelopeViolation, NotClassified, ShadowingFailed
from .maps import PiecewiseMap
from .observables import Observable
from .orbit_stats import BirkhoffSeries, _checkpoints, _dyadic_orbit, series_from_values
from .structure import birkhoff_max_oracle, strong_transitivity_check

CHAIN_BITS = 320
SHADOW_EPS = 1e-3
DOMINANCE = 4.0
CONN_BUDGET = 512
SHED_BITS = 64  # the forward pass drops surplus precision in chunks of at least this
STEER_EPS = 2.0**-8  # cell width of the graph that steers connections


def _frac_hex(fr: Fraction) -> str:
    """Exact 'hexnum/hexden' encoding (decimal overflows str-conversion limits)."""
    return f"{fr.numerator:#x}/{fr.denominator:#x}"


def frac_from_hex(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num, 16), int(den, 16))


# ---------------------------------------------------------------------------
# mantissa branch arithmetic


class _BranchArith:
    """Directed-rounding evaluation and inversion of a polynomial branch."""

    def __init__(self, branch):
        if not branch.plain_polynomial or len(branch.coeffs) > 3:
            raise NotClassified(
                "witness construction supports plain polynomial branches of degree <= 2"
            )
        self.coeffs = branch.coeffs
        self.mono = branch.monotonicity
        # the coefficients over their common denominator L: A_k = L a_k
        self.den = math.lcm(*(v.denominator for v in self.coeffs))
        self.scaled = tuple(int(v * self.den) for v in self.coeffs)
        self._root = None  # (p, s, s * s) of the last square root taken
        self._inner = [(None, 0), (None, 0)]  # ((p, x), value) of image_inner's last ends

    def image_inner(self, lo, hi, p, cm):
        """Interval certainly contained in the branch image of [lo, hi].

        ``cm`` is the branch's row of ``dyadic.branch_table`` at p.  Its ends
        are those of ``dyadic.image_outer`` swapped and moved in by 2 units:
        the upper bound of the end that maps lowest and the lower bound of the
        other.  An end equal to the last one evaluated at the same precision
        reuses its value: in a shadow phase next to a repelling fixed point
        the chain is clipped to the same ball edge at every step.
        """
        a, b = (lo, hi) if self.mono == "increasing" else (hi, lo)
        up, down = self._inner
        if up[0] != (p, a):
            up = self._inner[0] = ((p, a), dyadic.poly_up(cm, a, p) + len(cm) + 2)
        if down[0] != (p, b):
            down = self._inner[1] = ((p, b), dyadic.poly_down(cm, b, p) - len(cm) - 2)
        return up[1], down[1]

    def isqrt(self, n, p):
        """``math.isqrt(n)`` for a discriminant n at precision p, by one Newton
        step off the last root when that step lands within a few units.

        Successive discriminants are often close multiples of 4^p: the two
        ends of one pullback step, and the ends of steps near a fixed point.
        The last root s, shifted to precision p, and s^2, known from the last
        remainder, give t = s + q with q = (n - s^2) // (2 s), the floor of
        (s + n / s) / 2 >= sqrt(n).  When q has fewer than about half the
        bits of s, t exceeds the root by a few units at most (Brent and
        Zimmermann, Modern Computer Arithmetic, 2010, 1.5), and
        n - t^2 = (n - s^2) - 2 s q - q^2 needs no squaring, so unit steps
        down on it make t exact.  Otherwise, as after a fall in precision,
        it calls ``math.isqrt``.
        """
        last = self._root
        if last is not None and last[0] <= p and last[1] and n:
            d = p - last[0]
            s, s2 = last[1] << d, last[2] << (2 * d)
            e = n - s2
            if 2 * (e.bit_length() - s.bit_length()) < s.bit_length():
                q = e // (s << 1)
                t = s + q
                r = e - ((s * q) << 1) - q * q  # n - t^2
                while r < 0:
                    r += 2 * t - 1
                    t -= 1
                self._root = (p, t, n - r)
                return t
        t = isqrt(n)
        self._root = (p, t, t * t)
        return t

    def inverse_inner(self, ylo, yhi, p):
        """Interval certainly inside the branch preimage of [ylo, yhi]."""
        c = self.coeffs
        if len(c) == 2:
            a0 = dyadic.from_fraction(c[0], p)
            num, den = c[1].numerator, c[1].denominator
            # x = (y - a0) * den / num, directed inward
            if num > 0:
                xlo = -((-(ylo - a0) * den) // num) + 1
                xhi = ((yhi - a0) * den) // num - 1
            else:
                xlo = -((-(yhi - a0) * den) // num) + 1
                xhi = ((ylo - a0) * den) // num - 1
            return (xlo, xhi) if xlo <= xhi else None
        # a2 x^2 + a1 x + a0 = y for x = X / 2^p, y = Y / 2^p.  Scaled by the
        # common denominator L of the coefficients (A_k = L a_k), the
        # discriminant N = (A1 2^p)^2 - 4 A2 (A0 2^p - L Y) 2^p is an exact
        # integer and sq = L floor(sqrt(N) / L) is exact up to L, so a root
        # floor((-A1 2^p +- sq) / (2 A2)) is within 1 + 1 / (2 |a2|) ulps of
        # the exact one.  When every a_k 2^p is an integer this is the
        # mantissa formula ((-a1m +- isqrt(disc)) << p) // (2 a2m) bit for bit.
        den = self.den
        A0, A1, A2 = self.scaled
        b, a0s = A1 << p, A0 << p
        b2 = (A1 * A1) << (2 * p)  # b * b without a p-by-p multiplication
        # the lower end first: the upper end's root is seeded from its root
        sqs = [
            den * (self.isqrt(max(b2 - 4 * A2 * ((a0s - den * y) << p), 0), p) // den)
            for y in (ylo, yhi)
        ]
        # f'(x) = 2 a2 x + a1 = +-sqrt(disc) at the root (-a1 +- sqrt(disc)) / (2 a2),
        # so the branch's monotonicity picks the sign: one sign for both ends,
        # on the branch's side of the vertex
        sign = 1 if self.mono == "increasing" else -1
        roots = [(-b + sign * sq) // (2 * A2) for sq in sqs]
        slack = 2 + math.ceil(1 / (2 * abs(c[2])))  # inward, covers the root error
        xlo, xhi = min(roots) + slack, max(roots) - slack
        return (xlo, xhi) if xlo <= xhi else None


# ---------------------------------------------------------------------------
# plan and witness types


@dataclass
class PhaseMark:
    """Certified partial-average bounds at the end of a phase."""

    time: int
    label: str
    avg_lo: float
    avg_hi: float


@dataclass
class StageRecord:
    index: int
    hi_length: int
    lo_length: int
    interval: tuple[Fraction, Fraction]
    delta: float
    marks: list[PhaseMark]


@dataclass
class NestedWitness:
    map_name: str
    observable: str
    stages: list[StageRecord]
    total_steps: int
    precision_bits: int
    envelope_times: np.ndarray
    envelope_lo: np.ndarray
    envelope_hi: np.ndarray
    plan: list[dict]
    certified_sup: float
    certified_inf: float
    single_phase: bool = False

    @property
    def final_interval(self) -> tuple[Fraction, Fraction]:
        return self.stages[-1].interval

    def midpoint(self) -> Fraction:
        lo, hi = self.final_interval
        return (lo + hi) / 2

    def envelope_gap(self) -> float:
        return self.certified_sup - self.certified_inf

    def to_json(self) -> str:
        doc = {
            "schema": 1,
            "map": self.map_name,
            "observable": self.observable,
            "total_steps": self.total_steps,
            "precision_bits": self.precision_bits,
            "single_phase": self.single_phase,
            "certified_sup": self.certified_sup,
            "certified_inf": self.certified_inf,
            "plan": self.plan,
            "stages": [
                {
                    "index": s.index,
                    "hi_length": s.hi_length,
                    "lo_length": s.lo_length,
                    "delta": s.delta,
                    "interval": [_frac_hex(s.interval[0]), _frac_hex(s.interval[1])],
                    "marks": [
                        [m.time, m.label, m.avg_lo, m.avg_hi] for m in s.marks
                    ],
                }
                for s in self.stages
            ],
            "envelope": [
                [int(t), float(lo), float(hi)]
                for t, lo, hi in zip(self.envelope_times, self.envelope_lo, self.envelope_hi)
            ],
        }
        return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# chain builder


class _ChainBuilder:
    def __init__(self, pmap: PiecewiseMap):
        self.pmap = pmap
        self.p = CHAIN_BITS
        self.arith = [_BranchArith(b) for b in pmap.branches]
        self.cm, self.cuts = dyadic.branch_table(pmap, self.p)
        self.branch_word: list[int] = []
        self.slope_log2: list[float] = []
        self.floor_bits = 48
        self.max_slope_bits = max(
            math.log2(max(abs(b.derivative(0.5 * (b.flo + b.fhi))), abs(b.derivative(b.flo + 1e-9)), abs(b.derivative(b.fhi - 1e-9)), 1.001))
            for b in pmap.branches
        )
        self.lo = dyadic.from_fraction(Fraction(1, 4), self.p)
        self.hi = dyadic.from_fraction(Fraction(1, 3), self.p)
        self.time = 0
        self._steer = {}
        self._balls = {}  # (center, r, p, floor_bits) -> the ball's mantissas

    # -- primitives --------------------------------------------------------

    def _ensure_precision(self):
        # shadow phases at repelling orbits thin the chain exponentially;
        # double the working precision whenever the width nears the ulp scale
        if self.hi - self.lo < (1 << max(self.p - 128, 8)):
            self._grow_to(2 * self.p)

    def _advance(self, idx, constraint=None):
        """One chain step through branch idx, optionally meeting a constraint."""
        a = self.arith[idx]
        ilo, ihi = a.image_inner(self.lo, self.hi, self.p, self.cm[idx])
        if constraint is not None:
            ilo = max(ilo, constraint[0])
            ihi = min(ihi, constraint[1])
        if ilo > ihi:
            raise ShadowingFailed(
                f"chain emptied at step {self.time} (constraint too tight)"
            )
        mid = 0.5 * (dyadic.to_float(self.lo, self.p) + dyadic.to_float(self.hi, self.p))
        d = abs(self.pmap.branches[idx].derivative(mid))
        self.slope_log2.append(math.log2(max(d, 1e-9)))
        self.branch_word.append(idx)
        self.lo, self.hi = ilo, ihi
        self.time += 1

    def _ball(self, center: float, r: float):
        # balls near the endpoints are floored a phase-dependent hair inside
        # (0,1): holding L steps next to a repelling fixed point needs room
        # for the chain's edge to expand out of r * 4^-L
        key = (center, r, self.p, self.floor_bits)
        if key not in self._balls:
            tiny = 1 << max(self.p - self.floor_bits, 4)
            lo = dyadic.from_fraction(Fraction(max(center - r, 0.0)), self.p)
            hi = dyadic.from_fraction(Fraction(min(center + r, 1.0)), self.p, round_up=True)
            self._balls[key] = max(lo, tiny), min(hi, (1 << self.p) - tiny)
        return self._balls[key]

    def _grow_to(self, pmin: int):
        while self.p < pmin:
            shift = self.p
            self.p *= 2
            self.lo <<= shift
            self.hi <<= shift
            self.cm, self.cuts = dyadic.branch_table(self.pmap, self.p)

    def plan_phase(self, length: int):
        """Reserve precision and the ball floor for a phase of known length
        at the steepest slope."""
        self.floor_bits = int(self.max_slope_bits * length) + 64
        self._grow_to(self.floor_bits + 256)

    # -- phases --------------------------------------------------------------

    def seed(self, x: float, w: float):
        self.lo = dyadic.from_fraction(Fraction(max(x - w, 0.0)), self.p)
        self.hi = dyadic.from_fraction(Fraction(min(x + w, 1.0)), self.p, round_up=True)

    def connect(self, target: float, r: float) -> int:
        """Expand and steer, for at most CONN_BUDGET steps, until the chain
        interval covers B(target, r)."""
        dist = self._steer_distances(target)
        for k in range(CONN_BUDGET):
            self._ensure_precision()
            ball = self._ball(target, r)
            if self.lo <= ball[0] and self.hi >= ball[1]:
                self.lo, self.hi = ball
                return k
            idx = dyadic.branch_of(self.cuts, self.lo, self.hi)
            if idx is not None:
                self._advance(idx)
                continue
            # straddles a breakpoint: pick a side (steered by grid distance)
            best = None
            inside = self.cuts[bisect_left(self.cuts, self.lo) : bisect_right(self.cuts, self.hi)]
            for t in inside:
                for side_lo, side_hi in ((self.lo, t), (t, self.hi)):
                    if side_hi - side_lo <= 0:
                        continue
                    m = dyadic.to_float((side_lo + side_hi) // 2, self.p)
                    w = dyadic.to_float(side_hi - side_lo, self.p)
                    score = (dist[cell_of(m, STEER_EPS)], -w)
                    if best is None or score < best[0]:
                        best = (score, side_lo, side_hi)
            if best is None:
                raise ShadowingFailed("no viable side at a breakpoint straddle")
            _, self.lo, self.hi = best
            idx = dyadic.branch_of(self.cuts, self.lo, self.hi)
            if idx is None:
                # nudge inward off the cut
                w = self.hi - self.lo
                self.lo += w >> 4
                self.hi -= w >> 4
                idx = dyadic.branch_of(self.cuts, self.lo, self.hi)
                if idx is None:
                    raise ShadowingFailed("interval pinned on a breakpoint")
            self._advance(idx)
        raise ShadowingFailed(
            f"connection to {target:.6g} not found within {CONN_BUDGET} steps"
        )

    def _steer_distances(self, target: float) -> np.ndarray:
        key = round(target, 9)
        if key not in self._steer:
            gd = grid_graph(self.pmap, STEER_EPS)
            dist = gd.distances_to([cell_of(target, STEER_EPS)])
            dist[dist < 0] = 1 << 30
            self._steer[key] = dist
        return self._steer[key]

    def shadow(self, orbit: tuple[float, ...], length: int, r: float):
        """Hold the chain inside moving balls around the target orbit.

        Assumes the chain currently covers B(orbit[0], r) (connect ends so).
        """
        q = len(orbit)
        for j in range(length):
            self._ensure_precision()
            nxt = orbit[(j + 1) % q]
            idx = dyadic.branch_of(self.cuts, self.lo, self.hi)
            if idx is None:
                raise ShadowingFailed(
                    f"shadow ball at {orbit[j % q]:.6g} straddles a breakpoint"
                )
            self._advance(idx, constraint=self._ball(nxt, r))

    def interval(self) -> tuple[Fraction, Fraction]:
        return dyadic.to_fraction(self.lo, self.p), dyadic.to_fraction(self.hi, self.p)

    def trim_center(self):
        cut = (self.hi - self.lo) >> 2  # keep the centered half
        self.lo += cut
        self.hi -= cut


# ---------------------------------------------------------------------------
# pullback and certification


def _pullback(pmap, branch_word, target_lo: Fraction, target_hi: Fraction, slopes):
    """Nested interval in the time-0 fiber of the chain (inner rounding).

    Precision grows with the accumulated backward contraction.  Returns the
    interval's endpoints and the precision schedule: ``bits[j]`` is the
    precision of the interval at time j, so ``bits[0]`` is the full working
    precision and ``bits[-1]`` that of the target.
    """
    ariths = [_BranchArith(b) for b in pmap.branches]
    suffix = np.concatenate([np.cumsum(slopes[::-1])[::-1], [0.0]])
    width = target_hi - target_lo
    if width <= 0:
        raise EnvelopeViolation("empty pullback target")
    width_bits = max(0, width.denominator.bit_length() - width.numerator.bit_length())
    base = width_bits + 128
    p = base
    bits = [base] * (len(branch_word) + 1)
    ylo = dyadic.from_fraction(target_lo, p)
    yhi = dyadic.from_fraction(target_hi, p, round_up=True)
    for j in range(len(branch_word) - 1, -1, -1):
        need = max(0, int(suffix[j])) + base
        if need > p:
            shift = need - p
            ylo <<= shift
            yhi <<= shift
            p = need
        res = ariths[branch_word[j]].inverse_inner(ylo, yhi, p)
        if res is None:
            raise EnvelopeViolation(f"pullback emptied at step {j}")
        ylo, yhi = res
        bits[j] = p
    return dyadic.to_fraction(ylo, p), dyadic.to_fraction(yhi, p), bits


def _certify_forward(pmap, phi, j_lo: Fraction, j_hi: Fraction, bits):
    """Outward interval propagation of [j_lo, j_hi]; per-step phi bounds.

    Independent of the pullback arithmetic: this is the envelope's source
    of truth.  Raises if the interval ever straddles the critical set.

    ``bits`` is the pullback's precision schedule; the propagation runs
    ``len(bits) - 1`` steps.  Step j needs no more than the larger of
    ``bits[j]`` and ``bits[j + 1]`` (the second covers a step that
    contracts its image near a critical point), and surplus bits are shed
    in chunks of at least SHED_BITS by rounding lo down and hi up.  A
    schedule that is too low can only widen the interval, until it
    straddles C and raises.
    """
    n = len(bits) - 1
    p = bits[0]
    decreasing = [b.monotonicity == DECREASING for b in pmap.branches]
    cms, cuts = dyadic.branch_table(pmap, p)
    lo = dyadic.from_fraction(j_lo, p)
    hi = dyadic.from_fraction(j_hi, p, round_up=True)
    phi_lo = np.empty(n)
    phi_hi = np.empty(n)
    for j in range(n):
        s = p - max(bits[j], bits[j + 1])
        if s >= SHED_BITS:
            lo >>= s
            hi = -((-hi) >> s)
            p -= s
            cms, cuts = dyadic.branch_table(pmap, p)
        flo = max(dyadic.to_float(lo, p), 0.0)
        fhi = min(dyadic.to_float_up(hi, p), 1.0)
        phi_lo[j], phi_hi[j] = phi.bounds(flo, max(fhi, flo))
        idx = dyadic.branch_of(cuts, lo, hi)
        if idx is None:
            raise EnvelopeViolation(f"certified interval straddles C at step {j}")
        lo, hi = dyadic.image_outer(cms[idx], decreasing[idx], lo, hi, p)
    return phi_lo, phi_hi


def _sum_scaled(values: np.ndarray, round_up: bool = False) -> np.ndarray:
    """Directed cumulative averages: each value times 2^53 rounded down (up)
    to an integer, summed exactly, and each sum over (i + 1) 2^53 rounded
    down (up) to a double."""
    rounded = math.ceil if round_up else math.floor
    sums = accumulate(rounded(v * (1 << 53)) for v in values)
    return np.array(
        [dyadic.quotient_float(acc, (i + 1) << 53, round_up) for i, acc in enumerate(sums)], dtype=float
    )


# ---------------------------------------------------------------------------
# public constructions


def construct_historic_point(
    pmap: PiecewiseMap,
    cycle_intervals,
    phi: Observable,
    orbit_hi,
    orbit_lo,
    stages: int = 2,
    check_transitivity: bool = True,
    _single_phase: bool = False,
) -> NestedWitness:
    """Witness whose partial Birkhoff averages provably swing between the
    two orbit means, phase lengths dominating all previous history.

    ``orbit_hi``/``orbit_lo`` are periodic orbits inside the cycle (points
    tuples); their phi-means must differ.
    """
    hi_pts = tuple(float(x) for x in orbit_hi)
    lo_pts = tuple(float(x) for x in orbit_lo)
    m_hi = float(np.mean(phi(np.asarray(hi_pts))))
    m_lo = float(np.mean(phi(np.asarray(lo_pts))))
    if not _single_phase and m_hi <= m_lo:
        raise ValueError(f"orbit means must separate: {m_hi} <= {m_lo}")
    for pts in (hi_pts, lo_pts):
        for x in pts:
            if not any(lo - 1e-9 <= x <= hi + 1e-9 for lo, hi in cycle_intervals):
                raise ValueError(f"target orbit point {x} outside the cycle")
    r = SHADOW_EPS
    for pts in (hi_pts, lo_pts):
        for x in pts:
            d = min(abs(x - c) for c in pmap.fcritical)
            r = min(r, max(d / 4.0, 1e-6))
    if check_transitivity:
        probe_c = hi_pts[0]
        rep = strong_transitivity_check(
            pmap, list(cycle_intervals), [(probe_c - r, probe_c + r)], 80, 2.0**-9
        )
        if not rep.passed:
            raise ValueError("cycle support failed the strong-transitivity check")

    builder = _ChainBuilder(pmap)
    span = cycle_intervals[0][1] - cycle_intervals[0][0]
    x_seed = cycle_intervals[0][0] + 0.37 * span
    builder.seed(x_seed, r / 2)
    if stages == 0:
        # no refinement: the envelope is the trivial observable range
        glo, ghi = phi.range_global()
        return NestedWitness(
            pmap.name,
            phi.name,
            [StageRecord(0, 0, 0, builder.interval(), float(ghi - glo), [])],
            1,
            builder.p,
            np.asarray([1], dtype=np.int64),
            np.asarray([glo]),
            np.asarray([ghi]),
            [],
            float(ghi),
            float(glo),
            single_phase=_single_phase,
        )
    plan: list[dict] = []
    marks_all: list[PhaseMark] = []
    stage_records: list[StageRecord] = []
    phase_ends: list[tuple[int, str]] = []

    def run_phase(orbit_pts, label):
        # reserve the ball floor for the worst-case phase length before the
        # connection pins the chain bottom at the current floor
        worst = int(math.ceil(DOMINANCE * (builder.time + CONN_BUDGET))) + 16
        builder.plan_phase(worst)
        steps = builder.connect(orbit_pts[0], r)
        length = max(int(math.ceil(DOMINANCE * builder.time)), 16)
        builder.shadow(orbit_pts, length, r)
        plan.append(
            {"phase": label, "connect": steps, "shadow": length, "end": builder.time}
        )
        phase_ends.append((builder.time, label))
        return length

    stage_meta = []
    for k in range(1, stages + 1):
        t_start = builder.time
        hi_len = run_phase(hi_pts, f"hi{k}")
        lo_len = run_phase(lo_pts, f"lo{k}") if not _single_phase else 0
        builder.trim_center()
        stage_meta.append((k, hi_len, lo_len, builder.time, t_start, builder.interval()))

    total = builder.time
    word = builder.branch_word
    slopes = np.asarray(builder.slope_log2)
    j_lo, j_hi, bits = _pullback(pmap, word, *builder.interval(), slopes)
    p_full = bits[0]
    phi_lo, phi_hi = _certify_forward(pmap, phi, j_lo, j_hi, bits)
    avg_lo = _sum_scaled(phi_lo)
    avg_hi = _sum_scaled(phi_hi, round_up=True)

    for t, label in phase_ends:
        marks_all.append(PhaseMark(t, label, float(avg_lo[t - 1]), float(avg_hi[t - 1])))

    rng_phi = max(phi_hi) - min(phi_lo)
    for k, hi_len, lo_len, t_end, t_start, snapshot in stage_meta:
        if t_end == total:
            s_lo, s_hi = j_lo, j_hi
        else:
            s_lo, s_hi, _ = _pullback(
                pmap, word[:t_end], snapshot[0], snapshot[1], slopes[:t_end]
            )
        delta = 2 * r * phi.lipschitz() + rng_phi * max(t_start, 1) / max(hi_len, 1)
        stage_records.append(
            StageRecord(
                k,
                hi_len,
                lo_len,
                (s_lo, s_hi),
                float(delta),
                [m for m in marks_all if m.time <= t_end],
            )
        )

    hi_marks = [m.avg_lo for m in marks_all if m.label.startswith("hi")]
    lo_marks = [m.avg_hi for m in marks_all if m.label.startswith("lo")]
    certified_sup = max(hi_marks) if hi_marks else float(avg_lo[-1])
    certified_inf = min(lo_marks) if lo_marks else float(avg_hi[-1])

    times = _checkpoints(total)[1:]
    return NestedWitness(
        pmap.name,
        phi.name,
        stage_records,
        total,
        p_full,
        times,
        avg_lo[times - 1],
        avg_hi[times - 1],
        plan,
        certified_sup,
        certified_inf,
        single_phase=_single_phase,
    )


def construct_max_average_point(
    pmap: PiecewiseMap,
    attractor,
    phi: Observable,
    Q: int = 12,
    stages: int = 3,
) -> tuple[NestedWitness, float]:
    """Witness whose certified average approaches the Birkhoff maximum a_j(Q).

    Requires a cycle-of-intervals attractor; every phase targets the argmax
    orbit, so the envelope pins the full average.
    """
    if getattr(attractor, "kind", None) != "cycle":
        raise NotClassified("construction requires a cycle-of-intervals attractor")
    oracle = birkhoff_max_oracle(pmap, attractor, phi, Q)
    orbit_hi = oracle.argmax_orbit.points
    witness = construct_historic_point(
        pmap,
        attractor.intervals,
        phi,
        orbit_hi,
        orbit_hi,
        stages=stages,
        check_transitivity=False,
        _single_phase=True,
    )
    return witness, oracle.value


@dataclass
class WitnessReport:
    historic: bool
    gap: float
    observed: BirkhoffSeries
    violations: int
    horizon: int


def replay_positions(pmap: PiecewiseMap, witness: NestedWitness) -> np.ndarray:
    """The witness midpoint's orbit positions at the witness working precision."""
    # each step rounds down; the error is absorbed by the tube slack
    return _dyadic_orbit(pmap, witness.midpoint(), witness.total_steps - 1, witness.precision_bits)


def verify_witness(pmap: PiecewiseMap, witness: NestedWitness,
                   phi: Observable | None = None, gap_tol: float = 0.25) -> WitnessReport:
    """Replay the witness midpoint at working precision and check the envelope.

    The observed partial averages of the (certified-precision) orbit must lie
    inside the stored envelope; an excursion raises EnvelopeViolation.
    """
    phi = phi or Observable.identity()
    horizon = witness.total_steps
    vals = phi(replay_positions(pmap, witness))
    series = series_from_values(vals, phi.name)
    csum = np.cumsum(vals)
    partial = csum / np.arange(1, horizon + 1)
    violations = 0
    slack = 1e-9 + 2.0 ** (9 - min(witness.precision_bits, 512))
    for t, lo, hi in zip(witness.envelope_times, witness.envelope_lo, witness.envelope_hi):
        v = partial[t - 1]
        if v < lo - slack or v > hi + slack:
            violations += 1
    if violations:
        raise EnvelopeViolation(f"{violations} checkpoints escaped the envelope")
    gap = witness.envelope_gap()
    return WitnessReport(
        historic=gap > gap_tol,
        gap=gap,
        observed=series,
        violations=0,
        horizon=horizon,
    )
