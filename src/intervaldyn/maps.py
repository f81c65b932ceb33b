"""Piecewise-smooth interval maps with a finite critical set.

The map acts on [0,1] and is given by ordered monotone branches whose
domains abut at *breakpoints*.  The *critical set* is the subset of interior
breakpoints where the map is discontinuous or loses local injectivity;
non-critical breakpoints (smooth joins, produced e.g. by surgery) are
allowed and evaluation there is well defined.

Orbit convention, one rule for every float step: an orbit landing within
``CRITICAL_TOL`` of a critical point c passes through with the exact f(c-)
where the map is continuous at that c, and is truncated where it is not.
Exact values (that limit, or the image of an exact 0.0 or 1.0) are kept, so
1/2 -> 1 -> 0 stays exact; any other value that rounds onto or past 0 or 1
(within ``RANGE_TOL``) moves to ABOVE_ZERO or BELOW_ONE, as the true orbit
leaves a repelling endpoint; a value further out, or NaN, is degenerate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from bisect import bisect_right

from .branch import (
    BranchSpec,
    INCREASING,
    as_fraction,
    poly_branch,
)
from .errors import CriticalPoint, FlatBranch, GapOverlap, RangeViolation

#: Absolute tolerance for "the orbit hit the critical set".
CRITICAL_TOL = 1e-14

#: Values may overshoot [0,1] by at most this much before RangeViolation.
RANGE_TOL = 1e-9

#: Least normal double and largest double below 1: where a float value that
#: rounds onto or past the endpoint 0 or 1 is moved.
ABOVE_ZERO = 2.0**-1022
BELOW_ONE = 1.0 - 2.0**-53

MINUS = "minus"
PLUS = "plus"


class Termination(enum.Enum):
    HORIZON = "horizon"
    CRITICAL = "critical"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class OrbitResult:
    """A finite orbit segment with termination metadata."""

    points: np.ndarray
    termination: Termination
    trunc_step: int | None = None
    trunc_critical: float | None = None

    def __len__(self):
        return len(self.points)


class PiecewiseMap:
    """An interval map defined by ordered monotone branches."""

    def __init__(self, branches, critical, name=""):
        self.branches: tuple[BranchSpec, ...] = tuple(branches)
        self.critical: tuple[Fraction, ...] = tuple(sorted(as_fraction(c) for c in critical))
        self.name = name
        self.breakpoints: tuple[Fraction, ...] = tuple(
            [self.branches[0].lo] + [b.hi for b in self.branches]
        )
        self.fbreaks: tuple[float, ...] = tuple(float(b) for b in self.breakpoints)
        self.fcritical: tuple[float, ...] = tuple(float(c) for c in self.critical)
        self._interior_breaks = [float(b) for b in self.breakpoints[1:-1]]
        self._validate()
        self.continuity: tuple[bool, ...] = tuple(
            self.one_sided_limit_exact(c, MINUS) == self.one_sided_limit_exact(c, PLUS)
            for c in self.critical
        )

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        if not self.branches:
            raise ValueError("a map needs at least one branch")
        if self.branches[0].lo != 0 or self.branches[-1].hi != 1:
            raise ValueError("branch domains must cover [0,1]")
        for left, right in zip(self.branches, self.branches[1:]):
            if left.hi != right.lo:
                raise ValueError(
                    f"branch domains must abut: {float(left.hi)} != {float(right.lo)}"
                )
        interior = set(self.breakpoints[1:-1])
        for c in self.critical:
            if not (0 < c < 1):
                raise ValueError("critical points must lie in (0,1)")
            if c not in interior:
                raise ValueError(f"critical point {float(c)} is not a branch boundary")
        # non-critical breakpoints must be smooth joins of equal value and direction
        critical = set(self.critical)
        for i, b in enumerate(self.breakpoints[1:-1]):
            if b in critical:
                continue
            lv = self.branches[i].value_exact(b)
            rv = self.branches[i + 1].value_exact(b)
            if abs(float(lv) - float(rv)) > 1e-12:
                raise ValueError(
                    f"non-critical breakpoint {float(b):.6g} joins branches with "
                    f"different values; declare it critical"
                )
            if self.branches[i].monotonicity != self.branches[i + 1].monotonicity:
                raise ValueError(
                    f"direction flips at non-critical breakpoint {float(b):.6g}; "
                    f"declare it critical"
                )

    # -- basic queries -------------------------------------------------------

    @property
    def is_continuous(self) -> bool:
        return all(self.continuity)

    @property
    def integer_linear(self) -> bool:
        """All branches affine with integer coefficients (exact /q arithmetic)."""
        return self._affine_with(lambda c: c.denominator == 1)

    @property
    def dyadic_affine(self) -> bool:
        """All branches affine with dyadic-rational coefficients."""
        return self._affine_with(lambda c: c.denominator & (c.denominator - 1) == 0)

    def _affine_with(self, coefficient_ok) -> bool:
        return all(
            len(b.coeffs) == 2 and b.plain_polynomial and all(map(coefficient_ok, b.coeffs))
            for b in self.branches
        )

    def branch_index(self, x: float) -> int:
        return bisect_right(self._interior_breaks, x) if len(self.branches) > 1 else 0

    def nearest_critical(self, x: float) -> float | None:
        """The critical point within CRITICAL_TOL of x, if any."""
        for c in self.fcritical:
            if abs(x - c) <= CRITICAL_TOL:
                return c
        return None

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, x: float) -> float:
        """f(x) for x in [0,1] away from the critical set."""
        if not (0.0 <= x <= 1.0):
            raise ValueError(f"x={x!r} outside [0,1]")
        c = self.nearest_critical(x)
        if c is not None:
            raise CriticalPoint(x, c)
        y = self.branches[self.branch_index(x)].value(x)
        z = y if 0.0 < y < 1.0 else self._off_fast_path(x, y, None)
        if z is Termination.DEGENERATE:
            raise RangeViolation(f"f({x!r}) = {y!r} leaves [0,1]")
        return z

    def _off_fast_path(self, x: float, y: float | None, c: float | None):
        """The orbit convention's next point, or the Termination that ends
        the orbit, from x at the critical point c or (c None) at y = f(x)."""
        exact = c is not None or x == 0.0 or x == 1.0
        if c is not None:
            i = self.fcritical.index(c)
            if not self.continuity[i]:
                return Termination.CRITICAL
            y = float(self.one_sided_limit_exact(self.critical[i], MINUS))
        if not -RANGE_TOL <= y <= 1.0 + RANGE_TOL:  # NaN fails too
            return Termination.DEGENERATE
        if exact:
            return min(max(y, 0.0), 1.0)
        return ABOVE_ZERO if y <= 0.0 else BELOW_ONE

    def derivative(self, x: float) -> float:
        return self.branches[self.branch_index(x)].derivative(x)

    def one_sided_limit(self, c, side: str) -> float:
        """Exact branch-expression limit f(c-) or f(c+) as a float."""
        return float(self.one_sided_limit_exact(c, side))

    def one_sided_limit_exact(self, c, side: str) -> Fraction:
        c = as_fraction(c)
        idx = None
        for i, b in enumerate(self.breakpoints):
            if b == c:
                idx = i
                break
        if idx is None:
            # float mirrors of high-precision breakpoints land here
            fc = float(c)
            for i, b in enumerate(self.fbreaks):
                if abs(b - fc) <= 1e-12:
                    idx = i
                    break
        if idx is None or idx == 0 or idx == len(self.breakpoints) - 1:
            raise ValueError(f"{float(c)} is not an interior breakpoint")
        c = self.breakpoints[idx]  # the branches meet at the exact point, not its float mirror
        if side == MINUS:
            return self.branches[idx - 1].value_exact(c)
        if side == PLUS:
            return self.branches[idx].value_exact(c)
        raise ValueError(f"side must be {MINUS!r} or {PLUS!r}")

    # -- orbits ------------------------------------------------------------------

    def iterate_orbit(self, x0: float, n: int) -> OrbitResult:
        """Record x0, f(x0), ..., up to n steps under the orbit convention."""
        nearest, index, branches = self.nearest_critical, self.branch_index, self.branches
        pts = np.empty(n + 1)
        pts[0] = x = float(x0)
        for k in range(n):
            c = nearest(x)
            y = None if c is not None else branches[index(x)].value(x)
            if y is None or not 0.0 < y < 1.0:
                y = self._off_fast_path(x, y, c)
                if isinstance(y, Termination):
                    return OrbitResult(pts[: k + 1], y, k, c)
            x = y
            pts[k + 1] = x
        return OrbitResult(pts, Termination.HORIZON)

    # -- interval arithmetic -------------------------------------------------------

    def pieces(self, lo: float, hi: float) -> list[tuple[float, float, int]]:
        """(a, b, branch index) for the nonempty pieces of [lo, hi] between
        interior breakpoints; lo and hi are taken as given, not clamped."""
        cuts = [lo] + [b for b in self._interior_breaks if lo < b < hi] + [hi]
        return [(a, b, self.branch_index(0.5 * (a + b))) for a, b in zip(cuts, cuts[1:]) if b > a]

    def interval_image(self, lo: float, hi: float) -> list[tuple[float, float]]:
        """Image of [lo,hi]; split at breakpoints, one-sided at cuts."""
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        return [self.branches[i].interval_image(a, b) for a, b, i in self.pieces(lo, hi)]

    # -- diagnostics ------------------------------------------------------------------

    def check_nonflat(self) -> dict[float, tuple[float, float]]:
        """Certify the power-law normal form at each critical point.

        Returns {c: (alpha, beta)} with the left/right leading exponents;
        raises FlatBranch when a branch cannot be certified.
        """
        report = {}
        for c in self.critical:
            idx = self.breakpoints.index(c)
            left, right = self.branches[idx - 1], self.branches[idx]
            alpha = left.vanishing_order_at(c)
            beta = right.vanishing_order_at(c)
            if alpha < 1 or beta < 1:
                raise FlatBranch(f"exponent below 1 at c={float(c)}")
            report[float(c)] = (float(alpha), float(beta))
        return report

    # -- surgery -------------------------------------------------------------------------

    def localize(self, keep_minus, keep_plus, gaps) -> "PiecewiseMap":
        """Map surgery sending excluded one-sided neighborhoods of C near {0,1}.

        ``gaps`` maps (c, side) for every excluded side to the outer gap
        endpoint a with (a, c) or (c, a) the surgery interval; the new branch
        on the gap is the monotone quadratic joining f at the outer endpoint
        to 0 or 1 at c (choice preserving the branch direction).  Outside the
        gaps the map is untouched and evaluation follows the same code path.
        """
        keep_minus = {as_fraction(c) for c in keep_minus}
        keep_plus = {as_fraction(c) for c in keep_plus}
        gaps = {(as_fraction(c), side): as_fraction(a) for (c, side), a in gaps.items()}
        excluded = []
        for c in self.critical:
            if c not in keep_minus:
                excluded.append((c, MINUS))
            if c not in keep_plus:
                excluded.append((c, PLUS))
        missing = [e for e in excluded if e not in gaps]
        if missing:
            raise GapOverlap(f"no gap interval given for excluded sides {missing}")
        intervals = []
        for (c, side), a in gaps.items():
            if (c, side) not in excluded:
                raise GapOverlap(f"gap given for non-excluded side {(float(c), side)}")
            ivl = (a, c) if side == MINUS else (c, a)
            if ivl[0] >= ivl[1]:
                raise GapOverlap(f"empty gap {tuple(map(float, ivl))}")
            intervals.append(ivl)
        intervals.sort()
        for (l1, h1), (l2, h2) in zip(intervals, intervals[1:]):
            if h1 > l2:
                raise GapOverlap("gap intervals intersect")
        for lo, hi in intervals:
            for c in self.critical:
                if lo < c < hi:
                    raise GapOverlap(f"gap {(float(lo), float(hi))} crosses critical {float(c)}")

        new_branches: list[BranchSpec] = []
        for br in self.branches:
            pieces = [br]
            for (c, side), a in sorted(gaps.items(), key=lambda kv: kv[1]):
                glo, ghi = (a, c) if side == MINUS else (c, a)
                nxt = []
                for p in pieces:
                    if glo >= p.hi or ghi <= p.lo:
                        nxt.append(p)
                        continue
                    if glo < p.lo or ghi > p.hi:
                        raise GapOverlap(
                            f"gap {(float(glo), float(ghi))} crosses a branch boundary"
                        )
                    if p.lo < glo:
                        nxt.append(_restrict(p, p.lo, glo))
                    nxt.append(_gap_branch(p, c, side, a))
                    if ghi < p.hi:
                        nxt.append(_restrict(p, ghi, p.hi))
                pieces = nxt
            new_branches.extend(pieces)
        return PiecewiseMap(new_branches, self.critical, name=f"{self.name}+localized")


def _restrict(b: BranchSpec, lo, hi) -> BranchSpec:
    return BranchSpec(
        lo, hi, b.coeffs, b.monotonicity, exponent=b.exponent, offset=b.offset, sign=b.sign
    )


def _gap_branch(b: BranchSpec, c: Fraction, side: str, a: Fraction) -> BranchSpec:
    """Monotone quadratic on the gap: value v at the outer endpoint, 0/1 at c."""
    v = b.value_exact(a)
    if b.monotonicity == INCREASING:
        target = Fraction(1) if side == MINUS else Fraction(0)
    else:
        target = Fraction(0) if side == MINUS else Fraction(1)
    if v == target:
        raise GapOverlap(
            f"gap endpoint value already equals the target {float(target)} at {float(a)}"
        )
    w = a - c
    # target + (v-target) * ((x-c)/w)^2, expanded in x
    s = (v - target) / (w * w)
    coeffs = (target + s * c * c, -2 * s * c, s)
    lo, hi = (a, c) if side == MINUS else (c, a)
    return poly_branch(lo, hi, coeffs, b.monotonicity)

