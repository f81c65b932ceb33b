"""Finite-resolution decomposition: grid dynamics, nonwandering estimate,
critical components U(c) and their merging into at most #C classes.

The grid graph over-approximates the map: every true transition between
cells is an edge (outward-rounded images, both one-sided branches at cells
meeting the critical set), so the chain-recurrent cell set is a certified
outer estimate of the nonwandering set.

``grid_graph`` computes the image ranges exactly, branch by branch: one
Horner pass over integers, then integer cell rules.  The integers are int64
where a bound in Python ints shows every intermediate fits, else Python ints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .branch import BranchSpec
from .cells import cells_containing, ncells, runs
from .errors import DichotomyViolation, ResolutionTooFine
from .maps import PiecewiseMap

#: memory guard
MIN_EPS = 1e-5


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, s + k)`` over the pairs (s, k)."""
    offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return offsets + np.arange(len(offsets), dtype=np.int64)


@dataclass
class GridDynamics:
    eps: float
    ncells: int
    ranges: list[list[tuple[int, int]]]   # per cell: target index ranges [lo, hi]
    pmap: PiecewiseMap

    def __post_init__(self):
        # the graph does not change after construction: both adjacencies
        # and the self-loops are built here, once
        n = self.ncells
        segs = np.array([s for r in self.ranges for s in r], dtype=np.int64).reshape(-1, 2)
        owner = np.repeat(np.arange(n, dtype=np.int64), [len(r) for r in self.ranges])
        widths = segs[:, 1] - segs[:, 0] + 1
        sources = np.repeat(owner, widths)
        indices = _concat_ranges(segs[:, 0], widths)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(sources, minlength=n))])
        rptr = np.concatenate([[0], np.cumsum(np.bincount(indices, minlength=n))])
        rind = sources[np.argsort(indices, kind="stable")]
        self._selfloop = np.zeros(n, dtype=bool)
        self._selfloop[owner[(segs[:, 0] <= owner) & (owner <= segs[:, 1])]] = True
        for a in (indptr, indices, rptr, rind, self._selfloop):
            a.flags.writeable = False
        self._csr = indptr, indices
        self._rcsr = rptr, rind

    def targets(self, i: int) -> np.ndarray:
        """Successors of cell i, increasing: the merged ranges neither overlap nor touch."""
        indptr, indices = self._csr
        return indices[indptr[i] : indptr[i + 1]].copy()

    def has_edge(self, i: int, j: int) -> bool:
        return any(lo <= j <= hi for lo, hi in self.ranges[i])

    def adjacency_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Successors in CSR form: the targets of cell i are
        ``indices[indptr[i] : indptr[i + 1]]``, in the order of ``ranges[i]``."""
        return self._csr

    def reverse_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Predecessors in CSR form: the cells with an edge into j are
        ``rind[rptr[j] : rptr[j + 1]]``, in increasing order."""
        return self._rcsr

    def distances_to(self, cells) -> np.ndarray:
        """Fewest edges from each cell to one of ``cells`` (0 on them), or -1
        where no path leads there: a level-by-level backward search."""
        rptr, rind = self._rcsr
        dist = np.full(self.ncells, -1, dtype=np.int64)
        frontier = np.unique(np.asarray(cells, dtype=np.int64))
        level = 0
        while frontier.size:
            dist[frontier] = level
            starts = rptr[frontier]
            preds = rind[_concat_ranges(starts, rptr[frontier + 1] - starts)]
            frontier = np.unique(preds[dist[preds] < 0])
            level += 1
        return dist


def _scaled_values(br: BranchSpec, b: Fraction, j0: int, j1: int, p: int, q: int):
    """The values of ``br`` at its lower end, at ``j * p / q`` for ``j0 <= j < j1``
    and at ``b``, times q/p: numerators M over one E > 0, int64 where they fit."""
    ends = br.value_exact(br.lo), br.value_exact(b)
    if br.exponent.denominator != 1:
        # a float made exact at each point, so evaluated point by point
        vals = [ends[0], *(br.value_exact(Fraction(j * p, q)) for j in range(j0, j1)), ends[1]]
        den = math.lcm(*(v.denominator for v in vals))
        return np.array([int(v * den) * q for v in vals], dtype=object), den * p
    # grid values are (off_n D^e + sign off_d N^e) / (off_d D^e), with N the
    # homogeneous Horner numerator of phi over D = L q^d
    e, d = int(br.exponent), len(br.coeffs) - 1
    lcd = math.lcm(*(c.denominator for c in br.coeffs))
    cs = [int(c * lcd) for c in br.coeffs]
    off_n, off_d = br.offset.numerator, br.offset.denominator
    dpow = (lcd * q**d) ** e
    den = math.lcm(off_d * dpow, ends[0].denominator, ends[1].denominator)
    scale = den // (off_d * dpow) * q
    ms = [int(v * den) * q for v in ends]
    acc = abs(cs[d])
    for k in range(d - 1, -1, -1):  # the Horner pass at the largest point, increasing
        acc = acc * max(j1 - 1, 1) * p + abs(cs[k]) * q ** (d - k)
    peak = max(acc, (abs(off_n) * dpow + off_d * acc**e) * scale, *map(abs, ms))
    m = np.array([0] * (j1 - j0 + 2), dtype=np.int64 if peak + 2 * den * p < 2**63 else object)
    acc = cs[d]
    for k in range(d - 1, -1, -1):
        acc = acc * (np.arange(j0, j1).astype(m.dtype) * p) + cs[k] * q ** (d - k)
    m[0], m[-1] = ms
    m[1:-1] = (off_n * dpow + br.sign * off_d * acc**e) * scale
    return m, den * p


def _trunc(m: np.ndarray, e: int):
    """int() of m / e, toward zero, and the remainder of that quotient."""
    t = m // e
    r = m - t * e
    up = (r != 0) & (m < 0)
    return np.where(up, t + 1, t).astype(np.int64), np.where(up, r - e, r)


def grid_graph(pmap: PiecewiseMap, eps: float) -> GridDynamics:
    """Directed graph on eps-cells whose edges cover every true transition.

    Cell-image endpoints are evaluated exactly (cell boundaries and branch
    coefficients are rationals), with the cell-of-a-value convention
    half-open: a value exactly on a boundary belongs to the cell above.
    Exactness matters: an invariant boundary value (say a fixed interface
    between two invariant halves) must not leak an edge into the cell below,
    or separate components would merge.  Values not exactly on a boundary
    get one cell of widening whenever a float evaluation could cross it.
    """
    if eps < MIN_EPS:
        raise ResolutionTooFine(f"eps={eps} below the guard {MIN_EPS}")
    n = ncells(eps)
    return GridDynamics(eps, n, _cell_ranges(pmap, *Fraction(eps).as_integer_ratio(), n), pmap)


def _cell_ranges(pmap: PiecewiseMap, p: int, q: int, n: int) -> list[list[tuple[int, int]]]:
    """The merged target ranges of the n cells of width p/q.  A cell meets a
    branch's domain in one segment, so the work runs branch by branch, and
    each grid value serves the two cells that share it."""
    critical = set(pmap.critical)
    parts = []
    for br in pmap.branches:
        i0 = math.floor(br.lo * q / p)
        i1 = min(n - 1, math.ceil(br.hi * q / p) - 1)
        if i0 > i1:
            continue
        top = min(Fraction((i1 + 1) * p, q), 1)  # the top of cell i1
        b = min(top, br.hi)
        m, den = _scaled_values(br, b, i0 + 1, i1 + 1, p, q)
        # openness: a critical endpoint is excluded from the domain, and
        # the half-open cell convention excludes the cell's own top (< 1)
        a_open = np.r_[br.lo in critical, np.zeros(i1 - i0, dtype=bool)]
        b_open = np.r_[np.ones(i1 - i0, dtype=bool), b in critical or (b == top and b != 1)]
        inc = m[:-1] <= m[1:]
        # open or attained: values just above a boundary sit in its cell
        ia, r_lo = _trunc(np.where(inc, m[:-1], m[1:]), den)
        ib, r_hi = _trunc(np.where(inc, m[1:], m[:-1]), den)
        ib -= (r_hi == 0) & np.where(inc, b_open, a_open)
        noise = -(-den * q // (p * 10**12))  # float-noise guard: r / den < q / (p 10^12) widens a cell
        ia -= (r_lo != 0) & (r_lo < noise)
        ib += (r_hi != 0) & (den - r_hi < noise)
        parts.append(np.stack((np.arange(i0, i1 + 1), np.maximum(ia, 0), np.minimum(n - 1, np.maximum(ib, ia)))))
    # merge each cell's sorted segments; only cells holding a breakpoint have several
    segs = np.hstack(parts)
    cells, los, his = segs[:, np.lexsort(segs[::-1])]
    first = np.r_[True, cells[1:] != cells[:-1]]  # every cell has a segment
    ranges = [[seg] for seg in zip(los[first].tolist(), his[first].tolist())]
    for i, lo, hi in zip(cells[~first].tolist(), los[~first].tolist(), his[~first].tolist()):
        r = ranges[i]
        if lo <= r[-1][1] + 1:
            r[-1] = (r[-1][0], max(r[-1][1], hi))
        else:
            r.append((lo, hi))
    return ranges


def nonwandering_estimate(gd: GridDynamics) -> np.ndarray:
    """Cells on a directed cycle: a chain-recurrent outer estimate of Omega(f)."""
    indptr, indices = gd.adjacency_csr()
    n = gd.ncells
    index = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    comp = np.full(n, -1, dtype=np.int64)
    comp_size = []
    counter = 0
    ncomp = 0
    stack: list[int] = []
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(indptr[v] + pi, indptr[v + 1]):
                w = indices[k]
                if index[w] == -1:
                    work[-1] = (v, k - indptr[v] + 1)
                    work.append((int(w), 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                size = 0
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    size += 1
                    if w == v:
                        break
                comp_size.append(size)
                ncomp += 1
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    sizes = np.asarray(comp_size)
    recurrent = (sizes[comp] >= 2) | gd._selfloop
    return np.flatnonzero(recurrent).astype(np.int64)


def component_of_critical(gd: GridDynamics, c: float, omega: np.ndarray | None = None) -> np.ndarray:
    """U(c): nonwandering cells whose forward-reachable set meets the cell of c."""
    if omega is None:
        omega = nonwandering_estimate(gd)
    reach = gd.distances_to(cells_containing(float(c), gd.eps)) >= 0
    mask = np.zeros(gd.ncells, dtype=bool)
    mask[omega] = True
    return np.flatnonzero(reach & mask).astype(np.int64)


@dataclass
class ComponentEstimate:
    eps: float
    per_critical: dict[float, np.ndarray]
    classes: list[dict] = field(default_factory=list)

    def class_count(self) -> int:
        return len(self.classes)

    def to_json(self) -> str:
        doc = {
            "schema": 1,
            "eps": self.eps,
            "classes": [
                {
                    "representative": cl["representative"],
                    "members": cl["members"],
                    "cell_ranges": runs(cl["cells"]),
                }
                for cl in self.classes
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=1)


def merge_components(estimates: dict[float, np.ndarray], eps: float) -> ComponentEstimate:
    """Merge the U(c) into equivalence classes.

    Two components merge when their overlap exceeds half the smaller one;
    unmerged pairs must overlap in at most a boundary layer (two cells per
    component boundary), else the resolution is too coarse and
    DichotomyViolation is raised.
    """
    keys = [c for c, cells in estimates.items() if len(cells)]
    parent = {c: c for c in keys}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for i, c1 in enumerate(keys):
        for c2 in keys[i + 1 :]:
            a, b = estimates[c1], estimates[c2]
            overlap = len(np.intersect1d(a, b, assume_unique=True))
            smaller = min(len(a), len(b))
            if overlap > smaller / 2:
                parent[find(c2)] = find(c1)
            else:
                allowance = 2 * max(len(runs(a)), len(runs(b)))
                if overlap > allowance:
                    raise DichotomyViolation(c1, c2, overlap / smaller)
    groups: dict[float, list[float]] = {}
    for c in keys:
        groups.setdefault(find(c), []).append(c)
    classes = []
    for rep, members in sorted(groups.items()):
        cells = np.unique(np.concatenate([estimates[c] for c in members]))
        classes.append({"representative": rep, "members": members, "cells": cells})
    return ComponentEstimate(eps, dict(estimates), classes)


def decompose(pmap: PiecewiseMap, eps: float) -> ComponentEstimate:
    """Full pipeline: grid graph, nonwandering estimate, U(c), merged classes."""
    gd = grid_graph(pmap, eps)
    omega = nonwandering_estimate(gd)
    per_c = {c: component_of_critical(gd, c, omega) for c in pmap.fcritical}
    est = merge_components(per_c, eps)
    if est.class_count() > len(pmap.critical):
        raise DichotomyViolation(0.0, 0.0, 1.0)
    return est
