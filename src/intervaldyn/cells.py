"""Helpers for epsilon-cell subsets of [0,1].

A cell set at resolution eps is a sorted int64 array of indices into the
partition [i*eps, (i+1)*eps], i = 0..ncells-1.
"""

from __future__ import annotations

import math

import numpy as np


def ncells(eps: float) -> int:
    return max(1, math.ceil(round(1.0 / eps, 9)))


def cell_of(x: float, eps: float) -> int:
    n = ncells(eps)
    return min(max(int(x / eps), 0), n - 1)


def cells_containing(x: float, eps: float) -> list[int]:
    """All cells whose closed range contains x up to 1e-12 (two on a boundary)."""
    n = ncells(eps)
    base = cell_of(x, eps)
    out = {base}
    if abs(x - base * eps) <= 1e-12 and base > 0:
        out.add(base - 1)
    if abs(x - (base + 1) * eps) <= 1e-12 and base + 1 < n:
        out.add(base + 1)
    return sorted(out)


def cell_indices(xs: np.ndarray, eps: float) -> np.ndarray:
    """The cell of each value: ``cell_of`` over an array."""
    return np.clip((np.asarray(xs) / eps).astype(np.int64), 0, ncells(eps) - 1)


def cells_of_points(xs: np.ndarray, eps: float) -> np.ndarray:
    return np.unique(cell_indices(xs, eps))


def cellset_from_bool(visited: np.ndarray) -> np.ndarray:
    return np.flatnonzero(visited).astype(np.int64)


def coarsen_bool(visited: np.ndarray, factor: int) -> np.ndarray:
    """OR-reduce a fine boolean cell mask to a coarser resolution."""
    n = len(visited)
    if n % factor:
        pad = factor - n % factor
        visited = np.concatenate([visited, np.zeros(pad, dtype=bool)])
    return visited.reshape(-1, factor).any(axis=1)


def hausdorff_cells(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two sorted index sets, in cell units."""
    if len(a) == 0 or len(b) == 0:
        return math.inf if len(a) != len(b) else 0.0

    def one_sided(u, v):
        pos = np.searchsorted(v, u)
        left = np.where(pos > 0, np.abs(u - v[np.clip(pos - 1, 0, len(v) - 1)]), np.iinfo(np.int64).max)
        right = np.where(pos < len(v), np.abs(v[np.clip(pos, 0, len(v) - 1)] - u), np.iinfo(np.int64).max)
        return int(np.minimum(left, right).max())

    return float(max(one_sided(a, b), one_sided(b, a)))


def runs(cells: np.ndarray, gap: int = 1) -> list[tuple[int, int]]:
    """Maximal runs [start, end] of indices with jumps < gap+1 merged."""
    if len(cells) == 0:
        return []
    cuts = np.flatnonzero(np.diff(cells) > gap)
    starts = np.concatenate([[0], cuts + 1])
    ends = np.concatenate([cuts, [len(cells) - 1]])
    return [(int(cells[s]), int(cells[e])) for s, e in zip(starts, ends)]


def neighborhood(cells: np.ndarray, width: int, n: int) -> np.ndarray:
    """All indices within `width` cells of the set."""
    mask = np.zeros(n, dtype=bool)
    mask[cells] = True
    for _ in range(width):
        mask[1:] |= mask[:-1].copy()
        mask[:-1] |= mask[1:].copy()
    return np.flatnonzero(mask).astype(np.int64)
