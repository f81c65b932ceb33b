"""Spans around intervaldyn's entry points, recorded from the benchmark's side.

``Tracer.install()`` replaces each function in ENTRY_POINTS by a wrapper in
every loaded ``intervaldyn`` module that binds it (``from .x import f`` copies
the binding into the importing module), and ``remove()`` puts the originals
back.  Spans are kept in memory as (name, start, end, parent, attrs); a span's
self time is its duration minus the durations of its direct children.

Only operation and engine entry points are wrapped, never per-step helpers,
so a round records tens of spans, not one per map step.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

# layer -> entry points; "Class.method" wraps a method on the class
ENTRY_POINTS = {
    "maps": ["PiecewiseMap.iterate_orbit"],
    "catalog": ["standard_catalog", "logistic", "tent", "doubling", "bimodal", "zigzag3",
                "logistic_feigenbaum", "lorenz"],
    "orbit_stats": ["orbit_points", "batch_cells", "dyadic_orbit_cells", "series_from_values",
                    "visiting_frequency", "omega_limit_estimate", "statistical_omega_estimate",
                    "birkhoff_envelope", "detect_historic", "empirical_measure", "stats_csv"],
    "attractors": ["detect_periodic_like", "signed_critical_sides", "critical_orbit_closure",
                   "classify_attractor", "basin_census"],
    "structure": ["periodic_orbits", "first_return_map", "is_full_branch", "find_homtervals",
                  "classify_homterval", "wandering_attractor_check", "lap_counts", "lap_entropy",
                  "strong_transitivity_check", "birkhoff_max_oracle"],
    "decomposition": ["grid_graph", "nonwandering_estimate", "component_of_critical",
                      "merge_components", "decompose"],
    # construct_historic_point looks _pullback and _certify_forward up at call
    # time, so wrapping them splits the witness into chain, pullback and certify
    "generic_points": ["construct_historic_point", "construct_max_average_point", "verify_witness",
                       "replay_positions", "_pullback", "_certify_forward"],
}

ROUND_LAYERS = ("maps", "orbit_stats", "attractors", "structure", "decomposition", "generic_points")
ORBIT_ENGINES = ("float", "prime", "fraction", "dyadic")
# per-layer label -> (map name, Q) of the periodic_orbits call it reports
PERIODIC_LABELS = {"logistic4_q12": ("logistic(4)", 12), "bimodal_q8": ("bimodal", 8)}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _orbit_engine(pmap, x0) -> str:
    """The engine orbit_points picks, read from the map's public properties."""
    if pmap.integer_linear:
        return "fraction" if isinstance(x0, Fraction) else "prime"
    return "dyadic" if pmap.dyadic_affine else "float"


def _orbit_points_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    pmap, x0 = a["pmap"], a["x0"]
    return {"engine": _orbit_engine(pmap, x0), "steps": len(result[0]) - 1,
            "orbit": (id(pmap), type(x0).__name__, repr(x0), a["n"])}


def _batch_cells_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    engine = "exact" if a["pmap"].integer_linear else "float"
    return {"engine": engine, "seed_steps": len(a["x0s"]) * a["n"]}


def _periodic_orbits_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"map": a["pmap"].name, "Q": a["Q"], "orbits": len(result.orbits),
            "fixed": sum(result.fix_counts.values())}


def _grid_graph_attrs(fn, args, kwargs, result):
    return {"edges": sum(hi - lo + 1 for segs in result.ranges for lo, hi in segs)}


def _witness_attrs(fn, args, kwargs, result):
    return {"steps": result.total_steps, "bits": result.precision_bits}


ATTRS = {
    "orbit_stats.orbit_points": _orbit_points_attrs,
    "orbit_stats.batch_cells": _batch_cells_attrs,
    "structure.periodic_orbits": _periodic_orbits_attrs,
    "decomposition.grid_graph": _grid_graph_attrs,
    "generic_points.construct_historic_point": _witness_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.recording = True
        self.missing: list[str] = []  # entry points the library no longer has
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "intervaldyn" or name.startswith("intervaldyn."))]
        self.missing = []
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules.get(f"intervaldyn.{layer}")
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{layer}.{qualname}")
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                targets = [owner] if owner_name else [m for m in modules if vars(m).get(attr) is original]
                for target in targets:
                    self._patches.append((target, attr, original))
                    setattr(target, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(fn, args, kwargs, result)
            return result

        return wrapper

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def round_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced round (0 for layers the round did not reach)."""
    selfs = self_times(spans)
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in ROUND_LAYERS}
    total: dict[str, float] = {}
    self_of: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, st in zip(spans, selfs):
        layer = s.name.split(".", 1)[0]
        if layer in ROUND_LAYERS:
            m[f"{layer}.self_s"] += st
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_of[s.name] = self_of.get(s.name, 0.0) + st
        calls[s.name] = calls.get(s.name, 0) + 1

    def named(name: str):
        return [s for s in spans if s.name == name]

    for engine in ("float", "exact"):
        batch = [s for s in named("orbit_stats.batch_cells") if s.attrs["engine"] == engine]
        secs = sum(s.duration for s in batch)
        m[f"orbit_stats.batch_cells.{engine}.s"] = secs
        m[f"orbit_stats.batch_cells.{engine}.seed_steps_per_s"] = (
            sum(s.attrs["seed_steps"] for s in batch) / secs if secs else 0.0)
    m["attractors.basin_census.self_s"] = self_of.get("attractors.basin_census", 0.0)
    m["attractors.classify_attractor.s"] = total.get("attractors.classify_attractor", 0.0)
    m["attractors.classify_attractor.calls"] = calls.get("attractors.classify_attractor", 0)

    orbits = named("orbit_stats.orbit_points")
    for engine in ORBIT_ENGINES:
        runs = [s for s in orbits if s.attrs["engine"] == engine]
        secs = sum(s.duration for s in runs)
        m[f"orbit_stats.orbit_points.{engine}.steps_per_s"] = (
            sum(s.attrs["steps"] for s in runs) / secs if secs else 0.0)
        m[f"orbit_stats.orbit_points.{engine}.calls"] = len(runs)
    m["orbit_stats.orbit_points.reuse_ratio"] = (
        len({s.attrs["orbit"] for s in orbits}) / len(orbits) if orbits else 0.0)
    m["orbit_stats.series.self_s"] = self_of.get("orbit_stats.series_from_values", 0.0)

    for label, key in PERIODIC_LABELS.items():
        runs = [s for s in named("structure.periodic_orbits") if (s.attrs["map"], s.attrs["Q"]) == key]
        found = sum(s.attrs["orbits"] for s in runs)
        fixed = sum(s.attrs["fixed"] for s in runs)
        m[f"structure.periodic_orbits.{label}.s"] = sum(s.duration for s in runs)
        m[f"structure.periodic_orbits.{label}.orbits"] = found
        m[f"structure.periodic_orbits.{label}.useful_ratio"] = found / fixed if fixed else 0.0

    m["decomposition.grid_graph.s"] = total.get("decomposition.grid_graph", 0.0)
    m["decomposition.grid_graph.edges"] = sum(s.attrs["edges"] for s in named("decomposition.grid_graph"))
    for name in ("decomposition.nonwandering_estimate", "decomposition.decompose",
                 "structure.lap_entropy", "structure.first_return_map", "generic_points.verify_witness"):
        m[f"{name}.s"] = total.get(name, 0.0)

    m["generic_points.chain.s"] = self_of.get("generic_points.construct_historic_point", 0.0)
    m["generic_points.pullback.s"] = total.get("generic_points._pullback", 0.0)
    m["generic_points.certify.s"] = total.get("generic_points._certify_forward", 0.0)
    witnesses = named("generic_points.construct_historic_point")
    m["generic_points.total_steps"] = sum(s.attrs["steps"] for s in witnesses)
    m["generic_points.precision_bits"] = max((s.attrs["bits"] for s in witnesses), default=0)
    m["trace.spans"] = len(spans)
    return m


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
