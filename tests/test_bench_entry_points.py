"""The benchmark's tracer must still find every library entry point it wraps.

``perfbench/tracing.py`` binds functions by name and some of their parameters
by name; a refactor that renames one would silently drop a per-layer metric.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

from intervaldyn import (  # noqa: F401  (the tracer wraps every loaded layer)
    attractors,
    catalog,
    decomposition,
    generic_points,
    maps,
    orbit_stats,
    structure,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_without_missing_entry_points(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    original = orbit_stats.orbit_points
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert orbit_stats.orbit_points is not original
    finally:
        tracer.remove()
    assert orbit_stats.orbit_points is original


def test_traced_parameters_keep_their_names():
    # the span attributes read these arguments by name
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(orbit_stats.orbit_points)[:3] == ["pmap", "x0", "n"]
    assert params(orbit_stats.batch_cells)[:3] == ["pmap", "x0s", "n"]
    assert params(structure.periodic_orbits)[:2] == ["pmap", "Q"]
    assert isinstance(maps.PiecewiseMap.integer_linear, property)
    assert isinstance(maps.PiecewiseMap.dyadic_affine, property)
