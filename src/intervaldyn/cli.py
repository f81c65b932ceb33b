"""Command-line front end.

Commands: orbit, stats, attractors, returnmap, entropy, decompose,
historic, verify.  Every output file embeds the seed and a hash of the
effective configuration; identical configuration and seed give
byte-identical CSV/JSON output.

Exit codes: 0 success, 1 assertion/verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import viz
from .attractors import basin_census
from .decomposition import decompose
from .errors import IntervalDynError, MapSpecError
from .generic_points import construct_historic_point, verify_witness
from .mapspec import load_mapspec
from .observables import Observable
from .orbit_stats import (
    MAX_FINE_BITS,
    birkhoff_envelope,
    omega_limit_estimate,
    orbit_points,
    statistical_omega_estimate,
    stats_csv,
)
from .structure import (
    first_return_map,
    is_full_branch,
    lap_entropy,
    periodic_orbits,
)


HORIZON = 1_000_000  # default --horizon
RETURN_HORIZON = 64  # default --horizon of returnmap
MAX_RETURN_HORIZON = 10_000


def _config_hash(args: argparse.Namespace) -> str:
    skip = {"func", "out"}  # the output directory is not part of the analysis
    doc = {k: repr(v) for k, v in sorted(vars(args).items()) if k not in skip}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _meta(args) -> str:
    return f"config_hash={_config_hash(args)} seed={args.seed}"


def _write(args, name: str, content: str) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    if name.endswith(".csv"):
        content = f"# {_meta(args)}\n" + content
    path.write_text(content, encoding="utf-8")
    print(f"wrote {path}")
    return path


def _json_doc(args, payload: dict) -> str:
    doc = {"schema": 1, "config_hash": _config_hash(args), "seed": args.seed}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _unit_float(text: str) -> float:
    x = float(text)
    if not 0.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not in [0, 1]")
    return x


def _eps(text: str) -> float:
    """A cell width in (0, 1] whose census grid, two refinements below it,
    the batch engine supports."""
    eps = float(text)
    if not 0.0 < eps <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not in (0, 1]")
    if round(-math.log2(eps)) + 2 > MAX_FINE_BITS:
        raise argparse.ArgumentTypeError(
            f"{text} is finer than the census supports (2^-{MAX_FINE_BITS - 2})"
        )
    return eps


def _at_least(least: int):
    """An argparse type: an integer of at least ``least``."""

    def count(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"{text} is less than {least}")
        return int(text)

    return count


def _interval(text: str, unit: bool = False) -> str:
    """``lo:hi`` with lo < hi, inside [0, 1] if ``unit``; returned as given,
    which keeps the configuration hash of a valid command."""
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text} is not lo:hi") from None
    if not (0.0 <= lo < hi <= 1.0 if unit else lo < hi):
        raise argparse.ArgumentTypeError(f"{text} is not an interval{' inside [0, 1]' * unit}")
    return text


def _phi(spec: str) -> Observable:
    kind, _, rest = spec.partition(":")
    if kind == "poly":
        return Observable.poly([c.strip() for c in rest.split(",")])
    if kind == "pwl":
        xs_s, _, ys_s = rest.partition(";")
        xs = [v.strip() for v in xs_s.split(",")]
        ys = [v.strip() for v in ys_s.split(",")]
        return Observable.piecewise_linear(xs, ys)
    raise MapSpecError(f"bad observable spec {spec!r}")


def _phi_spec(text: str) -> str:
    """``poly:c0,c1,...`` or ``pwl:x0,x1,...;y0,y1,...``, returned as given."""
    try:
        _phi(text)
    except (MapSpecError, ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an observable: {exc}") from None
    return text


# ---------------------------------------------------------------------------
# commands


def cmd_orbit(pmap, args) -> int:
    pts, _ = orbit_points(pmap, args.x0, args.horizon)
    lines = ["n,x"]
    lines += [f"{i},{x:.17g}" for i, x in enumerate(pts)]
    _write(args, "orbit.csv", "\n".join(lines) + "\n")
    if args.format in ("svg", "all"):
        _write(args, "cobweb.svg", viz.cobweb(pmap, pts, _meta(args)))
    return 0


def cmd_stats(pmap, args) -> int:
    phi = _phi(args.phi)
    V = tuple(float(v) for v in args.window.split(":"))
    _write(args, "stats.csv", stats_csv(pmap, args.x0, phi, [V], args.horizon))
    series = birkhoff_envelope(pmap, args.x0, phi, args.horizon)
    if args.format in ("svg", "all"):
        fig = viz.line_plot(
            series.checkpoints,
            {"average": series.averages, "tail sup": series.env_sup, "tail inf": series.env_inf},
            _meta(args),
        )
        _write(args, "birkhoff.svg", fig)
    return 0


def cmd_attractors(pmap, args) -> int:
    report = basin_census(
        pmap, args.samples, seed=args.seed, horizon=args.horizon, eps=args.eps
    )
    _write(args, "census.json", _json_doc(args, json.loads(report.to_json())))
    if args.format in ("svg", "all"):
        _write(
            args,
            "attractors.svg",
            viz.strip_chart([c.estimate for c in report.clusters], _meta(args)),
        )
    return 0 if report.bound_ok else 1


def cmd_returnmap(pmap, args) -> int:
    lo, hi = (float(v) for v in args.interval.split(":"))
    rm = first_return_map(pmap, (lo, hi), args.horizon)
    payload = {"returnmap": rm.to_json_dict(), "full_branch": is_full_branch(rm)}
    _write(args, "returnmap.json", _json_doc(args, payload))
    if args.format in ("svg", "all"):
        _write(args, "returnmap.svg", viz.branch_plot(rm, _meta(args)))
    return 0


def cmd_entropy(pmap, args) -> int:
    lc = lap_entropy(pmap, args.nmax)
    lines = ["n,laps"] + [f"{i + 1},{c}" for i, c in enumerate(lc.counts)]
    _write(args, "laps.csv", "\n".join(lines) + "\n")
    _write(args, "entropy.json", _json_doc(args, {"entropy": lc.entropy, "n_max": args.nmax}))
    return 0


def cmd_decompose(pmap, args) -> int:
    est = decompose(pmap, args.eps)
    _write(args, "components.json", _json_doc(args, json.loads(est.to_json())))
    if args.format in ("svg", "all"):
        _write(args, "components.svg", viz.cell_classes(est, _meta(args)))
    return 0


def _extreme_orbits(pmap, intervals, phi: Observable, Q: int):
    """The periodic orbits of period <= Q inside the intervals with the
    largest and the smallest phi-mean."""
    inside = [o for o in periodic_orbits(pmap, Q, [phi]).orbits if o.inside(intervals, 1e-9)]
    return (
        max(inside, key=lambda o: o.means[phi.name]),
        min(inside, key=lambda o: o.means[phi.name]),
    )


def cmd_historic(pmap, args) -> int:
    report = basin_census(pmap, 40, seed=args.seed, horizon=min(args.horizon, 200_000), eps=args.eps)
    cyc = [c.estimate for c in report.clusters if c.estimate.kind == "cycle"]
    if not cyc:
        print("no cycle-of-intervals attractor: historic witnesses do not exist here")
        return 1
    phi = _phi(args.phi)
    hi, lo = _extreme_orbits(pmap, cyc[0].intervals, phi, 8)
    witness = construct_historic_point(
        pmap, cyc[0].intervals, phi, hi.points, lo.points, stages=args.stages
    )
    wdoc = json.loads(witness.to_json())
    wdoc["config_hash"] = _config_hash(args)
    wdoc["seed"] = args.seed
    _write(args, "witness.json", json.dumps(wdoc, sort_keys=True) + "\n")
    rep = verify_witness(pmap, witness, phi=phi)
    if args.format in ("svg", "all"):
        fig = viz.line_plot(
            witness.envelope_times,
            {"certified lo": witness.envelope_lo, "certified hi": witness.envelope_hi},
            _meta(args),
        )
        _write(args, "envelope.svg", fig)
    print(
        f"witness gap {witness.envelope_gap():.4f} "
        f"(sup {witness.certified_sup:.4f}, inf {witness.certified_inf:.4f}), "
        f"verification violations: {rep.violations}"
    )
    return 0


def cmd_verify(pmap, args) -> int:
    """Cross-check the finiteness bounds and the statistical dichotomies."""
    failures: list[str] = []
    notes: list[str] = []
    phi = Observable.identity()
    horizon = min(args.horizon, 300_000)
    report = basin_census(pmap, 60, seed=args.seed, horizon=horizon, eps=args.eps)
    if not report.bound_ok:
        failures.append(f"attractor count exceeds bound {report.bound}")
    notes.append(
        f"census: {len(report.clusters)} attractor(s), bound {report.bound}, "
        f"kinds {[c.estimate.kind for c in report.clusters]}"
    )
    if report.unresolved_count:
        failures.append(f"{report.unresolved_count} unresolved attractors")

    # omega = omega*, at a scale where cell frequencies clear theta = 1/sqrt(n)
    rng = np.random.default_rng(args.seed + 1)
    agree = 0
    n_small = min(horizon, 100_000)
    eps_check = max(args.eps, 2.0**-6)
    for x0 in rng.uniform(0.01, 0.99, 8):
        om = omega_limit_estimate(pmap, float(x0), n_small // 2, n_small, eps_check)
        st = statistical_omega_estimate(pmap, float(x0), n_small, eps_check)
        if len(om.cells) and np.array_equal(om.cells, st.cells):
            agree += 1
    notes.append(f"omega equals omega* on {agree}/8 samples at eps {eps_check:.4g}")

    # entropy vs classification
    has_cycle = any(c.estimate.kind == "cycle" for c in report.clusters)
    if has_cycle:
        cyc = next(c.estimate for c in report.clusters if c.estimate.kind == "cycle")
        lc_cycle = lap_entropy(pmap, 20, domain=cyc.intervals)
        if lc_cycle.entropy <= 0.1:
            failures.append(f"cycle attractor but restricted entropy {lc_cycle.entropy:.3f} <= 0.1")
        notes.append(f"restricted entropy {lc_cycle.entropy:.3f} > 0.1 on the cycle")
        if agree < 6:
            failures.append("omega/omega* agreement below 6/8 samples")
    else:
        lc = lap_entropy(pmap, 20)
        notes.append(f"entropy {lc.entropy:.3f} (no cycle attractor)")
        if agree < 7:
            failures.append("omega/omega* agreement below 7/8 samples")

    # historic witness on continuous cycle maps, whose targets' means must differ by gap_tol
    if has_cycle and pmap.is_continuous:
        hi, lo = _extreme_orbits(pmap, cyc.intervals, phi, 6)
        spread, gap_tol = hi.means[phi.name] - lo.means[phi.name], 0.1
        if spread > gap_tol:
            witness = construct_historic_point(
                pmap, cyc.intervals, phi, hi.points, lo.points, stages=2,
                check_transitivity=False,
            )
            rep = verify_witness(pmap, witness, phi=phi, gap_tol=gap_tol)
            if not rep.historic:
                failures.append("historic witness failed to separate envelopes")
            notes.append(f"historic witness gap {witness.envelope_gap():.3f}")
        else:
            notes.append(f"no historic witness: extreme periodic means differ by {spread:.3f} <= {gap_tol}")

    doc = {"map": pmap.name, "failures": failures, "notes": notes}
    _write(args, "verify.json", _json_doc(args, doc))
    for n in notes:
        print("  " + n)
    for f in failures:
        print("FAIL: " + f)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="intervaldyn", description=__doc__)
    ap.add_argument("--map", required=True, help="map-spec file path")
    ap.add_argument("--out", default=os.environ.get("INTERVALDYN_OUT", "out"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--eps", type=_eps, default=2.0**-12)
    ap.add_argument(
        "--horizon", type=_at_least(1), default=None,
        help=f"orbit length (default {HORIZON}); a lorenz orbit runs on the 41 000-bit "
        f"engine at about 40 us a step, so the default takes about 40 s; for returnmap "
        f"the longest return time searched (default {RETURN_HORIZON}, at most {MAX_RETURN_HORIZON}); "
        f"where pieces stay outside the base its cost can grow exponentially with it",
    )
    ap.add_argument("--format", choices=["csv", "json", "svg", "all"], default="all")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit")
    p.add_argument("--x0", type=_unit_float, default=0.2137)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("stats")
    p.add_argument("--x0", type=_unit_float, default=0.2137)
    p.add_argument("--phi", type=_phi_spec, default="poly:0,1")
    p.add_argument("--window", type=_interval, default="0:0.5", help="V interval lo:hi")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("attractors")
    p.add_argument("--samples", type=_at_least(1), default=200)
    p.set_defaults(func=cmd_attractors)

    p = sub.add_parser("returnmap")
    p.add_argument("--interval", type=lambda t: _interval(t, unit=True), default="0:0.5")
    p.set_defaults(func=cmd_returnmap)

    p = sub.add_parser("entropy")
    p.add_argument("--nmax", type=_at_least(8), default=24)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("decompose")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("historic")
    p.add_argument("--phi", type=_phi_spec, default="poly:0,1")
    p.add_argument("--stages", type=_at_least(0), default=2)
    p.set_defaults(func=cmd_historic)

    p = sub.add_parser("verify")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.horizon is None:
        args.horizon = RETURN_HORIZON if args.command == "returnmap" else HORIZON
    elif args.command == "returnmap" and args.horizon > MAX_RETURN_HORIZON:
        # the cap bounds the word length, not the cost: where pieces stay
        # outside the base, the search grows exponentially with the horizon
        ap.error(f"argument --horizon: returnmap searches at most {MAX_RETURN_HORIZON} steps, got {args.horizon}")
    try:
        pmap = load_mapspec(args.map)
    except (MapSpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(pmap, args)
    except IntervalDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
