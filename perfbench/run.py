"""Benchmark runner for intervaldyn.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

It imports the library from ``src/`` next to this directory, times the
set-up, then calls the workload's rounds back to back in one thread for
at most ``--seconds`` (but at least one round), checking every output.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it records the machine and every round.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3  # one in this process, the rest in fresh interpreters
SUBPROCESS_TIMEOUT = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def import_library():
    """Import the workloads, and with them numpy and intervaldyn from ``src/``."""
    sys.path.insert(0, str(SRC))
    import intervaldyn
    import workloads

    if Path(intervaldyn.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"intervaldyn was imported from {intervaldyn.__file__}, not from {SRC}")
    return workloads


def timed_setup(name: str, tracer=None):
    """Import plus map construction, timed together; the tracer (if any) sees the construction."""
    t0 = time.perf_counter()
    workloads = import_library()
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    if tracer is not None:
        tracer.install()
    state = workloads.WORKLOADS[name].setup()
    return time.perf_counter() - t0, workloads, state


def setup_in_fresh_interpreter(name: str) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def machine_record() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
    }


class Round:
    """One pass over a workload's operations, or a prefix of it, with the time each call took."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.op_seconds: list[float] = []  # time inside each library call; checks excluded
        self.op_steps: list[int] = []  # map steps each call delivered
        self.attempted = 0
        self.failures: list[dict] = []
        self.spans: list = []

    def run(self, ops, tracer=None, may_start=lambda k: True) -> bool:
        """Call the operations in order; stop before the first ``k`` that ``may_start(k)`` refuses.

        Returns whether every operation ran.
        """
        for k, op in enumerate(ops):
            if not may_start(k):
                return False
            self.attempted += 1
            gc.collect()  # every call starts from a collected heap, whatever came before it
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a raising operation is a failed one; keep measuring
                self.op_seconds.append(time.perf_counter() - t0)
                self.op_steps.append(0)
                self.failures.append({"op": op.name, "message": f"{type(exc).__name__}: {exc}", "known": False})
                continue
            self.op_seconds.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.recording = False
            self.op_steps.append(0)
            try:
                self.op_steps[-1] = op.steps(result)
                self.failures += [{"op": op.name, "message": f.message, "known": f.known}
                                  for f in op.check(result)]
            except Exception as exc:  # an output the check cannot read is a wrong output
                self.failures.append({"op": op.name, "message": f"check raised {type(exc).__name__}: {exc}",
                                      "known": False})
            finally:
                if tracer is not None:
                    tracer.recording = True
        return True

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)

    @property
    def steps(self) -> int:
        return sum(self.op_steps)

    @property
    def failed_ops(self) -> int:
        return len({f["op"] for f in self.failures})


def run_rounds(workload, state, rng, seconds: float, tracer=None) -> list[Round]:
    """Rounds back to back for at most ``seconds`` (but at least one whole round).

    Without a tracer, every call after the first round starts only if a call
    of its median length so far would end within ``seconds``; the run ends at
    the first call that would not, so its last round is usually a prefix.
    A workload whose round is long next to ``seconds`` thus still measures
    most of ``seconds``.  With a tracer, only whole rounds run, alternating
    untraced and traced (wrappers removed for the untraced ones), at least one
    of each; another starts only if a round of the median length so far would
    end within ``seconds``.
    """
    rounds: list[Round] = []
    start = time.perf_counter()

    def fits(needed: float) -> bool:
        return time.perf_counter() - start + needed <= seconds

    if tracer is None:
        while True:
            rnd, earlier = Round(traced=False), list(rounds)
            whole = rnd.run(workload.round(state, rng), may_start=lambda k: not earlier or fits(
                statistics.median(r.op_seconds[k] for r in earlier)))
            if rnd.attempted:
                rounds.append(rnd)
            if not whole:
                return rounds

    lengths: list[float] = []
    while len(rounds) < 2 or fits(statistics.median(lengths)):
        t0 = time.perf_counter()
        traced = len(rounds) % 2 == 1
        rnd = Round(traced)
        if traced:
            tracer.install()  # before the round binds the library functions
            try:
                rnd.run(workload.round(state, rng), tracer)
            finally:
                tracer.remove()
            rnd.spans = tracer.take()
        else:
            rnd.run(workload.round(state, rng))
        rounds.append(rnd)
        lengths.append(time.perf_counter() - t0)
    return rounds


def per_call_median(rounds: list[Round], field: str) -> float:
    """Sum over a round's calls of each call's median over the rounds that made it.

    A round calls the same operations in the same order every time, so the
    k-th call of each round is one operation measured once per round (a
    prefix round may lack the last calls).  Taking the median per call keeps a
    slow spell that hits one call of one round out of the figure; with one or
    two samples of a call it is their mean.
    """
    samples = [getattr(r, field) for r in rounds]
    return sum(statistics.median(s[k] for s in samples if len(s) > k) for k in range(max(map(len, samples))))


def end_to_end(rounds: list[Round], setup_s: float) -> dict[str, float]:
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed_ops for r in rounds)
    wall_s = per_call_median(rounds, "op_seconds")
    return {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - failed / attempted,
        "steps_per_s": per_call_median(rounds, "op_steps") / wall_s,
    }


def per_layer(rounds: list[Round], setup_spans) -> dict[str, float]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    m = tracing.median_metrics([tracing.round_metrics(r.spans) for r in traced])
    m["catalog.lorenz.s"] = sum(s.duration for s in setup_spans if s.name == "catalog.lorenz")
    m["trace.overhead_s"] = per_call_median(traced, "op_seconds") - per_call_median(plain, "op_seconds")
    return m


def with_units(values: dict[str, float], declared: list[dict]) -> dict:
    names = [d["name"] for d in declared]
    if set(values) != set(names):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(names))} disagree with BENCHMARK.json")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # one thread for every numeric library; set before numpy is imported, and
    # inherited by the set-up interpreters
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

    if args.setup_only:
        print(timed_setup(args.workload)[0])
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer() if args.trace else None
    setup_s, workloads, state = timed_setup(args.workload, tracer)
    setup_spans = []
    if tracer is not None:
        tracer.remove()
        setup_spans = tracer.take()
    else:
        samples = [setup_s] + [setup_in_fresh_interpreter(args.workload) for _ in range(SETUP_SAMPLES - 1)]
        setup_s = statistics.median(samples)

    import numpy as np

    machine = machine_record()
    rng = np.random.default_rng(args.seed)
    rounds = run_rounds(workloads.WORKLOADS[args.workload], state, rng, args.seconds, tracer)

    if tracer is not None:
        metrics = with_units(per_layer(rounds, setup_spans), spec["per_layer"])
    else:
        metrics = with_units(end_to_end(rounds, setup_s), spec["end_to_end"])
    failures = [f for r in rounds for f in r.failures]
    print(json.dumps({
        "machine": machine,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "rounds": [{"traced": r.traced, "seconds": r.seconds, "steps": r.steps, "ops": r.attempted}
                   for r in rounds],
        "failures": failures,
        "missing_entry_points": tracer.missing if tracer is not None else [],
    }))
    print(json.dumps({
        "correct": all(f["known"] for f in failures),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed_ops for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
