"""dlame benchmark: one workload per invocation, end-to-end or traced.

    python3 perfbench/run.py --workload surface --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
Set-up is timed first, in fresh interpreters.  Then one untimed warm-up pass
fixes the reference output digest, timed passes run back to back until
`--seconds` have elapsed (at least three), and the correctness gate checks
the outputs.  Every pass must reproduce the warm-up digest byte for byte.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and reports the per-layer split (see spans.py).  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it print every metric
by name and unit, and the full record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
SETUP_SAMPLES = 9

# Runs in a fresh interpreter: import the package and build the algebras and
# step systems every workload uses, as a user's process does before its first
# solve.  Interpreter start-up and the numpy import (about 0.15 s, which no
# change to this package can move) are not counted.
SETUP_CODE = """
import sys, time
import numpy
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import dlame.cli
from dlame.clifford import algebra
from dlame.conjugate import ConjugateSystem
from dlame.orthogonal import FrameSurfaceSystem
a2, a3 = algebra(2), algebra(3)
ConjugateSystem(3, 3)
ConjugateSystem(4, 3)
FrameSurfaceSystem(a2, (1, 2), "gamma")
FrameSurfaceSystem(a3, (1, 2), "gamma")
print(repr(time.perf_counter() - t0))
"""


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Times passes of one workload and tallies operations and digests."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.digests: set[str] = set()

    def one_pass(self) -> float:
        gc.collect()
        t0 = time.perf_counter()
        attempted, failed = self.workload.run_pass()
        elapsed = time.perf_counter() - t0
        digest = self.workload.digest()
        self.digests.add(digest)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            failed = attempted       # outputs must be byte-identical across passes
        self.attempted += attempted
        self.failed += failed
        return elapsed


def run_untraced(runner: Runner, seconds: float) -> list[float]:
    times = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < MIN_PASSES:
        times.append(runner.one_pass())
    return times


def run_traced(runner: Runner, seconds: float):
    from spans import Tracer

    plain, traced = [], []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < 1:
        plain.append(runner.one_pass())
        with tracer:
            with tracer.root_span():
                traced.append(runner.one_pass())
    return plain, traced, tracer


LAYER_UNITS = [(".items_per_call", "items/call"), (".blocks_per_call", "blocks/call"),
               (".sites_per_step_call", "sites/call"), (".sites_per_s", "sites/s"),
               (".skip_frac", "1"), (".bytes_written", "B"), ("_s", "s"), ("calls", "count")]


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in LAYER_UNITS if name.endswith(suffix))


def per_layer_metrics(tracer, passes: int, plain, traced) -> dict[str, float]:
    """Per-pass figures of each traced layer function and of each module."""
    table = tracer.table()
    m: dict[str, float] = {}
    for name, row in table.items():
        m[f"{name}.calls"] = row["calls"] / passes
        m[f"{name}.self_s"] = row["self_s"] / passes
    for layer in sorted({n.split(".")[0] for n in table}):
        m[f"{layer}.self_s"] = sum(r["self_s"] for n, r in table.items()
                                   if n.split(".")[0] == layer) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    gp = table["clifford.geometric_product"]["calls"]
    m["clifford.geometric_product.items_per_call"] = ratio(tracer.items, gp)
    m["conjugate.dcn_step_c.blocks_per_call"] = ratio(tracer.blocks, table["conjugate.dcn_step_c"]["calls"])
    step_calls = sum(s["step_calls"] for s in tracer.solves)
    sites = sum(math.prod(s["npts"]) for s in tracer.solves)
    values = sum(s["values"] for s in tracer.solves)
    skipped = sum(s["skipped"] for s in tracer.solves)
    m["lattice.goursat_solve.step_calls"] = step_calls / passes
    m["lattice.goursat_solve.sites_per_step_call"] = ratio(sites, step_calls)
    m["lattice.goursat_solve.sites_per_s"] = ratio(sites, table["lattice.goursat_solve"]["incl_s"])
    m["lattice.goursat_solve.skip_frac"] = ratio(skipped, values)
    m["io.bytes_written"] = tracer.bytes_written / passes
    m["trace.wall_s"] = statistics.median(traced)
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "dlame" / "__init__.py").is_file():
        print(f"error: no dlame package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, Consistency

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = measure_setup()
    workload = WORKLOADS[args.workload](args.seed, OUT / f"work-{args.workload}")
    runner = Runner(workload)
    runner.one_pass()                      # warm-up: lazy state, reference digest
    runner.attempted = runner.failed = 0
    if isinstance(workload, Consistency):
        workload.latency_ns = {s: [] for s in workload.latency_ns}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setup}
    if args.trace:
        plain, traced, tracer = run_traced(runner, args.seconds)
        metrics = per_layer_metrics(tracer, len(traced), plain, traced)
        wanted = [(d["name"], d["unit"]) for d in spec["per_layer"]]
        record["pass_s"] = {"untraced": plain, "traced": traced}
        record["solves_per_pass"] = tracer.solves[:len(tracer.solves) // len(traced)]
        tracer.save(OUT / f"spans-{args.workload}.npz")
    else:
        times = run_untraced(runner, args.seconds)
        metrics = {
            "wall_s": statistics.median(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
        }
        wanted = [(d["name"], d["unit"]) for d in spec["end_to_end"]]
        record["pass_s"] = times

    gate = workload.check()
    attempted = runner.attempted
    # every pass reproduced the checked outputs, so a failed gate fails them all
    failed = runner.failed if gate["ok"] else attempted
    correct = gate["ok"] and len(runner.digests) == 1 and failed == 0
    if args.trace:
        rows = [(name, value, layer_unit(name), "") for name, value in sorted(metrics.items())]
    else:
        rows = [(name, metrics[name], unit, "") for name, unit in wanted]
        if isinstance(workload, Consistency):
            lat = workload.latency_summary()
            record["check_latency"] = lat
            note = f"({lat['all']['samples']} checks)"
            rows += [("check_p50_us", lat["all"]["p50_us"], "us", note),
                     ("check_p99_us", lat["all"]["p99_us"], "us", note)]
        rows += [(name, value, "1", "") for name, value in gate["metrics"].items()]
        rows.append(("fail_frac", failed / attempted, "1", f"({failed}/{attempted})"))
    for name, value, unit, note in rows:
        print(f"{args.workload:15s} {name:45s} {value:.6g} {unit} {note}".rstrip())
    print(f"{args.workload:15s} {'output_digest':45s} {runner.reference}")
    for line in gate["failures"]:
        print(f"{args.workload:15s} GATE FAILED: {line}")
    if len(runner.digests) > 1:
        print(f"{args.workload:15s} NONDETERMINISTIC OUTPUT: {len(runner.digests)} distinct digests")
    record.update(gate=gate, digests=sorted(runner.digests), attempted=attempted, failed=failed,
                  correct=correct, rows=rows)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
