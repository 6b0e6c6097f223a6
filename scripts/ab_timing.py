#!/usr/bin/env python3
"""Paired timing of two source trees in alternating subprocesses.

Usage: python scripts/ab_timing.py TREE_A TREE_B [--rounds 10] [--passes 5]

Each tree is a source checkout (its `src/` and `perfbench/`).  Every round
starts one fresh interpreter per tree, A first in even rounds and B first in
odd ones.  An interpreter imports the package and `perfbench/workloads.py`
from its tree, without editing either, builds every workload with seed 1
and measures after one untimed warm-up pass:

- per-check latency (us) of the three criterion-02 suites (conjugate,
  surface, 4d), the median over the checks of the `consistency` workload's
  timed passes;
- per-pass time (ms) of each workload's `run_pass`, the median over its
  timed passes.

The report gives, per figure, the median and quartiles of the per-round
values of each tree, B's median change against A's, and the rounds each tree
was faster in.  It also checks that both trees produce the same output
digests.  This is a diagnostic for code paths below the end-to-end
benchmark, not a speed claim: claims come from `perfbench/run.py`.

Exit status: 0 on success, 1 if a measuring interpreter fails, 2 if the two
trees' outputs differ.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SUITES = ("conjugate", "surface", "4d")
WORKLOADS = ("surface", "orthosys_sweep", "consistency", "transforms")
SEED = 1


def measure(tree: Path, passes: int) -> dict:
    """Figures of one tree, measured in this interpreter."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads as bench

    out = {"checks_us": {}, "pass_ms": {}, "digest": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            work = bench.WORKLOADS[name](SEED, Path(tmp) / name)
            work.run_pass()
            if name == "consistency":
                skip = {suite: len(lat) for suite, lat in work.latency_ns.items()}
            times = []
            for _ in range(passes):
                gc.collect()
                t0 = time.perf_counter()
                work.run_pass()
                times.append(time.perf_counter() - t0)
            out["pass_ms"][name] = 1e3 * statistics.median(times)
            out["digest"][name] = work.digest()
            if name == "consistency":
                for suite in SUITES:
                    out["checks_us"][suite] = 1e-3 * statistics.median(work.latency_ns[suite][skip[suite]:])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(trees: list[Path], runs: list[list[dict]]) -> list[str]:
    lines = [f"A = {trees[0]}", f"B = {trees[1]}", f"rounds: {len(runs[0])}", ""]
    header = f"{'figure':<28}{'A median [q1-q3]':>30}{'B median [q1-q3]':>30}{'B vs A':>9}{'A wins':>8}{'B wins':>8}"
    lines.append(header)
    for kind, unit in (("checks_us", "us/check"), ("pass_ms", "ms/pass")):
        for name in runs[0][0][kind]:
            a = [r[kind][name] for r in runs[0]]
            b = [r[kind][name] for r in runs[1]]
            qa, qb = quartiles(a), quartiles(b)
            b_wins = sum(y < x for x, y in zip(a, b))
            lines.append(f"{name + ' ' + unit:<28}"
                         f"{qa[1]:>12.2f} [{qa[0]:.2f}-{qa[2]:.2f}]".rjust(30)
                         + f"{qb[1]:>12.2f} [{qb[0]:.2f}-{qb[2]:.2f}]".rjust(30)
                         + f"{100.0 * (qb[1] / qa[1] - 1.0):>+8.1f}%"
                         + f"{len(a) - b_wins:>8d}{b_wins:>8d}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="*", type=Path, help="TREE_A TREE_B")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--passes", type=int, default=5, help="timed passes per workload and interpreter")
    p.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure(args.child.resolve(), args.passes)))
        return 0
    if len(args.trees) != 2:
        p.error("give two source trees")
    trees = [t.resolve() for t in args.trees]
    runs: list[list[dict]] = [[], []]
    for r in range(args.rounds):
        for side in (0, 1) if r % 2 == 0 else (1, 0):
            proc = subprocess.run([sys.executable, __file__, "--child", str(trees[side]),
                                   "--passes", str(args.passes)], capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"measuring {trees[side]} failed (exit {proc.returncode})", file=sys.stderr)
                return 1
            runs[side].append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print("\n".join(report(trees, runs)))
    differ = [name for name in WORKLOADS if runs[0][0]["digest"][name] != runs[1][0]["digest"][name]]
    if differ:
        print(f"outputs differ between the trees: {', '.join(differ)}")
        return 2
    print("outputs: identical digests on every workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
