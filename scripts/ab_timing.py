#!/usr/bin/env python3
"""Paired timing of two source trees in lockstep interpreters.

Usage: python scripts/ab_timing.py TREE_A TREE_B [--rounds 10] [--passes 5]

Each tree is a source checkout (its `src/` and `perfbench/`).  Every round
starts one interpreter per tree and keeps both alive.  An interpreter imports
the package and `perfbench/workloads.py` from its tree, without editing
either, builds every workload with seed 1 and runs one untimed warm-up pass
of each.  The two interpreters then alternate single timed passes in
lockstep: per workload, `passes` pairs of one pass on A and one on B, A first
in even pairs and B first in odd ones, so both sides of a pair see the same
state of the host.  A pass is measured as

- wall time and CPU time (`time.process_time`) of the workload's `run_pass`,
  in ms;
- for `consistency`, per-check latency (us) of the three criterion-02 suites
  (conjugate, surface, 4d), the median over the checks of the pass.

The report gives, per figure, the median and quartiles of each tree's
passes, the median over all pairs of B's per-pair change against A, and the
pairs each tree was faster in.  It also checks that both trees produce the
same output digests.  This is a diagnostic for code paths below the
end-to-end benchmark, not a speed claim: claims come from `perfbench/run.py`.

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


def serve(tree: Path) -> None:
    """Build the workloads of one tree, then answer one request per stdin line: a workload
    name runs one timed pass of it, `digest` returns every workload's output digest."""
    reply, sys.stdout = sys.stdout, sys.stderr      # keep the workloads' output off the channel
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads as bench

    with tempfile.TemporaryDirectory() as tmp:
        works = {name: bench.WORKLOADS[name](SEED, Path(tmp) / name) for name in WORKLOADS}
        for work in works.values():
            work.run_pass()
        for line in sys.stdin:
            name = line.strip()
            if name == "digest":
                out = {name: work.digest() for name, work in works.items()}
            else:
                work = works[name]
                gc.collect()
                w0, c0 = time.perf_counter(), time.process_time()
                work.run_pass()
                c1, w1 = time.process_time(), time.perf_counter()
                out = {f"{name} ms/pass wall": 1e3 * (w1 - w0), f"{name} ms/pass cpu": 1e3 * (c1 - c0)}
                if name == "consistency":
                    for suite in SUITES:
                        out[f"{suite} us/check"] = 1e-3 * statistics.median(work.latency_ns[suite])
                        work.latency_ns[suite].clear()
            print(json.dumps(out), file=reply, flush=True)


class Interpreter:
    """One serving interpreter of a tree."""

    def __init__(self, tree: Path):
        self.tree = tree
        self.proc = subprocess.Popen([sys.executable, __file__, "--child", str(tree)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, request: str) -> dict:
        try:
            self.proc.stdin.write(request + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass                                        # the interpreter is gone; its exit is reported below
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"measuring {self.tree} failed (exit {self.proc.wait()})")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.wait()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(trees: list[Path], pairs: dict[str, list[tuple[float, float]]], rounds: int) -> list[str]:
    count = len(next(iter(pairs.values())))
    lines = [f"A = {trees[0]}", f"B = {trees[1]}", f"rounds: {rounds}, pairs per figure: {count}", ""]
    lines.append(f"{'figure':<32}{'A median [q1-q3]':>30}{'B median [q1-q3]':>30}{'B/A pairs':>10}"
                 f"{'A wins':>8}{'B wins':>8}")
    for name, ab in pairs.items():
        a, b = [x for x, _ in ab], [y for _, y in ab]
        qa, qb = quartiles(a), quartiles(b)
        ratio = statistics.median(y / x for x, y in ab)
        b_wins = sum(y < x for x, y in ab)
        lines.append(f"{name:<32}"
                     + f"{qa[1]:>12.2f} [{qa[0]:.2f}-{qa[2]:.2f}]".rjust(30)
                     + f"{qb[1]:>12.2f} [{qb[0]:.2f}-{qb[2]:.2f}]".rjust(30)
                     + f"{100.0 * (ratio - 1.0):>+9.1f}%"
                     + f"{len(ab) - b_wins:>8d}{b_wins:>8d}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="*", type=Path, help="TREE_A TREE_B")
    p.add_argument("--rounds", type=int, default=10, help="interpreter pairs, started one after the other")
    p.add_argument("--passes", type=int, default=5, help="timed pass pairs per workload and round")
    p.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is not None:
        serve(args.child.resolve())
        return 0
    if len(args.trees) != 2:
        p.error("give two source trees")
    trees = [t.resolve() for t in args.trees]
    pairs: dict[str, list[tuple[float, float]]] = {}
    digests = None
    for r in range(args.rounds):
        sides = [Interpreter(tree) for tree in trees]
        try:
            for name in WORKLOADS:
                for k in range(args.passes):
                    got = [None, None]
                    for side in (0, 1) if (r * args.passes + k) % 2 == 0 else (1, 0):
                        got[side] = sides[side].ask(name)
                    for figure in got[0]:
                        pairs.setdefault(figure, []).append((got[0][figure], got[1][figure]))
            digests = digests or [side.ask("digest") for side in sides]
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        finally:
            for side in sides:
                side.close()
    print("\n".join(report(trees, pairs, args.rounds)))
    differ = [name for name in WORKLOADS if digests[0][name] != digests[1][name]]
    if differ:
        print(f"outputs differ between the trees: {', '.join(differ)}")
        return 2
    print("outputs: identical digests on every workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
