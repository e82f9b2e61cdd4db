"""Compare the end-to-end metrics of another checkout and this tree in
alternating pairs of benchmark runs.

    python3 scripts/bench_pairs.py --checkout DIR --workload W
                                   [--workload W2 ...]
                                   [--pairs 10] [--seed 0] [--dry-run]

Each pair runs DIR's and this tree's benchmark driver,
`perfbench/run.py --workload W --seed N --seconds <run_seconds> --trace 0`,
each measuring the source tree it sits in, at BENCHMARK.json's run length.
The side that runs first swaps from pair to pair (DIR first in the first
pair), so that a drift of the host's load falls on both sides alike. For
each end-to-end metric of BENCHMARK.json it then prints both sides'
medians and quartiles over the pairs and in how many pairs this tree was
better, in the metric's `better` direction. Given several times,
--workload runs the workloads one after another, all pairs of one before
the next, and prints each one's summary under a `== W ==` line.

Stdlib only; the driver's argv, the refusal of a checkout without one
and the read of a run's result line are bench.py's. It writes no file
(each driver removes its own work directory). --dry-run prints the
commands in run order and runs nothing. Exits 1 when a run printed no
result (its pair is left out of the comparison) or failed its checks,
and 2, running nothing, when DIR has no perfbench/run.py.
"""

from __future__ import annotations

import argparse
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

from bench import ROOT, benchmark, driver_argv, has_driver, last_json


def commands(checkout: Path, workload: str, seed: int, pairs: int) -> list:
    """(side, argv) for every run in run order; side is "checkout" or
    "tree"."""
    sides = [("checkout", driver_argv(checkout, workload, seed, 0)),
             ("tree", driver_argv(ROOT, workload, seed, 0))]
    return [run for k in range(pairs)
            for run in (sides if k % 2 == 0 else sides[::-1])]


def metrics_of(stdout: str):
    """The metric values of the final JSON line of one run, or None."""
    result = last_json(stdout)
    if result is None:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(pairs: list) -> list:
    """One line per end-to-end metric over pairs of (checkout, tree)
    metric dicts."""
    lines = []
    for metric in benchmark()["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        old = [p[0][name] for p in pairs]
        new = [p[1][name] for p in pairs]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        (q1, med, q3), (r1, red, r3) = quartiles(old), quartiles(new)
        lines.append(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"checkout {med:.6g} [{q1:.6g}, {q3:.6g}] -> "
            f"tree {red:.6g} [{r1:.6g}, {r3:.6g}], "
            f"tree better in {wins}/{len(pairs)} pairs")
    return lines


def run_pairs(runs: list):
    """Run `runs` (as `commands` orders them); return the (checkout,
    tree) metric dicts of every pair whose two runs printed a result, and
    whether every run printed one and passed its checks."""
    done, ok, pairs = [], True, len(runs) // 2
    for k in range(pairs):
        pair = {}
        for side, cmd in runs[2 * k:2 * k + 2]:
            print(f"bench_pairs: pair {k + 1}/{pairs} {side}",
                  file=sys.stderr, flush=True)
            proc = subprocess.run(cmd, capture_output=True, text=True)
            pair[side] = metrics_of(proc.stdout)
            ok &= proc.returncode == 0 and pair[side] is not None
        if None not in pair.values():
            done.append((pair["checkout"], pair["tree"]))
    return done, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", type=Path, required=True,
                    help="source tree compared with this one")
    ap.add_argument("--workload", required=True, action="append",
                    choices=[w["name"] for w in benchmark()["workloads"]],
                    help="repeat to compare several workloads in turn")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dry-run", action="store_true")
    args = ap.parse_args(argv)

    checkout = args.checkout.resolve()
    if not has_driver(checkout, "bench_pairs"):
        return 2
    plan = [(w, commands(checkout, w, args.seed, args.pairs))
            for w in args.workload]
    if args.dry_run:
        for _, runs in plan:
            for _, cmd in runs:
                print(shlex.join(cmd))
        return 0

    all_ok = True
    for workload, runs in plan:
        pairs, ok = run_pairs(runs)
        all_ok &= ok
        if len(plan) > 1:
            print(f"== {workload} ==", flush=True)
        if pairs:
            print("\n".join(summary(pairs)), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
