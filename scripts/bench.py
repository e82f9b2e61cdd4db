"""Record the benchmark's numbers for one commit in BENCH_<label>.json.

    python3 scripts/bench.py LABEL [--checkout DIR] [--dry-run]

For each workload that BENCHMARK.json declares, runs the benchmark driver
`perfbench/run.py --seed 0 --seconds <run_seconds>` twice: with --trace 0
for the end-to-end metrics and with --trace 1 for the per-layer ones. The
`env` line and the final JSON line of every run are collected into
BENCH_<label>.json at the root of this repository. --checkout measures the
source tree of another checkout (a copy of an earlier commit, say) with
that checkout's own driver, so that two commits can be measured in one
session and compared. --dry-run prints the commands and runs nothing.

Stdlib only. Exits 1 when a run printed no result or failed its checks;
the file is written either way, with each run's exit code. Exits 2, runs
nothing and writes nothing when the checkout has no perfbench/run.py.
"""

from __future__ import annotations

import argparse
import json
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 0


def benchmark() -> dict:
    """This repository's BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def has_driver(checkout: Path, prog: str) -> bool:
    """Whether `checkout` holds perfbench/run.py; prints `prog`'s one-line
    refusal when it does not."""
    if (checkout / "perfbench" / "run.py").is_file():
        return True
    print(f"{prog}: {checkout} has no perfbench/run.py", file=sys.stderr)
    return False


def driver_argv(tree: Path, workload: str, seed: int, trace: int) -> list:
    """One run of `tree`'s benchmark driver at BENCHMARK.json's run
    length."""
    return [sys.executable, str(tree / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(benchmark()["run_seconds"]),
            "--trace", str(trace)]


def last_json(stdout: str):
    """The final JSON line of one run's output, or None."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None
    return json.loads(lines[-1])


def commands(checkout: Path) -> list:
    """(workload, trace, argv) for every run, in run order."""
    return [(w["name"], trace, driver_argv(checkout, w["name"], SEED, trace))
            for w in benchmark()["workloads"] for trace in (0, 1)]


def parse_output(stdout: str) -> dict:
    """The `env` line and the final JSON line of one run."""
    env = None
    for line in stdout.strip().splitlines():
        if line.startswith("env "):
            env = json.loads(line[4:])
    return {"env": env, "result": last_json(stdout)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("label", help="names the output, BENCH_<label>.json")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="source tree to measure (default: this one)")
    ap.add_argument("--dry-run", action="store_true")
    args = ap.parse_args(argv)

    checkout = args.checkout.resolve()
    if not has_driver(checkout, "bench"):
        return 2
    runs = commands(checkout)
    if args.dry_run:
        for _, _, cmd in runs:
            print(shlex.join(cmd))
        return 0

    out = {"label": args.label, "seed": SEED, "workloads": {}}
    ok = True
    for name, trace, cmd in runs:
        print(f"bench: {name} --trace {trace}", file=sys.stderr, flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        run = dict(parse_output(proc.stdout), exit=proc.returncode)
        ok &= proc.returncode == 0 and run["result"] is not None
        out["workloads"].setdefault(name, {})[f"trace{trace}"] = run
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"bench: wrote {path}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
