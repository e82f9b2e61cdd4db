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


def commands(checkout: Path) -> list:
    """(workload, trace, argv) for every run, in run order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    driver = checkout / "perfbench" / "run.py"
    return [(w["name"], trace,
             [sys.executable, str(driver), "--workload", w["name"],
              "--seed", str(SEED), "--seconds", str(bench["run_seconds"]),
              "--trace", str(trace)])
            for w in bench["workloads"] for trace in (0, 1)]


def parse_output(stdout: str) -> dict:
    """The `env` line and the final JSON line of one run."""
    env, result = None, None
    lines = stdout.strip().splitlines()
    for line in lines:
        if line.startswith("env "):
            env = json.loads(line[4:])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return {"env": env, "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("label", help="names the output, BENCH_<label>.json")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="source tree to measure (default: this one)")
    ap.add_argument("--dry-run", action="store_true")
    args = ap.parse_args(argv)

    checkout = args.checkout.resolve()
    if not (checkout / "perfbench" / "run.py").is_file():
        print(f"bench: {checkout} has no perfbench/run.py", file=sys.stderr)
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
