"""pscbench benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout it sits in (pscbench from
`src`, no install). The workload runs in a child process with OpenMP,
OpenBLAS and MKL threads at 1 (scenario_loop.py). With --trace 0 it prints
the end-to-end metrics of BENCHMARK.json; with --trace 1 the same loop runs
with a span around every public pscbench function and prints the per-layer
metrics. Set-up time is the median over the workload process and
SETUP_PROBES more processes that only set up.

Output: an `env` line (host, versions, thread settings), one line per
metric with its unit, then as the last line one JSON object with the keys
correct, attempted, failed and metrics. Exit 0 when every correctness check
passed, 1 when one failed (the result is still printed), 2 when the
benchmark could not run at all (no result printed).

`--coarse` shrinks the grids, for the benchmark's own smoke tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0   # the whole run must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _child(args, work_dir: Path, tag: str, extra, deadline: float) -> dict:
    """Run scenario_loop.py in a fresh process; return its result JSON."""
    work = work_dir / tag
    work.mkdir(parents=True)
    result = work / "result.json"
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "scenario_loop.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--result", str(result)] + extra
    if args.coarse:
        cmd.append("--coarse")
    timeout = deadline - time.monotonic()
    with open(work / "stdout.txt", "wb") as out, \
            open(work / "stderr.txt", "wb") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=out,
                                  stderr=err, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag}: no result within the deadline")
    if proc.returncode != 0 or not result.exists():
        tail = (work / "stderr.txt").read_text(errors="replace")[-3000:]
        raise BenchError(f"{tag}: exit {proc.returncode}\n{tail}")
    return json.loads(result.read_text())


def measure(args) -> tuple[dict, dict]:
    """(child result, env record) for one run of the workload."""
    if not (ROOT / "src" / "pscbench" / "__init__.py").is_file():
        raise BenchError(f"no pscbench sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    work_dir = ROOT / ".perfbench_runs" / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        result = _child(args, work_dir, "workload", [], deadline)
        setups = [result["setup_s"]]
        if not args.trace:
            setups += [_child(args, work_dir, f"setup{i}", ["--setup-only"],
                              deadline)["setup_s"]
                       for i in range(SETUP_PROBES)]
        result["setup_samples"] = setups
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "coarse": args.coarse, "nproc": os.cpu_count(),
           "cpus_allowed": len(os.sched_getaffinity(0)),
           "cpu_model": _cpu_model(), **result["versions"],
           "threads": THREADS}
    return result, env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--coarse", action="store_true")
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        result, env = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        wanted, values = spec["per_layer"], result["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {"time_to_verdict_s": result["time_to_verdict_s"],
                  "scenarios_per_s": result["scenarios_per_s"],
                  "peak_rss_mb": result["peak_rss_mb"],
                  "setup_s": statistics.median(result["setup_samples"])}
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    attempted, failed = result["attempted"], result["failed"]

    print("env " + json.dumps(env, sort_keys=True))
    print(f"scenarios: {attempted} attempted in {result['passes']} passes, "
          f"{result['busy_s']:.3f} s timed")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} scenarios failed a check)")
    if args.trace:
        total = result["layers"].get("trace.scenario_mean_s", 0.0) or 1.0
        for key, value in sorted(result["layers"].items()):
            if key.endswith(".self_s"):
                print(f"share {key[:-7]:<10} {value / total:7.1%}")
    for msg in result["failures"]:
        print(f"FAILED CHECK: {msg}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
