"""One workload in one fresh process: set up, run the closed loop, check.

    python3 perfbench/scenario_loop.py --workload NAME --seed N --seconds S
        --trace 0|1 --work-dir DIR --result FILE [--setup-only] [--coarse]

run.py starts this with pscbench's `src` on PYTHONPATH and BLAS/OpenMP
threads at 1, and reads FILE (JSON) when it exits. Set-up is timed from the
top of this script: pscbench's imports (numpy, scipy) plus writing the
workload's config files.

The loop is closed: one `pscbench certify` (or `batch`) call at a time,
in-process through `pscbench.cli.main`, each writing its reports, until
`--seconds` have passed and at least MIN_PASSES calls ran (two, so every
scenario has a repeat to compare its report body with).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

MIN_PASSES = 2
FOOTER_MARK = "# --- non-deterministic footer ---"


def _body(path: str) -> str:
    """A report's text above the non-deterministic footer."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if FOOTER_MARK not in text:
        raise ValueError(f"{path}: no footer marker")
    return text.split(FOOTER_MARK, 1)[0]


def _ini_values(body: str) -> dict:
    """`section.key` -> value string for a structured report body."""
    values, section = {}, None
    for line in body.splitlines():
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif " = " in line:
            key, value = line.split(" = ", 1)
            values[f"{section}.{key}"] = value
    return values


def check_scenario(sc, exit_code, out_dir, first_bodies, references) -> list:
    """Failure messages for one attempted scenario; empty when correct."""
    if exit_code != sc.expect_exit:
        return [f"{sc.stem}: exit {exit_code}, expected {sc.expect_exit}"]
    if exit_code != 0:
        return []
    problems = []
    bodies = tuple(_body(os.path.join(out_dir, f"{sc.stem}.report.{ext}"))
                   for ext in ("txt", "ini"))
    first = first_bodies.setdefault(sc.stem, bodies)
    if bodies != first:
        problems.append(f"{sc.stem}: report body differs from the first "
                        "repeat in this run")
    v = _ini_values(bodies[1])
    residual = float(v["solve.solver_residual_inf"])
    tolerance = float(v["config.solver.tolerance"])
    if not residual <= tolerance:
        problems.append(f"{sc.stem}: solver_residual_inf {residual:.3e} > "
                        f"tolerance {tolerance:.1e}")
    gap = float(v["certificate.bound_minus_chain_max"])
    if not gap <= workloads.SOUNDNESS_TOL:
        problems.append(f"{sc.stem}: bound_minus_chain_max {gap:.3e} > "
                        f"{workloads.SOUNDNESS_TOL:g}")
    expected = dict(references.get(sc.stem, {}))
    tol = workloads.REFERENCE_TOL
    if sc.flat:
        expected = {"min_r_bound": 0.0, "min_r_exact": 0.0, **expected}
        tol = workloads.FLAT_BUDGET
    for key, ref in expected.items():
        got = float(v[f"certificate.{key}"])
        if not abs(got - ref) <= tol:
            problems.append(f"{sc.stem}: {key} {got!r} differs from "
                            f"{ref!r} by more than {tol:g}")
    return problems


def run_loop(cli, workload, inputs, out_dir, seconds, references,
             min_passes=MIN_PASSES) -> dict:
    """Closed loop over `cli.main` calls; returns counts, per-scenario wall
    times (`cli._run_one`: config file to written reports) and failures."""
    from pscbench.errors import PscbenchError

    by_stem = {sc.stem: sc for sc in workload.scenarios}
    # (argv, the scenario stems that call must attempt)
    if workload.verb == "batch":
        calls = [(["batch", os.path.dirname(inputs[0]), "--output-dir",
                   out_dir], sorted(by_stem))]
    else:
        calls = [(["certify", path, "--output-dir", out_dir], [sc.stem])
                 for sc, path in zip(workload.scenarios, inputs)]
    attempts = []   # (stem, seconds, exit code or None for a crash)
    run_one = cli._run_one

    def timed_run_one(config_path, stage, output_flag):
        stem = os.path.splitext(os.path.basename(config_path))[0]
        code = None
        t = time.perf_counter()
        try:
            code = run_one(config_path, stage, output_flag)
            return code
        except PscbenchError as exc:
            code = exc.exit_code
            raise
        finally:
            attempts.append((stem, time.perf_counter() - t, code))

    cli._run_one = timed_run_one
    failures, first_bodies, rates = [], {}, []
    busy, passes, attempted, failed = 0.0, 0, 0, 0
    start = time.perf_counter()
    try:
        while passes < min_passes or time.perf_counter() - start < seconds:
            for argv, expected in calls:
                n0 = len(attempts)
                t = time.perf_counter()
                try:
                    cli.main(argv)
                except Exception:   # a crash fails its scenario; go on
                    traceback.print_exc()
                elapsed = time.perf_counter() - t
                busy += elapsed
                done = attempts[n0:]
                rates.append(len(done) / elapsed)
                stems = sorted(stem for stem, _, _ in done)
                attempted += max(len(done), len(expected))
                if stems != expected:
                    failures.append(f"{argv[0]} ran {stems}, expected "
                                    f"{expected}")
                    failed += max(len(expected) - len(done), 0)
                for stem, _, code in done:
                    try:
                        problems = check_scenario(by_stem[stem], code,
                                                  out_dir, first_bodies,
                                                  references)
                    except (OSError, KeyError, ValueError) as exc:
                        problems = [f"{stem}: unreadable report: {exc!r}"]
                    failed += bool(problems)
                    failures += problems
            passes += 1
    finally:
        cli._run_one = run_one
    return {"attempted": attempted, "failed": failed,
            "failures": failures[:20], "passes": passes, "busy_s": busy,
            "time_to_verdict_s": time_to_verdict(attempts),
            # median over calls, like time_to_verdict_s: one slow stretch
            # of the machine moves it less than a run-wide mean
            "scenarios_per_s": statistics.median(rates)}


def time_to_verdict(attempts) -> float:
    """Median wall time of each scenario config, averaged over the configs.

    A median pooled over a batch's five configs would jump between configs
    whose times lie close together; one median per config does not."""
    by_stem = {}
    for stem, seconds, _ in attempts:
        by_stem.setdefault(stem, []).append(seconds)
    return statistics.fmean(statistics.median(v) for v in by_stem.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--coarse", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import scipy
    import pscbench
    from pscbench import cli
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(pscbench.__file__).startswith(src + os.sep):
        raise SystemExit(f"pscbench imported from {pscbench.__file__}, "
                         f"not from {src}")
    workload = workloads.build(args.workload, args.seed, args.coarse)
    inputs = workloads.write_inputs(workload,
                                    os.path.join(args.work_dir, "inputs"))
    result = {"setup_s": time.perf_counter() - _T0,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if not args.setup_only:
        references = workloads.REFERENCES \
            if args.seed == 0 and not args.coarse else {}
        out_dir = os.path.join(args.work_dir, "reports")
        if args.trace:
            import tracing
            with tracing.Tracer() as tracer:
                result.update(run_loop(cli, workload, inputs, out_dir,
                                       args.seconds, references))
            # timed around the traced scenario: its excess over the
            # untraced time_to_verdict_s is the tracing overhead
            result["layers"] = {
                "trace.time_to_verdict_s": result["time_to_verdict_s"],
                **tracing.layer_metrics(tracer.spans)}
        else:
            result.update(run_loop(cli, workload, inputs, out_dir,
                                   args.seconds, references))
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
