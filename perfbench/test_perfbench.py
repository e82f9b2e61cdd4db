"""Tests of the benchmark itself: coarse smoke runs of every workload, the
correctness gate, the trace accounting and the refusal without sources.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import scenario_loop  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_coarse_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--coarse")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    assert any(line.startswith("failed_frac = 0 ") for line in lines)
    env = json.loads(lines[0][len("env "):])
    assert env["threads"] == {"OMP_NUM_THREADS": "1",
                              "OPENBLAS_NUM_THREADS": "1",
                              "MKL_NUM_THREADS": "1"}
    assert {"nproc", "cpu_model", "python", "numpy", "scipy"} <= set(env)
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in values.items() if k.endswith(".self_s"))
        # every layer of this program has a self_s metric, so self times
        # add up to the traced scenario time
        assert layers == pytest.approx(values["trace.scenario_mean_s"],
                                       rel=1e-9)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _batch_loop(tmp_path, references):
    from pscbench import cli
    workload = workloads.build("shipped-batch", 0)
    inputs = workloads.write_inputs(workload, str(tmp_path / "inputs"))
    return scenario_loop.run_loop(cli, workload, inputs,
                                  str(tmp_path / "reports"), 0.0, references)


def test_seed0_references_hold(tmp_path):
    result = _batch_loop(tmp_path, workloads.REFERENCES)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == 10


def test_wrong_expected_value_makes_failed_frac_positive(tmp_path):
    wrong = dict(workloads.REFERENCES)
    wrong["sphere_twist"] = {"min_r_bound": 0.27}
    result = _batch_loop(tmp_path, wrong)
    assert result["failed"] == 2 and result["attempted"] == 10
    assert all(msg.startswith("sphere_twist: min_r_bound")
               for msg in result["failures"])


def test_seed0_batch_inputs_are_the_shipped_configs(tmp_path):
    from pscbench.config import parse_config
    shipped = ROOT / "configs"
    if not shipped.is_dir():
        pytest.skip("no shipped configs in this checkout")
    paths = workloads.write_inputs(workloads.build("shipped-batch", 0),
                                   str(tmp_path))
    for path in paths:
        assert parse_config(path).echo == \
            parse_config(str(shipped / os.path.basename(path))).echo


def test_seeds_pick_subcritical_twists():
    assert workloads.twists(0, 2) == [0.5, 0.5]
    for seed in range(1, 50):
        for value in workloads.twists(seed, 2):
            assert workloads.TWIST_RANGE[0] <= value <= \
                workloads.TWIST_RANGE[1]
    assert workloads.twists(7, 2) == workloads.twists(7, 2)


def test_ladder_point_torus16x17_exits_4(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pscbench", "certify",
         str(HERE / "ladder_torus16x17.cfg"), "--output-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4
    assert "contains only 1 t-nodes" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "shipped-batch", "--seed", "0", "--seconds",
                "1", "--trace", "0", cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_and_inclusive_sets():
    spans = [
        tracing.Span("cli._run_one", "cli", None, 0, 0.0, 10.0),
        tracing.Span("pipeline.run_scenario", "pipeline", 0, 0, 1.0, 9.0),
        tracing.Span("metrics.restrict_metric", "metrics", 1, 0, 2.0, 4.0),
        tracing.Span("metrics.product_extend", "metrics", 1, 0, 4.0, 7.0),
        tracing.Span("metrics.restrict_metric", "metrics", 3, 0, 5.0, 6.0),
    ]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == 2.0
    assert m["pipeline.self_s"] == 3.0
    assert m["metrics.self_s"] == 5.0
    # the nested restrict_metric call is inside product_extend: counted once
    assert m["metrics.extend_s"] == 5.0
    assert m["trace.scenario_mean_s"] == 10.0


def test_time_to_verdict_averages_per_config_medians():
    attempts = [("a", 1.0, 0), ("a", 3.0, 0), ("a", 2.0, 0),
                ("b", 10.0, 2), ("b", 20.0, 2)]
    assert scenario_loop.time_to_verdict(attempts) == (2.0 + 15.0) / 2
