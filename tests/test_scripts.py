"""Smoke tests for the study scripts: each runs as a subprocess, exits 0 and
writes the CSV rows its study defines.

Frozen sup-errors come from earlier runs of the same studies; the 1e-3
relative allowance absorbs BLAS reduction-order drift, not formula changes.
"""

import csv
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, tmp_path, *args, code=0):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == code, proc.stdout + proc.stderr
    return proc


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_angle_sweep_twisted_flat(tmp_path):
    run_script("angle_sweep.py", tmp_path, "--steps", "3", "--resolution", "8")
    rows = read_rows(tmp_path / "angle_sweep.csv")
    # twisted flat torus: angle arctan(c), ellipticity margin 1 - c^2
    assert [float(r["value"]) for r in rows] == [0.0, 0.6, 1.2]
    for r in rows:
        c = float(r["value"])
        assert float(r["max_angle"]) == pytest.approx(math.atan(c), abs=1e-10)
        assert float(r["margin"]) == pytest.approx(1.0 - c * c, abs=1e-10)
        assert r["elliptic"] == ("true" if c < 1.0 else "false")


@pytest.mark.parametrize("args", [("--steps", "0"),
                                  ("--steps", "3", "--resolution", "3")],
                         ids=["no-steps", "grid-too-coarse"])
def test_angle_sweep_with_no_surviving_row_exits_4(tmp_path, args):
    # every value rejected (or none swept): a one-line refusal, exit 4, and
    # an existing output file is left as it was
    out = tmp_path / "angle_sweep.csv"
    out.write_text("earlier sweep\n")
    proc = run_script("angle_sweep.py", tmp_path, *args, code=4)
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert out.read_text() == "earlier sweep\n"


# study -> ({resolution: sup_error}, smallest observed order allowed)
STUDIES = {
    "sphere-oracle": ({16: 2.675896e-01, 32: 6.813074e-02,
                       64: 1.710926e-02, 128: 4.282091e-03}, 1.9),
    "slice-curvature": ({16: 5.972056e-03, 32: 1.509524e-03,
                         64: 3.784262e-04}, 1.9),
    "certificate-gap": ({24: 4.178480e-07, 48: 2.681071e-08,
                         96: 1.689275e-09}, 3.9),
}


@pytest.mark.parametrize("study", list(STUDIES))
def test_convergence_study(tmp_path, study):
    frozen, min_order = STUDIES[study]
    run_script("convergence_study.py", tmp_path, "--study", study,
               "--out-dir", str(tmp_path))
    rows = read_rows(tmp_path / f"{study}.csv")
    assert [int(r["resolution"]) for r in rows] == list(frozen)
    for r in rows:
        assert float(r["sup_error"]) == pytest.approx(
            frozen[int(r["resolution"])], rel=1e-3)
    assert rows[0]["order"] == ""
    assert all(float(r["order"]) > min_order for r in rows[1:])


def test_bench_dry_run_prints_the_runs(tmp_path):
    # one --trace 0 and one --trace 1 run per BENCHMARK.json workload, at
    # seed 0 and the benchmark's run length; a dry run writes no BENCH file
    bench = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench.py"), "dry", "--dry-run"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    runs = [shlex.split(line) for line in proc.stdout.splitlines()]
    expected = [(w["name"], str(trace)) for w in bench["workloads"]
                for trace in (0, 1)]
    assert [(cmd[cmd.index("--workload") + 1], cmd[cmd.index("--trace") + 1])
            for cmd in runs] == expected
    for cmd in runs:
        assert cmd[1] == str(SCRIPTS.parent / "perfbench" / "run.py")
        assert cmd[cmd.index("--seed") + 1] == "0"
        assert cmd[cmd.index("--seconds") + 1] == str(bench["run_seconds"])
    assert not (SCRIPTS.parent / "BENCH_dry.json").exists()


def test_bench_refuses_a_checkout_without_the_driver(tmp_path):
    # a missing checkout must not overwrite a BENCH file with null results
    label = "missing-checkout-test"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench.py"), label,
         "--checkout", str(tmp_path / "absent")],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "perfbench/run.py" in proc.stderr
    assert not (SCRIPTS.parent / f"BENCH_{label}.json").exists()



def test_bench_pairs_dry_run_alternates_the_sides(tmp_path):
    # per pair one --trace 0 run of each side's driver at the benchmark's
    # run length, the checkout first in the first pair, this tree first
    # in the second; a dry run runs nothing
    bench = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    other = tmp_path / "other"
    (other / "perfbench").mkdir(parents=True)
    (other / "perfbench" / "run.py").write_text("")
    proc = run_script("bench_pairs.py", tmp_path, "--checkout", str(other),
                      "--workload", "shipped-batch", "--pairs", "3",
                      "--seed", "7", "--dry-run")
    runs = [shlex.split(line) for line in proc.stdout.splitlines()]
    ours = str(SCRIPTS.parent / "perfbench" / "run.py")
    theirs = str(other / "perfbench" / "run.py")
    assert [cmd[1] for cmd in runs] == [theirs, ours, ours, theirs,
                                        theirs, ours]
    for cmd in runs:
        assert cmd[2:] == ["--workload", "shipped-batch", "--seed", "7",
                           "--seconds", str(bench["run_seconds"]),
                           "--trace", "0"]
    assert list(tmp_path.iterdir()) == [other]


def test_bench_pairs_dry_run_takes_the_workloads_in_turn(tmp_path):
    # a repeated --workload runs every pair of the first workload, in the
    # alternating order one workload gets, before the next one's
    other = tmp_path / "other"
    (other / "perfbench").mkdir(parents=True)
    (other / "perfbench" / "run.py").write_text("")
    proc = run_script("bench_pairs.py", tmp_path, "--checkout", str(other),
                      "--workload", "torus24-certify", "--workload",
                      "sphere256-certify", "--pairs", "2", "--dry-run")
    runs = [shlex.split(line) for line in proc.stdout.splitlines()]
    ours = str(SCRIPTS.parent / "perfbench" / "run.py")
    theirs = str(other / "perfbench" / "run.py")
    assert [(cmd[1], cmd[3]) for cmd in runs] == [
        (theirs, "torus24-certify"), (ours, "torus24-certify"),
        (ours, "torus24-certify"), (theirs, "torus24-certify"),
        (theirs, "sphere256-certify"), (ours, "sphere256-certify"),
        (ours, "sphere256-certify"), (theirs, "sphere256-certify")]


def test_bench_pairs_prints_one_summary_per_workload(tmp_path, monkeypatch,
                                                     capsys):
    # runs stubbed: every run's metrics are 1.0, the checkout's 2.0; one
    # workload prints its summary lines alone, several each under a header
    sys.path.insert(0, str(SCRIPTS))
    try:
        import bench_pairs
    finally:
        sys.path.remove(str(SCRIPTS))
    names = [m["name"] for m in bench_pairs.benchmark()["end_to_end"]]
    other = tmp_path / "other"
    (other / "perfbench").mkdir(parents=True)
    (other / "perfbench" / "run.py").write_text("")

    def fake_run(cmd, **kwargs):
        value = 2.0 if cmd[1].startswith(str(other)) else 1.0
        result = {"metrics": {n: {"value": value} for n in names}}
        return subprocess.CompletedProcess(cmd, 0, json.dumps(result), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main(["--checkout", str(other), "--workload",
                             "shipped-batch", "--pairs", "2"]) == 0
    single = capsys.readouterr().out.splitlines()
    assert [ln.split(" (")[0] for ln in single] == names
    assert "checkout 2 [2, 2] -> tree 1 [1, 1]" in single[0]
    assert bench_pairs.main(["--checkout", str(other), "--workload",
                             "torus24-certify", "--workload", "shipped-batch",
                             "--pairs", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == (
        ["== torus24-certify =="] + single + ["== shipped-batch =="] + single)


def test_bench_pairs_refuses_a_checkout_without_the_driver(tmp_path):
    proc = run_script("bench_pairs.py", tmp_path, "--checkout",
                      str(tmp_path / "absent"), "--workload",
                      "shipped-batch", code=2)
    assert "perfbench/run.py" in proc.stderr
    assert proc.stdout == ""

def test_body_diff_of_this_tree_against_itself_is_empty(tmp_path):
    # the same source on both sides: every scenario identical, exit 0
    proc = run_script("body_diff.py", tmp_path, "--checkout",
                      str(SCRIPTS.parent))
    lines = proc.stdout.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        "flat_torus", "sphere_product", "sphere_twist", "twisted_flat_c05",
        "twisted_flat_c10", "twisted_t3_c05", "torus24", "sphere256"]
    assert all(ln.endswith(", identical") for ln in lines)
    assert "twisted_flat_c10: exit 2, identical" in lines


def test_body_diff_matches_body_lines_by_section_and_key(tmp_path):
    # a line added or removed on one side does not shift the comparison
    # of the lines after it: each is matched by its section and key
    sys.path.insert(0, str(SCRIPTS))
    try:
        import body_diff
    finally:
        sys.path.remove(str(SCRIPTS))
    ours, theirs = tmp_path / "a.report.txt", tmp_path / "b.report.txt"
    theirs.write_text("== solve ==\nC = 2.2\nsolver_factor_nnz = 9\n"
                      "solver_nodes = 4\n\n== certificate ==\n"
                      "verdict = false\n# --- non-deterministic footer ---\n"
                      "time = 1\n")
    ours.write_text("== solve ==\nC = 2.2\nsolver_factor_nnz = 3\n"
                    "solver_jacobi_modes = 2\nsolver_nodes = 4\n\n"
                    "== certificate ==\n# --- non-deterministic footer ---\n"
                    "time = 2\n")
    assert body_diff.body_diffs(ours, theirs) == [
        "  a.report.txt: 'solver_factor_nnz = 9' -> "
        "'solver_factor_nnz = 3' (|diff| 6)",
        "  a.report.txt: 'verdict = false' removed",
        "  a.report.txt: 'solver_jacobi_modes = 2' added"]


def test_body_diff_refuses_a_checkout_without_the_package(tmp_path):
    proc = run_script("body_diff.py", tmp_path, "--checkout",
                      str(tmp_path / "absent"), code=2)
    assert "src/pscbench" in proc.stderr
    assert proc.stdout == ""
