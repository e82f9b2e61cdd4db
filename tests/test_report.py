"""Report rendering, parsing, and the determinism contract.

Two runs of the same scenario must agree byte for byte above the footer
mark; everything timing-dependent lives below it.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from pscbench.errors import ConfigError, NumericalFailure
from pscbench.config import parse_config
from pscbench.grids import DomainSpec, TORUS, build_domain, fields_to_csv
from pscbench.pipeline import PSC_FLAG, run_scenario
from pscbench.report import (FOOTER_MARK, RunReport, emit_report,
                             parse_report, render_report, report_pairs,
                             write_field_csvs)

from helpers import serialize_report_doc

SMALL = """\
[domain]
resolution = 8
t_nodes = 33

[metric]
name = twisted_flat
c = 0.5

[forcing]
p = 1
delta = 120
"""


def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return parse_config(str(path))


def body(text):
    return text.split(FOOTER_MARK)[0]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def angle_only_report():
    return RunReport("angle", {
        "run": {"stage": "angle", "n": 3},
        "config": {"metric.name": "product_flat"},
        "angle": {"max_angle": 0.0, "margin": 1.0, "elliptic": True,
                  "min_r_h": 2.0, "flag": "none"}})


def shipped_angle_report(stem):
    return run_scenario(parse_config(str(CONFIGS / f"{stem}.cfg")),
                        stage="angle")


def test_two_runs_render_identically(tmp_path):
    cfg = small_config(tmp_path)
    a = render_report(run_scenario(cfg))
    b = render_report(run_scenario(cfg))
    assert body(a) == body(b)
    sa = render_report(run_scenario(cfg), fmt="structured")
    sb = render_report(run_scenario(cfg), fmt="structured")
    assert body(sa) == body(sb)
    # the two formats carry the same pairs, only framing differs
    assert "pscbench scenario report" in a
    assert "== certificate ==" in a
    assert "[certificate]" in sa


def test_structured_report_parses_back_byte_exact(tmp_path):
    cfg = small_config(tmp_path)
    path = str(tmp_path / "run.ini")
    emit_report(run_scenario(cfg), "structured", path)
    doc = parse_report(path)
    assert serialize_report_doc(doc) == open(path).read()
    assert doc.get("certificate", "verdict") == "false"
    assert doc.get("run", "stage") == "certify"
    assert doc.get("config", "metric.c") == "0.5"
    assert "elliptic" in doc.body["angle"]
    assert doc.get("nope", "missing") is None


def test_footer_carries_wall_time(tmp_path):
    cfg = small_config(tmp_path)
    text = render_report(run_scenario(cfg))
    footer = text.split(FOOTER_MARK)[1]
    assert "wall_time_s = " in footer
    value = float(footer.strip().split(" = ")[1])
    assert value >= 0.0


def test_psc_flag_line_has_both_texts():
    # the flat torus' slice scalar curvature is zero: flagged, not fatal
    rep = shipped_angle_report("flat_torus")
    text = render_report(rep)
    flag_lines = [ln for ln in text.splitlines() if PSC_FLAG in ln]
    assert len(flag_lines) == 1
    line = flag_lines[0]
    assert line.startswith("flag = PSC hypothesis fails: min R_h = 0")
    assert "(PSC hypothesis on h fails)" in line


def test_healthy_angle_stage_reports_no_flag():
    rep = shipped_angle_report("sphere_product")
    text = render_report(rep)
    assert PSC_FLAG not in text
    assert "flag = none" in text
    # angle-only report carries no later sections
    assert "== solve ==" not in text
    assert "== certificate ==" not in text


def test_body_values_print_by_type():
    # a bool before its int reading, floats (np.float64 too) at 12 digits,
    # everything else as str, in the body's order
    rep = RunReport("solve", {"solve": {
        "elliptic": True, "verdict": False, "C": np.float64(2.2),
        "epsilon": 0.1 + 0.2, "solver_nodes": 7, "solver_factor": "banded"}})
    assert report_pairs(rep) == [
        ("solve", "elliptic", "true"), ("solve", "verdict", "false"),
        ("solve", "C", "2.2"), ("solve", "epsilon", "0.3"),
        ("solve", "solver_nodes", "7"), ("solve", "solver_factor", "banded")]


def test_nonfinite_value_refuses_to_emit():
    rep = angle_only_report()
    rep.body["angle"]["max_angle"] = math.nan
    with pytest.raises(NumericalFailure, match="not finite"):
        render_report(rep)


def test_unknown_format_rejected():
    with pytest.raises(ConfigError, match="unknown report format"):
        render_report(angle_only_report(), fmt="yaml")


def write_report(path):
    """emit_report a structured report to `path`; the bytes it must hold."""
    rep = angle_only_report()
    emit_report(rep, "structured", str(path))
    return render_report(rep, "structured").encode("utf-8")


def write_dump(path):
    """fields_to_csv a small slice field to `path`; the bytes it must hold
    (those of a dump into a new file)."""
    x = build_domain(DomainSpec(TORUS, 2, (4, 5), 5)).without("t")
    cols = {"f": np.cos(x.mesh("x")) / 3.0 * np.ones(x.shape)}
    fields_to_csv(path, x, cols)
    fresh = path.with_name("fresh_" + path.name)
    fields_to_csv(fresh, x, cols)
    return fresh.read_bytes()


WRITERS = {"report": write_report, "dump": write_dump}


@pytest.mark.parametrize("writer", WRITERS)
def test_writer_leaves_exactly_the_new_bytes(tmp_path, writer):
    # a longer file is cut to the new length, a shorter one grows to it
    path = tmp_path / "out.txt"
    path.write_bytes(b"\xff\n" * (1 << 19))
    want = WRITERS[writer](path)
    assert path.read_bytes() == want
    path.write_bytes(b"x")
    assert WRITERS[writer](path) == want
    assert path.read_bytes() == want


@pytest.mark.parametrize("writer", WRITERS)
def test_writer_keeps_inode_permissions_and_hard_links(tmp_path, writer):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old contents\n" * 1000)
    path.chmod(0o640)
    link = tmp_path / "link.txt"
    os.link(path, link)
    before = path.stat()
    want = WRITERS[writer](path)
    after = path.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert link.read_bytes() == path.read_bytes() == want


@pytest.mark.parametrize("writer", WRITERS)
def test_writer_writes_through_a_symlink_to_dev_null(tmp_path, writer):
    path = tmp_path / "out.txt"
    path.symlink_to(os.devnull)
    WRITERS[writer](path)
    assert path.is_symlink()


def test_reports_are_utf8_of_the_rendered_text(tmp_path):
    rep = angle_only_report()
    table = "/data/métrique/é.csv"
    rep.body["config"]["metric.components_file"] = table
    for fmt, name in (("text", "r.report.txt"), ("structured", "r.report.ini")):
        path = tmp_path / name
        emit_report(rep, fmt, str(path))
        assert path.read_bytes() == render_report(rep, fmt).encode("utf-8")
    path = tmp_path / "r.report.ini"
    doc = parse_report(str(path))
    assert doc.get("config", "metric.components_file") == table
    assert serialize_report_doc(doc).encode("utf-8") == path.read_bytes()


def test_write_field_csvs_emits_three_tables(tmp_path):
    cfg = small_config(tmp_path)
    rep = run_scenario(cfg)
    written = write_field_csvs(rep, str(tmp_path), "small")
    names = sorted(p.rsplit("/", 1)[1] for p in written)
    assert names == ["small_angle.csv", "small_certificate.csv",
                     "small_u.csv"]
    head = open(str(tmp_path / "small_angle.csv")).readline().strip()
    assert head == "x,y,angle,margin_minor"
    head = open(str(tmp_path / "small_u.csv")).readline().strip()
    assert head == "x,y,t,u"
    head = open(str(tmp_path / "small_certificate.csv")).readline().strip()
    assert head == "x,y,r_exact,r_chain,r_bound"
    data = np.loadtxt(str(tmp_path / "small_u.csv"), delimiter=",",
                      skiprows=1)
    assert data.shape == (8 * 8 * 17, 4)


def test_u_dump_holds_the_t_nonnegative_rows_of_the_full_dump(tmp_path):
    rep = run_scenario(small_config(tmp_path), stage="solve")
    w, u = rep.fields["w"], rep.fields["u"]
    n_t = w.axis("t").n
    write_field_csvs(rep, str(tmp_path), "half")
    half = (tmp_path / "half_u.csv").read_text().splitlines()
    # the oracle: one row per node of all of W
    fields_to_csv(tmp_path / "full_u.csv", w, {"u": u})
    full = (tmp_path / "full_u.csv").read_text().splitlines()
    assert half[0] == full[0] == "x,y,t,u"
    rows = np.array(full[1:]).reshape(8, 8, n_t)
    kept = rows[..., n_t // 2:]
    assert kept.shape[-1] == n_t // 2 + 1
    assert half[1:] == kept.ravel().tolist()
    # u(-t) = u(t) rebuilds the full u from the kept rows, to 12 digits
    data = np.loadtxt(tmp_path / "half_u.csv", delimiter=",", skiprows=1)
    assert np.all(data[:, 2].reshape(8, 8, -1) >= 0.0)
    upper = data[:, 3].reshape(8, 8, -1)
    rebuilt = np.concatenate([np.flip(upper[..., 1:], -1), upper], axis=-1)
    assert np.all(np.abs(rebuilt - u) <= 5e-12 * np.abs(u))


def test_u_dump_refuses_a_u_that_is_not_even(tmp_path):
    rep = run_scenario(small_config(tmp_path), stage="solve")
    u = rep.fields["u"].copy()
    u[3, 4, 2] += 1e-15 * np.max(np.abs(u))
    rep.fields["u"] = u
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(NumericalFailure, match="not even in t") as err:
        write_field_csvs(rep, str(out), "odd")
    assert err.value.exit_code == 3
    assert not list(out.iterdir())


def test_angle_stage_writes_only_angle_csv(tmp_path):
    cfg = small_config(tmp_path)
    rep = run_scenario(cfg, stage="angle")
    written = write_field_csvs(rep, str(tmp_path), "partial")
    names = sorted(p.rsplit("/", 1)[1] for p in written)
    assert names == ["partial_angle.csv"]
