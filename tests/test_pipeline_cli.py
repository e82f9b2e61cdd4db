"""End-to-end pipeline runs and the command line wrapper around them."""

import os
import subprocess
import sys
from functools import cached_property

import numpy as np
import pytest

from pscbench import cli, conformal, fd, metrics, pipeline, solver
from pscbench.config import parse_config
from pscbench.errors import ConfigError, HypothesisViolation
from pscbench.forcing import forcing_norm
from pscbench.grids import c1_norm, gradient, w_domains
from pscbench.metrics import MetricField, restrict_metric
from pscbench.pipeline import run_scenario
from pscbench.report import parse_report, write_field_csvs

from helpers import cli_env, record_factorizations

TWISTED_OK = """\
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

TWISTED_CRITICAL = """\
[metric]
name = twisted_flat
c = 1.0
"""

SPHERE_TWIST = """\
[domain]
backend = sphere-axisym
resolution = 48
t_nodes = 49

[metric]
name = sphere_twist
r = 1.0
beta0 = 0.5

[forcing]
p = 1
delta = 40.0
C = auto
"""

# sphere_twist at 97 t-nodes with a delta between the forcing norms at
# eps = 1/4 of the first C and the re-budgeted one (24.6595 and 24.6651):
# the re-budget halves eps, and 97 t-nodes resolve the monitor core of
# eps = 1/8
EPS_CHANGE_DELTA = 24.662
SPHERE_EPS_CHANGE = SPHERE_TWIST.replace("t_nodes = 49", "t_nodes = 97") \
    .replace("delta = 40.0", f"delta = {EPS_CHANGE_DELTA}")

FLAT = """\
[domain]
resolution = 8
t_nodes = 33

[metric]
name = product_flat

[forcing]
p = 1
delta = 120
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(args, env_extra=None, cwd=None):
    env = cli_env()
    env.pop("PSCBENCH_OUTPUT_DIR", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "pscbench", *args],
        capture_output=True, text=True, env=env, cwd=cwd)


# -- in-process pipeline ----------------------------------------------------

def test_stage_angle_stops_early(tmp_path):
    cfg = parse_config(write(tmp_path, "s.cfg", TWISTED_OK))
    rep = run_scenario(cfg, stage="angle")
    angle = rep.body["angle"]
    assert rep.stage == "angle"
    assert angle["elliptic"]
    assert angle["max_angle"] == pytest.approx(0.4636476090008061, abs=1e-12)
    assert angle["margin"] == pytest.approx(0.75, abs=1e-12)
    assert "solve" not in rep.body and "certificate" not in rep.body
    assert set(rep.fields) >= {"y", "angle", "margin_minor"}
    assert "u" not in rep.fields


def test_stage_solve_carries_solution(tmp_path):
    cfg = parse_config(write(tmp_path, "s.cfg", TWISTED_OK))
    rep = run_scenario(cfg, stage="solve")
    solve = rep.body["solve"]
    assert rep.stage == "solve"
    assert solve["C"] == pytest.approx(2.2)
    assert solve["epsilon"] == 0.5
    assert "certificate" not in rep.body
    assert rep.fields["u"].shape == (8, 8, 33)
    assert "dtt_max" in solve and "headroom" in solve


def test_stage_certify_full_fields(tmp_path):
    cfg = parse_config(write(tmp_path, "s.cfg", TWISTED_OK))
    rep = run_scenario(cfg)
    cert = rep.body["certificate"]
    assert rep.stage == "certify"
    assert cert["verdict"] is False
    assert "k2_max" in cert and cert["k2_max"] < 1.0
    for key in ("r_exact", "r_chain", "r_bound"):
        assert rep.fields[key].shape == (8, 8)
    # flat twisted slice: certified bound cannot be positive
    assert cert["min_r_bound"] < 1e-10


@pytest.mark.parametrize("c", [0.35, 0.5, 0.65])
def test_twisted_flat_torus_never_certifies(tmp_path, c):
    # negative control on the fast-diagonalization path: a flat 2-torus
    # admits no PSC metric, so min R_bound and min R_exact are round-off
    # about 0 and the verdict is false, whatever that round-off's sign
    text = ("[domain]\nresolution = 12\nt_nodes = 49\n\n"
            f"[metric]\nname = twisted_flat\nc = {c}\n\n"
            "[forcing]\np = 1\ndelta = 160.0\nC = auto\n")
    rep = run_scenario(parse_config(write(tmp_path, "s.cfg", text)))
    # the solve factors the slice operator only: 5 points on the 12^2 slice
    cert = rep.body["certificate"]
    assert rep.body["solve"]["solver_slice_nnz"] == 5 * 12 * 12
    assert cert["verdict"] is False
    assert abs(cert["min_r_bound"]) <= 1e-9
    assert abs(cert["min_r_exact"]) <= 1e-9


def test_auto_c_resolve_reuses_the_one_factorization(tmp_path,
                                                     monkeypatch):
    # the auto-C re-budget changes the forcing only, so a second solve
    # pass at a new epsilon must reuse the first pass's LU. A delta between
    # the two C values' forcing norms at eps = 1/4 makes the second C
    # calibrate to eps = 1/8 (SPHERE_EPS_CHANGE)
    text = SPHERE_TWIST.replace("t_nodes = 49", "t_nodes = 97")
    args = []
    solve_pass = pipeline._solve_pass
    monkeypatch.setattr(
        pipeline, "_solve_pass",
        lambda *a: args.append(a) or solve_pass(*a))
    first = run_scenario(parse_config(write(tmp_path, "s.cfg", text)),
                         stage="solve").body["solve"]
    # the re-budget keeps eps = 1/4 here: the second pass starts from u
    (config, w, _, _, eps, c_first), (*_, eps_second, _, start) = args
    assert eps == eps_second == 0.25 and first["epsilon"] == 0.25
    assert start is not None
    doms = w_domains(config.domain)
    h_x = restrict_metric(pipeline.build_slice_metric(config, doms["y"]),
                          doms["x"])
    t_axis = w.axis("t")
    norms = [forcing_norm(c, eps, config.p, h_x, t_axis)
             for c in (c_first, first["C"])]
    assert norms[0] < EPS_CHANGE_DELTA < norms[1]

    # the sphere's slice takes the block LU; count builds of the factor.
    # The slice matrices are built once per run too: L_X and B1's operator
    factorizations = record_factorizations(monkeypatch)
    matrices, passes = [], []
    operator_matrix = solver.operator_matrix
    for module in (solver, conformal):
        monkeypatch.setattr(
            module, "operator_matrix",
            lambda *a: matrices.append(1) or operator_matrix(*a))
    monkeypatch.setattr(
        pipeline, "_solve_pass",
        lambda *a: passes.append(a[4:]) or solve_pass(*a))
    rep = run_scenario(
        parse_config(write(tmp_path, "s.cfg", SPHERE_EPS_CHANGE)),
        stage="solve")
    # a changed epsilon solves afresh: no start
    solve = rep.body["solve"]
    assert passes == [(0.25, c_first), (0.125, first["C"], None)]
    assert (solve["C"], solve["epsilon"]) == (first["C"], 0.125)
    assert solve["solver_factor"] == "block_lu"
    assert len(factorizations) == 1
    assert len(matrices) == 2


def test_same_epsilon_rebudget_rescales_the_first_pass(tmp_path,
                                                       monkeypatch):
    # at an unchanged epsilon the second C only scales the forcing, so the
    # second pass starts from the first u times (C2 + 1)/(C1 + 1): it must
    # match a fresh solve pass at C2
    args, passes = [], []
    solve_pass = pipeline._solve_pass

    def recording(*a):
        args.append(a)
        passes.append(solve_pass(*a))
        return passes[-1]

    monkeypatch.setattr(pipeline, "_solve_pass", recording)
    rep = run_scenario(parse_config(write(tmp_path, "s.cfg", SPHERE_TWIST)),
                       stage="solve")
    solve = rep.body["solve"]
    (config, w, assembly, b1_op, eps, c_first), second = args
    assert second[:4] == (config, w, assembly, b1_op)
    assert second[4] == eps and second[5] == solve["C"] > c_first
    scale = (solve["C"] + 1.0) / (c_first + 1.0)
    assert np.array_equal(second[6], scale * passes[0][1].u)
    _, fresh, _, fresh_k1 = solve_pass(config, w, assembly, b1_op, eps,
                                       solve["C"])
    u, fresh_u = rep.fields["u"], fresh.u
    assert np.max(np.abs(u - fresh_u)) <= 1e-12 * np.max(np.abs(fresh_u))
    assert solve["K1"] == pytest.approx(fresh_k1, rel=1e-12, abs=0.0)
    # the reported residual is the scaled u's against C2's forcing, within
    # round-off of the fresh solve's, relative to the forcing's sup C2 + 1
    residual = solve["solver_residual_inf"]
    assert residual <= config.tolerance
    assert (abs(residual - fresh.residual_inf)
            <= 1e-12 * (solve["C"] + 1.0))


@pytest.mark.parametrize("text, diffs", [(TWISTED_OK, 5), (SPHERE_TWIST, 2)],
                         ids=["twisted_flat", "sphere_twist"])
def test_certificate_differentiates_phi_y_once(tmp_path, monkeypatch, text,
                                               diffs):
    # one derivative pass of phi_Y over Y's stored axes: first, second and
    # mixed stencils on the torus' x, y (2 + 2 + 1), first and second on
    # the sphere's rho; the lift reads the solve's C^1 norm, so it applies
    # no stencil at all
    calls = {"certificate": 0, "lift_solution": 0}
    inside = []
    apply_diff = fd.apply_diff

    def counting(*args):
        if inside:
            calls[inside[-1]] += 1
        return apply_diff(*args)

    def tagged(name, func):
        def run(*args, **kwargs):
            inside.append(name)
            try:
                return func(*args, **kwargs)
            finally:
                inside.pop()
        return run

    monkeypatch.setattr(fd, "apply_diff", counting)
    for name in calls:
        monkeypatch.setattr(pipeline, name,
                            tagged(name, getattr(pipeline, name)))
    run_scenario(parse_config(write(tmp_path, "s.cfg", text)))
    assert calls == {"certificate": diffs, "lift_solution": 0}


@pytest.mark.parametrize("text, w_diffs, passes",
                         [(TWISTED_OK, 4, 1), (SPHERE_TWIST, 3, 2),
                          (SPHERE_EPS_CHANGE, 3, 2)],
                         ids=["twisted_flat", "sphere_twist",
                              "sphere_eps_change"])
def test_solution_differentiated_once_per_pass(tmp_path, monkeypatch, text,
                                               w_diffs, passes):
    # u is differentiated once, after C and epsilon are settled, whatever
    # the re-budget did: none on the flat torus (its K1 is round-off), a
    # second pass at the same epsilon on sphere_twist, one at a halved
    # epsilon on SPHERE_EPS_CHANGE. The W-sized stencils are u's gradient
    # for the C^1 norm (the torus' x, y, t; the sphere's rho, t) and
    # d^2u/dt^2 for eta'. B1 is a sparse slice operator (no stencil pass),
    # and K2's gradient is taken on the t = 0 slice, so neither counts here.
    cfg = parse_config(write(tmp_path, "s.cfg", text))
    w_shape = w_domains(cfg.domain)["w"].shape
    inside = {name: 0 for name in ("solve_dirichlet", "dtt_monitor",
                                   "k2_field", "lift_solution",
                                   "laplacian_comparison")}
    stack, w_sized = [], []
    apply_diff = fd.apply_diff

    def counting(values, *args):
        if values.shape[:len(w_shape)] == w_shape:
            w_sized.append(1)
        for name in stack:
            inside[name] += 1
        return apply_diff(values, *args)

    def tagged(name, func):
        def run(*args, **kwargs):
            stack.append(name)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
        return run

    monkeypatch.setattr(fd, "apply_diff", counting)
    for name in inside:
        monkeypatch.setattr(pipeline, name,
                            tagged(name, getattr(pipeline, name)))
    ran = []
    solve_pass = pipeline._solve_pass
    monkeypatch.setattr(
        pipeline, "_solve_pass",
        lambda *args: ran.append(1) or solve_pass(*args))
    run_scenario(cfg)
    assert len(ran) == passes
    assert len(w_sized) == w_diffs
    assert inside == dict.fromkeys(inside, 0)


@pytest.mark.parametrize("text", [TWISTED_OK, SPHERE_TWIST,
                                  SPHERE_EPS_CHANGE],
                         ids=["twisted_flat", "sphere_twist",
                              "sphere_eps_change"])
def test_reported_reads_are_those_of_the_final_u(tmp_path, text):
    # the report's C^1 norm, eta' and K1 are read from the u it carries,
    # bitwise, on every re-budget route
    cfg = parse_config(write(tmp_path, "s.cfg", text))
    rep = run_scenario(cfg, stage="solve")
    w, u = rep.fields["w"], rep.fields["u"]
    h = pipeline.build_slice_metric(cfg, w_domains(cfg.domain)["y"])
    b1_op = conformal.b1_operator(h, restrict_metric(h, w.without("t")))
    solve = rep.body["solve"]
    assert solve["c1_u"] == c1_norm(u, gradient(w, u))
    assert solve["dtt_max"] == solver.dtt_monitor(w.diff(u, "t", 2), w,
                                                  solve["epsilon"])
    assert solve["K1"] == conformal.laplacian_comparison(w, u, b1_op)[1]


def test_flat_torus_round_off_k1_runs_no_rebudget(monkeypatch):
    # on a flat slice B1 vanishes and K1 is round-off, far below
    # K1_ROUNDOFF (C + 1): C and epsilon are settled by the first pass
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "twisted_flat_c05.cfg")
    calls = {"calibrate_epsilon": 0, "_solve_pass": 0}
    for name in calls:
        func = getattr(pipeline, name)
        monkeypatch.setattr(
            pipeline, name,
            lambda *a, name=name, func=func: calls.__setitem__(
                name, calls[name] + 1) or func(*a))
    solve = run_scenario(parse_config(shipped), stage="solve").body["solve"]
    assert calls == {"calibrate_epsilon": 1, "_solve_pass": 1}
    assert 0.0 <= solve["K1"] <= pipeline.K1_ROUNDOFF * (solve["C"] + 1.0)
    assert solve["C"] == pytest.approx(2.2, rel=1e-15)


@pytest.mark.parametrize("text", [TWISTED_OK, SPHERE_TWIST],
                         ids=["twisted_flat", "sphere_twist"])
def test_curvature_evaluated_once_per_metric(tmp_path, monkeypatch, text):
    # each metric caches its own Christoffel symbols and Ricci tensor, and
    # a run builds metrics on Y and X only: gamma on h (Y), h_X and the
    # deformed slice metric (both X); Ricci on h and the deformed slice,
    # since R_g of g = h + dt^2 is R_h. No metric on M or W is built
    cfg = parse_config(write(tmp_path, "s.cfg", text))
    label = {dom.names: key.upper()
             for key, dom in w_domains(cfg.domain).items()}
    evals = []
    for prop in ("gamma", "ricci"):
        def counted(metric, prop=prop, func=vars(MetricField)[prop].func):
            evals.append((prop, label[metric.domain.names]))
            return func(metric)
        wrapped = cached_property(counted)
        wrapped.__set_name__(MetricField, prop)
        monkeypatch.setattr(MetricField, prop, wrapped)
    run_scenario(cfg)
    assert sorted(evals) == [("gamma", "X"), ("gamma", "X"), ("gamma", "Y"),
                             ("ricci", "X"), ("ricci", "Y")]


def test_run_restricts_h_to_x_once(tmp_path, monkeypatch):
    # the certificate's exact slice curvature reads the run's h_X: h is
    # restricted to X, and h_X built and validated, once per run
    calls = []
    restrict = metrics.restrict_metric
    for module in (metrics, pipeline, conformal):
        monkeypatch.setattr(
            module, "restrict_metric",
            lambda *a, **kw: calls.append(1) or restrict(*a, **kw),
            raising=False)
    run_scenario(parse_config(write(tmp_path, "s.cfg", TWISTED_OK)))
    assert len(calls) == 1


def test_unresolvable_monitor_core_exits_4_before_any_solve(tmp_path,
                                                           monkeypatch):
    # at 17 t-nodes every width calibration could pick leaves the monitor
    # core |t| < eps/4 with fewer than 3 nodes: the run is refused while
    # calibrating, not after a solve whose eta' it cannot read
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "twisted_flat_c05.cfg")
    with open(shipped, encoding="utf-8") as fh:
        text = fh.read().replace("t_nodes = 49", "t_nodes = 17")
    assert "t_nodes = 17" in text
    solves = []
    solve_dirichlet = pipeline.solve_dirichlet
    monkeypatch.setattr(
        pipeline, "solve_dirichlet",
        lambda *args, **kw: solves.append(1) or solve_dirichlet(*args, **kw))
    with pytest.raises(ConfigError, match="contains only 1 t-nodes") as err:
        run_scenario(parse_config(write(tmp_path, "tf17.cfg", text)))
    assert err.value.exit_code == 4
    assert solves == []


def test_unknown_stage_rejected(tmp_path):
    cfg = parse_config(write(tmp_path, "s.cfg", TWISTED_OK))
    with pytest.raises(Exception, match="unknown stage"):
        run_scenario(cfg, stage="lint")


def test_critical_angle_aborts_with_hypothesis_violation(tmp_path):
    cfg = parse_config(write(tmp_path, "s.cfg", TWISTED_CRITICAL))
    with pytest.raises(HypothesisViolation, match="angle condition fails"):
        run_scenario(cfg, stage="angle")
    assert HypothesisViolation.exit_code == 2


# -- subprocess CLI ---------------------------------------------------------

def test_cli_certify_completes_and_writes(tmp_path):
    cfg = write(tmp_path, "flat.cfg", FLAT)
    out = str(tmp_path / "out")
    res = run_cli(["certify", cfg, "--output-dir", out])
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0].startswith("flat: stage=certify max_angle=0 margin=1")
    assert any(ln.startswith("flat: verdict=false min_r_bound=")
               for ln in lines)
    wrote = [ln for ln in lines if ": wrote " in ln]
    names = sorted(ln.rsplit(os.sep, 1)[1] for ln in wrote)
    assert names == ["flat.report.ini", "flat.report.txt", "flat_angle.csv",
                     "flat_certificate.csv", "flat_u.csv"]
    for name in names:
        assert os.path.exists(os.path.join(out, name))
    # flat slice scalar curvature is zero, so the PSC hypothesis flag fires;
    # the printed line is the report body's flag, word for word
    with open(os.path.join(out, "flat.report.txt"), encoding="utf-8") as fh:
        flag = next(ln.split(" = ", 1)[1].rstrip("\n") for ln in fh
                    if ln.startswith("flag = "))
    assert flag.startswith("PSC hypothesis fails: min R_h = ")
    assert f"flat: flag: {flag}" in lines


@pytest.mark.parametrize("stem", ["sphere_twist", "twisted_flat_c05",
                                  "twisted_t3_c05"])
def test_certify_leaves_no_scipy_module_loaded(tmp_path, stem):
    # scipy is a test dependency only: a whole certify run, the n = 4
    # control's blocks of order 288 included, loads no scipy module, not
    # even late. Checked after the run in a fresh process
    cfg = os.path.join(CONFIGS, f"{stem}.cfg")
    code = ("import sys; from pscbench import cli; "
            f"code = cli.main(['certify', {cfg!r}, '--output-dir', "
            f"{str(tmp_path)!r}]); "
            "print(code, sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=cli_env(), check=True)
    assert res.stdout.splitlines()[-1] == "0 []"


ANGLE_LINES = [
    ("run", "stage"), ("run", "n"),
    *(("config", key) for key in (
        "domain.backend", "domain.dim_x", "domain.resolution",
        "domain.t_nodes", "forcing.C", "forcing.delta", "forcing.p",
        "metric.c", "metric.name", "solver.tolerance")),
    *(("angle", key) for key in (
        "max_angle", "margin", "elliptic", "min_r_h", "flag"))]
SOLVE_LINES = [("solve", key) for key in (
    "C", "K1", "epsilon", "forcing_norm", "c1_u", "dtt_max", "headroom",
    "solver_factor", "solver_factor_nnz", "solver_jacobi_modes",
    "solver_jacobi_sweeps", "solver_nodes", "solver_refinements",
    "solver_residual_inf", "solver_slice_nnz")]
CERTIFICATE_LINES = [("certificate", key) for key in (
    "k2_max", "min_r_exact", "min_r_chain", "min_r_bound", "chain_gap_max",
    "bound_minus_chain_max", "verdict")]


@pytest.mark.parametrize("verb, lines", [
    ("check-angle", ANGLE_LINES),
    ("solve", ANGLE_LINES + SOLVE_LINES),
    ("certify", ANGLE_LINES + SOLVE_LINES + CERTIFICATE_LINES)],
    ids=["check-angle", "solve", "certify"])
def test_report_body_lines_in_order(tmp_path, verb, lines):
    # the report body's (section, key) sequence of each verb, pinned: a
    # line added, dropped, renamed or moved shows here
    cfg = write(tmp_path, "tw.cfg", TWISTED_OK)
    out = str(tmp_path / "out")
    assert cli.main([verb, cfg, "--output-dir", out]) == 0
    doc = parse_report(os.path.join(out, "tw.report.ini"))
    assert [(section, key) for section, body in doc.body.items()
            for key in body] == lines


def test_cli_check_angle_writes_report_only(tmp_path):
    cfg = write(tmp_path, "tw.cfg", TWISTED_OK)
    out = str(tmp_path / "out")
    res = run_cli(["check-angle", cfg, "--output-dir", out])
    assert res.returncode == 0, res.stderr
    assert "tw: stage=angle max_angle=0.463648 margin=0.75" in res.stdout
    assert sorted(os.listdir(out)) == ["tw.report.ini", "tw.report.txt",
                                       "tw_angle.csv"]


def test_cli_critical_twist_exits_2(tmp_path):
    cfg = write(tmp_path, "crit.cfg", TWISTED_CRITICAL)
    res = run_cli(["check-angle", cfg, "--output-dir", str(tmp_path)])
    assert res.returncode == 2
    assert "error[exit 2]:" in res.stderr
    assert "angle condition fails" in res.stderr


def test_cli_invalid_config_exits_4(tmp_path):
    cfg = write(tmp_path, "bad.cfg", "[metric]\nname = moebius\n")
    res = run_cli(["certify", cfg])
    assert res.returncode == 4
    assert "error[exit 4]:" in res.stderr
    assert "unknown metric" in res.stderr


def test_cli_output_dir_env_and_flag_precedence(tmp_path):
    cfg = write(tmp_path, "tw.cfg", TWISTED_OK)
    env_dir = str(tmp_path / "from_env")
    res = run_cli(["check-angle", cfg],
                  env_extra={"PSCBENCH_OUTPUT_DIR": env_dir})
    assert res.returncode == 0, res.stderr
    assert os.path.exists(os.path.join(env_dir, "tw.report.txt"))
    flag_dir = str(tmp_path / "from_flag")
    res = run_cli(["check-angle", cfg, "--output-dir", flag_dir],
                  env_extra={"PSCBENCH_OUTPUT_DIR": env_dir})
    assert res.returncode == 0, res.stderr
    assert os.path.exists(os.path.join(flag_dir, "tw.report.txt"))
    assert not os.path.exists(os.path.join(env_dir, "tw_angle.csv")) or \
        os.path.exists(os.path.join(flag_dir, "tw_angle.csv"))


def test_cli_batch_worst_code_wins(tmp_path):
    scen = tmp_path / "scenarios"
    scen.mkdir()
    write(scen, "a_flat.cfg", FLAT)
    write(scen, "b_crit.cfg", TWISTED_CRITICAL)
    out = str(tmp_path / "out")
    res = run_cli(["batch", str(scen), "--output-dir", out])
    assert res.returncode == 2
    assert "a_flat: verdict=false" in res.stdout
    assert "b_crit: error[exit 2]:" in res.stderr
    assert os.path.exists(os.path.join(out, "a_flat.report.txt"))


def test_cli_batch_into_its_input_dir_twice(tmp_path):
    # the reports a batch writes next to its configs are not configs: a
    # second run over the same directory must see the same two scenarios
    scen = tmp_path / "scenarios"
    scen.mkdir()
    write(scen, "a_flat.cfg", FLAT)
    write(scen, "b_crit.cfg", TWISTED_CRITICAL)
    first = run_cli(["batch", str(scen), "--output-dir", str(scen)])
    assert os.path.exists(os.path.join(scen, "a_flat.report.ini"))
    second = run_cli(["batch", str(scen), "--output-dir", str(scen)])
    assert first.returncode == second.returncode == 2, second.stderr
    assert "report" not in second.stderr


def test_cli_unwritable_output_dir_exits_4(tmp_path):
    # an output path below a regular file cannot be created: a located
    # configuration error, not a traceback
    cfg = write(tmp_path, "flat.cfg", FLAT)
    blocker = write(tmp_path, "blocker", "")
    out = os.path.join(blocker, "sub")
    res = run_cli(["certify", cfg, "--output-dir", out])
    assert res.returncode == 4, res.stderr
    assert "error[exit 4]:" in res.stderr and out in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_batch_into_unwritable_dir_attempts_every_config(tmp_path):
    scen = tmp_path / "scenarios"
    scen.mkdir()
    write(scen, "a_flat.cfg", FLAT)
    write(scen, "b_flat.cfg", FLAT)
    out = os.path.join(write(tmp_path, "blocker", ""), "sub")
    res = run_cli(["batch", str(scen), "--output-dir", out])
    assert res.returncode == 4, res.stderr
    for stem in ("a_flat", "b_flat"):
        assert f"{stem}: error[exit 4]: cannot create output directory " \
               f"{out}" in res.stderr
    assert "Traceback" not in res.stderr


def test_field_csvs_into_unwritable_dir_raise_config_error(tmp_path):
    cfg = parse_config(write(tmp_path, "tw.cfg", TWISTED_OK))
    rep = run_scenario(cfg, stage="angle")
    blocker = write(tmp_path, "blocker", "")
    with pytest.raises(ConfigError, match=f"cannot write {blocker}"):
        write_field_csvs(rep, blocker, "tw")


def test_cli_batch_empty_dir_exits_4(tmp_path):
    scen = tmp_path / "none"
    scen.mkdir()
    res = run_cli(["batch", str(scen)])
    assert res.returncode == 4
    assert "no scenario configs" in res.stderr


# -- shipped configs --------------------------------------------------------

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# (C, epsilon, forcing_norm) as the reports print them, at 12 digits
SHIPPED_SOLVE = {
    "flat_torus": (2.2, 0.5, 94.7482022505),
    "sphere_product": (2.2, 0.25, 15.0823365906),
    "sphere_twist": (3.84756472335, 0.25, 24.6651144865),
    "twisted_flat_c05": (2.2, 0.5, 105.931710489),
    "twisted_t3_c05": (2.2, 0.5, 665.588566909),
}
# (solver_factor, solver_factor_nnz, solver_jacobi_modes) over 24 even
# t-modes: the diagonally dominant modes are iterated, the low ones
# factored by the block LU. The sphere slices (48 colatitude nodes, two
# sub- and super-diagonals: 24 blocks of 2 x 2) iterate none and are
# reduced cyclically, storing 106 blocks per mode (58, 28, 13 and 6 over
# the levels of 24, 12, 6 and 3 blocks, and the last inverse). The 12^2
# torus slices, with both periodic axes in ring order (kl = ku = 24: 6
# blocks of 24 x 24), factor 4 (product) or 3 (twisted) modes in order,
# storing 6 Schur complement inverses and 6 multipliers per mode and L_X's
# 6 upper blocks. The 12^3 slice of the n = 4 control (kl = ku = 288: 6
# blocks) does the same for its 4 low modes
SHIPPED_FACTOR = {
    "flat_torus": ("block_lu", (2 * 4 + 1) * 6 * 24 ** 2, 20),
    "sphere_product": ("block_lu", 24 * 106 * 2 ** 2, 0),
    "sphere_twist": ("block_lu", 24 * 106 * 2 ** 2, 0),
    "twisted_flat_c05": ("block_lu", (2 * 3 + 1) * 6 * 24 ** 2, 21),
    "twisted_t3_c05": ("block_lu", (2 * 4 + 1) * 6 * 288 ** 2, 20),
}
# (min_r_bound, min_r_exact) of the positive cases; perfbench's seed-0
# references for the same configs
SPHERE_REFERENCES = {
    "sphere_product": (1.29151187294, 1.29225843184),
    "sphere_twist": (0.275687753179, 0.276390295695),
}


@pytest.mark.parametrize("stem", sorted(SHIPPED_SOLVE) + ["twisted_flat_c10"])
def test_shipped_config_outcomes(tmp_path, stem):
    # the invariants every change must keep on the shipped scenarios:
    # exit codes, the forcing budget, the verdicts and the certified
    # minima (a flat slice's minima are round-off, checked against 0)
    out = str(tmp_path / "out")
    code = cli.main(["certify", os.path.join(CONFIGS, f"{stem}.cfg"),
                     "--output-dir", out])
    report = os.path.join(out, f"{stem}.report.ini")
    if stem == "twisted_flat_c10":
        # the angle check aborts the run before any factor: no report
        assert code == 2
        assert not os.path.exists(report)
        return
    assert code == 0
    doc = parse_report(report)
    solve = tuple(float(doc.get("solve", key))
                  for key in ("C", "epsilon", "forcing_norm"))
    assert solve == SHIPPED_SOLVE[stem]
    factor, factor_nnz, jacobi_modes = SHIPPED_FACTOR[stem]
    assert doc.get("solve", "solver_factor") == factor
    nnz = int(doc.get("solve", "solver_factor_nnz"))
    assert nnz == factor_nnz
    assert int(doc.get("solve", "solver_jacobi_modes")) == jacobi_modes
    minima = [float(doc.get("certificate", key))
              for key in ("min_r_bound", "min_r_exact", "min_r_chain")]
    if stem in SPHERE_REFERENCES:
        assert doc.get("certificate", "verdict") == "true"
        for value, ref in zip(minima, SPHERE_REFERENCES[stem]):
            assert abs(value - ref) <= 1e-8
    else:
        assert doc.get("certificate", "verdict") == "false"
        assert max(abs(v) for v in minima) <= 1e-9
