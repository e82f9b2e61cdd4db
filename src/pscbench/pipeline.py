"""Scenario orchestration in the order the construction needs.

angle -> ellipticity -> forcing budget -> Dirichlet solve -> profile
monitor -> conformal lift -> certificate. Each stage consumes only what
earlier stages produced, and a run aborts at the first stage whose
hypothesis fails: there is no point solving a PDE whose operator has
already lost ellipticity.

Stages are addressable ("angle", "solve", "certify") so the CLI verbs can
stop early; a stopped run still reports everything it measured.

Each hypothesis or guard is decided at one site, in run order (exit code
in brackets):

  metric        finite, symmetric, positive definite (MetricField) [3;
                4 for a components_file]
  angle         h(mu, d_theta) > 0 (normal.normal_frame) [3];
                max angle < pi/4, then margin 1 - |V|^2 > MARGIN_FLOOR
                (here) [2]: the margin is the operator's ellipticity, and
                solver.assemble does not check it again
  slice data    mu unit and normal to X (curvature.hypersurface_data) [3]
  forcing       a width with enough plateau and monitor nodes
                (forcing.calibrate_epsilon) [4]
  solve         nonsingular block LU (solver.assemble, right before the
                first solve pass), residual <= tolerance
                (solver.solve_dirichlet) [3]
  lift          min(1 + u) > POSITIVITY_FLOOR and C^1 < 1 on all of W
                (conformal.lift_solution) [3]
  certify       max|K2| < 1, right after K2 (here) [3]
"""

from __future__ import annotations

import math
import time

import numpy as np

from .conformal import (b1_operator, certificate, headroom_value, k2_field,
                        lift_solution, laplacian_comparison, select_C)
from .config import RunConfig
from .curvature import hypersurface_data
from .errors import ConfigError, HypothesisViolation, NumericalFailure
from .forcing import build_bump, calibrate_epsilon, forcing_norm
from .grids import c1_norm, gradient, w_domains
from .metrics import load_metric_csv, make_metric, restrict_metric
from .normal import MARGIN_FLOOR, normal_frame
from .report import RunReport
from .solver import assemble, dtt_monitor, solve_dirichlet

STAGES = ("angle", "solve", "certify")
# The auto-C re-budget runs only when the first pass's K1 exceeds this
# multiple of the forcing's sup C + 1: below it K1 is round-off (a flat
# slice's B1 is zero up to ~1e-15) and a re-budget would move C by an ulp
K1_ROUNDOFF = 1e-12
# the angle section's flag when min R_h <= 0: flagged, not fatal
PSC_FLAG = "PSC hypothesis fails"


def build_slice_metric(config: RunConfig, dom_y):
    if config.metric_name == "csv":
        return load_metric_csv(dom_y, config.components_file)
    return make_metric(config.metric_name, dom_y, **config.metric_params)


def _solve_pass(config: RunConfig, w, assembly, b1_op, epsilon, c_value,
                start=None):
    """One solve pass at a fixed C and epsilon: build the bump, solve with
    the run's one assembly (C scales only the forcing), from `start` when
    given (solver.solve_dirichlet), and apply the run's one B1 operator
    b1_op to u. Returns (forcing, solve, B1 at t = 0, K1): the certificate
    reads B1 on the t = 0 slice only, and a W-sized B1 kept alive through
    it raised the peak RSS of the 256 x 129 sphere run by 0.8 MB."""
    forcing = build_bump(c_value, epsilon, w)
    solve = solve_dirichlet(assembly, forcing, tolerance=config.tolerance,
                            start=start)
    b1, k1 = laplacian_comparison(w, solve.u, b1_op)
    return forcing, solve, w.at_t0(b1), k1


def run_scenario(config: RunConfig, stage: str = "certify") -> RunReport:
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {STAGES}")
    t_start = time.perf_counter()
    doms = w_domains(config.domain)
    h = build_slice_metric(config, doms["y"])
    n = doms["y"].dim

    # -- angle and ellipticity (the hypotheses) --------------------------
    frame = normal_frame(h)
    min_r_h = float(np.min(h.scalar))
    flag = "none" if min_r_h > 0.0 else (
        f"{PSC_FLAG}: min R_h = {min_r_h:.12g} <= 0 "
        f"(PSC hypothesis on h fails)")
    report = RunReport(stage, {
        "run": {"stage": stage, "n": n},
        "config": dict(sorted(config.echo.items())),
        "angle": {"max_angle": frame.max_angle, "margin": frame.margin,
                  "elliptic": bool(frame.is_elliptic), "min_r_h": min_r_h,
                  "flag": flag},
    }, fields={"y": doms["y"], "angle": frame.angle,
               "margin_minor": frame.margin_field})
    if frame.max_angle >= math.pi / 4.0:
        raise HypothesisViolation(
            f"angle condition fails: max angle {frame.max_angle:.6f} >= "
            f"pi/4 = {math.pi / 4.0:.6f}")
    if not frame.is_elliptic:
        raise HypothesisViolation(
            f"ellipticity margin {frame.margin:.3e} <= {MARGIN_FLOOR:g}: "
            f"operator is not elliptic")
    if stage == "angle":
        report.wall_time = time.perf_counter() - t_start
        return report

    # -- forcing budget and Dirichlet solve ------------------------------
    # g = h + dt^2 is a product and V is tangent to X, so the operator is
    # built from slice data: h_X, V's X components and R_g = R_h
    x, w = doms["x"], doms["w"]
    t_axis = w.axis("t")
    h_x = restrict_metric(h, x)
    v_x = frame.v[..., [doms["y"].index(nm) for nm in x.names]]
    b1_op = b1_operator(h, h_x)
    slice_data = hypersurface_data(h, x.names, frame.mu)

    auto_c = config.c_mode == "auto"
    c_value = select_C(slice_data, k1=0.0) if auto_c else float(config.c_mode)
    epsilon = calibrate_epsilon(c_value, config.p, config.delta, h_x, t_axis)
    # the operator, its mode split and factor: once per run, C scales
    # only the forcing
    assembly = assemble(v_x, h.scalar, h_x, t_axis)
    forcing, solve, b1_0, k1 = _solve_pass(config, w, assembly, b1_op,
                                           epsilon, c_value)
    if auto_c and k1 > K1_ROUNDOFF * (c_value + 1.0):
        # K1 above round-off: re-budget once with the measured K1. At an
        # unchanged width the forcing only scales by (C2 + 1)/(C1 + 1), so
        # the second solve starts from the first u scaled by that ratio
        c_second = select_C(slice_data, k1=k1)
        eps_second = calibrate_epsilon(c_second, config.p, config.delta,
                                       h_x, t_axis)
        start = ((c_second + 1.0) / (c_value + 1.0) * solve.u
                 if eps_second == epsilon else None)
        c_value, epsilon = c_second, eps_second
        forcing, solve, b1_0, k1 = _solve_pass(config, w, assembly, b1_op,
                                               epsilon, c_value, start)
    # C and epsilon are settled: read the final u
    u = solve.u
    c1 = c1_norm(u, gradient(w, u))
    eta_prime = dtt_monitor(w.diff(u, "t", 2), w, epsilon)

    report.body["solve"] = {
        "C": c_value, "K1": k1, "epsilon": epsilon,
        "forcing_norm": forcing_norm(c_value, epsilon, config.p, h_x,
                                     t_axis),
        "c1_u": c1, "dtt_max": eta_prime,
        "headroom": headroom_value(c_value, slice_data, k1),
        **{f"solver_{key}": solve.stats[key] for key in sorted(solve.stats)},
    }
    report.fields.update(w=w, u=u)
    if stage == "solve":
        report.wall_time = time.perf_counter() - t_start
        return report

    # -- conformal lift and certificate ----------------------------------
    u_y, phi_y = lift_solution(w, u, c1, n)
    k2 = k2_field(u_y, gradient(doms["y"], w.at_t0(u)), h, frame.v, n)
    k2_max = float(np.max(np.abs(k2)))
    if k2_max >= 1.0:
        raise NumericalFailure(
            f"gradient correction max|K2| = {k2_max:.3e} >= 1: the "
            f"perturbation is too large for the certificate's budget")
    cert = certificate(u_y, phi_y, slice_data, w.at_t0(forcing),
                       b1_0, k2, eta_prime, h, frame.mu, h_x)

    report.body["certificate"] = {
        "k2_max": k2_max, "min_r_exact": cert.min_exact,
        "min_r_chain": cert.min_chain, "min_r_bound": cert.min_bound,
        "chain_gap_max": cert.chain_gap_max,
        "bound_minus_chain_max": cert.bound_minus_chain_max,
        "verdict": cert.verdict,
    }
    report.fields.update(r_exact=cert.r_exact, r_chain=cert.r_chain,
                         r_bound=cert.r_bound)
    report.wall_time = time.perf_counter() - t_start
    return report
