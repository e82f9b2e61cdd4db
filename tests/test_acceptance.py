"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Every criterion prints exactly one line

    criterion N: PASS|FAIL - <what was checked>

before asserting, so a scan of the captured output gives the full verdict
table even when a criterion fails. Runtime budgets are part of each check.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.linalg import solve_banded

from helpers import (cli_env, conformal_ricci_law_err,
                     conformal_scalar_law_err, gc_deformed_residual,
                     minors_direct, mms_flat_cross, mms_sphere,
                     product_fields, slice_laplacian_identity)
from pscbench.config import parse_config
from pscbench.forcing import (build_bump, bump_profile, calibrate_epsilon,
                              forcing_norm)
from pscbench.grids import (SPHERE, TORUS, DomainSpec, build_domain, c1_norm,
                            gradient, w_domains, with_circle)
from pscbench.metrics import as_fd, make_metric, restrict_metric
from pscbench.normal import normal_frame
from pscbench.conformal import b1_operator, laplacian_comparison
from pscbench.pipeline import run_scenario
from pscbench.solver import assemble, dtt_monitor, solve_dirichlet


def verdict_line(n, ok, desc, elapsed):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {desc} "
          f"({elapsed:.2f}s)")
    return ok


def torus_y(res=8):
    return w_domains(DomainSpec(TORUS, 2, (res, res), 5))["y"]


def test_criterion_01_ellipticity_cutoff_and_minors():
    t0 = time.perf_counter()
    cutoff_ok = True
    for c in (0.0, 0.5, 0.99, 1.0, 1.5):
        fr = normal_frame(make_metric("twisted_flat", torus_y(), c=c))
        cutoff_ok &= (fr.is_elliptic == (c < 1.0))
    rng = np.random.default_rng(2024)
    b = rng.uniform(-1.0, 1.0, size=(1000, 3))
    b[::7, 0] = 0.0
    b[::11, 1] = 0.0
    b[::13, 2] = 0.0
    b[0] = 0.0
    closed = 1.0 - np.cumsum(b * b, axis=-1)
    gap = float(np.max(np.abs(closed - minors_direct(b))))
    elapsed = time.perf_counter() - t0
    ok = cutoff_ok and gap < 1e-12 and elapsed < 1.0
    verdict_line(1, ok, "ellipticity cuts off at c = 1; minor determinants "
                        "match direct evaluation to 1e-12 on 1000 vectors",
                 elapsed)
    assert cutoff_ok
    assert gap < 1e-12
    assert elapsed < 1.0


def test_criterion_02_angle_value_and_halfspace_equivalence():
    t0 = time.perf_counter()
    angle_ok = True
    equiv_ok = True
    for c in (0.0, 0.5, 0.99, 1.0, 1.5):
        y = torus_y()
        h = make_metric("twisted_flat", y, c=c)
        fr = normal_frame(h)
        mu, angle = fr.mu, fr.angle
        angle_ok &= float(np.max(np.abs(angle - math.atan(c)))) < 1e-10
        itheta = y.index("theta")
        h_tt = h.comp[..., itheta, itheta]
        h_mu_t = np.einsum("...ij,...i->...j", h.comp, mu)[..., itheta]
        ratio = h_tt / h_mu_t ** 2
        equiv_ok &= np.array_equal(angle < math.pi / 4.0, ratio < 2.0)
    elapsed = time.perf_counter() - t0
    ok = angle_ok and equiv_ok and elapsed < 1.0
    verdict_line(2, ok, "angle equals arctan(c) to 1e-10 and matches the "
                        "h_tt/h(mu,dtheta)^2 < 2 halfspace test nodewise",
                 elapsed)
    assert angle_ok
    assert equiv_ok
    assert elapsed < 1.0


def test_criterion_03_sphere_scalar_curvature_oracle():
    t0 = time.perf_counter()
    r = 1.0
    errs = {}
    for n in (32, 64):
        y = w_domains(DomainSpec(SPHERE, 2, (n,), 5))["y"]
        g = as_fd(make_metric("sphere_product", y, r=r))
        rel = np.abs(g.scalar - 2.0 / r ** 2) * r ** 2 / 2.0
        errs[n] = float(np.max(rel))
    order = math.log2(errs[32] / errs[64])
    elapsed = time.perf_counter() - t0
    ok = errs[64] < 0.02 and order >= 1.9 and elapsed < 5.0
    verdict_line(3, ok, f"round-sphere scalar curvature within 2% at 64 "
                        f"colatitudes (rel {errs[64]:.3g}), order "
                        f"{order:.3f}", elapsed)
    assert errs[64] < 0.02
    assert order >= 1.9
    assert elapsed < 5.0


def test_criterion_04_gauss_codazzi_residual_convergence():
    t0 = time.perf_counter()
    orders = {}
    for name, params in (("product_flat", {}), ("twisted_flat", {"c": 0.5})):
        e16 = gc_deformed_residual(16, name, **params)
        e32 = gc_deformed_residual(32, name, **params)
        orders[name] = math.log2(e16 / e32)
    elapsed = time.perf_counter() - t0
    ok = all(o >= 1.9 for o in orders.values()) and elapsed < 60.0
    verdict_line(4, ok, "assembled slice curvature converges to the direct "
                        "induced curvature at order "
                        + ", ".join(f"{k} {v:.3f}" for k, v in orders.items()),
                 elapsed)
    for name, order in orders.items():
        assert order >= 1.9, name
    assert elapsed < 60.0


def test_criterion_05_conformal_law_cross_check():
    t0 = time.perf_counter()
    s24, s48 = conformal_scalar_law_err(24), conformal_scalar_law_err(48)
    r24, r48 = conformal_ricci_law_err(24), conformal_ricci_law_err(48)
    order_s = math.log2(s24 / s48)
    order_r = math.log2(r24 / r48)
    elapsed = time.perf_counter() - t0
    ok = order_s >= 1.9 and order_r >= 1.9 and elapsed < 60.0
    verdict_line(5, ok, f"conformal scalar law order {order_s:.3f} on the "
                        f"flat 3-torus, normal Ricci law order {order_r:.3f} "
                        f"on the twisted metric, random smooth factor",
                 elapsed)
    assert order_s >= 1.9
    assert order_r >= 1.9
    assert elapsed < 60.0


def test_criterion_06_solver_mms_zero_forcing_max_principle():
    t0 = time.perf_counter()
    e1, _ = mms_flat_cross(16, 17)
    e2, _ = mms_flat_cross(32, 33)
    order = math.log2(e1 / e2)

    dom, g, v = product_fields(DomainSpec(TORUS, 2, (32, 32), 33),
                               "product_flat")
    asm = assemble(v, 1.0, g, dom.axis("t"))
    rep0 = solve_dirichlet(asm, np.zeros(dom.shape))
    zero_norm = float(np.max(np.abs(rep0.u)))

    # the widest dyadic bump with ||F||_1 < 160 here. calibrate_epsilon
    # refuses it at 33 t-nodes, since its monitor core |t| < 1/16 holds
    # only t = 0, but the maximum principle reads no monitor
    eps = 0.25
    F = build_bump(9.0, eps, dom)
    rep = solve_dirichlet(asm, F)
    u_min = float(rep.u.min())

    elapsed = time.perf_counter() - t0
    ok = (order >= 1.9 and zero_norm < 1e-12 and u_min >= -1e-12
          and elapsed < 120.0)
    verdict_line(6, ok, f"manufactured solution order {order:.3f}; zero "
                        f"forcing gives |u| = {zero_norm:.2g}; bump forcing "
                        f"keeps min u = {u_min:.2g} above -1e-12", elapsed)
    assert order >= 1.9
    assert zero_norm < 1e-12
    assert u_min >= -1e-12
    assert elapsed < 120.0


def test_criterion_07_forcing_norm_controls_solution_norm():
    t0 = time.perf_counter()
    # 257 t-nodes, so that the narrowest width, 1/16, keeps 3 nodes in
    # its monitor core |t| < 1/64, which calibration requires
    dom, g, v = product_fields(DomainSpec(TORUS, 2, (8, 8), 257),
                               "product_flat")
    t = dom.axis("t")
    asm = assemble(v, 1.0, g, t)
    base = 1.05 * forcing_norm(2.2, 0.25, 1, g, t)
    c1_values = []
    for k in range(3):
        delta = base / 2.0 ** k
        eps = calibrate_epsilon(2.2, 1, delta, g, t)
        F = build_bump(2.2, eps, dom)
        u = solve_dirichlet(asm, F).u
        c1_values.append(c1_norm(u, gradient(dom, u)))
    ratios = [c1_values[1] / c1_values[0], c1_values[2] / c1_values[1]]
    elapsed = time.perf_counter() - t0
    in_band = all(0.5 / 1.2 <= r <= 0.5 * 1.2 for r in ratios)
    ok = in_band and elapsed < 180.0
    verdict_line(7, ok, "halving the forcing threshold halves the solution "
                        "C1 norm within factor 1.2 (ratios "
                        + ", ".join(f"{r:.4f}" for r in ratios) + ")",
                 elapsed)
    assert in_band, ratios
    assert elapsed < 180.0


def plateau_reference(C, r, eps, nodes=20001):
    """Independent 1-D profile for X-constant forcing on the round cylinder.

    u does not depend on X there, so the Dirichlet problem on W reduces to
    -4 u'' + (2/r^2) u = (C+1) bump_eps(t), u(+-1) = 0. Solved by a banded
    three-point scheme on `nodes` t-nodes; returns sup |u''| over the
    monitor core |t| < eps/4, read off the equation itself.
    """
    t = np.linspace(-1.0, 1.0, nodes)[1:-1]
    h2 = (2.0 / (nodes - 1)) ** 2
    bands = np.empty((3, t.size))
    bands[0] = bands[2] = -4.0 / h2
    bands[1] = 8.0 / h2 + 2.0 / r ** 2
    f = (C + 1.0) * bump_profile(t, eps)
    u = solve_banded((1, 1), bands, f)
    dtt = ((2.0 / r ** 2) * u - f) / 4.0
    return float(np.max(np.abs(dtt[np.abs(t) < 0.25 * eps])))


def test_criterion_08_profile_curvature_control():
    # On the plateau the PDE reduces to 4 u'' = R_g u - (C+1), so the monitor
    # the certificate subtracts is eta' = (C+1 - R_g u)/4: below (C+1)/4 by a
    # gap R_g u/4 that shrinks with the forcing's L^1 norm, i.e. with delta.
    t0 = time.perf_counter()
    C, r, tol = 2.2, 1.0, 5e-4
    ceiling = (C + 1.0) / 4.0
    w, h_x, v_x = product_fields(DomainSpec(SPHERE, 2, (32,), 193),
                                 "sphere_product", r=r)
    # R_g of g = h_X + dt^2 is R_{h_X}
    asm = assemble(v_x, h_x.scalar, h_x, w.axis("t"))
    dtts, refs, deltas = [], [], []
    for eps in (0.4, 0.2, 0.1):
        F = build_bump(C, eps, w)
        # the threshold a calibration pass would need for this width
        deltas.append(1.02 * forcing_norm(C, eps, 1, h_x, w.axis("t")))
        rep = solve_dirichlet(asm, F)
        dtts.append(dtt_monitor(w.diff(rep.u, "t", 2), w, eps))
        refs.append(plateau_reference(C, r, eps))
    matches = all(abs(d - e) <= tol for d, e in zip(dtts, refs))
    below = all(d < ceiling for d in dtts)
    gaps = [ceiling - d for d in dtts]
    delta_ratios = [deltas[k + 1] / deltas[k] for k in range(2)]
    gap_ratios = [gaps[k + 1] / gaps[k] for k in range(2)]
    halving = all(abs(q - 0.5) < 1e-3 for q in delta_ratios)
    in_band = all(0.5 / 1.2 <= q <= 0.5 * 1.2 for q in gap_ratios)
    elapsed = time.perf_counter() - t0
    ok = matches and below and halving and in_band and elapsed < 300.0
    verdict_line(8, ok, "plateau monitor eta' "
                        + ", ".join(f"{d:.6f}" for d in dtts)
                        + " matches the 1-D reference "
                        + ", ".join(f"{e:.6f}" for e in refs)
                        + f" within {tol:g}, stays below (C+1)/4 = "
                        f"{ceiling:g}, gap ratios "
                        + ", ".join(f"{q:.4f}" for q in gap_ratios)
                        + " per halving of delta", elapsed)
    assert matches, (dtts, refs)
    assert below, (dtts, ceiling)
    assert halving, delta_ratios
    assert in_band, gap_ratios
    assert elapsed < 300.0


def test_criterion_09_laplacian_identities_and_mismatch_trend(tmp_path):
    t0 = time.perf_counter()
    # exact vanishing of the section/slice Laplacian mismatch for products
    b1_sup = {}
    for name, spec in (("product_flat", DomainSpec(TORUS, 2, (12, 12), 9)),
                       ("sphere_product", DomainSpec(SPHERE, 2, (32,), 9))):
        doms = w_domains(spec)
        h = make_metric(name, doms["y"])
        wdom = doms["w"]
        xc = wdom.mesh(wdom.names[0])
        u = np.cos(xc) * (1.0 - np.asarray(wdom.mesh("t")) ** 2)
        b1, _ = laplacian_comparison(
            wdom, u, b1_operator(h, restrict_metric(h, doms["x"])))
        b1_sup[name] = float(np.max(np.abs(b1)))
    products_ok = all(v < 1e-12 for v in b1_sup.values())

    # slice identity residual stays under an O(h^2) envelope
    slice_ok = True
    for res in (12, 24):
        w = build_domain(DomainSpec(TORUS, 2, (res, res), 9))
        m = with_circle(w.without("t")).with_axis(w.axis("t"))
        g_m = make_metric("twisted_flat", m, c=0.5)
        u = np.cos(m.mesh("x")) * np.cos(np.pi * np.asarray(m.mesh("t")) / 2)
        resid = slice_laplacian_identity(u, g_m)
        slice_ok &= resid < (2.0 * math.pi / res) ** 2

    # narrower forcing shrinks the measured Laplacian mismatch bound
    k1_values = []
    for delta in (40.0, 20.0):
        cfg_path = tmp_path / f"twist_{int(delta)}.cfg"
        cfg_path.write_text(
            "[domain]\nbackend = sphere-axisym\nresolution = 32\n"
            "t_nodes = 97\n\n[metric]\nname = sphere_twist\nr = 1.0\n"
            f"beta0 = 0.5\n\n[forcing]\np = 1\ndelta = {delta}\n")
        k1_values.append(run_scenario(parse_config(str(cfg_path)),
                                      stage="solve").body["solve"]["K1"])
    trend_ok = k1_values[1] < k1_values[0]

    elapsed = time.perf_counter() - t0
    ok = products_ok and slice_ok and trend_ok and elapsed < 60.0
    verdict_line(9, ok, "section Laplacian mismatch vanishes for products, "
                        "slice identity within an O(h^2) envelope, mismatch "
                        f"bound falls {k1_values[0]:.3g} -> "
                        f"{k1_values[1]:.3g} with the threshold", elapsed)
    assert products_ok, b1_sup
    assert slice_ok
    assert trend_ok, k1_values
    assert elapsed < 60.0


def test_criterion_10_end_to_end_positivity_demo(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "sphere_demo.cfg"
    cfg_path.write_text(
        "[domain]\nbackend = sphere-axisym\nresolution = 48\nt_nodes = 49\n\n"
        "[metric]\nname = sphere_product\nr = 1.0\n\n"
        "[forcing]\np = 1\ndelta = 16\n")
    rep = run_scenario(parse_config(str(cfg_path)))
    cert = rep.body.get("certificate", {})
    mms_err, _ = mms_sphere(48, 49)

    completed = rep.stage == "certify" and "verdict" in cert
    pointwise = bool(np.all(rep.fields["r_bound"]
                            <= rep.fields["r_chain"] + 1e-10))
    chain_gap = float(np.max(np.abs(rep.fields["r_chain"]
                                    - rep.fields["r_exact"])))
    elapsed = time.perf_counter() - t0
    ok = (completed and cert["k2_max"] < 1.0 and cert["min_r_exact"] > 0.0
          and cert["min_r_bound"] > 0.0 and pointwise
          and chain_gap <= 10.0 * mms_err and elapsed < 600.0)
    verdict_line(10, ok, f"product-sphere run certifies positivity: bound "
                         f"{cert['min_r_bound']:.4f} > 0, gradient "
                         f"correction {cert['k2_max']:.2g} < 1, law-vs-direct "
                         f"gap {chain_gap:.2g} within 10x solver error",
                 elapsed)
    assert completed
    assert cert["k2_max"] < 1.0
    assert cert["min_r_exact"] > 0.0
    assert cert["min_r_bound"] > 0.0
    assert pointwise
    assert chain_gap <= 10.0 * mms_err
    assert cert["verdict"] is True
    assert elapsed < 600.0


def test_criterion_11_negative_controls(tmp_path):
    t0 = time.perf_counter()
    crit = tmp_path / "critical.cfg"
    crit.write_text("[metric]\nname = twisted_flat\nc = 1.0\n")
    flat = tmp_path / "flat.cfg"
    flat.write_text(
        "[domain]\nresolution = 12\nt_nodes = 49\n\n"
        "[metric]\nname = product_flat\n\n[forcing]\np = 1\ndelta = 160\n")
    env = cli_env()
    out = str(tmp_path / "out")

    res_crit = subprocess.run(
        [sys.executable, "-m", "pscbench", "certify", str(crit),
         "--output-dir", out], capture_output=True, text=True, env=env)
    res_flat = subprocess.run(
        [sys.executable, "-m", "pscbench", "certify", str(flat),
         "--output-dir", out], capture_output=True, text=True, env=env)

    crit_ok = res_crit.returncode == 2 and "error[exit 2]" in res_crit.stderr
    flat_ok = (res_flat.returncode == 0
               and "verdict=false" in res_flat.stdout
               and "PSC hypothesis fails" in res_flat.stdout)
    elapsed = time.perf_counter() - t0
    ok = crit_ok and flat_ok and elapsed < 60.0
    verdict_line(11, ok, "critical twist aborts with the hypothesis exit "
                         "code; flat torus completes with verdict false and "
                         "the PSC failure flag", elapsed)
    assert crit_ok, res_crit.stderr
    assert flat_ok, res_flat.stdout
    assert elapsed < 60.0
