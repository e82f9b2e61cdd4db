"""Conformal curvature laws, the chain/exact/bound triple, and its guards.

Frozen residuals come from earlier runs of the same constructions; the
tolerances sit an order of magnitude above observed round-off so genuine
formula regressions trip them while BLAS reordering does not.
"""

import numpy as np
import pytest

from pscbench.errors import ConfigError, NumericalFailure
from pscbench.grids import (DomainSpec, build_domain, c1_norm, derivatives,
                            gradient, w_domains, with_circle, TORUS, SPHERE)
from pscbench.metrics import make_metric, restrict_metric
from pscbench.curvature import hypersurface_data, HypersurfaceData
from pscbench.normal import normal_frame
from pscbench.conformal import (b1_operator, lift_solution, conformal_scalar,
                                conformal_second_fundamental, chain_scalar,
                                exact_slice_scalar, laplacian_comparison,
                                k2_field,
                                curvature_coefficient, select_C,
                                headroom_value, certificate)

from helpers import laplacian, rng_phi, slice_laplacian_identity


def scenario_y(name, res=16, **params):
    backend = SPHERE if name.startswith("sphere") else TORUS
    resolutions = (res,) if backend == SPHERE else (res, res)
    y = w_domains(DomainSpec(backend, 2, resolutions, 5))["y"]
    return y, make_metric(name, y, **params)


def lift(dom, u, n):
    """lift_solution with the C^1 norm the pipeline measures for u."""
    return lift_solution(dom, u, c1_norm(u, gradient(dom, u)), n)


def test_constant_phi_specialization():
    y, g = scenario_y("sphere_product", res=24, r=1.0)
    phi = np.full(y.shape, 0.3)
    out = conformal_scalar(g, phi, *derivatives(y, phi), 3)
    assert np.max(np.abs(out - np.exp(-0.6) * g.scalar)) < 1e-10


def test_second_fundamental_trace_laws():
    y, g = scenario_y("product_flat")
    mu = normal_frame(g).mu
    n = 3
    # product slice: A = 0, h = 0; only the normal derivative of phi enters
    s = 0.2
    phi = np.full(y.shape, 0.1)
    # phi constant has zero derivative; inject the normal slope by hand
    # through a linear-in-theta phi is impossible (theta is virtual), so
    # check the formulas on explicit arrays instead
    a2, h2 = conformal_second_fundamental(np.zeros(y.shape),
                                          np.zeros(y.shape), phi,
                                          derivatives(y, phi)[0], mu, n)
    assert np.max(np.abs(a2)) < 1e-14  # s = 0 as well: everything collapses
    assert np.max(np.abs(h2)) < 1e-14
    # phi = 0: outputs reduce to the undeformed traces
    a_norm2 = np.full(y.shape, 0.25)
    h_mean = np.full(y.shape, 0.5)
    a2, h2 = conformal_second_fundamental(a_norm2, h_mean,
                                          np.zeros(y.shape),
                                          np.zeros(y.shape + (3,)), mu, n)
    assert np.max(np.abs(a2 - a_norm2)) < 1e-14
    assert np.max(np.abs(h2 - h_mean ** 2)) < 1e-14


def test_second_fundamental_normal_slope_terms():
    # x plays the normal role here so the slope s = d_mu phi is nonzero:
    # |A~|^2 = e^{-2phi}(|A|^2 + 2hs + (n-1)s^2), h~^2 = e^{-2phi}(h+(n-1)s)^2
    y, g = scenario_y("product_flat")
    n = 3
    mu = np.zeros(y.shape + (3,))
    mu[..., y.index("x")] = 1.0
    xs = y.mesh("x")
    phi = 0.05 * np.sin(xs) * np.ones(y.shape)
    s = y.diff(phi, "x", 1)  # the same stencil slope the formula consumes
    h_mean = np.full(y.shape, 0.7)
    a_norm2 = np.full(y.shape, 0.3)
    a2, h2 = conformal_second_fundamental(a_norm2, h_mean, phi,
                                          derivatives(y, phi)[0], mu, n)
    ref_a2 = np.exp(-2 * phi) * (a_norm2 + 2 * h_mean * s + (n - 1) * s ** 2)
    ref_h2 = np.exp(-2 * phi) * (h_mean + (n - 1) * s) ** 2
    assert np.max(np.abs(a2 - ref_a2)) < 1e-13
    assert np.max(np.abs(h2 - ref_h2)) < 1e-13


def chain_and_exact(g, phi, mu):
    """chain_scalar and exact_slice_scalar of e^{2 phi} g on the slice, from
    one derivative pass of phi."""
    y = g.domain
    tangent = [nm for nm in y.names if nm != "theta"]
    hyp = hypersurface_data(g, tangent, mu)
    dphi, d2phi = derivatives(y, phi)
    return (chain_scalar(g, phi, dphi, d2phi, mu, hyp, y.dim),
            exact_slice_scalar(g, restrict_metric(g, y.without("theta")),
                               phi, dphi, d2phi))


CHAIN_DEGENERACY = {
    # (name, params, res): frozen sup |chain - exact|
    ("product_flat", (), 16): 1e-12,
    ("twisted_flat", (("c", 0.5),), 16): 1e-12,
    ("sphere_product", (("r", 1.0),), 32): 1e-11,
}


def test_chain_matches_direct_slice_curvature():
    for (name, params, res), bound in CHAIN_DEGENERACY.items():
        y, g = scenario_y(name, res=res, **dict(params))
        fr = normal_frame(g)
        if name.startswith("sphere"):
            phi = 0.1 * np.cos(y.mesh("rho")) * np.ones(y.shape)
        else:
            phi = 0.1 * np.cos(y.mesh("x")) * np.cos(y.mesh("y")) * np.ones(y.shape)
        chain, exact = chain_and_exact(g, phi, fr.mu)
        gap = float(np.max(np.abs(chain - exact)))
        assert gap < bound, f"{name}: {gap:.3e}"


def test_chain_gap_refines_for_twisted_sphere():
    # the only scenario where the two sides discretize differently
    gaps = []
    for res in (32, 64):
        y, g = scenario_y("sphere_twist", res=res, r=1.0, beta0=0.5)
        fr = normal_frame(g)
        phi = 0.1 * np.cos(y.mesh("rho")) * np.ones(y.shape)
        chain, exact = chain_and_exact(g, phi, fr.mu)
        gaps.append(float(np.max(np.abs(chain - exact))))
    assert gaps[0] == pytest.approx(3.084e-7, rel=0.05)
    assert gaps[1] == pytest.approx(1.929e-8, rel=0.05)
    assert gaps[0] / gaps[1] > 8.0


def test_lift_solution_guards():
    dom = build_domain(DomainSpec(TORUS, 2, (6, 6), 7))
    u = np.zeros(dom.shape)
    with pytest.raises(ConfigError):
        lift(dom, u, 2)
    with pytest.raises(NumericalFailure, match="conformal factor collapses"):
        # conformal factor hits zero
        lift(dom, u - 1.0, 3)
    # min(1 + u) = 0.4 passes the positivity guard, and the C1 norm is
    # sup|u| + sup|du/dt| = 0.6 + 0.6 = 1.2 >= 1
    steep = 0.6 * np.asarray(np.broadcast_to(dom.mesh("t"), dom.shape))
    assert float(np.min(1.0 + steep)) == pytest.approx(0.4)
    with pytest.raises(NumericalFailure,
                       match=r"small-perturbation regime: C1 norm 1\.200 "):
        lift(dom, steep, 3)
    u_y, phi_y = lift(dom, u, 3)
    assert np.max(np.abs(u_y - 1.0)) == 0.0
    assert np.max(np.abs(phi_y)) == 0.0


def test_k2_field_arithmetic():
    y, g = scenario_y("product_flat", res=12)
    v = np.zeros(y.shape + (3,))
    xs = y.mesh("x")
    u_w = 1.0 + 0.1 * np.sin(xs) * np.ones(y.shape)
    k2 = k2_field(u_w, gradient(y, u_w), g, v, 3)
    # 4/(n-2) |grad u|^2 / u with the stencil gradient
    du = y.diff(u_w, "x", 1)
    ref = 4.0 * du * du / u_w
    assert np.max(np.abs(k2 - ref)) < 1e-13
    # drift direction contributes n (V u)^2
    v[..., y.index("x")] = 1.0
    k2v = k2_field(u_w, gradient(y, u_w), g, v, 3)
    assert np.max(np.abs(k2v - (ref + 4.0 * 3.0 * du * du / u_w))) < 1e-13


def test_select_c_and_headroom_arithmetic():
    shape = (4, 4)
    zeros = np.zeros(shape)
    flat = HypersurfaceData(np.zeros(shape + (2, 2)), zeros, zeros, zeros)
    assert curvature_coefficient(flat) == 0.0
    assert select_C(flat) == pytest.approx(2.2)
    assert headroom_value(2.2, flat, 0.0) == pytest.approx(1.2)
    curved = HypersurfaceData(np.zeros(shape + (2, 2)), np.full(shape, 1.0),
                              np.full(shape, 0.25), np.full(shape, 0.5))
    assert curvature_coefficient(curved) == pytest.approx(2.25)
    assert select_C(curved, k1=0.5) == pytest.approx(1.1 * (1.5 * 2.25 + 0.5 + 2))
    assert headroom_value(6.0, curved, 0.5) == pytest.approx(7 - 3.375 - 2.5)


def test_laplacian_comparison_product_and_constant():
    doms = w_domains(DomainSpec(TORUS, 2, (8, 8), 9))
    w = doms["w"]
    h = make_metric("product_flat", doms["y"])
    u = 1.0 + 0.1 * np.cos(w.mesh("x")) \
        * np.asarray(np.broadcast_to(w.mesh("t"), w.shape))
    b1, k1 = laplacian_comparison(
        w, u, b1_operator(h, restrict_metric(h, doms["x"])))
    assert np.max(np.abs(b1)) == 0.0 and k1 == 0.0
    ht = make_metric("twisted_flat", doms["y"], c=0.5)
    b1c, k1c = laplacian_comparison(
        w, np.ones(w.shape),
        b1_operator(ht, restrict_metric(ht, doms["x"])))
    assert np.max(np.abs(b1c)) == 0.0 and k1c == 0.0


def test_laplacian_comparison_twisted_residue():
    # B1 = (c^2/(1+c^2)) d^2u/dx^2 for the twisted section
    doms = w_domains(DomainSpec(TORUS, 2, (16, 16), 9))
    c = 0.5
    ht = make_metric("twisted_flat", doms["y"], c=c)
    w = doms["w"]
    u = np.cos(w.mesh("x")) * np.ones(w.shape)
    b1, k1 = laplacian_comparison(
        w, u, b1_operator(ht, restrict_metric(ht, doms["x"])))
    ref = (c * c / (1 + c * c)) * w.diff(u, "x", 2)
    assert np.max(np.abs(b1 - ref)) < 1e-13
    assert k1 == pytest.approx(4.0 * float(np.max(np.abs(ref))))


@pytest.mark.parametrize("name, spec, params", [
    ("twisted_flat", DomainSpec(TORUS, 2, (8, 8), 9), {"c": 0.5}),
    ("sphere_twist", DomainSpec(SPHERE, 2, (16,), 9),
     {"r": 1.0, "beta0": 0.5}),
    ("twisted_flat", DomainSpec(TORUS, 3, (6, 6, 6), 9), {"c": 0.5}),
], ids=["twisted_flat", "sphere_twist", "twisted_flat_dim3"])
def test_laplacian_comparison_differentiates_u_once(name, spec, params):
    # B1 is one operator on the slice X applied to every t slice of u; no
    # partial of u over M's coordinates is taken (the pipeline's count of
    # u's stencils is in test_pipeline_cli)
    doms = w_domains(spec)
    w = doms["w"]
    h = make_metric(name, doms["y"], **params)
    u = 1.0 + rng_phi(w, seed=2)
    b1, k1 = laplacian_comparison(
        w, u, b1_operator(h, restrict_metric(h, doms["x"])))
    assert k1 == 4.0 * float(np.max(np.abs(b1))) and k1 > 0.0
    # the oracle: the two Laplacians of the product metrics g_M = h + dt^2
    # and g_W = h_X + dt^2, materialised over t. Their d^2u/dt^2 terms
    # cancel analytically in B1, so the two agree to round-off
    m = doms["y"].with_axis(w.axis("t"))
    lap_m = laplacian(make_metric(name, m, **params), u)
    oracle = lap_m - laplacian(make_metric(name, w, **params), u)
    assert np.max(np.abs(b1 - oracle)) <= 1e-14 * np.max(np.abs(lap_m))


def test_slice_laplacian_identity_cases():
    w = build_domain(DomainSpec(TORUS, 2, (8, 8), 9))
    m = with_circle(w.without("t")).with_axis(w.axis("t"))
    g_m = make_metric("product_flat", m)
    # t-independent field: the d^2/dt^2 term vanishes and the slice
    # Laplacian is the full one
    u = np.cos(m.mesh("x")) * np.ones(m.shape)
    assert slice_laplacian_identity(u, g_m) < 1e-14
    # pure t^2: both sides reduce to the exact second derivative 2
    ts = np.asarray(np.broadcast_to(m.mesh("t"), m.shape))
    assert slice_laplacian_identity(ts * ts, g_m) < 1e-13
    mixed = np.cos(m.mesh("x")) * ts * ts + 0.3 * np.sin(m.mesh("y")) * ts
    assert slice_laplacian_identity(mixed, g_m) < 1e-12


def run_tiny_scenario(name, res=12, t_nodes=17, delta=200.0, **params):
    """Minimal end-to-end pieces shared by the certificate tests."""
    backend = SPHERE if name.startswith("sphere") else TORUS
    resolutions = (res,) if backend == SPHERE else (res, res)
    doms = w_domains(DomainSpec(backend, 2, resolutions, t_nodes))
    h = make_metric(name, doms["y"], **params)
    fr = normal_frame(h)
    sd = hypersurface_data(h, doms["x"].names, fr.mu)
    return doms, h, fr, sd


def test_certificate_of_undeformed_flat_slice():
    doms, h, fr, sd = run_tiny_scenario("product_flat")
    y, w = doms["y"], doms["w"]
    u_y, phi_y = lift_solution(w, np.zeros(w.shape), 0.0, 3)
    zeros = np.zeros(y.shape)
    cert = certificate(u_y, phi_y, sd, zeros, zeros, zeros,
                       0.0, h, fr.mu, restrict_metric(h, doms["x"]))
    assert cert.min_bound == 0.0 and cert.verdict is False
    assert cert.chain_gap_max < 1e-13
    assert np.max(np.abs(cert.r_bound)) < 1e-13
    assert np.max(np.abs(cert.r_exact)) < 1e-13


def test_certificate_of_undeformed_sphere_slice():
    doms, h, fr, sd = run_tiny_scenario("sphere_product", res=24, r=1.0)
    y, w = doms["y"], doms["w"]
    u_y, phi_y = lift_solution(w, np.zeros(w.shape), 0.0, 3)
    zeros = np.zeros(y.shape)
    # R_g of the product g = h + dt^2 is R_h, which certificate reads
    cert = certificate(u_y, phi_y, sd, zeros, zeros, zeros,
                       0.0, h, fr.mu, restrict_metric(h, doms["x"]))
    # undeformed: every evaluation is the round slice curvature 2
    assert cert.min_bound == pytest.approx(2.0, abs=1e-10)
    assert cert.min_chain == pytest.approx(2.0, abs=1e-10)
    assert cert.min_exact == pytest.approx(2.0, abs=1e-10)
    assert cert.verdict is True
    assert cert.bound_minus_chain_max < 1e-10
