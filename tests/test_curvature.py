"""Curvature engine oracles: closed forms, product degeneracies, hypersurfaces."""

import numpy as np
import pytest

from pscbench.errors import NumericalFailure
from pscbench.grids import DomainSpec, build_domain, w_domains, TORUS, SPHERE
from pscbench.metrics import make_metric, as_fd
from pscbench.curvature import hypersurface_data, gauss_codazzi_scalar

from helpers import laplacian


def test_flat_metric_curvature_vanishes():
    y = w_domains(DomainSpec(TORUS, 2, (8, 8), 5))["y"]
    g = make_metric("product_flat", y)
    assert np.max(np.abs(g.gamma)) == 0.0
    assert np.max(np.abs(g.ricci)) == 0.0
    assert np.max(np.abs(g.scalar)) == 0.0
    gt = make_metric("twisted_flat", y, c=0.7)  # constant coefficients
    assert np.max(np.abs(gt.scalar)) < 1e-13


def test_round_sphere_scalar_closed_form():
    # analytic jets: the only error left is round-off
    for r in (1.0, 0.5):
        x = build_domain(DomainSpec(SPHERE, 2, (32,), 5)).without("t")
        g = make_metric("sphere_product", x, r=r)
        assert np.max(np.abs(g.scalar - 2.0 / r ** 2)) < 1e-11


def test_round_sphere_fd_jets_converge():
    errs = []
    for res in (16, 32):
        x = build_domain(DomainSpec(SPHERE, 2, (res,), 5)).without("t")
        g = as_fd(make_metric("sphere_product", x, r=1.0))
        errs.append(float(np.max(np.abs(g.scalar - 2.0))) / 2.0)
    assert errs[1] < errs[0] / 3.5


def test_sphere_product_circle_factor_inert():
    y = w_domains(DomainSpec(SPHERE, 2, (32,), 5))["y"]
    g = make_metric("sphere_product", y, r=1.0)
    assert np.max(np.abs(g.scalar - 2.0)) < 1e-11


def test_twisted_sphere_scalar_closed_form():
    # submersion-style correction: R = 2/r^2 - 2 b0^2 cos^2(rho) / r^4
    for r, b0 in ((1.0, 0.5), (2.0, 0.7)):
        y = w_domains(DomainSpec(SPHERE, 2, (48,), 5))["y"]
        g = make_metric("sphere_twist", y, r=r, beta0=b0)
        rho = y.mesh("rho")
        expected = 2.0 / r ** 2 - 2.0 * b0 ** 2 * np.cos(rho) ** 2 / r ** 4
        assert np.max(np.abs(g.scalar - expected)) < 1e-12


def test_flat_laplacian_is_stencil_sum():
    y = w_domains(DomainSpec(TORUS, 2, (12, 12), 5))["y"]
    g = make_metric("product_flat", y)
    f = np.cos(y.mesh("x")) * np.sin(2 * y.mesh("y")) * np.ones(y.shape)
    manual = sum(y.diff(f, nm, 2) for nm in ("x", "y", "theta"))
    assert np.max(np.abs(laplacian(g, f) - manual)) == 0.0


def test_hypersurface_normal_ricci_contraction():
    # r = 1, so the rho direction is unit and g-orthogonal to alpha, theta
    y = w_domains(DomainSpec(SPHERE, 2, (24,), 5))["y"]
    g = make_metric("sphere_twist", y, r=1.0, beta0=0.5)
    v = np.zeros(y.shape + (3,))
    v[..., y.index("rho")] = 1.0
    manual = np.einsum("...ij,...i,...j->...", g.ricci, v, v)
    hyp = hypersurface_data(g, ("alpha", "theta"), v)
    assert np.max(np.abs(hyp.ric_nn - manual)) < 1e-14


def test_product_slice_is_totally_geodesic():
    y = w_domains(DomainSpec(TORUS, 2, (8, 8), 5))["y"]
    g = make_metric("product_flat", y)
    nu = np.zeros(y.shape + (3,))
    nu[..., y.index("theta")] = 1.0
    hyp = hypersurface_data(g, ("x", "y"), nu)
    assert np.max(np.abs(hyp.a_form)) == 0.0
    assert np.max(np.abs(hyp.h_mean)) == 0.0
    assert np.max(np.abs(hyp.a_norm2)) == 0.0
    assert np.max(np.abs(hyp.ric_nn)) == 0.0
    gc = gauss_codazzi_scalar(g.scalar, hyp.ric_nn,
                              hyp.h_mean, hyp.a_norm2)
    assert np.max(np.abs(gc)) == 0.0


def test_latitude_circle_mean_curvature():
    # {rho = const} in S^2(r): h = cot(rho)/r, rank-one A, Ric(nu,nu) = 1/r^2
    r = 1.5
    x = build_domain(DomainSpec(SPHERE, 2, (32,), 5)).without("t")
    g = make_metric("sphere_product", x, r=r)
    nu = np.zeros(x.shape + (x.dim,))
    nu[..., x.index("rho")] = 1.0 / r
    hyp = hypersurface_data(g, ("alpha",), nu)
    rho = x.mesh("rho").ravel()
    assert np.max(np.abs(hyp.h_mean.ravel()
                         - np.cos(rho) / (r * np.sin(rho)))) < 1e-12
    assert np.max(np.abs(hyp.a_norm2 - hyp.h_mean ** 2)) < 1e-12
    assert np.max(np.abs(hyp.ric_nn - 1.0 / r ** 2)) < 1e-12


def test_hypersurface_data_frame_checks():
    y = w_domains(DomainSpec(TORUS, 2, (8, 8), 5))["y"]
    g = make_metric("product_flat", y)
    bad = np.zeros(y.shape + (3,))
    bad[..., y.index("theta")] = 1.3  # not unit
    with pytest.raises(NumericalFailure):
        hypersurface_data(g, ("x", "y"), bad)
    skew = np.zeros(y.shape + (3,))
    skew[..., y.index("x")] = 0.6
    skew[..., y.index("theta")] = 0.8  # unit but not orthogonal to x
    with pytest.raises(NumericalFailure):
        hypersurface_data(g, ("x", "y"), skew)


def test_gauss_codazzi_scalar_arithmetic():
    r_amb = np.array([3.0, 1.0])
    ric = np.array([0.5, 0.25])
    h = np.array([2.0, 0.0])
    a2 = np.array([1.0, 0.5])
    out = gauss_codazzi_scalar(r_amb, ric, h, a2)
    assert np.allclose(out, r_amb - 2 * ric + h ** 2 - a2)
