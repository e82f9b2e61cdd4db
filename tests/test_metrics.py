"""Builtin metric fields, conformal rescaling, restriction, CSV tables."""

import numpy as np
import pytest

from pscbench.errors import ConfigError, NumericalFailure
from pscbench.grids import (DomainSpec, build_domain, w_domains, TORUS,
                            SPHERE)
from pscbench.metrics import (MetricField, make_metric, as_fd,
                              conformal_metric, restrict_metric,
                              metric_to_csv, load_metric_csv)

from helpers import (as_fd_reference, inner, phi_and_jets, rng_phi,
                     stored_theta_y)


@pytest.fixture
def torus_y():
    return w_domains(DomainSpec(TORUS, 2, (8, 8), 5))["y"]


@pytest.fixture
def sphere_y():
    return w_domains(DomainSpec(SPHERE, 2, (16,), 5))["y"]


def test_product_flat_is_identity(torus_y):
    g = make_metric("product_flat", torus_y)
    eye = np.eye(3)
    assert np.max(np.abs(g.comp - eye)) == 0.0
    assert np.max(np.abs(g.d1)) == 0.0
    assert np.max(np.abs(g.d2)) == 0.0
    assert np.max(np.abs(g.sqrt_det - 1.0)) == 0.0


def test_twisted_flat_components(torus_y):
    c = 0.5
    g = make_metric("twisted_flat", torus_y, c=c)
    ix, ith = torus_y.index("x"), torus_y.index("theta")
    assert np.all(g.comp[..., ix, ix] == 1.0 + c * c)
    assert np.all(g.comp[..., ix, ith] == c)
    assert np.all(g.comp[..., ith, ix] == c)
    # unimodular: det [[1+c^2, c],[c, 1]] = 1
    assert np.max(np.abs(g.det - 1.0)) < 1e-14
    inv = g.inverse
    assert np.allclose(inv[..., ix, ix], 1.0, atol=1e-14)
    assert np.allclose(inv[..., ix, ith], -c, atol=1e-14)
    assert np.allclose(inv[..., ith, ith], 1.0 + c * c, atol=1e-14)


def test_sphere_product_components(sphere_y):
    r = 2.0
    g = make_metric("sphere_product", sphere_y, r=r)
    rho = sphere_y.mesh("rho")
    irho, ia = sphere_y.index("rho"), sphere_y.index("alpha")
    assert np.allclose(g.comp[..., irho, irho], r * r)
    assert np.allclose(g.comp[..., ia, ia].ravel(),
                       (r * np.sin(rho.ravel())) ** 2)
    # analytic radial derivative of the azimuth coefficient
    assert np.allclose(g.d1[..., ia, ia, irho].ravel(),
                       r * r * np.sin(2 * rho.ravel()))


def test_sphere_twist_cross_term(sphere_y):
    b0 = 0.5
    g = make_metric("sphere_twist", sphere_y, r=1.0, beta0=b0)
    rho = sphere_y.mesh("rho").ravel()
    ia, ith = sphere_y.index("alpha"), sphere_y.index("theta")
    assert np.allclose(g.comp[..., ia, ith].ravel(), b0 * np.sin(rho) ** 2)
    assert np.allclose(g.comp[..., ia, ia].ravel(),
                       np.sin(rho) ** 2 + (b0 * np.sin(rho) ** 2) ** 2)


def test_products_are_the_twists_at_zero_twist():
    torus = w_domains(DomainSpec(TORUS, 2, (8, 6), 5))
    sphere = w_domains(DomainSpec(SPHERE, 2, (16,), 5))
    cases = ([(dom, ("product_flat", {}), ("twisted_flat", {"c": 0.0}))
              for dom in (torus["x"], torus["y"], stored_theta_y(6))]
             + [(dom, ("sphere_product", {"r": 1.3}),
                 ("sphere_twist", {"r": 1.3, "beta0": 0.0}))
                for dom in (sphere["x"], sphere["y"])])
    for dom, (product, p_params), (twist, t_params) in cases:
        g = make_metric(product, dom, **p_params)
        t = make_metric(twist, dom, **t_params)
        for name in ("comp", "d1", "d2"):
            assert np.array_equal(getattr(g, name), getattr(t, name)), \
                f"{product} {name} on {dom.names}"


def test_make_metric_validation(torus_y, sphere_y):
    with pytest.raises(ConfigError):
        make_metric("twisted_flat", torus_y, c=-0.1)
    with pytest.raises(ConfigError):
        make_metric("sphere_product", sphere_y, r=0.0)
    with pytest.raises(ConfigError):
        make_metric("sphere_twist", sphere_y, r=1.0, beta0=-1.0)
    with pytest.raises(ConfigError):
        make_metric("mobius", torus_y)
    with pytest.raises(ConfigError):
        make_metric("twisted_flat", sphere_y, c=0.5)  # needs an x axis
    with pytest.raises(ConfigError, match=r"does not take \['beta0'\]"):
        make_metric("twisted_flat", torus_y, beta0=0.5)


def test_metric_field_rejects_bad_tensors(torus_y):
    d = torus_y.dim
    comp = np.broadcast_to(np.eye(d), torus_y.shape + (d, d)).copy()
    comp[..., 0, 1] = 0.3  # asymmetric
    zeros1 = np.zeros(torus_y.shape + (d, d, d))
    zeros2 = np.zeros(torus_y.shape + (d, d, d, d))
    with pytest.raises(NumericalFailure):
        MetricField(torus_y, comp, zeros1, zeros2)
    comp = np.broadcast_to(np.diag([1.0, -1.0, 1.0]),
                           torus_y.shape + (d, d)).copy()
    with pytest.raises(NumericalFailure):
        MetricField(torus_y, comp, zeros1, zeros2)


def test_norm2_and_inner(torus_y):
    g = make_metric("twisted_flat", torus_y, c=0.5)
    v = np.zeros(torus_y.shape + (3,))
    v[..., torus_y.index("x")] = 1.0
    assert np.allclose(g.norm2(v), 1.25)
    w = np.zeros(torus_y.shape + (3,))
    w[..., torus_y.index("theta")] = 1.0
    assert np.allclose(inner(g, v, w), 0.5)


def test_as_fd_derivatives_converge():
    # numerical jets approach the analytic ones at the mirror-stencil order
    errs = []
    for res in (16, 32):
        y = w_domains(DomainSpec(SPHERE, 2, (res,), 5))["y"]
        g = make_metric("sphere_product", y, r=1.0)
        gn = as_fd(g)
        assert np.max(np.abs(gn.comp - g.comp)) == 0.0
        errs.append(float(np.max(np.abs(gn.d1 - g.d1))))
    assert errs[1] < errs[0] / 8.0


def test_as_fd_matches_the_stencil_loop_bitwise():
    # a twisted T^3 metric rescaled by a field that varies along x, y and
    # the stored theta, so every first and mixed second partial is live
    y = stored_theta_y(8)
    g = conformal_metric(make_metric("twisted_flat", y, c=0.5),
                         rng_phi(y, seed=5))
    new, ref = as_fd(g), as_fd_reference(g)
    assert np.max(np.abs(ref.d2[..., 0, 0, 0, 2])) > 0.0
    for a, b in ((new.comp, ref.comp), (new.d1, ref.d1), (new.d2, ref.d2)):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_conformal_metric_scales_components(torus_y):
    g = make_metric("product_flat", torus_y)
    phi = 0.1 * np.cos(torus_y.mesh("x")) * np.ones(torus_y.shape)
    gt = conformal_metric(g, phi)
    assert np.allclose(gt.comp, np.exp(2 * phi)[..., None, None] * g.comp)


def test_conformal_metric_analytic_vs_numeric_jets():
    y = stored_theta_y(16)
    g = make_metric("product_flat", y)
    phi, dphi, d2phi = phi_and_jets(y)
    exact = conformal_metric(g, phi, dphi=dphi, d2phi=d2phi)
    numer = conformal_metric(g, phi)
    assert np.max(np.abs(exact.comp - numer.comp)) == 0.0
    assert np.max(np.abs(exact.d1 - numer.d1)) < 1e-2
    assert np.max(np.abs(exact.d2 - numer.d2)) < 1e-1


def test_restrict_metric_at_slice():
    doms = w_domains(DomainSpec(TORUS, 2, (6, 6), 7))
    m = doms["y"].with_axis(doms["w"].axis("t"))
    g_m = make_metric("product_flat", m)
    phi = 0.1 * np.cos(m.mesh("x")) * (1.0 + np.asarray(m.mesh("t")))
    gt = conformal_metric(g_m, phi)
    it0 = m.axis("t").n // 2
    gy = restrict_metric(gt, doms["y"], at={"t": it0})
    kt = m.array_axis("t")
    assert np.max(np.abs(gy.comp
                         - np.take(gt.comp, it0, axis=kt)[..., :3, :3])) == 0.0
    # dropping the virtual theta needs no index: h_X keeps the twisted x
    # block of h
    h_x = restrict_metric(make_metric("twisted_flat", doms["y"], c=0.5),
                          doms["x"])
    assert h_x.domain.names == ("x", "y")
    assert np.all(h_x.comp[..., 0, 0] == 1.25)


def test_metric_csv_roundtrip(tmp_path):
    y = w_domains(DomainSpec(SPHERE, 2, (12,), 5))["y"]
    g = make_metric("sphere_twist", y, r=1.0, beta0=0.5)
    path = tmp_path / "twist.csv"
    metric_to_csv(g, path)
    g2 = load_metric_csv(y, path)
    scale = np.max(np.abs(g.comp))
    assert np.max(np.abs(g2.comp - g.comp)) < 1e-11 * scale
    # derivatives are re-derived numerically from the tabulated components
    assert np.max(np.abs(g2.d1 - g.d1)) < 1e-2


def test_load_metric_csv_rejects_non_finite_cells(tmp_path):
    # a nan, blank or inf component is a bad table, not a solver crash
    y = w_domains(DomainSpec(SPHERE, 2, (12,), 5))["y"]
    path = tmp_path / "m.csv"
    metric_to_csv(make_metric("sphere_product", y, r=1.0), path)
    lines = path.read_text().splitlines()
    for cell in ("nan", "", "inf"):
        row = lines[3].split(",")
        row[-2] = cell
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:])
                       + "\n")
        with pytest.raises(ConfigError, match=rf"{bad}: .*non-finite") as exc:
            load_metric_csv(y, bad)
        assert exc.value.exit_code == 4
    # a blank coordinate cell matches no grid node
    row = lines[3].split(",")
    row[0] = ""
    bad.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n")
    with pytest.raises(ConfigError, match=rf"{bad}: column 'rho' does not"):
        load_metric_csv(y, bad)


def test_load_metric_csv_rejects_wrong_grid(tmp_path):
    y = w_domains(DomainSpec(SPHERE, 2, (12,), 5))["y"]
    g = make_metric("sphere_product", y, r=1.0)
    path = tmp_path / "m.csv"
    metric_to_csv(g, path)
    other = w_domains(DomainSpec(SPHERE, 2, (16,), 5))["y"]
    with pytest.raises(ConfigError):
        load_metric_csv(other, path)
    with pytest.raises(ConfigError):
        load_metric_csv(y, tmp_path / "missing.csv")
