"""Normal decomposition on slices: frame identities, angle, ellipticity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pscbench.grids import DomainSpec, w_domains, TORUS, SPHERE
from pscbench.metrics import (MetricField, as_fd, make_metric,
                              conformal_metric, restrict_metric)
from pscbench.normal import MARGIN_FLOOR, normal_frame

from helpers import inner, minors_direct, v_norm2_ratio, vertical_coefficient


def torus_y(res=8):
    return w_domains(DomainSpec(TORUS, 2, (res, res), 5))["y"]


def sphere_y(res=24):
    return w_domains(DomainSpec(SPHERE, 2, (res,), 5))["y"]


def frame_invariants(h):
    """The identities every decomposition must satisfy, checked to 1e-10."""
    dom = h.domain
    fr = normal_frame(h)
    ith = dom.index("theta")
    assert np.max(np.abs(h.norm2(fr.mu) - 1.0)) < 1e-10
    e_th = np.zeros(dom.shape + (dom.dim,))
    e_th[..., ith] = 1.0
    inner_th = inner(h, fr.mu, e_th)
    assert np.min(inner_th) > 0.0
    assert np.max(np.abs(vertical_coefficient(h, fr.mu) * inner_th - 1.0)) \
        < 1e-10
    for nm in dom.names:
        if nm == "theta":
            continue
        e = np.zeros(dom.shape + (dom.dim,))
        e[..., dom.index(nm)] = 1.0
        # mu is normal to the slice tangents
        assert np.max(np.abs(inner(h, fr.mu, e))) < 1e-10
    # V is tangent: no theta component at all
    assert np.max(np.abs(fr.v[..., ith])) == 0.0
    # independent recomputation of |V|^2 from the angle-side ratio
    ratio = v_norm2_ratio(h, fr.mu)
    assert np.max(np.abs(h.norm2(fr.v) - ratio)) < 1e-10
    return fr


def test_twisted_frame_closed_form():
    c = 0.5
    y = torus_y()
    h = make_metric("twisted_flat", y, c=c)
    fr = frame_invariants(h)
    s = math.sqrt(1 + c * c)
    ix, ith = y.index("x"), y.index("theta")
    assert np.allclose(fr.mu[..., ix], -c / s, atol=1e-12)
    assert np.allclose(fr.mu[..., ith], s, atol=1e-12)
    assert np.allclose(vertical_coefficient(h, fr.mu), s, atol=1e-12)
    assert np.allclose(fr.v[..., ix], -c / s, atol=1e-12)
    assert np.allclose(h.norm2(fr.v), c * c, atol=1e-12)
    assert np.allclose(fr.angle, math.atan(c), atol=1e-10)
    assert np.allclose(fr.margin_field, 1 - c * c, atol=1e-12)
    assert fr.margin == pytest.approx(1 - c * c, abs=1e-12)
    assert fr.is_elliptic


def test_twisted_ellipticity_cutoff():
    for c, expect in ((0.0, True), (0.5, True), (0.99, True),
                      (1.0, False), (1.5, False)):
        h = make_metric("twisted_flat", torus_y(), c=c)
        assert normal_frame(h).is_elliptic is expect, f"c={c}"


def test_margin_floor_is_strict():
    # a margin below the floor does not count as elliptic, even if positive
    c_close = math.sqrt(1.0 - 0.5 * MARGIN_FLOOR)
    h = make_metric("twisted_flat", torus_y(), c=c_close)
    fr = normal_frame(h)
    assert fr.margin > 0.0
    assert not fr.is_elliptic
    c_safe = math.sqrt(1.0 - 1e-4)
    assert normal_frame(make_metric("twisted_flat", torus_y(), c=c_safe)).is_elliptic


def test_rescaled_circle_product():
    # h = dx^2 + dy^2 + lam^2 dtheta^2: mu = lam^-1 d_theta, zero drift
    lam = 2.5
    y = torus_y()
    comp = np.broadcast_to(np.diag([1.0, 1.0, lam * lam]),
                           y.shape + (3, 3)).copy()
    h = MetricField(y, comp, np.zeros(y.shape + (3, 3, 3)),
                    np.zeros(y.shape + (3, 3, 3, 3)))
    fr = frame_invariants(h)
    assert np.allclose(fr.mu[..., y.index("theta")], 1.0 / lam, atol=1e-12)
    assert np.max(np.abs(fr.v)) < 1e-14
    assert np.max(np.abs(fr.angle)) < 1e-10
    assert fr.margin == pytest.approx(1.0)


def test_sphere_twist_frame():
    b0, r = 0.5, 1.0
    y = sphere_y()
    h = make_metric("sphere_twist", y, r=r, beta0=b0)
    fr = frame_invariants(h)
    rho = y.mesh("rho").ravel()
    # drift magnitude from the bundle 1-form: |V|^2 = b0^2 sin^2(rho) / r^2
    expected = b0 ** 2 * np.sin(rho) ** 2 / r ** 2
    assert np.max(np.abs(h.norm2(fr.v).ravel() - expected)) < 1e-12
    assert fr.is_elliptic
    # cell-centered colatitudes never hit rho = pi/2 exactly
    grid_sup = math.atan(b0 * np.max(np.sin(rho)) / r)
    assert fr.max_angle == pytest.approx(grid_sup, abs=1e-10)
    assert fr.max_angle < math.atan(b0 / r)


def test_minor_closed_form_matches_direct_determinants():
    rng = np.random.default_rng(42)
    for m in (1, 2, 3):
        b = rng.uniform(-1.1, 1.1, size=(400, m))
        b[:7] = 0.0  # zero-component rows included on purpose
        closed = 1.0 - np.cumsum(b * b, axis=-1)
        assert np.max(np.abs(closed - minors_direct(b))) < 1e-12


def test_ellipticity_minors_from_metric():
    c = 0.5
    y = torus_y()
    h = make_metric("twisted_flat", y, c=c)
    fr = normal_frame(h)
    # components b = L^T V of V in an orthonormal frame of the slice, from
    # the Cholesky factor h_X = L L^T; L^T V has length |V|_h
    xidx = [y.index(nm) for nm in ("x", "y")]
    chol = np.linalg.cholesky(h.comp[..., xidx, :][..., :, xidx])
    b = np.einsum("...ji,...j->...i", chol, fr.v[..., xidx])
    assert np.allclose(np.sum(b * b, axis=-1), c * c, atol=1e-12)
    # the margin field is the last leading minor of I - b b^T
    assert np.max(np.abs(fr.margin_field - minors_direct(b)[..., -1])) < 1e-12
    assert fr.is_elliptic
    assert fr.margin == pytest.approx(1 - c * c, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(0.0, 2.0), amp=st.floats(0.0, 0.3), seed=st.integers(0, 99))
def test_angle_is_conformally_invariant(c, amp, seed):
    y = w_domains(DomainSpec(TORUS, 2, (6, 6), 5))["y"]
    h = make_metric("twisted_flat", y, c=c)
    rng = np.random.default_rng(seed)
    phi = amp * np.cos(y.mesh("x") + rng.uniform(0, 2 * np.pi)) \
        * np.sin(y.mesh("y") + rng.uniform(0, 2 * np.pi)) * np.ones(y.shape)
    h2 = conformal_metric(h, phi)
    a1 = normal_frame(h).angle
    a2 = normal_frame(h2).angle
    # the angle is arctan(sqrt(h(V, V))): the conformal factor cancels in
    # h(V, V) up to relative round-off, which sqrt and arctan do not amplify
    assert np.max(np.abs(a1 - a2)) < 1e-13


def test_angle_halfspace_equivalence():
    # angle < pi/4 iff h_theta_theta / h(mu, d_theta)^2 < 2, node by node
    for c in (0.5, 1.0, 1.5):
        y = torus_y()
        h = make_metric("twisted_flat", y, c=c)
        fr = normal_frame(h)
        ith = y.index("theta")
        e_th = np.zeros(y.shape + (3,))
        e_th[..., ith] = 1.0
        ratio = h.comp[..., ith, ith] / inner(h, fr.mu, e_th) ** 2
        assert np.array_equal(fr.angle < np.pi / 4, ratio < 2.0)


def random_torus_metric(data):
    """An SPD metric on the torus Y in the form h = A + f^2 (dtheta + beta)^2,
    A the X block of a random smooth SPD field and f, beta random smooth
    fields, so that g_theta_theta = f^2 and g_X_theta = f^2 beta both vary;
    its jets are finite differences. Every SPD metric has this form."""
    doms = w_domains(DomainSpec(TORUS, 2, (6, 5), 5))
    y = doms["y"]
    xs, ys = y.mesh("x"), y.mesh("y")
    draw = lambda lo, hi: data.draw(st.floats(lo, hi))
    wave = lambda: np.sin(draw(0.0, 2.0) * xs + draw(-2.0, 2.0) * ys
                          + draw(0.0, 2.0 * math.pi)) * np.ones(y.shape)
    comp = np.zeros(y.shape + (3, 3))
    # A >= 0.5, f^2 <= 2 and |beta|^2 <= 3, so tan^2(angle) =
    # f^2 |beta|^2_{A^-1} <= 12: past the pi/4 cutoff at 1 on some draws,
    # and small enough for a 1e-12 comparison
    comp[..., 0, 0] = draw(1.0, 2.0) + draw(0.0, 0.3) * wave()
    comp[..., 1, 1] = draw(1.0, 2.0) + draw(0.0, 0.3) * wave()
    comp[..., 0, 1] = comp[..., 1, 0] = draw(-0.2, 0.2) * wave()
    f2 = (draw(0.5, 1.2) + draw(0.0, 0.2) * wave()) ** 2
    beta = [draw(0.0, 1.2) * wave(), draw(0.0, 1.2) * wave()]
    ith = y.index("theta")
    comp[..., ith, ith] = f2
    for i in (0, 1):
        comp[..., i, ith] = comp[..., ith, i] = f2 * beta[i]
        for j in (0, 1):
            comp[..., i, j] += f2 * beta[i] * beta[j]
    zeros = np.zeros(y.shape + (3, 3, 3))
    h = as_fd(MetricField(y, comp, zeros, np.zeros(zeros.shape + (3,))))
    return h, doms["x"]


def random_sphere_twist(data):
    doms = w_domains(DomainSpec(SPHERE, 2, (24,), 5))
    # the worst |V| is beta0 / r at the equator: up to 2, past the pi/4
    # cutoff at 1, with tan^2(angle) small enough for a 1e-12 comparison
    r = data.draw(st.floats(0.5, 2.0))
    h = make_metric("sphere_twist", doms["y"], r=r,
                    beta0=data.draw(st.floats(0.0, 2.0 * r)))
    return h, doms["x"]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), sphere=st.booleans())
def test_margin_is_one_minus_tan2_and_decides_the_symbol(data, sphere):
    h, x = (random_sphere_twist if sphere else random_torus_metric)(data)
    fr = normal_frame(h)
    # |V| = tan(angle): the margin field is 1 - h(V, V) = 1 - tan^2(angle)
    assert np.max(np.abs(fr.margin_field - (1.0 - inner(h, fr.v, fr.v)))) \
        < 1e-12
    assert np.max(np.abs(fr.margin_field - (1.0 - np.tan(fr.angle) ** 2))) \
        < 1e-12
    # the operator symbol h_X^-1 - v v^T is positive definite exactly where
    # the margin is positive (matrix determinant lemma)
    v_x = fr.v[..., [h.domain.index(nm) for nm in x.names]]
    symbol = (restrict_metric(h, x).inverse
              - v_x[..., :, None] * v_x[..., None, :])
    eigmin = np.linalg.eigvalsh(symbol)[..., 0]
    decided = np.abs(fr.margin_field) >= 1e-12
    assert np.array_equal((eigmin > 0.0)[decided],
                          (fr.margin_field > 0.0)[decided])
