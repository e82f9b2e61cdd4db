"""Normal decomposition on slices: frame identities, angle, ellipticity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pscbench.grids import DomainSpec, w_domains, TORUS, SPHERE
from pscbench.metrics import MetricField, make_metric, conformal_metric
from pscbench.normal import (MARGIN_FLOOR, unit_normal, decompose_normal,
                             angle_field, frame_components,
                             ellipticity_minors, normal_frame)

from helpers import inner, minors_direct, v_norm2_ratio


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
    assert np.max(np.abs(decompose_normal(h, fr.mu)[0] * inner_th - 1.0)) \
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
    assert np.allclose(decompose_normal(h, fr.mu)[0], s, atol=1e-12)
    assert np.allclose(fr.v[..., ix], -c / s, atol=1e-12)
    assert np.allclose(h.norm2(fr.v), c * c, atol=1e-12)
    assert np.allclose(fr.angle, math.atan(c), atol=1e-10)
    assert np.allclose(fr.dets, 1 - c * c, atol=1e-12)
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
    mu = unit_normal(h)
    _, v = decompose_normal(h, mu)
    b = frame_components(v, h)
    # L^T V has length |V|_h by construction
    assert np.allclose(np.sum(b * b, axis=-1), c * c, atol=1e-12)
    dets, elliptic, margin = ellipticity_minors(v, h)
    assert np.max(np.abs(dets - minors_direct(b))) < 1e-12
    assert elliptic and margin == pytest.approx(1 - c * c, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(0.0, 2.0), amp=st.floats(0.0, 0.3), seed=st.integers(0, 99))
def test_angle_is_conformally_invariant(c, amp, seed):
    y = w_domains(DomainSpec(TORUS, 2, (6, 6), 5))["y"]
    h = make_metric("twisted_flat", y, c=c)
    rng = np.random.default_rng(seed)
    phi = amp * np.cos(y.mesh("x") + rng.uniform(0, 2 * np.pi)) \
        * np.sin(y.mesh("y") + rng.uniform(0, 2 * np.pi)) * np.ones(y.shape)
    h2 = conformal_metric(h, phi)
    a1 = angle_field(h, unit_normal(h))
    a2 = angle_field(h2, unit_normal(h2))
    # arccos near 1 turns eps-level roundoff into sqrt(eps) angle noise
    assert np.max(np.abs(a1 - a2)) < 1e-7


def test_angle_halfspace_equivalence():
    # angle < pi/4 iff h_theta_theta / h(mu, d_theta)^2 < 2, node by node
    for c in (0.5, 1.0, 1.5):
        y = torus_y()
        h = make_metric("twisted_flat", y, c=c)
        mu = unit_normal(h)
        ang = angle_field(h, mu)
        ith = y.index("theta")
        e_th = np.zeros(y.shape + (3,))
        e_th[..., ith] = 1.0
        ratio = h.comp[..., ith, ith] / inner(h, mu, e_th) ** 2
        assert np.array_equal(ang < np.pi / 4, ratio < 2.0)
