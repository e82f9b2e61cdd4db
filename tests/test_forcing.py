"""The plateau bump and its norm-targeted width calibration."""

import numpy as np
import pytest

from pscbench.errors import ConfigError
from pscbench.grids import (DomainSpec, build_domain, w_domains, SPHERE,
                            TORUS)
from pscbench.metrics import make_metric, restrict_metric
from pscbench.forcing import (smooth_step, bump_profile,
                              build_bump, plateau_node_count,
                              calibrate_epsilon, forcing_norm)

from helpers import lp_norm


def slice_metric(dom, name, **params):
    """h_X: the builtin metric on the slice X of the solve domain W."""
    return make_metric(name, dom.without("t"), **params)


def test_smooth_step_shape():
    s = np.linspace(-0.5, 1.5, 201)
    out = smooth_step(s)
    assert np.all(out[s <= 0.0] == 0.0)
    assert np.all(out[s >= 1.0] == 1.0)
    assert smooth_step(np.array([0.5]))[0] == pytest.approx(0.5)
    assert np.all(np.diff(out) >= 0.0)
    # flat to all orders at the ends: already tiny just inside
    assert smooth_step(np.array([0.01]))[0] < 1e-40


def test_bump_plateau_is_exact():
    dom = build_domain(DomainSpec(TORUS, 2, (4, 4), 49))
    C = 9.0
    F = build_bump(C, 0.25, dom)
    t = dom.axis("t").coords()
    kt = dom.array_axis("t")
    prof = np.moveaxis(F, kt, -1)[0, 0]
    on = np.abs(t) <= 0.125 + 1e-12
    off = np.abs(t) >= 0.25 - 1e-12
    assert np.all(prof[on] == C + 1.0)  # bitwise, the cancellations rely on it
    assert np.all(prof[off] == 0.0)
    ramp = prof[~(on | off)]
    assert np.all((ramp > 0.0) & (ramp < C + 1.0))


def test_bump_profile_width_validation():
    t = np.linspace(-1, 1, 11)
    with pytest.raises(ConfigError):
        bump_profile(t, 0.0)
    with pytest.raises(ConfigError):
        bump_profile(t, 1.0)


def test_plateau_node_count():
    t = build_domain(DomainSpec(TORUS, 2, (4, 4), 49)).axis("t")
    assert plateau_node_count(t, 0.25) == 7   # |t| <= 1/8 at h = 1/24
    assert plateau_node_count(t, 0.5) == 13
    assert plateau_node_count(t, 0.125) == 3


def test_norm_scales_linearly_with_width():
    dom = build_domain(DomainSpec(TORUS, 2, (8, 8), 97))
    g = make_metric("product_flat", dom)
    norms = [lp_norm(build_bump(9.0, eps, dom), g, 1)
             for eps in (0.5, 0.25, 0.125)]
    assert norms[0] > norms[1] > norms[2]
    # support integral is 1.5 eps, so halving eps should halve the norm
    assert norms[1] / norms[0] == pytest.approx(0.5, abs=0.01)
    # closed form: (C+1) * 1.5 eps * (2 pi)^2
    assert norms[0] == pytest.approx(10.0 * 1.5 * 0.5 * (2 * np.pi) ** 2,
                                     rel=1e-3)


def test_calibration_frozen_values():
    dom = build_domain(DomainSpec(TORUS, 2, (8, 8), 49))
    h_x, t = slice_metric(dom, "product_flat"), dom.axis("t")
    assert calibrate_epsilon(9.0, 1, 400.0, h_x, t) == 0.5
    assert calibrate_epsilon(9.0, 1, 160.0, h_x, t) == 0.25
    assert forcing_norm(9.0, 0.25, 1, h_x, t) == pytest.approx(148.0440,
                                                               abs=1e-3)
    with pytest.raises(ConfigError, match="plateau"):
        # eps = 1/8 would be quiet enough but has too few plateau nodes
        calibrate_epsilon(9.0, 1, 80.0, h_x, t)


def test_calibration_refuses_a_width_the_monitor_cannot_read():
    # at 17 t-nodes (h = 1/8) eps = 1/2 has a 5-node plateau, but the
    # monitor core |t| < 1/8 holds only t = 0: refused before any solve,
    # however loose delta is
    dom = build_domain(DomainSpec(TORUS, 2, (4, 4), 17))
    h_x, t = slice_metric(dom, "product_flat"), dom.axis("t")
    assert plateau_node_count(t, 0.5) == 5
    with pytest.raises(ConfigError, match="contains only 1 t-nodes"):
        calibrate_epsilon(9.0, 1, 1e6, h_x, t)
    # at 33 t-nodes the core of eps = 1/2 holds 3 nodes: accepted
    wide = build_domain(DomainSpec(TORUS, 2, (4, 4), 33))
    assert calibrate_epsilon(9.0, 1, 1e6, h_x, wide.axis("t")) == 0.5


@pytest.mark.parametrize("name, spec, params", [
    ("twisted_flat", DomainSpec(TORUS, 2, (8, 8), 49), {"c": 0.5}),
    ("sphere_twist", DomainSpec(SPHERE, 2, (16,), 49),
     {"r": 1.0, "beta0": 0.5}),
], ids=["twisted_flat", "sphere_twist"])
@pytest.mark.parametrize("p", [1, 2])
def test_forcing_norm_matches_lp_norm_on_materialised_w(name, spec, params,
                                                        p):
    # the product quadrature against the L^p norm over W with the metric
    # g = h_X + dt^2 materialised over every t node
    doms = w_domains(spec)
    w = doms["w"]
    h_x = restrict_metric(make_metric(name, doms["y"], **params), doms["x"])
    g_w = make_metric(name, w, **params)
    for C, eps in ((2.2, 0.5), (9.0, 0.25), (0.5, 0.125)):
        oracle = lp_norm(build_bump(C, eps, w), g_w, p)
        assert forcing_norm(C, eps, p, h_x, w.axis("t")) == \
            pytest.approx(oracle, rel=1e-14)


def test_forcing_norm_rejects_bad_p():
    dom = build_domain(DomainSpec(TORUS, 2, (4, 4), 9))
    h_x, t = slice_metric(dom, "product_flat"), dom.axis("t")
    for p in (0, 1.5):
        with pytest.raises(ConfigError, match="p must be an integer"):
            forcing_norm(9.0, 0.5, p, h_x, t)


def test_calibration_counts_metric_volume():
    # twisted volume element sqrt(1+c^2) pushes the norm over the threshold
    dom = build_domain(DomainSpec(TORUS, 2, (8, 8), 97))
    flat = slice_metric(dom, "product_flat")
    twisted = slice_metric(dom, "twisted_flat", c=0.5)
    delta, t = 160.0, dom.axis("t")
    assert calibrate_epsilon(9.0, 1, delta, flat, t) == 0.25
    assert calibrate_epsilon(9.0, 1, delta, twisted, t) == 0.125


def test_calibrate_rejects_bad_delta():
    dom = build_domain(DomainSpec(TORUS, 2, (4, 4), 9))
    with pytest.raises(ConfigError):
        calibrate_epsilon(9.0, 1, 0.0, slice_metric(dom, "product_flat"),
                          dom.axis("t"))


def test_calibrate_with_p2_norm():
    dom = build_domain(DomainSpec(TORUS, 2, (8, 8), 97))
    h_x, t = slice_metric(dom, "product_flat"), dom.axis("t")
    eps = calibrate_epsilon(9.0, 2, 40.0, h_x, t)
    assert forcing_norm(9.0, eps, 2, h_x, t) < 40.0
    if eps < 0.5:
        # eps is the largest feasible width
        assert forcing_norm(9.0, 2 * eps, 2, h_x, t) >= 40.0
