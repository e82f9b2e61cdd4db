"""The plateau bump and its norm-targeted width calibration."""

import numpy as np
import pytest

from pscbench.errors import ConfigError
from pscbench.grids import DomainSpec, build_domain, lp_norm, TORUS
from pscbench.metrics import make_metric
from pscbench.forcing import (smooth_step, bump_profile,
                              build_bump, plateau_node_count,
                              calibrate_epsilon)


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
    dom = build_domain(DomainSpec(TORUS, 2, (4, 4), 49))
    assert plateau_node_count(dom, 0.25) == 7   # |t| <= 1/8 at h = 1/24
    assert plateau_node_count(dom, 0.5) == 13
    assert plateau_node_count(dom, 0.125) == 3


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
    g = make_metric("product_flat", dom)
    assert calibrate_epsilon(9.0, 1, 400.0, g) == 0.5
    assert calibrate_epsilon(9.0, 1, 160.0, g) == 0.25
    F = build_bump(9.0, 0.25, dom)
    assert lp_norm(F, g, 1) == pytest.approx(148.0440, abs=1e-3)
    with pytest.raises(ConfigError, match="plateau"):
        # eps = 1/8 would be quiet enough but has too few plateau nodes
        calibrate_epsilon(9.0, 1, 80.0, g)


def test_calibration_counts_metric_volume():
    # twisted volume element sqrt(1+c^2) pushes the norm over the threshold
    dom = build_domain(DomainSpec(TORUS, 2, (8, 8), 97))
    flat = make_metric("product_flat", dom)
    twisted = make_metric("twisted_flat", dom, c=0.5)
    delta = 160.0
    assert calibrate_epsilon(9.0, 1, delta, flat) == 0.25
    assert calibrate_epsilon(9.0, 1, delta, twisted) == 0.125


def test_calibrate_rejects_bad_delta():
    dom = build_domain(DomainSpec(TORUS, 2, (4, 4), 9))
    g = make_metric("product_flat", dom)
    with pytest.raises(ConfigError):
        calibrate_epsilon(9.0, 1, 0.0, g)


def test_calibrate_with_p2_norm():
    dom = build_domain(DomainSpec(TORUS, 2, (8, 8), 97))
    g = make_metric("product_flat", dom)
    eps = calibrate_epsilon(9.0, 2, 40.0, g)
    F = build_bump(9.0, eps, dom)
    assert lp_norm(F, g, 2) < 40.0
    if eps < 0.5:
        wider = build_bump(9.0, 2 * eps, dom)
        assert lp_norm(wider, g, 2) >= 40.0  # eps is the largest feasible width
