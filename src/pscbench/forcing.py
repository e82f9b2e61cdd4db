"""Compactly supported smooth forcing in the cylinder coordinate t.

The profile is the standard exp(-1/s) bump: identically C+1 on the plateau
|t| <= eps/2, identically zero for |t| >= eps, C-infinity in between. The
plateau values are assigned by np.where, so they are exactly C+1 in floating
point, which the downstream cancellation checks rely on.

calibrate_epsilon picks the largest dyadic eps = 2^-k whose forcing has
L^p norm below delta, refusing (ConfigError) once the plateau would cover
fewer than MIN_PLATEAU_NODES grid points, or the monitor core (see
monitor_core) fewer than 3: a bump the grid cannot resolve produces garbage
second differences, not small ones.

The forcing is constant on X and the volume element of g = h_X + dt^2 is
constant in t, so its norm on W is a product quadrature: vol_h(X) times a
1-D quadrature of the profile in t (forcing_norm).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .grids import Axis, DiscreteDomain
from .metrics import MetricField

# relative fuzz for plateau/support comparisons: t coordinates are computed
# by accumulation and can sit 1 ulp off an exact dyadic boundary
_EDGE_TOL = 1e-12
MIN_PLATEAU_NODES = 4


def smooth_step(s: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for s <= 0, 1 for s >= 1, strictly monotone between."""
    s = np.asarray(s, dtype=float)
    lo = s <= 0.0
    hi = s >= 1.0
    mid = ~(lo | hi)
    out = np.where(hi, 1.0, 0.0)
    if np.any(mid):
        sm = s[mid]
        a = np.exp(-1.0 / sm)
        b = np.exp(-1.0 / (1.0 - sm))
        out[mid] = a / (a + b)
    return out


def bump_profile(t: np.ndarray, epsilon: float) -> np.ndarray:
    """Plateau-1 bump: 1 on |t| <= eps/2, 0 on |t| >= eps, smooth ramp between."""
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"bump width epsilon={epsilon} must lie in (0, 1)")
    at = np.abs(np.asarray(t, dtype=float))
    half = 0.5 * epsilon
    ramp = smooth_step((epsilon - at) / half)
    ramp = np.where(at <= half * (1.0 + _EDGE_TOL), 1.0, ramp)
    return np.where(at >= epsilon * (1.0 - _EDGE_TOL), 0.0, ramp)


def build_bump(C: float, epsilon: float,
               domain: DiscreteDomain) -> np.ndarray:
    """Forcing F = (C+1) * bump_eps(t) on the domain; constant in
    everything but t."""
    return (C + 1.0) * bump_profile(domain.mesh("t"), epsilon)


def plateau_node_count(t_axis: Axis, epsilon: float) -> int:
    t = t_axis.coords()
    return int(np.sum(np.abs(t) <= 0.5 * epsilon * (1.0 + _EDGE_TOL)))


def monitor_core(t_axis: Axis, epsilon: float) -> np.ndarray:
    """Indices of the t nodes in the core |t| < epsilon/4, strict, over
    which solver.dtt_monitor takes eta'.

    Refuses (ConfigError) when the core holds fewer than 3 t-nodes: a sup
    over one or two points says nothing about the profile curvature.
    """
    core = np.nonzero(np.abs(t_axis.coords()) < 0.25 * epsilon)[0]
    if core.size < 3:
        raise ConfigError(
            f"monitor region |t| < {0.25 * epsilon:g} contains only "
            f"{core.size} t-nodes (need >= 3); refine the t grid")
    return core


def forcing_norm(C: float, epsilon: float, p: int, metric_x: MetricField,
                 t_axis: Axis) -> float:
    """||(C+1) bump_eps(t)||_p on W = X x t_axis with g = h_X + dt^2:
    (C+1) (vol_h(X) sum_t w_t bump^p)^(1/p), with metric_x = h_X."""
    if int(p) != p or p < 1:
        raise ConfigError(f"p must be an integer >= 1, got {p}")
    volume = float(metric_x.domain.integrate(metric_x.sqrt_det))
    profile = float(np.sum(t_axis.weights()
                           * bump_profile(t_axis.coords(), epsilon) ** p))
    return (C + 1.0) * (volume * profile) ** (1.0 / p)


def calibrate_epsilon(C: float, p: float, delta: float,
                      metric_x: MetricField, t_axis: Axis) -> float:
    """Largest dyadic epsilon = 2^-k with ||(C+1) bump_eps||_p < delta on
    W = X x t_axis, metric_x = h_X (see forcing_norm).

    Walks k = 1, 2, ... downward in width. Raises ConfigError if no epsilon
    the t grid can resolve is quiet enough; the fix is more t nodes (which
    shrinks the resolvable-width floor), not a looser delta. A width whose
    monitor core holds too few nodes is refused here, before any solve:
    dtt_monitor would refuse it after one.
    """
    if delta <= 0.0:
        raise ConfigError(f"forcing threshold delta={delta} must be positive")
    k = 1
    while True:
        eps = 2.0 ** (-k)
        if plateau_node_count(t_axis, eps) < MIN_PLATEAU_NODES:
            raise ConfigError(
                f"no epsilon with plateau >= {MIN_PLATEAU_NODES} t-nodes "
                f"satisfies ||F||_{p:g} < {delta:g}; refine the t grid")
        monitor_core(t_axis, eps)
        if forcing_norm(C, eps, p, metric_x, t_axis) < delta:
            return eps
        k += 1
