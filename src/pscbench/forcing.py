"""Compactly supported smooth forcing in the cylinder coordinate t.

The profile is the standard exp(-1/s) bump: identically C+1 on the plateau
|t| <= eps/2, identically zero for |t| >= eps, C-infinity in between. The
plateau values are assigned by np.where, so they are exactly C+1 in floating
point, which the downstream cancellation checks rely on.

calibrate_epsilon picks the largest dyadic eps = 2^-k whose forcing has
L^p norm below delta, refusing (ConfigError) once the plateau would cover
fewer than min_plateau_nodes grid points: a bump the grid cannot resolve
produces garbage second differences, not small ones.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .grids import DiscreteDomain, lp_norm
from .metrics import MetricField

# relative fuzz for plateau/support comparisons: t coordinates are computed
# by accumulation and can sit 1 ulp off an exact dyadic boundary
_EDGE_TOL = 1e-12


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


def plateau_node_count(domain: DiscreteDomain, epsilon: float) -> int:
    t = domain.axis("t").coords()
    return int(np.sum(np.abs(t) <= 0.5 * epsilon * (1.0 + _EDGE_TOL)))


def calibrate_epsilon(C: float, p: float, delta: float, metric: MetricField,
                      min_plateau_nodes: int = 4) -> float:
    """Largest dyadic epsilon = 2^-k with ||(C+1) bump_eps||_p < delta.

    Walks k = 1, 2, ... downward in width. Raises ConfigError if no epsilon
    the t grid can resolve is quiet enough; the fix is more t nodes (which
    shrinks the resolvable-width floor), not a looser delta.
    """
    if delta <= 0.0:
        raise ConfigError(f"forcing threshold delta={delta} must be positive")
    dom = metric.domain
    k = 1
    while True:
        eps = 2.0 ** (-k)
        if plateau_node_count(dom, eps) < min_plateau_nodes:
            raise ConfigError(
                f"no epsilon with plateau >= {min_plateau_nodes} t-nodes "
                f"satisfies ||F||_{p:g} < {delta:g}; refine the t grid")
        if lp_norm(build_bump(C, eps, dom), metric, p) < delta:
            return eps
        k += 1
