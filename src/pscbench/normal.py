"""Normal decomposition mu = a d_theta + V on slices X x {P}, the angle
condition, and the ellipticity criterion.

The slice unit normal inside X x S^1 is computed pointwise: orthogonality to
the X directions forces H mu to be proportional to e_theta, so mu is the
normalized theta-column of H^-1. Everything downstream is algebra on that
vector: a = h(d_theta, mu)^-1, V = mu - a d_theta (exactly theta-free), the
h-angle arccos(h(mu, d_theta)/|d_theta|_h), and the Sylvester minors
1 - sum_{i<=k} b_i^2 of I - b b^T for b the orthonormal-frame components
of V.

The ellipticity verdict uses a strict margin floor instead of > 0: discrete
solves degenerate before the exact boundary |V|^2 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .metrics import MetricField

MARGIN_FLOOR = 1e-8


def unit_normal(h: MetricField) -> np.ndarray:
    """Unit normal of the X x {P} slices, oriented by h(mu, d_theta) > 0.

    Every metric here is theta-independent, so the normal is the same field
    for every section position P.
    """
    dom = h.domain
    ith = dom.index("theta")
    e = np.zeros(dom.shape + (dom.dim, 1))
    e[..., ith, 0] = 1.0
    w = np.linalg.solve(h.comp, e)[..., 0]
    # w_theta = (H^-1)_theta,theta > 0 by positivity, so the sign is fixed
    s = np.sqrt(w[..., ith])
    return w / s[..., None]


def decompose_normal(h: MetricField, mu: np.ndarray):
    """a = h(d_theta, mu)^-1 and V = mu - a d_theta (theta component zeroed)."""
    dom = h.domain
    ith = dom.index("theta")
    pair = np.einsum("...ij,...j->...i", h.comp, mu)[..., ith]
    if float(np.min(pair)) <= 0.0:
        raise NumericalFailure(
            "h(d_theta, mu) <= 0 at some node: normal orientation broken")
    a = 1.0 / pair
    v = mu.copy()
    v[..., ith] = 0.0
    return a, v


def angle_field(h: MetricField, mu: np.ndarray) -> np.ndarray:
    """h-angle between mu and d_theta, in [0, pi/2)."""
    dom = h.domain
    ith = dom.index("theta")
    pair = np.einsum("...ij,...j->...i", h.comp, mu)[..., ith]
    cosang = pair / np.sqrt(h.comp[..., ith, ith])
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def slice_tangent_indices(h: MetricField):
    return [i for i, n in enumerate(h.domain.names) if n != "theta"]


def frame_components(v: np.ndarray, h: MetricField) -> np.ndarray:
    """Components b of V in an h-orthonormal frame of the slice.

    Cholesky of the X block: h_X = L L^T, b = L^T V. Only orthonormality
    matters; sum b_i^2 = |V|^2_h because V is tangent to X.
    """
    xidx = slice_tangent_indices(h)
    hxx = h.comp[..., xidx, :][..., :, xidx]
    chol = np.linalg.cholesky(hxx)
    return np.einsum("...ji,...j->...i", chol, v[..., xidx])


def ellipticity_minors(v: np.ndarray, h: MetricField):
    """Leading principal minors of I - b b^T via 1 - sum_{i<=k} b_i^2.

    Returns (dets, is_elliptic, margin); margin is the worst-node value of
    the last minor, 1 - |V|^2.
    """
    b = frame_components(v, h)
    dets = 1.0 - np.cumsum(b * b, axis=-1)
    margin = float(np.min(dets[..., -1]))
    return dets, margin > MARGIN_FLOOR, margin


@dataclass
class NormalFrame:
    """Per-node normal data on a slice X x {P}."""
    mu: np.ndarray
    v: np.ndarray
    angle: np.ndarray
    dets: np.ndarray
    margin: float
    is_elliptic: bool

    @property
    def max_angle(self) -> float:
        return float(np.max(self.angle))


def normal_frame(h: MetricField) -> NormalFrame:
    mu = unit_normal(h)
    _, v = decompose_normal(h, mu)
    angle = angle_field(h, mu)
    dets, ok, margin = ellipticity_minors(v, h)
    return NormalFrame(mu=mu, v=v, angle=angle, dets=dets, margin=margin,
                       is_elliptic=ok)
