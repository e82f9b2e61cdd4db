"""The slice normal mu on X x {P}, its drift V, the section angle and the
ellipticity margin, the last two from one norm h(V, V).

The slice unit normal inside X x S^1 is computed pointwise: orthogonality to
the X directions forces H mu to be proportional to e_theta, so mu is the
normalized theta-column of H^-1, oriented by the pairing
p = h(mu, d_theta) > 0. Write mu = a d_theta + V with V tangent to
X (mu with its theta slot zeroed). Since mu is unit and normal to X,
1 = h(mu, mu) = a p, so a = 1/p, and

  |V|^2 = |mu - a d_theta|^2 = 1 - 2 a p + a^2 |d_theta|^2
        = |d_theta|^2 / p^2 - 1 = 1/cos^2(angle) - 1 = tan^2(angle)

for the h-angle between mu and d_theta, cos(angle) = p / |d_theta|. So
|V| = tan(angle) at every node, and the angle is taken as
arctan(sqrt(h(V, V))), which keeps its relative precision as the angle
goes to 0, where arccos(p / |d_theta|) loses it. The angle condition
angle < pi/4 is the condition |V| < 1 under which the symbol
h_X^-1 - V V^T of 4 grad_V grad_V - 4 Lap + R is positive definite
(matrix determinant lemma: det(h_X^-1 - v v^T) = det(h_X^-1)
(1 - h_X(v, v)), and a rank-one subtraction moves at most one
eigenvalue). The margin field is 1 - h(V, V) = 1 - tan^2(angle).

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


@dataclass
class NormalFrame:
    """Per-node normal data on a slice X x {P}: the unit normal mu, its
    drift V, the angle to d_theta, the margin field 1 - |V|^2, and the
    margin's worst-node value."""
    mu: np.ndarray
    v: np.ndarray
    angle: np.ndarray
    margin_field: np.ndarray
    margin: float
    is_elliptic: bool

    @property
    def max_angle(self) -> float:
        return float(np.max(self.angle))


def normal_frame(h: MetricField) -> NormalFrame:
    mu = unit_normal(h)
    ith = h.domain.index("theta")
    pair = np.einsum("...ij,...j->...i", h.comp, mu)[..., ith]
    if float(np.min(pair)) <= 0.0:
        raise NumericalFailure(
            "h(d_theta, mu) <= 0 at some node: normal orientation broken")
    v = mu.copy()
    v[..., ith] = 0.0
    v2 = h.norm2(v)
    angle = np.arctan(np.sqrt(v2))
    margin_field = 1.0 - v2
    margin = float(np.min(margin_field))
    return NormalFrame(mu=mu, v=v, angle=angle, margin_field=margin_field,
                       margin=margin, is_elliptic=margin > MARGIN_FLOOR)
