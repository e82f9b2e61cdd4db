"""Conformal transformation laws and the pointwise positivity certificate.

The solved perturbation u on W lifts to a conformal factor e^{2 phi} with
phi = (2/(n-2)) log(1+u), n the dimension of Y = X x S^1. Slicing at t = 0
gives a deformed metric on X whose scalar curvature is evaluated three ways:

  exact  -- build the deformed X metric and differentiate it numerically;
  chain  -- transform ambient scalar, normal Ricci, and second-fundamental-
            form traces by the conformal laws and assemble the hypersurface
            curvature from them;
  bound  -- the certificate: a per-node lower estimate using only the PDE
            data (forcing value, curvature coefficients, the Laplacian
            mismatch B1 (an operator on X), the gradient correction K2,
            and the profile curvature monitor eta').

The certificate verdict is min bound > 0, strict. Soundness (bound does not
exceed the chain value beyond discretization noise) is recorded, never
enforced: a violation means a bug, not a bad geometry, and must surface in
tests rather than be absorbed here.

Conformal conventions, with s = d_mu phi and n the ambient dimension:

  R~            = e^{-2phi} (R - 2(n-1) Lap phi - (n-1)(n-2) |grad phi|^2)
  Ric~(nu~,nu~) = e^{-2phi} (Ric(mu,mu) - (n-2)(Hess phi(mu,mu) - s^2)
                             - Lap phi - (n-2) |grad phi|^2)
  |A~|^2        = e^{-2phi} (|A|^2 + 2 h s + (n-1) s^2)
  h~^2          = e^{-2phi} (h^2 + 2(n-1) h s + (n-1)^2 s^2)

The Hessian contraction uses the full covariant Hessian of phi: twisted
products have Christoffel symbols pairing the normal with slice directions,
so the iterated derivative (mu . grad)^2 phi is not equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import HypersurfaceData, laplacian_trace
from .errors import ConfigError, NumericalFailure
from .fd import Stencil
from .grids import DiscreteDomain, derivatives
from .metrics import MetricField, _front, conformal_metric
from .solver import operator_matrix

POSITIVITY_FLOOR = 1e-8


def lift_solution(domain: DiscreteDomain, u: np.ndarray, c1: float, n: int):
    """Form u_W = 1 + u, slice u_Y at t = 0, and take its conformal log.

    Returns (u_Y, phi_Y). Refuses solutions outside the perturbative
    regime: u_W must stay strictly positive (the conformal factor
    u_W^{4/(n-2)} degenerates at zero) and c1, the C^1 size of u
    (grids.c1_norm), must stay below 1.
    """
    if n < 3:
        raise ConfigError(f"ambient dimension n={n} must be >= 3")
    u_w = 1.0 + u
    min_u_w = float(np.min(u_w))
    if min_u_w <= POSITIVITY_FLOOR:
        raise NumericalFailure(
            f"conformal factor collapses: min(1+u) = {min_u_w:.3e}")
    if c1 >= 1.0:
        raise NumericalFailure(
            f"solution leaves the small-perturbation regime: C1 norm "
            f"{c1:.3f} >= 1")
    u_y = domain.at_t0(u_w)
    return u_y, (2.0 / (n - 2.0)) * np.log(u_y)


def conformal_scalar(metric: MetricField, phi: np.ndarray, dphi: np.ndarray,
                     d2phi: np.ndarray, n: int) -> np.ndarray:
    """Scalar curvature of e^{2 phi} g from undeformed data; dphi and d2phi
    are the coordinate partials of phi (grids.derivatives)."""
    lap = laplacian_trace(metric, dphi, d2phi)
    dphi = _front(dphi, 1)
    g2 = np.einsum("ij...,i...,j...->...", _front(metric.inverse, 2),
                   dphi, dphi)
    return np.exp(-2.0 * phi) * (metric.scalar - 2.0 * (n - 1.0) * lap
                                 - (n - 1.0) * (n - 2.0) * g2)


def conformal_ricci_normal(metric: MetricField, phi: np.ndarray,
                           dphi: np.ndarray, d2phi: np.ndarray,
                           mu: np.ndarray, n: int) -> np.ndarray:
    """Ric~(nu~, nu~) for the e^{-phi}-normalized normal nu~ = e^{-phi} mu.

    mu must be unit for the undeformed metric; curvature.hypersurface_data
    checks the run's mu before any solve.
    """
    # s and lap sum over trailing axes and stay node-first (metrics.py,
    # working layout); the other contractions run component-first
    s = np.einsum("...i,...i->...", mu, dphi)
    mu, dphi = _front(mu, 1), _front(dphi, 1)
    hess = _front(d2phi, 2) - np.einsum(
        "kij...,k...->ij...", _front(metric.gamma, 3), dphi)
    hess_mm = np.einsum("i...,j...,ij...->...", mu, mu, hess)
    lap = np.einsum("...ij,...ij->...", metric.inverse,
                    _front(hess, hess.ndim - 2))
    g2 = np.einsum("ij...,i...,j...->...", _front(metric.inverse, 2),
                   dphi, dphi)
    ric_mm = np.einsum("ij...,i...,j...->...", _front(metric.ricci, 2),
                       mu, mu)
    return np.exp(-2.0 * phi) * (ric_mm - (n - 2.0) * (hess_mm - s * s)
                                 - lap - (n - 2.0) * g2)


def conformal_second_fundamental(a_norm2, h_mean, phi: np.ndarray,
                                 dphi: np.ndarray, mu: np.ndarray, n: int):
    """(|A|^2, h^2) of the slice under the deformation, as a pair.

    h_mean is the trace of A over the n-1 tangent directions, so the slice
    dimension n-1 is the coefficient that appears: the deformed form is
    e^{phi}(A + (d_mu phi) g) restricted to the tangent block, whence

      |A~|^2 = e^{-2 phi} (|A|^2 + 2 h (d_mu phi) + (n-1) (d_mu phi)^2)
      h~^2   = e^{-2 phi} (h + (n-1) d_mu phi)^2
    """
    s = np.einsum("...i,...i->...", mu, dphi)
    scale = np.exp(-2.0 * phi)
    return (scale * (a_norm2 + 2.0 * h_mean * s + (n - 1.0) * s ** 2),
            scale * (h_mean ** 2 + 2.0 * (n - 1.0) * h_mean * s
                     + (n - 1.0) ** 2 * s ** 2))


def chain_scalar(metric_y: MetricField, phi: np.ndarray, dphi: np.ndarray,
                 d2phi: np.ndarray, mu: np.ndarray, hyp: HypersurfaceData,
                 n: int) -> np.ndarray:
    """Deformed-slice scalar curvature assembled from conformal laws.

    Ambient scalar and normal Ricci transform by the laws above; the trace
    terms come from the undeformed second fundamental form. The three feed
    the hypersurface contraction R - 2 Ric(nu,nu) + h^2 - |A|^2 evaluated
    in the deformed ambient metric. All three read the same partials of
    phi.
    """
    r_t = conformal_scalar(metric_y, phi, dphi, d2phi, n)
    ric_t = conformal_ricci_normal(metric_y, phi, dphi, d2phi, mu, n)
    a2t, h2t = conformal_second_fundamental(hyp.a_norm2, hyp.h_mean, phi,
                                            dphi, mu, n)
    return r_t - 2.0 * ric_t + h2t - a2t


def exact_slice_scalar(metric_y: MetricField, metric_x: MetricField,
                       phi_y: np.ndarray, dphi: np.ndarray,
                       d2phi: np.ndarray) -> np.ndarray:
    """Reference value: direct curvature of e^{2 phi} h_X as a metric on X,
    with metric_x = h_X, the induced slice metric (restrict_metric of
    metric_y to X).

    The partials of phi live on Y; the deformed metric takes their X
    index block.
    """
    x = [metric_y.domain.index(name) for name in metric_x.domain.names]
    return conformal_metric(metric_x, phi_y, dphi[..., x],
                            d2phi[..., x, :][..., :, x]).scalar


def b1_operator(metric_y: MetricField,
                metric_x: MetricField) -> Stencil:
    """The operator on the slice X whose value on u is the Laplacian
    mismatch B1 = Lap_{g_M} u - Lap_{sigma* g} u.

    The d^2u/dt^2 terms of g_M = h + dt^2 and sigma* g = h_X + dt^2 cancel
    and u does not depend on theta, so B1 is one operator on the slice X
    (metric_y = h, metric_x = h_X) applied to every t slice of u, with
    c2 = (h^-1)_XX - h_X^-1, c1 = h_X^ij Gamma_X^k_ij - (h^ij Gamma^k_ij)|_X
    and c0 = 0. Both vanish exactly for product metrics; twisted metrics
    leave a genuine residue from the differing inverse-metric blocks. It
    does not depend on u, so a run builds it once.
    """
    x = metric_x.domain
    idx = [metric_y.domain.index(name) for name in x.names]
    c2 = metric_y.inverse[..., idx, :][..., :, idx] - metric_x.inverse
    c1 = (np.einsum("...ij,...kij->...k", metric_x.inverse, metric_x.gamma)
          - np.einsum("...ij,...kij->...k", metric_y.inverse,
                      metric_y.gamma)[..., idx])
    return operator_matrix(x, c2, c1, 0.0)


def laplacian_comparison(w: DiscreteDomain, u: np.ndarray,
                         b1: Stencil):
    """B1 over the W nodes, the operator b1 (b1_operator) applied to every
    t slice of u, a field that broadcasts to W's shape (t its last stored
    axis, see solver.assemble), and K1 = 4 sup|B1|."""
    f = np.broadcast_to(u, w.shape)
    b1_u = (b1 @ f.reshape(b1.shape[1], -1)).reshape(w.shape)
    return b1_u, 4.0 * float(np.max(np.abs(b1_u)))


def k2_field(u_w: np.ndarray, du: np.ndarray, metric: MetricField,
             v: np.ndarray, n: int) -> np.ndarray:
    """Gradient correction K2 = 4/(n-2) (|grad u_W|^2 + n (V u_W)^2) / u_W.

    du holds the coordinate partials of u_W on the metric's coordinates
    (slice or W); u_W must be strictly positive, it divides
    (lift_solution refuses min u_W <= POSITIVITY_FLOOR).
    """
    vu = np.einsum("...i,...i->...", v, du)
    du = _front(du, 1)
    g2 = np.einsum("ij...,i...,j...->...", _front(metric.inverse, 2),
                   du, du)
    return (4.0 / (n - 2.0)) * (g2 + n * vu * vu) / u_w


def curvature_coefficient(slice_data: HypersurfaceData) -> float:
    """sup over the slice of 2|Ric(mu,mu)| + h^2 + |A|^2."""
    return float(np.max(2.0 * np.abs(slice_data.ric_nn)
                        + slice_data.h_mean ** 2 + slice_data.a_norm2))


def _budget(slice_data: HypersurfaceData, k1: float) -> float:
    """What the certificate consumes of C + 1:
    3/2 sup(2|Ric| + h^2 + |A|^2) + K1 + 2."""
    return 1.5 * curvature_coefficient(slice_data) + k1 + 2.0


def select_C(slice_data: HypersurfaceData, k1: float = 0.0) -> float:
    """Forcing amplitude: 10% above the certificate's consumption budget."""
    return 1.1 * _budget(slice_data, k1)


def headroom_value(C: float, slice_data: HypersurfaceData,
                   k1: float) -> float:
    """Slack C + 1 minus the consumption budget; positive iff the budget
    actually covers the curvature terms."""
    return C + 1.0 - _budget(slice_data, k1)


@dataclass
class CertificateReport:
    """Three curvature evaluations of the deformed slice plus the verdict."""
    r_bound: np.ndarray
    r_chain: np.ndarray
    r_exact: np.ndarray
    min_bound: float
    min_chain: float
    min_exact: float
    chain_gap_max: float
    bound_minus_chain_max: float
    verdict: bool


def certificate(u_y: np.ndarray, phi_y: np.ndarray,
                slice_data: HypersurfaceData,
                forcing_0: np.ndarray, b1_0: np.ndarray, k2: np.ndarray,
                eta_prime: float, metric_y: MetricField, mu: np.ndarray,
                metric_x: MetricField) -> CertificateReport:
    """Assemble the pointwise lower bound and its two cross-checks.

    u_y and phi_y come from lift_solution. forcing_0, k2 and b1_0 (B1
    from laplacian_comparison) are fields on the t = 0 slice; eta_prime is
    the profile-curvature monitor; metric_x is h_X, metric_y restricted to
    X. n is the dimension of Y, metric_y.dim, and R_g = R_h on the slice
    (g = h + dt^2), metric_y.scalar. The bound is

      u_Y^{-(n+2)/(n-2)} [ (-2 Ric(mu,mu) + h^2 - |A|^2) u_Y + F + R_g
                           - 4 B1 - K2 - 4 eta' ]

    with every curvature term undeformed. On the forcing plateau eta' ~
    (C+1 - R_g u)/4 (see solver.dtt_monitor), so -4 eta' cancels most of F
    there: it is a term of the same size as F, not a small error term.
    verdict is min bound > 0, strict:
    certifying positivity through round-off slack would be meaningless.

    phi_Y is differentiated once; the chain and the exact evaluation both
    read those partials. The solve that produced u already met its
    residual tolerance (solver.solve_dirichlet refuses otherwise).
    """
    n = metric_y.dim
    bracket = ((-2.0 * slice_data.ric_nn + slice_data.h_mean ** 2
                - slice_data.a_norm2) * u_y
               + forcing_0 + metric_y.scalar - 4.0 * b1_0 - k2
               - 4.0 * eta_prime)
    r_bound = u_y ** (-(n + 2.0) / (n - 2.0)) * bracket

    dphi, d2phi = derivatives(metric_y.domain, phi_y)
    r_chain = chain_scalar(metric_y, phi_y, dphi, d2phi, mu, slice_data, n)
    r_exact = exact_slice_scalar(metric_y, metric_x, phi_y, dphi, d2phi)

    return CertificateReport(
        r_bound=r_bound,
        r_chain=r_chain,
        r_exact=r_exact,
        min_bound=float(np.min(r_bound)),
        min_chain=float(np.min(r_chain)),
        min_exact=float(np.min(r_exact)),
        chain_gap_max=float(np.max(np.abs(r_chain - r_exact))),
        bound_minus_chain_max=float(np.max(r_bound - r_chain)),
        verdict=bool(np.min(r_bound) > 0.0),
    )
