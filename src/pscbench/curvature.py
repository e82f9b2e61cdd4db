"""Pointwise Riemannian curvature and hypersurface quantities.

Everything works from the coordinate (Christoffel) form of the curvature,
contracted with einsum over the full coordinate order of the domain. When
the metric carries closed-form derivative arrays the Christoffel symbols and
their derivatives are pointwise exact; FD-mode metrics give second order
accuracy instead.

Index conventions follow metrics.py; gamma[..., k, i, j] holds Gamma^k_ij
and dgamma[..., k, i, j, a] holds d_a Gamma^k_ij.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .grids import derivatives, gradient
from .metrics import MetricField

_FRAME_TOL = 1e-8


def christoffel(metric: MetricField) -> np.ndarray:
    inv, d1 = metric.inverse, metric.d1
    t = (np.einsum("...jli->...lij", d1) + np.einsum("...ilj->...lij", d1)
         - np.einsum("...ijl->...lij", d1))
    return 0.5 * np.einsum("...kl,...lij->...kij", inv, t)


def christoffel_derivative(metric: MetricField) -> np.ndarray:
    """d_a Gamma^k_ij by the product rule; exact for closed-form metrics."""
    inv, d1, d2 = metric.inverse, metric.d1, metric.d2
    t = (np.einsum("...jli->...lij", d1) + np.einsum("...ilj->...lij", d1)
         - np.einsum("...ijl->...lij", d1))
    dt = (np.einsum("...jlia->...lija", d2) + np.einsum("...ilja->...lija", d2)
          - np.einsum("...ijla->...lija", d2))
    dinv = -np.einsum("...km,...mna,...nl->...kla", inv, d1, inv)
    return 0.5 * (np.einsum("...kla,...lij->...kija", dinv, t)
                  + np.einsum("...kl,...lija->...kija", inv, dt))


def ricci(metric: MetricField, gamma=None) -> np.ndarray:
    if gamma is None:
        gamma = christoffel(metric)
    dgamma = christoffel_derivative(metric)
    t1 = np.einsum("...kijk->...ij", dgamma)
    t2 = np.einsum("...kkji->...ij", dgamma)
    q1 = np.einsum("...kkl,...lij->...ij", gamma, gamma)
    q2 = np.einsum("...kil,...lkj->...ij", gamma, gamma)
    return t1 - t2 + q1 - q2


def scalar_curvature(metric: MetricField) -> np.ndarray:
    return np.einsum("...ij,...ij->...", metric.inverse, ricci(metric))


@dataclass
class CurvatureBundle:
    metric: MetricField
    gamma: np.ndarray
    ricci: np.ndarray
    scalar: np.ndarray

    def ric_vv(self, v: np.ndarray) -> np.ndarray:
        return np.einsum("...ij,...i,...j->...", self.ricci, v, v)


def curvature_bundle(metric: MetricField) -> CurvatureBundle:
    gamma = christoffel(metric)
    ric = ricci(metric, gamma=gamma)
    scal = np.einsum("...ij,...ij->...", metric.inverse, ric)
    return CurvatureBundle(metric, gamma, ric, scal)


def laplacian(metric: MetricField, f: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami of a scalar, g^ij (d2_ij f - Gamma^k_ij d_k f)."""
    return laplacian_trace(metric, christoffel(metric),
                           *derivatives(metric.domain, f))


def laplacian_trace(metric: MetricField, gamma: np.ndarray, grad: np.ndarray,
                    hess: np.ndarray) -> np.ndarray:
    """The Laplacian's contraction g^ij (hess_ij - Gamma^k_ij grad_k) of
    coordinate partials taken elsewhere, over this metric's coordinates."""
    return (np.einsum("...ij,...ij->...", metric.inverse, hess)
            - np.einsum("...ij,...kij,...k->...", metric.inverse, gamma, grad))


@dataclass
class HypersurfaceData:
    """Extrinsic data of a coordinate-aligned slice.

    a_form carries the second fundamental form over the tangent coordinate
    indices only; tangent_names records which coordinates those are.
    """
    tangent_names: tuple
    a_form: np.ndarray
    h_mean: np.ndarray
    a_norm2: np.ndarray
    ric_nn: np.ndarray


def hypersurface_data(metric: MetricField, tangent_names, nu: np.ndarray,
                      bundle: CurvatureBundle = None) -> HypersurfaceData:
    """Second fundamental form A(V1,V2) = g(nabla_V1 nu, V2), traces, Ric(nu,nu).

    tangent_names lists the coordinate axes spanning the slice; nu must be
    unit and g-orthogonal to them (checked to 1e-8).
    """
    dom = metric.domain
    if bundle is None:
        bundle = curvature_bundle(metric)
    gamma = bundle.gamma

    nn = metric.norm2(nu)
    if float(np.max(np.abs(nn - 1.0))) > _FRAME_TOL:
        raise NumericalFailure(
            f"normal not unit: max |g(nu,nu)-1| = {np.max(np.abs(nn - 1.0)):.3e}")
    tang = [dom.index(n) for n in tangent_names]
    pairing = np.einsum("...ij,...j->...i", metric.comp, nu)
    worst = float(np.max(np.abs(pairing[..., tang])))
    if worst > _FRAME_TOL:
        raise NumericalFailure(
            f"normal not orthogonal to slice tangents: max pairing {worst:.3e}")

    cd = gradient(dom, nu) + np.einsum("...kam,...m->...ka", gamma, nu)

    a_full = np.einsum("...jk,...ki->...ij", metric.comp, cd)
    a_form = a_full[..., tang, :][..., :, tang]

    induced = metric.comp[..., tang, :][..., :, tang]
    inv_ind = np.linalg.inv(induced)
    h_mean = np.einsum("...ij,...ij->...", inv_ind, a_form)
    a_norm2 = np.einsum("...ik,...jl,...ij,...kl->...",
                        inv_ind, inv_ind, a_form, a_form)
    ric_nn = bundle.ric_vv(nu)
    return HypersurfaceData(tuple(tangent_names), a_form, h_mean, a_norm2, ric_nn)


def gauss_codazzi_scalar(r_amb, ric_nn, h_mean, a_norm2):
    """Scalar curvature of a hypersurface from ambient data:
    R_amb - 2 Ric(nu,nu) + h^2 - |A|^2."""
    return r_amb - 2.0 * ric_nn + h_mean ** 2 - a_norm2
