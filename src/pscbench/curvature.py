"""The Laplace-Beltrami contraction and hypersurface quantities.

Both contract coordinate partials with the Christoffel symbols and Ricci
tensor a MetricField caches (metrics.py), over the full coordinate order
of the domain. Index conventions follow metrics.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .grids import gradient
from .metrics import MetricField, _front

_FRAME_TOL = 1e-8


def laplacian_trace(metric: MetricField, grad: np.ndarray,
                    hess: np.ndarray) -> np.ndarray:
    """The Laplacian's contraction g^ij (hess_ij - Gamma^k_ij grad_k) of
    coordinate partials taken elsewhere, over this metric's coordinates."""
    return (np.einsum("...ij,...ij->...", metric.inverse, hess)
            - np.einsum("ij...,kij...,k...->...",
                        _front(metric.inverse, 2),
                        _front(metric.gamma, 3), _front(grad, 1)))


@dataclass
class HypersurfaceData:
    """Extrinsic data of a coordinate-aligned slice.

    a_form carries the second fundamental form over the tangent coordinate
    indices only.
    """
    a_form: np.ndarray
    h_mean: np.ndarray
    a_norm2: np.ndarray
    ric_nn: np.ndarray


def hypersurface_data(metric: MetricField, tangent_names,
                      nu: np.ndarray) -> HypersurfaceData:
    """Second fundamental form A(V1,V2) = g(nabla_V1 nu, V2), traces, Ric(nu,nu).

    tangent_names lists the coordinate axes spanning the slice; nu must be
    unit and g-orthogonal to them (checked to 1e-8).
    """
    dom = metric.domain
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

    cd = gradient(dom, nu) + np.einsum("...kam,...m->...ka", metric.gamma, nu)

    a_full = np.einsum("jk...,ki...->ij...", _front(metric.comp, 2),
                       _front(cd, 2))
    a_form = _front(a_full, a_full.ndim - 2)[..., tang, :][..., :, tang]

    induced = metric.comp[..., tang, :][..., :, tang]
    inv_ind = np.linalg.inv(induced)
    # h_mean sums over trailing axes and stays node-first (metrics.py,
    # working layout)
    h_mean = np.einsum("...ij,...ij->...", inv_ind, a_form)
    inv_first, a_first = _front(inv_ind, 2), a_full[tang][:, tang]
    a_norm2 = np.einsum("ik...,jl...,ij...,kl...->...",
                        inv_first, inv_first, a_first, a_first)
    nu = _front(nu, 1)
    ric_nn = np.einsum("ij...,i...,j...->...", _front(metric.ricci, 2),
                       nu, nu)
    return HypersurfaceData(a_form, h_mean, a_norm2, ric_nn)


def gauss_codazzi_scalar(r_amb, ric_nn, h_mean, a_norm2):
    """Scalar curvature of a hypersurface from ambient data:
    R_amb - 2 Ric(nu,nu) + h^2 - |A|^2."""
    return r_amb - 2.0 * ric_nn + h_mean ** 2 - a_norm2
