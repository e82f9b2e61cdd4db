"""Shared manufactured fields, residual constructions and the oracles
the package's production path is checked against."""

import os
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from pscbench.errors import ConfigError
from pscbench.grids import (DomainSpec, build_domain, derivatives, gradient,
                            periodic_axis, w_domains, SPHERE, TORUS)
from pscbench.metrics import (MetricField, make_metric, as_fd,
                              conformal_metric, restrict_metric)
from pscbench.curvature import (hypersurface_data, gauss_codazzi_scalar,
                                laplacian_trace)
from pscbench.normal import unit_normal, normal_frame
from pscbench.conformal import conformal_scalar, conformal_ricci_normal
from pscbench.report import _render, report_pairs
from pscbench.fd import Stencil, diff_matrix
from pscbench.solver import (OperatorAssembly, assemble, solve_dirichlet,
                             operator_matrix, _coefficients)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def cli_env():
    """The environment with this tree's src first on PYTHONPATH, so that a
    `python -m pscbench` subprocess runs the package under test whether or
    not it is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def stored_theta_y(res):
    """T^3 with a stored theta axis, for fields that vary along the circle."""
    x = build_domain(DomainSpec(TORUS, 2, (res, res), 5)).without("t")
    return x.with_axis(periodic_axis("theta", res))


def lp_norm(values, metric, p):
    """Discrete L^p norm with metric volume weight sqrt(det g)."""
    if int(p) != p or p < 1:
        raise ConfigError(f"p must be an integer >= 1, got {p}")
    dom = metric.domain
    integrand = np.abs(values) ** p * metric.sqrt_det
    return float(dom.integrate(integrand) ** (1.0 / p))


def laplacian(metric, f):
    """Laplace-Beltrami of a scalar, g^ij (d2_ij f - Gamma^k_ij d_k f)."""
    return laplacian_trace(metric, *derivatives(metric.domain, f))


def theta_pairing(h, mu):
    """h(mu, d_theta) at every node."""
    ith = h.domain.index("theta")
    return np.einsum("...ij,...j->...i", h.comp, mu)[..., ith]


def vertical_coefficient(h, mu):
    """a = 1/h(d_theta, mu), the d_theta coefficient of mu = a d_theta + V
    (h(mu, mu) = 1 and mu is normal to V)."""
    return 1.0 / theta_pairing(h, mu)


def v_norm2_ratio(h, mu):
    """|V|^2 via the identity -1 + h(d_theta,d_theta)/h(mu,d_theta)^2.

    Independent of the direct h(V, V) evaluation; the two must agree.
    """
    ith = h.domain.index("theta")
    return -1.0 + h.comp[..., ith, ith] / theta_pairing(h, mu) ** 2


def minors_direct(b):
    """Oracle: determinants of the leading minors of I - b b^T, computed
    directly. Cross-checks the closed form on arbitrary b."""
    b = np.asarray(b, dtype=float)
    m = b.shape[-1]
    eye = np.eye(m)
    big = eye - b[..., :, None] * b[..., None, :]
    return np.stack([np.linalg.det(big[..., : k + 1, : k + 1])
                     for k in range(m)], axis=-1)


def serialize_report_doc(doc):
    """A parsed structured report written back in the structured format,
    through the flattening the writer uses."""
    return _render(report_pairs(doc), doc.footer, structured=True)


def hessian_coords_reference(domain, values):
    """Reference for grids.derivatives' second partials: per-axis stencils,
    with the first differences taken anew for the mixed entries."""
    d = domain.dim
    out = np.zeros(domain.shape + (d, d))
    firsts = {}
    for k, a in enumerate(domain.axes):
        if not a.stored:
            continue
        out[..., k, k] = domain.diff(values, a.name, 2)
        firsts[k] = domain.diff(values, a.name, 1)
    for k in firsts:
        for l in firsts:
            if l <= k:
                continue
            mixed = domain.diff(firsts[k], domain.axes[l].name, 1)
            out[..., k, l] = mixed
            out[..., l, k] = mixed
    return out


def as_fd_reference(metric):
    """Reference for metrics.as_fd: per-axis stencil loops over the
    component array."""
    dom = metric.domain
    d1 = np.zeros_like(metric.d1)
    d2 = np.zeros_like(metric.d2)
    for k, ax in enumerate(dom.axes):
        if not ax.stored:
            continue
        d1[..., k] = dom.diff(metric.comp, ax.name, 1)
        d2[..., k, k] = dom.diff(metric.comp, ax.name, 2)
    for k, axk in enumerate(dom.axes):
        if not axk.stored:
            continue
        for l, axl in enumerate(dom.axes):
            if l <= k or not axl.stored:
                continue
            mixed = dom.diff(d1[..., k], axl.name, 1)
            d2[..., k, l] = mixed
            d2[..., l, k] = mixed
    return MetricField(dom, metric.comp, d1, d2)


# --- node-first oracles of the working-layout kernels ----------------------
# metrics.py runs its tensor algebra component-first (its working layout);
# these are the same contractions over the node-first arrays, which
# tests/test_layout.py holds the package to bit for bit.

def inner(metric, v, w):
    """g(v, w) at every node; inner(metric, v, v) is norm2's oracle."""
    return np.einsum("...ij,...i,...j->...", metric.comp, v, w)


def _lowered_reference(d1):
    return (np.einsum("...jli->...lij", d1) + np.einsum("...ilj->...lij", d1)
            - np.einsum("...ijl->...lij", d1))


def gamma_reference(metric):
    return 0.5 * np.einsum("...kl,...lij->...kij", metric.inverse,
                           _lowered_reference(metric.d1))


def ricci_reference(metric):
    inv, d1, d2 = metric.inverse, metric.d1, metric.d2
    gamma = gamma_reference(metric)
    t = _lowered_reference(d1)
    dt = (np.einsum("...jlia->...lija", d2)
          + np.einsum("...ilja->...lija", d2)
          - np.einsum("...ijla->...lija", d2))
    dinv = -np.einsum("...km,...mna,...nl->...kla", inv, d1, inv)
    dgamma = 0.5 * (np.einsum("...kla,...lij->...kija", dinv, t)
                    + np.einsum("...kl,...lija->...kija", inv, dt))
    t1 = np.einsum("...kijk->...ij", dgamma)
    t2 = np.einsum("...kkji->...ij", dgamma)
    q1 = np.einsum("...kkl,...lij->...ij", gamma, gamma)
    q2 = np.einsum("...kil,...lkj->...ij", gamma, gamma)
    return t1 - t2 + q1 - q2


def laplacian_trace_reference(metric, grad, hess):
    return (np.einsum("...ij,...ij->...", metric.inverse, hess)
            - np.einsum("...ij,...kij,...k->...", metric.inverse,
                        gamma_reference(metric), grad))


def hypersurface_reference(metric, tangent_names, nu):
    """(a_form, h_mean, a_norm2, ric_nn) of curvature.hypersurface_data."""
    dom = metric.domain
    tang = [dom.index(n) for n in tangent_names]
    cd = gradient(dom, nu) + np.einsum("...kam,...m->...ka",
                                       gamma_reference(metric), nu)
    a_full = np.einsum("...jk,...ki->...ij", metric.comp, cd)
    a_form = a_full[..., tang, :][..., :, tang]
    induced = metric.comp[..., tang, :][..., :, tang]
    inv_ind = np.linalg.inv(induced)
    h_mean = np.einsum("...ij,...ij->...", inv_ind, a_form)
    a_norm2 = np.einsum("...ik,...jl,...ij,...kl->...",
                        inv_ind, inv_ind, a_form, a_form)
    ric_nn = np.einsum("...ij,...i,...j->...", ricci_reference(metric),
                       nu, nu)
    return a_form, h_mean, a_norm2, ric_nn


def conformal_scalar_reference(metric, phi, dphi, d2phi, n):
    lap = laplacian_trace_reference(metric, dphi, d2phi)
    g2 = np.einsum("...ij,...i,...j->...", metric.inverse, dphi, dphi)
    scalar = np.einsum("...ij,...ij->...", metric.inverse,
                       ricci_reference(metric))
    return np.exp(-2.0 * phi) * (scalar - 2.0 * (n - 1.0) * lap
                                 - (n - 1.0) * (n - 2.0) * g2)


def conformal_ricci_normal_reference(metric, phi, dphi, d2phi, mu, n):
    hess = d2phi - np.einsum("...kij,...k->...ij", gamma_reference(metric),
                             dphi)
    hess_mm = np.einsum("...i,...j,...ij->...", mu, mu, hess)
    s = np.einsum("...i,...i->...", mu, dphi)
    lap = np.einsum("...ij,...ij->...", metric.inverse, hess)
    g2 = np.einsum("...ij,...i,...j->...", metric.inverse, dphi, dphi)
    ric_mm = np.einsum("...ij,...i,...j->...", ricci_reference(metric),
                       mu, mu)
    return np.exp(-2.0 * phi) * (ric_mm - (n - 2.0) * (hess_mm - s * s)
                                 - lap - (n - 2.0) * g2)


def k2_field_reference(u_w, du, metric, v, n):
    g2 = np.einsum("...ij,...i,...j->...", metric.inverse, du, du)
    vu = np.einsum("...i,...i->...", v, du)
    return (4.0 / (n - 2.0)) * (g2 + n * vu * vu) / u_w


def c1_reference(v, metric):
    """c1 of solver._coefficients."""
    dom, inv, gamma = metric.domain, metric.inverse, gamma_reference(metric)
    term1 = np.einsum("...a,...ka->...k", v, gradient(dom, v))
    term2 = np.einsum("...i,...j,...kij->...k", v, v, gamma)
    term3 = np.einsum("...ij,...kij->...k", inv, gamma)
    return 4.0 * (term1 - term2 + term3)


def rng_phi(dom, seed, a1=0.08, a2=0.04):
    """Low-frequency random trig field in every stored coordinate."""
    rng = np.random.default_rng(seed)
    phi = np.zeros(dom.shape)
    for ax in dom.stored_axes:
        c = dom.mesh(ax.name)
        phi = phi + a1 * rng.uniform(0.5, 1.0) * np.cos(c + rng.uniform(0, 2 * np.pi))
        phi = phi + a2 * rng.uniform(0.5, 1.0) * np.sin(2 * c + rng.uniform(0, 2 * np.pi))
    return phi


def phi_and_jets(dom, a=0.1):
    """a cos(x)cos(y)cos(theta) with analytic first and second partials."""
    x, y, th = dom.mesh("x"), dom.mesh("y"), dom.mesh("theta")
    phi = a * np.cos(x) * np.cos(y) * np.cos(th)
    d = dom.dim
    dphi = np.zeros(dom.shape + (d,))
    ix, iy, ith = dom.index("x"), dom.index("y"), dom.index("theta")
    dphi[..., ix] = -a * np.sin(x) * np.cos(y) * np.cos(th)
    dphi[..., iy] = -a * np.cos(x) * np.sin(y) * np.cos(th)
    dphi[..., ith] = -a * np.cos(x) * np.cos(y) * np.sin(th)
    d2 = np.zeros(dom.shape + (d, d))
    d2[..., ix, ix] = -phi
    d2[..., iy, iy] = -phi
    d2[..., ith, ith] = -phi
    d2[..., ix, iy] = d2[..., iy, ix] = a * np.sin(x) * np.sin(y) * np.cos(th)
    d2[..., ix, ith] = d2[..., ith, ix] = a * np.sin(x) * np.cos(y) * np.sin(th)
    d2[..., iy, ith] = d2[..., ith, iy] = a * np.cos(x) * np.sin(y) * np.sin(th)
    return phi, dphi, d2


def gc_deformed_residual(res, name, **params):
    """Worst |assembled Gauss-Codazzi - direct induced R| over two theta slices.

    The undeformed scenario metrics satisfy the contraction to round-off, so
    the refinement study deforms by a conformal factor with analytic jets;
    only the hypersurface/"direct" comparison itself is discretized.
    """
    xdom = build_domain(DomainSpec(TORUS, 2, (res, res), 5)).without("t")
    y = xdom.with_axis(periodic_axis("theta", res))
    g0 = make_metric(name, y, **params)
    phi, dphi, d2phi = phi_and_jets(y)
    g = conformal_metric(g0, phi, dphi=dphi, d2phi=d2phi)
    mu = unit_normal(g)
    hyp = hypersurface_data(g, ("x", "y"), mu)
    gc = gauss_codazzi_scalar(g.scalar, hyp.ric_nn,
                              hyp.h_mean, hyp.a_norm2)
    kth = y.array_axis("theta")
    worst = 0.0
    for j in (0, res // 3):
        gx = restrict_metric(g, xdom, at={"theta": j})
        r_direct = as_fd(gx).scalar
        worst = max(worst, float(np.max(np.abs(np.take(gc, j, axis=kth)
                                               - r_direct))))
    return worst


def conformal_scalar_law_err(res, seed=7, a1=0.08, a2=0.04):
    """Law output vs direct curvature of the rescaled flat T^3 metric."""
    t3 = stored_theta_y(res)
    g = make_metric("product_flat", t3)
    phi = rng_phi(t3, seed, a1, a2)
    law = conformal_scalar(g, phi, *derivatives(t3, phi), t3.dim)
    direct = as_fd(conformal_metric(g, phi)).scalar
    return float(np.max(np.abs(law - direct)))


def conformal_ricci_law_err(res, seed=11, a1=0.08, a2=0.04):
    t3 = stored_theta_y(res)
    g = make_metric("twisted_flat", t3, c=0.5)
    fr = normal_frame(g)
    phi = rng_phi(t3, seed, a1, a2)
    law = conformal_ricci_normal(g, phi, *derivatives(t3, phi), fr.mu,
                                 t3.dim)
    ric_t = as_fd(conformal_metric(g, phi)).ricci
    direct = np.exp(-2.0 * phi) * np.einsum("...ij,...i,...j->...",
                                            ric_t, fr.mu, fr.mu)
    return float(np.max(np.abs(law - direct)))


def slice_laplacian_identity(u: np.ndarray, metric_m: MetricField) -> float:
    """Residual of Lap_M u|_{t=0} = Lap_Y u_Y + d^2u/dt^2|_{t=0}.

    The middle term is the Laplacian of the induced metric on the t = 0
    slice Y. Holds exactly for t-product metrics; the returned sup-residual
    is a consistency diagnostic for the slice bookkeeping.
    """
    dom = metric_m.domain
    metric_y = restrict_metric(metric_m, dom.without("t"),
                               at={"t": dom.axis("t").n // 2})
    lap0 = dom.at_t0(laplacian(metric_m, u))
    d2t0 = dom.at_t0(dom.diff(u, "t", 2))
    lap_y = laplacian(metric_y, dom.at_t0(u))
    return float(np.max(np.abs(lap0 - lap_y - d2t0)))


def product_fields(spec, name, drift=None, **params):
    """W, the slice metric h_X and a drift's X components, the slice data
    the pipeline assembles from: h = make_metric(name) on the slice Y,
    restricted to X. `drift(y)` gives V's components on Y; V is zero when
    it is omitted. Assemble with `assemble(v_x, c0, h_x, w.axis("t"))`."""
    doms = w_domains(spec)
    y, x = doms["y"], doms["x"]
    h_x = restrict_metric(make_metric(name, y, **params), x)
    v_y = np.zeros(y.shape + (y.dim,)) if drift is None else drift(y)
    return doms["w"], h_x, v_y[..., [y.index(nm) for nm in x.names]]


def record_factorizations(monkeypatch) -> list:
    """Record every assembly whose factor is built (OperatorAssembly.lu),
    whichever route factors it; returns the record."""
    built = []
    func = vars(OperatorAssembly)["lu"].func

    def counted(assembly):
        built.append(assembly)
        return func(assembly)

    wrapped = cached_property(counted)
    wrapped.__set_name__(OperatorAssembly, "lu")
    monkeypatch.setattr(OperatorAssembly, "lu", wrapped)
    return built


def as_csr(stencil: Stencil) -> sp.csr_matrix:
    """The stencil's stored entries as a scipy CSR matrix, row by row in
    ascending column order: the product oracle of `Stencil @`."""
    rows, cols, vals = stencil.entries()
    counts = np.bincount(rows, minlength=stencil.shape[0])
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return sp.csr_matrix((vals, cols, indptr), shape=stencil.shape)


def oracle_operator(v, potential, metric):
    """The operator as one 3-D sparse matrix, with its c2 and c1.

    The general assembly for fields of any shape over t: the terms of
    every stored axis, t's included, summed over the full grid, with
    identity rows at t = +-1. The oracle the slice-native solver is
    checked against.
    """
    dom = metric.domain
    c2, c1, c0 = _coefficients(v, potential, metric)
    mat = as_csr(operator_matrix(dom, c2, c1, c0))
    interior = np.ones(dom.shape)
    np.moveaxis(interior, dom.array_axis("t"), 0)[[0, -1]] = 0.0
    interior = interior.ravel()
    mat = sp.diags(interior) @ mat + sp.diags(1.0 - interior)
    return mat.tocsr(), c2, c1



def kron_operator_matrix(dom, c2, c1, c0) -> sp.csr_matrix:
    """The oracle of solver.operator_matrix: the same terms in the same
    order, each a node-diagonal coefficient times a Kronecker product of
    1-d difference matrices (identity on the other axes), summed by sparse
    additions. The sum has no stored zeros; its column indices need not be
    sorted (`sorted_indices()` gives the canonical matrix)."""
    shape = dom.shape

    def embed(factors):
        out = None
        for k, n in enumerate(shape):
            f = factors.get(k, sp.identity(n, format="csr"))
            out = f if out is None else sp.kron(out, f, format="csr")
        return out.tocsr()

    def term(coef, factors):
        return sp.diags(np.broadcast_to(coef, shape).ravel()) @ embed(factors)

    def diff(order, ax):
        return as_csr(diff_matrix(order, ax.n, ax.spacing, ax.closure))

    stored = [(dom.index(ax.name), dom.array_axis(ax.name), ax)
              for ax in dom.stored_axes]
    mat = sp.csr_matrix((dom.node_count, dom.node_count))
    for ca, ka, ax in stored:
        mat = mat + term(c2[..., ca, ca], {ka: diff(2, ax)})
        if np.any(c1[..., ca] != 0.0):
            mat = mat + term(c1[..., ca], {ka: diff(1, ax)})
    for i, (ca, ka, axa) in enumerate(stored):
        for cb, kb, axb in stored[i + 1:]:
            coef = c2[..., ca, cb] + c2[..., cb, ca]
            if np.any(coef != 0.0):
                mat = mat + term(coef, {ka: diff(1, axa), kb: diff(1, axb)})
    return mat + sp.diags(np.broadcast_to(c0, shape).ravel())

# --- manufactured Dirichlet solutions -------------------------------------
# u* = cos(pi t / 2) * (slice profile) vanishes at t = +-1; F* = L u* is
# computed from the closed-form action of the operator on u*.

def flat_cross_fields(res, nt, v=(0.3, 0.4)):
    """product_fields of the flat torus at res^2 x nt with the constant
    drift (v_x, v_y): its (x, y) cross term gives L_X a 9-point stencil."""
    return product_fields(
        DomainSpec(TORUS, 2, (res, res), nt), "product_flat",
        drift=lambda y: np.broadcast_to([v[0], v[1], 0.0], y.shape + (3,)))


def mms_flat_cross(res, nt, v=(0.3, 0.4), c0=1.0):
    dom, g, drift = flat_cross_fields(res, nt, v)
    xs, ys, ts = dom.mesh("x"), dom.mesh("y"), dom.mesh("t")
    u_true = np.cos(np.pi * ts / 2) * np.cos(xs + ys)
    fac = -4 * (v[0] + v[1]) ** 2 + 8 + np.pi ** 2 + c0
    rep = solve_dirichlet(assemble(drift, c0, g, dom.axis("t")),
                          fac * u_true)
    return float(np.max(np.abs(rep.u - u_true))), rep


def mms_twisted(res, nt, c=0.5, c0=1.0):
    vx = -c / np.sqrt(1 + c * c)
    dom, g, drift = product_fields(
        DomainSpec(TORUS, 2, (res, res), nt), "twisted_flat", c=c,
        drift=lambda y: np.broadcast_to([vx, 0.0, 0.0], y.shape + (3,)))
    xs, ts = dom.mesh("x"), dom.mesh("t")
    u_true = np.cos(np.pi * ts / 2) * np.cos(xs)
    fac = 4 * (1 - c * c) / (1 + c * c) + np.pi ** 2 + c0
    rep = solve_dirichlet(assemble(drift, c0, g, dom.axis("t")),
                          fac * u_true)
    return float(np.max(np.abs(rep.u - u_true))), rep


def mms_sphere(nrho, nt, r=1.0, b0=0.5, c0=1.0):
    def drift(y):
        rh = y.mesh("rho")
        beta = b0 * np.sin(rh) ** 2
        v = np.zeros(y.shape + (y.dim,))
        v[..., y.index("alpha")] = -beta / (
            r * np.sin(rh) * np.sqrt(r ** 2 * np.sin(rh) ** 2 + beta ** 2))
        return v

    dom, g, drift_x = product_fields(
        DomainSpec(SPHERE, 2, (nrho,), nt), "sphere_twist", drift=drift,
        r=r, beta0=b0)
    rh, ts = dom.mesh("rho"), dom.mesh("t")
    T = np.cos(np.pi * ts / 2)
    u_true = T * np.cos(rh)
    beta = b0 * np.sin(rh) ** 2
    B = r ** 2 * np.sin(rh) ** 2 + beta ** 2
    Bp = r ** 2 * np.sin(2 * rh) + 2 * beta * (b0 * np.sin(2 * rh))
    F = (-2 * beta ** 2 * Bp * T / (r ** 4 * np.sin(rh) * B)
         + (4 * T / r ** 2) * (np.cos(rh) + Bp * np.sin(rh) / (2 * B))
         + (np.pi ** 2 + c0) * u_true)
    rep = solve_dirichlet(assemble(drift_x, c0, g, dom.axis("t")), F)
    return float(np.max(np.abs(rep.u - u_true))), rep
