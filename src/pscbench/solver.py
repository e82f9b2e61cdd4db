"""Anisotropic elliptic operator on W = X x [-1,1] and the Dirichlet solve.

The operator is assembled from per-node coefficient fields

    C2[a,b] = 4 (V^a V^b - g^{ab})                       second order
    C1[k]   = 4 (V^i d_i V^k - V^i V^j Gamma^k_ij + g^{ij} Gamma^k_ij)
    C0      = potential

acting as sum C2[a,b] d_a d_b + sum C1[k] d_k + C0. For drift fields whose
coordinate self-derivative V^i d_i V^k vanishes (every builtin scenario: V
is coordinate-parallel) the iterated-derivative and covariant-Hessian
readings of the squared drift coincide, and the coefficient list above is
that common value.

Coefficient sums run over the full coordinate set including virtual axes:
the funnel terms g^{aa} Gamma^k_aa of an axisymmetric Laplacian live in the
virtual azimuth slot even though no difference matrix exists there.

The matrix is a sum of Kronecker products of 1-d difference matrices scaled
by node-diagonal coefficients. Rows at t = +-1 are replaced by identity
(homogeneous Dirichlet); the right-hand side is zeroed there.

When every coefficient is constant in t and t enters only through a
constant c2[t,t] d_t^2 term (no mixed or first-order t term), the interior
block is a Kronecker sum L_X (x) I + I (x) T, with L_X the operator on the
slice X and T = c2[t,t] D2_t the Dirichlet t block. Every builtin scenario
is of this kind: g = h + dt^2 is a product and V has no t component. Such an
operator is solved by fast diagonalization in t (Lynch, Rice & Thomas,
Numer. Math. 6 (1964) 185-199): with T = Q diag(lam) Q^T, rotating the
interior right-hand side by Q^T decouples it into t_nodes - 2 slice problems
(L_X + lam_k I) w_k = f_k, which one sparse LU of the block-diagonal
kron(I, L_X) + kron(diag(lam), I) solves together. Every other operator is
factored as the full matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, HypothesisViolation, NumericalFailure
from .fd import diff_matrix
from .grids import DiscreteDomain, gradient
from .metrics import MetricField

ANISOTROPY_WARN_RATIO = 1e6


@dataclass(frozen=True)
class OperatorAssembly:
    """Assembled operator plus the coefficient fields it was built from.

    Frozen, so the LU factorization cached on first use stays the factor
    of `matrix`, or on the fast path of its t-rotated interior block; every
    solve with this assembly reuses it. `slice_operator` (L_X) and the
    eigenpairs of the t block are set only when the operator separates in t.
    """
    domain: DiscreteDomain
    matrix: sp.csr_matrix
    c2: np.ndarray
    c1: np.ndarray
    c0: np.ndarray
    interior: np.ndarray
    slice_operator: sp.csr_matrix | None = None
    t_eigvals: np.ndarray | None = None
    t_eigvecs: np.ndarray | None = None

    @property
    def method(self) -> str:
        return "splu" if self.slice_operator is None else "fastdiag"

    @cached_property
    def lu(self):
        mat = self.matrix
        if self.slice_operator is not None:
            eye_x = sp.identity(self.slice_operator.shape[0], format="csr")
            mat = (sp.kron(sp.identity(self.t_eigvals.size, format="csr"),
                           self.slice_operator)
                   + sp.kron(sp.diags(self.t_eigvals), eye_x))
        try:
            return spla.splu(mat.tocsc())
        except RuntimeError as exc:
            raise NumericalFailure(
                f"sparse LU factorization failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """matrix^-1 rhs for a flat rhs that is zero on the t = +-1 rows.

        On the fast path the interior rows are rotated into the eigenbasis
        of the t block, solved with the block-diagonal factor and rotated
        back; the t = +-1 rows stay exactly 0.
        """
        if self.slice_operator is None:
            return self.lu.solve(rhs)
        kt = self.domain.array_axis("t")
        f = np.moveaxis(rhs.reshape(self.domain.shape), kt, 0)
        m = self.t_eigvals.size
        rotated = self.t_eigvecs.T @ f[1:-1].reshape(m, -1)
        w = self.lu.solve(rotated.ravel()).reshape(m, -1)
        u = np.zeros_like(f)
        u[1:-1] = (self.t_eigvecs @ w).reshape(f[1:-1].shape)
        return np.moveaxis(u, 0, kt).ravel()


@dataclass(frozen=True)
class SolveReport:
    """Solution of one Dirichlet solve plus the numbers the pipeline audits."""
    u: np.ndarray
    residual_inf: float
    stats: dict


def _embed(shape, factors):
    """Kronecker product over array axes; identity where no factor given."""
    out = None
    for k, n in enumerate(shape):
        f = factors.get(k, sp.identity(n, format="csr"))
        out = f if out is None else sp.kron(out, f, format="csr")
    return out.tocsr()


def assemble(v: np.ndarray, potential,
             metric: MetricField) -> OperatorAssembly:
    """The operator on the metric's domain, which must contain t."""
    dom = metric.domain
    if "t" not in dom.names:
        raise ConfigError("assembly domain must contain the cylinder axis t")
    d = dom.dim
    shape = dom.shape
    inv = metric.inverse

    # coefficient fields keep the grid shape they come with (a length-1 t
    # axis for t-independent ones); only the matrix build below expands them
    v = np.asarray(v, dtype=float)
    c0 = np.asarray(potential, dtype=float)
    np.broadcast_to(v, shape + (d,))  # raises on a shape mismatch

    # the principal symbol must stay positive definite over every node,
    # virtual directions included
    symbol = inv - v[..., :, None] * v[..., None, :]
    eigmin = float(np.min(np.linalg.eigvalsh(symbol)))
    if eigmin <= 0.0:
        raise HypothesisViolation(
            f"operator symbol loses ellipticity: min eigenvalue {eigmin:.3e}")

    gamma = metric.gamma
    term1 = np.einsum("...a,...ka->...k", v, gradient(dom, v))
    term2 = np.einsum("...i,...j,...kij->...k", v, v, gamma)
    term3 = np.einsum("...ij,...kij->...k", inv, gamma)
    c1 = 4.0 * (term1 - term2 + term3)
    c2 = 4.0 * (v[..., :, None] * v[..., None, :] - inv)

    stored = [(dom.index(nm), dom.array_axis(nm), dom.axis(nm))
              for nm in dom.names if dom.axis(nm).stored]

    terms = []
    for ca, ka, ax in stored:
        terms.append((c2[..., ca, ca],
                      {ka: diff_matrix(2, ax.n, ax.spacing, ax.closure)}))
        coef1 = c1[..., ca]
        if np.any(coef1 != 0.0):
            terms.append((coef1,
                          {ka: diff_matrix(1, ax.n, ax.spacing, ax.closure)}))
    for i in range(len(stored)):
        for j in range(i + 1, len(stored)):
            ca, ka, axa = stored[i]
            cb, kb, axb = stored[j]
            coef = c2[..., ca, cb] + c2[..., cb, ca]
            if np.any(coef != 0.0):
                terms.append((coef,
                              {ka: diff_matrix(1, axa.n, axa.spacing,
                                               axa.closure),
                               kb: diff_matrix(1, axb.n, axb.spacing,
                                               axb.closure)}))

    mat = _sum_terms(shape, terms, c0)

    # per-axis second-order stiffness spread; purely advisory
    scales = [float(np.max(np.abs(c2[..., ca, ca]))) / ax.spacing ** 2
              for ca, ka, ax in stored]
    ratio = max(scales) / min(scales)
    if ratio > ANISOTROPY_WARN_RATIO:
        warnings.warn(
            f"second-order coefficient anisotropy ratio {ratio:.2e} exceeds "
            "the stability heuristic; expect accuracy loss", RuntimeWarning)

    kt = dom.array_axis("t")
    nt = dom.axis("t").n
    bmask = np.zeros(shape, dtype=bool)
    sl = [slice(None)] * len(shape)
    sl[kt] = 0
    bmask[tuple(sl)] = True
    sl[kt] = nt - 1
    bmask[tuple(sl)] = True
    interior = ~bmask.ravel()
    mat = (sp.diags(interior.astype(float)) @ mat
           + sp.diags((~interior).astype(float))).tocsr()

    fast = {}
    it = dom.index("t")
    if _separates_in_t(c2, c1, c0, it, kt, len(shape)):
        # L_X: the same terms without t, on the slice grid (t dropped from
        # the shape, so array axes after t move down by one)
        x_shape = shape[:kt] + shape[kt + 1:]
        t1_shape = shape[:kt] + (1,) + shape[kt + 1:]
        x_terms = [(np.broadcast_to(coef, t1_shape).reshape(x_shape),
                    {k - (k > kt): op for k, op in ops.items()})
                   for coef, ops in terms if kt not in ops]
        ax = dom.axis("t")
        d2t = diff_matrix(2, ax.n, ax.spacing, ax.closure)[1:-1, 1:-1]
        lam, q = np.linalg.eigh(c2[..., it, it].flat[0] * d2t.toarray())
        fast = {"slice_operator": _sum_terms(
                    x_shape, x_terms,
                    np.broadcast_to(c0, t1_shape).reshape(x_shape)),
                "t_eigvals": lam, "t_eigvecs": q}

    return OperatorAssembly(domain=dom, matrix=mat, c2=c2, c1=c1, c0=c0,
                            interior=interior, **fast)


def _sum_terms(shape, terms, c0) -> sp.csr_matrix:
    """sum of diag(coef) @ (Kronecker-embedded ops) over terms, plus diag(c0)."""
    nodes = int(np.prod(shape))
    mat = sp.csr_matrix((nodes, nodes))
    for coef, ops in terms:
        mat = mat + sp.diags(np.broadcast_to(coef, shape).ravel()) \
            @ _embed(shape, ops)
    return mat + sp.diags(np.broadcast_to(c0, shape).ravel())


def _separates_in_t(c2, c1, c0, it, kt, ndim) -> bool:
    """Whether the interior operator is a Kronecker sum L_X (x) I + I (x) T.

    Decided from the coefficients' structure alone: each holds t at length
    1 (or lacks the axis), no mixed (t, X) or first-order t term exists, and
    c2[t,t] is one constant. `kt` is t's array axis among `ndim` grid axes.
    """
    back = kt - ndim   # t's array axis counted from the right
    for coef in (c2[..., 0, 0], c1[..., 0], c0):
        if coef.ndim >= -back and coef.shape[back] != 1:
            return False
    c2tt = c2[..., it, it]
    return (not np.any(np.delete(c2[..., it, :], it, axis=-1))
            and not np.any(np.delete(c2[..., :, it], it, axis=-1))
            and not np.any(c1[..., it])
            and bool(np.all(c2tt == c2tt.flat[0])))


def solve_dirichlet(assembly: OperatorAssembly, forcing,
                    tolerance: float = 1e-10) -> SolveReport:
    """Solve L u = F with u = 0 at t = +-1.

    One sparse LU per assembly (see OperatorAssembly.lu): of the t-rotated
    block-diagonal operator when the operator separates in t (stats method
    "fastdiag"), else of the full matrix ("splu"). At least one
    iterative-refinement step follows, with residuals taken against the
    full matrix on both paths. A failed factorization, or an infinity-norm
    residual that ends above tolerance, raises NumericalFailure.

    The returned report carries u shaped like the domain (exactly zero on
    the boundary rows) and the final residual.
    """
    dom = assembly.domain
    rhs = np.asarray(np.broadcast_to(forcing, dom.shape), dtype=float) \
        .ravel().copy()
    rhs[~assembly.interior] = 0.0
    mat = assembly.matrix
    u = assembly.solve(rhs)
    resid = rhs - mat @ u
    refinements = 0
    while refinements < 4:
        if refinements >= 1 and float(np.max(np.abs(resid))) <= tolerance:
            break
        u = u + assembly.solve(resid)
        resid = rhs - mat @ u
        refinements += 1
    stats = {"nodes": rhs.size, "nnz": int(mat.nnz),
             "method": assembly.method, "refinements": refinements}

    u[~assembly.interior] = 0.0
    residual_inf = float(np.max(np.abs(rhs - mat @ u)))
    stats["residual_inf"] = residual_inf
    if residual_inf > tolerance:
        raise NumericalFailure(
            f"solver residual {residual_inf:.3e} exceeds "
            f"tolerance {tolerance:.1e}")
    u = u.reshape(dom.shape)
    return SolveReport(u=u, residual_inf=residual_inf, stats=stats)


def dtt_monitor(d2u_dt2: np.ndarray, domain: DiscreteDomain,
                epsilon: float) -> float:
    """sup of |d^2 u / dt^2| over the core region |t| < epsilon/4, read
    from the field d2u_dt2 (the (t, t) slot of grids.derivatives of u).

    This is eta' of the certificate. It is not a small error term: on the
    forcing plateau the equation balances as 4 u'' ~ R_g u - (C+1), so
    eta' ~ (C+1 - R_g u)/4, just below (C+1)/4 for small u, and it tends
    to (C+1)/4 as the bump narrows at fixed metric scaling.

    Refuses (ConfigError) when the region holds fewer than 3 t-nodes: a
    sup over one or two points says nothing about the profile curvature.
    """
    ax = domain.axis("t")
    region = np.nonzero(np.abs(ax.coords()) < 0.25 * epsilon)[0]
    if region.size < 3:
        raise ConfigError(
            f"monitor region |t| < {0.25 * epsilon:g} contains only "
            f"{region.size} t-nodes (need >= 3); refine the t grid")
    sub = np.take(d2u_dt2, region, axis=domain.array_axis("t"))
    return float(np.max(np.abs(sub)))
