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

The metric is g = h_X + dt^2 and the drift V is tangent to X, so t enters
only through the constant c2[t,t] = -4 and the operator is the Kronecker
sum L_X (x) I + I (x) T on the interior rows: L_X is the operator on the
slice X, built from h_X, V's X components and the potential (one list
of stencil entries, node coefficients times 1-d difference stencils,
summed into one canonical CSR matrix: `operator_matrix`), and
T = -4 D2_t. The t = +-1 rows are identity (homogeneous Dirichlet; the
right-hand side is zeroed there). `assemble` takes the slice data and the
t axis; no field of the operator carries t.

The solve is fast diagonalization in t (Lynch, Rice & Thomas, Numer. Math.
6 (1964) 185-199): with T's Dirichlet block Q diag(lam) Q^T, rotating the
interior right-hand side by Q^T decouples it into slice problems
(L_X + lam_k I) w_k = f_k. T's Dirichlet block commutes with the
reflection t -> -t, so each eigenvector is even or odd in t, and the
operator maps even fields to even fields. The forcing (C+1) bump(t) (x) 1_X
is even, so only the ceil((t_nodes - 2)/2) even modes are kept. The even
eigenvectors are symmetrized exactly, so the solution is exactly even in
t, whatever solves the slice problems.

The modes are split once per assembly, from L_X alone, and the route of
each is decided there. With a_ii the diagonal of L_X and
r_i = sum_{j != i} |a_ij| its off-diagonal row sums, block k is strictly
diagonally dominant when q_k = max_i r_i / |a_ii + lam_k| < 1 (inf or
nan, so factored, where a_ii + lam_k = 0), and then a plain Jacobi sweep contracts the
error's infinity norm by at least q_k (Varga, Matrix Iterative Analysis,
1962): from the start D^-1 f_k, ||e_s|| <= q_k^(s+1) ||w_k||. T's
eigenvalues reach about 16/dt^2, far above L_X's diagonal, so most modes
have a small q_k. The factor-route rule:

- A mode with q_k <= JACOBI_Q_MAX is solved by Jacobi sweeps, counted
  before any solve: s_k, the fewest with q_k^(s_k+1) <= 2^-52, is worked
  out for each such mode, and all of them take the largest s_k at once,
  one CSR product per sweep. A strictly dominant block is regular, so
  this route cannot fail.
- The remaining low modes are factored together. Every block
  L_X + lam_k I has L_X's kl sub- and ku super-diagonals, read with the
  nodes of every periodic slice axis in ring order 0, n-1, 1, n-2, ...
  (mirror and bounded axes keep their natural order), so that periodic
  neighbours sit at most 2 positions apart: an N x N torus slice has
  kl = ku = 2N, against N (N - 1) in natural order. When that band holds
  at most BAND_ROWS_CAP entries per node (2 kl + ku + 1 <= 160: every
  sphere slice, 2-D torus slices up to N = 26), the low blocks are
  written in that node order into one LAPACK band array and factored by
  one band LU (gbtrf; solves by gbtrs): route "banded". The solve
  permutes each mode's right-hand side into the node order and the
  solution back. Otherwise (2-D torus slices above N = 26, 3-D ones from
  6^3 nodes on) the block matrix of the low modes is assembled as a
  sparse matrix in natural order and factored by SuperLU (spla.splu):
  route "sparse_lu".
- When every mode is iterated, nothing is factored (route "none").

Every route's solve takes and returns one row per mode.

The odd part of a right-hand side is not solved for: the matrix-free
residual against the full right-hand side carries it, and a residual
above tolerance raises NumericalFailure. Residuals apply the operator
matrix-free; no 3-D matrix is built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import HypothesisViolation, NumericalFailure
from .fd import PERIODIC, diff_matrix
from .forcing import monitor_core
from .grids import Axis, DiscreteDomain, gradient
from .metrics import MetricField

ANISOTROPY_WARN_RATIO = 1e6
# Band route: the most band entries per node, 2 kl + ku + 1, that the band
# LU takes. Above the cap the band LU of the low modes is faster than
# SuperLU but holds more memory. run_scenario of the twisted tori and the
# T^3 in fresh processes (2 vCPUs, one BLAS thread), SuperLU against band
# LU with the cap lifted, time / peak RSS: 32^2 x 65 0.048-0.069 /
# 0.036-0.054 s, 78 / 85 MB; 48^2 x 97 0.159-0.181 / 0.127-0.152 s,
# 114 / 150 MB; 12^3 x 49 0.216-0.226 / 0.111-0.116 s, 111 / 128 MB. The
# cap keeps the 2-D slices up to N = 26 (torus24 needs 145) on the band.
BAND_ROWS_CAP = 160
# Jacobi route: the largest contraction bound q_k of a mode solved by sweeps
# instead of a factor; at 0.1 a mode takes at most 15 sweeps. The factor
# and two solves take, on torus24 / the 12^3 x 49 T^3: 15-53 / 609-630 ms
# at 0.02, 9.2-11 / 231-239 ms at 0.1, 8.8-11 / 115-123 ms at 0.3. The
# 48-node sphere slices' smallest q_k is 0.243, so below that no sphere
# slice iterates a mode and its factor stays that of all modes.
JACOBI_Q_MAX = 0.1


def ring_order(n: int) -> np.ndarray:
    """The nodes of a periodic axis of n nodes in ring order
    0, n-1, 1, n-2, ...: position k holds node k // 2 for even k and
    n - 1 - k // 2 for odd k, so ring neighbours sit at most 2 positions
    apart."""
    k = np.arange(n)
    return np.where(k % 2 == 0, k // 2, n - 1 - k // 2)


def slice_order(axes) -> np.ndarray:
    """The band factor's node order on a slice grid with these stored axes
    (C order over their shape): position p holds node order[p]. Periodic
    axes are read in ring order, the others in natural order, so a slice
    without a periodic axis keeps its natural order."""
    shape = tuple(ax.n for ax in axes)
    index = np.arange(int(np.prod(shape))).reshape(shape)
    return index[np.ix_(*[ring_order(ax.n) if ax.closure == PERIODIC
                          else np.arange(ax.n) for ax in axes])].ravel()


class _JacobiModes:
    """Plain Jacobi sweeps on the strictly diagonally dominant blocks
    L_X + lam_k I, one per mode, with `off` L_X less its diagonal `diag`
    and q the modes' contraction bounds.

    From the start D^-1 f_k, s sweeps bound mode k's error by
    q_k^(s+1) times its solution; `sweeps[k]` is the fewest that bring
    that bound to 2^-52 or below. Every mode takes the largest of them,
    so that each sweep is one CSR product on an (|X|, modes) array; more
    sweeps only lower a mode's bound. Over no modes it does nothing."""

    def __init__(self, off: sp.csr_matrix, diag: np.ndarray,
                 lam: np.ndarray, q: np.ndarray):
        self.sweeps = np.zeros(q.shape, dtype=int)
        while np.any(short := q ** (self.sweeps + 1) > 2.0 ** -52):
            self.sweeps += short
        self._off = off
        self._diag = diag[:, None] + lam

    def solve(self, f: np.ndarray) -> np.ndarray:
        """The blocks' solutions for right-hand sides f, one row per
        mode."""
        b = f.T
        w = b / self._diag
        for _ in range(int(self.sweeps.max(initial=0))):
            w = (b - self._off @ w) / self._diag
        return w.T


class _BandLU:
    """LAPACK band LU (gbtrf) of the block-diagonal
    kron(I, L_X) + kron(diag(lam), I) in one band array, L_X (COO, in the
    node order `order`) having kl sub- and ku super-diagonals; lam[i] is
    the eigenvalue of mode modes[i]. The blocks do not couple, so the
    factor is that of each block. `solve` permutes each mode's row into
    the node order, solves (gbtrs) and permutes the solution back."""

    def __init__(self, lx: sp.coo_matrix, kl: int, ku: int,
                 lam: np.ndarray, order: np.ndarray, modes: np.ndarray):
        n_x, width = lx.shape[0], 2 * kl + ku + 1
        # column j of the band array is node j, row kl + ku + i - j holds
        # entry (i, j); built transposed, so that the array gbtrf takes is
        # Fortran-ordered and factored in place
        block = np.zeros((n_x, width))
        np.add.at(block, (lx.col, kl + ku + lx.row - lx.col), lx.data)
        band = np.repeat(block[None], lam.size, axis=0)
        band[:, :, kl + ku] += lam[:, None]
        self.lu, self.piv, info = dgbtrf(band.reshape(-1, width).T, kl, ku,
                                         overwrite_ab=1)
        if info > 0:
            local, pos = divmod(info - 1, n_x)
            mode, node = int(modes[local]), int(order[pos])
            raise NumericalFailure(
                f"band LU factorization failed: exactly singular pivot "
                f"at row {mode * n_x + node} of the block matrix (mode "
                f"{mode}, slice node {node}; 0-based, natural order)")
        self._kl, self._ku, self._order = kl, ku, order

    def solve(self, f: np.ndarray) -> np.ndarray:
        w = dgbtrs(self.lu, self._kl, self._ku, f[:, self._order].ravel(),
                   self.piv)[0].reshape(f.shape)
        w[:, self._order] = w.copy()
        return w


class _SparseLU:
    """SuperLU (spla.splu) of the block-diagonal
    kron(I, L_X) + kron(diag(lam), I) in natural order."""

    def __init__(self, lx: sp.csr_matrix, lam: np.ndarray):
        mat = (sp.kron(sp.identity(lam.size, format="csr"), lx)
               + sp.kron(sp.diags(lam),
                         sp.identity(lx.shape[0], format="csr")))
        try:
            self.superlu = spla.splu(mat.tocsc())
        except RuntimeError as exc:
            raise NumericalFailure(
                f"sparse LU factorization failed: {exc}") from exc

    def solve(self, f: np.ndarray) -> np.ndarray:
        return self.superlu.solve(f.ravel()).reshape(f.shape)


class _ModeSplit:
    """The solve of the block-diagonal kron(I, L_X) + kron(diag(lam), I)
    over all even modes, split by mode: `factor` holds the blocks of the
    modes `low` (None when no mode is factored), `jacobi` those of the
    modes `high`; `stats` names the route (see the module docstring)."""

    def __init__(self, low: np.ndarray, factor, high: np.ndarray,
                 jacobi: _JacobiModes, stats: dict):
        self.low, self.factor = low, factor
        self.high, self.jacobi = high, jacobi
        self.stats = stats

    def solve(self, f: np.ndarray) -> np.ndarray:
        """The solution for right-hand sides f, one row per mode, in mode
        order."""
        w = np.empty_like(f)
        if self.factor is not None:
            w[self.low] = self.factor.solve(f[self.low])
        w[self.high] = self.jacobi.solve(f[self.high])
        return w


@dataclass(frozen=True)
class OperatorAssembly:
    """The operator as its slice part L_X and its t part T on the domain W.

    `t_operator` holds the interior rows of T over every t node, and
    `t_eigvals`, `t_eigvecs` the even eigenpairs of its Dirichlet block,
    in ascending order, each vector symmetrized so that it is exactly even
    in t: the forcing is even, T commutes with t -> -t, so the solution
    lies in their span and is exactly even. Frozen, so the mode split and
    factor of the t-rotated interior block (`lu`), cached on first use,
    stay those of this operator; every solve with this assembly reuses
    them. Each mode's route follows the module docstring's factor-route
    rule; `factor_stats` reports it.
    """
    domain: DiscreteDomain
    slice_operator: sp.csr_matrix
    t_operator: sp.csr_matrix
    t_eigvals: np.ndarray
    t_eigvecs: np.ndarray

    @cached_property
    def lu(self) -> _ModeSplit:
        """The solve of the t-rotated block matrix, split by mode as the
        module docstring's factor-route rule says: Jacobi sweeps
        (_JacobiModes) on the modes with q_k <= JACOBI_Q_MAX, one band LU
        (_BandLU) or SuperLU (_SparseLU) of the others."""
        lx, lam = self.slice_operator.tocsr(), self.t_eigvals
        diag = lx.diagonal()
        row_of = np.repeat(np.arange(lx.shape[0]), np.diff(lx.indptr))
        is_off = lx.indices != row_of
        off_sums = np.bincount(row_of, np.abs(lx.data) * is_off,
                               minlength=lx.shape[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.max(off_sums[:, None] / np.abs(diag[:, None] + lam),
                       axis=0)
        iterated = q <= JACOBI_Q_MAX
        low, high = np.flatnonzero(~iterated), np.flatnonzero(iterated)
        # L_X with its diagonal entries dropped
        kept = np.concatenate(([0], np.cumsum(is_off)))
        off = sp.csr_matrix((lx.data[is_off], lx.indices[is_off],
                             kept[lx.indptr]), shape=lx.shape)
        jacobi = _JacobiModes(off, diag, lam[high], q[high])
        route, factor, nnz = self._factor(low)
        return _ModeSplit(low, factor, high, jacobi, {
            "factor": route, "factor_nnz": int(nnz),
            "jacobi_modes": int(high.size),
            "jacobi_sweeps": int(jacobi.sweeps.max(initial=0))})

    def _factor(self, low: np.ndarray):
        """The route, factor and stored entries of the blocks of the modes
        `low`: ("none", None, 0) for no mode; else the band LU and its
        band storage, or SuperLU and its supernodal L and U storage (its
        `nnz`: exporting L and U to count them costs a copy of the
        factor)."""
        if low.size == 0:
            return "none", None, 0
        axes = [ax for ax in self.domain.stored_axes if ax.name != "t"]
        order = slice_order(axes)
        # L_X with node order[p] renumbered p
        position = np.argsort(order)
        lx = self.slice_operator.tocoo()
        lx = sp.coo_matrix((lx.data, (position[lx.row], position[lx.col])),
                           shape=lx.shape)
        kl = int(np.max(lx.row - lx.col, initial=0))
        ku = int(np.max(lx.col - lx.row, initial=0))
        lam = self.t_eigvals[low]
        if 2 * kl + ku + 1 <= BAND_ROWS_CAP:
            band = _BandLU(lx, kl, ku, lam, order, low)
            return "banded", band, band.lu.size
        sparse = _SparseLU(self.slice_operator, lam)
        return "sparse_lu", sparse, sparse.superlu.nnz

    @property
    def factor_stats(self) -> dict:
        """The factor route of the low modes ("banded", "sparse_lu" or
        "none"), the entries the factor stores, the number of modes solved
        by Jacobi sweeps and the largest sweep count."""
        return dict(self.lu.stats)

    def _t_first(self, values: np.ndarray) -> np.ndarray:
        """A field on the domain as (t_nodes, |X|): one row per t slice."""
        kt = self.domain.array_axis("t")
        f = np.moveaxis(np.reshape(values, self.domain.shape), kt, 0)
        return f.reshape(f.shape[0], -1)

    def _on_domain(self, rows: np.ndarray) -> np.ndarray:
        """Inverse of `_t_first`."""
        shape = self.domain.shape
        kt = self.domain.array_axis("t")
        f = rows.reshape((shape[kt],) + shape[:kt] + shape[kt + 1:])
        return np.moveaxis(f, 0, kt)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The operator's inverse on the even part in t of a field that is
        zero at t = +-1; its odd part is dropped.

        The even part (f + Jf)/2 of the interior rows is rotated into the
        even eigenbasis of T, solved mode by mode (`lu`: Jacobi sweeps or
        the low modes' factor) and rotated back; the t = +-1 rows of the
        result are exactly 0.
        """
        f = self._t_first(rhs)
        inner = f[1:-1]
        w = self.lu.solve(self.t_eigvecs.T @ (0.5 * (inner + inner[::-1])))
        u = np.zeros_like(f)
        u[1:-1] = self.t_eigvecs @ w
        return self._on_domain(u)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The operator times a field: L_X on each t slice plus T along t
        on the interior rows, identity on the t = +-1 rows."""
        u = np.reshape(u, self.domain.shape)
        f = self._t_first(u)
        out = self._t_first(slice_apply(self.slice_operator, self.domain, u))
        out[1:-1] += self.t_operator @ f
        out[[0, -1]] = f[[0, -1]]
        return self._on_domain(out)


def slice_apply(mat: sp.spmatrix, domain: DiscreteDomain,
                values: np.ndarray) -> np.ndarray:
    """A matrix on the slice grid (the domain without t) applied to every
    t slice of a field that broadcasts to the domain's shape."""
    kt = domain.array_axis("t")
    f = np.moveaxis(np.broadcast_to(values, domain.shape), kt, -1)
    out = mat @ f.reshape(mat.shape[1], -1)
    return np.moveaxis(out.reshape(f.shape), -1, kt)


@dataclass(frozen=True)
class SolveReport:
    """Solution of one Dirichlet solve plus the numbers the pipeline audits."""
    u: np.ndarray
    residual_inf: float
    stats: dict


def assemble(v_x: np.ndarray, potential, metric_x: MetricField,
             t_axis: Axis) -> OperatorAssembly:
    """The operator on W = X x t_axis for g = h_X + dt^2 (metric_x = h_X)
    and a drift tangent to X with components v_x: L_X on the slice grid,
    T = -4 D2_t and the even eigenpairs of T's Dirichlet block."""
    x = metric_x.domain
    c2, c1, c0 = _coefficients(v_x, potential, metric_x)

    # per-axis second-order stiffness spread, t's c2[t,t] = -4 included;
    # purely advisory
    scales = [float(np.max(np.abs(c2[..., k, k]))) / ax.spacing ** 2
              for k, ax in enumerate(x.axes) if ax.stored]
    scales.append(4.0 / t_axis.spacing ** 2)
    ratio = max(scales) / min(scales)
    if ratio > ANISOTROPY_WARN_RATIO:
        warnings.warn(
            f"second-order coefficient anisotropy ratio {ratio:.2e} exceeds "
            "the stability heuristic; expect accuracy loss", RuntimeWarning)

    t_operator = -4.0 * diff_matrix(2, t_axis.n, t_axis.spacing,
                                    t_axis.closure)[1:-1]
    lam, q = np.linalg.eigh(t_operator[:, 1:-1].toarray())
    # the block is reflection-symmetric, so each eigenvector is even
    # (q . Jq = +1) or odd (-1); keep the even ones, made exactly even
    even = np.einsum("ik,ik->k", q, q[::-1]) > 0.0
    lam, q = lam[even], 0.5 * (q[:, even] + q[::-1, even])
    return OperatorAssembly(
        domain=x.with_axis(t_axis),
        slice_operator=operator_matrix(x, c2, c1, c0),
        t_operator=t_operator, t_eigvals=lam, t_eigvecs=q)


def _coefficients(v: np.ndarray, potential, metric: MetricField):
    """(c2, c1, c0) on the metric's domain, each in the grid shape its
    inputs come with. The principal symbol must be positive definite at
    every node, virtual directions included."""
    dom = metric.domain
    inv = metric.inverse
    v = np.asarray(v, dtype=float)
    c0 = np.asarray(potential, dtype=float)
    np.broadcast_to(v, dom.shape + (dom.dim,))  # raises on a shape mismatch

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
    return c2, c1, c0


def operator_matrix(dom: DiscreteDomain, c2, c1, c0) -> sp.csr_matrix:
    """sum C2[a,b] d_a d_b + sum C1[k] d_k + C0 as a canonical CSR matrix
    (sorted column indices, no duplicate or stored zero) over the stored
    grid of `dom`, whose coordinate slots c2 and c1 index.

    Every term is a node coefficient times one or two 1-d difference
    stencils; its entries are written into one (row, col, value) list from
    the node index grid, each stencil entry (r, c, v) moving its axis'
    index from r to c, the value coef[row] * v (coef[row] * (v_a v_b) for
    a mixed term). The terms come in the order c2 diagonal, c1, mixed,
    c0; the entries of each matrix position are summed in that order and
    zero sums dropped."""
    shape, n = dom.shape, dom.node_count
    nodes = np.arange(n).reshape(shape)
    keys, values = [], []

    def term(coef, *factors):
        row = col = nodes
        stencil = 1.0
        for k, d in factors:
            d = d.tocoo()
            row = np.take(row, d.row, axis=k)
            col = np.take(col, d.col, axis=k)
            stencil = stencil * d.data.reshape(
                [-1 if a == k else 1 for a in range(len(shape))])
        keys.append((row * n + col).ravel())
        values.append((np.broadcast_to(coef, shape).ravel()[row]
                       * stencil).ravel())

    def diff(order, ax):
        return diff_matrix(order, ax.n, ax.spacing, ax.closure)

    stored = [(dom.index(ax.name), dom.array_axis(ax.name), ax)
              for ax in dom.stored_axes]
    for ca, ka, ax in stored:
        term(c2[..., ca, ca], (ka, diff(2, ax)))
        if np.any(c1[..., ca] != 0.0):
            term(c1[..., ca], (ka, diff(1, ax)))
    for i, (ca, ka, axa) in enumerate(stored):
        for cb, kb, axb in stored[i + 1:]:
            coef = c2[..., ca, cb] + c2[..., cb, ca]
            if np.any(coef != 0.0):
                term(coef, (ka, diff(1, axa)), (kb, diff(1, axb)))
    term(c0)

    # entries keyed row * n + col; a stable sort keeps each position's
    # entries in term order, and bincount adds them in that order
    key = np.concatenate(keys)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    sums = np.bincount(np.cumsum(first) - 1,
                       weights=np.concatenate(values)[order])
    nonzero = sums != 0.0
    key = key[first][nonzero]
    indptr = np.searchsorted(key, np.arange(n + 1) * n)
    return sp.csr_matrix((sums[nonzero], key % n, indptr), shape=(n, n))


def _dirichlet_rhs(assembly: OperatorAssembly, forcing) -> np.ndarray:
    """The forcing on the assembly's domain, zeroed at t = +-1."""
    dom = assembly.domain
    rhs = np.array(np.broadcast_to(forcing, dom.shape), dtype=float)
    np.moveaxis(rhs, dom.array_axis("t"), 0)[[0, -1]] = 0.0
    return rhs


def solve_dirichlet(assembly: OperatorAssembly, forcing,
                    tolerance: float = 1e-10, start=None) -> SolveReport:
    """Solve L u = F with u = 0 at t = +-1.

    One mode split per assembly of the t-rotated block-diagonal operator
    on the even modes of T, each mode on the route the module docstring's
    factor-route rule gives it (OperatorAssembly.lu). The first iterate is
    the solve of F, or `start` when given (an even field zero at t = +-1:
    the auto-C re-budget passes the first pass's u scaled to the new
    forcing). Then
    iterative refinement against the full F: at least one step, at most
    four, each residual applied matrix-free (OperatorAssembly.apply), so
    an odd part of F, which the even modes cannot solve for, stays in the
    residual. A failed factorization, or an infinity-norm residual that
    ends above tolerance, raises NumericalFailure.

    The returned report carries u shaped like the domain (exactly zero on
    the boundary rows) and the final residual; its stats name the factor
    route (`factor`: banded, sparse_lu or none), its stored entries
    (`factor_nnz`), the modes solved by Jacobi sweeps (`jacobi_modes`) and
    the largest sweep count (`jacobi_sweeps`).
    """
    rhs = _dirichlet_rhs(assembly, forcing)
    u = assembly.solve(rhs) if start is None else start
    resid = rhs - assembly.apply(u)
    refinements = 0
    while refinements < 4:
        if refinements >= 1 and float(np.max(np.abs(resid))) <= tolerance:
            break
        u = u + assembly.solve(resid)
        resid = rhs - assembly.apply(u)
        refinements += 1
    residual_inf = float(np.max(np.abs(resid)))
    stats = {"nodes": rhs.size,
             "slice_nnz": int(assembly.slice_operator.nnz),
             "refinements": refinements, "residual_inf": residual_inf,
             **assembly.factor_stats}
    if residual_inf > tolerance:
        raise NumericalFailure(
            f"solver residual {residual_inf:.3e} exceeds "
            f"tolerance {tolerance:.1e}")
    return SolveReport(u=np.ascontiguousarray(u), residual_inf=residual_inf,
                       stats=stats)


def dtt_monitor(d2u_dt2: np.ndarray, domain: DiscreteDomain,
                epsilon: float) -> float:
    """sup of |d^2 u / dt^2| over the core region |t| < epsilon/4, read
    from the field d2u_dt2 (DiscreteDomain.diff of u, order 2 along t).

    This is eta' of the certificate. It is not a small error term: on the
    forcing plateau the equation balances as 4 u'' ~ R_g u - (C+1), so
    eta' ~ (C+1 - R_g u)/4, just below (C+1)/4 for small u, and it tends
    to (C+1)/4 as the bump narrows at fixed metric scaling.

    Refuses (ConfigError) when the region holds fewer than 3 t-nodes
    (forcing.monitor_core); calibrate_epsilon refuses such a width first.
    """
    sub = np.take(d2u_dt2, monitor_core(domain.axis("t"), epsilon),
                  axis=domain.array_axis("t"))
    return float(np.max(np.abs(sub)))
