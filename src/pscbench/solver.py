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
summed into one fd.Stencil: `operator_matrix`), and
T = -4 D2_t, applied with the cached fd.diff_matrix of the t axis. The
t = +-1 rows are identity (homogeneous Dirichlet; the right-hand side is
zeroed there). `assemble` takes the slice data and the t axis; no field
of the operator carries t.

The solve is fast diagonalization in t (Lynch, Rice & Thomas, Numer. Math.
6 (1964) 185-199): with T's Dirichlet block Q diag(lam) Q^T, rotating the
interior right-hand side by Q^T decouples it into slice problems
(L_X + lam_k I) w_k = f_k. On the uniform t grid that block is
(4/h^2) tridiag(-1, 2, -1) of order m = t_nodes - 2, whose eigenpairs are
discrete sines (Strang, SIAM Rev. 41 (1999) 135-147):
lam_k = (16/h^2) sin^2(k pi / (2(m+1))) and
Q_ik = sqrt(2/(m+1)) sin(i k pi / (m+1)), i, k = 1..m, so no eigensolver
runs. The block commutes with the reflection t -> -t, and mode k is even
in t for odd k, odd for even k; the operator maps even fields to even
fields. The forcing (C+1) bump(t) (x) 1_X is even, so only the
ceil((t_nodes - 2)/2) even modes are kept. The solution is rotated back
onto the t <= 0 columns only and mirrored onto t > 0, so it is exactly
even in t by construction. Symmetrized eigenvectors alone do not make it
so: BLAS need not compute the mirrored columns of a full back rotation
alike (OpenBLAS 0.3.31 on x86-64 did for every odd t_nodes up to 193 and
for none from 195 to 401).

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
  before any solve: one count s, the fewest with q_k^(s+1) <= 2^-52 for
  every such mode (q^(s+1) grows with q, so the largest q_k sets it), and
  all of them take s sweeps at once, one stencil product per sweep. A
  strictly dominant block is regular, so this route cannot fail.
- The remaining low modes are factored together, by one block LU
  batched over modes (route "block_lu"). With the nodes of every periodic
  slice axis read in ring order 0, n-1, 1, n-2, ... (mirror and bounded
  axes keep their natural order), periodic neighbours sit at most 2
  positions apart, and L_X has kl sub- and ku super-diagonals: kl = ku =
  2N on an N x N torus slice, against N (N - 1) in natural order. So every
  block L_X + lam_k I is block tridiagonal with b x b blocks,
  b = max(kl, ku), the last one padded with identity rows. No block is
  pivoted against another. Blocks of order b <= CYCLIC_MAX_ORDER (every
  1-D slice: b = 2 on the sphere) are eliminated by block cyclic
  reduction (Heller, SIAM J. Numer. Anal. 13 (1976) 484-496), log2 levels
  that each eliminate every other block of what the level before left;
  larger ones in order, block by block. What is stored: the inverse of
  each eliminated block's Schur complement, and what the solve applies
  besides: in order, each lower block times the inverse before it and
  the upper blocks; by cyclic reduction, each inverse times its block's
  couplings and the kept blocks' couplings. `factor_nnz` counts these
  entries. An exactly singular Schur complement raises NumericalFailure
  naming the mode and slice node.
- When every mode is iterated, nothing is factored (route "none").

Every route's solve takes and returns one column per mode.

The odd part of a right-hand side is not solved for: the matrix-free
residual against the full right-hand side carries it, and a residual
above tolerance raises NumericalFailure. Residuals apply the operator
matrix-free; no 3-D matrix is built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .fd import PERIODIC, Stencil, diff_matrix
from .forcing import monitor_core
from .grids import Axis, DiscreteDomain, gradient
from .metrics import MetricField, _front

ANISOTROPY_WARN_RATIO = 1e6
# Jacobi route: the largest contraction bound q_k of a mode solved by sweeps
# instead of a factor; at 0.1 a mode takes at most 15 sweeps. The block LU
# and two solves take, on torus24 / the 12^3 x 49 T^3 (median, in process,
# one BLAS thread, 2-vCPU Xeon): 10.6 / 152 ms at 0.02, 5.4 / 60 ms at
# 0.1, 5.6 / 40 ms at 0.3. The 48-node sphere slices' smallest q_k is
# 0.243, so below that no sphere slice iterates a mode and its factor
# stays that of all modes.
JACOBI_Q_MAX = 0.1
# Block LU: blocks of at most this order are eliminated by cyclic
# reduction, larger ones in order. Cyclic reduction makes about three
# times the block products, but one vectorized step per level instead of
# one per block, and it runs on (b, b, modes, blocks) arrays, fast for
# small b only. Factor / one solve, ms (in process, one BLAS thread), by
# cyclic reduction against in order: sphere256 (128 blocks of 2 x 2,
# 64 modes) 1.14 / 0.36 against 2.19 / 1.88; torus24 (12 blocks of
# 48 x 48, 7 modes) 25.9 / 0.42 against 2.88 / 0.19.
CYCLIC_MAX_ORDER = 4


def __getattr__(name):
    # `solver.spla` is scipy.sparse.linalg, imported on first access: no
    # route calls it, but perfbench's tracer wraps `spla.splu` here when it
    # installs. ROADMAP item 8, which re-points that hook, retires this.
    if name == "spla":
        import scipy.sparse.linalg
        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def ring_order(n: int) -> np.ndarray:
    """The nodes of a periodic axis of n nodes in ring order
    0, n-1, 1, n-2, ...: position k holds node k // 2 for even k and
    n - 1 - k // 2 for odd k, so ring neighbours sit at most 2 positions
    apart."""
    k = np.arange(n)
    return np.where(k % 2 == 0, k // 2, n - 1 - k // 2)


def slice_order(axes) -> np.ndarray:
    """The block factor's node order on a slice grid with these stored axes
    (C order over their shape): position p holds node order[p]. Periodic
    axes are read in ring order, the others in natural order, so a slice
    without a periodic axis keeps its natural order."""
    shape = tuple(ax.n for ax in axes)
    index = np.arange(int(np.prod(shape))).reshape(shape)
    return index[np.ix_(*[ring_order(ax.n) if ax.closure == PERIODIC
                          else np.arange(ax.n) for ax in axes])].ravel()


def _weakest_pivot(a: np.ndarray) -> int:
    """The column of the pivot of least magnitude when a is eliminated with
    partial pivoting: a zero pivot of an exactly singular a."""
    a = np.array(a)
    pivots = np.zeros(a.shape[0])
    for k in range(a.shape[0]):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, p]] = a[[p, k]]
        pivots[k] = a[k, k]
        if pivots[k] != 0.0:
            a[k + 1:, k:] -= np.outer(a[k + 1:, k] / pivots[k], a[k, k:])
    return int(np.argmin(np.abs(pivots)))


def _cyclic_product(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The products of matching blocks of a and c, both shaped
    (b, b, modes, blocks)."""
    return np.einsum("ikme,kjme->ijme", np.ascontiguousarray(a),
                     np.ascontiguousarray(c))


def _cyclic_apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each block of a, shaped (b, b, modes, blocks), times the matching
    length-b column of v, shaped (b, modes, blocks)."""
    return np.einsum("ijme,jme->ime", a, np.ascontiguousarray(v))


def _apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each b x b block of a, shaped (modes, b, b) or (b, b) for a block
    every mode shares, times the matching length-b row of v, shaped
    (modes, b)."""
    return (a @ v[..., None])[..., 0]


def _inverse(d: np.ndarray) -> np.ndarray:
    """The inverses of the b x b blocks d; an exactly singular block raises
    LinAlgError.

    LAPACK's call per block costs more than a 2 x 2 block's arithmetic
    (0.63 ms against 0.04 ms for the 4096 blocks of sphere256's first
    level), so those take their adjugate over the determinant. From
    b = 32 on, a block [[P, Q], [R, S]] is inverted through the inverses
    of P and of its Schur complement S - R P^-1 Q, which costs less
    (torus24's 48 x 48 blocks, 7 at a time: 0.17 against 0.24 ms); where
    P is singular, LAPACK inverts the whole block. Like the block LU
    itself, the halves are not pivoted against each other; the solve's
    refinement against the matrix-free residual, and its tolerance check,
    catch a poorly conditioned half."""
    b = d.shape[-1]
    if b == 2:
        det = d[..., 0, 0] * d[..., 1, 1] - d[..., 0, 1] * d[..., 1, 0]
        if not np.all(det):
            raise np.linalg.LinAlgError("Singular matrix")
        inv = np.empty_like(d)
        inv[..., 0, 0], inv[..., 1, 1] = d[..., 1, 1], d[..., 0, 0]
        inv[..., 0, 1], inv[..., 1, 0] = -d[..., 0, 1], -d[..., 1, 0]
        inv /= det[..., None, None]
        return inv
    if b < 32:
        return np.linalg.inv(d)
    h = b // 2
    try:
        p_inv = _inverse(d[..., :h, :h])
    except np.linalg.LinAlgError:
        return np.linalg.inv(d)
    x = p_inv @ d[..., :h, h:]
    y = d[..., h:, :h] @ p_inv
    inv = np.empty_like(d)
    inv[..., h:, h:] = s_inv = _inverse(d[..., h:, h:] - d[..., h:, :h] @ x)
    inv[..., :h, h:] = -(x @ s_inv)
    inv[..., h:, :h] = -(s_inv @ y)
    inv[..., :h, :h] = p_inv - inv[..., :h, h:] @ y
    return inv


class _BlockLU:
    """Block LU of the blocks L_X + lam_k I, batched over modes; lam[i] is
    the eigenvalue of mode modes[i]. Read in the node order `order`, L_X
    is block tridiagonal with b x b blocks (see the module docstring).

    Blocks of order b <= CYCLIC_MAX_ORDER (1-D slices) are factored by
    cyclic reduction, in arrays shaped (b, b, modes, blocks) so that
    every step runs over all modes and blocks at once. Level l eliminates
    the even-numbered blocks of the system the level before left;
    `levels[l]` holds the inverses of the eliminated blocks, those
    inverses times their couplings to the kept blocks before (eliminated
    blocks 1, 2, ...) and after them (0, 1, ... below the kept count), and
    the kept blocks' couplings to the eliminated blocks before and after
    them; `top` holds the inverse of the one block left. Larger blocks are
    factored in order, in arrays shaped (modes, blocks, b, b): `inverses`
    holds the inverses of the Schur complements, `multipliers` each lower
    block of L_X times the inverse before it (block 0's is unused), and
    `upper` L_X's upper blocks.

    All of them are views of one array, `store`, allocated once per
    factor. One array of that size also sets glibc's dynamic mmap and trim
    thresholds high enough that the heap keeps the pages of a run's other
    arrays: a torus24 certify call took 1,200-1,300 minor page faults with
    the multipliers recomputed (a 2 MB store) and 4 with them stored
    (3.3 MB)."""

    def __init__(self, lx: Stencil, lam: np.ndarray, order: np.ndarray,
                 modes: np.ndarray):
        n_x = lx.shape[0]
        self._order, self._modes, self._n_x = order, modes, n_x
        position = np.argsort(order)
        rows, cols, vals = lx.entries()
        p, q = position[rows], position[cols]
        b = max(int(np.max(np.abs(p - q), initial=0)), 1)
        nb = -(-n_x // b)
        self._b, self._nb = b, nb
        # block row p // b couples to block column q // b = p // b - 1, p // b
        # or p // b + 1: its lower, diagonal or upper block
        kind, block, r, c = q // b - p // b + 1, p // b, p % b, q % b

        def part(k, out):
            """L_X's lower (k = 0), diagonal (1) or upper (2) blocks, each
            b x b, written into `out` (shaped (..., blocks, b, b)); with
            k = 1 plus lam_k I for mode k, and identity rows in place of
            the padded rows."""
            out[...] = 0.0
            sel = kind == k
            out[..., block[sel], r[sel], c[sel]] = vals[sel]
            if k == 1:
                out[..., np.arange(b), np.arange(b)] += lam[:, None, None]
                pad = np.arange(n_x - (nb - 1) * b, b)
                out[:, -1, pad, pad] = 1.0
            return out

        self.cyclic = b <= CYCLIC_MAX_ORDER
        if self.cyclic:
            self._factor_cyclic(part(1, np.empty((lam.size, nb, b, b))),
                                part(0, np.empty((nb, b, b))),
                                part(2, np.empty((nb, b, b))))
        else:
            self.inverses, self.multipliers, self.upper = self._views(
                [(lam.size, nb, b, b), (lam.size, nb, b, b), (nb, b, b)])
            part(2, self.upper)
            self._factor_in_order(part(1, self.inverses),
                                  part(0, np.empty((nb, b, b))))

    def _views(self, shapes) -> list:
        """Views of one new array `store`, one per shape, in order."""
        sizes = [int(np.prod(shape)) for shape in shapes]
        self.store = np.empty(sum(sizes))
        ends = np.cumsum(sizes)
        return [self.store[end - size:end].reshape(shape)
                for shape, size, end in zip(shapes, sizes, ends)]

    def _factor_in_order(self, inv: np.ndarray, lower: np.ndarray):
        """Replaces each diagonal block in inv, shaped (modes, blocks, b,
        b), by the inverse of its Schur complement, and fills the
        multipliers: lower block i times the inverse before it."""
        self.multipliers[:, 0] = 0.0
        for i in range(self._nb):
            if i:
                np.matmul(lower[i], inv[:, i - 1],
                          out=self.multipliers[:, i])
                inv[:, i] -= self.multipliers[:, i] @ self.upper[i - 1]
            inv[:, i:i + 1] = self._inverse(inv[:, i:i + 1], [i])

    def _factor_cyclic(self, d, lower, upper):
        """The levels of cyclic reduction from the diagonal blocks d,
        shaped (modes, blocks, b, b), and L_X's lower and upper blocks."""
        modes, nb, b = d.shape[:3]
        counts = [nb]
        while counts[-1] > 1:
            counts.append(counts[-1] // 2)
        shapes = [(b, b, modes, w) for c in counts[:-1]
                  for w in ((c + 1) // 2, (c - 1) // 2, c // 2, c // 2,
                            (c - 1) // 2)]
        *views, self.top = self._views(shapes + [(b, b, modes, 1)])
        self.levels = [views[i:i + 5] for i in range(0, len(views), 5)]
        d = np.ascontiguousarray(d.transpose(2, 3, 0, 1))
        lower = np.broadcast_to(lower.transpose(1, 2, 0)[:, :, None], d.shape)
        upper = np.broadcast_to(upper.transpose(1, 2, 0)[:, :, None], d.shape)
        blocks = np.arange(nb)
        for inv, g_lo, g_up, k_lo, k_up in self.levels:
            kept, first_after = k_lo.shape[-1], k_up.shape[-1]
            inv[...] = self._inverse_cyclic(d[..., 0::2], blocks[0::2])
            g_lo[...] = _cyclic_product(inv[..., 1:], lower[..., 2::2])
            g_up[...] = _cyclic_product(inv[..., :kept],
                                        upper[..., 0:2 * kept:2])
            k_lo[...] = lower[..., 1::2]
            k_up[...] = upper[..., 1:2 * first_after:2]
            d = d[..., 1::2] - _cyclic_product(k_lo, g_up)
            d[..., :first_after] -= _cyclic_product(k_up, g_lo)
            lower = np.zeros_like(d)
            lower[..., 1:] = -_cyclic_product(k_lo[..., 1:],
                                              g_lo[..., :kept - 1])
            upper = np.zeros_like(d)
            upper[..., :kept - 1] = -_cyclic_product(k_up[..., :kept - 1],
                                                     g_up[..., 1:])
            blocks = blocks[1::2]
        self.top[...] = self._inverse_cyclic(d, blocks)

    def _inverse_cyclic(self, d: np.ndarray, blocks) -> np.ndarray:
        """_inverse of blocks shaped (b, b, modes, blocks)."""
        return np.moveaxis(self._inverse(np.moveaxis(d, (0, 1), (2, 3)),
                                         blocks), (2, 3), (0, 1))

    def _inverse(self, d: np.ndarray, blocks) -> np.ndarray:
        """The inverses of the blocks d, shaped (modes, blocks, b, b);
        `blocks` numbers them among the level-0 blocks."""
        try:
            return _inverse(d)
        except np.linalg.LinAlgError:
            for i, e in np.ndindex(d.shape[:2]):
                try:
                    _inverse(d[i, e])
                except np.linalg.LinAlgError:
                    pos = blocks[e] * self._b + _weakest_pivot(d[i, e])
                    mode, node = int(self._modes[i]), int(self._order[pos])
                    raise NumericalFailure(
                        f"block LU factorization failed: exactly singular "
                        f"pivot at row {mode * self._n_x + node} of the block "
                        f"matrix (mode {mode}, slice node {node}; 0-based, "
                        f"natural order)") from None
            raise

    def solve(self, f: np.ndarray) -> np.ndarray:
        """The solution for right-hand sides f, one column per mode."""
        modes = f.shape[1]
        x = np.zeros((modes, self._nb * self._b))
        x[:, :self._n_x] = f[self._order].T
        x = x.reshape(modes, self._nb, self._b)
        if self.cyclic:
            x = self._solve_cyclic(x.transpose(2, 0, 1)).transpose(1, 2, 0)
        else:
            self._solve_in_order(x)
        w = np.empty_like(f)
        w[self._order] = x.reshape(modes, -1)[:, :self._n_x].T
        return w

    def _solve_in_order(self, x: np.ndarray):
        """Overwrites x, shaped (modes, blocks, b), with the solution."""
        inv = self.inverses
        for i in range(1, self._nb):
            x[:, i] -= _apply(self.multipliers[:, i], x[:, i - 1])
        x[:, -1] = _apply(inv[:, -1], x[:, -1])
        for i in range(self._nb - 2, -1, -1):
            x[:, i] = _apply(inv[:, i],
                             x[:, i] - _apply(self.upper[i], x[:, i + 1]))

    def _solve_cyclic(self, x: np.ndarray) -> np.ndarray:
        """The solution for x, both shaped (b, modes, blocks)."""
        # reduce: each level's eliminated blocks solved for their own
        # right-hand side, which then moves onto the kept blocks
        partial = []
        for inv, _, _, k_lo, k_up in self.levels:
            z = _cyclic_apply(inv, x[..., 0::2])
            partial.append(z)
            x = x[..., 1::2] - _cyclic_apply(k_lo, z[..., :k_lo.shape[-1]])
            x[..., :k_up.shape[-1]] -= _cyclic_apply(k_up, z[..., 1:])
        x = _cyclic_apply(self.top, x)
        # substitute back: the kept blocks' solution gives the eliminated
        for (_, g_lo, g_up, _, _), z in zip(self.levels[::-1],
                                             partial[::-1]):
            full = np.empty(z.shape[:2] + (z.shape[2] + x.shape[2],))
            full[..., 0::2] = z
            full[..., 2::2] -= _cyclic_apply(g_lo, x[..., :g_lo.shape[-1]])
            full[..., 0:2 * g_up.shape[-1]:2] -= _cyclic_apply(g_up, x)
            full[..., 1::2] = x
            x = full
        return x


class OperatorAssembly:
    """The operator on the domain W, whose last stored axis is t, as its
    slice part L_X and T = -4 D2_t, and its solve, built once (see
    `assemble`); every solve reuses the mode split and factor.

    `t_eigvals`, `t_eigvecs` are the even eigenpairs of T's Dirichlet
    block (the discrete sines of odd k, see the module docstring),
    ascending, each vector symmetrized. The modes `high`, those with
    q_k <= JACOBI_Q_MAX, take plain Jacobi sweeps from D^-1 f on their
    strictly diagonally dominant blocks, all at once: `off` is L_X less
    its diagonal, `diag` the iterated blocks' diagonals, one column per
    mode, and `sweeps` the one sweep count, the fewest s with
    q_k^(s+1) <= 2^-52 for every iterated mode (0 when none is). The
    modes `low` are factored by one block LU (`factor`, _BlockLU, None
    when no mode is), with the slice nodes in `slice_order`; an exactly
    singular block raises NumericalFailure here. `stats` names the route,
    the entries the factor stores, the iterated modes and the sweep
    count."""

    def __init__(self, domain: DiscreteDomain, lx: Stencil, lam: np.ndarray,
                 vecs: np.ndarray):
        self.domain, self.slice_operator = domain, lx
        self.t_eigvals, self.t_eigvecs = lam, vecs
        rows, cols, vals = lx.entries()
        is_off = rows != cols
        diag = np.bincount(rows[~is_off], vals[~is_off], minlength=lx.shape[0])
        off_sums = np.bincount(rows, np.abs(vals) * is_off,
                               minlength=lx.shape[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.max(off_sums[:, None] / np.abs(diag[:, None] + lam),
                       axis=0)
        iterated = q <= JACOBI_Q_MAX
        self.low = np.flatnonzero(~iterated)
        self.high = np.flatnonzero(iterated)
        self.off = Stencil.from_entries(rows[is_off], cols[is_off],
                                        vals[is_off], lx.shape)
        self.diag = diag[:, None] + lam[self.high]
        self.sweeps = 0
        while np.any(q[self.high] ** (self.sweeps + 1) > 2.0 ** -52):
            self.sweeps += 1
        self.factor = (_BlockLU(lx, lam[self.low],
                                slice_order(domain.stored_axes[:-1]), self.low)
                       if self.low.size else None)
        self.stats = {
            "factor": "none" if self.factor is None else "block_lu",
            "factor_nnz": 0 if self.factor is None else self.factor.store.size,
            "jacobi_modes": int(self.high.size),
            "jacobi_sweeps": self.sweeps}

    def solve_modes(self, f: np.ndarray) -> np.ndarray:
        """The solve of kron(L_X, I) + kron(I, diag(lam)) for right-hand
        sides f, shaped (|X|, modes)."""
        w = np.empty_like(f)
        if self.factor is not None:
            w[:, self.low] = self.factor.solve(f[:, self.low])
        f = f[:, self.high]
        w_high = f / self.diag
        for _ in range(self.sweeps):
            w_high = (f - self.off @ w_high) / self.diag
        w[:, self.high] = w_high
        return w

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The operator's inverse on the even part in t of a field that is
        zero at t = +-1; its odd part is dropped.

        The even part (f + Jf)/2 of the interior columns is rotated into
        the even eigenbasis of T, solved mode by mode (`solve_modes`) and
        rotated back onto the t <= 0 interior columns by the first
        t_nodes // 2 rows of `t_eigvecs`; the t > 0 columns are their
        mirror, so the result is exactly even in t and exactly 0 at
        t = +-1.
        """
        f = np.reshape(rhs, (-1, self.domain.shape[-1]))
        half = f.shape[1] // 2
        inner = f[:, 1:-1]
        w = self.solve_modes((0.5 * (inner + inner[:, ::-1])) @ self.t_eigvecs)
        u = np.zeros_like(f)
        u[:, 1:half + 1] = w @ self.t_eigvecs[:half].T
        u[:, half + 1:-1] = u[:, half - 1:0:-1]
        return u.reshape(self.domain.shape)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The operator times a field: L_X on each t slice plus T along t
        on the interior columns, identity on the t = +-1 columns."""
        f = np.reshape(u, (-1, self.domain.shape[-1]))
        out = self.slice_operator @ f
        t = self.domain.stored_axes[-1]
        d2 = diff_matrix(2, t.n, t.spacing, t.closure)
        out[:, 1:-1] -= 4.0 * (d2 @ f.T)[1:-1].T
        out[:, [0, -1]] = f[:, [0, -1]]
        return out.reshape(self.domain.shape)


@dataclass(frozen=True)
class SolveReport:
    """Solution of one Dirichlet solve plus the numbers the pipeline audits."""
    u: np.ndarray
    stats: dict


def assemble(v_x: np.ndarray, potential, metric_x: MetricField,
             t_axis: Axis) -> OperatorAssembly:
    """The operator on W = X x t_axis for g = h_X + dt^2 (metric_x = h_X)
    and a drift tangent to X with components v_x: L_X on the slice grid
    and the even eigenpairs of T's Dirichlet block, the closed-form sines
    of odd k, with the mode split and factor built from them. A run calls
    it once, right before its first solve pass; an exactly singular factor
    raises NumericalFailure.

    The caller guarantees ellipticity, which is not checked here: the
    symbol h_X^-1 - v v^T is positive definite iff 1 - h_X(v, v) > 0
    (matrix determinant lemma), the margin that normal.normal_frame
    computes and the pipeline refuses before it assembles."""
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

    # the discrete sines of the module docstring for odd k, the even modes,
    # ascending and made exactly even; i k is reduced mod 2 (m + 1) so that
    # each sine's argument lies in [0, 2 pi)
    m = t_axis.n - 2
    k = np.arange(1, m + 1, 2)
    lam = 16.0 / t_axis.spacing ** 2 * np.sin(k * (np.pi / (2 * (m + 1)))) ** 2
    ik = np.outer(np.arange(1, m + 1), k) % (2 * (m + 1))
    q = np.sqrt(2.0 / (m + 1)) * np.sin(ik * (np.pi / (m + 1)))
    q = 0.5 * (q + q[::-1])
    # t is W's last stored axis, here as in grids.build_domain: a field on
    # W reshaped to (|X|, t nodes) holds each slice node's t column, so
    # the solve, the residual and B1's product read fields as they are
    return OperatorAssembly(x.with_axis(t_axis),
                            operator_matrix(x, c2, c1, c0), lam, q)


def _coefficients(v: np.ndarray, potential, metric: MetricField):
    """(c2, c1, c0) on the metric's domain, each in the grid shape its
    inputs come with."""
    dom = metric.domain
    inv = metric.inverse
    v = np.asarray(v, dtype=float)
    c0 = np.asarray(potential, dtype=float)
    np.broadcast_to(v, dom.shape + (dom.dim,))  # raises on a shape mismatch

    # term1 and term3 sum over trailing axes and stay node-first
    # (metrics.py, working layout)
    gamma = metric.gamma
    term1 = np.einsum("...a,...ka->...k", v, gradient(dom, v))
    v_first = _front(v, 1)
    term2 = np.einsum("i...,j...,kij...->k...", v_first, v_first,
                      _front(gamma, 3))
    term2 = _front(term2, term2.ndim - 1)
    term3 = np.einsum("...ij,...kij->...k", inv, gamma)
    c1 = 4.0 * (term1 - term2 + term3)
    c2 = 4.0 * (v[..., :, None] * v[..., None, :] - inv)
    return c2, c1, c0


def operator_matrix(dom: DiscreteDomain, c2, c1, c0) -> Stencil:
    """sum C2[a,b] d_a d_b + sum C1[k] d_k + C0 as a Stencil (sorted
    column indices, no duplicate or stored zero) over the stored grid of
    `dom`, whose coordinate slots c2 and c1 index.

    Every term is a node coefficient times one or two 1-d difference
    stencils; its entries are written into one (row, col, value) list from
    the node index grid, each stencil entry (r, c, v) moving its axis'
    index from r to c, the value coef[row] * v (coef[row] * (v_a v_b) for
    a mixed term). The terms come in the order c2 diagonal, c1, mixed,
    c0; the entries of each matrix position are summed in that order and
    zero sums dropped."""
    shape, n = dom.shape, dom.node_count
    nodes = np.arange(n).reshape(shape)
    rows, cols, values = [], [], []

    def term(coef, *factors):
        row = col = nodes
        stencil = 1.0
        for k, d in factors:
            d_row, d_col, d_val = d.entries()
            row = np.take(row, d_row, axis=k)
            col = np.take(col, d_col, axis=k)
            stencil = stencil * d_val.reshape(
                [-1 if a == k else 1 for a in range(len(shape))])
        rows.append(row.ravel())
        cols.append(col.ravel())
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
    return Stencil.from_entries(np.concatenate(rows), np.concatenate(cols),
                                np.concatenate(values), (n, n))


def solve_dirichlet(assembly: OperatorAssembly, forcing,
                    tolerance: float = 1e-10, start=None) -> SolveReport:
    """Solve L u = F with u = 0 at t = +-1.

    Every solve runs on the assembly's one mode split and factor, each
    even mode of T on the route the module docstring's factor-route rule
    gives it (OperatorAssembly.solve). The first iterate is the solve of
    F, or `start` when given (an even field zero at t = +-1: the auto-C
    re-budget passes the first pass's u scaled to the new forcing). Then
    iterative refinement against the full F: at least one step, at most
    four, each residual applied matrix-free (OperatorAssembly.apply), so
    an odd part of F, which the even modes cannot solve for, stays in the
    residual. An infinity-norm residual that ends above tolerance raises
    NumericalFailure.

    The returned report carries u shaped like the domain (exactly zero at
    t = +-1, exactly even in t when `start` is); its stats hold the final
    residual (`residual_inf`) and name the factor route (`factor`:
    block_lu or none), its stored entries (`factor_nnz`), the modes solved
    by Jacobi sweeps (`jacobi_modes`) and their one sweep count
    (`jacobi_sweeps`).
    """
    rhs = np.array(np.broadcast_to(forcing, assembly.domain.shape),
                   dtype=float)
    rhs[..., [0, -1]] = 0.0
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
             **assembly.stats}
    if residual_inf > tolerance:
        raise NumericalFailure(
            f"solver residual {residual_inf:.3e} exceeds "
            f"tolerance {tolerance:.1e}")
    return SolveReport(u=np.ascontiguousarray(u), stats=stats)


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
    core = d2u_dt2[..., monitor_core(domain.axis("t"), epsilon)]
    return float(np.max(np.abs(core)))
