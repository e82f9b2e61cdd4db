"""Finite-difference stencils for structured axes, and the sparse matrix
layout every stencil product in the package uses.

One derivative matrix per (order, length, spacing, closure) tuple, cached,
so field-level derivatives and operator assembly share bit-identical
coefficients.

Closures:
    periodic   wrap-around, 2nd order central
    mirror     cell-centered even reflection at both ends, 4th order
    bounded    2nd order central inside, 2nd order one-sided at the ends

The mirror closure assumes even symmetry of the sampled function across both
ends. Colatitude grids use it: smooth axisymmetric fields extend evenly
through the poles, and the half-offset grid never places a node on a pole.
It is 4th order because inverse-metric factors of size 1/sin^2(rho) amplify
truncation error near the poles by two powers of the spacing; a 2nd order
stencil there would leave an O(1) error in curvature at pole-adjacent nodes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

PERIODIC = "periodic"
MIRROR = "mirror"
BOUNDED = "bounded"
VIRTUAL = "virtual"

# (offset, weight) stencil tables; weights get scaled by spacing^-order
_CENTRAL = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
}
_WIDE = {
    1: ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0)),
    2: ((-2, -1.0 / 12.0), (-1, 16.0 / 12.0), (0, -30.0 / 12.0),
        (1, 16.0 / 12.0), (2, -1.0 / 12.0)),
}
_FORWARD = {
    1: ((0, -1.5), (1, 2.0), (2, -0.5)),
    2: ((0, 2.0), (1, -5.0), (2, 4.0), (3, -1.0)),
}


class Stencil:
    """A sparse matrix of shape (n_rows, n_cols) as padded per-row entries
    (ELLPACK layout): row i holds vals[j, i] at column cols[j, i],
    j = 0..k-1, in ascending column order, with no duplicate column and no
    stored zero; a row with fewer than k entries is padded at its end
    with value 0 at column 0.

    `stencil @ x` accumulates each row's entries in that order from 0, as
    a CSR product with sorted column indices does, so the two agree bit
    for bit: padded zeros add +-0 to the row's sum, which never changes
    it. Treat instances as immutable; diff_matrix shares them."""

    def __init__(self, cols: np.ndarray, vals: np.ndarray, n_cols: int):
        self.cols, self.vals, self.n_cols = cols, vals, n_cols

    @classmethod
    def from_entries(cls, rows, cols, vals, shape) -> "Stencil":
        """The matrix whose (rows[i], cols[i]) entry gets vals[i] added:
        entries of one position are summed in the order given, and zero
        sums are dropped."""
        n_rows, n_cols = shape
        key = np.asarray(rows) * n_cols + np.asarray(cols)
        # a stable sort keeps each position's entries in the given order,
        # and bincount adds them in that order
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        sums = np.bincount(np.cumsum(first) - 1,
                           weights=np.asarray(vals, dtype=float)[order])
        nonzero = sums != 0.0
        key, sums = key[first][nonzero], sums[nonzero]
        row = key // n_cols
        start = np.searchsorted(row, np.arange(n_rows))
        slot = np.arange(key.size) - start[row]
        k = int(slot.max(initial=-1)) + 1
        padded_cols = np.zeros((k, n_rows), dtype=np.intp)
        padded_vals = np.zeros((k, n_rows))
        padded_cols[slot, row] = key % n_cols
        padded_vals[slot, row] = sums
        return cls(padded_cols, padded_vals, n_cols)

    @property
    def shape(self) -> tuple:
        return (self.cols.shape[1], self.n_cols)

    @property
    def nnz(self) -> int:
        """The stored entries, padding excluded."""
        return int(np.count_nonzero(self.vals))

    def entries(self):
        """(rows, cols, vals) of the stored entries, row by row in
        ascending column order."""
        slot, row = np.nonzero(self.vals.T != 0.0)[::-1]
        return row, self.cols[slot, row], self.vals[slot, row]

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (np.broadcast_to(np.arange(self.shape[0]),
                                        self.cols.shape), self.cols),
                  self.vals)
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with x, shaped (n_cols, ...)."""
        x = np.asarray(x)
        flat = x.reshape(x.shape[0], -1)
        # einsum adds the k gathered terms of every output entry in slot
        # order, from 0 (the bitwise tests against CSR products check it)
        out = np.einsum("kn,knm->nm", self.vals,
                        np.take(flat, self.cols, axis=0))
        return out.reshape(self.shape[:1] + x.shape[1:])


def _mirror_fold(idx: int, n: int) -> int:
    # ghost -1 -> 0, -2 -> 1; ghost n -> n-1, n+1 -> n-2
    if idx < 0:
        idx = -1 - idx
    if idx >= n:
        idx = 2 * n - 1 - idx
    return idx


@lru_cache(maxsize=None)
def diff_matrix(order: int, n: int, spacing: float, closure: str) -> Stencil:
    """n x n sparse derivative matrix along one axis; entries that fold
    onto one column (the mirror closure's ghosts) are summed.

    order is 1 or 2. The returned matrix is cached and shared; treat it as
    immutable.
    """
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    if spacing <= 0.0:
        raise ValueError(f"axis spacing must be positive, got {spacing}")
    scale = spacing ** -order

    rows, cols, vals = [], [], []

    if closure == PERIODIC:
        if n < 3:
            raise ValueError(f"periodic axis needs >= 3 nodes, got {n}")
        for i in range(n):
            for off, w in _CENTRAL[order]:
                rows.append(i)
                cols.append((i + off) % n)
                vals.append(w * scale)
    elif closure == MIRROR:
        if n < 4:
            raise ValueError(f"mirror axis needs >= 4 nodes, got {n}")
        for i in range(n):
            for off, w in _WIDE[order]:
                rows.append(i)
                cols.append(_mirror_fold(i + off, n))
                vals.append(w * scale)
    elif closure == BOUNDED:
        if n < 4:
            raise ValueError(f"bounded axis needs >= 4 nodes, got {n}")
        for i in range(n):
            if 0 < i < n - 1:
                table = _CENTRAL[order]
                flip = 1.0
            elif i == 0:
                table = _FORWARD[order]
                flip = 1.0
            else:
                # backward stencil: reflect offsets; odd orders change sign
                table = tuple((-off, w) for off, w in _FORWARD[order])
                flip = -1.0 if order == 1 else 1.0
            for off, w in table:
                rows.append(i)
                cols.append(i + off)
                vals.append(flip * w * scale)
    else:
        raise ValueError(f"no stencils for axis closure {closure!r}")

    return Stencil.from_entries(rows, cols, vals, (n, n))


def apply_diff(values: np.ndarray, array_axis: int, order: int, n: int,
               spacing: float, closure: str) -> np.ndarray:
    """Differentiate `values` along one array axis with the matching stencil."""
    d = diff_matrix(order, n, spacing, closure)
    moved = np.moveaxis(values, array_axis, 0)
    flat = moved.reshape(n, -1)
    out = d @ flat
    return np.moveaxis(out.reshape(moved.shape), 0, array_axis)
