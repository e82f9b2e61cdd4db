"""Metric fields: SPD 2-tensors with component, derivative and curvature
access.

A MetricField stores the components g_ij over the grid together with first
and second coordinate derivatives. Builtin named metrics carry closed-form
derivative arrays; as_fd swaps in stencil-derived ones (used by convergence
tests and for metrics loaded from CSV tables). Index convention:

    comp[..., i, j]        g_ij
    d1[..., i, j, k]       d_k g_ij
    d2[..., i, j, k, l]    d_l d_k g_ij
    gamma[..., k, i, j]    Gamma^k_ij
    ricci[..., i, j]       Ric_ij

with i, j, k, l running over the full coordinate order of the domain,
virtual axes included (their derivative slots are zero).

A metric owns its Levi-Civita data: gamma, ricci and scalar are computed
from the coordinate (Christoffel) form on first use and cached, so every
consumer of one metric reads one evaluation. With closed-form derivative
arrays they are pointwise exact; FD-mode metrics give second order
accuracy instead.

Working layout. The arrays above are node-first, and that is how they are
handed out (contiguous). The per-node tensor algebra runs on
component-first copies instead, a[i, j, ..., nodes] made by _front, with
the same einsum subscripts reordered ("...kl,...lij->...kij" becomes
"kl...,lij...->kij..."): einsum's inner loop then runs over the nodes
instead of over a component axis of length 2-4, which makes ricci 2-3x
faster. numpy adds the terms of each output in the same order in both
layouts, so the bits do not change, for
  - every contraction of three or more operands, and
  - every two-operand contraction whose summed index is not the trailing
    axis of both operands ("...kl,...lij->...kij", "...jk,...ki->...ij").
A two-operand contraction summed over the trailing axes of both operands
("...ij,...ij->...", "...ij,...kij->...k", and at d = 3 also
"...ij,...j->...i", "...kam,...m->...ka", "...i,...i->...") takes numpy's
contiguous dot loop in the node-first layout, which sums in another
order; those stay node-first (scalar here; h_mean, the B1 and operator
coefficients elsewhere), since converting one moves report values in the
last bit. tests/test_layout.py holds every converted site to its
node-first expression bit for bit. No component-first copy is cached: a
conversion costs microseconds, and a kept copy would add to the peak
memory of every run.

The grid dimensions of each array need only broadcast to the domain's
shape. A run builds its metrics on the t-free domains only: h on Y and its
restriction h_X on X. The product metrics h + dt^2 on M = Y x [-1, 1] and
W are never built: solver.assemble, forcing.forcing_norm and the slice
operator of conformal.b1_operator read the slice data.

Builtins, constructed on any domain whose axes they name (components
appear according to which axes the domain has; on W and M, which only the
tests build, they are the product metrics materialised over t). BUILTINS
gives each one's backend and its parameters' defaults and ranges:

    product_flat           flat torus cross circle, identity components
    twisted_flat{c}        dx^2 + dy^2 (+ dz^2) + (dtheta + c dx)^2
    sphere_product{r}      round S^2(r) cross unit circle
    sphere_twist{r,beta0}  r^2 drho^2 + r^2 sin^2(rho) dalpha^2
                           + (dtheta + beta dalpha)^2, beta = beta0 sin^2(rho)

The sphere_twist profile vanishes to second order at the poles, which keeps
the metric smooth there; its twist strength grows toward the equator.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, NumericalFailure
from .grids import SPHERE, TORUS, DiscreteDomain, derivatives


class Param(NamedTuple):
    """One parameter of a builtin: config key, default and allowed range."""
    name: str
    default: float
    check: Callable[[float], bool]
    describe: str


class Builtin(NamedTuple):
    """The backend a builtin metric lives on and the parameters it takes."""
    backend: str
    params: tuple = ()


_R = Param("r", 1.0, lambda v: v > 0.0, "r > 0")

# The one catalogue of builtin metrics: config.parse_config and make_metric
# read each one's parameters, defaults and ranges from it, the parser also
# its backend
BUILTINS = {
    "product_flat": Builtin(TORUS),
    "twisted_flat": Builtin(TORUS, (
        Param("c", 0.0, lambda v: v >= 0.0, "c >= 0"),)),
    "sphere_product": Builtin(SPHERE, (_R,)),
    "sphere_twist": Builtin(SPHERE, (
        _R, Param("beta0", 0.0, lambda v: v >= 0.0, "beta0 >= 0"))),
}

_SPD_FLOOR = 1e-10


class MetricField:
    """Symmetric positive definite 2-tensor field with derivative arrays."""

    def __init__(self, domain: DiscreteDomain, comp, d1, d2):
        self.domain = domain
        d = domain.dim
        shape = domain.shape
        self.comp = np.asarray(comp, dtype=float)
        self.d1 = np.asarray(d1, dtype=float)
        self.d2 = np.asarray(d2, dtype=float)
        # arrays keep their own grid shape; it must broadcast to the domain's
        np.broadcast_to(self.comp, shape + (d, d))
        np.broadcast_to(self.d1, shape + (d, d, d))
        np.broadcast_to(self.d2, shape + (d, d, d, d))
        self._validate()

    def _validate(self):
        bad = int(np.count_nonzero(~np.isfinite(self.comp)))
        if bad:
            raise NumericalFailure(f"metric has {bad} non-finite components")
        scale = 1.0 + float(np.max(np.abs(self.comp)))
        skew = float(np.max(np.abs(self.comp - np.swapaxes(self.comp, -1, -2))))
        if skew > 1e-12 * scale:
            raise NumericalFailure(f"metric components not symmetric: {skew:.3e}")
        lo = float(np.min(np.linalg.eigvalsh(self.comp)))
        if lo <= _SPD_FLOOR:
            raise NumericalFailure(
                f"metric not positive definite: min eigenvalue {lo:.3e}")

    @property
    def dim(self) -> int:
        return self.domain.dim

    @cached_property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.comp)

    @cached_property
    def det(self) -> np.ndarray:
        return np.linalg.det(self.comp)

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        return np.sqrt(self.det)

    @cached_property
    def gamma(self) -> np.ndarray:
        gamma = 0.5 * np.einsum("kl...,lij...->kij...",
                                _front(self.inverse, 2),
                                _lowered(_front(self.d1, 3)))
        return _front(gamma, gamma.ndim - 3)

    @cached_property
    def ricci(self) -> np.ndarray:
        """Ric_ij from gamma and d_a Gamma^k_ij, the latter by the product
        rule (exact for closed-form metrics)."""
        inv, gamma = _front(self.inverse, 2), _front(self.gamma, 3)
        d1, d2 = _front(self.d1, 3), _front(self.d2, 4)
        t = _lowered(d1)
        dt = (np.einsum("jlia...->lija...", d2)
              + np.einsum("ilja...->lija...", d2)
              - np.einsum("ijla...->lija...", d2))
        dinv = -np.einsum("km...,mna...,nl...->kla...", inv, d1, inv)
        # only the traces d_k Gamma^k_ij and d_j Gamma^k_ki of
        # d_a Gamma^k_ij enter: each is built from its own entries alone
        t1 = np.einsum("kij...->ij...", 0.5 * (
            np.einsum("klk...,lij...->kij...", dinv, t)
            + np.einsum("kl...,lijk...->kij...", inv, dt)))
        t2 = np.einsum("kji...->ij...", 0.5 * (
            np.einsum("kli...,lkj...->kji...", dinv, t)
            + np.einsum("kl...,lkji...->kji...", inv, dt)))
        q1 = np.einsum("kkl...,lij...->ij...", gamma, gamma)
        q2 = np.einsum("kil...,lkj...->ij...", gamma, gamma)
        ricci = t1 - t2 + q1 - q2
        return _front(ricci, ricci.ndim - 2)

    @cached_property
    def scalar(self) -> np.ndarray:
        return np.einsum("...ij,...ij->...", self.inverse, self.ricci)

    def norm2(self, v: np.ndarray) -> np.ndarray:
        """Pointwise squared length of a vector field."""
        v = _front(v, 1)
        return np.einsum("ij...,i...,j...->...", _front(self.comp, 2), v, v)


def _front(a: np.ndarray, k: int) -> np.ndarray:
    """a with its last k axes moved to the front, C-contiguous: with k the
    component count, a node-first array in the working layout; with k
    a.ndim minus the component count, the reverse."""
    n = a.ndim
    return a.transpose((*range(n - k, n), *range(n - k))).copy()


def _lowered(d1: np.ndarray) -> np.ndarray:
    """2 Gamma_lij = d_i g_jl + d_j g_il - d_l g_ij from d_k g_ij, both in
    the working layout: [i, j, k, ...] in, [l, i, j, ...] out."""
    return (np.einsum("jli...->lij...", d1) + np.einsum("ilj...->lij...", d1)
            - np.einsum("ijl...->lij...", d1))


def _empty(domain: DiscreteDomain):
    d = domain.dim
    shape = domain.shape
    return (np.zeros(shape + (d, d)), np.zeros(shape + (d, d, d)),
            np.zeros(shape + (d, d, d, d)))


def _identity(domain: DiscreteDomain):
    comp, d1, d2 = _empty(domain)
    for i in range(domain.dim):
        comp[..., i, i] = 1.0
    return comp, d1, d2


def _opt_index(domain, name):
    return domain.index(name) if name in domain.names else None


def make_metric(name: str, domain: DiscreteDomain, **params) -> MetricField:
    """Construct a builtin metric on the given domain; parameters missing
    from `params` take their BUILTINS defaults."""
    if name not in BUILTINS:
        raise ConfigError(f"unknown builtin metric {name!r}")
    takes = BUILTINS[name].params
    extra = set(params) - {p.name for p in takes}
    if extra:
        raise ConfigError(f"metric {name!r} does not take {sorted(extra)}")
    values = {}
    for p in takes:
        value = float(params.get(p.name, p.default))
        if not p.check(value):
            raise ConfigError(f"{name} requires {p.describe}, got {value}")
        values[p.name] = value

    # the products are the twists at zero twist: product_flat is
    # twisted_flat at c = 0, sphere_product sphere_twist at beta0 = 0
    comp, d1, d2 = _identity(domain)
    if BUILTINS[name].backend == TORUS:
        c = values.get("c", 0.0)
        ix = _opt_index(domain, "x")
        if ix is None:
            raise ConfigError(f"{name} needs an x axis")
        comp[..., ix, ix] = 1.0 + c * c
        ith = _opt_index(domain, "theta")
        if ith is not None:
            comp[..., ix, ith] = c
            comp[..., ith, ix] = c

    else:
        r, b0 = values["r"], values.get("beta0", 0.0)
        irho = _opt_index(domain, "rho")
        ia = _opt_index(domain, "alpha")
        if irho is None or ia is None:
            raise ConfigError(f"{name} needs rho and alpha axes")
        rho = domain.mesh("rho")
        s, s2, c2 = np.sin(rho), np.sin(2.0 * rho), np.cos(2.0 * rho)
        beta = b0 * s * s
        db = b0 * s2
        ddb = 2.0 * b0 * c2
        comp[..., irho, irho] = r * r
        comp[..., ia, ia] = (r * s) ** 2 + beta * beta
        d1[..., ia, ia, irho] = r * r * s2 + 2.0 * beta * db
        d2[..., ia, ia, irho, irho] = (2.0 * r * r * c2
                                       + 2.0 * (db * db + beta * ddb))
        ith = _opt_index(domain, "theta")
        if ith is not None:
            comp[..., ia, ith] = beta
            comp[..., ith, ia] = beta
            d1[..., ia, ith, irho] = db
            d1[..., ith, ia, irho] = db
            d2[..., ia, ith, irho, irho] = ddb
            d2[..., ith, ia, irho, irho] = ddb

    return MetricField(domain, comp, d1, d2)


def as_fd(metric: MetricField) -> MetricField:
    """Same components, derivative arrays recomputed by finite differences."""
    dom = metric.domain
    return MetricField(dom, metric.comp, *derivatives(dom, metric.comp))


def conformal_metric(metric: MetricField, phi: np.ndarray, dphi=None,
                     d2phi=None) -> MetricField:
    """e^(2 phi) g with derivative arrays by the product rule.

    Pass closed-form dphi and d2phi together (full coordinate order) to
    keep derivative exactness; otherwise both come from stencils applied
    to phi.
    """
    dom = metric.domain
    if dphi is None:
        dphi, d2phi = derivatives(dom, phi)
    e2 = np.exp(2.0 * phi)

    g, g1, g2 = metric.comp, metric.d1, metric.d2
    comp = e2[..., None, None] * g
    d1 = e2[..., None, None, None] * (
        2.0 * dphi[..., None, None, :] * g[..., :, :, None] + g1)
    d2 = e2[..., None, None, None, None] * (
        (4.0 * dphi[..., None, None, :, None] * dphi[..., None, None, None, :]
         + 2.0 * d2phi[..., None, None, :, :]) * g[..., :, :, None, None]
        + 2.0 * dphi[..., None, None, :, None] * g1[..., :, :, None, :]
        + 2.0 * dphi[..., None, None, None, :] * g1[..., :, :, :, None]
        + g2)
    return MetricField(dom, comp, d1, d2)


def restrict_metric(metric: MetricField, sub: DiscreteDomain, at=None) -> MetricField:
    """Pull the metric back to a coordinate subdomain.

    Keeps the component block and the derivative directions of the surviving
    axes. Any dropped stored axis needs an evaluation index in `at`; dropped
    virtual axes need nothing. This is the induced metric for our coordinate
    aligned slices (t = const, theta = const).
    """
    at = dict(at or {})
    src = metric.domain
    keep = [src.index(n) for n in sub.names]

    dropped = {}
    for ax in src.axes:
        if ax.name in sub.names or not ax.stored:
            continue
        if ax.name not in at:
            raise ValueError(f"need an evaluation index for dropped axis {ax.name!r}")
        dropped[src.array_axis(ax.name)] = at[ax.name]

    def pull(arr):
        sl = [slice(None)] * len(src.shape)
        for k, i in dropped.items():
            sl[k] = i
        return arr[tuple(sl)][(...,) + np.ix_(*[keep] * (arr.ndim - len(sl)))]

    return MetricField(sub, pull(metric.comp), pull(metric.d1),
                       pull(metric.d2))


def _component_names(domain: DiscreteDomain):
    names = domain.names
    pairs = []
    for i, ni in enumerate(names):
        for j, nj in enumerate(names):
            if j >= i:
                pairs.append((i, j, f"g_{ni}_{nj}"))
    return pairs


def metric_to_csv(metric: MetricField, path) -> None:
    """Upper-triangle component table, one row per stored node."""
    from .grids import fields_to_csv
    cols = {}
    for i, j, label in _component_names(metric.domain):
        cols[label] = np.broadcast_to(metric.comp[..., i, j],
                                      metric.domain.shape)
    fields_to_csv(path, metric.domain, cols)


def load_metric_csv(domain: DiscreteDomain, path) -> MetricField:
    """Metric from a CSV component table; derivatives by finite differences.

    Expects the layout metric_to_csv writes: stored coordinates first, then
    the upper triangle g_<i>_<j> over the full coordinate order, rows in C
    order over the grid.
    """
    try:
        table = np.genfromtxt(path, delimiter=",", names=True)
    except OSError as exc:
        raise ConfigError(f"cannot read metric table {path}: {exc}") from exc
    if table.ndim == 0:
        table = table.reshape(1)

    n_nodes = domain.node_count
    if table.shape[0] != n_nodes:
        raise ConfigError(
            f"metric table {path} has {table.shape[0]} rows, grid has {n_nodes}")

    from .grids import coordinate_columns
    ref = coordinate_columns(domain)
    fields = table.dtype.names or ()
    for name, coords in ref.items():
        if name not in fields:
            raise ConfigError(f"metric table {path} lacks coordinate column {name!r}")
        # written so that a nan (blank) coordinate cell fails it too
        if not np.max(np.abs(table[name] - coords)) <= 1e-9:
            raise ConfigError(
                f"metric table {path}: column {name!r} does not match the "
                "grid (rows must be in C order over the stored axes)")

    d = domain.dim
    comp = np.zeros(domain.shape + (d, d))
    for i, j, label in _component_names(domain):
        if label not in fields:
            raise ConfigError(f"metric table {path} lacks component column {label!r}")
        vals = table[label].reshape(domain.shape)
        comp[..., i, j] = vals
        comp[..., j, i] = vals

    zero1 = np.zeros(domain.shape + (d, d, d))
    zero2 = np.zeros(domain.shape + (d, d, d, d))
    try:
        flat = MetricField(domain, comp, zero1, zero2)
    except NumericalFailure as exc:
        raise ConfigError(f"metric table {path}: {exc}") from exc
    return as_fd(flat)
