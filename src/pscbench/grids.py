"""Structured discrete domains, fields over them, quadrature, norms, CSV dumps.

A domain is an ordered tuple of coordinate axes. An axis is either stored
(it carries grid nodes and one array dimension) or virtual (a circle that no
field varies along; it contributes its circumference to integrals and zero
to derivatives). Scalar fields are plain ndarrays shaped like the stored
grid. Vector and tensor fields carry trailing component dimensions indexed
by the full coordinate order, virtual axes included, so tensor algebra never
needs to know which axes happen to be stored.

Only the solution u and the forcing bump carry t: every other field of a
run (metric, curvature, drift) lives on the t-free slice domains X and Y.

Domain construction for a run:

    W = build_domain(spec)             # X x [-1, 1], the solve domain
    X = W.without("t")
    Y = with_circle(X)                 # X x S^1, the circle virtual

A run builds no M = Y x [-1, 1]. Tests build it as
with_circle(X).with_axis(W.axis("t")): without t it has Y's axis order,
without theta W's. A Y whose circle is stored, for fields that vary
along it, is X.with_axis(periodic_axis("theta", n)).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import fd
from .errors import ConfigError

TORUS = "torus"
SPHERE = "sphere-axisym"

_TORUS_AXIS_NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class Axis:
    """Node k < n sits at start + (first + k) * spacing, or half a spacing
    further on a mirror axis. A bounded axis puts its last node exactly at
    `stop` and, for an odd node count, its midpoint exactly at
    (start + stop) / 2. `first` is nonzero only on an axis cut from a
    longer one (upper_half, which keeps the longer axis' last node), so
    its nodes keep the longer axis' coordinates bit for bit."""
    name: str
    closure: str
    n: int
    spacing: float
    start: float
    length: float
    first: int = 0
    stop: float = 0.0

    @property
    def stored(self) -> bool:
        return self.closure != fd.VIRTUAL

    def coords(self) -> np.ndarray:
        k = np.arange(self.first, self.first + self.n)
        if self.closure == fd.MIRROR:
            return self.start + (k + 0.5) * self.spacing
        coords = self.start + k * self.spacing
        if self.closure == fd.BOUNDED:
            last = self.first + self.n - 1
            coords[k == last] = self.stop
            if last % 2 == 0:
                coords[k == last // 2] = 0.5 * (self.start + self.stop)
        return coords

    def weights(self) -> np.ndarray:
        """Quadrature weights of a stored axis; trapezoid on bounded axes,
        midpoint otherwise."""
        w = np.full(self.n, self.spacing)
        if self.closure == fd.BOUNDED:
            w[0] *= 0.5
            w[-1] *= 0.5
        return w


def periodic_axis(name: str, n: int, length: float = 2.0 * math.pi) -> Axis:
    return Axis(name, fd.PERIODIC, n, length / n, 0.0, length)


def mirror_axis(name: str, n: int, length: float = math.pi) -> Axis:
    return Axis(name, fd.MIRROR, n, length / n, 0.0, length)


def bounded_axis(name: str, n: int, lo: float = -1.0, hi: float = 1.0) -> Axis:
    return Axis(name, fd.BOUNDED, n, (hi - lo) / (n - 1), lo, hi - lo,
                stop=hi)


def virtual_axis(name: str, length: float = 2.0 * math.pi) -> Axis:
    return Axis(name, fd.VIRTUAL, 1, 0.0, 0.0, length)


def upper_half(axis: Axis) -> Axis:
    """The nodes of a bounded axis with an odd node count from its
    midpoint up: t = 0 through t = 1 of W's t axis."""
    half = axis.n // 2
    return replace(axis, n=half + 1, first=axis.first + half,
                   length=axis.length / 2.0)


@dataclass(frozen=True)
class DiscreteDomain:
    axes: tuple = field(default_factory=tuple)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def names(self) -> tuple:
        return tuple(a.name for a in self.axes)

    @property
    def stored_axes(self) -> tuple:
        return tuple(a for a in self.axes if a.stored)

    @property
    def shape(self) -> tuple:
        return tuple(a.n for a in self.stored_axes)

    @property
    def node_count(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    def axis(self, name: str) -> Axis:
        for a in self.axes:
            if a.name == name:
                return a
        raise KeyError(f"domain has no axis {name!r}")

    def index(self, name: str) -> int:
        """Coordinate index of an axis (position in the full order)."""
        for i, a in enumerate(self.axes):
            if a.name == name:
                return i
        raise KeyError(f"domain has no axis {name!r}")

    def array_axis(self, name: str):
        """Array dimension of a stored axis, or None for a virtual one."""
        k = 0
        for a in self.axes:
            if a.name == name:
                return k if a.stored else None
            if a.stored:
                k += 1
        raise KeyError(f"domain has no axis {name!r}")

    def mesh(self, name: str) -> np.ndarray:
        """Coordinates of a stored axis, broadcastable over the grid shape."""
        a = self.axis(name)
        if not a.stored:
            raise ValueError(f"axis {name!r} is virtual and has no mesh")
        k = self.array_axis(name)
        shp = [1] * len(self.shape)
        shp[k] = a.n
        return a.coords().reshape(shp)

    def diff(self, values: np.ndarray, name: str, order: int) -> np.ndarray:
        """Partial derivative along a coordinate axis; zero for virtual axes.

        Trailing component dimensions pass through untouched.
        """
        a = self.axis(name)
        k = self.array_axis(name)
        if k is None:
            return np.zeros_like(values)
        return fd.apply_diff(values, k, order, a.n, a.spacing, a.closure)

    def at_t0(self, values: np.ndarray) -> np.ndarray:
        """The t = 0 slice of a scalar field: node n_t // 2 of t, the last
        stored axis of every domain that has one (a copy, so a slice does
        not keep its whole field alive)."""
        return values[..., self.axis("t").n // 2].copy()

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Quadrature over the stored grid times virtual circumferences.

        Trailing component dimensions survive, so this integrates scalar and
        tensor fields alike.
        """
        arr = np.asarray(values, dtype=float)
        nstored = len(self.shape)
        for k, a in enumerate(self.stored_axes):
            shp = [1] * arr.ndim
            shp[k] = a.n
            arr = arr * a.weights().reshape(shp)
        total = arr.sum(axis=tuple(range(nstored))) if nstored else arr
        for a in self.axes:
            if not a.stored:
                total = total * a.length
        return total

    def without(self, name: str) -> "DiscreteDomain":
        self.index(name)  # raise on unknown axis
        return DiscreteDomain(tuple(a for a in self.axes if a.name != name))

    def with_axis(self, axis: Axis) -> "DiscreteDomain":
        if axis.name in self.names:
            raise ValueError(f"axis {axis.name!r} already present")
        return DiscreteDomain(self.axes + (axis,))


@dataclass(frozen=True)
class DomainSpec:
    backend: str
    dim_x: int
    resolutions: tuple
    t_nodes: int


def build_domain(spec: DomainSpec) -> DiscreteDomain:
    """W = X x [-1, 1] as a discrete domain.

    Torus backend: dim_x periodic axes of length 2*pi plus the t interval.
    Sphere backend: axisymmetric reduction of S^2, storing colatitude on a
    cell-centered mirror grid plus a virtual azimuth circle, plus t.
    """
    if spec.dim_x < 2:
        raise ConfigError(f"dim_x must be >= 2, got {spec.dim_x}")
    if spec.t_nodes < 5 or spec.t_nodes % 2 == 0:
        raise ConfigError(
            f"t_nodes must be odd and >= 5 so t = 0 is a node, got {spec.t_nodes}")

    if spec.backend == TORUS:
        if spec.dim_x > len(_TORUS_AXIS_NAMES):
            raise ConfigError(
                f"torus backend supports dim_x <= {len(_TORUS_AXIS_NAMES)}, "
                f"got {spec.dim_x}")
        if len(spec.resolutions) != spec.dim_x:
            raise ConfigError(
                f"torus backend needs {spec.dim_x} resolutions, "
                f"got {len(spec.resolutions)}")
        axes = []
        for name, n in zip(_TORUS_AXIS_NAMES, spec.resolutions):
            if n < 4:
                raise ConfigError(f"axis {name!r} needs >= 4 nodes, got {n}")
            axes.append(periodic_axis(name, int(n)))
    elif spec.backend == SPHERE:
        if spec.dim_x != 2:
            raise ConfigError(
                f"sphere backend is 2-dimensional, got dim_x = {spec.dim_x}")
        if len(spec.resolutions) != 1:
            raise ConfigError(
                "sphere backend takes a single colatitude resolution")
        n = int(spec.resolutions[0])
        if n < 4:
            raise ConfigError(f"colatitude axis needs >= 4 nodes, got {n}")
        axes = [mirror_axis("rho", n), virtual_axis("alpha")]
    else:
        raise ConfigError(f"unknown backend {spec.backend!r}")

    axes.append(bounded_axis("t", spec.t_nodes))
    return DiscreteDomain(tuple(axes))


def with_circle(domain: DiscreteDomain, name: str = "theta") -> DiscreteDomain:
    """Append the S^1 factor as a virtual axis: every field of a run is
    theta-independent."""
    return domain.with_axis(virtual_axis(name))


def w_domains(spec: DomainSpec) -> dict:
    """The three domains of one run, keyed 'x', 'y', 'w'."""
    w = build_domain(spec)
    x = w.without("t")
    return {"x": x, "y": with_circle(x), "w": w}


def c1_norm(values: np.ndarray, grad: np.ndarray) -> float:
    """sup|f| plus the largest sup of its first-difference slopes, read
    from grad (as `gradient` or `derivatives` return it; virtual slots
    are zero).

    Discrete surrogate for a C^1 norm; no Hoelder seminorm on a fixed grid.
    """
    return float(np.max(np.abs(values))) + float(np.max(np.abs(grad)))


def gradient(domain: DiscreteDomain, values: np.ndarray) -> np.ndarray:
    """Coordinate partials d_k f, stacked over the full coordinate order."""
    parts = [domain.diff(values, a.name, 1) for a in domain.axes]
    return np.stack(parts, axis=-1)


def derivatives(domain: DiscreteDomain, values: np.ndarray):
    """First and second coordinate partials from one differencing pass.

    Returns (grad, hess) over the full coordinate order: grad[..., k] is
    d_k f and hess[..., k, l] is d_k d_l f. Pure diagonal entries use the
    one-axis second-derivative stencil; mixed entries difference the
    gradient's first partials once more (they commute). Trailing component
    dimensions pass through, so hess is shaped values.shape + (d, d).
    """
    d = domain.dim
    grad = gradient(domain, values)
    hess = np.zeros(values.shape + (d, d))
    stored = [k for k, a in enumerate(domain.axes) if a.stored]
    for i, k in enumerate(stored):
        hess[..., k, k] = domain.diff(values, domain.axes[k].name, 2)
        for l in stored[i + 1:]:
            mixed = domain.diff(grad[..., k], domain.axes[l].name, 1)
            hess[..., k, l] = mixed
            hess[..., l, k] = mixed
    return grad, hess


def coordinate_columns(domain: DiscreteDomain) -> dict:
    """Flattened per-node coordinate columns for the stored axes, C order."""
    axes = domain.stored_axes
    grids = np.meshgrid(*[a.coords() for a in axes], indexing="ij")
    return {a.name: g.ravel() for a, g in zip(axes, grids)}


def rewrite(path, *chunks) -> None:
    """Write the byte chunks to `path` as its whole contents, in place.

    The file is opened without O_TRUNC, written from its start and cut at
    the end of the chunks only when it was longer, so it ends up holding
    exactly the chunks, like open(path, "wb"), and an existing file keeps
    its inode and permissions. Overwriting a written file in place skips
    the freeing and reallocation of its blocks that truncating it on open
    costs. A path that is (or links to) a character device such as
    /dev/null is written without a cut, which it would refuse. A write
    that fails part way raises and may leave old bytes after the new ones.
    """
    out = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        end = 0
        for chunk in chunks:
            view = memoryview(chunk)
            end += len(view)
            while view:
                view = view[os.write(out, view):]
        if os.fstat(out).st_size > end:
            os.ftruncate(out, end)
    finally:
        os.close(out)


def fields_to_csv(path, domain: DiscreteDomain, columns: dict) -> None:
    """One row per node: stored coordinates, then the named field columns.

    The dump is UTF-8 text with "\\n" line ends, byte for byte what
    np.savetxt(fmt="%.12g", delimiter=",") writes, and goes to `path`
    through `rewrite` as two chunks, the header and the rows.
    """
    fields = []
    for name, values in columns.items():
        arr = np.asarray(values, dtype=float)
        if arr.shape != domain.shape:
            raise ValueError(
                f"column {name!r} has shape {arr.shape}, grid is {domain.shape}")
        fields.append(arr.ravel())
    # each axis' coordinates are formatted once, as literal text in the row
    # formats, which are bytes from the start: bytes % formats the values
    # faster than str % does, and the rows need no encoding pass.
    # The rows of one node of the outer axes all start with that node's
    # prefix text, so they are one join of the last axis' texts, with the
    # field formats and the prefix between each two
    *outer, last = domain.stored_axes
    prefixes = [b""]
    for a in outer:
        texts = [b"%.12g," % c for c in a.coords()]
        prefixes = [p + c for p in prefixes for c in texts]
    texts = [b"%.12g," % c for c in last.coords()]
    tail = b",".join([b"%.12g"] * len(fields)) + b"\n"
    names = [a.name for a in domain.stored_axes] + list(columns)
    # two chunks, not one concatenation: joining the header to the rows
    # would copy the whole dump once more at its peak
    rewrite(path, (",".join(names) + "\n").encode("utf-8"),
            b"".join(p + (tail + p).join(texts) + tail for p in prefixes)
            % tuple(np.column_stack(fields).ravel().tolist()))
