"""Spans around the public functions of every pscbench module, for the
traced run, and the per-layer metrics computed from them.

A layer is a pscbench module. Every public function a module defines is
replaced by a wrapper that records one span (name, layer, parent, start,
end) per call, in every pscbench module namespace that holds it: pipeline
and cli bind their imports with `from .x import y`, so rebinding only the
defining module would miss their calls. `scipy.sparse.linalg.splu` is
wrapped as the solver module calls it, with factorization counts.

Spans stay in memory; metrics are computed once the loop has ended.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
from dataclasses import dataclass, field

# Private functions that carry a metric: the per-scenario boundary and the
# auto-C solve pass. The benchmark fails if they are gone.
PRIVATE_HOOKS = (("cli", "_run_one"), ("pipeline", "_solve_pass"))
SCENARIO_SPAN = "cli._run_one"


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    scenario: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _matrix_digest(mat) -> str:
    csc = mat.tocsc()
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(csc.shape).encode())
    for arr in (csc.indptr, csc.indices, csc.data):
        h.update(arr.tobytes())
    return h.hexdigest()


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


# function -> counts taken from its return value once its span closes
_RESULT_ATTRS = {
    "curvature.scalar_curvature": lambda res: {"nodes": int(res.size)},
    "solver.solve_dirichlet":
        lambda res: {"refinements": int(res.stats.get("refinements", 0))},
    "report.emit_report": lambda res: {"bytes": _file_bytes([res])},
    "report.write_field_csvs": lambda res: {"bytes": _file_bytes(res)},
}


class Tracer:
    """Collects spans while installed (a context manager); uninstalling
    restores every rebound name."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------
    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        scenario = self.spans[parent].scenario if parent is not None else None
        idx = len(self.spans)
        if name == SCENARIO_SPAN:
            scenario = idx
        self.spans.append(Span(name, layer, parent, scenario,
                               time.perf_counter()))
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer, name, fn):
        qual = f"{layer}.{name}"
        attrs_of = _RESULT_ATTRS.get(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(qual, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attrs_of is not None:
                self.spans[idx].attrs.update(attrs_of(result))
            return result

        return traced

    def _splu(self, splu):
        def traced(mat, *args, **kwargs):
            digest = _matrix_digest(mat)
            idx = self._open("solver.splu", "solver")
            try:
                lu = splu(mat, *args, **kwargs)
            finally:
                self._close(idx)
            self.spans[idx].attrs.update(
                digest=digest, nnz=int(mat.nnz), nodes=int(mat.shape[0]),
                fill=int(lu.L.nnz + lu.U.nnz))
            return lu

        return traced

    # -- installation ------------------------------------------------------
    def _set(self, obj, name, value):
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def __enter__(self):
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("pscbench.") and mod is not None}
        wrapped = {}   # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(obj)] = (obj, self.wrap(layer, name, obj))
        for layer, name in PRIVATE_HOOKS:
            obj = getattr(mods[layer], name)
            wrapped[id(obj)] = (obj, self.wrap(layer, name, obj))
        for mod in list(mods.values()) + [sys.modules["pscbench"]]:
            for name, obj in list(vars(mod).items()):
                orig, wrapper = wrapped.get(id(obj), (None, None))
                if orig is obj:
                    self._set(mod, name, wrapper)
        self._set(mods["solver"], "spla", _SplaProxy(
            mods["solver"].spla, self._splu(mods["solver"].spla.splu)))
        return self

    def __exit__(self, *exc):
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)
        return False


class _SplaProxy:
    """scipy.sparse.linalg as the solver sees it, with splu traced."""

    def __init__(self, module, splu):
        self._module = module
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._module, name)


# -- metrics ---------------------------------------------------------------
def _duration(span):
    return span.end - span.start


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics: times and counts per scenario (mean over the
    scenarios traced), sizes per factorization, refinements per solve.

    Self time of a span is its duration minus that of its direct children;
    a layer's self time is the sum over its spans. An inclusive time over a
    set of functions counts only spans with no ancestor in the set. Spans
    outside a scenario (the batch loop around them) are left out.
    """
    roots = [i for i, s in enumerate(spans) if s.name == SCENARIO_SPAN]
    n = max(len(roots), 1)
    child_time = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s.scenario is None:
            continue
        by_name.setdefault(s.name, []).append(i)
        if s.parent is not None:
            child_time[s.parent] += _duration(s)
    for i, s in enumerate(spans):
        if s.scenario is not None:
            self_s[s.layer] = (self_s.get(s.layer, 0.0)
                               + _duration(s) - child_time[i])

    def has_ancestor(i, names):
        p = spans[i].parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        return p is not None

    def inclusive(*names):
        return sum(_duration(spans[i]) for name in names
                   for i in by_name.get(name, ())
                   if not has_ancestor(i, names)) / n

    def calls(name):
        return len(by_name.get(name, ())) / n

    def attr_sum(name, key):
        return sum(spans[i].attrs[key] for i in by_name.get(name, ()))

    factor = [spans[i] for i in by_name.get("solver.splu", ())]
    nf = max(len(factor), 1)
    distinct = len({(s.scenario, s.attrs["digest"]) for s in factor})
    passes: dict[int, int] = {}
    for i in by_name.get("pipeline._solve_pass", ()):
        passes[spans[i].scenario] = passes.get(spans[i].scenario, 0) + 1
    out = {
        "trace.scenario_mean_s": sum(_duration(spans[i]) for i in roots) / n,
        "trace.scenarios": len(roots),
        "solver.factor_s": inclusive("solver.splu"),
        "solver.factorizations": len(factor) / n,
        "solver.factor_reuse_ratio": distinct / nf if factor else 0.0,
        "solver.lu_fill_nnz": sum(s.attrs["fill"] for s in factor) / nf,
        "solver.matrix_nnz": sum(s.attrs["nnz"] for s in factor) / nf,
        "solver.nodes": sum(s.attrs["nodes"] for s in factor) / nf,
        "solver.refinements": (attr_sum("solver.solve_dirichlet",
                                        "refinements")
                               / max(len(by_name.get(
                                   "solver.solve_dirichlet", ())), 1)),
        "solver.solve_s": (inclusive("solver.solve_dirichlet")
                           - inclusive("solver.splu")),
        "solver.solve_calls": calls("solver.solve_dirichlet"),
        "solver.assemble_s": inclusive("solver.assemble"),
        "curvature.scalar_s": inclusive("curvature.scalar_curvature"),
        "curvature.scalar_calls": calls("curvature.scalar_curvature"),
        "curvature.scalar_nodes": attr_sum("curvature.scalar_curvature",
                                           "nodes") / n,
        "curvature.slice_s": inclusive("curvature.curvature_bundle",
                                       "curvature.hypersurface_data"),
        "metrics.slice_s": inclusive("metrics.make_metric",
                                     "metrics.load_metric_csv"),
        "metrics.extend_s": inclusive("metrics.product_extend",
                                      "metrics.restrict_metric"),
        "conformal.laplacian_comparison_s":
            inclusive("conformal.laplacian_comparison"),
        "conformal.lift_s": inclusive("conformal.lift_solution",
                                      "conformal.k2_field"),
        # the bound is the certificate's own arithmetic: its self time
        "conformal.bound_s": sum(_duration(spans[i]) - child_time[i]
                                 for i in by_name.get("conformal.certificate",
                                                      ())) / n,
        "conformal.chain_s": inclusive("conformal.chain_scalar",
                                       "conformal.chain_scalar_exact"),
        "conformal.exact_s": inclusive("conformal.exact_slice_scalar"),
        "forcing.calibrate_s": inclusive("forcing.calibrate_epsilon"),
        "forcing.calibrate_steps": sum(
            has_ancestor(i, {"forcing.calibrate_epsilon"})
            for i in by_name.get("forcing.build_bump", ())) / n,
        "normal.frame_s": inclusive("normal.normal_frame"),
        "config.parse_s": inclusive("config.parse_config"),
        "report.write_s": inclusive("report.emit_report",
                                    "report.write_field_csvs"),
        "report.bytes_written": (attr_sum("report.emit_report", "bytes")
                                 + attr_sum("report.write_field_csvs",
                                            "bytes")) / n,
        "pipeline.resolve_fired": sum(max(k - 1, 0)
                                      for k in passes.values()) / n,
    }
    for layer, value in self_s.items():
        out[f"{layer}.self_s"] = value / n
    return out
