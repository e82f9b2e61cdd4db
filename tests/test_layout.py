"""Every contraction that runs in metrics.py's working layout
(component-first) gives bit for bit its node-first result, signs of zero
included, on every kind of metric a run or a test builds. The package's
files are written by one writer, grids.rewrite, and each condition it
refuses is raised at one site."""

import ast
from pathlib import Path

import numpy as np
import pytest

from pscbench.conformal import (conformal_ricci_normal, conformal_scalar,
                                k2_field)
from pscbench.curvature import hypersurface_data, laplacian_trace
from pscbench.grids import (DomainSpec, derivatives, gradient, w_domains,
                            SPHERE, TORUS)
from pscbench.metrics import as_fd, conformal_metric, make_metric
from pscbench.solver import _coefficients

from helpers import (c1_reference, conformal_ricci_normal_reference,
                     conformal_scalar_reference, gamma_reference,
                     hypersurface_reference, inner, k2_field_reference,
                     laplacian_trace_reference, ricci_reference, rng_phi,
                     stored_theta_y)


def _metric(case):
    torus = w_domains(DomainSpec(TORUS, 2, (12, 10), 5))
    sphere = w_domains(DomainSpec(SPHERE, 2, (20,), 5))
    doms = {"x": torus["x"], "y": torus["y"], "t3": stored_theta_y(8),
            "y4": w_domains(DomainSpec(TORUS, 3, (6, 5, 4), 5))["y"],
            "sx": sphere["x"], "sy": sphere["y"]}
    name, key = case.split(":")
    if name == "as_fd":
        return as_fd(make_metric("sphere_twist", doms[key], beta0=0.5))
    if name == "conformal":
        g = make_metric("twisted_flat", doms[key], c=0.5)
        return conformal_metric(g, rng_phi(doms[key], seed=3))
    params = {"twisted_flat": {"c": 0.5}, "sphere_product": {"r": 1.3},
              "sphere_twist": {"r": 1.2, "beta0": 0.5}}.get(name, {})
    return make_metric(name, doms[key], **params)


CASES = ([f"{name}:{key}" for name in ("product_flat", "twisted_flat")
          for key in ("x", "y", "t3", "y4")]
         + [f"{name}:{key}" for name in ("sphere_product", "sphere_twist")
            for key in ("sx", "sy")]
         + ["as_fd:sy", "as_fd:sx", "conformal:t3", "conformal:y"])


def assert_same(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("case", CASES)
def test_component_first_kernels_are_bitwise_node_first(case):
    g = _metric(case)
    dom, d = g.domain, g.dim
    n = d + 1  # a coefficient only; k2_field divides by n - 2
    rng = np.random.default_rng(0)

    assert_same(g.gamma, gamma_reference(g))
    assert_same(g.ricci, ricci_reference(g))
    assert g.gamma.flags.c_contiguous and g.ricci.flags.c_contiguous
    assert_same(g.scalar, np.einsum("...ij,...ij->...", g.inverse,
                                    ricci_reference(g)))
    v = rng.standard_normal(dom.shape + (d,))
    assert_same(g.norm2(v), inner(g, v, v))

    phi = rng_phi(dom, seed=5)
    dphi, d2phi = derivatives(dom, phi)
    assert_same(laplacian_trace(g, dphi, d2phi),
                laplacian_trace_reference(g, dphi, d2phi))

    # unit normal to the coordinate slice of the last axis
    inv = g.inverse[..., :, -1]
    mu = inv / np.sqrt(inv[..., -1:])
    tang = dom.names[:-1]
    hyp = hypersurface_data(g, tang, mu)
    for got, want in zip((hyp.a_form, hyp.h_mean, hyp.a_norm2, hyp.ric_nn),
                         hypersurface_reference(g, tang, mu)):
        assert_same(got, want)

    assert_same(conformal_scalar(g, phi, dphi, d2phi, n),
                conformal_scalar_reference(g, phi, dphi, d2phi, n))
    assert_same(conformal_ricci_normal(g, phi, dphi, d2phi, mu, n),
                conformal_ricci_normal_reference(g, phi, dphi, d2phi, mu, n))
    u_w = 1.0 + phi * phi
    du = gradient(dom, u_w)
    assert_same(k2_field(u_w, du, g, v, n),
                k2_field_reference(u_w, du, g, v, n))
    drift = 0.05 * v
    assert_same(_coefficients(drift, 1.0, g)[1], c1_reference(drift, g))


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pscbench"


def test_no_open_call_in_the_package_writes():
    # grids.rewrite is the only writer: an open() whose mode writes would
    # truncate the file it rewrites. A mode that is not a literal counts
    # as writing
    reads, writes = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"),
                ast.Constant("r"))
            if (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                reads += 1
            else:
                writes.append(f"{path.name}:{node.lineno}")
    assert reads >= 2  # config's scan and parse_report
    assert writes == []


def _message_head(call):
    """The literal text a raise's message starts with, up to its first
    colon: the condition it names, before any formatted value."""
    text = ""
    if call.args:
        arg = call.args[0]
        parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
        for part in parts:
            if not (isinstance(part, ast.Constant)
                    and isinstance(part.value, str)):
                break
            text += part.value
    return text.split(":")[0].strip()


def test_each_refused_condition_is_raised_at_one_site():
    # every HypothesisViolation and NumericalFailure names its condition in
    # literal text, and no two raise sites name the same one: a condition
    # is decided once, where the run first has what it needs
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            call = node.exc if isinstance(node, ast.Raise) else None
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id in ("HypothesisViolation",
                                         "NumericalFailure")):
                continue
            head = _message_head(call)
            assert head, f"{path.name}:{node.lineno} has no literal message"
            sites.setdefault(head, []).append(f"{path.name}:{node.lineno}")
    assert len(sites) >= 10
    shared = {head: where for head, where in sites.items() if len(where) > 1}
    assert shared == {}
