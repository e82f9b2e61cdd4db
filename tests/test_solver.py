"""Operator assembly and the Dirichlet solve.

The convergence oracles were produced by the manufactured solutions in
helpers.py: u* = cos(pi t/2) x (slice profile) with F* = L u* evaluated in
closed form. Frozen sup-norm errors guard against silent stencil or
assembly regressions, with a 5% allowance for BLAS reduction-order drift.
"""

import dataclasses

import numpy as np
import pytest

from pscbench.errors import ConfigError, HypothesisViolation, NumericalFailure
from pscbench.grids import (DomainSpec, build_domain, c1_norm, gradient,
                            w_domains, TORUS, SPHERE)
from pscbench.metrics import (MetricField, make_metric, product_extend,
                              restrict_metric)
from pscbench.normal import normal_frame
from pscbench.pipeline import _extend_drift
from pscbench.solver import assemble, solve_dirichlet, dtt_monitor, SolveReport
from pscbench.forcing import build_bump, calibrate_epsilon
from pscbench import fd, solver

from helpers import mms_flat_cross, mms_twisted, mms_sphere

# (measured error at coarse, at fine); order = log2 ratio
FROZEN = {
    "flat_cross": (4.325036e-3, 1.072215e-3),
    "twisted": (4.721071e-3, 1.178918e-3),
    "sphere": (1.685092e-3, 4.213609e-4),
}


def check_frozen(name, coarse, fine):
    ref_c, ref_f = FROZEN[name]
    assert coarse == pytest.approx(ref_c, rel=0.05)
    assert fine == pytest.approx(ref_f, rel=0.05)
    assert np.log2(coarse / fine) > 1.9


def test_mms_flat_cross_drift():
    e16, _ = mms_flat_cross(16, 17)
    e32, rep = mms_flat_cross(32, 33)
    check_frozen("flat_cross", e16, e32)
    assert rep.stats["method"] == "splu"
    assert rep.residual_inf < 1e-10


def test_mms_twisted_drift():
    e16, _ = mms_twisted(16, 17)
    e32, _ = mms_twisted(32, 33)
    check_frozen("twisted", e16, e32)


def test_mms_sphere_twist_drift():
    e32, _ = mms_sphere(32, 17)
    e64, rep = mms_sphere(64, 33)
    check_frozen("sphere", e32, e64)
    assert rep.residual_inf < 1e-10


def test_zero_forcing_zero_solution():
    dom = build_domain(DomainSpec(TORUS, 2, (8, 8), 9))
    g = make_metric("product_flat", dom)
    asm = assemble(np.zeros(dom.shape + (3,)), 1.0, g)
    rep = solve_dirichlet(asm, np.zeros(dom.shape))
    assert np.max(np.abs(rep.u)) == 0.0
    assert c1_norm(rep.u, gradient(dom, rep.u)) == 0.0


def test_boundary_rows_are_exact():
    dom = build_domain(DomainSpec(TORUS, 2, (8, 8), 33))
    g = make_metric("product_flat", dom)
    asm = assemble(np.zeros(dom.shape + (3,)), 1.0, g)
    F = build_bump(9.0, 0.25, dom)
    u = solve_dirichlet(asm, F).u
    kt = dom.array_axis("t")
    assert np.max(np.abs(np.take(u, 0, axis=kt))) == 0.0
    assert np.max(np.abs(np.take(u, -1, axis=kt))) == 0.0


def test_maximum_principle_for_bump():
    # nonnegative forcing, positive potential: solution stays nonnegative
    dom = build_domain(DomainSpec(TORUS, 2, (8, 8), 49))
    g = make_metric("product_flat", dom)
    eps = calibrate_epsilon(9.0, 1, 160.0, g)
    assert eps == 0.25
    F = build_bump(9.0, eps, dom)
    asm = assemble(np.zeros(dom.shape + (3,)), 1.0, g)
    rep = solve_dirichlet(asm, F)
    assert float(rep.u.min()) >= -1e-12
    assert float(rep.u.max()) == pytest.approx(0.389639747002678, rel=1e-8)
    # strictly positive where the forcing acts
    kt = dom.array_axis("t")
    mid = np.take(rep.u, dom.axis("t").n // 2, axis=kt)
    assert float(mid.min()) > 0.0
    # plateau balance: 4 u'' = c0 u - F, so sup |u''| over the monitored
    # window sits at the window's smallest u value
    dtt = dtt_monitor(dom.diff(rep.u, "t", 2), dom, eps)
    t = dom.axis("t").coords()
    window = rep.u[..., np.abs(t) < 0.25 * eps]
    assert dtt == pytest.approx((10.0 - window.min()) / 4.0, rel=1e-6)
    assert dtt == pytest.approx(2.4031114586624653, rel=1e-8)


def test_assemble_flat_drift_free_matrix_is_kron_laplacian():
    import scipy.sparse as sp
    dom = build_domain(DomainSpec(TORUS, 2, (6, 6), 7))
    g = make_metric("product_flat", dom)
    c0 = 2.0
    asm = assemble(np.zeros(dom.shape + (3,)), c0, g)
    mats = []
    eyes = [sp.identity(n) for n in dom.shape]
    for k, ax in enumerate(dom.stored_axes):
        ops = list(eyes)
        ops[k] = fd.diff_matrix(2, ax.n, ax.spacing, ax.closure)
        term = ops[0]
        for o in ops[1:]:
            term = sp.kron(term, o)
        mats.append(term)
    manual = (-4.0) * sum(mats) + c0 * sp.identity(dom.node_count)
    # overwrite boundary rows with identity, as the assembly does
    interior = asm.interior.astype(float)
    manual = sp.diags(interior) @ manual + sp.diags(1.0 - interior)
    diff = (asm.matrix - manual.tocsr()).tocoo()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def materialise(metric):
    """The same metric with every array copied out to the full grid."""
    dom = metric.domain
    full = [np.broadcast_to(a, dom.shape + a.shape[len(dom.shape):]).copy()
            for a in (metric.comp, metric.d1, metric.d2)]
    return MetricField(dom, *full)


@pytest.mark.parametrize("name, spec, params", [
    ("twisted_flat", DomainSpec(TORUS, 2, (6, 6), 9), {"c": 0.5}),
    ("sphere_twist", DomainSpec(SPHERE, 2, (12,), 9),
     {"r": 1.0, "beta0": 0.5}),
], ids=["twisted_flat", "sphere_twist"])
def test_length1_t_fields_match_materialised_oracle(name, spec, params):
    # t-independent fields are stored once with a length-1 t axis; copying
    # them out to t_nodes slices must not change a single bit downstream
    doms = w_domains(spec)
    m, w = doms["m"], doms["w"]
    h = make_metric(name, doms["y"], **params)
    g_m = product_extend(h, m)
    kt = m.array_axis("t")
    for arr in (g_m.comp, g_m.d1, g_m.d2):
        assert arr.shape[kt] == 1
    r_m = g_m.scalar
    assert r_m.shape[kt] == 1
    r_full = materialise(g_m).scalar
    for it in range(m.axis("t").n):
        assert np.array_equal(np.take(r_full, it, axis=kt), r_m[..., 0])

    g_w = restrict_metric(g_m, w)
    v_w = _extend_drift(normal_frame(h).v, doms["y"], w)
    asm = assemble(v_w, r_m, g_w)
    assert asm.c1.shape[kt] == 1 and asm.c2.shape[kt] == 1
    oracle = assemble(np.broadcast_to(v_w, w.shape + (w.dim,)).copy(),
                      np.broadcast_to(r_m, w.shape).copy(), materialise(g_w))
    assert (asm.matrix != oracle.matrix).nnz == 0
    assert np.array_equal(np.broadcast_to(asm.c1, oracle.c1.shape), oracle.c1)
    assert np.array_equal(np.broadcast_to(asm.c2, oracle.c2.shape), oracle.c2)

    # the length-1 assembly separates in t and is solved by fast
    # diagonalization; the materialised one takes the 3-D LU, the oracle
    forcing = build_bump(2.2, 0.5, w)
    fast = solve_dirichlet(asm, forcing)
    full = solve_dirichlet(oracle, forcing)
    assert fast.stats["method"] == "fastdiag"
    assert full.stats["method"] == "splu"
    assert np.max(np.abs(fast.u - full.u)) <= 1e-12
    assert fast.residual_inf <= 1e-10 and full.residual_inf <= 1e-10
    # a potential that varies in t does not separate
    varying = assemble(v_w, r_m * (1.0 + w.mesh("t") ** 2), g_w)
    assert solve_dirichlet(varying, forcing).stats["method"] == "splu"


def test_assemble_rejects_domain_without_t():
    doms = w_domains(DomainSpec(TORUS, 2, (6, 6), 7))
    g = make_metric("product_flat", doms["y"])
    with pytest.raises(ConfigError):
        assemble(np.zeros(doms["y"].shape + (3,)), 1.0, g)


def test_symbol_loses_ellipticity_with_unit_drift():
    dom = build_domain(DomainSpec(TORUS, 2, (6, 6), 7))
    g = make_metric("product_flat", dom)
    v = np.zeros(dom.shape + (3,))
    v[..., 0] = 1.2
    with pytest.raises(HypothesisViolation):
        assemble(v, 1.0, g)
    v[..., 0] = 1.0  # borderline: symbol is singular, not positive
    with pytest.raises(HypothesisViolation):
        assemble(v, 1.0, g)


def test_anisotropy_warning():
    dom = build_domain(DomainSpec(TORUS, 2, (4, 4), 1281))
    g = make_metric("product_flat", dom)
    with pytest.warns(RuntimeWarning, match="anisotropy"):
        assemble(np.zeros(dom.shape + (3,)), 1.0, g)


def test_dtt_monitor_region_guard():
    dom = build_domain(DomainSpec(TORUS, 2, (4, 4), 9))
    u = np.zeros(dom.shape)
    with pytest.raises(ConfigError):
        dtt_monitor(u, dom, 0.25)  # |t| < 1/16 holds only the center node
    ts = np.asarray(dom.mesh("t"))
    d2 = dom.diff(np.broadcast_to(ts * ts, dom.shape), "t", 2)
    assert dtt_monitor(d2, dom, 2.0 - 1e-9) == pytest.approx(2.0)


def test_solve_report_is_frozen_record():
    dom = build_domain(DomainSpec(TORUS, 2, (6, 6), 7))
    g = make_metric("product_flat", dom)
    asm = assemble(np.zeros(dom.shape + (3,)), 1.0, g)
    rep = solve_dirichlet(asm, np.ones(dom.shape))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.residual_inf = 0.0


def test_assembly_factors_once_and_matches_a_fresh_factorization(
        monkeypatch):
    doms = w_domains(DomainSpec(TORUS, 2, (8, 8), 33))
    w = doms["w"]
    h = make_metric("twisted_flat", doms["y"], c=0.5)
    g_m = product_extend(h, doms["m"])
    args = (_extend_drift(normal_frame(h).v, doms["y"], w),
            g_m.scalar, restrict_metric(g_m, w))
    calls = []
    splu = solver.spla.splu
    monkeypatch.setattr(solver.spla, "splu",
                        lambda mat: calls.append(mat) or splu(mat))
    asm = assemble(*args)
    solve_dirichlet(asm, build_bump(2.2, 0.5, w))
    forcing = build_bump(9.0, 0.25, w)
    second = solve_dirichlet(asm, forcing)
    assert len(calls) == 1
    fresh = solve_dirichlet(assemble(*args), forcing)
    assert len(calls) == 2
    assert np.array_equal(second.u, fresh.u)
    assert second.residual_inf == fresh.residual_inf


@pytest.mark.parametrize("method", ["splu", "fastdiag"])
def test_singular_operator_raises_numerical_failure(method):
    doms = w_domains(DomainSpec(TORUS, 2, (6, 6), 7))
    w = doms["w"]
    if method == "splu":
        # fields materialised over t: the operator is factored in 3-D
        g = make_metric("product_flat", w)
        asm = assemble(np.zeros(w.shape + (3,)), 1.0, g)
        row = int(np.flatnonzero(asm.interior)[0])
        mat = asm.matrix.tolil()
        mat[row, :] = 0.0
        singular = dataclasses.replace(asm, matrix=mat.tocsr())
    else:
        # length-1 t fields: the operator separates in t. Zeroing a row of
        # L_X alone leaves every block L_X + lam_k I regular, so the row
        # becomes -lam_0 on its diagonal: block k = 0 gets a zero row
        g = restrict_metric(
            product_extend(make_metric("product_flat", doms["y"]), doms["m"]),
            w)
        asm = assemble(np.zeros((1, 1, 1, 3)), 1.0, g)
        lx = asm.slice_operator.tolil()
        lx[0, :] = 0.0
        lx[0, 0] = -asm.t_eigvals[0]
        singular = dataclasses.replace(asm, slice_operator=lx.tocsr())
    assert asm.method == method
    with pytest.raises(NumericalFailure, match="factorization") as err:
        solve_dirichlet(singular, np.ones(w.shape))
    assert err.value.exit_code == 3
