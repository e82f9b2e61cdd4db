"""Operator assembly and the Dirichlet solve.

The convergence oracles were produced by the manufactured solutions in
helpers.py: u* = cos(pi t/2) x (slice profile) with F* = L u* evaluated in
closed form. Frozen sup-norm errors guard against silent stencil or
assembly regressions, with a 5% allowance for BLAS reduction-order drift.
"""

import dataclasses

import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings, strategies as st

from pscbench.errors import ConfigError, HypothesisViolation, NumericalFailure
from pscbench.grids import (DomainSpec, build_domain, c1_norm, gradient,
                            w_domains, TORUS, SPHERE)
from pscbench.metrics import make_metric, restrict_metric
from pscbench.normal import normal_frame
from pscbench.solver import assemble, solve_dirichlet, dtt_monitor, SolveReport
from pscbench.conformal import b1_operator
from pscbench.forcing import build_bump, calibrate_epsilon
from pscbench import fd, solver

from helpers import (as_csr, cli_env, flat_cross_fields, kron_operator_matrix,
                     mms_flat_cross, mms_twisted, mms_sphere, oracle_operator,
                     product_fields, record_factorizations)

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
    e16, rep16 = mms_flat_cross(16, 17)
    e32, rep = mms_flat_cross(32, 33)
    check_frozen("flat_cross", e16, e32)
    # the drift's (x, y) cross term gives a 9-point stencil on the slice
    assert rep.stats["slice_nnz"] == 9 * 32 * 32
    assert rep.residual_inf < 1e-10
    # one route at every resolution: block LU of the low modes, blocks of
    # order 2N + 2 (ring order, cross terms)
    assert rep16.stats["factor"] == rep.stats["factor"] == "block_lu"


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
    dom, g, v = product_fields(DomainSpec(TORUS, 2, (8, 8), 9),
                               "product_flat")
    asm = assemble(v, 1.0, g, dom.axis("t"))
    rep = solve_dirichlet(asm, np.zeros(dom.shape))
    assert np.max(np.abs(rep.u)) == 0.0
    assert c1_norm(rep.u, gradient(dom, rep.u)) == 0.0


def test_boundary_rows_are_exact():
    dom, g, v = product_fields(DomainSpec(TORUS, 2, (8, 8), 33),
                               "product_flat")
    asm = assemble(v, 1.0, g, dom.axis("t"))
    F = build_bump(9.0, 0.25, dom)
    u = solve_dirichlet(asm, F).u
    kt = dom.array_axis("t")
    assert np.max(np.abs(np.take(u, 0, axis=kt))) == 0.0
    assert np.max(np.abs(np.take(u, -1, axis=kt))) == 0.0


def test_maximum_principle_for_bump():
    # nonnegative forcing, positive potential: solution stays nonnegative
    dom, g, v = product_fields(DomainSpec(TORUS, 2, (8, 8), 49),
                               "product_flat")
    eps = calibrate_epsilon(9.0, 1, 160.0, g, dom.axis("t"))
    assert eps == 0.25
    F = build_bump(9.0, eps, dom)
    asm = assemble(v, 1.0, g, dom.axis("t"))
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
    dom, g, v = product_fields(DomainSpec(TORUS, 2, (6, 6), 7),
                               "product_flat")
    c0 = 2.0
    asm = assemble(v, c0, g, dom.axis("t"))
    mats = []
    eyes = [sp.identity(n) for n in dom.shape]
    for k, ax in enumerate(dom.stored_axes):
        ops = list(eyes)
        ops[k] = as_csr(fd.diff_matrix(2, ax.n, ax.spacing, ax.closure))
        term = ops[0]
        for o in ops[1:]:
            term = sp.kron(term, o)
        mats.append(term)
    manual = (-4.0) * sum(mats) + c0 * sp.identity(dom.node_count)
    # overwrite boundary rows with identity, as the operator has them
    interior = np.ones(dom.shape)
    interior[..., [0, -1]] = 0.0
    interior = interior.ravel()
    manual = sp.diags(interior) @ manual + sp.diags(1.0 - interior)
    x = np.random.default_rng(3).standard_normal(dom.node_count)
    expected = manual @ x
    assert (np.max(np.abs(asm.apply(x).ravel() - expected))
            <= 1e-13 * np.max(np.abs(expected)))


def _slice_and_materialised(name, spec, params):
    """The slice-built assembly on W, and the fields of the same operator
    materialised over every t node: g = h_X + dt^2 as a metric on W, V
    with a zero t component, R_h copied along t."""
    doms = w_domains(spec)
    x, w = doms["x"], doms["w"]
    h = make_metric(name, doms["y"], **params)
    v_x = normal_frame(h).v[..., [doms["y"].index(nm) for nm in x.names]]
    r_h = h.scalar
    asm = assemble(v_x, r_h, restrict_metric(h, x), w.axis("t"))
    kt = w.array_axis("t")
    g_w = make_metric(name, w, **params)
    assert g_w.comp.shape[kt] == w.axis("t").n
    full_v = np.zeros(w.shape + (w.dim,))
    full_v[..., [w.index(nm) for nm in x.names]] = np.expand_dims(v_x, kt)
    full_r = np.array(np.broadcast_to(np.expand_dims(r_h, kt), w.shape))
    return asm, full_v, full_r, g_w


def _dirichlet_rhs(forcing, w):
    rhs = np.array(np.broadcast_to(forcing, w.shape))
    np.moveaxis(rhs, w.array_axis("t"), 0)[[0, -1]] = 0.0
    return rhs.ravel()


@pytest.mark.parametrize("name, spec, params, factor", [
    ("twisted_flat", DomainSpec(TORUS, 2, (6, 6), 9), {"c": 0.5}, "block_lu"),
    ("sphere_twist", DomainSpec(SPHERE, 2, (12,), 9),
     {"r": 1.0, "beta0": 0.5}, "block_lu"),
    ("twisted_flat", DomainSpec(TORUS, 3, (6, 6, 6), 9), {"c": 0.5},
     "block_lu"),
], ids=["twisted_flat", "sphere_twist", "twisted_flat_3d"])
def test_slice_assembly_matches_materialised_oracle(name, spec, params,
                                                    factor):
    # the operator built from slice data (h_X, V's X components, R_h) is
    # the general 3-D assembly of the same fields materialised over every
    # t node
    asm, full_v, full_r, g_w = _slice_and_materialised(name, spec, params)
    assert asm.factor_stats["factor"] == factor
    w = asm.domain
    kt, it = w.array_axis("t"), w.index("t")
    oracle, c2, c1 = oracle_operator(full_v, full_r, g_w)
    # t enters the oracle only through c2[t,t] = -4, as the slice assembly
    # takes by construction
    assert np.all(c2[..., it, it] == -4.0)
    assert not np.any(np.delete(c2[..., it, :], it, axis=-1))
    assert not np.any(c1[..., it])
    # the matrix-free operator is the oracle's matrix
    x_vec = np.random.default_rng(5).standard_normal(w.node_count)
    expected = oracle @ x_vec
    assert (np.max(np.abs(asm.apply(x_vec).ravel() - expected))
            <= 1e-13 * np.max(np.abs(expected)))

    # fast diagonalization against the oracle's 3-D LU
    forcing = build_bump(2.2, 0.5, w)
    fast = solve_dirichlet(asm, forcing)
    rhs = _dirichlet_rhs(forcing, w)
    u_oracle = spla.splu(oracle.tocsc()).solve(rhs)
    assert np.max(np.abs(fast.u.ravel() - u_oracle)) <= 1e-12
    assert fast.residual_inf <= 1e-10
    assert np.max(np.abs(rhs - oracle @ u_oracle)) <= 1e-10

    # a potential that varies in t: only the oracle takes it, and it adds
    # r_h t^2 to the diagonal of the interior rows
    shift = full_r * np.broadcast_to(w.mesh("t") ** 2, w.shape)
    np.moveaxis(shift, kt, 0)[[0, -1]] = 0.0
    varying, _, _ = oracle_operator(full_v, full_r * (1.0 + w.mesh("t") ** 2),
                                    g_w)
    assert (np.max(np.abs(varying @ x_vec - expected
                          - shift.ravel() * x_vec))
            <= 1e-13 * np.max(np.abs(expected)))


def test_even_mode_solve_matches_the_oracle_on_a_non_dyadic_t_grid():
    # 49 t-nodes: the spacing 1/24 is not dyadic, so t and the bump are
    # even only to round-off, and the odd part the even modes drop is
    # round-off too
    asm, full_v, full_r, g_w = _slice_and_materialised(
        "twisted_flat", DomainSpec(TORUS, 2, (6, 6), 49), {"c": 0.5})
    w = asm.domain
    forcing = build_bump(2.2, 0.25, w)
    kt = w.array_axis("t")
    assert not np.array_equal(forcing, np.flip(forcing, kt))
    m = w.axis("t").n - 2
    # one block per even mode. The two lowest are factored by the block LU
    # in order: 3 blocks of 12 x 12 (kl = ku = 12 in ring order), storing
    # each mode's 3 Schur complement inverses and 3 multipliers, and L_X's
    # 3 upper blocks; the other 22 are diagonally dominant enough to be
    # solved by at most 11 Jacobi sweeps
    assert asm.t_eigvals.size == (m + 1) // 2
    assert asm.factor_stats == {"factor": "block_lu",
                                "factor_nnz": (2 * 2 + 1) * 3 * 12 ** 2,
                                "jacobi_modes": 22, "jacobi_sweeps": 11}
    assert np.array_equal(asm.t_eigvecs, asm.t_eigvecs[::-1])
    fast = solve_dirichlet(asm, forcing)
    assert np.array_equal(fast.u, np.flip(fast.u, kt))
    oracle, _, _ = oracle_operator(full_v, full_r, g_w)
    u_oracle = spla.splu(oracle.tocsc()).solve(_dirichlet_rhs(forcing, w))
    assert np.max(np.abs(fast.u.ravel() - u_oracle)) <= 1e-12
    assert fast.residual_inf <= 1e-10


@pytest.mark.parametrize("name, spec, params, factor, iterated", [
    ("twisted_flat", DomainSpec(TORUS, 2, (6, 6), 49), {"c": 0.5},
     "block_lu", 22),
    ("sphere_twist", DomainSpec(SPHERE, 2, (48,), 49),
     {"r": 1.0, "beta0": 0.5}, "block_lu", 0),
    ("twisted_flat", DomainSpec(TORUS, 3, (8, 8, 8), 49), {"c": 0.5},
     "block_lu", 21),
    ("dominant", DomainSpec(TORUS, 2, (6, 6), 49), {}, "none", 24),
], ids=["torus_2d", "sphere_axisym", "torus_3d", "all_iterated"])
def test_solve_and_rescale_return_a_bitwise_even_u(name, spec, params,
                                                   factor, iterated):
    # the u dump keeps t >= 0 only, so u must be exactly even whichever
    # way the blocks are eliminated, with and without modes solved by
    # Jacobi sweeps, and
    # after the same-epsilon auto-C re-budget, which starts from the first
    # u scaled and refines it against the second C's forcing
    asm = _assembly((name, spec, params))
    assert asm.factor_stats["factor"] == factor
    assert asm.factor_stats["jacobi_modes"] == iterated
    kt = asm.domain.array_axis("t")
    first = solve_dirichlet(asm, build_bump(2.2, 0.25, asm.domain))
    scaled = solve_dirichlet(asm, build_bump(3.0, 0.25, asm.domain),
                             start=4.0 / 3.2 * first.u)
    assert scaled.stats["refinements"] >= 1
    for u in (first.u, scaled.u):
        assert np.array_equal(u, np.flip(u, kt))


def test_odd_forcing_fails_the_residual_check():
    # the even modes cannot solve an odd forcing; the matrix-free residual
    # against the full forcing keeps it, and the solve refuses
    dom, g, v = product_fields(DomainSpec(TORUS, 2, (6, 6), 33),
                               "product_flat")
    asm = assemble(v, 1.0, g, dom.axis("t"))
    odd = np.broadcast_to(np.sin(np.pi * dom.mesh("t")), dom.shape)
    with pytest.raises(NumericalFailure, match="residual") as err:
        solve_dirichlet(asm, odd)
    assert err.value.exit_code == 3


def test_symbol_loses_ellipticity_with_unit_drift():
    dom, g, v = product_fields(DomainSpec(TORUS, 2, (6, 6), 7),
                               "product_flat")
    v = np.array(v)
    v[..., 0] = 1.2
    with pytest.raises(HypothesisViolation):
        assemble(v, 1.0, g, dom.axis("t"))
    v[..., 0] = 1.0  # borderline: symbol is singular, not positive
    with pytest.raises(HypothesisViolation):
        assemble(v, 1.0, g, dom.axis("t"))


def test_anisotropy_warning():
    dom, g, v = product_fields(DomainSpec(TORUS, 2, (4, 4), 1281),
                               "product_flat")
    with pytest.warns(RuntimeWarning, match="anisotropy"):
        assemble(v, 1.0, g, dom.axis("t"))


def test_dtt_monitor_region_guard():
    dom = build_domain(DomainSpec(TORUS, 2, (4, 4), 9))
    u = np.zeros(dom.shape)
    with pytest.raises(ConfigError):
        dtt_monitor(u, dom, 0.25)  # |t| < 1/16 holds only the center node
    ts = np.asarray(dom.mesh("t"))
    d2 = dom.diff(np.broadcast_to(ts * ts, dom.shape), "t", 2)
    assert dtt_monitor(d2, dom, 2.0 - 1e-9) == pytest.approx(2.0)


def test_solve_report_is_frozen_record():
    dom, g, v = product_fields(DomainSpec(TORUS, 2, (6, 6), 7),
                               "product_flat")
    asm = assemble(v, 1.0, g, dom.axis("t"))
    rep = solve_dirichlet(asm, np.ones(dom.shape))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.residual_inf = 0.0


def test_assembly_factors_once_and_matches_a_fresh_factorization(
        monkeypatch):
    doms = w_domains(DomainSpec(TORUS, 2, (8, 8), 33))
    x, w = doms["x"], doms["w"]
    h = make_metric("twisted_flat", doms["y"], c=0.5)
    args = (normal_frame(h).v[..., [doms["y"].index(nm) for nm in x.names]],
            h.scalar, restrict_metric(h, x), w.axis("t"))
    calls = record_factorizations(monkeypatch)
    asm = assemble(*args)
    solve_dirichlet(asm, build_bump(2.2, 0.5, w))
    forcing = build_bump(9.0, 0.25, w)
    second = solve_dirichlet(asm, forcing)
    assert len(calls) == 1
    fresh = solve_dirichlet(assemble(*args), forcing)
    assert len(calls) == 2
    assert np.array_equal(second.u, fresh.u)
    assert second.residual_inf == fresh.residual_inf


def _with_slice_operator(asm, edit):
    """The assembly with L_X replaced by its dense matrix after edit(a),
    which changes a in place."""
    a = asm.slice_operator.toarray()
    edit(a)
    rows, cols = np.nonzero(a)
    return dataclasses.replace(asm, slice_operator=fd.Stencil.from_entries(
        rows, cols, a[rows, cols], a.shape))


def _zero_row(asm, node):
    """edit for _with_slice_operator: row `node` of L_X + lam_0 I zero, so
    that block k = 0 (lam_0's eigenvector is even, so its block is
    factored) gets a zero row while every other block stays regular."""
    def edit(a):
        a[node, :] = 0.0
        a[node, node] = -asm.t_eigvals[0]
    return edit


def test_singular_operator_raises_numerical_failure():
    dom, g, v = product_fields(DomainSpec(TORUS, 2, (6, 6), 7),
                               "product_flat")
    asm = assemble(v, 1.0, g, dom.axis("t"))
    singular = _with_slice_operator(asm, _zero_row(asm, 0))
    with pytest.raises(NumericalFailure, match="factorization") as err:
        solve_dirichlet(singular, np.ones(dom.shape))
    assert err.value.exit_code == 3


def _pipeline_slice_data(name, spec, params):
    """The slice data a run assembles from for the builtin metric `name`
    on `spec`: V's X components, R_h, h_X and the t axis."""
    doms = w_domains(spec)
    x = doms["x"]
    h = make_metric(name, doms["y"], **params)
    v_x = normal_frame(h).v[..., [doms["y"].index(nm) for nm in x.names]]
    return v_x, h.scalar, restrict_metric(h, x), doms["w"].axis("t")


def _pipeline_assembly(name, spec, params):
    """The assembly a run builds for the builtin metric `name` on `spec`."""
    return assemble(*_pipeline_slice_data(name, spec, params))


def _block_matrix(asm):
    """kron(I, L_X) + kron(diag(lam_even), I): the all-mode block matrix
    the mode split solves, in scipy CSC."""
    n_x = asm.slice_operator.shape[0]
    lx = as_csr(asm.slice_operator)
    return (sp.kron(sp.identity(asm.t_eigvals.size), lx)
            + sp.kron(sp.diags(asm.t_eigvals), sp.identity(n_x))).tocsc()


def _ring_band(asm):
    """(kl, ku) of L_X read in the block factor's node order
    (`slice_order`)."""
    axes = [ax for ax in asm.domain.stored_axes if ax.name != "t"]
    position = np.argsort(solver.slice_order(axes))
    rows, cols, _ = asm.slice_operator.entries()
    offsets = position[cols] - position[rows]
    return int(np.max(-offsets)), int(np.max(offsets))


def _block_lu_entries(n_x, b, modes):
    """The entries the block LU of `modes` blocks stores, by the module
    docstring's rule: in order, each mode's Schur complement inverses and
    multipliers and L_X's upper blocks; by cyclic reduction, per level of
    count blocks and per mode, (count + 1) // 2 inverses and as many
    inverses times couplings and kept couplings as the level has
    neighbours, and the last inverse."""
    nb = -(-n_x // b)
    if b > solver.CYCLIC_MAX_ORDER:
        return (2 * modes + 1) * nb * b * b
    blocks, count = 1, nb
    while count > 1:
        blocks += (count + 1) // 2 + 2 * ((count - 1) // 2) + 2 * (count // 2)
        count //= 2
    return modes * blocks * b * b


def _assembly(case):
    """A builtin metric's pipeline assembly; for ("cross", res, nt) that
    of helpers.mms_flat_cross, a flat torus slice whose constant drift
    gives L_X a 9-point stencil; for ("dominant", spec, {}) the flat torus
    with potential 1000, whose blocks are all diagonally dominant enough
    to be iterated."""
    if case[0] == "cross":
        dom, g, drift = flat_cross_fields(*case[1:])
        return assemble(drift, 1.0, g, dom.axis("t"))
    if case[0] == "dominant":
        dom, g, v = product_fields(case[1], "product_flat")
        return assemble(v, 1000.0, g, dom.axis("t"))
    return _pipeline_assembly(*case)


SPHERE_48 = DomainSpec(SPHERE, 2, (48,), 49)


@pytest.mark.parametrize("case, order, factored", [
    (("sphere_twist", SPHERE_48, {"r": 1.0, "beta0": 0.5}), 2, 24),
    (("sphere_product", SPHERE_48, {"r": 1.0}), 2, 24),
    (("twisted_flat", DomainSpec(TORUS, 2, (6, 6), 9), {"c": 0.5}), 12, 2),
    (("twisted_flat", DomainSpec(TORUS, 2, (7, 7), 9), {"c": 0.5}), 14, 2),
    (("cross", 10, 9), 22, 4),
    (("twisted_flat", DomainSpec(TORUS, 2, (24, 24), 49), {"c": 0.5}),
     48, 7),
], ids=["sphere_twist", "sphere_product", "torus_6x6", "torus_7x7",
        "cross_10x10", "torus_24x24"])
def test_band_factor_matches_superlu_of_the_block_matrix(case, order,
                                                         factored):
    # the shipped sphere grid has two sub- and two super-diagonals; an
    # N x N torus slice in ring order 2N of each, and 2N + 2 with the
    # cross drift's 9-point stencil: that band is the block order of the
    # block LU of the low modes, reduced cyclically on the sphere's 2 x 2
    # blocks and factored in order on the tori's, the other modes
    # iterated. SuperLU of the all-mode block matrix in natural order is
    # the general route's answer
    asm = _assembly(case)
    modes, n_x = asm.t_eigvals.size, asm.slice_operator.shape[0]
    assert max(_ring_band(asm)) == order
    assert asm.factor_stats["factor"] == "block_lu"
    assert asm.factor_stats["factor_nnz"] == _block_lu_entries(
        n_x, order, factored)
    assert asm.factor_stats["jacobi_modes"] == modes - factored
    assert asm.lu.low.size == factored
    assert asm.lu.factor.cyclic == (order <= solver.CYCLIC_MAX_ORDER)
    # the sweeps' matrix is L_X less its diagonal, bitwise
    off = as_csr(asm.lu.jacobi._off)
    lx = as_csr(asm.slice_operator)
    expected = (lx - sp.diags(lx.diagonal())).tocsr()
    expected.eliminate_zeros()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(off, name), getattr(expected, name))
    mat = _block_matrix(asm)
    rhs = np.random.default_rng(8).standard_normal(mat.shape[0])
    block = asm.lu.solve(rhs.reshape(modes, n_x)).ravel()
    sparse = spla.splu(mat).solve(rhs)
    assert (np.max(np.abs(block - sparse))
            <= 1e-12 * np.max(np.abs(sparse)))
    for u in (block, sparse):
        assert np.max(np.abs(rhs - mat @ u)) <= 1e-10


@pytest.mark.parametrize("case, factor, iterated", [
    (("twisted_flat", DomainSpec(TORUS, 2, (24, 24), 49), {"c": 0.5}),
     "block_lu", 17),
    (("twisted_flat", DomainSpec(TORUS, 3, (8, 8, 8), 49), {"c": 0.5}),
     "block_lu", 21),
    (("cross", 32, 33), "block_lu", 4),
    (("sphere_twist", SPHERE_48, {"r": 1.0, "beta0": 0.5}), "block_lu", 0),
    (("dominant", DomainSpec(TORUS, 2, (6, 6), 49), {}), "none", 24),
], ids=["torus_2d", "torus_3d", "cross_32x32", "sphere_axisym",
        "all_iterated"])
def test_split_solve_matches_superlu_of_the_all_mode_block_matrix(
        case, factor, iterated):
    # the modes with q_k <= JACOBI_Q_MAX are solved by Jacobi sweeps, the
    # others by one block LU of their block matrix; together they solve
    # the all-mode block matrix as its SuperLU does
    asm = _assembly(case)
    stats = asm.factor_stats
    assert (stats["factor"], stats["jacobi_modes"]) == (factor, iterated)
    assert (0 < stats["jacobi_sweeps"] <= 15) == (iterated > 0)
    assert asm.lu.low.size + iterated == asm.t_eigvals.size
    mat = _block_matrix(asm)
    rhs = np.random.default_rng(9).standard_normal(mat.shape[0])
    split = asm.lu.solve(rhs.reshape(asm.t_eigvals.size, -1)).ravel()
    sparse = spla.splu(mat).solve(rhs)
    assert (np.max(np.abs(split - sparse))
            <= 1e-12 * np.max(np.abs(sparse)))
    if iterated == 0:
        # no mode iterated: the split solve is the factor's solve
        assert np.array_equal(asm.lu.low, np.arange(asm.t_eigvals.size))
        assert np.array_equal(split, asm.lu.factor.solve(
            rhs.reshape(asm.t_eigvals.size, -1)).ravel())


def _exact_solve(a, f):
    """a^-1 f to about long-double precision: a float64 solve refined
    twice against a long-double residual."""
    w = np.linalg.solve(a, f).astype(np.longdouble)
    for _ in range(2):
        r = f.astype(np.longdouble) - a.astype(np.longdouble) @ w
        w += np.linalg.solve(a, r.astype(float))
    return w


_JACOBI_BASES = {}


@settings(max_examples=40, deadline=None)
@given(side=st.sampled_from([4, 5, 6]), modes=st.integers(1, 8),
       density=st.floats(0.05, 0.6), seed=st.integers(0, 2 ** 32 - 1))
def test_jacobi_sweeps_meet_the_a_priori_bound(side, modes, density, seed):
    # a random non-symmetric slice operator with diagonal entries of either
    # sign, put in an assembly with random mode eigenvalues: each mode with
    # q_k <= JACOBI_Q_MAX is iterated, and after at least its s_k sweeps
    # from D^-1 f its error is within the a-priori bound q^(s+1) ||w||
    # plus a round-off allowance. Each sweep adds at most (p + 2) 2^-53
    # (|D^-1 f| + q ||w_s||) <= 2.25 (p + 2) 2^-53 ||w|| at q <= 1/2, p
    # the most nonzeros in a row, and the sweeps damp what earlier ones
    # added by q each, so the allowance is 4 (p + 2) 2^-53 ||w|| / (1 - q)
    if side not in _JACOBI_BASES:
        dom, g, v = product_fields(DomainSpec(TORUS, 2, (side, side), 5),
                                   "product_flat")
        _JACOBI_BASES[side] = assemble(v, 1.0, g, dom.axis("t"))
    n = side * side
    rng = np.random.default_rng(seed)
    off = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(off, 0.0)
    rows = np.abs(off).sum(axis=1)
    scale = max(float(rows.max()), 1.0)
    diag = rng.uniform(-3.0, 3.0, n) * scale
    lam = np.sort(rng.uniform(0.0, 60.0, modes)) * scale
    a = off + np.diag(diag)
    asm = dataclasses.replace(_JACOBI_BASES[side],
                              slice_operator=fd.Stencil.from_entries(
                                  *np.nonzero(a), a[np.nonzero(a)], a.shape),
                              t_eigvals=lam)
    with np.errstate(divide="ignore"):
        q = np.max(rows[:, None] / np.abs(diag[:, None] + lam), axis=0)
    split = asm.lu
    high = set(split.high.tolist())
    assert all(k in high for k in np.flatnonzero(
        q <= solver.JACOBI_Q_MAX * (1 - 1e-12)))
    assert not any(k in high for k in np.flatnonzero(
        q > solver.JACOBI_Q_MAX * (1 + 1e-12)))
    assume(split.high.size > 0)
    f = rng.standard_normal((split.high.size, n))
    w = split.jacobi.solve(f)
    p = int(np.max(np.count_nonzero(a, axis=1)))
    for i, k in enumerate(split.high):
        s = int(split.jacobi.sweeps[i])
        assert q[k] ** (s + 1) <= 2.0 ** -52
        assert s == 0 or q[k] ** s > 2.0 ** -52
        exact = _exact_solve(a + lam[k] * np.eye(n), f[i])
        size = float(np.max(np.abs(exact)))
        allowance = 4 * (p + 2) * 2.0 ** -53 * size / (1 - q[k])
        err = float(np.max(np.abs(w[i] - exact)))
        assert err <= q[k] ** (s + 1) * size + allowance


@pytest.mark.parametrize("case, order, cyclic", [
    (("twisted_flat", DomainSpec(TORUS, 2, (8, 8), 9), {"c": 0.5}), 16,
     False),
    (("sphere_twist", DomainSpec(SPHERE, 2, (16,), 9),
      {"r": 1.0, "beta0": 0.5}), 2, True),
    (("twisted_flat", DomainSpec(TORUS, 3, (8, 8, 8), 9), {"c": 0.5}),
     128, False),
    (("cross", 32, 9), 66, False),
], ids=["torus_2d", "sphere_axisym", "torus_3d", "cross_32x32"])
def test_factor_route_follows_the_slice_band(case, order, cyclic):
    # the block order is the band of L_X with the periodic axes in ring
    # order, max(kl, ku): 2N on an N x N torus slice, 2 n^2 on an n^3
    # one, 2N + 2 with cross terms, 2 on the sphere's one-axis slice. The
    # sphere's 2 x 2 blocks are reduced cyclically, the others factored in
    # order; a block order from 32 on (torus_3d, cross_32x32) inverts its
    # Schur complements through their halves
    asm = _assembly(case)
    assert max(_ring_band(asm)) == order
    assert asm.factor_stats["factor"] == "block_lu"
    assert asm.lu.factor.cyclic == cyclic
    rep = solve_dirichlet(asm, build_bump(2.2, 0.5, asm.domain))
    assert rep.stats["factor"] == "block_lu"
    assert rep.stats["factor_nnz"] == _block_lu_entries(
        asm.slice_operator.shape[0], order, asm.lu.low.size)


def _operator_inputs(case):
    """(domain, c2, c1, c0) of an operator_matrix call: ("slice", ...) a
    builtin metric's slice operator L_X; ("cross", res, nt) the 9-point
    flat torus slice of helpers.mms_flat_cross; ("w", ...) the operator
    over W, bounded t axis included, of the materialised fields;
    ("zeros", ...) a slice operator with every coefficient zero on a
    third of the nodes and c0 = 0.0."""
    if case[0] == "cross":
        _, h_x, drift = flat_cross_fields(*case[1:])
        return (h_x.domain,) + solver._coefficients(drift, 1.0, h_x)
    if case[0] == "w":
        _, full_v, full_r, g_w = _slice_and_materialised(*case[1:])
        return (g_w.domain,) + solver._coefficients(full_v, full_r, g_w)
    v_x, r_h, h_x, _ = _pipeline_slice_data(*case[1:])
    x = h_x.domain
    c2, c1, c0 = solver._coefficients(v_x, r_h, h_x)
    if case[0] == "zeros":
        mask = (np.arange(x.node_count) % 3 != 0).reshape(x.shape)
        return x, c2 * mask[..., None, None], c1 * mask[..., None], 0.0
    return x, c2, c1, c0


@pytest.mark.parametrize("case", [
    ("cross", 10, 9),
    ("slice", "twisted_flat", DomainSpec(TORUS, 3, (12, 12, 12), 9),
     {"c": 0.5}),
    ("slice", "sphere_twist", SPHERE_48, {"r": 1.0, "beta0": 0.5}),
    ("w", "twisted_flat", DomainSpec(TORUS, 2, (6, 6), 9), {"c": 0.5}),
    ("zeros", "twisted_flat", DomainSpec(TORUS, 2, (8, 8), 9), {"c": 0.5}),
], ids=["flat_cross", "t3_12", "sphere_48", "w_bounded_t", "zero_nodes"])
def test_operator_matrix_is_the_sorted_kronecker_assembly(case):
    # one list of stencil entries, summed per position in term order, is
    # the Kronecker-chain assembly with its column indices sorted, bitwise
    dom, c2, c1, c0 = _operator_inputs(case)
    mat = as_csr(solver.operator_matrix(dom, c2, c1, c0))
    oracle = kron_operator_matrix(dom, c2, c1, c0).sorted_indices()
    assert np.array_equal(mat.indptr, oracle.indptr)
    assert np.array_equal(mat.indices, oracle.indices)
    assert mat.data.tobytes() == oracle.data.tobytes()


@pytest.mark.parametrize("name, spec, params", [
    ("twisted_flat", DomainSpec(TORUS, 2, (12, 12), 9), {"c": 0.5}),
    ("twisted_flat", DomainSpec(TORUS, 3, (6, 6, 6), 9), {"c": 0.5}),
    ("sphere_twist", SPHERE_48, {"r": 1.0, "beta0": 0.5}),
], ids=["torus_2d", "t3", "sphere"])
def test_slice_and_b1_operators_are_canonical(name, spec, params):
    # each row's entries in strictly ascending column order (no
    # duplicate), no stored zero, and the padding after them
    doms = w_domains(spec)
    h = make_metric(name, doms["y"], **params)
    b1 = b1_operator(h, restrict_metric(h, doms["x"]))
    assert b1.nnz > 0
    for mat in (_pipeline_assembly(name, spec, params).slice_operator, b1):
        rows, cols, vals = mat.entries()
        assert np.all(np.diff(rows * mat.shape[1] + cols) > 0)
        assert np.all(vals != 0.0)
        counts = np.bincount(rows, minlength=mat.shape[0])
        slots = np.arange(mat.vals.shape[0])[:, None]
        assert np.array_equal(mat.vals != 0.0, slots < counts)


@pytest.mark.parametrize("name, spec, params", [
    ("twisted_flat", DomainSpec(TORUS, 2, (24, 24), 49), {"c": 0.5}),
    ("sphere_twist", DomainSpec(SPHERE, 2, (256,), 129),
     {"r": 1.0, "beta0": 0.5}),
    ("twisted_flat", DomainSpec(TORUS, 3, (12, 12, 12), 49), {"c": 0.5}),
], ids=["torus24", "sphere256", "t3_12"])
def test_slice_and_b1_products_are_the_csr_products_bitwise(name, spec,
                                                             params):
    # L_X, L_X less its diagonal (the Jacobi sweeps), T's interior rows and
    # B1 applied as stencils equal scipy's CSR products of the same
    # entries bit for bit, on the shapes the solver applies them to
    doms = w_domains(spec)
    h = make_metric(name, doms["y"], **params)
    asm = _pipeline_assembly(name, spec, params)
    n_x, n_t = asm.slice_operator.shape[0], asm.t_eigvals.size * 2 + 1
    rng = np.random.default_rng(7)
    for mat in (asm.slice_operator, asm.lu.jacobi._off, asm.t_operator,
                b1_operator(h, restrict_metric(h, doms["x"]))):
        csr = as_csr(mat)
        for cols in (1, 17, n_t):
            x = rng.standard_normal((mat.shape[1], cols))
            assert (mat @ x).tobytes() == (csr @ x).tobytes()
    assert asm.t_operator.shape == (n_t - 2, n_t)
    u = rng.standard_normal(asm.domain.shape)
    assert np.array_equal(
        solver.slice_apply(asm.slice_operator, asm.domain, u),
        np.moveaxis((as_csr(asm.slice_operator) @ np.moveaxis(
            u, asm.domain.array_axis("t"), -1).reshape(n_x, -1)).reshape(
                np.moveaxis(u, asm.domain.array_axis("t"), -1).shape),
            -1, asm.domain.array_axis("t")))


@pytest.mark.parametrize("n", range(3, 42))
def test_ring_order_keeps_periodic_neighbours_two_apart(n):
    order = solver.ring_order(n)
    assert np.array_equal(np.sort(order), np.arange(n))
    position = np.argsort(order)
    gaps = np.abs(position - np.roll(position, -1))
    assert gaps.max() <= 2


@pytest.mark.parametrize("res", [6, 7, 12, 24, 25])
def test_ring_ordered_torus_slice_has_bandwidth_2n(res):
    # natural order puts the periodic closure of the outer axis N (N - 1)
    # rows away; ring order brings it to 2N, or 2N + 2 with cross terms
    dom, g, v = product_fields(DomainSpec(TORUS, 2, (res, res), 5),
                               "product_flat")
    assert _ring_band(assemble(v, 1.0, g, dom.axis("t"))) == (2 * res,
                                                             2 * res)
    kl, ku = _ring_band(_assembly(("cross", res, 5)))
    assert 2 * res <= max(kl, ku) <= 2 * res + 2


def test_slice_order_keeps_a_slice_without_periodic_axes():
    sphere = w_domains(DomainSpec(SPHERE, 2, (16,), 9))["x"]
    assert np.array_equal(solver.slice_order(sphere.stored_axes),
                          np.arange(16))


def test_singular_band_block_raises_numerical_failure():
    # test_singular_operator_raises_numerical_failure on the sphere slice,
    # reduced cyclically: block k = 0 gets a zero row at node 0
    asm = _pipeline_assembly("sphere_product", DomainSpec(SPHERE, 2, (16,), 7),
                             {"r": 1.0})
    singular = _with_slice_operator(asm, _zero_row(asm, 0))
    assert asm.lu.factor.cyclic
    with pytest.raises(NumericalFailure,
                       match="block LU factorization .*mode 0,") as err:
        solve_dirichlet(singular, np.ones(asm.domain.shape))
    assert err.value.exit_code == 3


def test_singular_periodic_band_block_names_the_natural_node():
    # a zero column of block k = 0 is an exactly singular Schur
    # complement. Node 7 of the 6 x 6 slice, (1, 1), sits at position 14
    # in ring order, in the second of 3 blocks of 12; the message names
    # the node in the natural numbering the caller knows
    dom, g, v = product_fields(DomainSpec(TORUS, 2, (6, 6), 7),
                               "product_flat")
    asm = assemble(v, 1.0, g, dom.axis("t"))
    assert solver.slice_order(dom.stored_axes[:2])[14] == 7

    def zero_column(a):
        a[:, 7] = 0.0
        a[7, 7] = -asm.t_eigvals[0]

    singular = _with_slice_operator(asm, zero_column)
    with pytest.raises(NumericalFailure,
                       match=r"block LU factorization .* row 7 .*mode 0, "
                             r"slice node 7;") as err:
        solve_dirichlet(singular, np.ones(dom.shape))
    assert err.value.exit_code == 3


def test_singular_3d_block_raises_numerical_failure():
    # the zero row of test_singular_operator_raises_numerical_failure on a
    # 6^3 torus slice, whose blocks of order 72 are inverted through their
    # halves; the zero row makes the first half singular, so LAPACK
    # inverts the whole block and finds it singular
    dom, g, v = product_fields(DomainSpec(TORUS, 3, (6, 6, 6), 7),
                               "product_flat")
    asm = assemble(v, 1.0, g, dom.axis("t"))
    assert max(_ring_band(asm)) == 72
    singular = _with_slice_operator(asm, _zero_row(asm, 0))
    with pytest.raises(NumericalFailure,
                       match="block LU factorization .*mode 0,") as err:
        solve_dirichlet(singular, np.ones(dom.shape))
    assert err.value.exit_code == 3


@pytest.mark.parametrize("n, band", [(3, 1), (5, 2), (6, 2), (7, 2), (37, 2),
                                     (64, 3), (13, 6), (50, 9)])
def test_block_lu_solves_banded_blocks_of_any_count(n, band):
    # natural node order, so the block order is the band: cyclic
    # reduction up to CYCLIC_MAX_ORDER over odd and even block counts
    # (the last block padded), in order above it; every mode's solve is
    # LAPACK's dense solve of its block to round-off
    rng = np.random.default_rng(n * band)
    a = sum(np.diag(rng.standard_normal(n - abs(d)), d)
            for d in range(-band, band + 1)) + (2 * band + 2) * np.eye(n)
    rows, cols = np.nonzero(a)
    lam = np.sort(rng.uniform(0.0, 5.0, 3))
    factor = solver._BlockLU(fd.Stencil.from_entries(rows, cols, a[rows, cols],
                                                     a.shape),
                             lam, np.arange(n), np.arange(3))
    assert factor.cyclic == (band <= solver.CYCLIC_MAX_ORDER)
    f = rng.standard_normal((3, n))
    w = factor.solve(f)
    for k in range(3):
        exact = np.linalg.solve(a + lam[k] * np.eye(n), f[k])
        assert np.max(np.abs(w[k] - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("order", [2, 5, 40, 72])
def test_block_inverse_is_lapacks(order):
    # 2 x 2 blocks by their adjugate, orders from 32 on through their
    # halves, the others by LAPACK: every way agrees with LAPACK to
    # round-off, also where the leading half of a block is singular (the
    # last block: a permutation), and an exactly singular block raises
    rng = np.random.default_rng(order)
    d = rng.standard_normal((3, 4, order, order)) + 2 * np.sqrt(order) * \
        np.eye(order)
    d[2, 3] = np.roll(np.eye(order), order // 2, axis=0)
    inv = solver._inverse(d)
    expected = np.linalg.inv(d)
    assert np.max(np.abs(inv - expected)) <= 1e-12 * np.max(np.abs(expected))
    d[1, 2, :, 0] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        solver._inverse(d)


def test_certify_path_imports_no_scipy():
    # scipy is a test dependency only: `import pscbench.solver` loads no
    # scipy module, and `solver.spla`, which perfbench's tracer wraps,
    # resolves to scipy.sparse.linalg only when it is asked for
    code = ("import sys; from pscbench import solver; "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules)); "
            "print(solver.spla.__name__)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=cli_env(), check=True)
    assert res.stdout.split() == ["False", "scipy.sparse.linalg"]
