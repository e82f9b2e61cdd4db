"""Stencil tables: exactness classes, closure behavior, cache identity."""

import numpy as np
import pytest

from pscbench import fd


def wave_err(closure, order, n, func, dfunc, length):
    h = length / n if closure == fd.PERIODIC else length / (n - 1)
    if closure == fd.MIRROR:
        h = length / n
        xs = (np.arange(n) + 0.5) * h
    elif closure == fd.PERIODIC:
        xs = np.arange(n) * h
    else:
        xs = np.arange(n) * h
    d = fd.diff_matrix(order, n, h, closure)
    return float(np.max(np.abs(d @ func(xs) - dfunc(xs))))


def test_periodic_second_order_on_sin():
    e1 = wave_err(fd.PERIODIC, 1, 32, np.sin, np.cos, 2 * np.pi)
    e2 = wave_err(fd.PERIODIC, 1, 64, np.sin, np.cos, 2 * np.pi)
    assert e2 < e1 / 3.5  # order ~2 halving


def test_periodic_derivative_of_constant_is_zero():
    d = fd.diff_matrix(1, 16, 0.1, fd.PERIODIC)
    assert np.max(np.abs(d @ np.ones(16))) == 0.0
    d2 = fd.diff_matrix(2, 16, 0.1, fd.PERIODIC)
    assert np.max(np.abs(d2 @ np.ones(16))) == 0.0


def test_bounded_exact_on_quadratics():
    # interior central and edge one-sided stencils are all exact for t^2
    n = 17
    h = 2.0 / (n - 1)
    t = -1.0 + np.arange(n) * h
    d1 = fd.diff_matrix(1, n, h, fd.BOUNDED)
    d2 = fd.diff_matrix(2, n, h, fd.BOUNDED)
    assert np.max(np.abs(d1 @ (t * t) - 2 * t)) < 1e-12
    assert np.max(np.abs(d2 @ (t * t) - 2.0)) < 1e-12
    assert np.max(np.abs(d1 @ t - 1.0)) < 1e-13
    assert np.max(np.abs(d2 @ t)) < 1e-12


def test_mirror_fourth_order_on_even_function():
    # cos extends evenly through both ends of [0, pi]
    errs = []
    for n in (16, 32):
        h = np.pi / n
        xs = (np.arange(n) + 0.5) * h
        d = fd.diff_matrix(1, n, h, fd.MIRROR)
        errs.append(float(np.max(np.abs(d @ np.cos(xs) + np.sin(xs)))))
    assert errs[1] < errs[0] / 12.0  # 4th order gives ~16


def test_mirror_second_derivative_converges():
    errs = []
    for n in (16, 32):
        h = np.pi / n
        xs = (np.arange(n) + 0.5) * h
        d = fd.diff_matrix(2, n, h, fd.MIRROR)
        errs.append(float(np.max(np.abs(d @ np.cos(xs) + np.cos(xs)))))
    assert errs[1] < errs[0] / 12.0


def test_cache_returns_shared_matrix():
    a = fd.diff_matrix(1, 24, 0.25, fd.PERIODIC)
    b = fd.diff_matrix(1, 24, 0.25, fd.PERIODIC)
    assert a is b


def test_diff_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fd.diff_matrix(3, 16, 0.1, fd.PERIODIC)
    with pytest.raises(ValueError):
        fd.diff_matrix(1, 16, 0.0, fd.PERIODIC)
    with pytest.raises(ValueError):
        fd.diff_matrix(1, 2, 0.1, fd.PERIODIC)
    with pytest.raises(ValueError):
        fd.diff_matrix(2, 3, 0.1, fd.MIRROR)
    with pytest.raises(ValueError):
        fd.diff_matrix(2, 3, 0.1, fd.BOUNDED)
    with pytest.raises(ValueError):
        fd.diff_matrix(1, 16, 0.1, "spline")


def test_apply_diff_matches_matrix_product():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(6, 11, 4))
    d = fd.diff_matrix(2, 11, 0.2, fd.BOUNDED)
    manual = np.einsum("ij,ajk->aik", d.toarray(), vals)
    out = fd.apply_diff(vals, 1, 2, 11, 0.2, fd.BOUNDED)
    assert np.max(np.abs(out - manual)) < 1e-14


def _diff_cases():
    for closure, sizes in ((fd.PERIODIC, (3, 4, 13)), (fd.MIRROR, (4, 5, 13)),
                           (fd.BOUNDED, (4, 5, 13))):
        for order in (1, 2):
            for n in sizes:
                yield closure, order, n


@pytest.mark.parametrize("closure, order, n", list(_diff_cases()))
def test_stencil_product_is_the_csr_product_bitwise(closure, order, n):
    # the product accumulates each row's entries in ascending column order
    # from 0, as scipy's CSR product does: equal bit for bit on vectors,
    # matrices and stacks of columns, zeros and negative zeros included
    import scipy.sparse as sp
    from helpers import as_csr

    d = fd.diff_matrix(order, n, 0.37, closure)
    csr = as_csr(d)
    assert isinstance(csr, sp.csr_matrix) and csr.has_canonical_format
    rng = np.random.default_rng(n + 10 * order)
    for shape in ((n,), (n, 1), (n, 7), (n, 3, 5)):
        x = rng.standard_normal(shape)
        x[rng.random(shape) < 0.2] = 0.0
        x[rng.random(shape) < 0.1] = -0.0
        expected = (csr @ x.reshape(n, -1)).reshape(shape)
        assert (d @ x).tobytes() == expected.tobytes()
