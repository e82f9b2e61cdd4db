"""Domain construction, quadrature, norms, and the CSV field dump."""

import math

import numpy as np
import pytest

from pscbench.errors import ConfigError
from pscbench.grids import (DiscreteDomain, DomainSpec, build_domain,
                            bounded_axis, mirror_axis, periodic_axis,
                            upper_half, w_domains, c1_norm,
                            gradient, derivatives, coordinate_columns,
                            fields_to_csv, with_circle, TORUS, SPHERE)
from pscbench.metrics import make_metric
from pscbench.report import RunReport, write_field_csvs

from helpers import (hessian_coords_reference, lp_norm, rng_phi,
                     stored_theta_y)

TWO_PI = 2.0 * math.pi


def test_torus_w_domain_layout():
    dom = build_domain(DomainSpec(TORUS, 2, (8, 12), 9))
    assert dom.names == ("x", "y", "t")
    assert dom.shape == (8, 12, 9)
    assert dom.axis("x").spacing == pytest.approx(TWO_PI / 8)
    assert dom.axis("t").spacing == pytest.approx(2.0 / 8)
    assert dom.axis("t").coords()[4] == 0.0  # odd count pins t = 0 on a node
    # at_t0 reads that node of a scalar field, as a copy
    f = rng_phi(dom, seed=5)
    t0 = dom.at_t0(f)
    assert np.array_equal(t0, np.take(f, 4, axis=2))
    assert t0.flags.c_contiguous and not np.shares_memory(t0, f)


def test_upper_half_keeps_the_full_axis_coordinates_bitwise():
    # the u dump's t >= 0 rows must print as the full dump's did; a fresh
    # bounded_axis(t, n // 2 + 1, 0, 1) does not: at n = 713 a node
    # differs in the 12th digit
    for n in range(5, 1001, 2):
        t = bounded_axis("t", n)
        half = upper_half(t)
        assert half.n == n // 2 + 1 and half.length == 1.0
        assert np.array_equal(half.coords(), t.coords()[n // 2:])


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.1, 0.7), (-3.0, 5.5)])
def test_bounded_axis_pins_its_ends_and_midpoint(lo, hi):
    # node k sits at lo + k * spacing except the last node, exactly hi,
    # and the midpoint of an odd count, exactly (lo + hi) / 2; at n = 99
    # on [-1, 1] the plain formula gives -1.1e-16 for the midpoint
    for n in range(5, 1002, 2):
        ax = bounded_axis("t", n, lo, hi)
        c = ax.coords()
        assert c[0] == lo and c[-1] == hi and c[n // 2] == (lo + hi) / 2
        rest = np.delete(np.arange(n), [n - 1, n // 2])
        assert np.array_equal(c[rest], lo + rest * ax.spacing)
        assert np.array_equal(upper_half(ax).coords(), c[n // 2:])


def test_sphere_w_domain_layout():
    dom = build_domain(DomainSpec(SPHERE, 2, (16,), 9))
    assert dom.names == ("rho", "alpha", "t")
    assert dom.shape == (16, 9)  # alpha is virtual
    rho = dom.axis("rho").coords()
    assert rho[0] == pytest.approx(0.5 * math.pi / 16)  # no node on a pole
    assert rho[-1] == pytest.approx(math.pi - 0.5 * math.pi / 16)


def test_domain_spec_validation():
    with pytest.raises(ConfigError):
        build_domain(DomainSpec(TORUS, 1, (8,), 9))
    with pytest.raises(ConfigError):
        build_domain(DomainSpec(TORUS, 4, (8, 8, 8, 8), 9))
    with pytest.raises(ConfigError):
        build_domain(DomainSpec(TORUS, 2, (8,), 9))
    with pytest.raises(ConfigError):
        build_domain(DomainSpec(TORUS, 2, (3, 8), 9))
    with pytest.raises(ConfigError):
        build_domain(DomainSpec(TORUS, 2, (8, 8), 8))  # even
    with pytest.raises(ConfigError):
        build_domain(DomainSpec(TORUS, 2, (8, 8), 3))  # too few
    with pytest.raises(ConfigError):
        build_domain(DomainSpec(SPHERE, 3, (8,), 9))
    with pytest.raises(ConfigError):
        build_domain(DomainSpec(SPHERE, 2, (8, 8), 9))
    with pytest.raises(ConfigError):
        build_domain(DomainSpec("klein", 2, (8, 8), 9))


def test_w_domains_share_stored_shapes():
    doms = w_domains(DomainSpec(TORUS, 2, (6, 6), 7))
    assert set(doms) == {"x", "y", "w"}
    # M, the tests' ambient domain for product metrics over t
    m = doms["y"].with_axis(doms["w"].axis("t"))
    assert doms["y"].names == ("x", "y", "theta")
    assert m.names == ("x", "y", "theta", "t")
    # theta is virtual: the circle adds no array dimension
    assert doms["y"].shape == doms["x"].shape
    assert m.shape == doms["w"].shape


def test_integrate_counts_virtual_circumference():
    doms = w_domains(DomainSpec(TORUS, 2, (6, 8), 7))
    one = np.ones(doms["x"].shape)
    assert float(doms["x"].integrate(one)) == pytest.approx(TWO_PI ** 2)
    assert float(doms["y"].integrate(one)) == pytest.approx(TWO_PI ** 3)
    sdoms = w_domains(DomainSpec(SPHERE, 2, (16,), 7))
    assert float(sdoms["y"].integrate(np.ones(sdoms["y"].shape))) \
        == pytest.approx(math.pi * TWO_PI * TWO_PI)


def test_diff_along_virtual_axis_is_zero():
    doms = w_domains(DomainSpec(TORUS, 2, (6, 6), 7))
    y = doms["y"]
    f = np.cos(y.mesh("x"))
    assert np.max(np.abs(y.diff(f, "theta", 1))) == 0.0


def test_lp_norm_of_unit_field():
    doms = w_domains(DomainSpec(TORUS, 2, (8, 8), 7))
    g = make_metric("product_flat", doms["y"])
    one = np.ones(doms["y"].shape)
    for p in (1, 2, 4):
        assert lp_norm(one, g, p) == pytest.approx(TWO_PI ** (3.0 / p))
    with pytest.raises(ConfigError):
        lp_norm(one, g, 0)
    with pytest.raises(ConfigError):
        lp_norm(one, g, 1.5)


def test_lp_norm_uses_metric_volume():
    # doubling the metric scales sqrt(det) by 2^(dim/2)
    doms = w_domains(DomainSpec(TORUS, 2, (8, 8), 7))
    y = doms["y"]
    g1 = make_metric("product_flat", y)
    comp = 4.0 * np.broadcast_to(np.eye(3), y.shape + (3, 3))
    from pscbench.metrics import MetricField
    g4 = MetricField(y, comp, np.zeros(y.shape + (3, 3, 3)),
                     np.zeros(y.shape + (3, 3, 3, 3)))
    one = np.ones(y.shape)
    assert lp_norm(one, g4, 1) == pytest.approx(8.0 * lp_norm(one, g1, 1))


def test_c1_norm_constant_and_slope():
    dom = build_domain(DomainSpec(TORUS, 2, (12, 12), 9))
    const = np.full(dom.shape, 0.7)
    assert c1_norm(const, gradient(dom, const)) == pytest.approx(0.7)
    f = np.cos(dom.mesh("x")) * np.ones(dom.shape)
    manual = float(np.max(np.abs(f)))
    manual += max(float(np.max(np.abs(dom.diff(f, nm, 1))))
                  for nm in ("x", "y", "t"))
    assert c1_norm(f, gradient(dom, f)) == pytest.approx(manual)


def test_mesh_and_gradient_layout():
    doms = w_domains(DomainSpec(TORUS, 2, (6, 8), 7))
    y = doms["y"]
    assert y.mesh("x").shape == (6, 1)
    with pytest.raises(ValueError):
        y.mesh("theta")
    f = np.cos(y.mesh("x")) + np.sin(y.mesh("y"))
    grad = gradient(y, f)
    assert grad.shape == y.shape + (3,)
    assert np.max(np.abs(grad[..., y.index("theta")])) == 0.0
    grad2, hess = derivatives(y, f)
    assert np.array_equal(grad2, grad)
    assert hess.shape == y.shape + (3, 3)
    assert np.max(np.abs(hess - np.swapaxes(hess, -1, -2))) < 1e-12


def test_derivatives_match_the_separate_passes_bitwise():
    # one pass must give exactly the partials of gradient plus the old
    # hessian loop, which took the first differences a second time
    t3 = stored_theta_y(8)
    w = build_domain(DomainSpec(TORUS, 2, (6, 6), 7))
    m = w.without("t").with_axis(periodic_axis("theta", 6)).with_axis(
        w.axis("t"))
    for dom in (t3, m):
        f = rng_phi(dom, seed=3)
        grad, hess = derivatives(dom, f)
        assert np.array_equal(grad, gradient(dom, f))
        assert np.array_equal(hess, hessian_coords_reference(dom, f))
    # trailing component dimensions pass through
    comp = np.stack([rng_phi(t3, seed=s) for s in range(2)], axis=-1)
    grad, hess = derivatives(t3, comp)
    assert grad.shape == comp.shape + (3,)
    assert hess.shape == comp.shape + (3, 3)
    for c in range(2):
        assert np.array_equal(hess[..., c, :, :],
                              hessian_coords_reference(t3, comp[..., c]))


def test_fields_to_csv_roundtrip(tmp_path):
    dom = build_domain(DomainSpec(TORUS, 2, (4, 4), 5))
    path = tmp_path / "fields.csv"
    f = np.cos(dom.mesh("x")) + 0.25 * dom.mesh("t")
    fields_to_csv(path, dom, {"f": np.broadcast_to(f, dom.shape)})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,t,f"  # coordinates are prepended automatically
    assert len(lines) == dom.node_count + 1
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, -1] - np.broadcast_to(f, dom.shape).ravel())) < 1e-11
    grids = coordinate_columns(dom)
    assert np.max(np.abs(data[:, 0] - grids["x"])) < 1e-11
    with pytest.raises(ValueError):
        fields_to_csv(path, dom, {"bad": np.zeros((2, 2))})


def _savetxt_bytes(path, domain, columns):
    """What np.savetxt(fmt="%.12g") writes for the dump of `columns`."""
    table = dict(coordinate_columns(domain))
    table.update({k: np.asarray(v, dtype=float).ravel()
                  for k, v in columns.items()})
    np.savetxt(path, np.column_stack(list(table.values())), fmt="%.12g",
               delimiter=",", header=",".join(table), comments="")
    return path.read_bytes()


def test_fields_to_csv_matches_savetxt(tmp_path):
    # the one-call formatter writes the bytes np.savetxt wrote row by row:
    # negative zero, 1e-300 and a length-1 axis included
    dom = DiscreteDomain((periodic_axis("x", 1), mirror_axis("rho", 6),
                          bounded_axis("t", 5)))
    f = np.cos(dom.mesh("rho")) * dom.mesh("t") * np.ones(dom.shape)
    f[0, 0, 0] = -0.0
    f[0, 1, 0] = 1e-300
    f[0, 2, 0] = -1.0 / 3.0
    cols = {"f": f, "g": 1e6 * f}
    path = tmp_path / "fields.csv"
    fields_to_csv(path, dom, cols)
    oracle = _savetxt_bytes(tmp_path / "oracle.csv", dom, cols)
    assert b"-0," in oracle and b"1e-300" in oracle
    assert path.read_bytes() == oracle

    # the rows of one node of the outer axes are joined over the last
    # axis, whichever it is: a 2-D torus slice with the certificate dump's
    # three columns, a 1-D mirror axis, and a last axis of length 1
    torus = with_circle(build_domain(DomainSpec(TORUS, 2, (6, 5), 5))
                        .without("t"))
    rng = np.random.default_rng(3)
    cases = [
        (torus, {c: rng.standard_normal(torus.shape) * 10.0 ** rng.integers(
            -8, 8, torus.shape) for c in ("r_exact", "r_chain", "r_bound")}),
        (DiscreteDomain((mirror_axis("rho", 7),)),
         {"f": np.sin(np.arange(7.0)) / 3.0}),
        (DiscreteDomain((mirror_axis("rho", 4), periodic_axis("x", 1))),
         {"f": -np.arange(4.0).reshape(4, 1) / 7.0, "g": np.zeros((4, 1))}),
    ]
    for k, (dom, cols) in enumerate(cases):
        path = tmp_path / f"case{k}.csv"
        fields_to_csv(path, dom, cols)
        assert path.read_bytes() == _savetxt_bytes(
            tmp_path / f"oracle{k}.csv", dom, cols)

    # the t >= 0 half of an even u, through the report's dump
    w = build_domain(DomainSpec(TORUS, 2, (4, 5), 9))
    u = np.cos(w.mesh("x")) * (1.0 - w.mesh("t") ** 2) / 3.0 * np.ones(w.shape)
    u = 0.5 * (u + u[..., ::-1])
    write_field_csvs(RunReport("solve", {}, {"w": w, "u": u}),
                     str(tmp_path), "even")
    half = DiscreteDomain(tuple(upper_half(a) if a.name == "t" else a
                                for a in w.axes))
    assert (tmp_path / "even_u.csv").read_bytes() == _savetxt_bytes(
        tmp_path / "oracle_u.csv", half, {"u": u[..., 4:]})
