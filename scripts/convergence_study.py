#!/usr/bin/env python3
"""Grid-refinement studies for the discrete geometry stack.

Three studies, each a table of sup-errors against resolution with the
observed order between consecutive rows:

  sphere-oracle     scalar curvature of the round sphere vs 2/r^2, with
                    stencil-differentiated metric components
  slice-curvature   assembled slice curvature (normal decomposition plus
                    transverse terms) vs direct curvature of the restricted
                    metric, on a conformally deformed product
  certificate-gap   law-chained certificate curvature vs the direct
                    curvature of the deformed slice in a full pipeline run

    python3 scripts/convergence_study.py --study all --out-dir studies
"""

import argparse
import csv
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pscbench.config import parse_config
from pscbench.curvature import gauss_codazzi_scalar, hypersurface_data
from pscbench.grids import (SPHERE, TORUS, DomainSpec, build_domain,
                            periodic_axis, w_domains)
from pscbench.metrics import as_fd, conformal_metric, make_metric, \
    restrict_metric
from pscbench.normal import unit_normal
from pscbench.pipeline import run_scenario


def sphere_oracle_error(n, r=1.0):
    y = w_domains(DomainSpec(SPHERE, 2, (n,), 5))["y"]
    g = as_fd(make_metric("sphere_product", y, r=r))
    return float(np.max(np.abs(g.scalar - 2.0 / r ** 2)))


def slice_curvature_error(n):
    # deform a flat 3-torus with a smooth factor carrying analytic jets;
    # only the direct curvature of the restricted slice is re-derived with
    # stencils, so the residual is a genuine truncation error
    xdom = build_domain(DomainSpec(TORUS, 2, (n, n), 5)).without("t")
    y = xdom.with_axis(periodic_axis("theta", n))
    g0 = make_metric("twisted_flat", y, c=0.5)
    cx, cy, ct = (y.mesh(nm) for nm in ("x", "y", "theta"))
    a = 0.1
    phi = a * np.cos(cx) * np.cos(cy) * np.cos(ct)
    trig = {
        "x": (-a * np.sin(cx) * np.cos(cy) * np.cos(ct)),
        "y": (-a * np.cos(cx) * np.sin(cy) * np.cos(ct)),
        "theta": (-a * np.cos(cx) * np.cos(cy) * np.sin(ct)),
    }
    names = ("x", "y", "theta")
    dphi = np.stack([np.broadcast_to(trig[nm], y.shape) for nm in names],
                    axis=-1)
    d2phi = np.empty(y.shape + (3, 3))
    sgn = {"x": np.sin(cx), "y": np.sin(cy), "theta": np.sin(ct)}
    cos = {"x": np.cos(cx), "y": np.cos(cy), "theta": np.cos(ct)}
    for i, ni in enumerate(names):
        for j, nj in enumerate(names):
            if i == j:
                d2phi[..., i, j] = -phi
            else:
                other = [nm for nm in names if nm not in (ni, nj)][0]
                d2phi[..., i, j] = a * sgn[ni] * sgn[nj] * cos[other]
    g = conformal_metric(g0, phi, dphi=dphi, d2phi=d2phi)
    mu = unit_normal(g)
    hyp = hypersurface_data(g, ("x", "y"), mu)
    assembled = gauss_codazzi_scalar(g.scalar, hyp.ric_nn,
                                     hyp.h_mean, hyp.a_norm2)
    kth = y.array_axis("theta")
    worst = 0.0
    for k in (0, n // 3):
        h = restrict_metric(g, xdom, at={"theta": k})
        direct = as_fd(h).scalar
        got = np.take(assembled, k, axis=kth)
        worst = max(worst, float(np.max(np.abs(got - direct))))
    return worst


def certificate_gap(n, tmp_dir):
    t_nodes = 2 * n + 1
    path = os.path.join(tmp_dir, f"gap_{n}.cfg")
    with open(path, "w") as fh:
        fh.write("[domain]\nbackend = sphere-axisym\n"
                 f"resolution = {n}\nt_nodes = {t_nodes}\n\n"
                 "[metric]\nname = sphere_twist\nr = 1.0\nbeta0 = 0.5\n\n"
                 "[forcing]\np = 1\ndelta = 40.0\n")
    rep = run_scenario(parse_config(path))
    return rep.body["certificate"]["chain_gap_max"]


STUDIES = {
    "sphere-oracle": (sphere_oracle_error, (16, 32, 64, 128)),
    "slice-curvature": (slice_curvature_error, (16, 32, 64)),
    "certificate-gap": (certificate_gap, (24, 48, 96)),
}


def run_study(name, out_dir):
    fn, resolutions = STUDIES[name]
    rows = []
    print(f"-- {name}")
    prev = None
    for n in resolutions:
        if name == "certificate-gap":
            err = fn(n, out_dir)
        else:
            err = fn(n)
        order = math.log2(prev / err) if prev else float("nan")
        rows.append({"resolution": n, "sup_error": f"{err:.6e}",
                     "order": "" if prev is None else f"{order:.3f}"})
        print(f"  n = {n:4d}  err {err:.6e}" +
              ("" if prev is None else f"  order {order:.3f}"))
        prev = err
    path = os.path.join(out_dir, f"{name}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"  wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--study", choices=(*STUDIES, "all"), default="all")
    ap.add_argument("--out-dir", default="studies")
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    names = list(STUDIES) if args.study == "all" else [args.study]
    for name in names:
        run_study(name, args.out_dir)


if __name__ == "__main__":
    main()
