#!/usr/bin/env python3
"""Sweep the twist strength and record the section angle diagnostics.

For the flat twisted torus the angle is arctan(c) and the operator
degenerates at c = 1; for the twisted sphere bundle the worst angle is
arctan(beta0 * max sin(rho) / r). The sweep writes one CSV row per
parameter value so the approach to the critical angle can be plotted.
The swept parameter is the last one metrics.BUILTINS declares for the
metric (c, beta0); the metric's backend and its other parameters (--r)
come from the same table. Values whose metric or grid is rejected are
printed and skipped; when none is left the script exits 4 and writes no
file.

    python3 scripts/angle_sweep.py --metric twisted_flat --stop 1.2
    python3 scripts/angle_sweep.py --metric sphere_twist --stop 1.5 --r 1.0
"""

import argparse
import csv
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pscbench.errors import PscbenchError
from pscbench.grids import TORUS, DomainSpec, w_domains
from pscbench.metrics import BUILTINS, make_metric
from pscbench.normal import normal_frame

SWEEPABLE = sorted(name for name, b in BUILTINS.items() if b.params)


def sweep_value(metric, value, resolution, r):
    builtin = BUILTINS[metric]
    names = [p.name for p in builtin.params]
    spec = DomainSpec(builtin.backend, 2,
                      (resolution,) * (2 if builtin.backend == TORUS else 1),
                      5)
    params = {"r": r} if "r" in names else {}
    params[names[-1]] = value
    y = w_domains(spec)["y"]
    return normal_frame(make_metric(metric, y, **params))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--metric", choices=SWEEPABLE, default="twisted_flat")
    ap.add_argument("--start", type=float, default=0.0)
    ap.add_argument("--stop", type=float, default=1.2)
    ap.add_argument("--steps", type=int, default=25)
    ap.add_argument("--resolution", type=int, default=24)
    ap.add_argument("--r", type=float, default=1.0,
                    help="sphere radius, for the metrics that take r")
    ap.add_argument("--out", default="angle_sweep.csv")
    args = ap.parse_args()

    rows = []
    for value in np.linspace(args.start, args.stop, args.steps):
        try:
            fr = sweep_value(args.metric, float(value), args.resolution,
                             args.r)
        except PscbenchError as exc:  # degenerate metrics are data
            print(f"{value:8.4f}  rejected: {exc}")
            continue
        rows.append({
            "value": f"{value:.12g}",
            "max_angle": f"{fr.max_angle:.12g}",
            "margin": f"{fr.margin:.12g}",
            "elliptic": "true" if fr.is_elliptic else "false",
        })
        mark = "" if fr.is_elliptic else "  <-- not elliptic"
        print(f"{value:8.4f}  angle {fr.max_angle:8.5f}  "
              f"margin {fr.margin:9.5f}{mark}")

    if not rows:
        print(f"angle_sweep: no value survived; {args.out} not written",
              file=sys.stderr)
        return 4
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows); "
          f"critical angle pi/4 = {math.pi / 4:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
