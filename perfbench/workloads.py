"""Benchmark workloads: the scenario configs each one generates, what every
scenario must produce, and the reference values the checks compare with.

Only the stdlib is imported here, so the set-up timer in scenario_loop.py
starts before numpy and scipy load.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

# The seed picks the twist (twisted_flat c, sphere_twist beta0) from this
# range; seed 0 keeps the shipped value. Both metrics are subcritical on it
# (section angle arctan(c) < pi/4 needs c < 1; sphere_twist reaches pi/4 at
# beta0 = 1), so every scenario passes the angle and ellipticity tests.
SHIPPED_TWIST = 0.5
TWIST_RANGE = (0.35, 0.65)

# R_bound <= R_chain + SOUNDNESS_TOL at every node (certificate soundness).
SOUNDNESS_TOL = 1e-8
# A flat slice has scalar curvature 0, so min R_bound and min R_exact are
# round-off (about 1e-13 at every grid and twist tried). They are checked
# against 0 within this budget, never by their sign.
FLAT_BUDGET = 1e-9
# Seed-0 references below are the report values, printed at 12 digits.
REFERENCE_TOL = 1e-8

# min_r_bound / min_r_exact at seed 0 on the full grids, from the report
# bodies. Flat slices are not listed: FLAT_BUDGET checks them at every seed.
REFERENCES = {
    "sphere256": {"min_r_bound": 0.274162829823,
                  "min_r_exact": 0.27504694913},
    "sphere_product": {"min_r_bound": 1.29151187294,
                       "min_r_exact": 1.29225843184},
    "sphere_twist": {"min_r_bound": 0.275687753179,
                     "min_r_exact": 0.276390295695},
}


@dataclass(frozen=True)
class Scenario:
    stem: str          # config file name without .cfg; names the reports
    text: str          # config file contents
    expect_exit: int   # pscbench exit code this scenario must end with
    flat: bool         # flat slice: min R checked against 0 within budget


@dataclass(frozen=True)
class Workload:
    verb: str          # "certify": one scenario per call; "batch": all
    scenarios: tuple


def _torus(res, t_nodes, metric, delta=160.0, forcing=True):
    text = (f"[domain]\nbackend = torus\ndim_x = 2\nresolution = {res}\n"
            f"t_nodes = {t_nodes}\n\n[metric]\n{metric}\n")
    if forcing:
        text += f"\n[forcing]\np = 1\ndelta = {delta}\nC = auto\n"
    return text


def _sphere(res, t_nodes, metric, delta):
    return (f"[domain]\nbackend = sphere-axisym\nresolution = {res}\n"
            f"t_nodes = {t_nodes}\n\n[metric]\n{metric}\nr = 1.0\n\n"
            f"[forcing]\np = 1\ndelta = {delta}\nC = auto\n")


def twists(seed: int, count: int) -> list:
    """Twist parameters for a seed: shipped values at 0, else uniform draws
    from TWIST_RANGE, rounded so that they print exactly in a config."""
    if seed == 0:
        return [SHIPPED_TWIST] * count
    rng = random.Random(seed)
    return [round(rng.uniform(*TWIST_RANGE), 6) for _ in range(count)]


NAMES = ("torus24-certify", "sphere256-certify", "shipped-batch")


def build(name: str, seed: int, coarse: bool = False) -> Workload:
    """The workload's scenarios for a seed. `coarse` shrinks the grids of
    the two large workloads for the benchmark's own smoke tests."""
    if name == "torus24-certify":
        (c,) = twists(seed, 1)
        res = 8 if coarse else 24
        return Workload("certify", (
            Scenario("torus24",
                     _torus(res, 49, f"name = twisted_flat\nc = {c}"),
                     0, True),))
    if name == "sphere256-certify":
        (beta0,) = twists(seed, 1)
        res, t_nodes = (32, 49) if coarse else (256, 129)
        return Workload("certify", (
            Scenario("sphere256",
                     _sphere(res, t_nodes,
                             f"name = sphere_twist\nbeta0 = {beta0}", 40.0),
                     0, False),))
    if name == "shipped-batch":
        c, beta0 = twists(seed, 2)
        return Workload("batch", (
            Scenario("flat_torus", _torus(12, 49, "name = product_flat"),
                     0, True),
            Scenario("sphere_product",
                     _sphere(48, 49, "name = sphere_product", 16.0), 0, False),
            Scenario("sphere_twist",
                     _sphere(48, 49, f"name = sphere_twist\nbeta0 = {beta0}",
                             40.0), 0, False),
            Scenario("twisted_flat_c05",
                     _torus(12, 49, f"name = twisted_flat\nc = {c}"), 0, True),
            Scenario("twisted_flat_c10",
                     _torus(12, 49, "name = twisted_flat\nc = 1.0",
                            forcing=False), 2, False),
        ))
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def write_inputs(workload: Workload, directory: str) -> list:
    """Write one .cfg per scenario into `directory`; return their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for sc in workload.scenarios:
        path = os.path.join(directory, f"{sc.stem}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sc.text)
        paths.append(path)
    return paths
