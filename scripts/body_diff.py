#!/usr/bin/env python3
"""Compare the certify outputs of this tree with those of another checkout.

    python3 scripts/body_diff.py --checkout DIR

Runs `python -m pscbench certify`, once with this tree's src/ and once
with DIR's, on the shipped configs (configs/*.cfg) and on the
seed-0 torus24 and sphere256 configs of perfbench/workloads.py, both
taken from this tree so that the two runs read the same input. For every
scenario it prints a differing exit code, every report-body line (above
the non-deterministic footer) that differs, with the absolute difference
of its numbers, every body line only one side writes (lines are matched
by section and key), and every CSV that differs, with the largest
absolute difference of its cells.

Stdlib only. Exits 0 when nothing differs, 1 when something does, and 2,
running nothing, when DIR holds no src/pscbench.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FOOTER_MARK = "# --- non-deterministic footer ---"
BENCH_SCENARIOS = (("torus24-certify", "torus24"),
                   ("sphere256-certify", "sphere256"))


def scenario_configs(directory: Path) -> list:
    """Write the compared configs into `directory`; return their paths."""
    paths = sorted((ROOT / "configs").glob("*.cfg"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    for name, stem in BENCH_SCENARIOS:
        (scenario,) = [s for s in workloads.build(name, 0).scenarios
                       if s.stem == stem]
        path = directory / f"{stem}.cfg"
        path.write_text(scenario.text)
        paths.append(path)
    return paths


def certify(tree: Path, config: Path, out_dir: Path) -> int:
    """Run certify with `tree`'s package; its exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "pscbench", "certify", str(config),
         "--output-dir", str(out_dir)],
        env=env, capture_output=True, text=True).returncode


def body(path: Path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[:lines.index(FOOTER_MARK)] if FOOTER_MARK in lines else lines


def number_gap(a: str, b: str) -> str:
    """The absolute difference of two report values, when both are
    numbers."""
    try:
        return f"{abs(float(a) - float(b)):.3g}"
    except ValueError:
        return "not numeric"


def keyed(lines: list) -> dict:
    """A body's lines by (section, key, occurrence): the key is the text
    before " = ", or the whole line when it holds none."""
    section, seen, out = "", {}, {}
    for line in lines:
        if line.startswith("== "):
            section = line
        key = (section, line.partition(" = ")[0])
        seen[key] = seen.get(key, 0) + 1
        out[key + (seen[key],)] = line
    return out


def body_diffs(ours: Path, theirs: Path) -> list:
    """Every body line that changed, with the gap of its numbers, and
    every line only one side has, matched by section and key."""
    mine, other = keyed(body(ours)), keyed(body(theirs))
    out = []
    for key, b in other.items():
        a = mine.get(key)
        if a is None:
            out.append(f"  {ours.name}: {b!r} removed")
        elif a != b:
            gap = number_gap(a.partition(" = ")[2], b.partition(" = ")[2])
            out.append(f"  {ours.name}: {b!r} -> {a!r} (|diff| {gap})")
    out += [f"  {ours.name}: {a!r} added"
            for key, a in mine.items() if key not in other]
    return out


def csv_gap(ours: Path, theirs: Path) -> str:
    """The largest absolute cell difference of two CSVs of one shape."""
    with open(ours, newline="") as fa, open(theirs, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if ([len(r) for r in rows_a] != [len(r) for r in rows_b]
            or rows_a[:1] != rows_b[:1]):
        return "header or shape differs"
    gap = 0.0
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        for a, b in zip(ra, rb):
            if a != b:
                try:
                    gap = max(gap, abs(float(a) - float(b)))
                except ValueError:
                    return f"cell {b!r} -> {a!r}"
    return f"max |diff| {gap:.3g}"


def compare(ours: Path, theirs: Path, codes) -> list:
    out = []
    if codes[0] != codes[1]:
        out.append(f"  exit {codes[1]} -> {codes[0]}")
    names_a = {p.name for p in ours.iterdir()}
    names_b = {p.name for p in theirs.iterdir()}
    for name in sorted(names_a ^ names_b):
        out.append(f"  {name}: written by one tree only")
    for name in sorted(names_a & names_b):
        a, b = ours / name, theirs / name
        if name.endswith(".report.txt"):
            out += body_diffs(a, b)
        elif name.endswith(".csv") and a.read_bytes() != b.read_bytes():
            out.append(f"  {name}: differs, {csv_gap(a, b)}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", type=Path, required=True,
                    help="the source tree to compare against")
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "pscbench").is_dir():
        print(f"body_diff: {checkout} has no src/pscbench", file=sys.stderr)
        return 2

    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for config in scenario_configs(tmp):
            dirs = [tmp / "out" / side / config.stem
                    for side in ("this", "checkout")]
            codes = [certify(tree, config, d)
                     for tree, d in zip((ROOT, checkout), dirs)]
            for d in dirs:
                d.mkdir(parents=True, exist_ok=True)
            lines = compare(*dirs, codes)
            print(f"{config.stem}: exit {codes[0]}, "
                  f"{'differs' if lines else 'identical'}")
            for line in lines:
                print(line)
            differs |= bool(lines)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
