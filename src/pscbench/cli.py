"""Command line entry points.

Verbs mirror the pipeline stages: check-angle stops after the hypothesis
tests, solve after the Dirichlet solve, certify runs everything; batch maps
certify over a directory of configs. Exit codes are the scriptable result:
0 for a completed run (the verdict itself is in the report), 2 when a
hypothesis fails, 3 for numerical breakdowns, 4 for configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import parse_config
from .errors import ConfigError, PscbenchError
from .pipeline import run_scenario
from .report import emit_report, write_field_csvs

OUTPUT_ENV = "PSCBENCH_OUTPUT_DIR"

_VERB_STAGE = {"check-angle": "angle", "solve": "solve", "certify": "certify"}


def _resolve_output_dir(flag_value, config) -> str:
    if flag_value:
        return flag_value
    env = os.environ.get(OUTPUT_ENV)
    if env:
        return env
    return config.output_dir


def _run_one(config_path: str, stage: str, output_flag) -> int:
    config = parse_config(config_path)
    out_dir = _resolve_output_dir(output_flag, config)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {out_dir}: {exc}") from exc
    report = run_scenario(config, stage=stage)
    stem = os.path.splitext(os.path.basename(config_path))[0]
    paths = [
        emit_report(report, "text", os.path.join(out_dir, f"{stem}.report.txt")),
        emit_report(report, "structured",
                    os.path.join(out_dir, f"{stem}.report.ini")),
    ]
    paths += write_field_csvs(report, out_dir, stem)
    angle = report.body["angle"]
    print(f"{stem}: stage={stage} max_angle={angle['max_angle']:.6g} "
          f"margin={angle['margin']:.6g}")
    if angle["flag"] != "none":
        print(f"{stem}: flag: {angle['flag']}")
    if "certificate" in report.body:
        cert = report.body["certificate"]
        print(f"{stem}: verdict={'true' if cert['verdict'] else 'false'} "
              f"min_r_bound={cert['min_r_bound']:.6g}")
    for path in paths:
        print(f"{stem}: wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pscbench",
        description="discrete positive-scalar-curvature workbench")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("check-angle", "solve", "certify"):
        p = sub.add_parser(verb)
        p.add_argument("config")
        p.add_argument("--output-dir", default=None)
    p = sub.add_parser("batch")
    p.add_argument("directory")
    p.add_argument("--output-dir", default=None)

    args = parser.parse_args(argv)

    if args.verb in _VERB_STAGE:
        try:
            return _run_one(args.config, _VERB_STAGE[args.verb],
                            args.output_dir)
        except PscbenchError as exc:
            print(f"error[exit {exc.exit_code}]: {exc}", file=sys.stderr)
            return exc.exit_code

    # batch: every scenario runs; the worst exit code wins. Reports are
    # skipped, so a batch may write into its own input directory.
    try:
        entries = sorted(
            os.path.join(args.directory, name)
            for name in os.listdir(args.directory)
            if name.endswith((".cfg", ".ini"))
            and not name.endswith(".report.ini"))
    except OSError as exc:
        print(f"error[exit 4]: cannot list {args.directory}: {exc}",
              file=sys.stderr)
        return ConfigError.exit_code
    if not entries:
        print(f"error[exit 4]: no scenario configs (*.cfg, *.ini) in "
              f"{args.directory}", file=sys.stderr)
        return ConfigError.exit_code
    worst = 0
    for entry in entries:
        try:
            code = _run_one(entry, "certify", args.output_dir)
        except PscbenchError as exc:
            code = exc.exit_code
            stem = os.path.splitext(os.path.basename(entry))[0]
            print(f"{stem}: error[exit {code}]: {exc}", file=sys.stderr)
        worst = max(worst, code)
    return worst
