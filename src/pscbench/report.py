"""Run reports: deterministic body, parseable structured form, CSV dumps.

The body is ordered sections of (key, value) lines, each value printed
by its type: bools as true/false, floats at 12 significant digits, so
byte identity across repeat runs is a testable property. Wall time is
real information but not deterministic; it lives below an explicit
footer marker that consumers can split on.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalFailure
from .grids import DiscreteDomain, fields_to_csv, rewrite, upper_half

FOOTER_MARK = "# --- non-deterministic footer ---"


@dataclass
class RunReport:
    """Everything one scenario run measured, plus the field arrays.

    body is {section: {key: value}} in print order; the pipeline adds
    each section when its stage finishes, so a run that stopped early has
    no later sections and a report's shape is a function of its stage.
    """
    stage: str
    body: dict
    fields: dict = field(default_factory=dict)
    wall_time: float | None = None


def _num(value) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise NumericalFailure(
            f"report field is not finite ({value!r}); refusing to emit")
    return f"{value:.12g}"


def _text(value) -> str:
    # bool first: a bool is an int. np.float64 is a float
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _num(value)
    return str(value)


def report_pairs(report) -> list:
    """The deterministic body of a RunReport (or a parsed ReportDoc) as
    ordered (section, key, text) triples."""
    return [(section, key, _text(value))
            for section, lines in report.body.items()
            for key, value in lines.items()]


def _render(pairs, footer_pairs, structured: bool) -> str:
    lines = []
    if not structured:
        lines.append("pscbench scenario report")
    section = None
    for sec, key, value in pairs:
        if sec != section:
            if structured:
                lines.append(f"[{sec}]")
            else:
                lines.append("")
                lines.append(f"== {sec} ==")
            section = sec
        lines.append(f"{key} = {value}")
    lines.append("")
    lines.append(FOOTER_MARK)
    for key, value in footer_pairs:
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def render_report(report: RunReport, fmt: str = "text") -> str:
    if fmt not in ("text", "structured"):
        raise ConfigError(f"unknown report format {fmt!r}")
    wall = report.wall_time if report.wall_time is not None else 0.0
    return _render(report_pairs(report), [("wall_time_s", f"{wall:.6f}")],
                   structured=(fmt == "structured"))


def emit_report(report: RunReport, fmt: str, path: str) -> str:
    """Write the report in `fmt` to `path` and return the path.

    The file holds exactly render_report(report, fmt) encoded as UTF-8,
    with "\\n" line ends on every platform; an existing file is rewritten
    in place by grids.rewrite. An OSError is a ConfigError (exit 4).
    """
    try:
        rewrite(path, render_report(report, fmt).encode("utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot write report {path}: {exc}") from exc
    return path


@dataclass
class ReportDoc:
    """Parsed structured report: the body as {section: {key: text}} in
    file order, plus the footer's (key, text) pairs."""
    body: dict
    footer: list

    def get(self, section: str, key: str):
        return self.body.get(section, {}).get(key)


def parse_report(path: str) -> ReportDoc:
    """Inverse of the structured writer: serializing the result is
    byte-identical to the input file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from exc
    body, footer = {}, []
    section = None
    in_footer = False
    for line in raw.splitlines():
        if line == FOOTER_MARK:
            in_footer = True
            continue
        if not line.strip():
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            continue
        if " = " not in line:
            raise ConfigError(f"unparseable report line {line!r} in {path}")
        key, value = line.split(" = ", 1)
        if in_footer:
            footer.append((key, value))
        elif section is None:
            raise ConfigError(f"report line {line!r} precedes any section")
        else:
            body.setdefault(section, {})[key] = value
    return ReportDoc(body=body, footer=footer)


def write_field_csvs(report: RunReport, out_dir: str, stem: str) -> list:
    """Dump the per-node fields: slice diagnostics, u, and the three
    certificate curvatures. Only what the reached stage produced.

    Each dump is `<out_dir>/<stem>_<name>.csv`, written by
    grids.fields_to_csv (UTF-8, "\\n" line ends, rewritten in place when it
    exists); an OSError is a ConfigError (exit 4). Returns the paths
    written.

    u is even in t, so its dump holds the t >= 0 half of W: rows t = 0
    through t = 1 for every X node, each byte for byte the row a dump over
    all of W holds; u(-t) = u(t) gives the rest. A u that is not bitwise
    even would lose information that way: NumericalFailure, and nothing
    is written.
    """
    fields = dict(report.fields or {})
    if "u" in fields:
        w, u = fields["w"], fields["u"]
        t = w.axis("t")
        mirror = u[..., ::-1]
        if not np.array_equal(u, mirror):
            raise NumericalFailure(
                f"u is not even in t (max |u(t) - u(-t)| = "
                f"{float(np.max(np.abs(u - mirror))):.3e}); refusing to "
                f"write its t >= 0 half")
        fields["w"] = DiscreteDomain(tuple(upper_half(a) if a is t else a
                                           for a in w.axes))
        fields["u"] = u[..., t.n // 2:]
    written = []

    def dump(name, domain_key, columns):
        cols = {k: fields[k] for k in columns if k in fields}
        if not cols or domain_key not in fields:
            return
        path = os.path.join(out_dir, f"{stem}_{name}.csv")
        try:
            fields_to_csv(path, fields[domain_key], cols)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        written.append(path)

    dump("angle", "y", ("angle", "margin_minor"))
    dump("u", "w", ("u",))
    dump("certificate", "y", ("r_exact", "r_chain", "r_bound"))
    return written
