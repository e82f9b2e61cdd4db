"""Run configuration: flat INI sections validated into a RunConfig.

Diagnostics carry file and line: a batch of scenario files is edited by
hand, and "[forcing] delta expects a number" without a location is useless
at that moment. One scan reads each key's value and pins it, and each
section header, to its line before values are interpreted.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

from .errors import ConfigError
from .grids import SPHERE, TORUS, DomainSpec, build_domain
from .metrics import BUILTINS

# section -> known keys; unknown keys are refused, not ignored, so a typo
# like "tolerence" cannot silently run with the default. [metric] takes
# every builtin's parameters; which one takes which is checked per name
_SCHEMA = {
    "domain": ("backend", "dim_x", "resolution", "t_nodes"),
    "metric": ("name", "components_file",
               *dict.fromkeys(p.name for b in BUILTINS.values()
                              for p in b.params)),
    "forcing": ("p", "delta", "C"),
    "solver": ("tolerance",),
    "output": ("directory",),
}

# the whole grammar, matched against a stripped line; anything else but a
# blank line or a full-line "#"/";" comment is refused at its line
_SECTION_RE = re.compile(r"\[([^\]]+)\]")
_KEY_RE = re.compile(r"([^=:\s][^=:]*?)\s*[=:]\s*(.*)")


@dataclass
class RunConfig:
    """Validated scenario parameters plus a deterministic echo of them."""
    domain: DomainSpec
    metric_name: str
    metric_params: dict
    components_file: str | None
    p: int
    delta: float
    c_mode: object          # the literal string "auto" or a float
    tolerance: float
    output_dir: str
    echo: dict = field(default_factory=dict)


class _Reader:
    """One pass over a scenario file: each key's value, and the line of
    each section header and key."""

    def __init__(self, path):
        self.path = path
        self.values = {}    # (section, key) -> value
        self.lines = {}     # (section, key), or (section, None) -> line
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        section = None
        for no, line in enumerate(file_lines, start=1):
            line = line.strip()
            if not line or line[0] in "#;":
                continue
            header = _SECTION_RE.fullmatch(line)
            item = None if header else _KEY_RE.fullmatch(line)
            if header:
                section, key = header.group(1), None
            elif item and section is not None:
                key = item.group(1)
            elif item:
                raise ConfigError(
                    f"{path}:{no}: key {item.group(1)!r} before any "
                    f"[section]")
            else:
                raise ConfigError(
                    f"{path}:{no}: expected [section], key = value or a "
                    f"comment line, got {line!r}")
            if (section, key) in self.lines:
                raise ConfigError(
                    f"{path}:{no}: repeated " + (
                        f"key {key!r} in [{section}]" if item
                        else f"section [{section}]"))
            self.lines[section, key] = no
            if item:
                self.values[section, key] = item.group(2)

    def loc(self, section, key=None):
        return f"{self.path}:{self.lines[section, key]}"

    def raw(self, section, key, default=None):
        return self.values.get((section, key), default)

    def number(self, section, key, default, check=None, describe=""):
        raw = self.raw(section, key)
        if raw is None:
            value = default
        else:
            try:
                value = float(raw)
            except ValueError:
                raise ConfigError(
                    f"{self.loc(section, key)}: [{section}] {key} expects a "
                    f"number, got {raw!r}")
            if not math.isfinite(value):
                raise ConfigError(
                    f"{self.loc(section, key)}: [{section}] {key} expects a "
                    f"finite number, got {raw!r}")
        if check is not None and not check(value):
            raise ConfigError(
                f"{self.loc(section, key)}: [{section}] {key} = {value:g} "
                f"out of range ({describe})")
        return value

    def integer(self, section, key, default, check=None, describe=""):
        value = self.number(section, key, float(default), check=None)
        if value != int(value):
            raise ConfigError(
                f"{self.loc(section, key)}: [{section}] {key} expects an "
                f"integer, got {value:g}")
        value = int(value)
        if check is not None and not check(value):
            raise ConfigError(
                f"{self.loc(section, key)}: [{section}] {key} = {value} "
                f"out of range ({describe})")
        return value


def parse_config(path: str) -> RunConfig:
    r = _Reader(path)
    for section, key in r.lines:
        if section not in _SCHEMA:
            raise ConfigError(
                f"{r.loc(section)}: unknown section [{section}]")
        if key is not None and key not in _SCHEMA[section]:
            raise ConfigError(
                f"{r.loc(section, key)}: unknown key {key!r} in "
                f"[{section}]")

    if ("metric", None) not in r.lines:
        raise ConfigError(f"{path}: missing [metric] section")

    backend = r.raw("domain", "backend", TORUS)
    if backend not in (TORUS, SPHERE):
        raise ConfigError(
            f"{r.loc('domain', 'backend')}: backend must be "
            f"{TORUS!r} or {SPHERE!r}, got {backend!r}")
    dim_x = r.integer("domain", "dim_x", 2, lambda v: v >= 2, ">= 2")
    t_nodes = r.integer("domain", "t_nodes", 33,
                        lambda v: v >= 5 and v % 2 == 1, "odd and >= 5")

    res_raw = r.raw("domain", "resolution")
    if res_raw is None:
        resolutions = (16,) if backend == SPHERE else (16,) * dim_x
    else:
        parts = [p.strip() for p in res_raw.split(",") if p.strip()]
        try:
            entries = tuple(int(p) for p in parts)
        except ValueError:
            raise ConfigError(
                f"{r.loc('domain', 'resolution')}: [domain] resolution "
                f"expects integers, got {res_raw!r}")
        if any(n < 4 for n in entries):
            raise ConfigError(
                f"{r.loc('domain', 'resolution')}: [domain] resolution "
                f"entries must be >= 4, got {res_raw!r}")
        want = 1 if backend == SPHERE else dim_x
        if len(entries) == 1:
            entries = entries * want
        if len(entries) != want:
            raise ConfigError(
                f"{r.loc('domain', 'resolution')}: [domain] resolution "
                f"needs 1 or {want} entries, got {len(entries)}")
        resolutions = entries
    spec = DomainSpec(backend=backend, dim_x=dim_x, resolutions=resolutions,
                      t_nodes=t_nodes)
    try:
        build_domain(spec)  # a dim_x the backend cannot hold
    except ConfigError as exc:
        raise ConfigError(f"{r.loc('domain', 'dim_x')}: {exc}") from exc

    name = r.raw("metric", "name", None)
    components_file = r.raw("metric", "components_file", None)
    if components_file is not None:
        components_file = os.path.join(os.path.dirname(os.path.abspath(path)),
                                       components_file) \
            if not os.path.isabs(components_file) else components_file
        if not os.path.exists(components_file):
            raise ConfigError(
                f"{r.loc('metric', 'components_file')}: metric table "
                f"{components_file!r} does not exist")
        if name not in (None, "csv"):
            raise ConfigError(
                f"{r.loc('metric', 'name')}: components_file and builtin "
                f"name {name!r} are mutually exclusive")
        name = "csv"
    elif name in (None, "csv"):
        # "csv" names a components_file table, so it needs one
        raise ConfigError(
            f"{r.loc('metric')}: [metric] needs a builtin name or a "
            f"components_file")
    elif name not in BUILTINS:
        raise ConfigError(
            f"{r.loc('metric', 'name')}: unknown metric {name!r}; builtins: "
            f"{', '.join(sorted(BUILTINS))}")
    builtin = BUILTINS.get(name)  # None for a components_file table
    takes = builtin.params if builtin else ()
    allowed = ("name", "components_file", *(p.name for p in takes))
    for section, key in r.values:
        if section == "metric" and key not in allowed:
            raise ConfigError(
                f"{r.loc('metric', key)}: metric {name!r} does not take "
                f"parameter {key!r}")
    params = {p.name: r.number("metric", p.name, p.default, p.check,
                               p.describe) for p in takes}
    if builtin is not None and backend != builtin.backend:
        raise ConfigError(
            f"{r.loc('metric', 'name')}: metric {name!r} needs "
            f"backend = {builtin.backend}")

    p = r.integer("forcing", "p", 4, lambda v: v >= 1, ">= 1")
    delta = r.number("forcing", "delta", 1e-2, lambda v: v > 0.0, "> 0")
    c_raw = r.raw("forcing", "C", "auto")
    if c_raw == "auto":
        c_mode = "auto"
    else:
        c_mode = r.number("forcing", "C", None, lambda v: v > 0.0, "> 0")

    tolerance = r.number("solver", "tolerance", 1e-10,
                         lambda v: v > 0.0, "> 0")

    output_dir = r.raw("output", "directory", ".")

    echo = {
        "domain.backend": backend,
        "domain.dim_x": str(dim_x),
        "domain.resolution": ",".join(str(n) for n in resolutions),
        "domain.t_nodes": str(t_nodes),
        "metric.name": name,
        "forcing.p": str(p),
        "forcing.delta": f"{delta:.12g}",
        "forcing.C": "auto" if c_mode == "auto" else f"{c_mode:.12g}",
        "solver.tolerance": f"{tolerance:.12g}",
    }
    for key, value in sorted(params.items()):
        echo[f"metric.{key}"] = f"{value:.12g}"
    if components_file is not None:
        echo["metric.components_file"] = os.path.basename(components_file)

    return RunConfig(domain=spec, metric_name=name, metric_params=params,
                     components_file=components_file, p=p, delta=delta,
                     c_mode=c_mode, tolerance=tolerance,
                     output_dir=output_dir, echo=echo)
