"""Scenario-file parsing: schema, defaults, and located diagnostics."""

import os
import re

import pytest

from pscbench.config import parse_config
from pscbench.errors import ConfigError
from pscbench.grids import SPHERE, TORUS, DomainSpec, w_domains
from pscbench.metrics import BUILTINS, make_metric


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_readme_minimal_example_parses(tmp_path):
    # the README's ini block is a config as written: a comment after a
    # value would be read as part of the value
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        (block,) = re.findall(r"```ini\n(.*?)```", fh.read(), re.S)
    cfg = parse_config(write_cfg(tmp_path, block))
    assert cfg.domain == DomainSpec(SPHERE, 2, (48,), 49)
    assert (cfg.metric_name, cfg.metric_params) == (
        "sphere_twist", {"r": 1.0, "beta0": 0.5})
    assert (cfg.p, cfg.delta, cfg.c_mode) == (1, 40.0, "auto")
    assert (cfg.tolerance, cfg.output_dir) == (1e-10, "runs")


FULL = """\
[domain]
backend = torus
dim_x = 2
resolution = 12, 10
t_nodes = 49

[metric]
name = twisted_flat
c = 0.5

[forcing]
p = 1
delta = 160
C = 9

[solver]
tolerance = 1e-9

[output]
directory = out
"""


def test_full_roundtrip(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, FULL))
    assert cfg.domain.backend == TORUS
    assert cfg.domain.dim_x == 2
    assert cfg.domain.resolutions == (12, 10)
    assert cfg.domain.t_nodes == 49
    assert cfg.metric_name == "twisted_flat"
    assert cfg.metric_params == {"c": 0.5}
    assert cfg.components_file is None
    assert cfg.p == 1
    assert cfg.delta == 160.0
    assert cfg.c_mode == 9.0
    assert cfg.tolerance == 1e-9
    assert cfg.output_dir == "out"
    assert cfg.echo["domain.resolution"] == "12,10"
    assert cfg.echo["forcing.C"] == "9"
    assert cfg.echo["metric.c"] == "0.5"


def test_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "[metric]\nname = product_flat\n"))
    assert cfg.domain.backend == TORUS
    assert cfg.domain.dim_x == 2
    assert cfg.domain.resolutions == (16, 16)
    assert cfg.domain.t_nodes == 33
    assert cfg.metric_params == {}
    assert cfg.p == 4
    assert cfg.delta == pytest.approx(1e-2)
    assert cfg.c_mode == "auto"
    assert cfg.tolerance == pytest.approx(1e-10)
    assert cfg.output_dir == "."
    assert cfg.echo["forcing.C"] == "auto"


def test_resolution_broadcasts_to_dim_x(tmp_path):
    text = "[domain]\nresolution = 24\n\n[metric]\nname = product_flat\n"
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.domain.resolutions == (24, 24)


def test_sphere_backend_single_resolution(tmp_path):
    text = ("[domain]\nbackend = sphere-axisym\nresolution = 48\n\n"
            "[metric]\nname = sphere_twist\nr = 2.0\nbeta0 = 0.25\n")
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.domain.backend == SPHERE
    assert cfg.domain.resolutions == (48,)
    assert cfg.metric_params == {"r": 2.0, "beta0": 0.25}
    assert cfg.echo["metric.beta0"] == "0.25"


def test_unknown_key_reports_line(tmp_path):
    # a typo and the removed max_iterations key are refused at their line;
    # the removed [slice] p_theta knob at its section header, which went
    # with it
    for section, key, where in (("solver", "tolerence", "5.*tolerence"),
                                ("solver", "max_iterations",
                                 "5.*max_iterations"),
                                ("slice", "p_theta",
                                 r"4: unknown section \[slice\]")):
        text = (f"[metric]\nname = product_flat\n\n[{section}]\n"
                f"{key} = 500\n")
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError, match=rf"{path}:{where}"):
            parse_config(path)


def test_unknown_section_reports_line(tmp_path):
    text = "[metric]\nname = product_flat\n\n[solvers]\ntolerance = 1e-8\n"
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match=rf"{path}:4.*unknown section"):
        parse_config(path)


def test_missing_metric_section(tmp_path):
    path = write_cfg(tmp_path, "[domain]\ndim_x = 2\n")
    with pytest.raises(ConfigError, match=r"missing \[metric\]"):
        parse_config(path)


@pytest.mark.parametrize("body,pattern", [
    ("[metric]\nname = twisted_flat\nc = -1\n", r":3.*c = -1 out of range"),
    ("[domain]\nbackend = sphere-axisym\n\n[metric]\nname = sphere_product\nr = 0\n",
     r":6.*r = 0 out of range"),
    ("[domain]\nt_nodes = 8\n\n[metric]\nname = product_flat\n",
     r":2.*odd and >= 5"),
    ("[domain]\nresolution = 3\n\n[metric]\nname = product_flat\n",
     r":2.*>= 4"),
    ("[metric]\nname = product_flat\n\n[solver]\ntolerance = 0\n",
     r":5.*tolerance = 0 out of range"),
    ("[metric]\nname = product_flat\n\n[forcing]\np = 0\n",
     r":5.*p = 0 out of range"),
    ("[metric]\nname = product_flat\n\n[forcing]\ndelta = 0\n",
     r":5.*delta = 0 out of range"),
    ("[metric]\nname = product_flat\n\n[forcing]\nC = fast\n",
     r":5.*C expects a number"),
    ("[metric]\nname = product_flat\n\n[forcing]\nC = -2\n",
     r":5.*C = -2 out of range"),
    ("[metric]\nname = product_flat\n\n[forcing]\np = 1.5\n",
     r":5.*p expects an integer"),
    ("[domain]\nresolution = 8, 8, 8\n\n[metric]\nname = product_flat\n",
     r":2.*resolution needs 1 or 2 entries"),
    ("[domain]\nresolution = a, b\n\n[metric]\nname = product_flat\n",
     r":2.*resolution expects integers"),
    ("[domain]\nbackend = cylinder\n\n[metric]\nname = product_flat\n",
     r":2.*backend must be"),
    ("[metric]\nname = sphere_twist\n", r"needs backend = sphere-axisym"),
    ("[domain]\nbackend = sphere-axisym\n\n[metric]\nname = twisted_flat\n",
     r"needs backend = torus"),
    ("[metric]\nname = klein_bottle\n", r"unknown metric"),
    ("[metric]\nname = csv\n",
     r":1: \[metric\] needs a builtin name or a components_file"),
    ("[metric]\nname = product_flat\nc = 0.5\n",
     r":3.*does not take parameter 'c'"),
    ("[domain]\ndim_x = 4\n\n[metric]\nname = product_flat\n",
     r":2: torus backend supports dim_x <= 3, got 4"),
    ("[domain]\nbackend = sphere-axisym\ndim_x = 3\n\n[metric]\n"
     "name = sphere_product\n", r":3: sphere backend is 2-dimensional"),
    # the scan refuses at its line what is not a section, key or comment:
    # an indented value continuation, a key before any section, a repeated
    # key or section
    ("[metric]\nname = twisted_flat\nc = 0.5\n    0.25\n",
     r"scenario\.cfg:4: expected \[section\], key = value or a comment "
     r"line, got '0\.25'"),
    ("name = product_flat\n\n[metric]\n",
     r"scenario\.cfg:1: key 'name' before any \[section\]"),
    ("[metric]\nname = twisted_flat\nc = 0.5\nc = 0.25\n",
     r"scenario\.cfg:4: repeated key 'c' in \[metric\]"),
    ("[metric]\nname = product_flat\n\n[forcing]\np = 1\n\n[forcing]\n"
     "delta = 40\n", r"scenario\.cfg:7: repeated section \[forcing\]"),
])
def test_validation_errors(tmp_path, body, pattern):
    with pytest.raises(ConfigError, match=pattern):
        parse_config(write_cfg(tmp_path, body))


BUILTIN_PARAMS = [(name, p) for name, b in BUILTINS.items()
                  for p in b.params]


def builtin_y(backend):
    res = (8,) if backend == SPHERE else (8, 8)
    return w_domains(DomainSpec(backend, 2, res, 5))["y"]


@pytest.mark.parametrize("name,param", BUILTIN_PARAMS,
                         ids=[f"{n}.{p.name}" for n, p in BUILTIN_PARAMS])
def test_builtin_parameter_out_of_range_is_refused(tmp_path, name, param):
    # both readers of BUILTINS refuse the value: make_metric by name,
    # parse_config at the key's line
    backend = BUILTINS[name].backend
    assert not param.check(-1.0)
    describe = re.escape(param.describe)
    with pytest.raises(ConfigError,
                       match=rf"{name} requires {describe}, got -1.0"):
        make_metric(name, builtin_y(backend), **{param.name: -1.0})
    path = write_cfg(tmp_path, f"[domain]\nbackend = {backend}\n\n"
                               f"[metric]\nname = {name}\n"
                               f"{param.name} = -1\n")
    with pytest.raises(ConfigError,
                       match=rf"{re.escape(path)}:6: \[metric\] {param.name} "
                             rf"= -1 out of range \({describe}\)"):
        parse_config(path)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_parses_on_its_backend_with_defaults(tmp_path, name):
    builtin = BUILTINS[name]
    cfg = parse_config(write_cfg(
        tmp_path, f"[domain]\nbackend = {builtin.backend}\n\n"
                  f"[metric]\nname = {name}\n"))
    assert cfg.metric_params == {p.name: p.default for p in builtin.params}
    assert {k: v for k, v in cfg.echo.items() if k.startswith("metric.")} \
        == {"metric.name": name,
            **{f"metric.{p.name}": f"{p.default:.12g}"
               for p in builtin.params}}
    make_metric(name, builtin_y(builtin.backend), **cfg.metric_params)
    other = TORUS if builtin.backend == SPHERE else SPHERE
    with pytest.raises(ConfigError,
                       match=rf":5: metric '{name}' needs backend = "
                             rf"{builtin.backend}"):
        parse_config(write_cfg(tmp_path, f"[domain]\nbackend = {other}\n\n"
                                         f"[metric]\nname = {name}\n"))


def test_non_finite_numbers_report_line(tmp_path):
    # inf and nan parse as floats; every numeric key refuses them at its
    # line instead of crashing later (integers) or running on (delta)
    sphere = "[domain]\nbackend = sphere-axisym\n\n"
    for head, metric, section, key in (
            ("", "product_flat", "domain", "t_nodes"),
            ("", "product_flat", "domain", "dim_x"),
            ("", "twisted_flat", "metric", "c"),
            (sphere, "sphere_product", "metric", "r"),
            (sphere, "sphere_twist", "metric", "beta0"),
            ("", "product_flat", "forcing", "p"),
            ("", "product_flat", "forcing", "delta"),
            ("", "product_flat", "forcing", "C"),
            ("", "product_flat", "solver", "tolerance")):
        for value in ("inf", "-inf", "nan"):
            text = f"{head}[metric]\nname = {metric}\n"
            if section != "metric":
                text += f"\n[{section}]\n"
            text += f"{key} = {value}\n"
            path = write_cfg(tmp_path, text)
            line = text.splitlines().index(f"{key} = {value}") + 1
            with pytest.raises(ConfigError,
                               match=rf"{path}:{line}: \[{section}\] {key} "
                                     rf"expects a finite number"):
                parse_config(path)


def test_components_file_must_exist(tmp_path):
    text = "[metric]\ncomponents_file = no_such_table.csv\n"
    with pytest.raises(ConfigError, match=r"does not exist"):
        parse_config(write_cfg(tmp_path, text))


def test_components_file_conflicts_with_builtin(tmp_path):
    (tmp_path / "table.csv").write_text("x,y,theta\n")
    text = "[metric]\nname = twisted_flat\ncomponents_file = table.csv\n"
    with pytest.raises(ConfigError, match=r"mutually exclusive"):
        parse_config(write_cfg(tmp_path, text))


def test_components_file_resolved_relative_to_config(tmp_path):
    (tmp_path / "table.csv").write_text("x,y,theta\n")
    cfg = parse_config(write_cfg(
        tmp_path, "[metric]\ncomponents_file = table.csv\n"))
    assert cfg.metric_name == "csv"
    assert cfg.components_file == str(tmp_path / "table.csv")
    assert cfg.echo["metric.components_file"] == "table.csv"


def test_missing_file_raises(tmp_path):
    with pytest.raises(ConfigError, match=r"cannot read config"):
        parse_config(str(tmp_path / "absent.cfg"))


def test_non_utf8_file_raises(tmp_path):
    # a config error (exit 4), not a traceback that ends a whole batch
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"[metric]\nname = product_flat\n# caf\xe9\n")
    with pytest.raises(ConfigError, match=r"cannot read config .*utf-8"):
        parse_config(str(path))


def test_echo_is_fully_stringly_typed(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, FULL))
    assert all(isinstance(k, str) and isinstance(v, str)
               for k, v in cfg.echo.items())
    assert all("." in k for k in cfg.echo)
