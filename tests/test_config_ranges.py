"""Range checks of the run configuration: every refusal names its
``[section] key``, and no numeric edge value crashes a verb."""

import dataclasses
import json
import math
import re

import pytest

from parax.cli import VERBS, main, run_command
from parax.config import ConfigError, RunConfig, _range_checks, serialize_config, validate
from parax.pic import SamplingError

NAN = math.nan

# settings a key is read under: vbar in physical mode only
NEEDS = {"scaling.vbar": {"scaling.mode": "physical"}}

# one setting out of range per check of validate
OUT_OF_RANGE = [
    *((f"{block.name}.{f.name}", NAN)
      for block in dataclasses.fields(RunConfig)
      for f in dataclasses.fields(block.default_factory())
      if f.type == "float"),
    ("mesh.a", 0.0),
    ("mesh.b", -1.0),
    ("mesh.zlen", 0.0),
    ("mesh.nx", 2),
    ("mesh.ny", 2),
    ("mesh.nzeta", 3),
    ("scaling.beta", 1.0),
    ("scaling.beta", 1e-9),
    ("scaling.mode", "lab"),
    ("scaling.eta", 0.0),
    ("scaling.vbar", 3e8),
    ("hierarchy.n_max", -1),
    ("pic.n_particles", 0),
    ("pic.seed", -1),
    ("pic.dt", 0.0),
    ("pic.steps", -1),
    ("pic.total_weight", 0.0),
    ("pic.radius", -0.1),
    ("pic.sigma", -0.1),
    ("pic.vth", -0.1),
    ("pic.vzeta_th", -0.1),
    ("pic.family", "ring"),
    ("output.cadence", 0),
    ("fields.snapshots", 0),
    ("fields.dt", -1.0),
    # derived quantities that overflow or underflow
    ("mesh.a", 1e300),
    ("mesh.b", 1e-300),
    ("mesh.zlen", 1e300),
    ("fields.dt", 1e300),
    ("scaling.eta", 1e300),
]


def _with(cfg: RunConfig, settings: dict) -> RunConfig:
    for name, value in settings.items():
        section, key = name.split(".")
        setattr(getattr(cfg, section), key, value)
    return cfg


def _first_failing_check(cfg: RunConfig):
    return next((section, key, need) for section, key, ok, need in _range_checks(cfg) if not ok)


def _set(cfg: RunConfig, name: str, value) -> RunConfig:
    return _with(cfg, {**NEEDS.get(name, {}), name: value})


@pytest.mark.parametrize("name, value", OUT_OF_RANGE)
def test_every_refusal_names_its_key(name, value):
    section, key = name.split(".")
    cfg = _set(RunConfig(), name, value)
    with pytest.raises(ConfigError) as info:
        validate(cfg)
    message = str(info.value)
    assert message.startswith(f"[{section}] {key} "), message
    assert message.endswith(f", got {value!r}"), message


def test_every_check_has_an_out_of_range_case():
    every = {(s, k, need) for s, k, _, need in _range_checks(RunConfig())}
    hit = {_first_failing_check(_set(RunConfig(), name, value)) for name, value in OUT_OF_RANGE}
    assert hit == every


@pytest.mark.parametrize("verb, args, text, key", [
    ("fields", [], "[scaling]\nbeta = 1e-9\n", "[scaling] beta"),  # 1 - beta^2 rounds to 1
    ("fields", [], "[scaling]\nmode = physical\nvbar = 1e12\n", "[scaling] vbar"),
    ("pic", [], "[pic]\nseed = -1\n", "[pic] seed"),
    ("pic", ["--seed", "-1"], "", "[pic] seed"),
    ("fields", [], "[mesh]\nb = 1e-300\n", "[mesh] b"),  # h^2 underflows to 0
    ("fields", [], "[mesh]\na = 1e300\n", "[mesh] a"),  # h^2 overflows
    ("fields", [], "[fields]\ndt = 1e300\n", "[fields] dt"),  # t^2 overflows
    ("fields", [], "[scaling]\neta = 1e300\n", "[scaling] eta"),  # eta^(n_max + 1) overflows
])
def test_refused_edge_value_exits_2_and_names_the_key(tmp_path, capsys, verb, args, text, key):
    ini = tmp_path / "edge.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    assert main([verb, "--config", str(ini), "--out", str(out), "--quiet", *args]) == 2
    assert key in capsys.readouterr().err
    report = json.loads((out / "error.json").read_text())
    assert report["error"].startswith("ConfigError") and key in report["error"]


# the verbs that read each section's numeric keys, or a key's own entry.
# parax mms and parax convergence build their own meshes and timelines.
# parax fields solves and reports what parax residual does and writes CSVs
# besides, so residual runs only for the keys that set which orders it solves.
READERS = {
    "mesh": ("fields", "pic"),
    "scaling": ("fields", "pic"),
    "scaling.beta": VERBS,
    "hierarchy": ("fields", "pic", "residual"),
    "pic": ("pic",),
    "external": ("fields", "pic"),
    "fields": ("fields",),
    "fields.snapshots": ("fields", "residual"),
    "study": ("mms",),
    "output": ("fields", "pic"),
}
EDGE_VALUES = {"float": (0.0, -1.0, NAN, math.inf, 1e-12, 1e12), "int": (0, -1)}


def _tiny_cfg() -> RunConfig:
    """A 5^2 x 4 mesh, 50 particles and 2 steps or snapshots, with study
    grids that parax mms and parax convergence accept."""
    return _with(RunConfig(), {
        "mesh.nx": 5, "mesh.ny": 5, "mesh.nzeta": 4,
        "pic.n_particles": 50, "pic.steps": 2, "fields.snapshots": 2,
        "study.grids": "5,7,13",
    })


@pytest.mark.parametrize("name, value", [
    (f"{block.name}.{f.name}", value)
    for block in dataclasses.fields(RunConfig)
    for f in dataclasses.fields(block.default_factory())
    for value in EDGE_VALUES.get(f.type, ())
])
def test_numeric_edge_values_run_or_are_refused(tmp_path, name, value):
    for verb in READERS.get(name, READERS[name.split(".")[0]]):
        cfg = _set(_tiny_cfg(), name, value)
        try:
            assert run_command(verb, cfg, out_dir=str(tmp_path / verb), quiet=True) == 0
        except (ConfigError, SamplingError):
            pass


# a value that overflows or underflows on the way: the error names the stage
# output, the deposit, the push or the chain's sources, and the component,
# or the JSON file and the key path of the first non-finite value
NAMED_NON_FINITE = re.compile(r"(order \d+|sources|deposit|push): [\w.]+ is non-finite"
                              r"|\w+\.jsonl?: [\w.]+ is -?(nan|inf)")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning",
                            "ignore:divide by zero encountered:RuntimeWarning")
@pytest.mark.parametrize("name, value", [
    (f"{block.name}.{f.name}", value)
    for block in dataclasses.fields(RunConfig)
    for f in dataclasses.fields(block.default_factory())
    if f.type == "float"
    for value in (1e300, -1e300, 1e-300)
])
def test_extreme_values_run_or_fail_with_a_named_error(tmp_path, name, value):
    for verb in READERS.get(name, READERS[name.split(".")[0]]):
        cfg = _set(_tiny_cfg(), name, value)
        try:
            assert run_command(verb, cfg, out_dir=str(tmp_path / verb), quiet=True) == 0
        except (ConfigError, SamplingError):
            pass
        except ValueError as exc:
            assert NAMED_NON_FINITE.fullmatch(str(exc)), f"{verb}: {exc}"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("verb, a, named", [
    ("fields", 1e150, "Ecal.x"),  # _slice_monomials' xt**3 / 6 overflows in the Ecal split
    ("fields", 1e-150, "Bperp.x"),  # the Dirichlet lift of the Bperp split overflows
    ("pic", 1e150, "Ecal.x"),
])
def test_overflowing_stage_exits_1_and_names_it(tmp_path, capsys, verb, a, named):
    ini = tmp_path / "edge.ini"
    ini.write_text(serialize_config(_set(_tiny_cfg(), "mesh.a", a)))
    out = tmp_path / "out"
    assert main([verb, "--config", str(ini), "--out", str(out), "--quiet"]) == 1
    error = f"FieldShapeError: order 0: {named} is non-finite"
    assert capsys.readouterr().err == f"error: {error}\n"
    assert json.loads((out / "error.json").read_text())["error"] == error


def _refuse_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


# the first non-finite number, in sorted-key order, of the file each case
# refuses to write
NON_FINITE_AT = {
    "fields.amplitude": "results.diagnostics.order0.Eperp_x_relative_residual is nan",
    "pic.vzeta_mean": "field_norms.order1.Bperp is inf",
    "pic.dt": "max_cell_displacement is inf",
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("name, value, file", [
    ("fields.amplitude", 1e300, "manifest.json"),  # the order-0 solve reports NaN and inf
    ("pic.vzeta_mean", 1e300, "diagnostics.jsonl"),  # order-1 field norms overflow
    ("pic.dt", 1e300, "diagnostics.jsonl"),  # the cell displacement overflows
])
def test_non_finite_output_fails_and_leaves_strict_json(tmp_path, capsys, name, value, file):
    verb = name.split(".")[0]
    ini = tmp_path / "edge.ini"
    ini.write_text(serialize_config(_set(_tiny_cfg(), name, value)))
    out = tmp_path / "out"
    assert main([verb, "--config", str(ini), "--out", str(out), "--quiet"]) != 0
    err = capsys.readouterr().err
    assert file in err
    assert file in json.loads((out / "error.json").read_text())["error"]
    named = f"{file}: {NON_FINITE_AT[name]}"
    assert named in err
    assert json.loads((out / "error.json").read_text())["error"].endswith(named)
    for path in out.glob("*.json*"):
        for line in (path.read_text().splitlines() if path.suffix == ".jsonl"
                     else [path.read_text()]):
            json.loads(line, parse_constant=_refuse_constant)
