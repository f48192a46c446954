import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

import parax
from parax.cli import main, run_command
from parax.config import (
    ConfigError,
    RunConfig,
    _parse_config,
    read_config,
    serialize_config,
    validate,
)

MINIMAL = """
[mesh]
nx = 9
ny = 9
nzeta = 9

[scaling]
beta = 0.4
"""


def read_validated(text):
    """A config text as ``parax`` takes its file: parsed, then range-checked."""
    return validate(_parse_config(text))


def test_parse_minimal_applies_defaults():
    cfg = read_validated(MINIMAL)
    assert cfg.scaling.beta == 0.4
    assert cfg.hierarchy.n_max == 1
    assert cfg.output.cadence == 1


def test_parse_from_file(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(MINIMAL)
    cfg = validate(read_config(str(p)))
    assert cfg.mesh.nx == 9


def test_config_path_is_never_read_as_text(tmp_path, monkeypatch):
    # a file name that starts with "[" is still a path
    monkeypatch.chdir(tmp_path)
    Path("[run].ini").write_text("[mesh]\nnx = 5\nny = 5\nnzeta = 4\n\n[fields]\nsnapshots = 1\n")
    assert validate(read_config("[run].ini")).mesh.nzeta == 4
    assert main(["fields", "--config", "[run].ini", "--out", "out", "--quiet"]) == 0
    assert "nzeta = 4\n" in json.loads(Path("out", "manifest.json").read_text())["config"]


def test_unknown_key_suggestion():
    with pytest.raises(ConfigError, match="betaa"):
        read_validated("[scaling]\nbetaa = 0.5\n")
    try:
        read_validated("[scaling]\nbetaa = 0.5\n")
    except ConfigError as exc:
        assert "beta" in str(exc)  # suggestion names the close match


@pytest.mark.parametrize("section, key, value", [
    ("hierarchy", "tolerance", "1e-10"),
    ("hierarchy", "max_fixed_point", "20"),
    ("scaling", "l", "0.01"),
    ("fields", "case", "zero"),
])
def test_removed_keys_rejected(section, key, value):
    # keys of earlier formats that no longer select anything
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[{section}\\]"):
        read_validated(f"[{section}]\n{key} = {value}\n")


def test_constraint_violation_named(tmp_path):
    with pytest.raises(ConfigError, match="beta"):
        read_validated("[scaling]\nbeta = 1.2\n")
    with pytest.raises(ConfigError, match="n_max"):
        read_validated("[hierarchy]\nn_max = -1\n")
    with pytest.raises(ConfigError, match="family"):
        read_validated("[pic]\nfamily = ring\n")
    with pytest.raises(ConfigError, match=r"\[pic\] family"):  # a config built in code
        run_command("residual", small_cfg(pic__family="ring"), out_dir=str(tmp_path), quiet=True)


@pytest.mark.parametrize("verb, section, key, value", [
    ("fields", "mesh", "nzeta", "3"),
    ("fields", "mesh", "x0", "nan"),
    ("fields", "external", "bz", "nan"),
    ("fields", "fields", "amplitude", "nan"),
    ("residual", "scaling", "eta", "inf"),
    ("pic", "pic", "vth", "inf"),
    ("pic", "pic", "dt", "inf"),
    ("pic", "pic", "sigma", "-0.1"),
    ("pic", "pic", "radius", "-0.2"),
    ("pic", "pic", "vth", "-0.1"),
    ("pic", "pic", "vzeta_th", "-0.1"),
    ("convergence", "study", "etas", "-0.1,0.1,0.2"),
    ("convergence", "study", "etas", "0.1"),
    ("convergence", "study", "etas", "0.1,0.1,0.2"),
    ("convergence", "study", "etas", "0.05,0.1,inf"),
    ("convergence", "study", "etas", "0.05,0.05,0.1,0.2"),
    ("mms", "study", "grids", "9,17"),
    ("mms", "study", "grids", ","),
    ("mms", "study", "grids", "3,5,9"),
    ("mms", "study", "grids", "17,9,33"),
    ("mms", "study", "grids", "9,9,17,33"),
])
def test_unrunnable_config_names_its_key(tmp_path, verb, section, key, value):
    # refused before any solve: study lists by the verb that fits a slope
    # to them, every other setting by validate
    text = f"[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
        run_command(verb, read_validated(text), out_dir=str(tmp_path), quiet=True)
    if section != "study":
        with pytest.raises(ConfigError):
            read_validated(text)


@pytest.mark.parametrize("verb, key, value", [
    ("mms", "grids", "33,17,9"),
    ("convergence", "etas", "0.1,0.05,0.2"),
])
def test_study_lists_in_either_order_run(tmp_path, verb, key, value):
    # the mms fit takes its grids decreasing too; the eta study sorts its etas
    cfg = small_cfg(study__grids="5,7,13") if verb == "convergence" else RunConfig()
    setattr(cfg.study, key, value)
    assert run_command(verb, cfg, out_dir=str(tmp_path), quiet=True) == 0


@pytest.mark.parametrize("verb", ["fields", "pic", "residual"])
def test_smallest_mesh_runs(tmp_path, verb):
    cfg = read_validated("[mesh]\nnx = 3\nny = 3\nnzeta = 4\n[pic]\nn_particles = 200\nsteps = 2\n")
    assert run_command(verb, cfg, out_dir=str(tmp_path), quiet=True) == 0


@pytest.mark.parametrize("grids", ["13,13", "13,17", "12,23", "5,9", "3,5", "13"])
def test_convergence_grids_must_halve_the_spacing(tmp_path, grids):
    # Richardson extrapolation of the two largest grids assumes ratio 2, and
    # the eta study's second zeta derivatives need a coarse grid of 7 or more
    cfg = read_validated(f"[study]\ngrids = {grids}\n")  # other verbs accept any grids
    with pytest.raises(ConfigError, match=r"\[study\] grids"):
        run_command("convergence", cfg, out_dir=str(tmp_path), quiet=True)


@pytest.mark.parametrize("grids, pair", [("17,33,65", (33, 65)), ("13,25", (13, 25)),
                                         ("7,13", (7, 13))])
def test_convergence_grids_halving_the_spacing_pass(grids, pair):
    assert parax.cli._richardson_pair(small_cfg(study__grids=grids)) == pair


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"\[mesch\]"):
        read_validated("[mesch]\nnx = 9\n")
    # [DEFAULT] is no section of the schema: its keys reach no other section
    for text in ("[DEFAULT]\nn_max = 0\n[hierarchy]\n", "[DEFAULT]\n[mesh]\nnx = 9\n"):
        with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
            read_validated(text)


def test_round_trip_fixed_point():
    cfg = read_validated(MINIMAL)
    text = serialize_config(cfg)
    cfg2 = read_validated(text)
    assert serialize_config(cfg2) == text
    assert cfg2 == cfg
    # a value is read and written as it stands, % included
    for directory in ("out%1", "out%%q", "%(x)s"):
        cfg = read_validated(f"[output]\ndirectory = {directory}\n")
        assert cfg.output.directory == directory
        assert f"\ndirectory = {directory}\n" in serialize_config(cfg)
        assert _parse_config(serialize_config(cfg)) == cfg


def test_readme_example_config_validates(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    ini = tmp_path / "example.ini"
    ini.write_text(example)
    cfg = validate(read_config(str(ini)))
    assert cfg.scaling.mode == "dimensionless" and cfg.pic.family == "gaussian"


def small_cfg(**over):
    cfg = RunConfig()
    cfg.mesh.nx = cfg.mesh.ny = cfg.mesh.nzeta = 9
    cfg.fields.alpha = 0.5
    cfg.fields.snapshots = 2
    cfg.pic.n_particles = 30
    cfg.pic.steps = 2
    for k, v in over.items():
        section, key = k.split("__")
        setattr(getattr(cfg, section), key, v)
    return cfg


def test_fields_run_writes_outputs(tmp_path):
    out = str(tmp_path / "run")
    code = run_command("fields", small_cfg(), out_dir=out, quiet=True)
    assert code == 0
    assert os.path.exists(os.path.join(out, "manifest.json"))
    assert os.path.exists(os.path.join(out, "Ez_0_0.csv"))
    assert os.path.exists(os.path.join(out, "Eperp_1_1.csv"))
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["verb"] == "fields"
    assert manifest["versions"]["parax"] == parax.__version__
    assert "maxwell_residual" in manifest["results"]
    assert len(manifest["config_sha256"]) == 64
    order0 = manifest["results"]["diagnostics"]["order0"]
    assert np.isfinite(order0["bperp_trace_defect"])
    for name in ("Ez", "Eperp_x", "Eperp_y"):
        assert order0[f"{name}_method"] == "fdm"
        assert order0[f"{name}_relative_residual"] <= 1e-12


# what the chain's own solves record per order, and what the audit of
# parax fields adds to it
SOLVE_KEYS = {"order", *(f"{name}_{what}" for name in ("Ez", "Eperp_x", "Eperp_y")
                         for what in ("method", "relative_residual"))}
AUDIT_KEYS = {"circulation_mismatch_max", "flux_mismatch_max", "bperp_trace_defect",
              "bz_integral_residual", "gauss_residual", "solenoidal_residual",
              "pseudo_field_consistency"}


def tiny_cfg():
    """5^2 x 4 nodes, 50 particles and study grids parax convergence accepts."""
    return small_cfg(mesh__nx=5, mesh__ny=5, mesh__nzeta=4, pic__n_particles=50,
                     study__grids="5,7,13")


def test_chain_audit_runs_only_where_it_is_written(tmp_path, monkeypatch):
    # the chain only solves: parax fields audits its last snapshot once, and
    # no other run forms an audit
    from parax import cli, verify
    from parax.hierarchy import ExternalField
    from parax.mesh import build_mesh
    from parax.pic import run_pic, sample_initial_distribution

    times = []

    def counted(previous, latest, sources, _audit=verify.chain_audit):
        times.append(latest.time)
        return _audit(previous, latest, sources)

    monkeypatch.setattr(verify, "chain_audit", counted)
    monkeypatch.setattr(cli, "chain_audit", counted)
    cfg = tiny_cfg()
    mesh = build_mesh(1.0, 1.0, 2.0, 5, 5, 4)
    particles = sample_initial_distribution(mesh, "uniform", 50, 1)
    run_pic(mesh, 0.5, 0.1, particles, n_max=1, steps=2, external=ExternalField(bz=0.3))
    for verb in ("pic", "residual", "convergence"):
        assert run_command(verb, tiny_cfg(), out_dir=str(tmp_path / verb), quiet=True) == 0
    assert times == []
    out = tmp_path / "fields"
    assert run_command("fields", cfg, out_dir=str(out), quiet=True) == 0
    assert times == [(cfg.fields.snapshots - 1) * cfg.fields.dt]
    diag = json.loads((out / "manifest.json").read_text())["results"]["diagnostics"]
    assert set(diag) == {f"order{n}" for n in range(cfg.hierarchy.n_max + 1)}
    for d in diag.values():
        assert set(d) == SOLVE_KEYS | AUDIT_KEYS


def test_quiet_silences_numpy_warnings(tmp_path, capsys):
    # a total weight of 1e300 overflows the field norms; --quiet leaves only
    # the error line, and the caller's warning filters are its own again after
    import warnings

    cfg = tiny_cfg()
    cfg.pic.total_weight = 1e300
    ini = tmp_path / "huge.ini"
    ini.write_text(serialize_config(cfg))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        filters = list(warnings.filters)
        assert main(["pic", "--config", str(ini), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 1
        assert warnings.filters == filters
    assert seen == []
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: ValueError: diagnostics.jsonl: field_norms.order0.Bperp is inf"]


def test_zero_case_all_zero_dumps(tmp_path):
    out = str(tmp_path / "zero")
    cfg = small_cfg(fields__amplitude=0.0)
    assert run_command("fields", cfg, out_dir=out, quiet=True) == 0
    from parax.fields import read_field_csv

    _, _, data = read_field_csv(os.path.join(out, "Eperp_0_0.csv"))
    assert np.all(data == 0.0)
    manifest = json.loads(Path(out, "manifest.json").read_text())
    for eq, ns in manifest["results"]["maxwell_residual"]["norms"].items():
        assert ns["l2"] == 0.0


def test_pic_run_steps_zero(tmp_path):
    out = str(tmp_path / "pic0")
    cfg = small_cfg(pic__steps=0)
    assert run_command("pic", cfg, out_dir=out, quiet=True) == 0
    assert os.path.exists(os.path.join(out, "particles_0_0.csv"))
    lines = Path(out, "diagnostics.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1


def test_pic_bunch_outside_box_is_an_error(tmp_path):
    out = str(tmp_path / "outside")
    cfg = small_cfg(pic__family="gaussian", pic__zeta_center=100.0)
    with pytest.raises(ValueError, match="mass inside the domain"):
        run_command("pic", cfg, out_dir=out, quiet=True)
    report = json.loads(Path(out, "error.json").read_text())
    assert report["error"].startswith("SamplingError")


def test_pic_rerun_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert run_command("pic", small_cfg(), out_dir=out, quiet=True) == 0
        outs.append(out)
    for fname in ("particles_0_0.csv", "particles_0_2.csv", "diagnostics.jsonl"):
        a = Path(outs[0], fname).read_bytes()
        b = Path(outs[1], fname).read_bytes()
        assert a == b, fname


def test_pic_particle_loss_is_recorded_and_warned(tmp_path, caplog):
    # a step far too long for the bunch's self-field: one push carries all
    # but one of 2000 particles through the walls
    ini = tmp_path / "loss.ini"
    ini.write_text("[pic]\nn_particles = 2000\ndt = 0.5\ntotal_weight = 200\nsteps = 1\n")
    out = str(tmp_path / "loss")
    with caplog.at_level("WARNING", logger="parax.pic"):
        assert main(["pic", "--config", str(ini), "--out", out, "--quiet"]) == 0
    with open(os.path.join(out, "diagnostics.jsonl")) as fh:
        records = [json.loads(line) for line in fh]
    assert records[0]["absorbed"] == 0 and records[0]["max_cell_displacement"] == 0.0
    assert records[1]["absorbed"] == 1999 and records[1]["absorbed_total"] == 1999
    assert records[1]["max_cell_displacement"] > 1.0
    assert "cells in one step" in caplog.text
    final = json.loads(Path(out, "manifest.json").read_text())["results"]["final"]
    assert final["absorbed"] == 1999
    assert final["max_cell_displacement"] == records[1]["max_cell_displacement"]


def test_pic_warnings_reach_stderr_unless_quiet(tmp_path, capsys):
    import logging

    ini = tmp_path / "loss.ini"
    ini.write_text("[pic]\nn_particles = 2000\ndt = 0.5\ntotal_weight = 200\nsteps = 1\n")
    capsys.readouterr()
    assert main(["pic", "--config", str(ini), "--out", str(tmp_path / "loud")]) == 0
    err = capsys.readouterr().err
    assert "WARNING parax.pic: step 1: particles moved up to" in err
    assert main(["pic", "--config", str(ini), "--out", str(tmp_path / "quiet"),
                 "--quiet"]) == 0
    assert "WARNING" not in capsys.readouterr().err
    assert len(logging.getLogger("parax").handlers) == 1  # added once


def small_ini(tmp_path) -> str:
    """small_cfg() written as a config file, for runs through main."""
    path = tmp_path / "small.ini"
    path.write_text(serialize_config(small_cfg()))
    return str(path)


def test_seed_override_changes_particles(tmp_path):
    ini = small_ini(tmp_path)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["pic", "--config", ini, "--out", out1, "--seed", "1", "--quiet"]) == 0
    assert main(["pic", "--config", ini, "--out", out2, "--seed", "2", "--quiet"]) == 0
    # --seed sets [pic] seed of the config the run records
    assert "seed = 2\n" in json.loads(Path(out2, "manifest.json").read_text())["config"]
    a = Path(out1, "particles_0_0.csv").read_text()
    b = Path(out2, "particles_0_0.csv").read_text()
    assert a != b


def test_mms_verb_poisson(tmp_path):
    out = str(tmp_path / "mms")
    cfg = small_cfg(study__grids="9,17,33")
    assert run_command("mms", cfg, out_dir=out, quiet=True) == 0
    rep = json.loads(Path(out, "mms_poisson2d.json").read_text())
    assert rep["slope"] >= 1.9
    table = Path(out, "mms_poisson2d.csv").read_text().splitlines()
    assert table[0] == "parameter,error" and len(table) == 4


def test_mms_verb_fits_any_grids(tmp_path):
    # the mms slope is a fit over every grid: no ratio-2 pair is needed
    out = str(tmp_path / "mms")
    assert run_command("mms", small_cfg(study__grids="9,13,17"), out_dir=out, quiet=True) == 0
    table = Path(out, "mms_poisson2d.csv").read_text().splitlines()
    assert len(table) == 4


@pytest.mark.parametrize("target", ["poisson2d", "aniso3d", "divcurl", "ez", "eperp"])
def test_mms_verb_every_target(tmp_path, target):
    out = str(tmp_path / target)
    cfg = small_cfg(study__target=target, study__grids="5,9,17")
    assert run_command("mms", cfg, out_dir=out, quiet=True) == 0
    rep = json.loads(Path(out, f"mms_{target}.json").read_text())
    assert np.isfinite(rep["slope"]) and rep["label"] == target
    table = Path(out, f"mms_{target}.csv").read_text().splitlines()
    assert table[0] == "parameter,error" and len(table) == 4


def test_mms_unknown_target_names_the_key(tmp_path, capsys):
    ini = tmp_path / "eta.ini"
    ini.write_text("[study]\ntarget = eta\n")
    out = tmp_path / "out"
    assert main(["mms", "--config", str(ini), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "[study] target 'eta'" in err
    assert all(t in err for t in ("poisson2d", "aniso3d", "divcurl", "ez", "eperp"))
    assert json_outputs(out) == {"error.json"}


def json_outputs(out) -> set[str]:
    """The JSON files in ``out``, each checked to be in the one JSON form:
    indent 2, sorted keys, a final newline; no temporary file is left."""
    names = {p.name for p in Path(out).iterdir()}
    assert not any(n.endswith(".tmp") for n in names), names
    found = {n for n in names if n.endswith(".json")}
    for name in found:
        text = Path(out, name).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name
    return found


@pytest.mark.parametrize("verb, written", [
    ("fields", set()),
    ("pic", set()),
    ("mms", {"mms_poisson2d.json"}),
    ("residual", {"residual.json"}),
    ("convergence", {"eta_study.json"}),
])
def test_every_json_output_has_one_form(tmp_path, verb, written):
    cfg = small_cfg(study__grids="5,7,13")  # three grids for mms, 7 and 13 halve the spacing
    assert run_command(verb, cfg, out_dir=str(tmp_path), quiet=True) == 0
    assert json_outputs(tmp_path) == written | {"manifest.json"}


def test_residual_verb(tmp_path):
    out = str(tmp_path / "res")
    cfg = small_cfg(fields__snapshots=3, fields__alpha2=1.0)
    assert run_command("residual", cfg, out_dir=out, quiet=True) == 0
    rep = json.loads(Path(out, "residual.json").read_text())
    assert set(rep["norms"]) >= {"gauss", "monopole", "ampere_perp"}


def test_module_entry_point_logs_through_parax_handler(tmp_path):
    # under ``python -m parax.cli`` the module is __main__; its warnings must
    # still reach the ``parax`` handler, which --quiet silences
    import subprocess
    import sys

    ini = tmp_path / "two.ini"
    ini.write_text(MINIMAL + "\n[fields]\nsnapshots = 2\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(parax.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    errs = {}
    for name, extra in (("loud", []), ("quiet", ["--quiet"])):
        proc = subprocess.run(
            [sys.executable, "-m", "parax.cli", "residual", "--config", str(ini),
             "--out", str(tmp_path / name), *extra],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        errs[name] = proc.stderr
    assert errs["loud"].startswith("WARNING parax.cli: residual at n_max = 1")
    assert errs["quiet"] == ""


@pytest.mark.parametrize("n_max,snapshots,warns", [(1, 3, False), (2, 4, False), (2, 3, True),
                                                   (1, 1, True)])
def test_residual_warns_on_cold_start_terms(tmp_path, caplog, n_max, snapshots, warns):
    # snapshot k holds genuine orders up to k, so the top residual terms of
    # n_max need n_max + 2 snapshots
    cfg = small_cfg(fields__snapshots=snapshots, hierarchy__n_max=n_max)
    with caplog.at_level("WARNING", logger="parax.cli"):
        assert run_command("residual", cfg, out_dir=str(tmp_path), quiet=True) == 0
    records = [r for r in caplog.records if r.name == "parax.cli"]
    if warns:
        assert len(records) == 1
        assert f"n_max = {n_max}" in records[0].message
        assert f"snapshots = {snapshots}" in records[0].message
    else:
        assert records == []


@pytest.mark.parametrize("n_max,snapshots,orders", [(1, 3, [0, 1, 1]), (2, 4, [0, 1, 2, 2]),
                                                    (1, 1, [1])])
def test_residual_solves_only_the_orders_it_reads(tmp_path, monkeypatch, n_max, snapshots,
                                                  orders):
    # order n of a snapshot reads only order n-1 of the one before, and the
    # residual reads the last two, so earlier snapshots stop short of n_max;
    # the report is byte for byte the one from every snapshot at n_max
    from parax.hierarchy import HierarchySolver

    calls = []
    solve = HierarchySolver.solve_hierarchy

    def counted(self, n, *args, **kwargs):
        calls.append(n)
        return solve(self, n, *args, **kwargs)

    def every_order(self, n, *args, **kwargs):
        return solve(self, n_max, *args, **kwargs)

    cfg = small_cfg(fields__snapshots=snapshots, fields__alpha2=1.0, hierarchy__n_max=n_max)
    reports = []
    for name, patch in (("res", counted), ("ref", every_order)):
        monkeypatch.setattr(HierarchySolver, "solve_hierarchy", patch)
        out = str(tmp_path / name)
        assert run_command("residual", cfg, out_dir=out, quiet=True) == 0
        with open(os.path.join(out, "residual.json"), "rb") as fh:
            reports.append(fh.read())
    assert calls == orders
    assert reports[0] == reports[1]


def test_run_command_keeps_freed_memory_before_the_verb(tmp_path, monkeypatch):
    # the one entry of every verb sets the allocator thresholds, before the verb
    calls = []
    monkeypatch.setattr(parax.cli, "_keep_freed_memory", lambda: calls.append(len(calls)))
    monkeypatch.setitem(parax.cli.COMMANDS, "residual", lambda *args: calls.append("verb") or {})
    assert run_command("residual", small_cfg(), out_dir=str(tmp_path), quiet=True) == 0
    assert calls == [0, "verb"]


def test_cli_main_and_config_out(tmp_path, monkeypatch):
    # without --out a run writes to [output] directory; no environment
    # variable chooses the directory
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL + f"\n[study]\ngrids = 9,17,33\n\n[output]\n"
                                 f"directory = {tmp_path / 'cfgout'}\n")
    monkeypatch.setenv("PARAX_OUT", str(tmp_path / "envout"))
    assert main(["mms", "--config", str(cfgfile), "--quiet"]) == 0
    assert os.path.exists(tmp_path / "cfgout" / "manifest.json")
    assert not os.path.exists(tmp_path / "envout")


def test_output_directory_is_read_as_written(tmp_path, monkeypatch):
    # a % in [output] directory names the directory, and the manifest
    # records the config as read
    monkeypatch.chdir(tmp_path)
    ini = tmp_path / "pct.ini"
    for directory in ("out%1", "out%%q"):
        ini.write_text(serialize_config(tiny_cfg()).replace("directory = out\n",
                                                            f"directory = {directory}\n"))
        assert main(["fields", "--config", str(ini), "--quiet"]) == 0
        manifest = json.loads((tmp_path / directory / "manifest.json").read_text())
        assert f"\ndirectory = {directory}\n" in manifest["config"]


@pytest.mark.parametrize("verb", ["fields", "pic", "residual"])
def test_run_command_leaves_its_config_unchanged(tmp_path, verb):
    cfg = small_cfg()
    before = serialize_config(cfg)
    assert run_command(verb, cfg, out_dir=str(tmp_path), quiet=True) == 0
    assert serialize_config(cfg) == before


def test_cli_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scaling]\nbeta = 2.0\n")
    assert main(["fields", "--config", str(bad), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert "beta" in capsys.readouterr().err
    missing = str(tmp_path / "missing.ini")
    assert main(["fields", "--config", missing, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert f"error: cannot read config {missing!r}: No such file or directory" \
        in capsys.readouterr().err
    bad.write_text("[DEFAULT]\nn_max = 0\n[hierarchy]\n")
    assert main(["fields", "--config", str(bad), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err == "error: unknown section [DEFAULT]\n"


@pytest.mark.parametrize("verb, text, key", [
    ("fields", "[mesh]\nnzeta = 3\n", "[mesh] nzeta"),   # refused by validate
    ("pic", "[mesh]\nx0 = nan\n", "[mesh] x0"),          # refused by validate
    ("mms", "[study]\ntarget = eta\n", "[study] target"),  # refused by the verb
])
def test_refused_config_leaves_error_json(tmp_path, capsys, verb, text, key):
    ini = tmp_path / "refused.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    assert main([verb, "--config", str(ini), "--out", str(out), "--quiet"]) == 2
    assert key in capsys.readouterr().err
    assert json_outputs(out) == {"error.json"}
    report = json.loads((out / "error.json").read_text())
    assert report["verb"] == verb
    assert report["error"].startswith("ConfigError") and key in report["error"]


def test_unwritable_output_dir(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    with pytest.raises(Exception):
        run_command("fields", small_cfg(), out_dir=str(target), quiet=True)
    # no partial manifest next to the failed target
    assert not os.path.exists(str(target) + "/manifest.json")


def test_order_override(tmp_path):
    out = str(tmp_path / "ord")
    assert main(["fields", "--config", small_ini(tmp_path), "--out", out, "--order", "0",
                 "--quiet"]) == 0
    # --order sets [hierarchy] n_max of the config the run records
    assert "n_max = 0\n" in json.loads(Path(out, "manifest.json").read_text())["config"]
    assert os.path.exists(os.path.join(out, "Ez_0_0.csv"))
    assert not os.path.exists(os.path.join(out, "Ez_1_0.csv"))


def test_convergence_verb_small(tmp_path):
    out = str(tmp_path / "conv")
    cfg = small_cfg(study__grids="13,25", study__etas="0.05,0.1,0.2")
    assert run_command("convergence", cfg, out_dir=out, quiet=True) == 0
    rep = json.loads(Path(out, "eta_study.json").read_text())
    assert rep["n_max_0"]["report"]["slope"] >= 0.8
    assert rep["n_max_1"]["report"]["slope"] > 1.0  # full margin needs big grids
    assert os.path.exists(os.path.join(out, "eta_nmax1.csv"))


def test_convergence_solves_each_grid_once(tmp_path, monkeypatch):
    # the n_max 0 and 1 fits read the same solved timeline per grid: two
    # grids x three snapshots is six hierarchy solves, not twelve, and the
    # cold-start snapshot is solved to order 0 only, since nothing reads its
    # order 1
    from parax.hierarchy import HierarchySolver
    from parax.verify import eta_scaling_study, eta_study_terms

    calls = []
    solve = HierarchySolver.solve_hierarchy

    def counted(self, n_max, *args, **kwargs):
        calls.append((self.mesh.nx, n_max))
        return solve(self, n_max, *args, **kwargs)

    monkeypatch.setattr(HierarchySolver, "solve_hierarchy", counted)
    out = str(tmp_path / "conv")
    cfg = small_cfg(study__grids="13,25")
    assert run_command("convergence", cfg, out_dir=out, quiet=True) == 0
    assert calls == [(13, 0), (13, 1), (13, 1), (25, 0), (25, 1), (25, 1)]

    # reference: fresh terms per n_max solve every grid again, and every
    # snapshot to order 1
    def to_order_1(self, n_max, *args, **kwargs):
        return solve(self, 1, *args, **kwargs)

    monkeypatch.setattr(HierarchySolver, "solve_hierarchy", to_order_1)
    pair = [(13, 13, 7), (25, 25, 13)]
    expected = {}
    for n_max in (0, 1):
        terms = [eta_study_terms(cfg.scaling.beta, g) for g in pair]
        rep, data = eta_scaling_study(cfg.eta_list(), n_max, *terms)
        expected[f"n_max_{n_max}"] = {"report": dataclasses.asdict(rep), "data": data}
    with open(os.path.join(out, "eta_study.json")) as fh:
        assert json.load(fh) == json.loads(json.dumps(expected))


def test_physical_scaling_mode(tmp_path):
    out = str(tmp_path / "phys")
    cfg = small_cfg()
    cfg.scaling.mode = "physical"
    cfg.scaling.vbar = 2.9979e7   # eta ~ 0.1
    assert run_command("residual", cfg, out_dir=out, quiet=True) == 0
    rep = json.loads(Path(out, "residual.json").read_text())
    assert abs(rep["eta"] - 0.1) < 1e-3
    with pytest.raises(ConfigError, match="physical"):
        read_validated("[scaling]\nmode = physical\n")  # vbar missing
