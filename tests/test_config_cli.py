import json
import os

import numpy as np
import pytest

from parax.cli import main, run_command
from parax.config import ConfigError, RunConfig, parse_config, serialize_config

MINIMAL = """
[mesh]
nx = 9
ny = 9
nzeta = 9

[scaling]
beta = 0.4
"""


def test_parse_minimal_applies_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.scaling.beta == 0.4
    assert cfg.hierarchy.n_max == 1
    assert cfg.output.cadence == 1


def test_parse_from_file(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(MINIMAL)
    cfg = parse_config(str(p))
    assert cfg.mesh.nx == 9


def test_unknown_key_suggestion():
    with pytest.raises(ConfigError, match="betaa"):
        parse_config("[scaling]\nbetaa = 0.5\n")
    try:
        parse_config("[scaling]\nbetaa = 0.5\n")
    except ConfigError as exc:
        assert "beta" in str(exc)  # suggestion names the close match


@pytest.mark.parametrize("section, key, value", [
    ("hierarchy", "tolerance", "1e-10"),
    ("hierarchy", "max_fixed_point", "20"),
    ("scaling", "l", "0.01"),
])
def test_removed_keys_rejected(section, key, value):
    # keys of earlier formats that no longer select anything
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[{section}\\]"):
        parse_config(f"[{section}]\n{key} = {value}\n")


def test_constraint_violation_named():
    with pytest.raises(ConfigError, match="beta"):
        parse_config("[scaling]\nbeta = 1.2\n")
    with pytest.raises(ConfigError, match="n_max"):
        parse_config("[hierarchy]\nn_max = -1\n")
    with pytest.raises(ConfigError, match="family"):
        parse_config("[pic]\nfamily = ring\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"\[mesch\]"):
        parse_config("[mesch]\nnx = 9\n")


def test_round_trip_fixed_point():
    cfg = parse_config(MINIMAL)
    text = serialize_config(cfg)
    cfg2 = parse_config(text)
    assert serialize_config(cfg2) == text
    assert cfg2 == cfg


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
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["verb"] == "fields"
    assert "maxwell_residual" in manifest["results"]
    assert len(manifest["config_sha256"]) == 64
    order0 = manifest["results"]["diagnostics"]["order0"]
    assert np.isfinite(order0["bperp_trace_defect"])
    for name in ("Ez", "Eperp_x", "Eperp_y"):
        assert order0[f"{name}_method"] == "fdm"
        assert order0[f"{name}_relative_residual"] <= 1e-12


def test_zero_case_all_zero_dumps(tmp_path):
    out = str(tmp_path / "zero")
    cfg = small_cfg(fields__case="zero")
    assert run_command("fields", cfg, out_dir=out, quiet=True) == 0
    from parax.fields import read_field_csv

    _, _, data = read_field_csv(os.path.join(out, "Eperp_0_0.csv"))
    assert np.all(data == 0.0)
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    for eq, ns in manifest["results"]["maxwell_residual"]["norms"].items():
        assert ns["l2"] == 0.0


def test_pic_run_steps_zero(tmp_path):
    out = str(tmp_path / "pic0")
    cfg = small_cfg(pic__steps=0)
    assert run_command("pic", cfg, out_dir=out, quiet=True) == 0
    assert os.path.exists(os.path.join(out, "particles_0_0.csv"))
    lines = open(os.path.join(out, "diagnostics.jsonl")).read().strip().splitlines()
    assert len(lines) == 1


def test_pic_bunch_outside_box_is_an_error(tmp_path):
    out = str(tmp_path / "outside")
    cfg = small_cfg(pic__family="gaussian", pic__zeta_center=100.0)
    with pytest.raises(ValueError, match="mass inside the domain"):
        run_command("pic", cfg, out_dir=out, quiet=True)
    report = json.load(open(os.path.join(out, "error.json")))
    assert report["error"].startswith("SamplingError")


def test_pic_rerun_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert run_command("pic", small_cfg(), out_dir=out, quiet=True) == 0
        outs.append(out)
    for fname in ("particles_0_0.csv", "particles_0_2.csv", "diagnostics.jsonl"):
        a = open(os.path.join(outs[0], fname), "rb").read()
        b = open(os.path.join(outs[1], fname), "rb").read()
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
    final = json.load(open(os.path.join(out, "manifest.json")))["results"]["final"]
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


def test_seed_override_changes_particles(tmp_path):
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    run_command("pic", small_cfg(), out_dir=out1, seed=1, quiet=True)
    run_command("pic", small_cfg(), out_dir=out2, seed=2, quiet=True)
    a = open(os.path.join(out1, "particles_0_0.csv")).read()
    b = open(os.path.join(out2, "particles_0_0.csv")).read()
    assert a != b


def test_mms_verb_poisson(tmp_path):
    out = str(tmp_path / "mms")
    cfg = small_cfg(study__grids="9,17,33")
    assert run_command("mms", cfg, out_dir=out, quiet=True) == 0
    rep = json.load(open(os.path.join(out, "mms_poisson2d.json")))
    assert rep["slope"] >= 1.9
    table = open(os.path.join(out, "mms_poisson2d.csv")).read().splitlines()
    assert table[0] == "parameter,error" and len(table) == 4


def test_residual_verb(tmp_path):
    out = str(tmp_path / "res")
    cfg = small_cfg(fields__snapshots=3, fields__alpha2=1.0)
    assert run_command("residual", cfg, out_dir=out, quiet=True) == 0
    rep = json.load(open(os.path.join(out, "residual.json")))
    assert set(rep["norms"]) >= {"gauss", "monopole", "ampere_perp"}


def test_cli_main_and_env_out(tmp_path, monkeypatch):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL + "\n[study]\ngrids = 9,17,33\n")
    monkeypatch.setenv("PARAX_OUT", str(tmp_path / "envout"))
    assert main(["mms", "--config", str(cfgfile), "--quiet"]) == 0
    assert os.path.exists(tmp_path / "envout" / "manifest.json")


def test_cli_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scaling]\nbeta = 2.0\n")
    assert main(["fields", "--config", str(bad), "--quiet"]) == 2
    assert "beta" in capsys.readouterr().err


def test_unwritable_output_dir(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    with pytest.raises(Exception):
        run_command("fields", small_cfg(), out_dir=str(target), quiet=True)
    # no partial manifest next to the failed target
    assert not os.path.exists(str(target) + "/manifest.json")


def test_order_override(tmp_path):
    out = str(tmp_path / "ord")
    cfg = small_cfg()
    run_command("fields", cfg, out_dir=out, order=0, quiet=True)
    assert os.path.exists(os.path.join(out, "Ez_0_0.csv"))
    assert not os.path.exists(os.path.join(out, "Ez_1_0.csv"))


def test_convergence_verb_small(tmp_path):
    out = str(tmp_path / "conv")
    cfg = small_cfg(study__grids="13,25", study__etas="0.05,0.1,0.2")
    assert run_command("convergence", cfg, out_dir=out, quiet=True) == 0
    rep = json.load(open(os.path.join(out, "eta_study.json")))
    assert rep["n_max_0"]["report"]["slope"] >= 0.8
    assert rep["n_max_1"]["report"]["slope"] > 1.0  # full margin needs big grids
    assert os.path.exists(os.path.join(out, "eta_nmax1.csv"))


def test_convergence_solves_each_grid_once(tmp_path, monkeypatch):
    # the n_max 0 and 1 fits read the same n_max=1 history per grid: two
    # grids x three snapshots is six hierarchy solves, not twelve
    from parax.hierarchy import HierarchySolver
    from parax.verify import eta_scaling_study, standard_eta_runner

    calls = []
    solve = HierarchySolver.solve_hierarchy

    def counted(self, *args, **kwargs):
        calls.append(self.mesh.nx)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(HierarchySolver, "solve_hierarchy", counted)
    out = str(tmp_path / "conv")
    cfg = small_cfg(study__grids="13,25")
    assert run_command("convergence", cfg, out_dir=out, quiet=True) == 0
    assert sorted(calls) == [13, 13, 13, 25, 25, 25]

    # reference: a fresh factory per n_max solves every grid again
    pair = [(13, 13, 7), (25, 25, 13)]
    expected = {}
    for n_max in (0, 1):
        rep, data = eta_scaling_study(cfg.scaling.beta, cfg.eta_list(), n_max, pair,
                                      standard_eta_runner(beta=cfg.scaling.beta))
        expected[f"n_max_{n_max}"] = {"report": rep.as_dict(), "data": data}
    with open(os.path.join(out, "eta_study.json")) as fh:
        assert json.load(fh) == json.loads(json.dumps(expected))


def test_physical_scaling_mode(tmp_path):
    out = str(tmp_path / "phys")
    cfg = small_cfg()
    cfg.scaling.mode = "physical"
    cfg.scaling.vbar = 2.9979e7   # eta ~ 0.1
    assert run_command("residual", cfg, out_dir=out, quiet=True) == 0
    rep = json.load(open(os.path.join(out, "residual.json")))
    assert abs(rep["eta"] - 0.1) < 1e-3
    with pytest.raises(ConfigError, match="physical"):
        parse_config("[scaling]\nmode = physical\n")  # vbar missing
