"""Packaging: the version, and a runtime that needs numpy alone."""

import os
import pathlib
import re
import subprocess
import sys

import parax

ROOT = pathlib.Path(__file__).resolve().parents[1]

SMALL_RUN = """
[mesh]
nx = 9
ny = 9
nzeta = 5

[fields]
snapshots = 2

[pic]
n_particles = 300
steps = 2

[study]
grids = 9,17
"""

# any scipy import raises ImportError once sys.modules["scipy"] is None
NUMPY_ONLY = """
import sys
sys.modules["scipy"] = None
import parax, parax.cli
loaded = [m for m, mod in sys.modules.items()
          if mod is not None and (m == "scipy" or m.startswith("scipy."))]
assert not loaded, loaded
config, out = sys.argv[1:]
for verb in ("fields", "pic", "convergence"):
    code = parax.cli.main([verb, "--config", config, "--out", f"{out}/{verb}", "--quiet"])
    assert code == 0, (verb, code)
"""


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1) == parax.__version__


def test_runs_without_scipy(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(SMALL_RUN)
    src = str(pathlib.Path(parax.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY, str(config), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fields" / "manifest.json").exists()
    assert (tmp_path / "pic" / "diagnostics.jsonl").exists()
    assert (tmp_path / "convergence" / "eta_study.json").exists()
