import logging

import numpy as np
import pytest

from parax.cli import main
from parax.scaling import ETA_WARN_THRESHOLD, SPEED_OF_LIGHT, compute_scaling


def test_compute_scaling_example():
    assert compute_scaling(2.9979e7) == pytest.approx(0.1, rel=1e-4)


def test_scaling_identities():
    for vbar in (1.0, 3.0e7, 0.25 * SPEED_OF_LIGHT, np.nextafter(SPEED_OF_LIGHT, 0.0)):
        assert compute_scaling(vbar) == vbar / SPEED_OF_LIGHT


def test_compute_scaling_rejections():
    for vbar in (0.0, -3e7, SPEED_OF_LIGHT, 3.1e8, float("nan")):
        with pytest.raises(ValueError, match="0 < vbar < c"):
            compute_scaling(vbar)


def test_eta_warning_flag(caplog):
    with caplog.at_level(logging.WARNING, logger="parax.scaling"):
        compute_scaling(ETA_WARN_THRESHOLD * SPEED_OF_LIGHT)
        assert not caplog.records
        eta = compute_scaling(1.2e8)
    assert eta > ETA_WARN_THRESHOLD
    assert [r.name for r in caplog.records] == ["parax.scaling"]
    assert "asymptotic regime questionable" in caplog.text


@pytest.mark.parametrize("mode, setting, eta", [("dimensionless", "eta = 0.9", "0.9"),
                                                 ("physical", "vbar = 1.2e8", "0.4")],
                         ids=["dimensionless", "physical"])
def test_large_eta_warns_in_either_scaling_mode(tmp_path, capsys, mode, setting, eta):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[mesh]\nnx = 5\nny = 5\nnzeta = 4\n\n[fields]\nsnapshots = 1\n\n"
                   f"[scaling]\nmode = {mode}\n{setting}\n")
    capsys.readouterr()
    assert main(["fields", "--config", str(ini), "--out", str(tmp_path / "loud")]) == 0
    warning = f"WARNING parax.scaling: eta = {eta} > {ETA_WARN_THRESHOLD:g}: " \
              "asymptotic regime questionable"
    assert warning in capsys.readouterr().err
    assert main(["fields", "--config", str(ini), "--out", str(tmp_path / "quiet"),
                 "--quiet"]) == 0
    assert "WARNING" not in capsys.readouterr().err


def test_chain_rule_mapping():
    # (d/dz, d/dvz, d/dt) -> (-d/dzeta, -d/dvzeta, d/dt + beta*c*d/dzeta)
    beta, c = 0.4, 3.0

    def g_beam(zeta, vzeta, t):
        return np.sin(1.3 * zeta) * np.cos(0.7 * vzeta) + 0.5 * t * zeta

    def g_lab(z, vz, t):
        return g_beam(beta * c * t - z, beta * c - vz, t)

    z0, vz0, t0 = 0.3, 0.9, 1.1
    zeta0, vzeta0 = beta * c * t0 - z0, beta * c - vz0
    eps = 1e-6

    def fd(f, args, idx):
        lo, hi = list(args), list(args)
        lo[idx] -= eps
        hi[idx] += eps
        return (f(*hi) - f(*lo)) / (2 * eps)

    d_dz = fd(g_lab, (z0, vz0, t0), 0)
    d_dvz = fd(g_lab, (z0, vz0, t0), 1)
    d_dt_lab = fd(g_lab, (z0, vz0, t0), 2)
    d_dzeta = fd(g_beam, (zeta0, vzeta0, t0), 0)
    d_dvzeta = fd(g_beam, (zeta0, vzeta0, t0), 1)
    d_dt_beam = fd(g_beam, (zeta0, vzeta0, t0), 2)

    assert d_dz == pytest.approx(-d_dzeta, rel=1e-6)
    assert d_dvz == pytest.approx(-d_dvzeta, rel=1e-6)
    assert d_dt_lab == pytest.approx(d_dt_beam + beta * c * d_dzeta, rel=1e-6)
