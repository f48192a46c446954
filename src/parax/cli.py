"""Command-line front end: fields, pic, mms, residual and convergence runs.

Every successful run writes a manifest.json recording the exact config, its
hash, package versions and all reported residuals, so a run is reproducible
from its output directory alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .elliptic import (
    BoundarySpec,
    DIRICHLET,
    solve_anisotropic_poisson_3d,
    solve_divcurl_2d,
    solve_poisson_2d,
)
from .fields import CSV_ROWS, csv_rows, format_d, format_g17, write_field_csv
from .hierarchy import ChainContext, ExternalField, FieldHistory, HierarchySolver
from .mesh import build_mesh
from .operators import boundary_tangential_trace, circulation, norms
from .pic import run_pic, sample_initial_distribution
from .scaling import compute_scaling
from .verify import (
    QuasiStaticMode,
    convergence_study,
    eta_scaling_study,
    maxwell_residual,
    mms_case,
    residual_terms,
    snapshot_order,
    standard_eta_runner,
)

VERBS = ("fields", "pic", "mms", "residual", "convergence")


class RunError(RuntimeError):
    pass


def _ensure_outdir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise RunError(f"output directory {path!r} is not writable: {exc}") from exc
    return path


def _write_manifest(out_dir: str, verb: str, cfg: RunConfig, results: dict) -> None:
    text = serialize_config(cfg)
    manifest = {
        "verb": verb,
        "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "config": text,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "parax": __version__,
        },
        "results": results,
    }
    tmp = os.path.join(out_dir, "manifest.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))


def _beta_eta(cfg: RunConfig):
    s = cfg.scaling
    if s.mode == "physical":
        return s.beta, compute_scaling(s.vbar)
    return s.beta, s.eta


def _mesh(cfg: RunConfig):
    m = cfg.mesh
    return build_mesh(m.a, m.b, m.zlen, m.nx, m.ny, m.nzeta, x0=m.x0, y0=m.y0)


def _case(cfg: RunConfig, mesh, beta) -> QuasiStaticMode:
    f = cfg.fields
    if not f.case.startswith("qs-mode") and f.case != "zero":
        raise RunError(f"fields case must be qs-mode-* or zero, got {f.case!r}")
    knobs = dict(amplitude=f.amplitude, alpha=f.alpha, alpha2=f.alpha2, jc=f.jc,
                 bz_external=cfg.external.bz, dt_hist=f.dt)
    if f.case == "zero":
        knobs.update(amplitude=0.0, alpha=0.0, alpha2=0.0, jc=0.0)
    return QuasiStaticMode(mesh=mesh, beta=beta, **knobs)


def _solve_timeline(cfg: RunConfig, mesh, beta, residual_only: bool = False):
    """Solve the configured number of snapshots of the manufactured case, each
    to ``[hierarchy] n_max``, or with ``residual_only`` only to the order the
    residual of the last two reads (:func:`verify.snapshot_order`)."""
    case = _case(cfg, mesh, beta)
    solver = HierarchySolver(mesh, beta, external=ExternalField(bz=cfg.external.bz))
    hist = FieldHistory()
    t = 0.0
    hierarchies = []
    top, n_steps = cfg.hierarchy.n_max, cfg.fields.snapshots
    for k in range(n_steps):
        t = k * cfg.fields.dt
        order = snapshot_order(top, n_steps, k) if residual_only else top
        h = solver.solve_hierarchy(order, case.sources(t), hist, time=t)
        hist.push(h)
        hierarchies.append(h)
    return case, hist, hierarchies


def _dump_hierarchy(out_dir: str, mesh, hierarchy, step: int) -> list[str]:
    written = []
    for o in hierarchy.orders:
        for kind, comps in (
            ("Ez", {"Ez": o.Ez.values}),
            ("Ecal", {"Ecal_x": o.Ecal.x, "Ecal_y": o.Ecal.y}),
            ("Eperp", {"Ex": o.Eperp.x, "Ey": o.Eperp.y}),
            ("Bperp", {"Bx": o.Bperp.x, "By": o.Bperp.y}),
            ("Bz", {"Bz": o.Bz.values}),
        ):
            name = f"{kind}_{o.n}_{step}.csv"
            write_field_csv(os.path.join(out_dir, name), mesh, comps)
            written.append(name)
    return written


def _write_particles(path: str, p) -> None:
    columns = [p.x, p.y, p.zeta, p.vx, p.vy, p.vzeta, p.weight]
    with open(path, "wb") as fh:
        fh.write(b"id,x,y,zeta,vx,vy,vzeta,weight\n")
        for s in range(0, len(p.ids), CSV_ROWS):
            block = np.stack([c[s:s + CSV_ROWS] for c in columns], axis=1)
            fh.write(csv_rows(format_d(p.ids[s:s + CSV_ROWS]), format_g17(block)))


def cmd_fields(cfg: RunConfig, out_dir: str, quiet: bool) -> dict:
    mesh = _mesh(cfg)
    beta, eta = _beta_eta(cfg)
    case, hist, hierarchies = _solve_timeline(cfg, mesh, beta)
    files = []
    for step, h in enumerate(hierarchies):
        if step % cfg.output.cadence == 0 or step == len(hierarchies) - 1:
            files += _dump_hierarchy(out_dir, mesh, h, step)
    diag = {f"order{o.n}": o.diagnostics for o in hierarchies[-1].orders}
    rep = maxwell_residual(residual_terms(hist, case.sources(hierarchies[-1].time)), eta)
    results = {
        "files": files,
        "diagnostics": _jsonable(diag),
        "maxwell_residual": rep.as_dict(),
    }
    if not quiet:
        for eq, ns in rep.norms.items():
            print(f"[fields] residual {eq}: l2={ns['l2']:.3e} max={ns['max']:.3e}")
    return results


def cmd_pic(cfg: RunConfig, out_dir: str, quiet: bool) -> dict:
    mesh = _mesh(cfg)
    beta, eta = _beta_eta(cfg)
    p = cfg.pic
    particles = sample_initial_distribution(
        mesh, p.family, p.n_particles, p.seed, total_weight=p.total_weight,
        radius=p.radius, sigma=p.sigma,
        zeta_center=None if p.zeta_center < 0 else p.zeta_center,
        zeta_width=None if p.zeta_width < 0 else p.zeta_width,
        vth=p.vth, vzeta_mean=p.vzeta_mean, vzeta_th=p.vzeta_th,
    )
    diag_path = os.path.join(out_dir, "diagnostics.jsonl")
    files = []
    with open(diag_path, "w") as diag_fh:
        def on_step(step, parts, hierarchy, record):
            diag_fh.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
            if step % cfg.output.cadence == 0 or step == p.steps:
                name = f"particles_0_{step}.csv"
                _write_particles(os.path.join(out_dir, name), parts)
                files.append(name)

        final, hist, records = run_pic(
            mesh, beta, eta, particles, n_max=cfg.hierarchy.n_max, dt=p.dt,
            steps=p.steps, external=ExternalField(bz=cfg.external.bz), on_step=on_step,
        )
    if not quiet:
        last = records[-1]
        print(f"[pic] {p.steps} steps, {last.n_particles} particles remain, "
              f"{last.absorbed_total} absorbed")
    return {
        "files": files + ["diagnostics.jsonl"],
        "final": records[-1].as_dict(),
    }


def _mms_poisson2d(grids, beta):
    errs, hs = [], []
    for g in grids:
        mesh = build_mesh(1.0, 1.0, 1.0, g, g, 3)
        case = mms_case("poisson-sine", mesh, beta)
        u = solve_poisson_2d(case["rhs"], BoundarySpec.uniform(DIRICHLET, 0.0))
        errs.append(norms(u.values - case["exact"].values, mesh)["l2"])
        hs.append(1.0 / (g - 1))
    return hs, errs


def _mms_aniso3d(grids, beta):
    errs, hs = [], []
    for g in grids:
        mesh = build_mesh(1.0, 1.0, 2.0, g, g, g)
        case = mms_case("ez-mode-111", mesh, beta)
        u = solve_anisotropic_poisson_3d(
            case["kappa"], case["rhs"],
            BoundarySpec.uniform(DIRICHLET, 0.0, volumetric=True),
        )
        errs.append(norms(u.values - case["exact"].values, mesh)["l2"])
        hs.append(1.0 / (g - 1))
    return hs, errs


def _mms_divcurl(grids, beta):
    errs, hs = [], []
    for g in grids:
        mesh = build_mesh(1.0, 1.0, 1.0, g, g, 3)
        case = mms_case("divcurl-mixed", mesh, beta)
        A = solve_divcurl_2d(
            case["div"], case["curl"],
            boundary_tangential_trace(case["exact"]),
            float(circulation(case["exact"])),
        )
        err = np.hypot(A.x - case["exact"].x, A.y - case["exact"].y)
        errs.append(norms(err, mesh)["l2"])
        hs.append(1.0 / (g - 1))
    return hs, errs


def _mms_chain(grids, beta, which):
    errs, hs = [], []
    for g in grids:
        mesh = build_mesh(1.0, 1.0, 2.0, g, g, g)
        case = QuasiStaticMode(mesh=mesh, beta=beta)
        solver = HierarchySolver(mesh, beta)
        ctx = ChainContext(sources=case.sources(0.0), history=FieldHistory(), time=0.0)
        exact = case.exact_order(0, 0.0)
        Ez = solver.solve_Ez_order(0, ctx)
        if which == "ez":
            err = Ez.values - exact["Ez"].values
        else:
            E = solver.solve_Eperp_order(0, exact["Ecal"], exact["Ez"], ctx)
            err = np.hypot(E.x - exact["Eperp"].x, E.y - exact["Eperp"].y)
        errs.append(norms(err, mesh)["l2"])
        hs.append(1.0 / (g - 1))
    return hs, errs


MMS_TARGETS = {
    "poisson2d": _mms_poisson2d,
    "aniso3d": _mms_aniso3d,
    "divcurl": _mms_divcurl,
    "ez": lambda grids, beta: _mms_chain(grids, beta, "ez"),
    "eperp": lambda grids, beta: _mms_chain(grids, beta, "eperp"),
}


def cmd_mms(cfg: RunConfig, out_dir: str, quiet: bool) -> dict:
    beta, _ = _beta_eta(cfg)
    target = cfg.study.target
    if target not in MMS_TARGETS:
        raise RunError(f"unknown mms target {target!r}; choose from {sorted(MMS_TARGETS)}")
    hs, errs = MMS_TARGETS[target](cfg.grid_list(), beta)
    rep = convergence_study(hs, errs, target_order=cfg.study.target_order, label=target)
    _write_study_csv(os.path.join(out_dir, f"mms_{target}.csv"), hs, errs)
    with open(os.path.join(out_dir, f"mms_{target}.json"), "w") as fh:
        json.dump(rep.as_dict(), fh, indent=2, sort_keys=True)
    if not quiet:
        print(f"[mms] {target}: slope {rep.slope:.3f} "
              f"(target {rep.target_order}) -> {'PASS' if rep.passed else 'FAIL'}")
    return {"report": rep.as_dict()}


def cmd_residual(cfg: RunConfig, out_dir: str, quiet: bool) -> dict:
    mesh = _mesh(cfg)
    beta, eta = _beta_eta(cfg)
    case, hist, hierarchies = _solve_timeline(cfg, mesh, beta, residual_only=True)
    rep = maxwell_residual(residual_terms(hist, case.sources(hierarchies[-1].time)), eta)
    with open(os.path.join(out_dir, "residual.json"), "w") as fh:
        json.dump(rep.as_dict(), fh, indent=2, sort_keys=True)
    if not quiet:
        for eq, ns in rep.norms.items():
            print(f"[residual] {eq}: l2={ns['l2']:.3e}")
    return {"report": rep.as_dict()}


def cmd_convergence(cfg: RunConfig, out_dir: str, quiet: bool) -> dict:
    beta, _ = _beta_eta(cfg)
    grids = cfg.grid_list()
    if len(grids) < 2:
        raise RunError("eta study needs two grids (coarse, fine) in study.grids")
    # Richardson wants the finest available pair
    pair = [(g, g, (g + 1) // 2) for g in sorted(grids)[-2:]]
    make_runner = standard_eta_runner(beta=beta)
    results = {}
    for n_max in (0, 1):
        rep, data = eta_scaling_study(beta, cfg.eta_list(), n_max, pair, make_runner)
        results[f"n_max_{n_max}"] = {"report": rep.as_dict(), "data": data}
        _write_study_csv(os.path.join(out_dir, f"eta_nmax{n_max}.csv"),
                         data["etas"], data["corrected"])
        if not quiet:
            print(f"[convergence] eta slope n_max={n_max}: {rep.slope:.3f} "
                  f"(target {rep.target_order}) -> {'PASS' if rep.passed else 'FAIL'}")
    with open(os.path.join(out_dir, "eta_study.json"), "w") as fh:
        json.dump(_jsonable(results), fh, indent=2, sort_keys=True)
    return results


def _write_study_csv(path: str, params, errors) -> None:
    with open(path, "wb") as fh:
        fh.write(b"parameter,error\n")
        fh.write(csv_rows(format_g17(np.column_stack([params, errors]))))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if hasattr(obj, "as_dict"):
        return _jsonable(obj.as_dict())
    return obj


COMMANDS = {
    "fields": cmd_fields,
    "pic": cmd_pic,
    "mms": cmd_mms,
    "residual": cmd_residual,
    "convergence": cmd_convergence,
}


def run_command(
    verb: str,
    cfg: RunConfig,
    out_dir: str | None = None,
    order: int | None = None,
    seed: int | None = None,
    quiet: bool = False,
    n_chunks: int = 1,
) -> int:
    """Dispatch a verb; returns the process exit status.

    ``n_chunks`` is accepted for existing callers and changes nothing.
    """
    if verb not in COMMANDS:
        raise RunError(f"unknown verb {verb!r}")
    if order is not None:
        if order < 0:
            raise RunError("--order must be >= 0")
        cfg.hierarchy.n_max = order
    if seed is not None:
        cfg.pic.seed = seed
    out = out_dir or os.environ.get("PARAX_OUT") or cfg.output.directory
    out = _ensure_outdir(out)
    try:
        results = COMMANDS[verb](cfg, out, quiet)
    except Exception as exc:
        report = {"verb": verb, "error": f"{type(exc).__name__}: {exc}"}
        try:
            with open(os.path.join(out, "error.json"), "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
        except OSError:
            pass
        raise
    _write_manifest(out, verb, cfg, _jsonable(results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="parax",
        description="hierarchical paraxial beam-field solver and PIC loop",
    )
    ap.add_argument("verb", choices=VERBS)
    ap.add_argument("--config", help="path to the run configuration", default=None)
    ap.add_argument("--out", help="output directory (overrides config/PARAX_OUT)")
    ap.add_argument("--order", type=int, help="override hierarchy n_max")
    ap.add_argument("--seed", type=int, help="override the particle seed")
    ap.add_argument("--quiet", action="store_true")
    return ap


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a record is emitted, so a
    caller that swaps ``sys.stderr`` between runs never gets a stale one."""

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def _configure_logging(quiet: bool) -> None:
    """One stderr handler on the ``parax`` logger, added on the first call;
    ``quiet`` lets only errors through it."""
    log = logging.getLogger("parax")
    handler = next((h for h in log.handlers if isinstance(h, _StderrHandler)), None)
    if handler is None:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)
    handler.setLevel(logging.ERROR if quiet else logging.WARNING)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.quiet)
    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        return run_command(
            args.verb, cfg, out_dir=args.out, order=args.order,
            seed=args.seed, quiet=args.quiet,
        )
    except (ConfigError, RunError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver failures already wrote error.json
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
