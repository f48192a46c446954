"""Command-line front end: fields, pic, mms, residual and convergence runs.

Every successful run writes a manifest.json recording the exact config, its
hash, package versions and all reported residuals, so a run is reproducible
from its output directory alone.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, read_config, serialize_config, validate
from .fields import write_field_csv, write_table
from .hierarchy import ExternalField
from .mesh import MIN_NZETA, build_mesh
from .pic import run_pic, sample_initial_distribution
from .scaling import check_eta, compute_scaling
from .verify import (
    MMS_TARGETS,
    QuasiStaticMode,
    chain_audit,
    eta_scaling_study,
    eta_study_terms,
    maxwell_residual,
    mms_study,
    residual_terms,
    solve_timeline,
)

# named, not __name__: under ``python -m parax.cli`` that is "__main__",
# which the ``parax`` handler and ``--quiet`` would not reach
log = logging.getLogger("parax.cli")


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


def _non_finite(obj, keys=()):
    """(dotted key path, value) of the first NaN or infinity in ``obj``, in
    the sorted-key order JSON is written in, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (".".join(keys), obj)
    items = sorted(obj.items()) if isinstance(obj, dict) \
        else enumerate(obj) if isinstance(obj, (list, tuple)) else ()
    for k, v in items:
        found = _non_finite(v, keys + (str(k),))
        if found:
            return found
    return None


def _json_text(path: str, obj, indent: int | None = None) -> str:
    """``obj`` as JSON with sorted keys, or ValueError naming the file
    ``path`` and the key path of its first NaN or infinity, which JSON cannot
    carry."""
    try:
        return json.dumps(obj, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        found = _non_finite(obj)
        what = exc if found is None else f"{found[0]} is {found[1]}"
        raise ValueError(f"{os.path.basename(path)}: {what}") from None


def _write_json(path: str, obj) -> None:
    """Every JSON output: indent 2, sorted keys, a final newline, written to
    a temporary file and moved into place."""
    text = _json_text(path, obj, indent=2)
    with open(path + ".tmp", "w") as fh:
        fh.write(text + "\n")
    os.replace(path + ".tmp", path)


def _write_manifest(out_dir: str, verb: str, cfg: RunConfig, results: dict) -> None:
    text = serialize_config(cfg)
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "verb": verb,
        "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "config": text,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "parax": __version__,
        },
        "results": results,
    })


def _beta_eta(cfg: RunConfig):
    s = cfg.scaling
    eta = compute_scaling(s.vbar) if s.mode == "physical" else check_eta(s.eta)
    return s.beta, eta


def _mesh(cfg: RunConfig):
    m = cfg.mesh
    return build_mesh(m.a, m.b, m.zlen, m.nx, m.ny, m.nzeta, x0=m.x0, y0=m.y0)


def _case(cfg: RunConfig, mesh, beta) -> QuasiStaticMode:
    f = cfg.fields
    return QuasiStaticMode(mesh=mesh, beta=beta, amplitude=f.amplitude, alpha=f.alpha,
                           alpha2=f.alpha2, jc=f.jc, bz_external=cfg.external.bz,
                           dt_hist=f.dt)


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
    write_table(path, ["id", "x", "y", "zeta", "vx", "vy", "vzeta", "weight"],
                [p.x, p.y, p.zeta, p.vx, p.vy, p.vzeta, p.weight], ids=p.ids)


def cmd_fields(cfg: RunConfig, out_dir: str, quiet: bool) -> dict:
    mesh = _mesh(cfg)
    beta, eta = _beta_eta(cfg)
    case = _case(cfg, mesh, beta)
    n_steps = cfg.fields.snapshots
    files = []
    for step, hist in enumerate(solve_timeline(case, cfg.hierarchy.n_max, n_steps)):
        if step % cfg.output.cadence == 0 or step == n_steps - 1:
            files += _dump_hierarchy(out_dir, mesh, hist.latest, step)
    sources = case.sources(hist.latest.time)
    diag = {f"order{n}": {"order": n, **a} for n, a in chain_audit(hist, sources).items()}
    rep = maxwell_residual(residual_terms(hist, sources), eta)
    results = {
        "files": files,
        "diagnostics": diag,
        "maxwell_residual": dataclasses.asdict(rep),
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
            diag_fh.write(_json_text(diag_path, dataclasses.asdict(record)) + "\n")
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
        "final": dataclasses.asdict(records[-1]),
    }


def cmd_mms(cfg: RunConfig, out_dir: str, quiet: bool) -> dict:
    beta = cfg.scaling.beta  # no mms target reads eta
    target = cfg.study.target
    if target not in MMS_TARGETS:
        raise ConfigError(f"[study] target {target!r}: choose from {', '.join(MMS_TARGETS)}")
    # the ez, eperp and aniso3d targets put g nodes on zeta too
    grids = _fit_list(cfg, "grids", cfg.grid_list,
                      lambda gs: min(gs) >= MIN_NZETA and sorted(gs) in (gs, gs[::-1]),
                      f"the mms slope fit needs three or more grids of {MIN_NZETA} or "
                      f"more nodes, no two equal, in increasing or decreasing order")
    rep = mms_study(target, grids, beta, target_order=cfg.study.target_order)
    _write_study_csv(os.path.join(out_dir, f"mms_{target}.csv"), rep.parameters, rep.errors)
    report = dataclasses.asdict(rep)
    _write_json(os.path.join(out_dir, f"mms_{target}.json"), report)
    if not quiet:
        print(f"[mms] {target}: slope {rep.slope:.3f} "
              f"(target {rep.target_order}) -> {'PASS' if rep.passed else 'FAIL'}")
    return {"report": report}


def cmd_residual(cfg: RunConfig, out_dir: str, quiet: bool) -> dict:
    n_max, snapshots = cfg.hierarchy.n_max, cfg.fields.snapshots
    if snapshots < n_max + 2:
        # snapshot k holds genuine orders up to k, and the top terms read
        # order n_max of the last two snapshots
        log.warning("residual at n_max = %d from [fields] snapshots = %d: its top terms "
                    "come from cold-start data; %d snapshots are needed",
                    n_max, snapshots, n_max + 2)
    mesh = _mesh(cfg)
    beta, eta = _beta_eta(cfg)
    case = _case(cfg, mesh, beta)
    *_, hist = solve_timeline(case, n_max, snapshots, residual_only=True)
    rep = maxwell_residual(residual_terms(hist, case.sources(hist.latest.time)), eta)
    report = dataclasses.asdict(rep)
    _write_json(os.path.join(out_dir, "residual.json"), report)
    if not quiet:
        for eq, ns in rep.norms.items():
            print(f"[residual] {eq}: l2={ns['l2']:.3e}")
    return {"report": report}


def _fit_list(cfg: RunConfig, key: str, values_of, ok, need: str) -> list:
    """The [study] list ``key`` that a slope fit reads, in its given order,
    or ConfigError naming it: a fit needs three or more values, no two
    equal, that ``ok`` accepts as a list."""
    try:
        values = values_of()
    except ValueError:
        values = []
    if len(values) < 3 or len(set(values)) < len(values) or not ok(values):
        raise ConfigError(f"[study] {key} {getattr(cfg.study, key)!r}: {need}")
    return values


def _richardson_pair(cfg: RunConfig) -> tuple[int, int]:
    """The two largest [study] grids c < f, which the eta study extrapolates.

    Richardson extrapolation assumes the fine spacing halves the coarse one:
    f - 1 = 2 (c - 1), with c odd so that the zeta counts (g + 1) // 2 halve
    it too.  The coarse zeta count needs MIN_NZETA nodes.
    """
    smallest = 2 * MIN_NZETA - 1  # (c + 1) // 2 >= MIN_NZETA
    try:
        grids = sorted(cfg.grid_list())
    except ValueError:
        grids = []
    c, f = grids[-2:] if len(grids) >= 2 else (0, 0)
    if not (c >= smallest and c % 2 == 1 and f - 1 == 2 * (c - 1)):
        raise ConfigError(
            f"[study] grids {cfg.study.grids!r}: the eta study needs two or more integers "
            f"whose two largest, c < f, halve the spacing (f - 1 = 2 (c - 1), c odd, "
            f"c >= {smallest})")
    return c, f


def cmd_convergence(cfg: RunConfig, out_dir: str, quiet: bool) -> dict:
    beta = cfg.scaling.beta  # the study's etas are [study] etas
    etas = _fit_list(cfg, "etas", cfg.eta_list, lambda es: all(0 < e < np.inf for e in es),
                     "the eta slope fit needs three or more positive etas, no two equal")
    coarse, fine = (eta_study_terms(beta, (g, g, (g + 1) // 2)) for g in _richardson_pair(cfg))
    results = {}
    for n_max in (0, 1):
        rep, data = eta_scaling_study(etas, n_max, coarse, fine)
        results[f"n_max_{n_max}"] = {"report": dataclasses.asdict(rep), "data": data}
        _write_study_csv(os.path.join(out_dir, f"eta_nmax{n_max}.csv"),
                         data["etas"], data["corrected"])
        if not quiet:
            print(f"[convergence] eta slope n_max={n_max}: {rep.slope:.3f} "
                  f"(target {rep.target_order}) -> {'PASS' if rep.passed else 'FAIL'}")
    _write_json(os.path.join(out_dir, "eta_study.json"), results)
    return results


def _write_study_csv(path: str, params, errors) -> None:
    write_table(path, ["parameter", "error"], [params, errors])


# glibc's mallopt(3) parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Let the C allocator keep freed memory for the next CSV block or step.

    A CSV block frees 10-20 MB of numpy temporaries, and a PIC step with
    400k particles frees 3.2 MB per-particle arrays and (6, 8, 8192) gather
    values (3.1 MB).  glibc's dynamic thresholds (mmap at the largest freed
    mmapped chunk, trim at twice it, about 3 MB here) hand the heap top back
    to the kernel after every block, and the next block faults the same
    pages in again; an mmap threshold below an array's size maps and unmaps
    that array on every use.  Setting either threshold switches both
    dynamic ones off, so both are set: mmap at 32 MiB, glibc's own ceiling
    for its dynamic threshold, puts every such array on the heap, and trim
    at 16 MiB keeps a block's freed temporaries there.  Minor faults by
    (mmap, trim) in MiB (2 vCPUs): one run of one benchmark ``cli_outputs``
    unit (``parax fields`` on 33x33x17, then ``parax pic`` with 50k
    particles and 10 steps): unset 166k; (32, 16) 9.7-10.1k, as (2, 16) and
    (4, 16); (32, 64) 14k; (2, 8) 157k; (32, 8) 108k.  A 10-step ``run_pic``
    on 17x17x9 with 400k particles: unset 16.8k; (32, 16) 16.5k; (2, 16)
    448k.  Where the C library has no ``mallopt`` (macOS, Windows) this
    does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


COMMANDS = {
    "fields": cmd_fields,
    "pic": cmd_pic,
    "mms": cmd_mms,
    "residual": cmd_residual,
    "convergence": cmd_convergence,
}
VERBS = tuple(COMMANDS)


def run_command(
    verb: str,
    cfg: RunConfig,
    out_dir: str | None = None,
    quiet: bool = False,
    n_chunks: int = 1,
) -> int:
    """Run ``verb`` on ``cfg`` as given, writing to ``out_dir`` (default
    ``[output] directory``); returns the process exit status.

    ``n_chunks`` is accepted for existing callers and changes nothing.
    """
    if verb not in COMMANDS:
        raise RunError(f"unknown verb {verb!r}")
    out = _ensure_outdir(out_dir or cfg.output.directory)
    _keep_freed_memory()
    try:
        validate(cfg)  # a refused config leaves error.json like a failed run
        _write_manifest(out, verb, cfg, COMMANDS[verb](cfg, out, quiet))
    except Exception as exc:
        report = {"verb": verb, "error": f"{type(exc).__name__}: {exc}"}
        try:
            _write_json(os.path.join(out, "error.json"), report)
        except OSError:
            pass
        raise
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="parax",
        description="hierarchical paraxial beam-field solver and PIC loop",
    )
    ap.add_argument("verb", choices=VERBS)
    ap.add_argument("--config", help="path to the run configuration", default=None)
    ap.add_argument("--out", help="output directory (default: [output] directory)")
    ap.add_argument("--order", type=int, help="set [hierarchy] n_max")
    ap.add_argument("--seed", type=int, help="set [pic] seed")
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
    # --quiet also drops numpy's RuntimeWarnings (overflow, invalid value);
    # the filter lives only for this call, so callers keep their own
    with warnings.catch_warnings():
        if args.quiet:
            warnings.simplefilter("ignore", RuntimeWarning)
        try:
            cfg = read_config(args.config) if args.config else RunConfig()
            # the flags are config keys, checked by validate like the others
            if args.order is not None:
                cfg.hierarchy.n_max = args.order
            if args.seed is not None:
                cfg.pic.seed = args.seed
            return run_command(args.verb, cfg, out_dir=args.out, quiet=args.quiet)
        except (ConfigError, RunError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # solver failures already wrote error.json
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
