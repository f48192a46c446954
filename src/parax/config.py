"""Run configuration: flat-section key=value files (INI grammar).

Every key is validated against the schema below at parse time; unknown keys
are rejected with a close-match suggestion, and constraint violations name
the offending key.  parse(serialize(config)) is a fixed point.
"""

from __future__ import annotations

import configparser
import difflib
import io
import math
from dataclasses import dataclass, field, fields as dc_fields

from .mesh import MIN_NZETA


class ConfigError(ValueError):
    pass


@dataclass
class MeshBlock:
    a: float = 1.0
    b: float = 1.0
    zlen: float = 2.0
    nx: int = 17
    ny: int = 17
    nzeta: int = 17
    x0: float = 0.0
    y0: float = 0.0


@dataclass
class ScalingBlock:
    mode: str = "dimensionless"   # or "physical" (vbar given in SI)
    beta: float = 0.5
    eta: float = 0.1
    vbar: float = 0.0


@dataclass
class HierarchyBlock:
    n_max: int = 1


@dataclass
class PicBlock:
    family: str = "gaussian"
    n_particles: int = 1000
    seed: int = 1234
    dt: float = 0.05
    steps: int = 10
    total_weight: float = 1.0
    radius: float = 0.25
    sigma: float = 0.1
    zeta_center: float = -1.0   # negative: domain center
    zeta_width: float = -1.0    # negative: zlen/4
    vth: float = 0.0
    vzeta_mean: float = 0.0
    vzeta_th: float = 0.0


@dataclass
class ExternalBlock:
    bz: float = 0.0


@dataclass
class FieldsBlock:
    case: str = "qs-mode-111"
    amplitude: float = 1.0
    alpha: float = 0.0
    alpha2: float = 0.0
    jc: float = 0.0
    dt: float = 0.05
    snapshots: int = 3


@dataclass
class StudyBlock:
    target: str = "poisson2d"   # parax mms: poisson2d|aniso3d|divcurl|ez|eperp
    grids: str = "17,33,65"     # nodes per transverse axis
    etas: str = "0.05,0.1,0.2"
    target_order: float = 1.9


@dataclass
class OutputBlock:
    directory: str = "out"
    cadence: int = 1


@dataclass
class RunConfig:
    mesh: MeshBlock = field(default_factory=MeshBlock)
    scaling: ScalingBlock = field(default_factory=ScalingBlock)
    hierarchy: HierarchyBlock = field(default_factory=HierarchyBlock)
    pic: PicBlock = field(default_factory=PicBlock)
    external: ExternalBlock = field(default_factory=ExternalBlock)
    fields: FieldsBlock = field(default_factory=FieldsBlock)
    study: StudyBlock = field(default_factory=StudyBlock)
    output: OutputBlock = field(default_factory=OutputBlock)

    def grid_list(self) -> list[int]:
        return [int(v) for v in self.study.grids.split(",") if v.strip()]

    def eta_list(self) -> list[float]:
        return [float(v) for v in self.study.etas.split(",") if v.strip()]


_BLOCKS = {f.name: f.default_factory for f in dc_fields(RunConfig)}


def _convert(raw: str, target_type: type, where: str):
    try:
        return target_type(raw)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {target_type.__name__}")


def _floats(cfg: RunConfig):
    """``([section] key, value)`` for every float setting."""
    for name in _BLOCKS:
        block = getattr(cfg, name)
        for f in dc_fields(block):
            value = getattr(block, f.name)
            if isinstance(value, float):
                yield f"[{name}] {f.name}", value


def validate(cfg: RunConfig) -> RunConfig:
    """Return ``cfg``, or raise ConfigError naming the first setting out of range."""
    m, s, h, p, o = cfg.mesh, cfg.scaling, cfg.hierarchy, cfg.pic, cfg.output
    checks = [
        *((math.isfinite(v), f"{key} must be finite, got {v!r}") for key, v in _floats(cfg)),
        (m.a > 0 and m.b > 0 and m.zlen > 0, "mesh extents (a, b, zlen) must be positive"),
        (m.nx >= 3 and m.ny >= 3, "[mesh] nx and ny must be >= 3"),
        (m.nzeta >= MIN_NZETA,
         f"[mesh] nzeta must be >= {MIN_NZETA}, the fewest zeta nodes the field chain runs on"),
        (0.0 < s.beta < 1.0, "beta must lie in (0, 1)"),
        (s.mode in ("dimensionless", "physical"), "scaling mode must be dimensionless|physical"),
        (s.mode != "dimensionless" or s.eta > 0, "eta must be positive"),
        (s.mode != "physical" or s.vbar > 0, "physical mode needs vbar > 0"),
        (h.n_max >= 0, "n_max must be >= 0"),
        (p.n_particles > 0, "n_particles must be positive"),
        (p.dt > 0, "pic dt must be positive"),
        (p.steps >= 0, "steps must be >= 0"),
        (p.total_weight > 0, "total_weight must be positive"),
        *((getattr(p, k) >= 0, f"[pic] {k} must be >= 0")
          for k in ("radius", "sigma", "vth", "vzeta_th")),
        (p.family in ("uniform", "gaussian", "cold"), "family must be uniform|gaussian|cold"),
        (o.cadence >= 1, "cadence must be >= 1"),
        (cfg.fields.case in ("qs-mode-111", "zero"),
         f"[fields] case must be qs-mode-111 or zero, got {cfg.fields.case!r}"),
        (cfg.fields.snapshots >= 1, "snapshots must be >= 1"),
        (cfg.fields.dt > 0, "fields dt must be positive"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    return cfg


def parse_config(text_or_path: str) -> RunConfig:
    """Parse and validate a config from a path or literal text."""
    return validate(read_config(text_or_path))


def read_config(text_or_path: str) -> RunConfig:
    """Parse a config from a path or literal text: every section, key and
    value type is checked, no value range (see :func:`validate`)."""
    text = text_or_path
    if "\n" not in text_or_path and not text_or_path.lstrip().startswith("["):
        with open(text_or_path) as fh:
            text = fh.read()
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    cfg = RunConfig()
    for section in cp.sections():
        if section not in _BLOCKS:
            hint = difflib.get_close_matches(section, _BLOCKS, n=1)
            extra = f"; did you mean [{hint[0]}]?" if hint else ""
            raise ConfigError(f"unknown section [{section}]{extra}")
        block = getattr(cfg, section)
        known = {f.name: f.type for f in dc_fields(block)}
        types = {f.name: type(getattr(block, f.name)) for f in dc_fields(block)}
        for key, raw in cp.items(section):
            if key not in known:
                hint = difflib.get_close_matches(key, known, n=1)
                extra = f"; did you mean {hint[0]!r}?" if hint else ""
                raise ConfigError(f"unknown key {key!r} in [{section}]{extra}")
            setattr(block, key, _convert(raw, types[key], f"[{section}] {key}"))
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) reproduces cfg exactly."""
    cp = configparser.ConfigParser()
    for name in _BLOCKS:
        block = getattr(cfg, name)
        cp[name] = {f.name: str(getattr(block, f.name)) for f in dc_fields(block)}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
