"""Run configuration: flat-section key=value files (INI grammar).

:func:`read_config` checks every section, key and value type against the
schema below and rejects unknown ones with a close-match suggestion;
:func:`validate` checks value ranges, and each refusal names its
``[section] key``.  Parsing serialize_config(config) gives config back.
"""

from __future__ import annotations

import configparser
import difflib
import io
import math
from dataclasses import dataclass, field, fields as dc_fields

from .mesh import MIN_NZETA
from .scaling import SPEED_OF_LIGHT


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


def _range_checks(cfg: RunConfig):
    """``(section, key, ok, requirement)`` for every range check of
    :func:`validate`, in the order it applies them."""
    m, s, h, p, f, o = cfg.mesh, cfg.scaling, cfg.hierarchy, cfg.pic, cfg.fields, cfg.output
    for name in _BLOCKS:
        block = getattr(cfg, name)
        for fd in dc_fields(block):
            value = getattr(block, fd.name)
            if isinstance(value, float):
                yield name, fd.name, math.isfinite(value), "must be finite"
    for key in ("a", "b", "zlen"):
        yield "mesh", key, getattr(m, key) > 0, "must be positive"
    yield "mesh", "nx", m.nx >= 3, "must be >= 3"
    yield "mesh", "ny", m.ny >= 3, "must be >= 3"
    yield ("mesh", "nzeta", m.nzeta >= MIN_NZETA,
           f"must be >= {MIN_NZETA}, the fewest zeta nodes the field chain runs on")
    yield "scaling", "beta", 0.0 < s.beta < 1.0, "must lie in (0, 1)"
    # below about 7.5e-9 the field chain's kappa = 1 - beta^2 rounds to 1
    yield "scaling", "beta", 1.0 - s.beta**2 < 1.0, "is too small: 1 - beta^2 rounds to 1"
    yield "scaling", "mode", s.mode in ("dimensionless", "physical"), \
        "must be dimensionless or physical"
    yield "scaling", "eta", s.mode != "dimensionless" or s.eta > 0, \
        "must be positive in dimensionless mode"
    yield "scaling", "vbar", s.mode != "physical" or 0 < s.vbar < SPEED_OF_LIGHT, \
        f"must lie in (0, {SPEED_OF_LIGHT:.0f}) m/s in physical mode"
    yield "hierarchy", "n_max", h.n_max >= 0, "must be >= 0"
    yield "pic", "n_particles", p.n_particles > 0, "must be positive"
    yield "pic", "seed", p.seed >= 0, "must be >= 0"
    yield "pic", "dt", p.dt > 0, "must be positive"
    yield "pic", "steps", p.steps >= 0, "must be >= 0"
    yield "pic", "total_weight", p.total_weight > 0, "must be positive"
    for key in ("radius", "sigma", "vth", "vzeta_th"):
        yield "pic", key, getattr(p, key) >= 0, "must be >= 0"
    yield "pic", "family", p.family in ("uniform", "gaussian", "cold"), \
        "must be uniform, gaussian or cold"
    yield "output", "cadence", o.cadence >= 1, "must be >= 1"
    yield "fields", "snapshots", f.snapshots >= 1, "must be >= 1"
    yield "fields", "dt", f.dt > 0, "must be positive"
    # derived values, formed by products: a float power would raise on overflow
    kappa = 1.0 - s.beta**2
    for key, nodes, coeff in (("a", m.nx, 1.0), ("b", m.ny, 1.0), ("zlen", m.nzeta, kappa)):
        step = getattr(m, key) / (nodes - 1)
        yield "mesh", key, 0.0 < step * step < math.inf and coeff / (step * step) < math.inf, \
            "gives a mesh spacing whose square (or coefficient / square) is 0 or not finite"
    last = (f.snapshots - 1) * f.dt
    yield "fields", "dt", last * last < math.inf, \
        "is too large: the last snapshot time squared is not finite"
    yield "scaling", "eta", s.mode != "dimensionless" or _finite_power(s.eta, h.n_max + 1), \
        "is too large: eta^(n_max + 1) is not finite"


def _finite_power(x: float, k: int) -> bool:
    try:
        return math.isfinite(x**k)
    except OverflowError:
        return False


def validate(cfg: RunConfig) -> RunConfig:
    """Return ``cfg``, or raise ConfigError naming the ``[section] key`` of
    the first setting out of range."""
    for section, key, ok, requirement in _range_checks(cfg):
        if not ok:
            value = getattr(getattr(cfg, section), key)
            raise ConfigError(f"[{section}] {key} {requirement}, got {value!r}")
    return cfg


def read_config(path: str) -> RunConfig:
    """Parse the config file at ``path``: every section, key and value type
    is checked, no value range (see :func:`validate`)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from exc
    return _parse_config(text)


def _parser() -> configparser.ConfigParser:
    """The parser that reads and writes config text.  Values are taken as
    written, with no ``%`` interpolation, and ``[DEFAULT]`` is an ordinary
    section name, so it is refused as unknown: the default section is named
    "", which no section header can spell."""
    return configparser.ConfigParser(interpolation=None, default_section="")


def _parse_config(text: str) -> RunConfig:
    """Parse config text as :func:`read_config` parses a file's."""
    cp = _parser()
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
    cp = _parser()
    for name in _BLOCKS:
        block = getattr(cfg, name)
        cp[name] = {f.name: str(getattr(block, f.name)) for f in dc_fields(block)}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
