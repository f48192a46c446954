"""In-memory span tracer that wraps parax functions from the outside.

Each call into a wrapped function records a span ``[name, start, end, parent]``
in ``Tracer.spans``; spans stay in memory until the unit ends and are then
reduced to per-layer numbers.  A layer's self time is its spans' duration
minus the duration of their direct child spans.

Functions are wrapped under the names the calling code looks them up by
(``parax.hierarchy.solve_divcurl_2d`` rather than ``parax.elliptic...``,
because hierarchy imports it by name).  A target that no longer exists is
recorded in ``Tracer.missing`` and its metrics are reported as absent; the
benchmark never fails because a private name went away.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import logging
import os
import statistics
import time
from collections import defaultdict

# the benchmark's own checks: spans of this name are left out of a unit's time
CHECK = "bench.check"

# at a span boundary, run the host-speed probe if this long has passed since
# the last one
PROBE_EVERY_S = 0.05
# the probe's time on a quiet core of the reference host (Intel Xeon, Python
# 3.11.7, numpy 2.4.6), without and with the streaming part: quiet-clock
# seconds are seconds at that speed
QUIET_PROBE_S = 1.2e-3
QUIET_STREAM_PROBE_S = 2.5e-3
# the host's speed between two probes is read from this many probes on each side
PROBE_WINDOW = 5


class Probe:
    """A fixed reference kernel, timed between the program's calls.

    The host's speed for single-threaded work drifts by up to 1.5x over
    seconds to minutes, and the probe's time follows it closely.  The probe
    is a pure-Python loop and a numpy sort of 160 kB, about 1.2 ms, which
    tracks Python-bound work.  With ``stream``, it also streams over two
    2 MB vectors (about 1.3 ms more), which tracks numpy work on vectors of
    that size; these live in the large shared L3 cache whatever the program
    did before, so the program's own memory traffic barely moves them.
    """

    def __init__(self, stream: bool = False):
        import numpy as np

        rng = np.random.default_rng(0)
        self._data = rng.random(20_000)
        self._x = rng.random(1 << 18) if stream else None
        self._y = np.zeros(1 << 18) if stream else None
        self.quiet_s = QUIET_STREAM_PROBE_S if stream else QUIET_PROBE_S

    def run(self) -> float:
        t = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i
        self._data.copy().sort()
        if self._x is not None:
            for _ in range(3):
                self._y += 0.5 * self._x
            float(self._x @ self._y)
        return time.perf_counter() - t


class QuietClock:
    """Maps the tracer's clock to seconds at the host's quiet speed.

    Between two probes, time is scaled by the probe's quiet time over the
    median time of the PROBE_WINDOW probes on each side, so work timed while
    the host was slow counts as the time it takes on a quiet host.
    """

    def __init__(self, probes: list[tuple[float, float]], quiet_s: float):
        self.knots = [t for t, _ in probes]
        took = [dt for _, dt in probes]
        w = PROBE_WINDOW
        # rate[i] holds from knots[i-1] to knots[i]; rate[0] before the first
        self.rate = [quiet_s / statistics.median(took[max(0, i - w):i + w]) if took else 1.0
                     for i in range(len(took) + 1)]
        self.at = [0.0]
        for i in range(1, len(self.knots)):
            self.at.append(self.at[-1] + (self.knots[i] - self.knots[i - 1]) * self.rate[i])

    def __call__(self, t: float) -> float:
        if not self.knots:
            return t
        i = bisect.bisect_right(self.knots, t)
        if i == 0:
            return (t - self.knots[0]) * self.rate[0]
        return self.at[i - 1] + (t - self.knots[i - 1]) * self.rate[i]


class Tracer:
    def __init__(self, stream_probe: bool = False):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.missing: list[str] = []
        self.probe = Probe(stream_probe)
        self.probes: list[tuple[float, float]] = []  # (now(), probe time)
        self._probe_s = 0.0  # time spent in probes, left out of every span
        self._last_probe = 0.0
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.steps = StepTimer(self.now)

    # -- spans -------------------------------------------------------------------

    def now(self) -> float:
        """perf_counter with the probes' time taken out."""
        return time.perf_counter() - self._probe_s

    def _boundary(self) -> None:
        if time.perf_counter() - self._last_probe < PROBE_EVERY_S:
            return
        dt = self.probe.run()
        self._probe_s += dt
        self.probes.append((self.now(), dt))
        self._last_probe = time.perf_counter()

    def open(self, name: str) -> int:
        self._boundary()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.now(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.now()
        self._stack.pop()
        self._boundary()

    def to_quiet(self) -> QuietClock:
        """Turn every recorded time into quiet-clock time; returns the clock."""
        clock = QuietClock(self.probes, self.probe.quiet_s)
        for span in self.spans:
            span[1], span[2] = clock(span[1]), clock(span[2])
        self.steps.step_s = [clock(end) - clock(start) for start, end in self.steps.bounds]
        return clock

    def span(self, name: str):
        """Context manager recording one span, for the benchmark's own work."""
        return _Span(self, name)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child[i]
        return out

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, target: str, name: str, before=None, after=None) -> None:
        """Wrap ``module[.Class].attr`` so each call records a span ``name``.

        ``before(tracer, kwargs)`` returns the keyword arguments to call with
        and a state; ``after(tracer, result, args, state)`` sees the result.
        Both run outside the span.
        """
        owner, attr = _resolve(target)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.missing.append(target)
            return
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                kwargs, state = before(tracer, kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, result, args, state)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def count_warnings(self, logger_name: str, counter: str) -> None:
        handler = _CountingHandler(self, counter)
        logger = logging.getLogger(logger_name)
        logger.addHandler(handler)
        self._restore.append((logger, None, handler))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            if attr is None:
                owner.removeHandler(orig)
            else:
                setattr(owner, attr, orig)
        self._restore.clear()


class StepTimer:
    """Times PIC steps from the gaps between ``on_step`` callbacks.

    A step runs from one callback's return to the next callback's entry
    (force, push, deposit, field solve), so the callback's own work, such as
    writing particle CSVs or the benchmark's checks, is left out.
    """

    def __init__(self, clock):
        self.clock = clock
        self.bounds: list[tuple[float, float]] = []  # (start, end) per step
        self.step_s: list[float] = []  # filled in by Tracer.to_quiet
        self.particle_steps = 0  # particles alive at the start of each timed step
        self._last = None
        self._alive = 0

    def wrap(self, on_step):
        self._last = None

        def timed(step, particles, hierarchy, record):
            entry = self.clock()
            if self._last is not None:
                self.bounds.append((self._last, entry))
                self.particle_steps += self._alive
            self._alive = len(particles)
            if on_step is not None:
                on_step(step, particles, hierarchy, record)
            self._last = self.clock()

        return timed


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


class _CountingHandler(logging.Handler):
    def __init__(self, tracer: Tracer, counter: str):
        super().__init__(level=logging.WARNING)
        self.tracer, self.counter = tracer, counter

    def emit(self, record):
        self.tracer.counts[self.counter] += 1


def _resolve(target: str):
    """('parax.hierarchy.HierarchySolver.solve_order') -> (class, 'solve_order')."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for p in parts[cut:-1]:
            owner = getattr(owner, p, None)
            if owner is None:
                return None, parts[-1]
        return owner, parts[-1]
    return None, parts[-1]


# -- what the benchmark wraps -------------------------------------------------

def _aniso_before(tracer, kwargs):
    """Hand the solver our own info dict when the caller passes none."""
    info = kwargs.get("info_out")
    if info is None:
        info = {}
        kwargs = {**kwargs, "info_out": info}
    return kwargs, info


def _aniso_after(tracer, result, args, info):
    if not info:
        return
    tracer.counts["elliptic.aniso3d.iterations"] += info.get("iterations", 0) or 0
    if info.get("method") == "lu":
        tracer.counts["elliptic.aniso3d.lu_calls"] += 1


def _hierarchy_after(tracer, result, args, state):
    for order in getattr(result, "orders", ()):
        sweeps = getattr(order, "diagnostics", {}).get("fixed_point_sweeps", 0)
        tracer.counts["hierarchy.fixed_point_sweeps"] += sweeps


def _pic_before(tracer, kwargs):
    """Time each step through the loop's ``on_step`` callback."""
    return {**kwargs, "on_step": tracer.steps.wrap(kwargs.get("on_step"))}, None


def _pic_after(tracer, result, args, state):
    records = result[2] if isinstance(result, tuple) and len(result) == 3 else None
    if records:
        tracer.counts["pic.absorbed"] += getattr(records[-1], "absorbed_total", 0)


def _bytes_after(counter):
    def after(tracer, result, args, state):
        if args and os.path.isfile(args[0]):
            tracer.counts[counter] += os.path.getsize(args[0])
    return after


_SOLVER = "parax.hierarchy.HierarchySolver"

# (target, span name, before, after)
FULL_TARGETS = [
    ("parax.hierarchy.solve_anisotropic_poisson_3d", "elliptic.aniso3d", _aniso_before, _aniso_after),
    ("parax.hierarchy.solve_divcurl_2d", "elliptic.divcurl2d", None, None),
    ("parax.elliptic.solve_poisson_2d", "elliptic.poisson2d", None, None),
    (f"{_SOLVER}.solve_hierarchy", "hierarchy.solve_hierarchy", None, _hierarchy_after),
    (f"{_SOLVER}.solve_order", "hierarchy.solve_order", None, None),
    (f"{_SOLVER}.solve_Ez_order", "hierarchy.Ez", None, None),
    (f"{_SOLVER}.solve_Ecal_order", "hierarchy.Ecal", None, None),
    (f"{_SOLVER}.solve_Eperp_order", "hierarchy.Eperp", None, None),
    (f"{_SOLVER}.solve_Bperp_order", "hierarchy.Bperp", None, None),
    (f"{_SOLVER}.solve_Bz_order", "hierarchy.Bz", None, None),
    ("parax.pic.run_pic", "pic.loop", _pic_before, _pic_after),
    ("parax.cli.run_pic", "pic.loop", _pic_before, _pic_after),
    ("parax.pic.deposit_sources", "pic.deposit", None, None),
    ("parax.pic.assemble_force", "pic.gather", None, None),
    ("parax.pic.interpolate_to_particles", "pic.interpolate", None, None),
    ("parax.pic.push_particles", "pic.push", None, None),
    ("parax.cli.write_field_csv", "fields.write_csv", None, _bytes_after("fields.write_csv.bytes")),
    ("parax.cli._write_particles", "cli.write_particles", None, _bytes_after("cli.write_particles.bytes")),
    ("parax.cli.maxwell_residual", "verify.maxwell_residual", None, None),
    ("parax.verify.maxwell_residual", "verify.maxwell_residual", None, None),
]

# untraced units wrap the hierarchy solves (hierarchy_solve_s_p50), the PIC
# loops (step times) and, so that the probe runs all through a unit, the
# calls that come every few milliseconds to tenths of a second
PLAIN_TARGETS = [t for t in FULL_TARGETS if t[1] in (
    "elliptic.aniso3d", "elliptic.divcurl2d", "hierarchy.solve_hierarchy", "pic.loop",
    "pic.deposit", "pic.gather", "pic.push", "fields.write_csv", "cli.write_particles",
    "verify.maxwell_residual")]

# span metrics reported from a traced unit: span name -> fields
SPAN_FIELDS = {
    "elliptic.aniso3d": ("calls", "s"),
    "elliptic.divcurl2d": ("calls", "self_s"),
    "elliptic.poisson2d": ("calls", "s"),
    "hierarchy.solve_hierarchy": ("calls", "s", "self_s"),
    "hierarchy.solve_order": ("self_s",),
    "hierarchy.Ez": ("self_s",),
    "hierarchy.Ecal": ("self_s",),
    "hierarchy.Eperp": ("self_s",),
    "hierarchy.Bperp": ("self_s",),
    "hierarchy.Bz": ("self_s",),
    "pic.loop": ("self_s",),
    "pic.deposit": ("s",),
    "pic.gather": ("s",),
    "pic.interpolate": ("calls",),
    "pic.push": ("s",),
    "fields.write_csv": ("calls", "s"),
    "cli.write_particles": ("calls", "s"),
    "verify.maxwell_residual": ("calls", "s"),
}

COUNTERS = (
    "elliptic.aniso3d.iterations",
    "elliptic.aniso3d.lu_calls",
    "hierarchy.fixed_point_sweeps",
    "hierarchy.warnings",
    "pic.absorbed",
    "fields.write_csv.bytes",
    "cli.write_particles.bytes",
)

# a counter is absent when the target that feeds it could not be wrapped
_COUNTER_SOURCES = {
    "elliptic.aniso3d.iterations": ["parax.hierarchy.solve_anisotropic_poisson_3d"],
    "elliptic.aniso3d.lu_calls": ["parax.hierarchy.solve_anisotropic_poisson_3d"],
    "hierarchy.fixed_point_sweeps": [f"{_SOLVER}.solve_hierarchy"],
    "pic.absorbed": ["parax.pic.run_pic", "parax.cli.run_pic"],
    "fields.write_csv.bytes": ["parax.cli.write_field_csv"],
    "cli.write_particles.bytes": ["parax.cli._write_particles"],
}


def install(tracer: Tracer, full: bool) -> Tracer:
    for target, name, before, after in FULL_TARGETS if full else PLAIN_TARGETS:
        tracer.wrap(target, name, before, after)
    if full:
        tracer.count_warnings("parax", "hierarchy.warnings")
    return tracer


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """(metric -> value, absent metric names) from a traced unit."""
    totals = tracer.totals()
    feeds = defaultdict(list)
    for target, name, _, _ in FULL_TARGETS:
        feeds[name].append(target)
    feeds.update(_COUNTER_SOURCES)

    def absent(key):
        return bool(feeds[key]) and all(t in tracer.missing for t in feeds[key])

    values, missing = {}, []
    for span, fields in SPAN_FIELDS.items():
        for f in fields:
            metric = f"{span}.{f}"
            values[metric] = totals.get(span, {}).get(f, 0)
            if absent(span):
                missing.append(metric)
    for metric in COUNTERS:
        values[metric] = tracer.counts.get(metric, 0)
        if absent(metric):
            missing.append(metric)
    return values, missing
