"""Scalar and 2-component vector fields on the mesh, plus CSV serialization.

Field values live on all mesh nodes.  Arrays are either (ny, nx) for a single
transverse slice or (nzeta, ny, nx) for the full domain; every operator acts
on the trailing two axes so both layouts flow through the same code.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh


class FieldShapeError(ValueError):
    pass


def require_finite(what: str, **arrays) -> None:
    """Raise FieldShapeError naming ``what`` and the first of ``arrays`` that
    holds a NaN or an infinity.  The wrappers check shape only; this runs
    where data enters or leaves a stage."""
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise FieldShapeError(f"{what}: {name} is non-finite")


def _check_shape(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape == (mesh.ny, mesh.nx) or values.shape == (mesh.nzeta, mesh.ny, mesh.nx):
        return values
    raise FieldShapeError(
        f"field shape {values.shape} matches neither ({mesh.ny}, {mesh.nx}) "
        f"nor ({mesh.nzeta}, {mesh.ny}, {mesh.nx})"
    )


@dataclass
class ScalarField:
    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = _check_shape(self.mesh, self.values)

    @property
    def is3d(self) -> bool:
        return self.values.ndim == 3

    @classmethod
    def zeros(cls, mesh: Mesh) -> "ScalarField":
        return cls(mesh, np.zeros((mesh.nzeta, mesh.ny, mesh.nx)))


@dataclass
class VectorField2:
    mesh: Mesh
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = _check_shape(self.mesh, self.x)
        self.y = _check_shape(self.mesh, self.y)
        if self.x.shape != self.y.shape:
            raise FieldShapeError("vector components have mismatched shapes")

    @property
    def is3d(self) -> bool:
        return self.x.ndim == 3

    @classmethod
    def zeros(cls, mesh: Mesh) -> "VectorField2":
        shape = (mesh.nzeta, mesh.ny, mesh.nx)
        return cls(mesh, np.zeros(shape), np.zeros(shape))


def same_mesh(*fields) -> Mesh:
    mesh = fields[0].mesh
    for f in fields[1:]:
        if f.mesh is not mesh and f.mesh != mesh:
            raise FieldShapeError("fields live on different meshes")
    return mesh


# -- CSV serialization --------------------------------------------------------
#
# Format: header "x,y,zeta,<component...>", one row per node, row-major over
# (zeta, y, x) with x fastest, each number the bytes of ``'%.17g' % v``.
#
# ``format_g17`` makes those bytes in numpy.  With k = floor(log10|x|) it
# forms x * 10**(16 - k) as a double-double (Dekker's exact product against
# hi + lo constants for 10**p, built once from Python integers), moves k by
# one where the unrounded value falls outside [1e16, 1e17), and rounds half
# to even to the 17 digits D.  The double-double
# is good to about 1e-14 in units of D's last digit, so only a fraction within
# 1e-12 of one half (a true tie, such as 2**-25) is in doubt; those values,
# |x| outside [1e-280, 1e280) and inf/nan go to ``'%.17g' % v`` itself.  The
# digits are laid out as %g does: fixed for -4 <= k < 17, else d.ddde+XX,
# trailing zeros stripped.  Each cell is a row of CELL bytes, its text
# followed by a free byte for the separator; ``csv_rows`` writes the
# separators and keeps each cell's leading bytes, so a block of rows becomes
# one bytes object.  A block holds at most CSV_NUMBERS cells, ids and
# coordinates included (8 in a particle row, 3 + components in a field row),
# enough to spread the kernel's fixed cost of some hundred numpy calls.
# Blocks are formatted on several threads (``map_blocks``), which take
# turns holding the GIL between numpy calls, so longer calls pay off there:
# on a 2-CPU Xeon VM, 8192-row blocks write a 50k-particle file in 0.5-0.6x
# the time of 1024-row blocks on one thread, and 33^2x17 field files in
# 0.75-0.8x; blocks of twice that were no faster.

CSV_NUMBERS = 65536
CELL = 25  # '-1.2345678901234567e-308' (24 bytes) and a separator

_ASCII_0 = 48
# "0000".."9999", four ASCII digits per little-endian uint32
_QUADS = (np.stack([np.arange(10000) // 10**i % 10 for i in (3, 2, 1, 0)], axis=1)
          .astype(np.uint8) + _ASCII_0).view("<u4").ravel()

# trailing zeros of "0000".."9999"
_TZ = sum(np.arange(10000) % 10**i == 0 for i in range(1, 5)).astype(np.int64)

_P_MIN, _P_MAX = -265, 297  # the exponents p = 16 - k that format_g17 uses
_SPLIT = 134217729.0  # 2**27 + 1


@functools.cache
def _pow10() -> np.ndarray:
    """(4, _P_MAX - _P_MIN + 1), read-only: hi, hi's upper and lower Dekker
    halves, lo, with 10**p ~ hi + lo, for p from _P_MIN.  Built on the first
    call; the formatting threads only read it."""
    table = np.empty((4, _P_MAX - _P_MIN + 1))
    for j, e in enumerate(range(_P_MIN, _P_MAX + 1)):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        hi = num / den  # int / int is correctly rounded
        a, b = hi.as_integer_ratio()
        c = _SPLIT * hi
        upper = c - (c - hi)
        table[:, j] = hi, upper, hi - upper, (num * b - a * den) / (den * b)
    table.flags.writeable = False
    return table


def _scaled(a: np.ndarray, p: np.ndarray):
    """a * 10**p as a double-double (hi, lo), |error| below about 2**-104 * a * 10**p."""
    hi10, up10, low10, lo10 = np.take(_pow10(), p - _P_MIN, axis=1)
    c = _SPLIT * a
    up = c - (c - a)
    low = a - up
    hi = a * hi10
    err = ((up * up10 - hi) + up * low10 + low * up10) + low * low10
    return hi, err + a * lo10


def _quads(d: np.ndarray, lead: np.ndarray):
    """(n, 5) uint32: ``lead``, then the 16 ASCII digits of d < 10**16 by
    fours; and the four groups of four digits as integers."""
    top = d // 10**8
    q = []
    for part in (top, d - top * 10**8):
        high = part // 10**4
        q += [high, part - high * 10**4]
    out = np.empty((len(d), 5), "<u4")
    out[:, 0] = lead
    for col in range(4):
        out[:, col + 1] = np.take(_QUADS, q[col])
    return out, q


def format_g17(values) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ``'%.17g' % v`` for each element: (chars, lengths).

    chars has shape values.shape + (CELL,) with the text in
    chars[..., :length]; the byte after it is free for a separator.
    """
    v = np.asarray(values, dtype=np.float64)
    shape, v = v.shape, v.ravel()
    n = v.size
    neg = np.signbit(v)
    ax = np.abs(v)
    fast = (ax >= 1e-280) & (ax < 1e280)
    zero = ax == 0.0
    a = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 16 - k)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    off = np.flatnonzero(low | (hi > 1e17) | ((hi == 1e17) & (lo >= 0)))
    if off.size:
        k[off] += np.where(low[off], -1, 1)
        hi[off], lo[off] = _scaled(a[off], 16 - k[off])
    floor = np.floor(lo)
    frac = lo - floor
    d = hi.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    k += carry
    slow = np.flatnonzero(~(fast | zero) | (np.abs(frac - 0.5) < 1e-12))

    # %g: fixed form for -4 <= k < 17, "0.00ddd" below 1 and "ddd.ddd" above,
    # else d.ddde+XX, trailing zeros stripped.  Rows sorted by (sign, form),
    # negatives last, lay out each group with fixed slices.
    expo = (k < -4) | (k >= 17)
    key = (neg * 32 + np.where(expo, 21, k + 4)).astype(np.uint8)
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=64)
    d, k, expo, s = (np.take(x, order) for x in (d, k, expo, neg.astype(np.int64)))
    lead = d // 10**16
    quads, q = _quads(d - lead * 10**16, (lead + _ASCII_0) << 24)
    digits = quads.view(np.uint8)[:, 3:]
    zeros = np.take(_TZ, q[3])  # trailing zeros, from the last group back
    more = np.flatnonzero(q[3] == 0)
    for group in q[2::-1]:
        zeros[more] += np.take(_TZ, group[more])
        more = more[group[more] == 0]
    nd = 17 - zeros  # 1 for zero, which ran as 1.0
    digits[np.take(zero, order), 0] = _ASCII_0
    point = np.where(expo | (k < 0), 1, k + 1)  # mantissa characters before '.'
    shown = np.maximum(np.where(expo | (k >= 0), nd, nd - k), point)  # and in all
    mantissa = shown + (shown > point)
    ak = np.abs(k)
    lengths = s + mantissa + expo * (4 + (ak >= 100))

    text = np.empty((n, CELL), np.uint8)
    ends = np.cumsum(counts)
    for g in np.flatnonzero(counts).tolist():
        rows = slice(ends[g] - counts[g], ends[g])
        sign, form = divmod(g, 32)
        block = text[rows, sign:]
        if form < 4:  # k = form - 4 < 0: "0." and -k - 1 zeros, then the digits
            block[:, :5 - form] = _ASCII_0
            block[:, 1] = ord(".")
            block[:, 5 - form:22 - form] = digits[rows]
        else:  # k + 1 digits (one in exponent form), '.', the rest
            q = 1 if form == 21 else form - 3
            block[:, :q] = digits[rows, :q]
            block[:, q] = ord(".")
            block[:, q + 1:18] = digits[rows, q:]
    text[n - neg.sum():, 0] = ord("-")
    r = np.flatnonzero(expo)
    if r.size:
        ke = ak[r]
        wide = ke >= 100
        suffix = np.empty((len(r), 5), np.uint8)
        suffix[:, 0] = ord("e")
        suffix[:, 1] = np.where(k[r] < 0, ord("-"), ord("+"))
        suffix[:, 2] = _ASCII_0 + np.where(wide, ke // 100, ke // 10 % 10)
        suffix[:, 3] = _ASCII_0 + np.where(wide, ke // 10 % 10, ke % 10)
        suffix[:, 4] = _ASCII_0 + ke % 10
        text[r[:, None], (s[r] + mantissa[r])[:, None] + np.arange(5)] = suffix

    back = np.empty_like(order)
    back[order] = np.arange(n)
    chars = np.take(text, back, axis=0)
    lengths = np.take(lengths, back)
    for j in slow.tolist():
        t = ("%.17g" % v[j]).encode()
        chars[j, :len(t)] = np.frombuffer(t, np.uint8)
        lengths[j] = len(t)
    return chars.reshape(shape + (CELL,)), lengths.reshape(shape)


_POW10_U64 = np.array([10**i for i in range(1, 20)], dtype=np.uint64)


def format_d(values) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ``'%d' % v`` for each int64 element, laid out as by
    :func:`format_g17`."""
    v = np.asarray(values, dtype=np.int64)
    shape, v = v.shape, v.ravel()
    neg = v < 0
    mag = np.where(neg, -v, v).view(np.uint64)  # -(-2**63) wraps to 2**63 as uint64
    top = mag // np.uint64(10**16)
    rest = (mag - top * np.uint64(10**16)).astype(np.int64)
    digits = _quads(rest, np.take(_QUADS, top))[0].view(np.uint8)  # 20, zero-padded
    nd = np.searchsorted(_POW10_U64, mag, side="right") + 1
    key = neg * 32 + nd
    counts = np.bincount(key, minlength=64)
    chars = np.empty((len(v), CELL), np.uint8)
    for g in np.flatnonzero(counts).tolist():
        sign, width = divmod(g, 32)
        rows = slice(None) if counts[g] == len(v) else np.flatnonzero(key == g)
        chars[rows, sign:sign + width] = digits[rows, 20 - width:]
    chars[neg, 0] = ord("-")
    return chars.reshape(shape + (CELL,)), (neg + nd).reshape(shape)


# _KEEP[n] selects a cell's first n + 1 bytes: its text and the separator
_KEEP = np.arange(CELL) <= np.arange(CELL)[:, None]


def csv_rows(*cells) -> bytes:
    """Rows of comma-separated cells, each row ending in a newline.

    Each argument is a (chars, lengths) pair from :func:`format_g17` or
    :func:`format_d` for one column (lengths of shape (rows,)) or for several
    (rows, columns); the columns are taken in argument order.
    """
    chars = np.concatenate([c if c.ndim == 3 else c[:, None] for c, _ in cells], axis=1)
    lengths = np.concatenate([n if n.ndim == 2 else n[:, None] for _, n in cells], axis=1)
    seps = np.full(lengths.shape, ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    chars.reshape(-1)[np.arange(0, chars.size, CELL) + lengths.ravel()] = seps.ravel()
    return chars[np.take(_KEEP, lengths, axis=0)].tobytes()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_blocks(block, n: int, rows: int):
    """Yield ``block(start, stop)`` for rows [0, n), block by block, in order.

    The rows are cut into ceil(n / rows) blocks of near-equal size, so what
    is yielded does not depend on the thread count.  The calling thread and
    a pool of min(usable CPUs, blocks) - 1 threads, which lives for this
    call only, run the blocks; numpy releases the GIL in most of their work.
    The pool works at most 2 * threads blocks ahead of the block due, and a
    block's error reaches the caller after the pool is shut down.
    """
    count = -(-n // rows)
    bounds = [n * b // max(count, 1) for b in range(count + 1)]
    spans = list(zip(bounds, bounds[1:]))
    threads = min(_usable_cpus(), count)
    if threads <= 1:
        for span in spans:
            yield block(*span)
        return
    # imported here, off the start-up path of every verb
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(threads - 1)
    try:
        futures, mine = [], {}
        for due in range(count):
            futures += [pool.submit(block, *spans[b])
                        for b in range(len(futures), min(due + 2 * threads, count))]
            # while another thread runs the block due, the calling thread
            # takes the first block that no thread has started
            while due not in mine and not futures[due].done():
                b = next((b for b in range(due, len(futures))
                          if b not in mine and futures[b].cancel()), None)
                if b is None:
                    break
                mine[b] = block(*spans[b])
            yield mine.pop(due) if due in mine else futures[due].result()
            futures[due] = None  # the caller holds the yielded result, or dropped it
    finally:
        pool.shutdown(cancel_futures=True)


def write_blocks(path, header: bytes, block, n: int, rows: int) -> None:
    """Write ``header``, then rows [0, n) as ``block(start, stop) -> bytes``.

    The blocks come from :func:`map_blocks`, so they are formatted on every
    usable core and written in order.
    """
    with open(path, "wb") as fh:
        fh.write(header)
        for data in map_blocks(block, n, rows):
            fh.write(data)


def write_table(path, names: list[str], columns, ids=None) -> None:
    """Write a CSV of header ``names`` and one row per element of the float
    ``columns``, as ``'%.17g'``, after the int64 ``ids`` as ``'%d'`` if given.

    The rows go through :func:`write_blocks`, CSV_NUMBERS cells a block.
    """
    def block(start, stop):
        floats = format_g17(np.stack([c[start:stop] for c in columns], axis=1))
        return csv_rows(floats) if ids is None else csv_rows(format_d(ids[start:stop]), floats)

    write_blocks(path, (",".join(names) + "\n").encode(), block, len(columns[0]),
                 CSV_NUMBERS // len(names))


def write_field_csv(path, mesh: Mesh, components: dict[str, np.ndarray]) -> None:
    names = list(components)
    arrays = [np.asarray(components[name], dtype=float) for name in names]
    arrays = [v[None, :, :] if v.ndim == 2 else v for v in arrays]
    nz = arrays[0].shape[0]
    for name, v in zip(names, arrays):
        if v.shape != (nz, mesh.ny, mesh.nx) or nz > mesh.nzeta:
            raise FieldShapeError(f"component {name!r} has shape {v.shape}")
    # each distinct coordinate is formatted once and gathered into the rows
    coords = [format_g17(c) for c in (mesh.x, mesh.y, mesh.zeta[:nz])]
    values = [v.ravel() for v in arrays]

    def block(start, stop):
        plane, i = np.divmod(np.arange(start, stop), mesh.nx)
        k, j = np.divmod(plane, mesh.ny)
        cells = [(np.take(c, at, axis=0), np.take(m, at)) for (c, m), at in zip(coords, (i, j, k))]
        return csv_rows(*cells, format_g17(np.stack([v[start:stop] for v in values], axis=1)))

    write_blocks(path, ("x,y,zeta," + ",".join(names) + "\n").encode(), block,
                 len(values[0]), CSV_NUMBERS // (3 + len(values)))


def read_field_csv(path):
    """Returns (names, coords (N,3), data (N, ncomp)); inverse of write_field_csv."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header[3:], body[:, :3], body[:, 3:]
