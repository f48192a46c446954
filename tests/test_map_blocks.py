"""The block runner behind the CSV writers and the PIC gather, on one to
three usable CPUs."""

import os
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from parax import fields
from parax.fields import map_blocks

CPUS = [1, 2, 3]


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("n, rows", [(1, 4), (11, 2), (100, 7), (64, 8)])
def test_blocks_are_yielded_in_order(monkeypatch, cpus, n, rows):
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
    rng = np.random.default_rng(n)
    delays = rng.uniform(0.0, 2e-3, size=n)

    def block(start, stop):
        # uneven work, so the blocks finish out of order
        time.sleep(delays[start])
        return start, stop

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        spans = list(map_blocks(block, n, rows))
    finally:
        sys.setswitchinterval(old)
    count = -(-n // rows)
    assert len(spans) == count
    assert spans[0][0] == 0 and spans[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    sizes = [stop - start for start, stop in spans]
    assert max(sizes) <= rows and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("fail_block", [0, 3, 5])
def test_block_error_reaches_the_caller(monkeypatch, cpus, fail_block):
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
    done = []

    def block(start, stop):
        if start == 2 * fail_block:
            raise RuntimeError(f"block {fail_block}")
        return start

    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"block {fail_block}"):
        for start in map_blocks(block, 12, 2):
            done.append(start)
    # every block before the failing one was yielded, none after it
    assert done == list(range(0, 2 * fail_block, 2))
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", CPUS)
def test_no_rows_yield_nothing(monkeypatch, cpus):
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)

    def block(start, stop):
        raise AssertionError("no block to run")

    assert list(map_blocks(block, 0, 5)) == []


@pytest.mark.parametrize("cpus", [2, 3])
def test_leaving_early_stops_the_pool(monkeypatch, cpus):
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
    before = threading.active_count()
    blocks = map_blocks(lambda start, stop: start, 40, 1)
    assert next(blocks) == 0
    blocks.close()
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [2, 4])
def test_yielded_blocks_are_not_kept(monkeypatch, cpus):
    # a yielded block belongs to the caller: once the caller drops it and
    # asks for the next, nothing holds it
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
    made = {}

    def block(start, stop):
        out = np.empty(stop - start)
        made[start] = weakref.ref(out)
        return out

    for k, arr in enumerate(map_blocks(block, 60, 1)):
        assert arr.size == 1
        del arr
        assert [s for s in range(k) if made[s]() is not None] == []


@pytest.mark.parametrize("cpus", [2, 4])
def test_csv_peak_memory_does_not_grow_with_rows(monkeypatch, cpus):
    # the writer holds the blocks in flight, not the whole file.  Blocks of
    # 512 rows of 7 floats and an id cut 12.5k and 50k rows into 25 and 98
    # blocks; the larger file took -0.16 to +0.59 MiB more over 80 pairs,
    # as more blocks give more chances for the threads' temporaries to peak
    # together, and 9.6-10.5 MiB more from a writer that joins every block
    # before it writes.  The bound is 20 MiB for 16 times the rows and the
    # block length.
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(fields, "CSV_NUMBERS", 4096)
    names = ["id"] + [f"c{k}" for k in range(7)]

    def peak(n):
        rng = np.random.default_rng(n)
        columns = [rng.standard_normal(n) for _ in range(7)]
        ids = np.arange(n, dtype=np.int64)
        tracemalloc.start()
        try:
            fields.write_table(os.devnull, names, columns, ids=ids)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(12_500), peak(50_000)
    assert large - small < 1.25 * 2**20, (small, large)


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_work_in_flight_is_bounded(monkeypatch, cpus):
    # the in-place push and the CSV memory bound rely on this: at most
    # `threads` blocks run at once, and no block starts 2 * threads or more
    # blocks past the next one due to the caller (the pool submits up to
    # block due + 2 * threads - 1), however slowly the caller takes them
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
    lock = threading.Lock()
    running, peak, received, ahead = 0, 0, 0, []

    def block(start, stop):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
            ahead.append(start - received)
        time.sleep(1e-3)
        with lock:
            running -= 1
        return start

    for start in map_blocks(block, 48, 1):
        with lock:
            received += 1
        time.sleep(2e-3)  # a slow caller: the pool runs as far ahead as it may
    assert peak <= cpus
    assert max(ahead) < 2 * cpus, ahead
    assert len(ahead) == 48
