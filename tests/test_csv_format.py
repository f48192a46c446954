"""The numpy CSV number kernels against Python's own '%.17g' and '%d', byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parax.fields import CELL, csv_rows, format_d, format_g17


def texts(chars, lengths):
    return [bytes(c[:n]) for c, n in zip(chars.reshape(-1, CELL), lengths.ravel())]


def assert_g17(values):
    v = np.asarray(values, dtype=np.float64)
    chars, lengths = format_g17(v)
    assert chars.shape == v.shape + (CELL,) and lengths.shape == v.shape
    assert texts(chars, lengths) == [("%.17g" % x).encode() for x in v.ravel().tolist()]


def assert_d(values):
    v = np.asarray(values, dtype=np.int64)
    chars, lengths = format_d(v)
    assert texts(chars, lengths) == [("%d" % x).encode() for x in v.ravel().tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=40))
def test_g17_matches_python_on_floats(xs):
    assert_g17(xs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_g17_matches_python_on_bit_patterns(bits):
    assert_g17(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=40))
def test_d_matches_python(ids):
    assert_d(ids)


def neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


def test_g17_edge_values():
    assert_g17([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan])
    # the tie: 2**-25 = 2.98023223876953125e-08 rounds half to even
    chars, lengths = format_g17(np.array([2.0**-25, -(2.0**-25)]))
    assert texts(chars, lengths) == [b"2.9802322387695312e-08", b"-2.9802322387695312e-08"]
    powers = [float(f"1e{p}") for p in range(-30, 31)]
    assert_g17(neighbours(powers))
    assert_g17(-neighbours(powers))
    # where %g switches between fixed and exponent notation
    assert_g17(neighbours([1e-5, 1e-4, 1e16, 1e17]))
    # and where the fast path hands over to the exact one
    assert_g17(neighbours([1e-280, 1e280, 2.2250738585072014e-308]))


def test_g17_random_blocks():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, size=(2000, 7), dtype=np.uint64).view(np.float64)
    scaled = rng.normal(size=(3000, 7)) * 10.0 ** rng.integers(-25, 25, size=(3000, 7))
    assert_g17(bits)
    assert_g17(scaled)
    assert_g17(np.round(scaled, 3))  # short digit strings: trailing zeros stripped


def test_d_edge_values():
    assert_d([0, 1, 9, 10, -1, -10, 2**63 - 1, -(2**63), 10**18, 10**18 - 1])


@pytest.mark.parametrize("rows", [0, 1, 5])
def test_csv_rows_joins_cells(rows):
    rng = np.random.default_rng(rows)
    ids = rng.integers(-1000, 10**12, size=rows)
    values = rng.normal(size=(rows, 3)) * 1e-7
    last = rng.uniform(size=rows)
    text = csv_rows(format_d(ids), format_g17(values), format_g17(last))
    expected = "".join("%d,%.17g,%.17g,%.17g,%.17g\n" % (i, *v, x)
                       for i, v, x in zip(ids.tolist(), values.tolist(), last.tolist()))
    assert text == expected.encode()


def test_g17_power_table_is_built_once_and_read_only():
    # the formatting threads share the 10**p table, so nothing may write it
    from parax import fields

    table = fields._pow10()
    assert fields._pow10() is table
    assert not table.flags.writeable
    hi, upper, lower, lo = table
    exps = range(fields._P_MIN, fields._P_MAX + 1)
    assert hi.tolist() == [float(f"1e{e}") for e in exps]
    assert np.array_equal(upper + lower, hi)
    assert np.all(np.abs(lo) <= np.spacing(hi) / 2)
