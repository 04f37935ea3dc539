import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gilbreath.triangle import (
    all_in_zero_d,
    all_le_one,
    batch_ultimate,
    enumerate_rows,
    first_not_one,
    iterate_until,
    never,
    stabilization_predicate,
    step_array,
    ultimate_iterate,
    validate_row,
)
import oracles

rows = st.lists(st.integers(0, 50), min_size=1, max_size=40)
rows2 = st.lists(st.integers(0, 50), min_size=2, max_size=40)


def brute_triangle(row):
    # Independent of the library: direct nested evaluation of the recurrence.
    out = [list(row)]
    while len(out[-1]) > 1:
        prev = out[-1]
        out.append([abs(prev[j] - prev[j + 1]) for j in range(len(prev) - 1)])
    return out


def step(row):
    """The package's one differencing step on a list."""
    return step_array(np.array(row, dtype=np.int64)).tolist()


def test_diff_step_prime_rows():
    assert step([2, 3, 5, 7, 11, 13, 17]) == [1, 2, 2, 4, 2, 4]
    assert step([1, 2, 2, 4, 2, 4]) == [1, 0, 2, 2, 2]
    assert step([5, 5, 5, 5]) == [0, 0, 0]


def test_validate_row_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_row([])
    with pytest.raises(ValueError):
        validate_row([1, -2])


def test_ultimate_iterate():
    assert ultimate_iterate([2, 3, 5, 7, 11, 13, 17]) == 1
    assert ultimate_iterate([9]) == 9
    assert ultimate_iterate([7, 2, 9]) == abs(abs(7 - 2) - abs(2 - 9))
    assert ultimate_iterate([7, 2, 9]) == 2


def test_iterate_until_prime_row():
    res = iterate_until([2, 3, 5, 7, 11, 13, 17], all_le_one, 100)
    assert (res.iterations, res.row, res.reason) == (6, [1], "stop")


def test_iterate_until_already_stopped():
    res = iterate_until([1, 0, 1], all_le_one, 5)
    assert res.iterations == 0 and res.reason == "stop"


def test_iterate_until_3030():
    # 3,0,3,0 -> 3,3,3 -> 0,0: the all<=1 stop fires at iteration 2.
    res = iterate_until([3, 0, 3, 0], all_le_one, 10, retain=True)
    assert (res.iterations, res.row, res.reason) == (2, [0, 0], "stop")
    assert res.rows == brute_triangle([3, 0, 3, 0])[:3]


def test_iterate_until_budget():
    res = iterate_until([3, 0, 3, 0, 3], all_le_one, 1)
    assert res.reason == "budget" and res.iterations == 1


def test_iterate_until_exhausted():
    res = iterate_until([5, 0], all_le_one, 10)
    assert (res.row, res.reason) == ([5], "exhausted")
    # With max_iters omitted the budget is the whole triangle, never a "budget" stop.
    for row in ([3, 0, 3, 0, 3], np.array([3, 0, 3, 0, 3], dtype=np.uint16)):
        res = iterate_until(row, never)
        assert (res.iterations, res.reason) == (4, "exhausted")


@pytest.mark.parametrize("dtype, high", [
    ("uint8", 256), ("uint16", 65536), ("int64", 1 << 40), ("int64", 256),
    pytest.param("object", 1 << 70, id="object-past-int64"),
])
def test_step_array_matches_diff_step(dtype, high):
    # A batch whose max fits comes back uint8; any other keeps its dtype.
    rng = np.random.default_rng(5)
    if dtype == "object":  # Python ints, many of them past int64
        batch = rng.integers(0, high >> 30, size=(30, 17)).astype(object) << 30
        assert batch.max() >= 2**63
    else:
        batch = rng.integers(0, high, size=(30, 17)).astype(dtype)
    stepped = step_array(batch)
    assert stepped.dtype == (np.uint8 if high <= 256 else batch.dtype)
    assert stepped.shape == (30, 16)
    for row, out in zip(batch, stepped):
        assert out.tolist() == oracles.diff_step(row.tolist())
        assert step_array(row).tolist() == out.tolist()


STOPS = [all_le_one, all_in_zero_d(2), first_not_one, stabilization_predicate]


# Index ids keep the test names independent of the rules' function names.
@pytest.mark.parametrize("stop", STOPS, ids=[f"stop{i}" for i in range(len(STOPS))])
@pytest.mark.parametrize("budget", [0, 3, 100])
def test_iterate_until_list_and_array_agree(stop, budget):
    # Each dtype is stop-tested as given until step_array narrows it to
    # uint8, and the rules read only values, so a row gives the same result
    # as a list and in each dtype.
    rng = np.random.default_rng(6)
    for _ in range(50):
        row = rng.integers(0, 4, size=rng.integers(1, 20))
        from_list = iterate_until(row.tolist(), stop, budget, retain=True)
        assert from_list.firsts == [r[0] for r in from_list.rows]
        assert len(from_list.firsts) == from_list.iterations + 1
        for dtype in (np.uint8, np.uint16, np.int64, object):
            from_array = iterate_until(row.astype(dtype), stop, budget, retain=True)
            assert isinstance(from_array.row, np.ndarray)
            assert (from_list.iterations, from_list.reason) == (from_array.iterations,
                                                                  from_array.reason)
            assert from_list.row == from_array.row.tolist()
            assert from_list.rows == from_array.rows
            assert from_list.firsts == from_array.firsts


def test_iterate_until_big_entries():
    # Entries past int64 run as exact Python ints until the max drops below 256.
    row = [2**64 + 5, 3, 2**63, 7, 0, 2**65, 2**63 + 1]
    res = iterate_until(row, never, len(row) - 1, retain=True)
    assert (res.iterations, res.reason) == (6, "exhausted")
    assert res.rows == brute_triangle(row)
    assert all(type(v) is int for r in res.rows for v in r)


def test_iterate_until_rejects_bad_array():
    for bad in (np.array([], dtype=np.int64), np.array([3, -1]), np.zeros((2, 2), np.int64),
                np.array([0.5, 1.5])):
        with pytest.raises(ValueError):
            iterate_until(bad, all_le_one, 5)


def test_history_from_row_checks():
    row = [2, 3, 5, 7, 11, 13, 17]
    assert iterate_until(row, never, retain=True).rows == brute_triangle(row)
    assert iterate_until(row, never, 2, retain=True).rows == brute_triangle(row)[:3]


@given(rows2)
def test_length_drops_and_max_non_increasing(row):
    out = step(row)
    assert len(out) == len(row) - 1
    assert max(out) <= max(row)


@given(rows)
def test_reversal_invariance(row):
    assert ultimate_iterate(row[::-1]) == ultimate_iterate(row)


@given(rows, st.integers(0, 9))
def test_scaling(row, k):
    assert ultimate_iterate([k * v for v in row]) == k * ultimate_iterate(row)


@given(rows2, st.integers(0, 100))
def test_shift_invariance(row, c):
    assert step([v + c for v in row]) == step(row)


@given(st.integers(1, 20), st.lists(st.booleans(), min_size=2, max_size=30))
def test_zero_d_closure(d, picks):
    row = [d if p else 0 for p in picks]
    assert set(step(row)) <= {0, d}


@given(rows2)
def test_parity_commutes_with_diff(row):
    # |a - b| = a xor b (mod 2): the fact behind parity.parity_of_ultimate.
    assert [v & 1 for v in step(row)] == [(a ^ b) & 1 for a, b in zip(row, row[1:])]


@settings(max_examples=30)
@given(st.integers(2, 4), st.integers(1, 6))
def test_enumerate_rows_and_batch_ultimate(C, length):
    mat = enumerate_rows(C, length)
    assert mat.shape == (C**length, length)
    assert int(mat.min()) == 0 and int(mat.max()) == C - 1
    # against the scalar path
    ults = batch_ultimate(mat)
    for idx in range(0, mat.shape[0], max(1, mat.shape[0] // 50)):
        assert int(ults[idx]) == oracles.ultimate_iterate(mat[idx].tolist())


@pytest.mark.parametrize("C, length", [(C, L) for C in range(1, 5) for L in range(7)] + [(1, 70)])
def test_enumerate_rows_is_itertools_product(C, length):
    # (1, 70) is past np.indices' 64-dimension limit.
    mat = enumerate_rows(C, length)
    assert mat.dtype == np.int64 and mat.shape == (C**length, length)
    assert mat.tolist() == [list(t) for t in product(range(C), repeat=length)]


@pytest.mark.parametrize("dtype", ["uint8", "int64", "object"])
def test_batch_ultimate_ignores_memory_layout(dtype):
    # C-ordered, Fortran-ordered and strided-view batches give the same values.
    rng = np.random.default_rng(11)
    if dtype == "object":  # Python ints, many of them past int64
        base = rng.integers(0, 1 << 40, size=(60, 19)).astype(object) << 30
        assert base.max() >= 2**63
    else:
        base = rng.integers(0, 200, size=(60, 19)).astype(dtype)
    view = base[::2, 1::2]
    assert not (view.flags.c_contiguous or view.flags.f_contiguous)
    expect = [oracles.ultimate_iterate(row) for row in view.tolist()]
    for batch in (np.ascontiguousarray(view), np.asfortranarray(view), view):
        assert batch_ultimate(batch).tolist() == expect


@pytest.mark.parametrize("dtype, high", [("uint8", 200), ("int64", 1 << 40), ("int64", 200)])
def test_step_array_keeps_column_major_order(dtype, high):
    # batch_ultimate's speed rests on every step of a Fortran-ordered batch
    # staying Fortran-ordered, so each ufunc runs down whole columns.
    rng = np.random.default_rng(2)
    batch = np.asfortranarray(rng.integers(0, high, size=(500, 9)).astype(dtype))
    for _ in range(8):
        batch = step_array(batch)
        assert batch.flags.f_contiguous and batch.shape[0] == 500
    assert enumerate_rows(3, 5).flags.f_contiguous


@pytest.mark.parametrize("call, message", [
    (lambda: stabilization_predicate(np.array([], dtype=np.int64)), "row must have length >= 1"),
    (lambda: iterate_until([1, 2], never, -1), "max_iters must be >= 0"),
], ids=["predicate-empty-row", "max-iters"])
def test_bad_arguments_name_the_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
