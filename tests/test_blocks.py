import random
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gilbreath.blocks import (
    DichotomyVerdict,
    check_block_destruction,
    check_inverse_iterates,
    detect_event_cascade,
    longest_block,
)
from gilbreath.triangle import iterate_until, never
from oracles import diff_step


def brute_longest_block(row, allowed, witness=None):
    # Quadratic scan over all contiguous segments.
    best = 0
    start = 0
    n = len(row)
    for i in range(n):
        for j in range(i + 1, n + 1):
            seg = row[i:j]
            if all(v in allowed for v in seg) and (witness is None or witness in seg):
                if j - i > best:
                    best, start = j - i, i + 1
    return best, start


def test_longest_block_examples():
    rep = longest_block([1, 0, 2, 2, 2], {0, 2})
    assert (rep.max_length, rep.start_index) == (4, 2)
    rep = longest_block([1, 2, 2, 4, 2, 4], {0, 4}, 4)
    assert rep.max_length == 1 and rep.witness_present
    rep = longest_block([1, 2, 3], {7})
    assert rep.max_length == 0 and rep.start_index == 0


def test_blockspec_rejects_empty():
    with pytest.raises(ValueError, match="allowed set must be non-empty"):
        longest_block([1, 2, 3], set())


@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=30),
    st.sets(st.integers(0, 4), min_size=1, max_size=3),
    st.one_of(st.none(), st.integers(0, 4)),
)
def test_longest_block_matches_bruteforce(row, allowed, witness):
    rep = longest_block(row, allowed, witness)
    expect_len, expect_start = brute_longest_block(row, allowed, witness)
    assert (rep.max_length, rep.start_index) == (expect_len, expect_start)


def test_longest_block_bruteforce_seeded_sweep():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        row = rng.integers(0, 6, size=rng.integers(1, 40)).tolist()
        allowed = set(rng.choice(6, size=rng.integers(1, 4), replace=False).tolist())
        rep = longest_block(row, allowed)
        assert (rep.max_length, rep.start_index) == brute_longest_block(row, allowed)


def test_destruction_prime_row():
    v = check_block_destruction([1, 2, 2, 4, 2, 4])
    assert v.applicable and v.holds
    assert (v.d, v.block_length, v.observed_max) == (4, 1, 2)


def test_destruction_not_applicable():
    v = check_block_destruction([0, 3, 0])
    assert not v.applicable and v.holds is None
    assert (v.d, v.block_length) == (3, 3)


def test_destruction_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        check_block_destruction([0, 0, 0])


def test_destruction_exhaustive_alphabet3_len9():
    for row in product(range(3), repeat=9):
        if max(row) == 0:
            continue
        v = check_block_destruction(list(row))
        assert (not v.applicable) or v.holds, row


def test_destruction_random_length64():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        row = rng.integers(0, 8, size=64).tolist()
        if max(row) == 0:
            continue
        v = check_block_destruction(row)
        assert (not v.applicable) or v.holds, row


def test_block_decay_is_monotone():
    # A {0,d}-block with a d can only have come from a longer one, so the
    # longest such block never grows while d stays the max.
    rng = np.random.default_rng(9)
    for _ in range(500):
        row = rng.integers(0, 5, size=32).tolist()
        d = max(row)
        if d == 0:
            continue
        prev = longest_block(row, {0, d}, d).max_length
        while len(row) > 1 and max(row) == d and prev > 0:
            row = diff_step(row)
            cur = longest_block(row, {0, d}, d).max_length
            if max(row) == d:
                assert cur < prev
            prev = cur


def test_inverse_iterates_all_multiples():
    rows = iterate_until([3, 0, 3, 0, 3], never, retain=True).rows
    # every row is 3Z-valued; the initial row carries the full-length block
    v = check_inverse_iterates(rows, i=2, d=3, L=3)
    assert v.holds and v.branch == 1 and v.row_index == 0 and v.block_length == 5


def test_inverse_iterates_tautology_at_i0():
    rows = iterate_until([6, 1, 4], never, retain=True).rows
    v = check_inverse_iterates(rows, i=0, d=2, L=1)
    assert v.holds and v.branch == 1


def test_inverse_iterates_precondition():
    rows = iterate_until([1, 1, 1], never, retain=True).rows
    with pytest.raises(ValueError, match="no dZ-block"):
        check_inverse_iterates(rows, i=0, d=5, L=2)


def test_inverse_iterates_randomized_histories():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        row = rng.integers(0, 5, size=12).tolist()
        rows = iterate_until(row, never, retain=True).rows
        for i, r in enumerate(rows):
            for d in (2, 3, 4):
                runs = _maximal_multiple_runs(r, d)
                for L in runs:
                    v = check_inverse_iterates(rows, i, d, L)
                    assert v.holds, (row, i, d, L)


def _maximal_multiple_runs(row, d):
    runs = []
    length = 0
    for v in row:
        if v % d == 0:
            length += 1
        else:
            if length:
                runs.append(length)
            length = 0
    if length:
        runs.append(length)
    return runs


def test_event_cascade_all_zero_row():
    reports = detect_event_cascade([0] * 10, C=3, R=5)
    assert reports[0].status == "fired"  # j=1 at iteration 0


def test_event_cascade_prime_row():
    reports = detect_event_cascade([2, 3, 5, 7, 11, 13, 17], C=5, R=2)
    by_j = {r.j: r for r in reports}
    assert by_j[1].status == "absent"  # no {0,4}-block of length 2 in row 0
    assert by_j[3].status == "insufficient_history"  # needs iteration 8, depth is 6


def test_event_cascade_bound_check():
    # Frequency of the j=1 event is far below the union bound M*(2/3)**R.
    rng = np.random.default_rng(23)
    M, R, trials = 10_000, 20, 50
    fired = 0
    for _ in range(trials):
        row = rng.integers(0, 3, size=M).tolist()
        if detect_event_cascade(row, C=3, R=R)[0].status == "fired":
            fired += 1
    assert fired / trials <= M * (2 / 3) ** R


def test_event_cascade_holds_one_row_at_a_time():
    # C = 7, R = 8 reads rows 0, 16, 128 and 1024; the triangle down to row
    # 1024 of a 4,000-entry row would take tens of MiB.
    rng = random.Random(1)
    row = [rng.randrange(6) for _ in range(4000)]
    tracemalloc.start()
    try:
        reports = detect_event_cascade(row, C=7, R=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [e.iteration for e in reports] == [0, 16, 128, 1024, 8192]
    assert reports[-1].status == "insufficient_history"
    assert peak < 2**20


@pytest.mark.parametrize("call, message", [
    (lambda: check_block_destruction([3]), "row must have length >= 2"),
    (lambda: check_inverse_iterates([[0, 2]], 0, 0, 1), "d must be >= 1"),
    (lambda: check_inverse_iterates([[0, 2]], 1, 2, 1), "rows must run from row 0 through row i"),
    (lambda: check_inverse_iterates([[0, 2]], -1, 2, 1), "rows must run from row 0 through row i"),
    (lambda: detect_event_cascade([1, 2, 3], 2, 1),
     "alphabet size must be >= 3 for a non-empty cascade"),
    (lambda: detect_event_cascade([1, 2, 3], 3, 0), "scale R must be >= 1"),
], ids=["destruction-short-row", "dichotomy-d", "dichotomy-i-past-rows", "dichotomy-negative-i",
        "cascade-C", "cascade-R"])
def test_bad_arguments_name_the_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_dichotomy_falsified_on_rows_that_are_not_a_triangle():
    # [2] is not the difference row of [0, 1], so neither branch can hold.
    verdict = check_inverse_iterates([[0, 1], [2]], i=1, d=2, L=1)
    assert verdict == DichotomyVerdict(False, None, None, None, None)
