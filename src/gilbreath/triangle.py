"""Absolute-difference triangle engine.

One differencing step maps a row (a_1, ..., a_n) of non-negative integers to
(|a_1 - a_2|, ..., |a_{n-1} - a_n|).  Repeating the step builds the difference
triangle; a row of length n collapses to a single value (its "ultimate
iterate") after n - 1 steps.  The one kernel, `step_array`, differences 1-D
rows and 2-D batches alike, and `iterate_until` is the one "difference until
stop, exhausted or budget" loop; lists and Python ints go through both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Row = list[int]


class Finding(Exception):
    """A falsified invariant: mathematically significant, never swallowed."""

    def __init__(self, message: str, reproducer: dict):
        super().__init__(message)
        self.reproducer = reproducer


def validate_row(values: Sequence[int]) -> Row:
    """Check row invariants (length >= 1, all entries >= 0) and return a list copy."""
    row = [int(v) for v in values]
    if not row:
        raise ValueError("row must have length >= 1")
    if any(v < 0 for v in row):
        raise ValueError("row entries must be non-negative")
    return row


def step_array(rows: np.ndarray) -> np.ndarray:
    """Differencing step along the last axis, so 1-D rows and 2-D batches alike.

    Rows whose max fits drop to uint8 first (the max never grows down a
    triangle).  max - min has no negative intermediate, so it is exact for
    unsigned, signed and object (Python int) rows alike.
    """
    if rows.dtype != np.uint8 and rows.size and int(rows.max()) < 256:
        rows = rows.astype(np.uint8)
    a, b = rows[..., :-1], rows[..., 1:]
    return np.maximum(a, b) - np.minimum(a, b)


def batch_ultimate(rows: np.ndarray) -> np.ndarray:
    """Ultimate iterate of every row of a 2-D array (rows share one length)."""
    # Column-major, so each ufunc in step_array runs down whole columns, not short rows.
    work = np.asfortranarray(rows)
    while work.shape[1] > 1:
        work = step_array(work)
    return work[:, 0]


def enumerate_rows(alphabet: int, length: int) -> np.ndarray:
    """All alphabet**length rows over {0,...,alphabet-1} as a 2-D int64 array.

    Row r is the base-`alphabet` expansion of r, most significant digit first, so
    lexicographic order matches tuple order.  Column-major, as `batch_ultimate` works.
    """
    if alphabet <= 1:  # np.indices takes at most 64 dimensions
        return np.zeros((alphabet**length, length), dtype=np.int64)
    return np.indices((alphabet,) * length, dtype=np.int64).reshape(length, alphabet**length).T


# Stop rules for `iterate_until`: predicates on a 1-D array row.


def zero_or_two(row: np.ndarray) -> bool:
    """True iff every entry is 0 or 2."""
    # x | 2 == 2 exactly when x is 0 or 2, so one max() reduction tests the row.
    return int((row | 2).max()) == 2


def stabilization_predicate(row: np.ndarray) -> bool:
    """True iff the row is a leading 1 followed only by 0s and 2s.

    {0,2} is closed under absolute differences and |1-0| = |1-2| = 1, so every
    later row of such a row again starts with 1.
    """
    if len(row) == 0:
        raise ValueError("row must have length >= 1")
    if row[0] != 1:
        return False
    return len(row) == 1 or zero_or_two(row[1:])


def all_le_one(row: np.ndarray) -> bool:
    # One max() reduction is cheaper than materializing row <= 1.
    return int(row.max()) <= 1


def all_in_zero_d(d: int) -> Callable[[np.ndarray], bool]:
    """The rule "every entry is 0 or d"."""
    return lambda row: bool(((row == 0) | (row == d)).all())


def first_not_one(row: np.ndarray) -> bool:
    return bool(row[0] != 1)


def never(row: np.ndarray) -> bool:
    """Never stops: iterate until the row is exhausted or the budget runs out."""
    return False


def ultimate_iterate(row: Sequence[int]) -> int:
    """The single value a row reduces to after len(row) - 1 differencing steps."""
    return int(iterate_until(row, never).row[0])


@dataclass
class IterationResult:
    iterations: int
    row: Row | np.ndarray  # an array when the input row was one
    reason: str  # "stop" | "exhausted" | "budget"
    firsts: list[int]  # first entry of every row visited, the input row's first
    rows: list[Row] | None = None  # every row visited, when retained


def iterate_until(
    row: Sequence[int] | np.ndarray,
    stop: Callable[[np.ndarray], bool],
    max_iters: int | None = None,
    retain: bool = False,
) -> IterationResult:
    """Difference until `stop(row)` is true, the row shrinks to length 1, or the budget runs out.

    With `max_iters` None the budget is the whole triangle, so only "stop" or
    "exhausted" can end the loop.  The stop predicate is tested on every row
    before its step, so a row that already matches reports 0 iterations.
    `reason` says which condition fired first.  A 1-D integer ndarray is
    stop-tested in its own dtype until `step_array` narrows it, and its final
    row is returned as an array; any other sequence is validated, iterated as
    int64 (object past int64) and returned as a list.
    """
    as_array = isinstance(row, np.ndarray)
    if as_array:
        if row.dtype.kind not in "buiO" or row.ndim != 1 or row.size == 0 or row.min() < 0:
            raise ValueError("row must be a non-empty 1-D integer array of non-negative entries")
        cur = row
    else:
        values = validate_row(row)
        # Past int64, exact Python ints; numpy left to infer could pick float64.
        cur = np.array(values, dtype=object if max(values) >= 2**63 else np.int64)
    if max_iters is None:
        max_iters = cur.size - 1
    elif max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    rows = [] if retain else None
    firsts = []
    iters = 0
    while True:
        firsts.append(int(cur[0]))
        if retain:
            rows.append(cur.tolist())
        if stop(cur):
            reason = "stop"
            break
        if cur.size == 1:
            reason = "exhausted"
            break
        if iters >= max_iters:
            reason = "budget"
            break
        cur = step_array(cur)
        iters += 1
    return IterationResult(iters, cur if as_array else cur.tolist(), reason, firsts, rows)

