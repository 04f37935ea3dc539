"""E-block machinery: block scans, max-destruction bound, inverse-iterate dichotomy.

An E-block of a row is a contiguous run of entries all lying in a set E.
Positions reported here are 1-based, matching the a_1, ..., a_n convention
used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

from .triangle import Row, iterate_until, never


@dataclass(frozen=True)
class BlockReport:
    max_length: int
    start_index: int  # 1-based position of the block's first entry; 0 when empty
    witness_present: bool


def _longest_run(row: Sequence[int], keep, witness: int | None = None) -> tuple[int, int]:
    """(length, 1-based start) of the longest maximal run of entries with keep(v)
    true, one left-to-right scan; (0, 0) when there is none.

    With `witness` set, only runs containing the witness count.  Ties break
    to the smallest start index.
    """
    best_len = 0
    best_start = 0
    run_start = None
    seen = False
    for j in range(len(row) + 1):
        if j < len(row) and keep(row[j]):
            if run_start is None:
                run_start, seen = j, witness is None
            seen = seen or row[j] == witness
        elif run_start is not None:
            if seen and j - run_start > best_len:
                best_len, best_start = j - run_start, run_start + 1
            run_start = None
    return best_len, best_start


def longest_block(row: Sequence[int], allowed: Collection[int],
                  witness: int | None = None) -> BlockReport:
    """Longest contiguous run with all entries in the non-empty set `allowed`.

    With `witness` set, only runs containing the witness count.  Ties break
    to the smallest start index.
    """
    if not allowed:
        raise ValueError("allowed set must be non-empty")
    length, start = _longest_run(row, allowed.__contains__, witness)
    return BlockReport(length, start, witness is not None and length > 0)


@dataclass(frozen=True)
class DestructionVerdict:
    applicable: bool
    holds: bool | None  # None when not applicable
    d: int
    block_length: int
    observed_max: int | None


def check_block_destruction(row: Sequence[int]) -> DestructionVerdict:
    """Check that the max drops below d after L iterations, d = max(row) and
    L = longest {0,d}-block containing a d.

    Only applicable when L <= len(row) - 1; the verdict is returned rather than
    asserted so the bound stays falsifiable in tests.
    """
    if len(row) < 2:
        raise ValueError("row must have length >= 2")
    d = max(row)
    if d == 0:
        raise ValueError("degenerate: d=0")
    L = longest_block(row, {0, d}, d).max_length
    if L > len(row) - 1:
        return DestructionVerdict(False, None, d, L, None)
    observed = max(iterate_until(row, never, L).row)
    return DestructionVerdict(True, observed <= d - 1, d, L, observed)


@dataclass(frozen=True)
class DichotomyVerdict:
    holds: bool
    branch: int | None  # 1 = dZ-block of length L+i in row 0; 2 = zero-free block upstream
    row_index: int | None
    start_index: int | None  # 1-based
    block_length: int | None


def check_inverse_iterates(rows: list[Row], i: int, d: int, L: int) -> DichotomyVerdict:
    """Verify the dichotomy behind a dZ-block of length L in row i: it traces back to
    a dZ-block of length L+i in row 0, or to a zero-free block of length L+i-i'
    in some earlier row i'.  `rows` are successive triangle rows from row 0.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if i < 0 or i >= len(rows):
        raise ValueError("rows must run from row 0 through row i")
    if _longest_run(rows[i], lambda v: v % d == 0)[0] < L:
        raise ValueError("no dZ-block of stated length in row i")

    # For i = 0 the block sits in row 0 itself, so branch 1 is tautological.
    length0, start0 = _longest_run(rows[0], lambda v: v % d == 0)
    if length0 >= L + i:
        return DichotomyVerdict(True, 1, 0, start0, length0)
    for i_prime in range(i):
        need = L + i - i_prime
        length, start = _longest_run(rows[i_prime], lambda v: v != 0)
        if length >= need:
            return DichotomyVerdict(True, 2, i_prime, start, length)
    return DichotomyVerdict(False, None, None, None, None)


@dataclass(frozen=True)
class EventReport:
    j: int
    iteration: int
    allowed: tuple[int, int]  # (0, C-j)
    required_length: int
    status: str  # "fired" | "absent" | "insufficient_history"


def detect_event_cascade(row: Sequence[int], C: int, R: int) -> list[EventReport]:
    """Event diagnostics for j = 1..C-2 on the triangle under `row`: a
    {0,C-j}-block of length R**j after 2*R**(j-1) iterations (0 for j = 1).

    Only the current event's row is held; each is differenced down from the
    one before.  Thresholds are exact integers; no floor/ceiling smoothing.
    """
    if C < 3:
        raise ValueError("alphabet size must be >= 3 for a non-empty cascade")
    if R < 1:
        raise ValueError("scale R must be >= 1")
    reports = []
    cur, at = row, 0  # the row at iteration `at`
    for j in range(1, C - 1):
        iteration = 0 if j == 1 else 2 * R ** (j - 1)
        required = R**j
        allowed = (0, C - j)
        if iteration >= len(row):
            reports.append(EventReport(j, iteration, allowed, required, "insufficient_history"))
            continue
        cur, at = iterate_until(cur, never, iteration - at).row, iteration
        got = longest_block(cur, allowed).max_length
        status = "fired" if got >= required else "absent"
        reports.append(EventReport(j, iteration, allowed, required, status))
    return reports
