"""Prime difference-triangle verification with the 0/2-tail stabilization shortcut.

Row 0 is the primes up to N, row i the i-th absolute-difference iterate.  Once
some row equals 1 followed only by 0s and 2s, every later first entry is 1
(|1-0| = |1-2| = 1 and {0,2} is closed under absolute differences), so a run
that reaches such a row certifies the whole triangle without iterating it.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .triangle import StopKind, StopRule, iterate_until, step_array
from .triangle import stabilization_predicate  # noqa: F401  (public name of this module)

CHECKPOINT_MAGIC = b"GILB"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class SieveConfig:
    limit: int
    segment_size: int = 1 << 20

    def __post_init__(self) -> None:
        if self.limit < 2:
            raise ValueError("limit must be >= 2")
        if self.segment_size < 1:
            raise ValueError("segment_size must be >= 1")


def _simple_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.array([], dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


def sieve_segments(cfg: SieveConfig) -> Iterator[np.ndarray]:
    """Primes <= limit as a stream of in-order int64 arrays, one per segment."""
    base = _simple_sieve(int(cfg.limit**0.5))
    low = 2
    while low <= cfg.limit:
        high = min(low + cfg.segment_size, cfg.limit + 1)  # exclusive
        mask = np.ones(high - low, dtype=bool)
        for p in base:
            p = int(p)
            start = max(p * p, ((low + p - 1) // p) * p)
            if start < high:
                mask[start - low :: p] = False
        yield np.flatnonzero(mask) + low
        low = high


def sieve_primes(cfg: SieveConfig) -> Iterator[int]:
    """All primes <= limit in order."""
    for seg in sieve_segments(cfg):
        yield from (int(p) for p in seg)


def primes_array(limit: int, segment_size: int = 1 << 20) -> np.ndarray:
    segs = list(sieve_segments(SieveConfig(limit, segment_size)))
    return np.concatenate(segs) if segs else np.array([], dtype=np.int64)


@dataclass(frozen=True)
class Verdict:
    status: str  # "verified" | "inconclusive" | "violated"
    verified_rows: int
    stabilization_row: int | None
    rows_iterated: int
    violation_row: int | None = None


def _write_checkpoint(path: str, limit: int, row_index: int, row: np.ndarray) -> None:
    payload = row.tobytes()
    digest = hashlib.sha256(payload).digest()
    header = struct.pack(
        "<4sIQQQB",
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        limit,
        row_index,
        row.size,
        row.dtype.itemsize,
    )
    # Write beside it and rename, so a crash never leaves a torn checkpoint.
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(header + digest + payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> tuple[int, int, np.ndarray]:
    """Read a checkpoint, returning (limit, row_index, row); hash-verified."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head_len = struct.calcsize("<4sIQQQB")
    magic, version, limit, row_index, row_len, itemsize = struct.unpack(
        "<4sIQQQB", blob[:head_len]
    )
    if magic != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    digest = blob[head_len : head_len + 32]
    payload = blob[head_len + 32 :]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError("checkpoint row bytes fail the integrity hash")
    dtype = {1: np.uint8, 2: np.uint16, 8: np.int64}[itemsize]
    row = np.frombuffer(payload, dtype=dtype)
    if row.size != row_len:
        raise ValueError("checkpoint length mismatch")
    return int(limit), int(row_index), row.copy()


def verify_gilbreath(
    N: int,
    max_full_rows: int = 10_000,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
) -> Verdict:
    """Check that every difference-triangle row of the primes <= N starts with 1.

    Iterates full rows, testing the stabilization predicate at each one; on
    stabilization at row s the remaining rows are certified without being
    built.  Without stabilization the scan continues row by row until the
    triangle is exhausted or `max_full_rows` is hit (status "inconclusive").
    The rows run through `iterate_until` in chunks that end at each multiple
    of `checkpoint_every`, where the checkpoint is written.
    """
    if N < 3:
        raise ValueError("limit must be >= 3")
    if max_full_rows < 0:
        raise ValueError("max_full_rows must be >= 0")
    # Row i exists for 1 <= i <= n_rows; row i has n_rows + 1 - i entries.
    if resume:
        if checkpoint_path is None:
            raise ValueError("resume requires a checkpoint path")
        ck_limit, i, row = load_checkpoint(checkpoint_path)
        if ck_limit != N:
            raise ValueError(f"checkpoint was taken at limit {ck_limit}, not {N}")
        n_rows = i + row.size - 1
    else:
        gaps = np.diff(primes_array(N))
        n_rows = gaps.size
        row = gaps.astype(np.uint16 if int(gaps.max()) < 65536 else np.int64)
        del gaps
        # A zero-step run narrows to uint8 and frees the uint16 copy before the
        # first step; that free lifts glibc's mmap and trim thresholds, so step
        # temporaries are reused: 16k minor faults at N = 1e8, not 125k.
        row = iterate_until(row, StopRule(StopKind.NONE), 0).row
        i = 1

    every = checkpoint_every if checkpoint_path else 0
    iterated = 0
    while True:
        budget = max_full_rows - iterated
        if every:
            budget = min(budget, every - i % every)
        res = iterate_until(row, StopRule(StopKind.FIRST_NOT_ONE_OR_STABLE), budget)
        row, i, iterated = res.row, i + res.iterations, iterated + res.iterations
        if every and i % every == 0 and res.iterations:  # even on the row that decides
            _write_checkpoint(checkpoint_path, N, i, row)
        if res.reason != "budget":
            if row[0] != 1:
                return Verdict("violated", i - 1, None, iterated, violation_row=i)
            # Every length-1 row stops the rule: [1] is stable, any other is not 1.
            return Verdict("verified", n_rows, i, iterated)
        if iterated >= max_full_rows:
            return Verdict("inconclusive", i, None, iterated)


def naive_first_column(N: int) -> list[int]:
    """First entry of every triangle row, by building the whole triangle (test oracle)."""
    primes = primes_array(N)
    row = np.diff(primes)
    firsts = [int(row[0])]
    while row.size > 1:
        row = step_array(row)
        firsts.append(int(row[0]))
    return firsts
