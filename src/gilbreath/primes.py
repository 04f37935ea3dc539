"""Prime difference-triangle verification over overlapping windows of sieve segments.

Row 1 is the gaps between the primes up to N, row i + 1 the absolute
differences of row i.  Once some row is a 1 followed only by 0s and 2s, every
later first entry is 1 (|1-0| = |1-2| = 1 and {0,2} is closed under absolute
differences).  Entry (r, j) depends only on gaps j..j+r-1, so a window that
starts D gaps before a sieve segment is exact to depth D and memory is
O(D + segment): the prefix idea of A. M. Odlyzko, "Iterated absolute values of
differences of consecutive primes", Math. Comp. 61 (1993).  The sieve runs in
a forked child that streams each segment's gaps through a pipe, so it sieves
the next segment while the parent differences the current window.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import signal
import struct
import time
from dataclasses import dataclass
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from .files import write_file
from .triangle import iterate_until, never, stabilization_predicate, zero_or_two

CHECKPOINT_MAGIC = b"GILB"
CHECKPOINT_VERSION = 2
# magic, version, then the Checkpoint fields before `tail`.
CHECKPOINT_HEADER = "<4sIQQQQQ"
# The odd primes the sieve's pre-sieve pattern crosses off, and its period in odd cells.
WHEEL = (3, 5, 7, 11, 13)
WHEEL_CELLS = 3 * 5 * 7 * 11 * 13
# Each frame from the sieve child starts with (count, value).  count >= 0: that
# many uint16 gaps follow and value is the last prime so far.  FRAME_END: the
# stream is complete (value unused).  FRAME_ERROR: a message of value UTF-8
# bytes follows.
FRAME = struct.Struct("<qq")
FRAME_END, FRAME_ERROR = -1, -2


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
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


def sieve_segments(cfg: SieveConfig, start: int = 2) -> Iterator[np.ndarray]:
    """Primes in [start, limit] as a stream of in-order int64 arrays, one per segment.

    A segment spans `segment_size` numbers but sieves only its odd ones: cell
    j stands for 2j + 1.  Each segment's cells start as a copy of a pattern
    with the multiples of 3, 5, 7, 11 and 13 already crossed off (period
    15,015 odd cells), so each base prime above 13 crosses off only its odd
    multiples: the wheel pre-sieve of primesieve
    (https://github.com/kimwalisch/primesieve).
    """
    low = max(start, 2)
    base = _simple_sieve(math.isqrt(cfg.limit))
    base = base[base > WHEEL[-1]]
    # Cell j holds 2j + 1: p's own cell is p // 2, and its odd multiples are
    # every p-th cell from there.  Sieving starts at p * p, in cell p * p // 2.
    own_cell, square_cell = base // 2, base * base // 2
    pattern = np.ones(WHEEL_CELLS, dtype=bool)
    for p in WHEEL:
        pattern[p // 2 :: p] = False
    span = max(min(cfg.segment_size, cfg.limit + 1 - low), 0)
    pattern = np.tile(pattern, -(-(span // 2 + 1 + WHEEL_CELLS) // WHEEL_CELLS))
    while low <= cfg.limit:
        high = min(low + cfg.segment_size, cfg.limit + 1)  # exclusive
        lo, hi = low // 2, high // 2  # cells lo..hi-1 hold the odd numbers in [low, high)
        mask = pattern[lo % WHEEL_CELLS :][: hi - lo].copy()
        n = int(np.searchsorted(square_cell, hi))
        first = np.maximum(square_cell[:n], lo)
        first += (own_cell[:n] - first) % base[:n] - lo
        for p, j in zip(base[:n].tolist(), first.tolist()):
            mask[j::p] = False
        found = np.flatnonzero(mask)
        found *= 2
        found += 2 * lo + 1
        # The wheel crossed off its own primes; each is below every other prime.
        head = [q for q in (2,) + WHEEL if low <= q < high]
        yield np.concatenate([np.array(head, dtype=np.int64), found]) if head else found
        low = high


@dataclass(frozen=True)
class Verdict:
    status: str  # "verified" | "inconclusive" | "violated"
    verified_rows: int
    stabilization_row: int | None
    rows_iterated: int


class Checkpoint(NamedTuple):
    """Verifier state after a segment; a resume sieves again from last_prime + 1."""

    limit: int
    max_full_rows: int
    last_prime: int
    gaps_seen: int
    stabilization_row: int  # 0 until the first window has run
    tail: np.ndarray  # the last min(max_full_rows, gaps_seen) gaps, uint16


def _write_checkpoint(path: str, ck: Checkpoint) -> None:
    header = struct.pack(CHECKPOINT_HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *ck[:-1])
    payload = ck.tail.astype("<u2").tobytes()
    write_file(path, (header, hashlib.sha256(header + payload).digest(), payload))


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; its header and gaps are hash-verified."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file")
    _, version = struct.unpack("<4sI", blob[:8])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    head_len = struct.calcsize(CHECKPOINT_HEADER)
    header, digest, payload = blob[:head_len], blob[head_len : head_len + 32], blob[head_len + 32 :]
    # A truncated file fails here too: its digest slice is short or missing.
    if hashlib.sha256(header + payload).digest() != digest:
        raise ValueError("checkpoint fails the integrity hash")
    ck = Checkpoint(*struct.unpack(CHECKPOINT_HEADER, header)[2:],
                    np.frombuffer(payload, dtype="<u2").astype(np.uint16))
    if ck.tail.size != min(ck.max_full_rows, ck.gaps_seen):
        raise ValueError("checkpoint length mismatch")
    return ck


def _leading_column_decided(row: np.ndarray) -> bool:
    return bool(row[0] != 1) or stabilization_predicate(row)


def _window_stop(window: np.ndarray, S: int, D: int) -> int | Verdict:
    """The row where one window's iteration stops, or the verdict it forces.

    S = 0 marks the first window.  A later window can raise S only by
    stopping past row S, so it is differenced to row S before its rule is
    tested; it holds no column 1, so only {0,2} counts as stable there.
    """
    if S:
        res = iterate_until(iterate_until(window, never, S - 1).row, zero_or_two, D - S + 1)
    else:
        res = iterate_until(window, _leading_column_decided, D)
    row = max(S, 1) + res.iterations
    if res.reason != "stop":
        return Verdict("inconclusive", D + 1, None, D)
    if not S and res.row[0] != 1:
        return Verdict("violated", row - 1, None, row - 1)
    return row


def _send_gaps(out: BinaryIO, segments: Iterator[np.ndarray], last: int) -> None:
    """The sieve child's work: one frame of gaps per segment, then the end frame.

    Each frame is flushed once complete, so a frame smaller than the write
    buffer reaches the parent before the child sieves the next segment.
    """
    try:
        for seg in segments:
            gaps = np.diff(seg, prepend=last)
            if gaps.size:
                if int(gaps.max()) > np.iinfo(np.uint16).max:
                    raise ValueError(f"prime gap {int(gaps.max())} does not fit in uint16")
                last = int(seg[-1])
            out.write(FRAME.pack(gaps.size, last))
            out.write(gaps.astype(np.uint16))
            out.flush()
        end = FRAME.pack(FRAME_END, 0)
    except Exception as exc:
        message = str(exc).encode()
        end = FRAME.pack(FRAME_ERROR, len(message)) + message
    out.write(end)


def _sieved_gaps(
    segments: Iterator[np.ndarray], last: int, stats: dict
) -> Iterator[tuple[int, np.ndarray]]:
    """(last prime, gaps) per segment, from a forked child that sieves them into a pipe.

    The parent reads one frame while the child sieves the next.  The child
    leaves only through os._exit; if the parent dies, the child's next write
    fails with EPIPE and it exits.  On every path out, `finally` kills the
    child unless its stream ended, closes the pipe and reaps the child with
    os.wait4, whose ru_maxrss (kB on Linux) is the child's peak RSS.  `stats`
    receives the frames read, the seconds spent waiting on them and that peak.
    """
    r, w = os.pipe()
    pipe = open(r, "rb")
    pid, frames, wait_s, finished = 0, 0, 0.0, False
    # SIGINT stays blocked in the child: a Ctrl-C interrupts the parent, which
    # kills the child.  The parent blocks it only until it holds the pid, so
    # `finally` can always clean up.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        try:
            pid = os.fork()
            if not pid:
                code = 1
                try:
                    pipe.close()
                    with open(w, "wb") as out:
                        _send_gaps(out, segments, last)
                    code = 0
                finally:
                    os._exit(code)
        finally:
            os.close(w)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

        def read(buf):
            """Fill `buf` from the pipe and return it: the gaps land in their array, uncopied."""
            nonlocal wait_s
            t0 = time.perf_counter()
            n = pipe.readinto(buf)  # a buffered read comes back short only at EOF
            wait_s += time.perf_counter() - t0
            if n < memoryview(buf).nbytes:
                raise ChildProcessError(f"sieve process {pid} ended before its stream")
            return buf

        while True:
            count, value = FRAME.unpack(read(bytearray(FRAME.size)))
            if count == FRAME_END:
                finished = True
                return
            if count == FRAME_ERROR:
                raise ValueError(read(bytearray(value)).decode())
            frames += 1
            yield value, read(np.empty(count, np.uint16))
    finally:
        if pid and not finished:
            os.kill(pid, signal.SIGKILL)
        pipe.close()
        peak_kb = os.wait4(pid, 0)[2].ru_maxrss if pid else 0
        stats.update(segments=frames, wait_s=wait_s,
                     child_peak_rss_mb=peak_kb / 1024 if finished else None)


def verify_gilbreath(
    N: int,
    max_full_rows: int = 10_000,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
    stats: dict | None = None,
) -> Verdict:
    """Check that every difference-triangle row of the primes <= N starts with 1.

    D = `max_full_rows` caps the depth and is the overlap of the windows.  The
    first window (more than D gaps, or all of them) stops on a leading entry
    other than 1 or on a stable row; each later window, the last D gaps seen
    and a segment's gaps, stops once it lies in {0,2}.  Stability survives
    further steps, so the stabilization row is the deepest stop row of any
    window.  A window that does not stop within D steps makes the verdict
    "inconclusive".  The checkpoint is written after every
    `checkpoint_every`-th segment; a checkpoint path without it is an error
    unless the run resumes from that path.  The sieve runs in a forked child
    (`_sieved_gaps`).  A `stats` dict receives the number of segments, the
    seconds spent waiting on the child and its peak RSS in MB: `ru_maxrss`
    from os.wait4 when the child is reaped, None if it did not finish.
    """
    if N < 3:
        raise ValueError("limit must be >= 3")
    if max_full_rows < 0:
        raise ValueError("max_full_rows must be >= 0")
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be >= 0")
    if checkpoint_every and checkpoint_path is None:
        raise ValueError("checkpoint_every requires a checkpoint path")
    if checkpoint_path is not None and not checkpoint_every and not resume:
        raise ValueError("a checkpoint path needs checkpoint_every >= 1 (or resume)")
    D = max_full_rows
    if resume:
        if checkpoint_path is None:
            raise ValueError("resume requires a checkpoint path")
        ck = load_checkpoint(checkpoint_path)
        if ck.limit != N:
            raise ValueError(f"checkpoint was taken at limit {ck.limit}, not {N}")
        if ck.max_full_rows != D:
            raise ValueError(f"checkpoint was taken with max_full_rows {ck.max_full_rows}, not {D}")
        _, _, last, seen, S, tail = ck
    else:
        last, seen, S, tail = 2, 0, 0, np.empty(0, dtype=np.uint16)
    frames = _sieved_gaps(sieve_segments(SieveConfig(N), start=last + 1), last,
                          {} if stats is None else stats)
    with contextlib.closing(frames):
        for k, (last, gaps) in enumerate(frames, 1):
            if gaps.size:
                seen += gaps.size
                window = np.concatenate((tail, gaps))
                if S or window.size > D:
                    S = _window_stop(window, S, D)
                    if isinstance(S, Verdict):
                        return S
                tail = window[-D:] if D else window[:0]
            if checkpoint_every and k % checkpoint_every == 0:
                _write_checkpoint(checkpoint_path, Checkpoint(N, D, last, seen, S, tail))
    if not S:  # the sieve ended within D gaps: they all form the first window
        S = _window_stop(tail, 0, D)
    return S if isinstance(S, Verdict) else Verdict("verified", seen, S, S - 1)
