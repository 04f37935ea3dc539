import hashlib
import json
import re
import struct
from itertools import islice, product

import numpy as np
import pytest

from gilbreath import primes
from gilbreath.cli import main
from gilbreath.primes import (
    SieveConfig,
    Verdict,
    load_checkpoint,
    sieve_segments,
    stabilization_predicate,
    verify_gilbreath,
)
from gilbreath.triangle import never, zero_or_two
from oracles import naive_first_column


def sieved(limit: int, segment_size: int = 1 << 20, start: int = 2) -> list[int]:
    segs = list(sieve_segments(SieveConfig(limit, segment_size), start))
    return np.concatenate(segs).tolist() if segs else []


def full_row_verdict(N: int, D: int) -> Verdict:
    """Reference: difference the whole gap row, stopping on the verifier's rule."""
    gaps = np.diff(np.concatenate(list(primes.sieve_segments(SieveConfig(N)))))
    row, r = gaps, 1
    while True:
        if row[0] != 1:
            return Verdict("violated", r - 1, None, r - 1)
        if stabilization_predicate(row):
            return Verdict("verified", gaps.size, r, r - 1)
        if r > D:
            return Verdict("inconclusive", r, None, D)
        row, r = np.abs(np.diff(row)), r + 1


def use_segment_size(monkeypatch, size: int) -> None:
    sieve = primes.sieve_segments
    monkeypatch.setattr(primes, "sieve_segments",
                        lambda cfg, start=2: sieve(SieveConfig(cfg.limit, size), start))


def use_stream(monkeypatch, values: list[int], chunk: int = 7) -> None:
    """Replace the sieve by `values` (primes or not), `chunk` to a segment."""
    def fake(cfg, start=2):
        kept = np.array([v for v in values if v >= start], dtype=np.int64)
        for i in range(0, kept.size, chunk):
            yield kept[i : i + chunk]

    monkeypatch.setattr(primes, "sieve_segments", fake)


def test_sieve_small():
    assert sieved(17) == [2, 3, 5, 7, 11, 13, 17]
    assert sieved(10) == [2, 3, 5, 7]
    assert sieved(2) == [2]
    assert sieved(100, start=50) == [53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    assert sieved(100, start=101) == []


def test_sieve_counts():
    assert len(sieved(10**6)) == 78498
    # segment boundaries must not lose primes, from any start
    assert sieved(10**5, segment_size=101) == sieved(10**5)
    assert sieved(10**5, segment_size=101, start=4999) == [p for p in sieved(10**5) if p >= 4999]


def test_sieve_matches_simple_sieve_to_2000():
    expected = primes._simple_sieve(2000).tolist()
    for limit in range(2, 2001):
        assert sieved(limit) == [p for p in expected if p <= limit], limit


PERIOD = 2 * primes.WHEEL_CELLS  # 30,030 numbers; odd cell 15,015 holds 30,031


@pytest.mark.parametrize("segment_size", (1, 2, 3, 7, 64, 101, 15_015, 30_030))
def test_sieve_across_the_pattern_period(segment_size):
    # The pre-sieve pattern starts over at cell 15,015, the number 30,031.  A
    # resume restarts at last_prime + 1, which is even after the first
    # segment, so both parities start next to the edge.  Each walk stops after
    # 500 segments: from the small starts, segments of 61 numbers or more
    # still reach the edge, and the starts next to it carry the smaller ones.
    expected = primes._simple_sieve(PERIOD + 3).tolist()
    for limit in (PERIOD, PERIOD + 1, PERIOD + 3):
        for start in (2, 3, 4, 13, 14, PERIOD - 11, PERIOD - 10):
            segs = islice(sieve_segments(SieveConfig(limit, segment_size), start), 500)
            stop = min(limit, start + 500 * segment_size - 1)
            assert np.concatenate(list(segs)).tolist() == [
                p for p in expected if start <= p <= stop], (limit, start)


@pytest.mark.parametrize("segment_size", (1 << 20, 100_001))
def test_sieve_pi_1e7(segment_size):
    assert sum(seg.size for seg in sieve_segments(SieveConfig(10**7, segment_size))) == 664_579


def test_sieve_config_validation():
    with pytest.raises(ValueError):
        SieveConfig(1)
    with pytest.raises(ValueError):
        SieveConfig(10, segment_size=0)


DTYPES = (np.uint8, np.uint16, np.int64, object)


def test_stabilization_predicate():
    for dtype in DTYPES:
        assert stabilization_predicate(np.array([1, 0, 2, 2, 2], dtype=dtype))
        assert not stabilization_predicate(np.array([1, 2, 2, 4, 2, 4], dtype=dtype))
        assert stabilization_predicate(np.array([1], dtype=dtype))
        assert not stabilization_predicate(np.array([3, 0, 2], dtype=dtype))
        # Tail entries that share bits with 2 but are not 0 or 2.
        for bad in (1, 3, 6, 18, 255):
            assert not stabilization_predicate(np.array([1, 0, bad, 2], dtype=dtype))
        # Against the definition on short rows over {0,...,3}.
        rng = np.random.default_rng(3)
        for _ in range(300):
            row = rng.integers(0, 4, size=rng.integers(1, 8)).astype(dtype)
            row[0] = rng.choice([1, 1, 2])
            expected = row[0] == 1 and all(v in (0, 2) for v in row[1:].tolist())
            assert stabilization_predicate(row) == expected, row
    # Exact Python ints past int64.
    assert not stabilization_predicate(np.array([1, 2, 2**63 + 2, 0], dtype=object))
    assert not stabilization_predicate(np.array([1, 2**64 + 2], dtype=object))
    assert not stabilization_predicate(np.array([2**64 + 1, 0, 2], dtype=object))


def test_stability_closure_exhaustive_tails():
    # |1-0| = |1-2| = 1 and {0,2} is difference-closed, so the predicate
    # survives a differencing step; checked over every {0,2}-tail up to 16
    # (int64) or 10 (the other dtypes), and any one tail entry outside {0,2}
    # breaks it.
    for dtype, longest in ((np.int64, 16), (np.uint8, 10), (np.uint16, 10), (object, 10)):
        for n in range(1, longest + 1):
            for tail in product((0, 2), repeat=n):
                row = np.array((1,) + tail, dtype=dtype)
                assert stabilization_predicate(row)
                stepped = np.abs(np.diff(row.astype(np.int64))).astype(dtype)
                assert stabilization_predicate(stepped)
                for j, bad in ((1, 1), (n, 4)):
                    broken = row.copy()
                    broken[j] = bad
                    assert not stabilization_predicate(broken)


def test_verify_small_limits():
    v = verify_gilbreath(17)
    assert (v.status, v.stabilization_row, v.verified_rows) == ("verified", 2, 6)
    v = verify_gilbreath(3)
    assert (v.status, v.verified_rows) == ("verified", 1)
    assert v.stabilization_row == 1  # single gap row [1]


@pytest.mark.parametrize("limit, row", [(10**6, 95), (10**7, 135), (3 * 10**7, 162)])
def test_stabilization_rows(limit, row):
    v = verify_gilbreath(limit)
    assert (v.status, v.stabilization_row, v.rows_iterated) == ("verified", row, row - 1)


def test_verify_agrees_with_naive_oracle():
    for limit in (10, 100, 1000, 10_000):
        firsts = naive_first_column(limit)
        v = verify_gilbreath(limit)
        assert v.status == "verified"
        assert all(f == 1 for f in firsts)
        assert v.verified_rows == len(firsts)


GRID_N = (3, 5, 17, 100, 1000, 10**4, 5 * 10**4, 10**5, 10**6)
GRID_D = (0, 1, 3, 10, 39, 60, 100, 10_000)


@pytest.mark.parametrize("segment_size", (64, 1000, 2**14, 2**20))
def test_windows_match_full_row_oracle(monkeypatch, segment_size):
    # Left out: 64-number segments at N = 1e6 with D = 100 and 10,000 make
    # 15,625 windows of D + ~4 gaps each, about 30 s for the two cases.
    cases = [(N, D) for N, D in product(GRID_N, GRID_D)
             if not (segment_size == 64 and N == 10**6 and D >= 100)]
    expected = {case: full_row_verdict(*case) for case in cases}
    use_segment_size(monkeypatch, segment_size)
    for N, D in cases:
        assert verify_gilbreath(N, max_full_rows=D) == expected[N, D], (N, D)
    assert {v.status for v in expected.values()} == {"verified", "inconclusive"}


def test_later_window_out_of_budget(monkeypatch):
    # The first segment's 167 gaps settle at row 15, but the triangle of the
    # primes up to 1e5 stabilizes only at row 65, beyond D + 1 = 40.
    use_segment_size(monkeypatch, 1000)
    runs = []
    iterate = primes.iterate_until

    def spy(row, stop, max_iters):
        res = iterate(row, stop, max_iters)
        runs.append((stop, res.reason, res.iterations))
        return res

    monkeypatch.setattr(primes, "iterate_until", spy)
    v = verify_gilbreath(10**5, max_full_rows=39)
    assert v == Verdict("inconclusive", 40, None, 39) == full_row_verdict(10**5, 39)
    assert runs[0] == (primes._leading_column_decided, "stop", 14)
    # The last window is differenced to row S = 39, then runs out of budget.
    assert runs[-2:] == [(never, "budget", 38), (zero_or_two, "budget", 1)]


# The primes up to 1000 with every one from 73 on moved up by 32: the leading
# column first leaves 1 at row 22.
CRAFTED = [p if p < 73 else p + 32 for p in sieved(1000)]


@pytest.mark.parametrize("D", [10, 20, 21, 30, 10_000])
def test_violation_matches_first_column(monkeypatch, D):
    use_stream(monkeypatch, CRAFTED)
    firsts = naive_first_column(1000)
    first_bad = 1 + next(i for i, f in enumerate(firsts) if f != 1)
    assert first_bad == 22
    v = verify_gilbreath(1000, max_full_rows=D)
    assert v == full_row_verdict(1000, D)
    if D + 1 >= first_bad:
        assert (v.status, v.verified_rows + 1, v.rows_iterated) == ("violated", 22, 21)
    else:
        assert v.status == "inconclusive"


def test_violation_exits_2_with_reproducer(monkeypatch, capsys):
    use_stream(monkeypatch, CRAFTED)
    assert main(["primes", "--limit", "1000"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("FINDING: leading entry != 1")
    assert json.loads(err[1])["reproducer"] == {"limit": 1000, "row": 22}


def test_gap_beyond_uint16_raises(monkeypatch):
    use_stream(monkeypatch, [2, 3, 5, 7, 7 + 70_000])
    with pytest.raises(ValueError, match="uint16"):
        verify_gilbreath(10**5)


def test_verify_budget_exhaustion():
    v = verify_gilbreath(10_000, max_full_rows=3)
    assert v.status == "inconclusive"
    assert v.rows_iterated == 3
    with pytest.raises(ValueError, match="max_full_rows"):
        verify_gilbreath(10_000, max_full_rows=-1)
    with pytest.raises(ValueError, match="checkpoint_every"):
        verify_gilbreath(10_000, checkpoint_path="unused", checkpoint_every=-1)
    with pytest.raises(ValueError, match="checkpoint path"):
        verify_gilbreath(10_000, checkpoint_every=5)
    with pytest.raises(ValueError, match="checkpoint_every >= 1"):
        verify_gilbreath(10_000, checkpoint_path="unused")


@pytest.mark.parametrize("limit, every, max_rows, status, last_row", [
    (50_000, 5, 10_000, "verified", 57),
    (100_000, 5, 10_000, "verified", 65),
    (1000, 1, 10_000, "verified", 15),
    (1_000_000, 10, 39, "inconclusive", 40),  # a later window runs out of its 39 steps
])
def test_checkpoint_rows(monkeypatch, limit, every, max_rows, status, last_row):
    # With 64-number segments from 3 on, segment i ends at 2 + 64 i; the
    # state after it is the state of a run to that limit.
    use_segment_size(monkeypatch, 64)
    written = []
    monkeypatch.setattr(primes, "_write_checkpoint", lambda path, ck: written.append(ck))
    v = verify_gilbreath(limit, max_full_rows=max_rows, checkpoint_path="unused",
                         checkpoint_every=every)
    row = v.stabilization_row if status == "verified" else v.verified_rows
    assert (v.status, row, v.rows_iterated) == (status, last_row, last_row - 1)
    if status == "verified":
        assert len(written) == -(-(limit - 2) // 64) // every
    assert written
    ps = np.array(sieved(limit))
    for i, ck in zip(range(every, 10**9, every), written):
        end = min(2 + 64 * i, limit)
        gaps = np.diff(ps[ps <= end])
        settled = full_row_verdict(end, max_rows).stabilization_row if gaps.size > max_rows else 0
        assert ck[:-1] == (limit, max_rows, ps[ps <= end][-1], gaps.size, settled)
        assert ck.tail.dtype == np.uint16 and ck.tail.tolist() == gaps[-max_rows:].tolist()


def test_verify_deterministic():
    a = verify_gilbreath(100_000)
    b = verify_gilbreath(100_000)
    assert a == b
    assert a.status == "verified"


def test_checkpoint_round_trip(tmp_path, monkeypatch):
    use_segment_size(monkeypatch, 1000)
    path = str(tmp_path / "ck.bin")
    full = verify_gilbreath(50_000, checkpoint_path=path, checkpoint_every=5)
    ck = load_checkpoint(path)
    # The 50th and last segment ends at 50,002; the first window is still open.
    assert ck[:-1] == (50_000, 10_000, 49_999, 5132, 0)
    assert ck.tail.tolist() == np.diff(sieved(50_000)).tolist()
    resumed = verify_gilbreath(50_000, checkpoint_path=path, resume=True)
    assert resumed == full
    assert full.status == "verified"


def test_resume_reads_the_checkpoint_not_the_sieve(tmp_path, monkeypatch):
    # A resume sieves only from the checkpoint's last prime + 1.
    use_segment_size(monkeypatch, 1000)
    path = tmp_path / "ck.bin"
    fresh = verify_gilbreath(50_000, max_full_rows=60, checkpoint_path=str(path),
                             checkpoint_every=7)
    # Checkpoints are written beside the file and renamed into place.
    assert list(tmp_path.iterdir()) == [path]
    ck = load_checkpoint(str(path))
    assert ck.last_prime == 48_991  # the 49th segment ends at 49,002

    starts = []
    sieve = primes.sieve_segments

    def spy(cfg, start=2):
        starts.append(start)
        return sieve(cfg, start)

    monkeypatch.setattr(primes, "sieve_segments", spy)
    resumed = verify_gilbreath(50_000, max_full_rows=60, checkpoint_path=str(path), resume=True)
    assert starts == [48_992]
    assert resumed == fresh


def test_resume_after_interrupted_run(tmp_path, monkeypatch):
    use_segment_size(monkeypatch, 1000)
    path = str(tmp_path / "ck.bin")
    uninterrupted = verify_gilbreath(100_000, max_full_rows=70)
    write = primes._write_checkpoint
    calls = []

    def crash_on_second(p, ck):
        calls.append(ck)
        if len(calls) == 2:
            raise RuntimeError("killed")
        write(p, ck)

    monkeypatch.setattr(primes, "_write_checkpoint", crash_on_second)
    with pytest.raises(RuntimeError, match="killed"):
        verify_gilbreath(100_000, max_full_rows=70, checkpoint_path=path, checkpoint_every=4)
    ck = load_checkpoint(path)
    assert ck.last_prime < 4003 and 0 < ck.stabilization_row  # after segment 4 of 100
    monkeypatch.setattr(primes, "_write_checkpoint", write)
    assert verify_gilbreath(100_000, max_full_rows=70, checkpoint_path=path,
                            resume=True) == uninterrupted


def test_checkpoint_rejects_wrong_limit(tmp_path, monkeypatch):
    use_segment_size(monkeypatch, 1000)
    path = str(tmp_path / "ck.bin")
    verify_gilbreath(50_000, checkpoint_path=path, checkpoint_every=5)
    with pytest.raises(ValueError, match="limit"):
        verify_gilbreath(60_000, checkpoint_path=path, resume=True)
    with pytest.raises(ValueError, match="max_full_rows"):
        verify_gilbreath(50_000, max_full_rows=100, checkpoint_path=path, resume=True)


def test_checkpoint_detects_corruption(tmp_path, monkeypatch):
    use_segment_size(monkeypatch, 1000)
    path = tmp_path / "ck.bin"
    verify_gilbreath(50_000, checkpoint_path=str(path), checkpoint_every=5)
    good = path.read_bytes()
    # The last gap, then the stored stabilization row in the header.
    for offset in (len(good) - 1, struct.calcsize(primes.CHECKPOINT_HEADER) - 1):
        blob = bytearray(good)
        blob[offset] ^= 0xFF
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="integrity"):
            load_checkpoint(str(path))


def test_version_1_checkpoint_exits_1(tmp_path, capsys):
    # The row checkpoint of earlier releases: header, sha256 of the row, row.
    row = np.ones(10, dtype=np.uint8)
    header = struct.pack("<4sIQQQB", b"GILB", 1, 50_000, 5, row.size, 1)
    path = tmp_path / "ck.bin"
    path.write_bytes(header + hashlib.sha256(row.tobytes()).digest() + row.tobytes())
    assert main(["primes", "--limit", "50000", "--checkpoint", str(path), "--resume"]) == 1
    assert "error: unsupported checkpoint version 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--checkpoint", "ck.bin", "--checkpoint-every", "-5"], "checkpoint_every must be >= 0"),
    (["--checkpoint-every", "3"], "checkpoint_every requires a checkpoint path"),
    (["--checkpoint", "ck.bin"], "a checkpoint path needs checkpoint_every >= 1"),
], ids=["negative-every", "every-without-checkpoint", "checkpoint-without-every"])
def test_bad_checkpoint_options_exit_1(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(["primes", "--limit", "1000", *argv]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _junk_file(tmp_path):
    path = tmp_path / "ck"
    path.write_bytes(b"not a checkpoint")
    return str(path)


def _short_tail_file(tmp_path):
    # Correctly hashed, but 3 tail gaps where min(D, gaps_seen) = 10 are due.
    path = str(tmp_path / "ck")
    primes._write_checkpoint(path, primes.Checkpoint(100, 10, 97, 24, 0, np.ones(3, np.uint16)))
    return path


@pytest.mark.parametrize("call, message", [
    (lambda tmp: load_checkpoint(_junk_file(tmp)), "not a checkpoint file"),
    (lambda tmp: load_checkpoint(_short_tail_file(tmp)), "checkpoint length mismatch"),
    (lambda tmp: verify_gilbreath(2), "limit must be >= 3"),
    (lambda tmp: verify_gilbreath(100, resume=True), "resume requires a checkpoint path"),
], ids=["not-a-checkpoint", "tail-length", "limit", "resume-without-path"])
def test_bad_arguments_name_the_input(tmp_path, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tmp_path)
