from itertools import product

import numpy as np
import pytest

from gilbreath import primes
from gilbreath.primes import (
    SieveConfig,
    load_checkpoint,
    naive_first_column,
    primes_array,
    sieve_primes,
    stabilization_predicate,
    verify_gilbreath,
)


def test_sieve_small():
    assert list(sieve_primes(SieveConfig(17))) == [2, 3, 5, 7, 11, 13, 17]
    assert list(sieve_primes(SieveConfig(10))) == [2, 3, 5, 7]
    assert list(sieve_primes(SieveConfig(2))) == [2]


def test_sieve_counts():
    assert len(primes_array(10**6)) == 78498
    # segment boundaries must not lose primes
    assert primes_array(10**5, segment_size=101).tolist() == primes_array(10**5).tolist()


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


def test_verify_agrees_with_naive_oracle():
    for limit in (10, 100, 1000, 10_000):
        firsts = naive_first_column(limit)
        v = verify_gilbreath(limit)
        assert v.status == "verified"
        assert all(f == 1 for f in firsts)
        assert v.verified_rows == len(firsts)


def test_verify_budget_exhaustion():
    v = verify_gilbreath(10_000, max_full_rows=3)
    assert v.status == "inconclusive"
    assert v.rows_iterated == 3
    with pytest.raises(ValueError, match="max_full_rows"):
        verify_gilbreath(10_000, max_full_rows=-1)


@pytest.mark.parametrize("limit, every, max_rows, status, last_row", [
    (50_000, 5, 10_000, "verified", 57),  # stabilizes between two multiples
    (100_000, 5, 10_000, "verified", 65),  # stabilizes on a multiple
    (1000, 1, 10_000, "verified", 15),
    (1_000_000, 10, 39, "inconclusive", 40),  # the row budget ends on a multiple
])
def test_checkpoint_rows(monkeypatch, limit, every, max_rows, status, last_row):
    # A checkpoint at every multiple of `every` reached by a step, the last
    # row included: it is written before the verdict.
    written = []
    monkeypatch.setattr(primes, "_write_checkpoint",
                        lambda path, N, row_index, row: written.append((row_index, row.size)))
    v = verify_gilbreath(limit, max_full_rows=max_rows, checkpoint_path="unused",
                         checkpoint_every=every)
    row = v.stabilization_row if status == "verified" else v.verified_rows
    assert (v.status, row, v.rows_iterated) == (status, last_row, last_row - 1)
    n_rows = len(primes_array(limit)) - 1
    assert written == [(i, n_rows + 1 - i) for i in range(every, last_row + 1, every) if i > 1]


def test_verify_deterministic():
    a = verify_gilbreath(100_000)
    b = verify_gilbreath(100_000)
    assert a == b
    assert a.status == "verified"


def test_checkpoint_round_trip(tmp_path):
    path = str(tmp_path / "ck.bin")
    full = verify_gilbreath(50_000, checkpoint_path=path, checkpoint_every=5)
    limit, row_index, row = load_checkpoint(path)
    assert limit == 50_000 and row_index % 5 == 0 and row.size > 0
    resumed = verify_gilbreath(50_000, checkpoint_path=path, resume=True)
    assert resumed.status == full.status == "verified"
    assert resumed.stabilization_row == full.stabilization_row


def test_resume_reads_the_checkpoint_not_the_sieve(tmp_path, monkeypatch):
    path = tmp_path / "ck.bin"
    fresh = verify_gilbreath(50_000, checkpoint_path=str(path), checkpoint_every=5)
    # Checkpoints are written beside the file and renamed into place.
    assert list(tmp_path.iterdir()) == [path]

    def no_sieve(*args, **kwargs):
        raise AssertionError("resume sieved the primes again")

    monkeypatch.setattr(primes, "primes_array", no_sieve)
    resumed = verify_gilbreath(50_000, checkpoint_path=str(path), resume=True)
    assert (resumed.status, resumed.verified_rows, resumed.stabilization_row) == (
        fresh.status, fresh.verified_rows, fresh.stabilization_row)


def test_checkpoint_rejects_wrong_limit(tmp_path):
    path = str(tmp_path / "ck.bin")
    verify_gilbreath(50_000, checkpoint_path=path, checkpoint_every=5)
    with pytest.raises(ValueError, match="limit"):
        verify_gilbreath(60_000, checkpoint_path=path, resume=True)


def test_checkpoint_detects_corruption(tmp_path):
    path = str(tmp_path / "ck.bin")
    verify_gilbreath(50_000, checkpoint_path=path, checkpoint_every=5)
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ValueError, match="integrity"):
        load_checkpoint(path)
