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


def test_stabilization_predicate():
    assert stabilization_predicate(np.array([1, 0, 2, 2, 2]))
    assert not stabilization_predicate(np.array([1, 2, 2, 4, 2, 4]))
    assert stabilization_predicate(np.array([1]))
    assert not stabilization_predicate(np.array([3, 0, 2]))


def test_stability_closure_exhaustive_tails():
    # |1-0| = |1-2| = 1 and {0,2} is difference-closed, so the predicate
    # survives a differencing step; checked over every {0,2}-tail up to 16.
    for n in range(1, 17):
        for tail in product((0, 2), repeat=n):
            row = np.array((1,) + tail)
            assert stabilization_predicate(row)
            stepped = np.abs(np.diff(row))
            assert stabilization_predicate(stepped)


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
