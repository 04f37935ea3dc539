import json
import random
import re
from dataclasses import asdict
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gilbreath import lifting
from gilbreath.lifting import (
    ExoticCertificate,
    lift_search,
    preimages,
    verify_certificate,
)
from gilbreath.triangle import iterate_until, never
from oracles import diff_step

EXOTIC_TOP = [2, 0, 6, 0, 2, 2, 6, 5, 0, 0, 6, 1, 3, 2, 2, 3, 0, 6, 0, 5]
EXOTIC_SEED = [0, 0, 0, 3, 3, 0, 0, 0, 0, 0, 0, 0]


def test_preimages_zero_row():
    assert list(preimages([0], 2)) == [[0, 0], [1, 1], [2, 2]]


def test_preimages_order_and_count():
    got = list(preimages([3], 6))
    assert got == [[0, 3], [1, 4], [2, 5], [3, 6], [3, 0], [4, 1], [5, 2], [6, 3]]


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6), st.integers(0, 6))
def test_preimages_round_trip(row, cap):
    for parent in preimages(row, cap):
        assert diff_step(parent) == row
        assert all(0 <= v <= cap for v in parent)


@settings(max_examples=25)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=5), st.integers(0, 5))
def test_preimages_complete_vs_enumeration(row, cap):
    got = sorted(tuple(p) for p in preimages(row, cap))
    expect = sorted(
        parent
        for parent in product(range(cap + 1), repeat=len(row) + 1)
        if diff_step(list(parent)) == row
    )
    assert got == expect


def test_preimage_count_of_zero_row_is_alphabet_size():
    for n in (1, 3, 5):
        for cap in (0, 2, 4):
            assert len(list(preimages([0] * n, cap))) == cap + 1


def test_lift_search_reaches_exotic_width():
    cert = lift_search(EXOTIC_SEED, cap=6, width=20, budget=200_000, rng=random.Random(0))
    assert cert is not None
    assert len(cert.initial) == 20 and cert.d == 3
    assert verify_certificate(cert)


def test_lift_search_constant_rows_from_zero_seed():
    cert = lift_search([0, 0, 0], cap=4, width=6, budget=1000, rng=random.Random(1))
    assert cert is not None
    assert verify_certificate(cert)


def test_lift_search_impossible_cap():
    cert = lift_search([3], cap=2, width=3, budget=1000, rng=random.Random(2))
    assert cert is None


def test_lift_search_rejects_mixed_seed():
    with pytest.raises(ValueError, match="seed row"):
        lift_search([0, 3, 1], cap=6, width=5, budget=10, rng=random.Random(0))


def test_lift_search_deterministic():
    kw = dict(cap=6, width=16, budget=50_000)
    a = lift_search(EXOTIC_SEED, rng=random.Random(7), **kw)
    b = lift_search(EXOTIC_SEED, rng=random.Random(7), **kw)
    assert a == b


def test_verify_certificate_exotic_golden():
    cert = ExoticCertificate(d=3, initial=tuple(EXOTIC_TOP), depth_checked=19,
                             first_pure_row=8)
    assert verify_certificate(cert)
    assert iterate_until(EXOTIC_TOP, never, retain=True).rows[8] == EXOTIC_SEED


def test_verify_certificate_rejects_prime_row():
    cert = ExoticCertificate(d=3, initial=(2, 3, 5, 7, 11, 13, 17), depth_checked=6,
                             first_pure_row=0)
    assert not verify_certificate(cert)


def test_verify_certificate_all_pure_row():
    cert = ExoticCertificate(d=5, initial=(0, 5, 5, 0), depth_checked=3, first_pure_row=0)
    assert verify_certificate(cert)


def test_verify_certificate_rejects_off_by_one_pure_row():
    for first_pure_row in (7, 9):
        cert = ExoticCertificate(d=3, initial=tuple(EXOTIC_TOP), depth_checked=19,
                                 first_pure_row=first_pure_row)
        assert not verify_certificate(cert)


def test_verify_certificate_past_int64():
    # Entries past int64 run as exact Python ints: row 1 is (d, d, d).
    d = 2**64 + 3
    cert = ExoticCertificate(d=d, initial=(2 * d, d, 0, d), depth_checked=3, first_pure_row=1)
    assert verify_certificate(cert)
    assert not verify_certificate(ExoticCertificate(d - 1, cert.initial, 3, 1))


def test_certificate_json_round_trip():
    cert = ExoticCertificate(d=3, initial=tuple(EXOTIC_TOP), depth_checked=19,
                             first_pure_row=8)
    record = {"kind": "exotic_search", "result": {"found": True, **asdict(cert)}}
    assert ExoticCertificate.from_record(json.dumps(record)) == cert


@pytest.mark.parametrize("obj, message", [
    ({"initial": [0, 3], "depth_checked": 1, "first_pure_row": 0}, "JSON object with d"),
    ({"d": 3, "initial": [0, "x"], "depth_checked": 1, "first_pure_row": 0}, "integers"),
    ({"d": 3, "initial": [0, 1.5], "depth_checked": 1, "first_pure_row": 0}, "integers"),
    ({"d": 3, "initial": [0, -3], "depth_checked": 1, "first_pure_row": 0}, "non-negative"),
    ({"d": -3, "initial": [0, 3], "depth_checked": 1, "first_pure_row": 0}, "non-negative"),
    ({"d": 3, "depth_checked": 1, "first_pure_row": 0}, "JSON object with d"),
])
def test_certificate_from_json_rejects_malformed(obj, message):
    record = {"kind": "exotic_search", "result": {"found": True, **obj}}
    with pytest.raises(ValueError, match=message):
        ExoticCertificate.from_record(json.dumps(record))


def test_preimages_of_a_long_row():
    # One stack frame per entry would overflow the interpreter stack here.
    row = [0] * 3000 + [3]
    assert [p[0] for p in preimages(row, 3)] == [0, 3]


@pytest.mark.parametrize("call, message", [
    (lambda: list(preimages([0], -1)), "cap must be >= 0"),
    (lambda: lift_search([0, 3], 0, 4, 10, random.Random(0)), "cap and width must be >= 1"),
    (lambda: lift_search([0, 3], 3, 0, 10, random.Random(0)), "cap and width must be >= 1"),
    (lambda: ExoticCertificate.from_record("[0, 3]"),
     "certificate must be an exotic_search record"),
    (lambda: ExoticCertificate.from_record(json.dumps({"kind": "exotic_search", "result": [0]})),
     "exotic_search record holds no certificate (result.found is not true)"),
], ids=["preimages-cap", "lift-cap", "lift-width", "record-not-object",
        "record-result-not-object"])
def test_bad_arguments_name_the_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("first_pure", [None, 99])
def test_lift_search_rejects_a_row_its_own_check_fails(monkeypatch, first_pure):
    # The search re-derives the pure depth instead of trusting the lift.
    monkeypatch.setattr(lifting, "_first_pure_row", lambda initial, d: first_pure)
    assert lift_search(EXOTIC_SEED, 6, 14, 50_000, random.Random(0)) is None
