from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gilbreath.parity import mask, parity_of_ultimate, prob_even
from oracles import mask_via_binomial, ultimate_iterate


def test_mask_small_depths():
    assert sorted(mask(0).members) == [1]
    assert sorted(mask(1).members) == [1, 2]
    assert sorted(mask(2).members) == [1, 3]
    assert sorted(mask(3).members) == [1, 2, 3, 4]
    assert sorted(mask(4).members) == [1, 5]


def test_mask_rejects_negative_depth():
    with pytest.raises(ValueError):
        mask(-1)


def test_mask_endpoints_to_1e4():
    for i in range(1, 10_001):
        bits = mask(i).bits
        assert bits & 1, f"position 1 missing at depth {i}"
        assert (bits >> i) & 1, f"position {i + 1} missing at depth {i}"


def test_mask_symmetry_to_1e3():
    # j is a member iff i+2-j is: the triangle of a reversed row is the
    # row-wise reversal.
    for i in range(1, 1001):
        bits = mask(i).bits
        rev = int(format(bits, f"0{i + 1}b")[::-1], 2)
        assert bits == rev


def test_mask_matches_shift_xor_recurrence_to_3000():
    # J_i = J_{i-1} xor (J_{i-1} + 1): rows of Pascal's triangle mod 2.
    bits = 1
    assert mask(0).bits == bits
    for i in range(1, 3001):
        bits ^= bits << 1
        assert mask(i).bits == bits, i
        # Glaisher: |J_i| = 2**popcount(i), which prob_even relies on.
        assert mask(i).size == 2 ** i.bit_count(), i
        # members against a scan of every bit position.
        scan = {k + 1 for k, ch in enumerate(reversed(bin(bits)[2:])) if ch == "1"}
        assert mask(i).members == scan, i


def test_mask_binomial_closed_form_to_1e3():
    for i in range(0, 1001):
        assert mask_via_binomial(i) == mask(i)


def test_parity_of_ultimate_examples():
    assert parity_of_ultimate([2, 3, 5, 7, 11, 13, 17]) == 1
    assert parity_of_ultimate([7, 2, 9]) == 0


@given(st.integers(0, 40), st.integers(0, 40))
def test_parity_of_pair(a1, a2):
    assert parity_of_ultimate([a1, a2]) == (a1 + a2) % 2


def test_parity_oracle_exhaustive_binary_up_to_length_15():
    for n in range(1, 16):
        for bits in product((0, 1), repeat=n):
            row = list(bits)
            assert parity_of_ultimate(row) == ultimate_iterate(row) % 2


def test_parity_oracle_random_rows():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        row = rng.integers(0, 6, size=rng.integers(1, 66)).tolist()
        assert parity_of_ultimate(row) == ultimate_iterate(row) % 2


def brute_prob_even(C, i):
    n = i + 1
    even = 0
    for row in product(range(C), repeat=n):
        even += 1 - ultimate_iterate(list(row)) % 2
    return Fraction(even, C**n)


def test_prob_even_examples():
    assert prob_even(2, 1) == Fraction(1, 2)
    assert prob_even(2, 17) == Fraction(1, 2)
    assert prob_even(3, 1) == Fraction(5, 9)
    assert prob_even(3, 2) == Fraction(5, 9)


def test_prob_even_against_enumeration():
    for C in (2, 3, 4, 5):
        for i in (1, 2, 3, 4):
            assert prob_even(C, i) == brute_prob_even(C, i), (C, i)


def test_prob_even_band():
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    for C in range(2, 7):
        for i in range(1, 65):
            p = prob_even(C, i)
            assert third <= p <= two_thirds, (C, i, p)


def test_prob_even_validates():
    with pytest.raises(ValueError):
        prob_even(1, 3)
    with pytest.raises(ValueError):
        prob_even(3, 0)


def test_parity_of_empty_row_names_the_input():
    with pytest.raises(ValueError, match="row must have length >= 1"):
        parity_of_ultimate([])
