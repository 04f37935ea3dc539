"""Parity of the ultimate iterate as a linear functional of initial parities.

For each depth i there is a position set J_i, containing 1 and i+1, such that
the ultimate iterate of (a_1, ..., a_{i+1}) is congruent mod 2 to the sum of
a_j over j in J_i.  Packed into an int (bit k <-> position k+1), J_i is row i
of Pascal's triangle mod 2: the sets obey J_i = J_{i-1} xor (J_{i-1} + 1), and
by Lucas' theorem J_i is the product of (1 + x**(2**b)) over the set bits b
of i, which `mask` builds directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class ParityMask:
    """J_i as a packed bitmask; bit k set means position k+1 is a member."""

    i: int
    bits: int

    @property
    def members(self) -> frozenset[int]:
        """1-based positions, subset of {1, ..., i+1}."""
        out, bits = [], self.bits
        while bits:  # one pass per set bit: bits & -bits is the lowest one
            out.append((bits & -bits).bit_length())
            bits &= bits - 1
        return frozenset(out)

    @property
    def size(self) -> int:
        return self.bits.bit_count()


def mask(i: int) -> ParityMask:
    """J_i by Lucas doubling; i = 0 is the identity mask {1}.

    Start from m = 1 and, for each set bit b of i, do m |= m << 2**b.  The
    bits already in m lie below 2**b, so the shifted copy never overlaps
    them: that is multiplication by 1 + x**(2**b) over GF(2).  It costs
    popcount(i) big-int shifts and keeps nothing between calls.
    """
    if i < 0:
        raise ValueError("depth must be >= 0")
    m = 1
    for b in range(i.bit_length()):
        if (i >> b) & 1:
            m |= m << (1 << b)
    return ParityMask(i, m)


def parity_of_ultimate(row: Sequence[int]) -> int:
    """Parity of the ultimate iterate, from initial parities alone."""
    if len(row) == 0:
        raise ValueError("row must have length >= 1")
    bits = int("".join(str(int(v) & 1) for v in reversed(row)), 2)  # bit j <-> row[j]
    return (mask(len(row) - 1).bits & bits).bit_count() & 1


def prob_even(C: int, i: int) -> Fraction:
    """Exact probability that i.i.d. uniform draws on {0,...,C-1} ultimately iterate to an even value.

    The ultimate parity is the XOR of |J_i| independent bits, each odd with
    probability q = floor(C/2)/C, so the even-probability is
    (1 + (1 - 2q)**|J_i|) / 2.  By Glaisher's theorem |J_i| = 2**popcount(i),
    so no mask is built.
    """
    if C < 2:
        raise ValueError("alphabet size must be >= 2")
    if i < 1:
        raise ValueError("depth must be >= 1")
    m = 1 << i.bit_count()
    bias = Fraction(C - 2 * (C // 2), C)  # 1 - 2q
    return (1 + bias**m) / 2
