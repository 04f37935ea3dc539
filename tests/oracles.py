"""Slow, independent references that the package's fast paths are checked against.

None of these ships in `gilbreath`: each exists only so that a test can
compare the package's one kernel, `step_array`, and the code built on it with
a second computation of the same thing.
"""

from collections import Counter

import numpy as np

from gilbreath import primes
from gilbreath.parity import ParityMask
from gilbreath.primes import SieveConfig
from gilbreath.triangle import enumerate_rows, step_array


def diff_step(row):
    """One differencing step on a list: [|row[j] - row[j+1]| for j]."""
    return [abs(a - b) for a, b in zip(row, row[1:])]


def ultimate_iterate(row):
    """The single value a row reduces to, by repeated list steps."""
    cur = list(row)
    if not cur:
        raise ValueError("row must have length >= 1")
    while len(cur) > 1:
        cur = diff_step(cur)
    return cur[0]


def red_walk_totals(g, red, L):
    """Red-only walk counts for lengths 1..L by a plain list DP over all n vertices.

    Each length pushes every vertex's count along its out-edges into red
    successors; blue vertices keep a count of 0.
    """
    succ, red = g.succ.tolist(), [bool(r) for r in red]
    vec = [1 if r else 0 for r in red]
    totals = [sum(vec)]
    while len(totals) < L:
        new = [0] * g.n
        for u, c in enumerate(vec):
            for w in succ[u]:
                if red[w]:
                    new[w] += c
        vec = new
        totals.append(sum(new))
    return totals


def mask_via_binomial(i: int) -> ParityMask:
    """J_i by binomial parity: position j is a member iff C(i, j-1) is odd.

    By Lucas' theorem C(i, k) is odd iff k is a bit-submask of i.  This sets
    one bit per submask, 2**popcount(i) big-int ors in all.
    """
    if i < 0:
        raise ValueError("depth must be >= 0")
    bits = 0
    k = i
    while True:  # enumerate submasks of i, descending
        bits |= 1 << k
        if k == 0:
            break
        k = (k - 1) & i
    return ParityMask(i, bits)


def naive_first_column(N: int) -> list[int]:
    """First entry of every triangle row of the primes <= N, by building the whole triangle.

    The sieve is looked up through the module, so a test that replaces
    `primes.sieve_segments` replaces it here too.
    """
    row = np.diff(np.concatenate(list(primes.sieve_segments(SieveConfig(N)))))
    firsts = [int(row[0])]
    while row.size > 1:
        row = np.abs(np.diff(row))
        firsts.append(int(row[0]))
    return firsts


def exact_m0_distribution(f: int, M: int) -> tuple[Counter, int]:
    """The leading-term experiment's M_0 over all f**(M-1) gap sequences of a constant schedule.

    A sequence is a_1 = 2, a_2 = 3, a_{n+1} = a_n + 2u_n with u_2, ..., u_M in
    {0, ..., f-1}, so row 1 is (1, 2u_2, ..., 2u_M).  M_0 is 1 plus the last of
    rows 1..M whose leading entry is not 1 (1 if there is none).  Returns the
    count of each finite M_0, and apart from them the number of sequences whose
    row M does not start with 1, which the experiment records as a null `m0`.
    """
    u = enumerate_rows(f, M - 1)
    rows = np.hstack([np.ones((len(u), 1), dtype=np.int64), 2 * u])
    leading = np.empty((len(u), M), dtype=np.int64)  # column r - 1 holds row r's first entry
    for r in range(M):
        leading[:, r] = rows[:, 0]
        rows = step_array(rows)
    not_one = leading != 1
    last_bad = np.where(not_one.any(axis=1), M - np.argmax(not_one[:, ::-1], axis=1), 0)
    finite = ~not_one[:, -1]
    return Counter((1 + last_bad[finite]).tolist()), int((~finite).sum())
