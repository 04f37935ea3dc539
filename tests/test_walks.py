import random
import re
from fractions import Fraction
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gilbreath.walks import (
    RegularDigraph,
    WalkProbability,
    _red_walk_totals,
    all_red_probability,
    check_bootstrap,
    debruijn_graph,
    format_walk_instance,
    parse_walk_instance,
    random_coloring,
    random_regular_digraph,
    remark_counterexample,
    ultimate_iterate_coloring,
)
from oracles import red_walk_totals, ultimate_iterate


def two_vertex_complete():
    return RegularDigraph([[0, 1], [0, 1]])


def brute_all_red(g, red, L):
    # Exhaustive walk enumeration.
    count = 0
    for start in range(g.n):
        stack = [(start, 1)] if red[start] else []
        while stack:
            v, length = stack.pop()
            if length == L:
                count += 1
                continue
            for w in g.succ[v]:
                if red[w]:
                    stack.append((w, length + 1))
    return Fraction(count, g.n * g.d ** (L - 1))


def test_regularity_validation():
    with pytest.raises(ValueError, match="out-degree"):
        RegularDigraph([[0], [0, 1]])
    with pytest.raises(ValueError, match="multi-edge"):
        RegularDigraph([[0, 0], [0, 1]])
    with pytest.raises(ValueError, match="in-degree"):
        RegularDigraph([[1], [0], [0]])
    with pytest.raises(ValueError, match="n >= 1 and d >= 1"):
        RegularDigraph(np.empty((0, 1), dtype=np.int64))
    # The messages name the first failing vertex, sorted row or not.
    with pytest.raises(ValueError, match="vertex 2 has a repeated successor"):
        RegularDigraph([[0, 1], [1, 0], [2, 2]])
    with pytest.raises(ValueError, match="vertex 1 has a successor out of range"):
        RegularDigraph([[0], [3], [1]])
    # A valid graph keeps its rows in the order given.
    assert RegularDigraph([[1, 0], [0, 1]]).succ.tolist() == [[1, 0], [0, 1]]


@pytest.mark.parametrize("succ", [[[1], [2]], [[1], [-1]], [[0, 1], [2**70, 0]]],
                         ids=["too-large", "negative", "beyond-int64"])
def test_successor_out_of_range(succ):
    with pytest.raises(ValueError):
        RegularDigraph(succ)


def test_coloring_length_must_be_n():
    g = two_vertex_complete()
    for red in (np.array([True]), np.array([True, False, True]), np.array([1, 0])):
        with pytest.raises(ValueError, match="bool array of length n = 2"):
            all_red_probability(g, red, 3)
        with pytest.raises(ValueError, match="bool array of length n = 2"):
            check_bootstrap(g, red, 3)


def test_walk_length_must_be_positive():
    g = two_vertex_complete()
    with pytest.raises(ValueError, match="walk length"):
        all_red_probability(g, np.array([True, True]), 0)
    with pytest.raises(ValueError, match="walk length"):
        check_bootstrap(g, np.array([True, True]), 0)


def test_all_red_both_red():
    g = two_vertex_complete()
    red = np.array([True, True])
    for L in (1, 3, 5):
        assert all_red_probability(g, red, L).value == 1


def test_all_red_one_red():
    g = two_vertex_complete()
    assert all_red_probability(g, np.array([True, False]), 5).value == Fraction(1, 32)


def test_all_red_empty():
    g = two_vertex_complete()
    assert all_red_probability(g, np.zeros(2, dtype=bool), 4).value == 0


def test_cycle_remark_instance():
    g, red, L, c, long_prob = remark_counterexample(200)
    assert (L, c) == (10, Fraction(1, 20))
    assert all_red_probability(g, red, L).value == Fraction(11, 200)
    assert long_prob.value == 0
    assert all_red_probability(g, red, 100).value == 0
    v = check_bootstrap(g, red, L, c)
    assert v.hypothesis_met and v.holds


def test_cycle_remark_small():
    _, _, L, _, long_prob = remark_counterexample(40)
    assert L == 2 and long_prob.value == 0


def test_remark_requires_multiple_of_20():
    with pytest.raises(ValueError):
        remark_counterexample(30)


def test_bootstrap_trivial_all_red():
    g = two_vertex_complete()
    v = check_bootstrap(g, np.array([True, True]), 7, Fraction(1))
    assert v.hypothesis_met and v.holds and v.long_probability == 1


def test_bootstrap_hypothesis_unmet():
    g = two_vertex_complete()
    v = check_bootstrap(g, np.array([True, False]), 5, Fraction(1, 2))
    assert not v.hypothesis_met and v.holds is None


def test_bootstrap_default_c_is_the_probability_at_L():
    g = debruijn_graph(3, 4)
    for targets in ([0], [0, 2], [1, 2]):
        red = ultimate_iterate_coloring(3, 4, targets)
        for L in (1, 3, 8, 12):
            explicit = check_bootstrap(g, red, L, all_red_probability(g, red, L).value)
            assert check_bootstrap(g, red, L) == explicit
            assert explicit.threshold == explicit.short_probability ** 2 / 10


def test_monotone_in_length():
    rng = random.Random(2)
    g = random_regular_digraph(12, 3, rng)
    red = random_coloring(12, rng)
    probs = [all_red_probability(g, red, L).value for L in range(1, 12)]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_dp_matches_path_enumeration():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 8)
        d = rng.randint(1, min(3, n))
        g = random_regular_digraph(n, d, rng)
        red = random_coloring(n, rng)
        for L in range(1, 7):
            assert all_red_probability(g, red, L).value == brute_all_red(g, red, L)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dp_matches_path_enumeration_hypothesis(data):
    n = data.draw(st.integers(1, 6), label="n")
    d = data.draw(st.integers(1, n), label="d")
    g = random_regular_digraph(n, d, data.draw(st.randoms(use_true_random=False)))
    red = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="red"))
    L = data.draw(st.integers(1, 7), label="L")
    assert all_red_probability(g, red, L).value == brute_all_red(g, red, L)


@pytest.mark.parametrize("C, k", [(3, 4), (2, 6), (4, 4)])
def test_dp_totals_match_list_dp(C, k):
    # At L = 40 de Bruijn(4,4) leaves int64 on {0,1}, {0,1,2} and {0,1,3}
    # (up to 85 bits), so this checks the widened steps too.
    g = debruijn_graph(C, k)
    proper = [t for r in range(1, C) for t in combinations(range(C), r)]
    for targets in proper:
        red = ultimate_iterate_coloring(C, k, targets)
        expect = red_walk_totals(g, red, 40)
        got = list(islice(_red_walk_totals(g, red), 40))
        assert got == expect and all(type(t) is int for t in got), targets
        assert check_bootstrap(g, red, 20).short_probability == Fraction(
            expect[19], g.n * g.d ** 19)


def test_dp_totals_edge_colorings():
    # No red vertex, every vertex red, and one red vertex with a self-loop
    # (every other vertex, and so every successor slot but its own, is blue).
    g = debruijn_graph(2, 3)
    one = np.arange(g.n) == 0  # word 000 -> 000 is its only red successor
    for red in (np.zeros(g.n, dtype=bool), np.ones(g.n, dtype=bool), one):
        assert list(islice(_red_walk_totals(g, red), 30)) == red_walk_totals(g, red, 30)
    assert red_walk_totals(g, one, 30) == [1] * 30
    loop = RegularDigraph([[0]])
    assert list(islice(_red_walk_totals(loop, np.array([True])), 5)) == [1] * 5


def test_dp_totals_match_list_dp_random():
    # 200 random graphs and colorings; in 59 of them a count passes
    # INT64_MAX // n, so the DP widens, before L = 60.
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 30)
        g = random_regular_digraph(n, rng.randint(1, min(5, n)), rng)
        red = random_coloring(n, rng, rng.choice([0.0, 0.3, 0.7, 1.0]))
        got = list(islice(_red_walk_totals(g, red), 60))
        assert got == red_walk_totals(g, red, 60) and all(type(t) is int for t in got)


def test_dp_widens_past_int64_on_all_red_debruijn():
    # Every count is 2**(L-1): the counts widen to object dtype once one
    # exceeds INT64_MAX // n = 2**57 - 1, at L = 58, and stay exact to L = 70.
    g = debruijn_graph(2, 6)
    got = list(islice(_red_walk_totals(g, np.ones(g.n, dtype=bool)), 70))
    assert got == [g.n * 2 ** (L - 1) for L in range(1, 71)]
    assert all(type(t) is int for t in got)


def test_debruijn_4_8_bootstrap_value():
    # The value the exact-oracles benchmark checks: de Bruijn(4,8), targets {0}, L = 32.
    v = check_bootstrap(debruijn_graph(4, 8), ultimate_iterate_coloring(4, 8, [0]), 32)
    assert v.short_probability == Fraction(24947546154453, 151115727451828646838272)


def test_debruijn_small():
    g = debruijn_graph(2, 1)
    assert g.n == 2 and g.succ.tolist() == [[0, 1], [0, 1]]
    g = debruijn_graph(2, 2)
    assert g.n == 4 and g.d == 2
    assert g.succ.size == 8
    g = debruijn_graph(3, 3)
    assert g.n == 27 and g.d == 3  # degree checks run at construction


def test_debruijn_edges_shift_words():
    C, k = 3, 2
    g = debruijn_graph(C, k)
    for v in range(g.n):
        word = [(v // C) % C, v % C]
        for w in g.succ[v]:
            succ = [(w // C) % C, w % C]
            assert succ[0] == word[1]


def test_debruijn_cap():
    with pytest.raises(ValueError, match="cap"):
        debruijn_graph(2, 21)


@pytest.mark.parametrize("C, k, message", [
    (2, 21, r"de Bruijn graph too large: 2\*\*21 = 2097152 exceeds cap 1048576"),
    (1, 3, "need C >= 2 and k >= 1"),
    (2, 0, "need C >= 2 and k >= 1"),
])
def test_ultimate_coloring_checks_as_the_graph_does(C, k, message):
    with pytest.raises(ValueError, match=message):
        debruijn_graph(C, k)
    with pytest.raises(ValueError, match=message):
        ultimate_iterate_coloring(C, k, [0])


def test_ultimate_coloring_examples():
    red = ultimate_iterate_coloring(2, 2, {0})
    assert red.tolist() == [True, False, False, True]  # words 00 and 11
    red = ultimate_iterate_coloring(3, 2, {0, 2})
    decoded = {(v // 3, v % 3) for v in np.flatnonzero(red)}
    assert decoded == {(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)}
    # enumeration oracle, independent recursion over all 27 triples
    expect = sum(
        1 for t in product(range(3), repeat=3) if ultimate_iterate(list(t)) == 0
    )
    assert int(ultimate_iterate_coloring(3, 3, {0}).sum()) == expect == 11


def test_random_regular_digraphs_validate():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 64)
        d = rng.randint(1, n)
        g = random_regular_digraph(n, d, rng)  # __post_init__ validates degrees
        assert g.n == n and g.d == d
    for n, d in ((3, 4), (3, 0), (0, 0)):
        with pytest.raises(ValueError, match="needs 1 <= d <= n"):
            random_regular_digraph(n, d, rng)


def test_random_regular_digraphs_near_uniform():
    # All 90 2-regular digraphs on 4 vertices (self-loops allowed), each drawn
    # about 33 times in 3,000 draws.  Chi-square has 89 degrees of freedom
    # (mean 89, sd 13.3), so a uniform sampler stays far below 150.
    every = {rows for rows in product(combinations(range(4), 2), repeat=4)
             if all(sum(w in row for row in rows) == 2 for w in range(4))}
    assert len(every) == 90
    rng = random.Random(0)
    counts = dict.fromkeys(every, 0)
    for _ in range(3000):
        counts[tuple(map(tuple, random_regular_digraph(4, 2, rng).succ.tolist()))] += 1
    assert len(counts) == 90
    expected = 3000 / 90
    assert sum((c - expected) ** 2 / expected for c in counts.values()) < 150


def test_walk_instance_round_trip():
    rng = random.Random(123)
    g = random_regular_digraph(9, 2, rng)
    red = random_coloring(9, rng)
    text = format_walk_instance(g, red)
    g2, red2 = parse_walk_instance(text)
    assert np.array_equal(g2.succ, g.succ) and np.array_equal(red2, red)
    assert format_walk_instance(g2, red2) == text


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_walk_instance("")
    with pytest.raises(ValueError):
        parse_walk_instance("2 1\n0\n")  # missing successor line
    with pytest.raises(ValueError):
        parse_walk_instance("2 1\n1\n0\nxr")  # bad coloring char
    with pytest.raises(ValueError, match="out of range"):
        parse_walk_instance("2 1\n1\n2\nrr")


@pytest.mark.parametrize("text, message", [
    ("2\n0\n1\n", "malformed header line '2'"),
    ("a b\n0\n1\n", "malformed header line 'a b'"),
    ("2 2 2\n0 1\n0 1\n", "malformed header line '2 2 2'"),
    ("2 2\n0\n0 1\n", "vertex 0: expected 2 successors, found 1"),
], ids=["one-number", "not-numbers", "three-numbers", "short-successor-line"])
def test_parse_names_the_bad_line(text, message):
    with pytest.raises(ValueError, match=message):
        parse_walk_instance(text)


@pytest.mark.parametrize("value", [Fraction(3, 2), Fraction(-1, 2)])
def test_walk_probability_outside_unit_interval(value):
    with pytest.raises(ValueError, match=re.escape("probability out of [0, 1]")):
        WalkProbability(value)
