import random
from fractions import Fraction
from itertools import product

import pytest

from gilbreath.triangle import ultimate_iterate
from gilbreath.walks import (
    Coloring,
    RegularDigraph,
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


def two_vertex_complete():
    return RegularDigraph(2, 2, ((0, 1), (0, 1)))


def brute_all_red(g, col, L):
    # Exhaustive walk enumeration.
    count = 0
    for start in range(g.n):
        stack = [(start, 1)] if start in col.red else []
        while stack:
            v, length = stack.pop()
            if length == L:
                count += 1
                continue
            for w in g.out_edges[v]:
                if w in col.red:
                    stack.append((w, length + 1))
    return Fraction(count, g.n * g.d ** (L - 1))


def test_regularity_validation():
    with pytest.raises(ValueError, match="out-degree"):
        RegularDigraph(2, 2, ((0,), (0, 1)))
    with pytest.raises(ValueError, match="multi-edge"):
        RegularDigraph(2, 2, ((0, 0), (0, 1)))
    with pytest.raises(ValueError, match="in-degree"):
        RegularDigraph(3, 1, ((1,), (0,), (0,)))


def test_all_red_both_red():
    g = two_vertex_complete()
    col = Coloring(2, frozenset({0, 1}))
    for L in (1, 3, 5):
        assert all_red_probability(g, col, L).value == 1


def test_all_red_one_red():
    g = two_vertex_complete()
    col = Coloring(2, frozenset({0}))
    assert all_red_probability(g, col, 5).value == Fraction(1, 32)


def test_all_red_empty():
    g = two_vertex_complete()
    col = Coloring(2, frozenset())
    assert all_red_probability(g, col, 4).value == 0


def test_cycle_remark_instance():
    g, col, L, c, long_prob = remark_counterexample(200)
    assert (L, c) == (10, Fraction(1, 20))
    assert all_red_probability(g, col, L).value == Fraction(11, 200)
    assert long_prob.value == 0
    assert all_red_probability(g, col, 100).value == 0
    v = check_bootstrap(g, col, L, c)
    assert v.hypothesis_met and v.holds


def test_cycle_remark_small():
    _, _, L, _, long_prob = remark_counterexample(40)
    assert L == 2 and long_prob.value == 0


def test_remark_requires_multiple_of_20():
    with pytest.raises(ValueError):
        remark_counterexample(30)


def test_bootstrap_trivial_all_red():
    g = two_vertex_complete()
    col = Coloring(2, frozenset({0, 1}))
    v = check_bootstrap(g, col, 7, Fraction(1))
    assert v.hypothesis_met and v.holds and v.long_probability == 1


def test_bootstrap_hypothesis_unmet():
    g = two_vertex_complete()
    col = Coloring(2, frozenset({0}))
    v = check_bootstrap(g, col, 5, Fraction(1, 2))
    assert not v.hypothesis_met and v.holds is None


def test_bootstrap_default_c_is_the_probability_at_L():
    g = debruijn_graph(3, 4)
    for targets in ([0], [0, 2], [1, 2]):
        col = ultimate_iterate_coloring(3, 4, targets)
        for L in (1, 3, 8, 12):
            explicit = check_bootstrap(g, col, L, all_red_probability(g, col, L).value)
            assert check_bootstrap(g, col, L) == explicit
            assert explicit.threshold == explicit.short_probability ** 2 / 10


def test_monotone_in_length():
    rng = random.Random(2)
    g = random_regular_digraph(12, 3, rng)
    col = random_coloring(12, rng)
    probs = [all_red_probability(g, col, L).value for L in range(1, 12)]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_dp_matches_path_enumeration():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 8)
        d = rng.randint(1, min(3, n))
        g = random_regular_digraph(n, d, rng)
        col = random_coloring(n, rng)
        for L in range(1, 7):
            assert all_red_probability(g, col, L).value == brute_all_red(g, col, L)


def test_debruijn_small():
    g = debruijn_graph(2, 1)
    assert g.n == 2 and g.out_edges == ((0, 1), (0, 1))
    g = debruijn_graph(2, 2)
    assert g.n == 4 and g.d == 2
    assert sum(len(s) for s in g.out_edges) == 8
    g = debruijn_graph(3, 3)
    assert g.n == 27 and g.d == 3  # degree checks run at construction


def test_debruijn_edges_shift_words():
    C, k = 3, 2
    g = debruijn_graph(C, k)
    for v in range(g.n):
        word = [(v // C) % C, v % C]
        for w in g.out_edges[v]:
            succ = [(w // C) % C, w % C]
            assert succ[0] == word[1]


def test_debruijn_cap():
    with pytest.raises(ValueError, match="cap"):
        debruijn_graph(2, 3, cap=4)


def test_ultimate_coloring_examples():
    col = ultimate_iterate_coloring(2, 2, {0})
    assert col.red == {0b00, 0b11}
    col = ultimate_iterate_coloring(3, 2, {0, 2})
    decoded = {(v // 3, v % 3) for v in col.red}
    assert decoded == {(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)}
    # enumeration oracle, independent recursion over all 27 triples
    expect = sum(
        1 for t in product(range(3), repeat=3) if ultimate_iterate(list(t)) == 0
    )
    assert len(ultimate_iterate_coloring(3, 3, {0}).red) == expect == 11


def test_random_regular_digraphs_validate():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 64)
        d = rng.randint(1, min(4, n))
        g = random_regular_digraph(n, d, rng)  # __post_init__ validates degrees
        assert g.n == n and g.d == d


def test_walk_instance_round_trip():
    rng = random.Random(123)
    g = random_regular_digraph(9, 2, rng)
    col = random_coloring(9, rng)
    text = format_walk_instance(g, col)
    g2, col2 = parse_walk_instance(text)
    assert g2 == g and col2 == col


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_walk_instance("")
    with pytest.raises(ValueError):
        parse_walk_instance("2 1\n0\n")  # missing successor line
    with pytest.raises(ValueError):
        parse_walk_instance("2 1\n1\n0\nxr")  # bad coloring char
