"""Random walks on regular digraphs: exact all-red probabilities and bootstrapping.

A simple random walk starts at a uniform vertex and follows out-edges chosen
uniformly; a walk of length L visits L vertices.  All probabilities are exact
Fractions (numerator = red-only path count, denominator = n * d**(L-1)), so
thresholds as small as c**2/10 are compared without rounding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .triangle import batch_ultimate, enumerate_rows

DEBRUIJN_VERTEX_CAP = 1 << 20


@dataclass(frozen=True)
class RegularDigraph:
    """Directed graph with every in- and out-degree equal to d.

    Self-loops are allowed, multiple edges are not; both are enforced at
    construction together with the degree conditions.
    """

    n: int
    d: int
    out_edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if len(self.out_edges) != self.n:
            raise ValueError("out_edges must list successors for every vertex")
        indeg = [0] * self.n
        for v, succs in enumerate(self.out_edges):
            if len(succs) != self.d:
                raise ValueError(f"vertex {v} has out-degree {len(succs)}, expected {self.d}")
            if len(set(succs)) != self.d:
                raise ValueError(f"vertex {v} has a repeated successor (multi-edge)")
            for w in succs:
                if not 0 <= w < self.n:
                    raise ValueError(f"vertex {v} has successor {w} out of range")
                indeg[w] += 1
        bad = [v for v, k in enumerate(indeg) if k != self.d]
        if bad:
            raise ValueError(f"in-degree != {self.d} at vertices {bad[:8]}")

    @classmethod
    def cycle(cls, n: int) -> "RegularDigraph":
        return cls(n, 1, tuple(((v + 1) % n,) for v in range(n)))


@dataclass(frozen=True)
class Coloring:
    """Red/blue vertex labels; anything not red is blue."""

    n: int
    red: frozenset[int]

    def __post_init__(self) -> None:
        if any(not 0 <= v < self.n for v in self.red):
            raise ValueError("red vertex out of range")


@dataclass(frozen=True)
class WalkProbability:
    value: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 1:
            raise ValueError("probability out of [0, 1]")


class _RedWalkCounter:
    """Incremental count of red-only walks, one vector push per extra step."""

    def __init__(self, g: RegularDigraph, col: Coloring):
        self.g = g
        self.red = [v in col.red for v in range(g.n)]
        self.vec = [1 if self.red[v] else 0 for v in range(g.n)]
        self.totals = [sum(self.vec)]  # totals[k] = red-only walks of length k+1

    def total(self, L: int) -> int:
        if L < 1:
            raise ValueError("walk length must be >= 1")
        while len(self.totals) < L:
            vec = self.vec
            new = [0] * self.g.n
            for u, c in enumerate(vec):
                if c:
                    for w in self.g.out_edges[u]:
                        if self.red[w]:
                            new[w] += c
            self.vec = new
            self.totals.append(sum(new))
        return self.totals[L - 1]

    def probability(self, L: int) -> WalkProbability:
        return WalkProbability(Fraction(self.total(L), self.g.n * self.g.d ** (L - 1)))


def all_red_probability(g: RegularDigraph, col: Coloring, L: int) -> WalkProbability:
    """Exact probability that a simple random walk of length L stays on red vertices."""
    return _RedWalkCounter(g, col).probability(L)


@dataclass(frozen=True)
class BootstrapVerdict:
    hypothesis_met: bool
    holds: bool | None  # None when hypothesis unmet
    short_probability: Fraction
    long_probability: Fraction | None
    long_length: int | None
    threshold: Fraction


def check_bootstrap(g: RegularDigraph, col: Coloring, L: int,
                    c: Fraction | None = None) -> BootstrapVerdict:
    """All-red probability >= c at length L should give >= c**2/10 at length
    floor((1 + c**2/10) * L); returned as a falsifiable verdict.  With c None,
    c is the all-red probability at L itself, from the same walk DP.
    """
    counter = _RedWalkCounter(g, col)
    short = counter.probability(L).value
    c = short if c is None else Fraction(c)
    threshold = c * c / 10
    if short < c:
        return BootstrapVerdict(False, None, short, None, None, threshold)
    long_length = int((1 + threshold) * L)  # floor; the factor is >= 1
    long = counter.probability(long_length).value
    return BootstrapVerdict(True, long >= threshold, short, long, long_length, threshold)


def remark_counterexample(n: int):
    """The directed n-cycle with the first n/10 vertices red: it meets the
    length-n/20 hypothesis at c = 1/20 yet no walk of length 5L is all red.

    Returns (graph, coloring, L, c, all-red probability at length 5L).
    """
    if n % 20 != 0:
        raise ValueError("n must be divisible by 20")
    g = RegularDigraph.cycle(n)
    col = Coloring(n, frozenset(range(n // 10)))
    L = n // 20
    c = Fraction(1, 20)
    long_prob = all_red_probability(g, col, 5 * L)
    return g, col, L, c, long_prob


def debruijn_graph(C: int, k: int, cap: int = DEBRUIJN_VERTEX_CAP) -> RegularDigraph:
    """De Bruijn graph on length-k words over {0,...,C-1}: each word shifts left
    and appends any symbol, giving degree C.

    Vertex v encodes its word in base C, most significant symbol first.
    """
    if C < 2 or k < 1:
        raise ValueError("need C >= 2 and k >= 1")
    n = C**k
    if n > cap:
        raise ValueError(f"de Bruijn graph too large: {C}**{k} = {n} exceeds cap {cap}")
    tail = C ** (k - 1)
    out = tuple(tuple((v % tail) * C + y for y in range(C)) for v in range(n))
    return RegularDigraph(n, C, out)


def ultimate_iterate_coloring(
    C: int, k: int, targets: Iterable[int], cap: int = DEBRUIJN_VERTEX_CAP
) -> Coloring:
    """Color red the words whose ultimate iterate lies in `targets`, enumerating
    all C**k words in the same vertex order as debruijn_graph."""
    if C < 2 or k < 1:
        raise ValueError("need C >= 2 and k >= 1")
    n = C**k
    if n > cap:
        raise ValueError(f"coloring too large: {C}**{k} = {n} exceeds cap {cap}")
    target_set = set(targets)
    values = batch_ultimate(enumerate_rows(C, k))
    red = frozenset(int(v) for v in range(n) if int(values[v]) in target_set)
    return Coloring(n, red)


def random_regular_digraph(n: int, d: int, rng: random.Random) -> RegularDigraph:
    """Seeded random d-regular digraph as a union of d conflict-free random
    permutations (each permutation contributes out-slot r -> in-slot r)."""
    if d > n:
        raise ValueError("d distinct successors need d <= n")
    for _ in range(1000):
        succs: list[set[int]] = [set() for _ in range(n)]
        ok = True
        for _round in range(d):
            placed = None
            for _try in range(200):
                perm = list(range(n))
                rng.shuffle(perm)
                if all(perm[v] not in succs[v] for v in range(n)):
                    placed = perm
                    break
            if placed is None:
                ok = False
                break
            for v in range(n):
                succs[v].add(placed[v])
        if ok:
            return RegularDigraph(n, d, tuple(tuple(sorted(s)) for s in succs))
    raise RuntimeError(f"could not sample a {d}-regular digraph on {n} vertices")


def random_coloring(n: int, rng: random.Random, red_fraction: float = 0.5) -> Coloring:
    return Coloring(n, frozenset(v for v in range(n) if rng.random() < red_fraction))


def parse_walk_instance(text: str) -> tuple[RegularDigraph, Coloring | None]:
    """Parse the text format: line 1 "n d", then n successor lines, then an
    optional line of n characters 'r'/'b'."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph description")
    try:
        n, d = (int(tok) for tok in lines[0].split())
    except Exception as exc:
        raise ValueError(f"malformed header line {lines[0]!r}") from exc
    if len(lines) < 1 + n:
        raise ValueError(f"expected {n} successor lines, found {len(lines) - 1}")
    out = []
    for v in range(n):
        toks = lines[1 + v].split()
        if len(toks) != d:
            raise ValueError(f"vertex {v}: expected {d} successors, found {len(toks)}")
        out.append(tuple(int(t) for t in toks))
    g = RegularDigraph(n, d, tuple(out))
    col = None
    if len(lines) > 1 + n:
        flags = lines[1 + n]
        if len(flags) != n or set(flags) - {"r", "b"}:
            raise ValueError("coloring line must be n characters of 'r'/'b'")
        col = Coloring(n, frozenset(v for v, ch in enumerate(flags) if ch == "r"))
    return g, col


def format_walk_instance(g: RegularDigraph, col: Coloring | None = None) -> str:
    lines = [f"{g.n} {g.d}"]
    lines.extend(" ".join(str(w) for w in succs) for succs in g.out_edges)
    if col is not None:
        lines.append("".join("r" if v in col.red else "b" for v in range(g.n)))
    return "\n".join(lines) + "\n"
