"""Random walks on regular digraphs: exact all-red probabilities and bootstrapping.

A graph is one (n, d) array of successors and a coloring is a length-n bool
array, True for red.  A simple random walk starts at a uniform vertex and
follows out-edges chosen uniformly; a walk of length L visits L vertices.  All
probabilities are exact Fractions (numerator = red-only path count, counted in
int64 until a step could overflow, then in Python ints, so exact either way;
denominator = n * d**(L-1)), so thresholds as small as c**2/10 are compared
without rounding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .triangle import batch_ultimate, enumerate_rows

DEBRUIJN_VERTEX_CAP = 1 << 20
INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class RegularDigraph:
    """Directed graph with every in- and out-degree equal to d.

    `succ` is an (n, d) int64 array: row v lists the successors of v.
    Self-loops are allowed, multiple edges are not; both are enforced at
    construction together with the degree conditions.
    """

    succ: np.ndarray

    def __post_init__(self) -> None:
        try:
            succ = np.array(self.succ, dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise ValueError("successors must form an (n, d) array of vertex numbers: "
                             "every vertex needs the same out-degree") from exc
        if succ.ndim != 2 or 0 in succ.shape:
            raise ValueError("successors must form an (n, d) array with n >= 1 and d >= 1")
        n, d = succ.shape
        if succ.min() < 0 or succ.max() >= n:
            bad = np.flatnonzero(((succ < 0) | (succ >= n)).any(axis=1))
            raise ValueError(f"vertex {bad[0]} has a successor out of range")
        if (succ[:, 1:] <= succ[:, :-1]).any():  # a row not strictly increasing may repeat one
            bad = np.flatnonzero((np.diff(np.sort(succ, axis=1)) == 0).any(axis=1))
            if bad.size:
                raise ValueError(f"vertex {bad[0]} has a repeated successor (multi-edge)")
        bad = np.flatnonzero(np.bincount(succ.ravel(), minlength=n) != d)
        if bad.size:
            raise ValueError(f"in-degree != {d} at vertices {bad[:8].tolist()}")
        succ.flags.writeable = False
        object.__setattr__(self, "succ", succ)

    @property
    def n(self) -> int:
        return self.succ.shape[0]

    @property
    def d(self) -> int:
        return self.succ.shape[1]

    @classmethod
    def cycle(cls, n: int) -> "RegularDigraph":
        return cls(((np.arange(n) + 1) % n)[:, None])


@dataclass(frozen=True)
class WalkProbability:
    value: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 1:
            raise ValueError("probability out of [0, 1]")


def _red_walk_totals(g: RegularDigraph, red: np.ndarray) -> Iterator[int]:
    """Numbers of red-only walks of lengths 1, 2, ...

    vec[i] counts the red-only walks of the current length from the i-th red
    vertex: one vertex longer is that vertex, then such a walk from a successor.
    Counts are int64 until one passes INT64_MAX // n, then Python ints (object
    dtype); that keeps a sum of n counts, so (d <= n) each step's d-sum, exact.
    """
    red = np.asarray(red)
    if red.dtype != bool or red.shape != (g.n,):
        raise ValueError(f"coloring must be a bool array of length n = {g.n}")
    r = int(red.sum())
    slot = np.full(g.n, r)  # red vertices become 0..r-1; blue ones share slot r, always 0
    slot[red] = np.arange(r)
    succ_t = slot[g.succ[red].T.copy()]  # (d, r), contiguous: gathers and sums row by row
    limit = INT64_MAX // g.n
    vec = (np.arange(r + 1) < r).astype(np.int64)
    while True:
        if vec.dtype != object and vec.max() > limit:
            vec = vec.astype(object)
        yield int(vec.sum())
        vec[:-1] = vec[succ_t].sum(axis=0)


def _probability(g: RegularDigraph, totals: list[int], L: int) -> WalkProbability:
    return WalkProbability(Fraction(totals[L - 1], g.n * g.d ** (L - 1)))


def all_red_probability(g: RegularDigraph, red: np.ndarray, L: int) -> WalkProbability:
    """Exact probability that a simple random walk of length L stays on red vertices."""
    if L < 1:
        raise ValueError("walk length must be >= 1")
    return _probability(g, list(islice(_red_walk_totals(g, red), L)), L)


@dataclass(frozen=True)
class BootstrapVerdict:
    hypothesis_met: bool
    holds: bool | None  # None when hypothesis unmet
    short_probability: Fraction
    long_probability: Fraction | None
    long_length: int | None
    threshold: Fraction


def check_bootstrap(g: RegularDigraph, red: np.ndarray, L: int,
                    c: Fraction | None = None) -> BootstrapVerdict:
    """All-red probability >= c at length L should give >= c**2/10 at length
    floor((1 + c**2/10) * L); returned as a falsifiable verdict.  With c None,
    c is the all-red probability at L itself, from the same walk DP.
    """
    if L < 1:
        raise ValueError("walk length must be >= 1")
    if c is not None and not 0 <= c <= 1:
        raise ValueError(f"c must lie in [0, 1], not {c}")
    walks = _red_walk_totals(g, red)
    totals = list(islice(walks, L))
    short = _probability(g, totals, L).value
    c = short if c is None else Fraction(c)
    threshold = c * c / 10
    if short < c:
        return BootstrapVerdict(False, None, short, None, None, threshold)
    long_length = int((1 + threshold) * L)  # floor; the factor is >= 1
    totals.extend(islice(walks, long_length - L))
    long = _probability(g, totals, long_length).value
    return BootstrapVerdict(True, long >= threshold, short, long, long_length, threshold)


def remark_counterexample(n: int):
    """The directed n-cycle with the first n/10 vertices red: it meets the
    length-n/20 hypothesis at c = 1/20 yet no walk of length 5L is all red.

    Returns (graph, red mask, L, c, all-red probability at length 5L).
    """
    if n % 20 != 0:
        raise ValueError("n must be divisible by 20")
    g = RegularDigraph.cycle(n)
    red = np.arange(n) < n // 10
    L = n // 20
    c = Fraction(1, 20)
    long_prob = all_red_probability(g, red, 5 * L)
    return g, red, L, c, long_prob


def _debruijn_vertex_count(C: int, k: int) -> int:
    if C < 2 or k < 1:
        raise ValueError("need C >= 2 and k >= 1")
    if C**k > DEBRUIJN_VERTEX_CAP:
        raise ValueError(f"de Bruijn graph too large: {C}**{k} = {C**k} exceeds cap "
                         f"{DEBRUIJN_VERTEX_CAP}")
    return C**k


def debruijn_graph(C: int, k: int) -> RegularDigraph:
    """De Bruijn graph on length-k words over {0,...,C-1}: each word shifts left
    and appends any symbol, giving degree C.

    Vertex v encodes its word in base C, most significant symbol first.
    """
    n = _debruijn_vertex_count(C, k)
    return RegularDigraph(np.tile(np.arange(n), C).reshape(n, C))  # v -> (v*C + j) mod n


def ultimate_iterate_coloring(C: int, k: int, targets: Iterable[int]) -> np.ndarray:
    """Color red the words whose ultimate iterate lies in `targets`, enumerating
    all C**k words in the same vertex order as debruijn_graph."""
    _debruijn_vertex_count(C, k)
    return np.isin(batch_ultimate(enumerate_rows(C, k)), list(targets))


def random_regular_digraph(n: int, d: int, rng: random.Random) -> RegularDigraph:
    """Seeded random d-regular digraph: 10*n*d attempted switches from the
    circulant v -> v, ..., v+d-1 (mod n).  A switch rewires two edges v1 -> w1
    and v2 -> w2 to v1 -> w2 and v2 -> w1 unless that repeats an edge; it keeps
    every degree.  Switches connect all 0/1 matrices with the same row and column
    sums (Ryser 1957) and the chain is symmetric, so its law tends to uniform.
    """
    if not 1 <= d <= n:
        raise ValueError(f"a {d}-regular digraph on {n} vertices needs 1 <= d <= n")
    m = n * d
    head = [(v + r) % n for v in range(n) for r in range(d)]  # edge e runs e // d -> head[e]
    succ = [set(head[v * d:v * d + d]) for v in range(n)]
    for _ in range(10 * m):
        e1, e2 = rng.randrange(m), rng.randrange(m)
        v1, w1, v2, w2 = e1 // d, head[e1], e2 // d, head[e2]
        # Also rejects the degenerate draws: v1 == v2 or w1 == w2 repeats an edge.
        if w2 not in succ[v1] and w1 not in succ[v2]:
            head[e1], head[e2] = w2, w1
            succ[v1] ^= {w1, w2}  # w1 out, w2 in
            succ[v2] ^= {w1, w2}  # w2 out, w1 in
    return RegularDigraph([sorted(s) for s in succ])


def random_coloring(n: int, rng: random.Random, red_fraction: float = 0.5) -> np.ndarray:
    return np.array([rng.random() < red_fraction for _ in range(n)], dtype=bool)


def parse_walk_instance(text: str) -> tuple[RegularDigraph, np.ndarray | None]:
    """Parse the text format: line 1 "n d", then n successor lines, then an
    optional line of n characters 'r'/'b'."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph description")
    try:
        n, d = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise ValueError(f"malformed header line {lines[0]!r}") from exc
    if len(lines) < 1 + n:
        raise ValueError(f"expected {n} successor lines, found {len(lines) - 1}")
    out = []
    for v in range(n):
        toks = lines[1 + v].split()
        if len(toks) != d:
            raise ValueError(f"vertex {v}: expected {d} successors, found {len(toks)}")
        try:
            out.append([int(t) for t in toks])
        except ValueError:
            raise ValueError(f"vertex {v}: successors must be integers, "
                             f"found {lines[1 + v]!r}") from None
    g = RegularDigraph(out)
    red = None
    if len(lines) > 1 + n:
        flags = lines[1 + n]
        if len(flags) != n or set(flags) - {"r", "b"}:
            raise ValueError("coloring line must be n characters of 'r'/'b'")
        red = np.array([ch == "r" for ch in flags], dtype=bool)
    return g, red


def format_walk_instance(g: RegularDigraph, red: np.ndarray | None = None) -> str:
    lines = [f"{g.n} {g.d}"]
    lines.extend(" ".join(map(str, succs)) for succs in g.succ.tolist())
    if red is not None:
        lines.append("".join("r" if flag else "b" for flag in red))
    return "\n".join(lines) + "\n"
