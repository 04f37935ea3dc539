"""Preimage enumeration and upward lifting toward exotic initial sequences.

A row r' of length n+1 is a preimage of r when one differencing step maps r'
to r, that is r[j] = |r'[j] - r'[j+1]| for every j.  Fixing the
first entry forces each next one up to a sign, so preimages are enumerated by
DFS over the two candidates a_{j+1} = a_j +- r[j].  Lifting a {0,d}-valued
seed row upward within an alphabet cap searches for initial sequences whose
triangle falls back into the difference-closed set {0,d} -- the obstruction
that keeps the max from decaying.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .triangle import Row, all_in_zero_d, iterate_until, validate_row


def preimages(row: Sequence[int], cap: int) -> Iterator[Row]:
    """All rows r' with entries in [0, cap] whose differencing step is `row`.

    Deterministic order: first entry ascending, then the +difference branch
    before the -difference branch at each position.  The DFS keeps an
    explicit stack, so long rows need no recursion.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    target = validate_row(row)

    def candidates(base: int, d: int) -> Iterator[int]:
        return iter([v for v in ((base + d,) if d == 0 else (base + d, base - d))
                     if 0 <= v <= cap])

    for start in range(cap + 1):
        # stack[j] yields the choices for prefix[j + 1], given prefix[j].
        prefix = [start]
        stack = [candidates(start, target[0])]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                prefix.pop()
            elif len(prefix) == len(target):
                yield prefix + [nxt]
            else:
                prefix.append(nxt)
                stack.append(candidates(nxt, target[len(prefix) - 1]))


@dataclass(frozen=True)
class ExoticCertificate:
    """An initial row whose triangle reaches a row valued only in {0, d}."""

    d: int
    initial: tuple[int, ...]
    depth_checked: int
    first_pure_row: int

    @classmethod
    def from_record(cls, text: str) -> "ExoticCertificate":
        """Read the certificate in the JSONL `exotic_search` record that
        `gilbreath exotic --out` writes; ValueError on text that is not JSON,
        a record of another kind or one that found no row, a missing field,
        or a non-integer or negative entry."""
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"certificate is not valid JSON: {exc}") from None
        if not isinstance(record, dict) or record.get("kind") != "exotic_search":
            raise ValueError("certificate must be an exotic_search record")
        obj = record.get("result")
        if not isinstance(obj, dict) or obj.get("found") is not True:
            raise ValueError("exotic_search record holds no certificate (result.found is not true)")
        fields = ("d", "initial", "depth_checked", "first_pure_row")
        if any(k not in obj for k in fields):
            raise ValueError(f"certificate must be a JSON object with {', '.join(fields)}")
        d, initial, depth_checked, first_pure_row = (obj[k] for k in fields)
        scalars = [d, depth_checked, first_pure_row]
        if not isinstance(initial, list) or any(type(v) is not int for v in initial + scalars):
            raise ValueError("certificate entries must be integers")
        if min(scalars) < 0:
            raise ValueError("certificate entries must be non-negative")
        return cls(d, tuple(validate_row(initial)), depth_checked, first_pure_row)


def _first_pure_row(initial: Sequence[int], d: int) -> int | None:
    """Depth of the first {0,d}-only row of the triangle under `initial`.

    None when no row is {0,d}-only, or when a later row leaves {0,d} again,
    which would contradict |a-b| in {0,d} for a,b in {0,d}.
    """
    pure = all_in_zero_d(d)
    first = iterate_until(initial, pure)
    if first.reason != "stop":
        return None
    rest = iterate_until(first.row, lambda row: not pure(row))
    return None if rest.reason == "stop" else first.iterations


def verify_certificate(cert: ExoticCertificate) -> bool:
    """Iterate the certificate's initial row all the way down and re-check that
    some row is {0,d}-only and every later row stays {0,d}-only."""
    return (len(cert.initial) - 1 >= cert.depth_checked
            and _first_pure_row(cert.initial, cert.d) == cert.first_pure_row)


def lift_search(
    seed_row: Sequence[int],
    cap: int,
    width: int,
    budget: int,
    rng: random.Random,
) -> ExoticCertificate | None:
    """DFS upward from a {0,d}-valued seed row, one preimage level at a time
    with entries in [0, cap], until the row reaches `width` or `budget` nodes
    have been expanded.

    Child order is shuffled by `rng`; results are deterministic for a fixed
    seed.  The DFS keeps one explicit stack of pending rows, so deep lifts
    need no recursion.  Returns None when the budget is exhausted.
    """
    if min(cap, width) < 1:
        raise ValueError("cap and width must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    seed = validate_row(seed_row)
    d = max(seed)
    if any(v not in (0, d) for v in seed):
        raise ValueError("seed row must be {0,d}-valued")

    nodes = 0
    stack = [seed]
    # The first row that reaches `width` ends the search; every other row
    # is expanded while the budget lasts, its children pushed so that the
    # first shuffled child is popped next.
    while stack:
        top = stack.pop()
        if len(top) >= width:
            break
        if nodes < budget:
            nodes += 1
            level = list(preimages(top, cap))
            rng.shuffle(level)
            stack.extend(reversed(level))
    else:
        return None
    # Re-derive the pure depth by explicit iteration rather than trusting the
    # construction; the same scan checks the closure below it.
    first_pure = _first_pure_row(top, d)
    if first_pure is None or first_pure > len(top) - len(seed):
        return None
    return ExoticCertificate(d, tuple(top), len(top) - 1, first_pure)
