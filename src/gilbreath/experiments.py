"""Seeded Monte Carlo harness for collapse, leading-term, and ultimate-zero runs.

Trials come in fixed blocks of `per = max(1, STREAM_CELLS // M)`: block b holds
the trials with index // per == b, and draws all its rows, a (per, M) array, in
one sampler call on the stream SeedSequence((master_seed, b)).  A block is always
drawn whole, so trial i's row is row i % per of that draw whatever the offset
and trial count of the run, and the serialized records carry no
non-deterministic fields.  `_blocks` is the one place streams are built and rows
drawn.  Aggregates use Wilson 95% intervals, which stay sane at proportions near
0 and 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterator

import numpy as np

from . import triangle
from .triangle import (
    Finding,
    all_le_one,
    batch_ultimate,
    enumerate_rows,
    iterate_until,
    stabilization_predicate,
    step_array,
)

# The options each kind reads besides M, trials, seed and trial_offset; the first is required.
KINDS = {"uniform_collapse": ("C", "T", "weights"), "increasing_alphabet": ("schedule", "T"),
         "gap_leading_term": ("schedule",), "ultimate_zero": ("C",)}

EXHAUSTIVE_CAP = 3**12

# Cells of one stream block's (trials, M) draw; bounds a run's memory whatever
# its trial count.  At M >= STREAM_CELLS every trial has a stream of its own.
STREAM_CELLS = 2**16


@dataclass(frozen=True)
class Schedule:
    """Non-decreasing alphabet schedule f(n) >= 2, piecewise constant.

    `points` are (start_n, value) pairs: f(n) is the value of the last point
    with start_n <= n.  The first point must start at n = 1.
    """

    points: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.points or self.points[0][0] != 1:
            raise ValueError("schedule must define f from n = 1")
        starts = [s for s, _ in self.points]
        values = [v for _, v in self.points]
        if starts != sorted(set(starts)):
            raise ValueError("schedule breakpoints must be strictly increasing")
        if values != sorted(values):
            raise ValueError("schedule must be non-decreasing")
        if values[0] < 2:
            raise ValueError("schedule values must be >= 2")

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        spec = text if ":" in text else f"1:{text}"  # a constant k is the one point 1:k
        try:
            pts = tuple((int(start), int(value))
                        for start, value in (part.split(":") for part in spec.split(",")))
        except ValueError:
            raise ValueError(f"schedule {text!r}: expected 'k' or '1:k1,n2:k2,...'") from None
        return cls(pts)

    def describe(self) -> str:
        if len(self.points) == 1:
            return str(self.points[0][1])
        return ",".join(f"{s}:{v}" for s, v in self.points)

    def values(self, ns: np.ndarray) -> np.ndarray:
        starts = np.array([s for s, _ in self.points])
        vals = np.array([v for _, v in self.points], dtype=np.int64)
        idx = np.searchsorted(starts, ns, side="right") - 1
        if (idx < 0).any():
            raise ValueError("schedule queried below n = 1")
        return vals[idx]


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    M: int
    trials: int
    seed: int
    C: int | None = None
    schedule: Schedule | None = None
    T: int | None = None
    weights: tuple[float, ...] | None = None
    trial_offset: int = 0

    def __post_init__(self) -> None:
        if (reads := KINDS.get(self.kind)) is None:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.M < 1:
            raise ValueError("M (the depth, for ultimate-zero) must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.trial_offset < 0:
            raise ValueError("trial_offset must be >= 0")
        if unread := [name for name in ("C", "schedule", "T", "weights")
                      if name not in reads and getattr(self, name) is not None]:
            raise ValueError(f"{self.kind} does not read {', '.join(unread)}")
        if getattr(self, reads[0]) is None:
            raise ValueError(f"{self.kind} needs {reads[0]}")
        if self.C is not None and self.C < 2:
            raise ValueError("alphabet size C >= 2 required")
        if self.T is not None and self.T < 0:
            raise ValueError("iteration budget must be >= 0")
        if self.weights is not None:
            if len(self.weights) != self.C:
                raise ValueError("weights must give one entry per symbol")
            if any(w <= 0 for w in self.weights):
                raise ValueError("weights must be positive")
            if abs(sum(self.weights) - 1.0) > 1e-9:
                raise ValueError("weights must sum to 1")

    @property
    def trials_per_stream(self) -> int:
        return max(1, STREAM_CELLS // self.M)

    @property
    def streams(self) -> range:
        """The stream blocks that the run's trials fall in."""
        per = self.trials_per_stream
        return range(self.trial_offset // per, (self.trial_offset + self.trials - 1) // per + 1)

    @property
    def budget(self) -> int:
        # Default budget is the full triangle.
        return self.T if self.T is not None else self.M - 1

    def params(self) -> dict:
        return {
            "kind": self.kind,
            "M": self.M,
            "trials": self.trials,
            "C": self.C,
            "schedule": self.schedule.describe() if self.schedule else None,
            "T": self.budget,
            "weights": list(self.weights) if self.weights else None,
            "trial_offset": self.trial_offset,
            "trials_per_stream": self.trials_per_stream,
        }


def derive_trial_stream(master_seed: int, block: int) -> np.random.Generator:
    """Reproducible, statistically independent stream of one block of trials,
    SeedSequence((master_seed, block)); at trials_per_stream = 1 the block is the
    trial index.  The name predates blocks; `benchmarks/micro.py` imports it."""
    if master_seed < 0 or block < 0:
        raise ValueError("seed and block must be non-negative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, block))))


def derived_seed(master_seed: int, block: int) -> int:
    """64-bit fingerprint of a block's stream.  No record carries it (the trial
    index and trials_per_stream name the stream); it is kept because
    `benchmarks/micro.py` times it."""
    ss = np.random.SeedSequence((master_seed, block))
    return int(ss.generate_state(1, np.uint64)[0])


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one observation")
    z = 1.96
    phat = successes / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    # At the boundaries the bound is exactly 0 or 1; don't let rounding pull
    # the interval off the observed proportion.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high


def sample_uniform(n: int, M: int, C: int, stream: np.random.Generator) -> np.ndarray:
    """n rows of M i.i.d. uniform draws from {0,...,C-1}, an (n, M) array."""
    if C < 2:
        raise ValueError("alphabet size must be >= 2")
    if M < 1:
        raise ValueError("M must be >= 1")
    return stream.integers(0, C, size=(n, M), dtype=np.int64)


def sample_schedule(n: int, M: int, schedule: Schedule, stream: np.random.Generator) -> np.ndarray:
    """n rows of b_m ~ uniform on {0,...,f(m)-1} for m = 1..M, with f the schedule."""
    highs = schedule.values(np.arange(1, M + 1))
    return stream.integers(0, highs, size=(n, M), dtype=np.int64)


def sample_gaps(n: int, M: int, schedule: Schedule, stream: np.random.Generator) -> np.ndarray:
    """n rows (1, 2*u_2, ..., 2*u_M) with u_k uniform on {0,...,f(k)-1}, an (n, M)
    array: row 1 of the triangle of a_1 = 2, a_2 = 3, a_{k+1} = a_k + 2*u_k."""
    if M < 1:
        raise ValueError("M must be >= 1")
    out = np.empty((n, M), dtype=np.int64)
    out[:, 0] = 1
    if M > 1:
        highs = schedule.values(np.arange(2, M + 1))
        out[:, 1:] = stream.integers(0, highs, size=(n, M - 1), dtype=np.int64)
        out[:, 1:] *= 2
    return out


def _blocks(cfg: ExperimentConfig) -> Iterator[tuple[range, np.ndarray]]:
    """Yield (indices, rows) per stream block of `cfg`, in index order: the one place a
    block's stream is built and its rows drawn, whole, in one call of the kind's sampler
    (M entries a row, the depth for ultimate-zero).  `rows` holds only the trials the run
    asks for; the rest of the block is dropped."""
    per = cfg.trials_per_stream
    for block in cfg.streams:
        rng = derive_trial_stream(cfg.seed, block)
        if cfg.kind == "gap_leading_term":
            rows = sample_gaps(per, cfg.M, cfg.schedule, rng)
        elif cfg.schedule is not None:
            rows = sample_schedule(per, cfg.M, cfg.schedule, rng)
        elif cfg.weights:
            rows = rng.choice(cfg.C, size=(per, cfg.M), p=cfg.weights)
        else:
            rows = sample_uniform(per, cfg.M, cfg.C, rng)
        first = block * per
        used = range(max(first, cfg.trial_offset), min(first + per, cfg.trial_offset + cfg.trials))
        yield used, rows[used.start - first:used.stop - first]
        del rows  # before the next block is drawn


def _trials(cfg: ExperimentConfig) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (index, row) per trial of `cfg`, in index order, from `_blocks`."""
    for indices, rows in _blocks(cfg):
        for index, row in zip(indices, rows):
            yield index, row
        del row, rows  # both hold the block; free it before the next one is drawn


def _proportion(successes: int, n: int, prefix: str = "", estimate: str = "estimate") -> dict:
    """An aggregate's estimate of a proportion and its Wilson 95% bounds."""
    low, high = wilson_interval(successes, n)
    return {prefix + estimate: successes / n, prefix + "ci_low": low, prefix + "ci_high": high}


def run_experiment(cfg: ExperimentConfig) -> Iterator[dict]:
    """Yield the result dict of each trial of `cfg`, in index order, as soon as
    the trial is done, then the aggregate dict.  Across trials only counts and
    the ints the medians need are kept, so memory does not grow with the records."""
    if cfg.kind == "gap_leading_term":
        return _leading_term_results(cfg)
    if cfg.kind == "ultimate_zero":
        return _ultimate_zero_results(cfg)
    return _collapse_results(cfg)


def _collapse_results(cfg: ExperimentConfig) -> Iterator[dict]:
    """Per trial: sample a row, difference until everything is 0 or 1 or the
    budget runs out; aggregate the collapsed fraction and median collapse time."""
    collapsed: list[int] = []
    for index, row in _trials(cfg):
        res = iterate_until(row, all_le_one, cfg.budget)
        result = {"record": "trial", "trial_index": index}
        if res.reason == "stop":
            result["collapse_iteration"] = res.iterations
            collapsed.append(res.iterations)
        # Free the last row, then the sampled one, before the next trial
        # samples: holding them costs about a third more page faults per trial.
        del res, row
        yield result
    yield {
        "record": "aggregate",
        "trials": cfg.trials,
        "collapsed": len(collapsed),
        **_proportion(len(collapsed), cfg.trials),
        "median_collapse": float(np.median(collapsed)) if collapsed else None,
        "budget": cfg.budget,
    }


def _leading_term_results(cfg: ExperimentConfig) -> Iterator[dict]:
    """Per trial: stream the triangle of a random gap sequence, tracking the
    first entry of every row, and report the least M_0 from which it is all 1s."""
    finite: list[int] = []
    for index, row in _trials(cfg):
        # Rows 1..M of the triangle; a length-1 row is stable iff it is [1].  The
        # stop rule is looked up in `triangle` and the closure check below in this
        # module, so that either can be replaced alone.
        res = iterate_until(row, triangle.stabilization_predicate, cfg.M - 1)
        m0 = None
        if res.reason == "stop":
            # Spot-check the closure that justifies stopping early.
            if res.row.size > 1 and not stabilization_predicate(step_array(res.row)):
                raise Finding("0/2-tail stability violated",
                              {"seed": cfg.seed, "trial_index": index, "row": len(res.firsts) + 1})
            m0 = 1 + max((i for i, v in enumerate(res.firsts, start=1) if v != 1), default=0)
            finite.append(m0)
        # Every row past the stable one starts with 1; the trace is run-length encoded.
        leading = res.firsts + [1] * (cfg.M - len(res.firsts))
        result = {"record": "trial", "trial_index": index, "m0": m0,
                  "leading_term_trace": [[v, len(list(run))] for v, run in groupby(leading)]}
        del res, row, leading  # before the next trial samples, as in `_collapse_results`
        yield result
    half = sum(1 for m in finite if m <= cfg.M / 2)
    yield {
        "record": "aggregate",
        "trials": cfg.trials,
        "finite_m0": len(finite),
        **_proportion(len(finite), cfg.trials),
        "m0_half_count": half,
        **_proportion(half, cfg.trials, "m0_half_", "fraction"),
        "median_m0": float(np.median(finite)) if finite else None,
        "schedule": cfg.schedule.describe(),
        "schedule_note": "desk-scale schedules skip the asymptotic cap "
        "f(M) <= loglog(M)/(100 * logloglog(M)), which forces f = 2 at any reachable M",
    }


def exhaustive_ultimate_zero(C: int, depth: int) -> Fraction:
    """Exact Pr(ultimate iterate = 0) for i.i.d. uniform rows of length `depth`,
    by full enumeration of all C**depth rows."""
    if C**depth > EXHAUSTIVE_CAP:
        raise ValueError(f"enumeration of {C}**{depth} rows exceeds cap {EXHAUSTIVE_CAP}")
    values = batch_ultimate(enumerate_rows(C, depth))
    return Fraction(int((values == 0).sum()), C**depth)


def _ultimate_zero_results(cfg: ExperimentConfig) -> Iterator[dict]:
    """Monte Carlo Pr(ultimate iterate = 0) for uniform rows of length M, with the
    uniform-bound reference 1/(200*C**2); the exhaustive value is attached
    whenever C**M is small.  One `batch_ultimate` call per stream block."""
    C, depth = cfg.C, cfg.M
    zeros = 0
    for indices, rows in _blocks(cfg):
        values = batch_ultimate(rows).tolist()
        del rows  # before the next block is drawn
        for index, value in zip(indices, values):
            zeros += value == 0
            yield {"record": "trial", "trial_index": index, "ultimate_value": value}
    reference = Fraction(1, 200 * C * C)
    # The bound's own scale i >= (200*C**2)**(2*C) is far beyond desk reach; the floor
    # (1/C)**(200*C**2)**(2*C) fits only as a log10, and from C = 30 on not even so (null).
    floor_fits = (2 * C * math.log10(200 * C * C) + math.log10(math.log10(C))
                  < math.log10(sys.float_info.max))
    aggregate = {
        "record": "aggregate",
        "trials": cfg.trials,
        "zeros": zeros,
        **_proportion(zeros, cfg.trials),
        "reference_bound": float(reference),
        "exceeds_reference": zeros / cfg.trials > float(reference),
        "floor_log10": -((200 * C * C) ** (2 * C)) * math.log10(C) if floor_fits else None,
    }
    if C**depth <= EXHAUSTIVE_CAP:
        exact = exhaustive_ultimate_zero(C, depth)
        aggregate["exact_probability"] = str(exact)
        aggregate["exact_float"] = float(exact)
    yield aggregate
