"""Seeded Monte Carlo harness for collapse, leading-term, and ultimate-zero runs.

Each trial draws from its own RNG stream derived from (master_seed,
trial_index), so results are bit-identical under any trial scheduling; the
serialized records carry no non-deterministic fields.  Aggregates use Wilson
95% intervals, which stay sane at proportions near 0 and 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .triangle import (
    Finding,
    StopRule,
    batch_ultimate,
    enumerate_rows,
    iterate_until,
    stabilization_predicate,
    step_array,
)

KINDS = ("uniform_collapse", "gap_leading_term", "increasing_alphabet", "ultimate_zero")

EXHAUSTIVE_CAP = 3**12

# Cells of the trials x depth array that `estimate_ultimate_zero` fills and
# reduces at a time; bounds its memory whatever the trial count.
BLOCK_CELLS = 2**20


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
    def constant(cls, k: int) -> "Schedule":
        return cls(((1, k),))

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        text = text.strip()
        if ":" not in text:
            return cls.constant(int(text))
        pts = []
        for part in text.split(","):
            start, value = part.split(":")
            pts.append((int(start), int(value)))
        return cls(tuple(pts))

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

    @property
    def max_value(self) -> int:
        return self.points[-1][1]


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
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.trial_offset < 0:
            raise ValueError("trial_offset must be >= 0")
        if self.kind in ("uniform_collapse", "ultimate_zero"):
            if self.C is None or self.C < 2:
                raise ValueError("alphabet size C >= 2 required")
        if self.kind in ("gap_leading_term", "increasing_alphabet"):
            if self.schedule is None:
                raise ValueError("alphabet schedule required")
        if self.T is not None and self.T < 0:
            raise ValueError("iteration budget must be >= 0")
        if self.weights is not None:
            if self.C is None or len(self.weights) != self.C:
                raise ValueError("weights must give one entry per symbol")
            if any(w <= 0 for w in self.weights):
                raise ValueError("weights must be positive")
            if abs(sum(self.weights) - 1.0) > 1e-9:
                raise ValueError("weights must sum to 1")

    @property
    def indices(self) -> range:
        return range(self.trial_offset, self.trial_offset + self.trials)

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
        }


@dataclass
class TrialResult:
    trial_index: int
    derived_seed: int
    collapse_iteration: int | None = None
    ultimate_value: int | None = None
    leading_term_trace: list[list[int]] | None = None
    m0: int | None = None

    def metrics(self) -> dict:
        out: dict = {"trial_index": self.trial_index, "derived_seed": self.derived_seed}
        if self.collapse_iteration is not None:
            out["collapse_iteration"] = self.collapse_iteration
        if self.ultimate_value is not None:
            out["ultimate_value"] = self.ultimate_value
        if self.leading_term_trace is not None:
            out["leading_term_trace"] = self.leading_term_trace
            out["m0"] = self.m0
        return out


@dataclass
class ExperimentRecord:
    config: ExperimentConfig
    trials: list[TrialResult]
    aggregate: dict
    wall_time: float  # kept in memory only; never serialized, for reproducibility

    def records(self) -> Iterator[dict]:
        """The result of each trial, in trial order, then the aggregate.

        A generator, so that writing JSONL never holds every record at once.
        """
        for tr in self.trials:
            yield {"record": "trial", **tr.metrics()}
        yield {"record": "aggregate", **self.aggregate}


def derive_trial_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """Reproducible, statistically independent stream for one trial."""
    if master_seed < 0 or trial_index < 0:
        raise ValueError("seed and trial index must be non-negative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, trial_index))))


def derived_seed(master_seed: int, trial_index: int) -> int:
    """64-bit fingerprint of the trial's stream, recorded alongside each trial."""
    ss = np.random.SeedSequence((master_seed, trial_index))
    return int(ss.generate_state(1, np.uint64)[0])


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one observation")
    phat = successes / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    # At the boundaries the bound is exactly 0 or 1; don't let rounding pull
    # the interval off the observed proportion.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high


class AliasTable:
    """Vose alias sampler for a fixed symbol distribution; O(1) per draw."""

    def __init__(self, weights: Sequence[float]):
        n = len(weights)
        scaled = [w * n for w in weights]
        self.accept = np.zeros(n)
        self.alias = np.zeros(n, dtype=np.int64)
        small = [i for i, w in enumerate(scaled) if w < 1.0]
        large = [i for i, w in enumerate(scaled) if w >= 1.0]
        while small and large:
            s, l = small.pop(), large.pop()
            self.accept[s] = scaled[s]
            self.alias[s] = l
            scaled[l] -= 1.0 - scaled[s]
            (small if scaled[l] < 1.0 else large).append(l)
        for i in large + small:
            self.accept[i] = 1.0
            self.alias[i] = i

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        k = rng.integers(0, len(self.accept), size=size)
        u = rng.random(size)
        return np.where(u < self.accept[k], k, self.alias[k])


def sample_uniform(M: int, C: int, stream: np.random.Generator) -> np.ndarray:
    """M i.i.d. uniform draws from {0,...,C-1}."""
    if C < 2:
        raise ValueError("alphabet size must be >= 2")
    if M < 1:
        raise ValueError("M must be >= 1")
    return stream.integers(0, C, size=M, dtype=np.int64)


def sample_schedule(M: int, schedule: Schedule, stream: np.random.Generator) -> np.ndarray:
    """b_m ~ uniform on {0,...,f(m)-1} for m = 1..M, with f the schedule."""
    highs = schedule.values(np.arange(1, M + 1))
    return stream.integers(0, highs, dtype=np.int64)


def sample_gap_sequence(M: int, schedule: Schedule, stream: np.random.Generator) -> np.ndarray:
    """(a_1,...,a_{M+1}) with a_1 = 2, a_2 = 3, a_{n+1} = a_n + 2*u_n and
    u_n uniform on {0,...,f(n)-1} for n = 2..M."""
    if M < 1:
        raise ValueError("M must be >= 1")
    out = np.empty(M + 1, dtype=np.int64)
    out[0] = 2
    out[1] = 3
    if M > 1:
        highs = schedule.values(np.arange(2, M + 1))
        u = stream.integers(0, highs, dtype=np.int64)
        out[2:] = 3 + 2 * np.cumsum(u)
    return out


def run_collapse_experiment(cfg: ExperimentConfig) -> ExperimentRecord:
    """Per trial: sample a row, difference until everything is 0 or 1 or the
    budget runs out; aggregate the collapsed fraction and median collapse time."""
    if cfg.kind not in ("uniform_collapse", "increasing_alphabet"):
        raise ValueError("collapse experiments need kind uniform_collapse or increasing_alphabet")
    alias = AliasTable(cfg.weights) if cfg.weights else None

    def one_trial(index: int) -> TrialResult:
        rng = derive_trial_stream(cfg.seed, index)
        if cfg.kind == "uniform_collapse":
            if alias is not None:
                row = alias.sample(rng, cfg.M).astype(np.int64)
            else:
                row = sample_uniform(cfg.M, cfg.C, rng)
        else:
            row = sample_schedule(cfg.M, cfg.schedule, rng)
        res = iterate_until(row, StopRule.all_le_one(), cfg.budget)
        it = res.iterations if res.reason == "stop" else None
        # Free the last row before the sampled one, as a loop-local row would
        # be: the other order costs about a third more page faults per trial.
        del res
        return TrialResult(index, derived_seed(cfg.seed, index), collapse_iteration=it)

    start = time.perf_counter()
    trials = [one_trial(i) for i in cfg.indices]
    collapsed = [t.collapse_iteration for t in trials if t.collapse_iteration is not None]
    low, high = wilson_interval(len(collapsed), cfg.trials)
    aggregate = {
        "trials": cfg.trials,
        "collapsed": len(collapsed),
        "estimate": len(collapsed) / cfg.trials,
        "ci_low": low,
        "ci_high": high,
        "median_collapse": float(np.median(collapsed)) if collapsed else None,
        "budget": cfg.budget,
    }
    return ExperimentRecord(cfg, trials, aggregate, time.perf_counter() - start)


def _rle(values: list[int]) -> list[list[int]]:
    out: list[list[int]] = []
    for v in values:
        if out and out[-1][0] == v:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return out


def _leading_term_trial(cfg: ExperimentConfig, index: int) -> TrialResult:
    rng = derive_trial_stream(cfg.seed, index)
    row = sample_gap_sequence(cfg.M, cfg.schedule, rng)
    firsts: list[int] = []
    stabilized_at = None
    for i in range(1, cfg.M + 1):
        row = step_array(row)
        firsts.append(int(row[0]))
        if stabilization_predicate(row):
            stabilized_at = i
            # Spot-check the closure that justifies stopping early.
            if row.size > 1 and not stabilization_predicate(step_array(row)):
                raise Finding("0/2-tail stability violated",
                              {"seed": cfg.seed, "trial_index": index, "row": i + 1})
            break
    last_bad = max((i for i, v in enumerate(firsts, start=1) if v != 1), default=0)
    if stabilized_at is None and firsts[-1] != 1:
        m0 = None
    else:
        m0 = last_bad + 1
    trace = _rle(firsts + [1] * (cfg.M - len(firsts)))
    return TrialResult(
        index,
        derived_seed(cfg.seed, index),
        leading_term_trace=trace,
        m0=m0,
    )


def run_leading_term_experiment(cfg: ExperimentConfig) -> ExperimentRecord:
    """Per trial: stream the triangle of a random gap sequence, tracking the
    first entry of every row, and report the least M_0 from which it is all 1s."""
    if cfg.kind != "gap_leading_term":
        raise ValueError("leading-term experiments need kind gap_leading_term")
    start = time.perf_counter()
    trials = [_leading_term_trial(cfg, i) for i in cfg.indices]
    finite = [t.m0 for t in trials if t.m0 is not None]
    half = [m for m in finite if m <= cfg.M / 2]
    low, high = wilson_interval(len(finite), cfg.trials)
    hlow, hhigh = wilson_interval(len(half), cfg.trials)
    aggregate = {
        "trials": cfg.trials,
        "finite_m0": len(finite),
        "estimate": len(finite) / cfg.trials,
        "ci_low": low,
        "ci_high": high,
        "m0_half_count": len(half),
        "m0_half_fraction": len(half) / cfg.trials,
        "m0_half_ci_low": hlow,
        "m0_half_ci_high": hhigh,
        "median_m0": float(np.median(finite)) if finite else None,
        "schedule": cfg.schedule.describe(),
        "schedule_note": "desk-scale schedules skip the asymptotic cap "
        "f(M) <= loglog(M)/(100 * logloglog(M)), which forces f = 2 at any reachable M",
    }
    return ExperimentRecord(cfg, trials, aggregate, time.perf_counter() - start)


def exhaustive_ultimate_zero(C: int, depth: int) -> Fraction:
    """Exact Pr(ultimate iterate = 0) for i.i.d. uniform rows of length `depth`,
    by full enumeration of all C**depth rows."""
    if C**depth > EXHAUSTIVE_CAP:
        raise ValueError(f"enumeration of {C}**{depth} rows exceeds cap {EXHAUSTIVE_CAP}")
    values = batch_ultimate(enumerate_rows(C, depth))
    return Fraction(int((values == 0).sum()), C**depth)


def estimate_ultimate_zero(
    C: int, depth: int, trials: int, seed: int, trial_offset: int = 0
) -> ExperimentRecord:
    """Monte Carlo Pr(ultimate iterate = 0) with the uniform-bound reference
    1/(200*C**2); the exhaustive value is attached whenever C**depth is small."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cfg = ExperimentConfig(
        kind="ultimate_zero", M=depth, trials=trials, seed=seed, C=C, trial_offset=trial_offset
    )

    start = time.perf_counter()
    per_block = max(1, BLOCK_CELLS // depth)
    values: list[int] = []
    for lo in range(0, trials, per_block):
        block = cfg.indices[lo:lo + per_block]
        rows = np.empty((len(block), depth), dtype=np.int64)
        for k, i in enumerate(block):
            rows[k] = sample_uniform(depth, C, derive_trial_stream(cfg.seed, i))
        values += batch_ultimate(rows).tolist()
    results = [
        TrialResult(i, derived_seed(cfg.seed, i), ultimate_value=v)
        for i, v in zip(cfg.indices, values)
    ]
    zeros = sum(1 for t in results if t.ultimate_value == 0)
    low, high = wilson_interval(zeros, trials)
    reference = Fraction(1, 200 * C * C)
    aggregate = {
        "trials": trials,
        "zeros": zeros,
        "estimate": zeros / trials,
        "ci_low": low,
        "ci_high": high,
        "reference_bound": float(reference),
        "exceeds_reference": zeros / trials > float(reference),
        # The bound's own scale i >= (200*C**2)**(2*C) is far beyond desk reach;
        # the unconditional floor (1/C)**(200*C**2)**(2*C) only fits as a log.
        "floor_log10": -((200 * C * C) ** (2 * C)) * math.log10(C),
    }
    if C**depth <= EXHAUSTIVE_CAP:
        exact = exhaustive_ultimate_zero(C, depth)
        aggregate["exact_probability"] = f"{exact.numerator}/{exact.denominator}"
        aggregate["exact_float"] = float(exact)
    return ExperimentRecord(cfg, results, aggregate, time.perf_counter() - start)
