import re
import tracemalloc
from collections import Counter, deque
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gilbreath import experiments
from gilbreath.experiments import (
    EXHAUSTIVE_CAP,
    ExperimentConfig,
    Schedule,
    derive_trial_stream,
    derived_seed,
    exhaustive_ultimate_zero,
    run_experiment,
    sample_gap_sequence,
    sample_schedule,
    sample_uniform,
    wilson_interval,
)
from gilbreath.triangle import batch_ultimate, enumerate_rows, step_array
from oracles import exact_m0_distribution, ultimate_iterate


def run(cfg):
    """A run's trial dicts and its aggregate dict."""
    *trials, aggregate = run_experiment(cfg)
    return trials, aggregate


def ultimate_zero(C, depth, trials, seed, trial_offset=0):
    return ExperimentConfig(kind="ultimate_zero", M=depth, trials=trials, seed=seed, C=C,
                            trial_offset=trial_offset)


def test_schedule_parse_and_values():
    s = Schedule.parse("2")
    assert s.values(np.array([1, 10, 100])).tolist() == [2, 2, 2]
    s = Schedule.parse("1:2,50:3")
    assert s.values(np.array([1, 49, 50, 99])).tolist() == [2, 2, 3, 3]


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule.parse("1")  # f >= 2 required
    with pytest.raises(ValueError):
        Schedule(((1, 3), (10, 2)))  # decreasing
    with pytest.raises(ValueError):
        Schedule(((5, 2),))  # must start at n = 1


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="uniform_collapse", M=10, trials=5, seed=0, C=1)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope", M=10, trials=5, seed=0, C=3)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="gap_leading_term", M=10, trials=5, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="uniform_collapse", M=10, trials=5, seed=0, C=3,
                         weights=(0.5, 0.4, 0.2))


def test_sample_uniform_deterministic():
    a = sample_uniform(3, 5, 2, derive_trial_stream(42, 0))
    b = sample_uniform(3, 5, 2, derive_trial_stream(42, 0))
    assert a.shape == (3, 5)
    assert a.tolist() == b.tolist()
    with pytest.raises(ValueError):
        sample_uniform(3, 5, 1, derive_trial_stream(42, 0))


def test_sample_uniform_frequencies():
    draws = sample_uniform(10, 10**3, 3, derive_trial_stream(1, 0))
    for symbol in range(3):
        freq = float((draws == symbol).mean())
        assert abs(freq - 1 / 3) < 0.02


def test_gap_sequence_construction():
    seqs = sample_gap_sequence(4, 50, Schedule.constant(2), derive_trial_stream(0, 0))
    assert seqs.shape == (4, 51)
    for seq in seqs:
        assert seq[0] == 2 and seq[1] == 3
        steps = np.diff(seq[1:])
        assert set(steps.tolist()) <= {0, 2}
        first_diff = np.abs(np.diff(seq))
        assert first_diff[0] == 1
        assert set(first_diff[1:].tolist()) <= {0, 2}
    again = sample_gap_sequence(4, 50, Schedule.constant(2), derive_trial_stream(0, 0))
    assert seqs.tolist() == again.tolist()


def test_gap_sequence_degenerate():
    seqs = sample_gap_sequence(2, 1, Schedule.constant(2), derive_trial_stream(0, 0))
    assert seqs.tolist() == [[2, 3], [2, 3]]


def test_derived_streams_differ():
    seeds = {derived_seed(5, k) for k in range(1000)}
    assert len(seeds) == 1000
    a = derive_trial_stream(5, 0).integers(0, 2**63, size=4)
    b = derive_trial_stream(5, 1).integers(0, 2**63, size=4)
    assert a.tolist() != b.tolist()


def test_wilson_interval_contains_estimate():
    for k, n in ((0, 10), (10, 10), (3, 7), (150, 200)):
        low, high = wilson_interval(k, n)
        assert 0.0 <= low <= k / n <= high <= 1.0


def test_weighted_collapse_rows_match_weights(monkeypatch):
    weights = (0.5, 0.3, 0.2)
    drawn = []
    iterate = experiments.iterate_until

    def spy(row, stop, max_iters):
        drawn.append(row.copy())
        return iterate(row, stop, max_iters)

    monkeypatch.setattr(experiments, "iterate_until", spy)
    cfg = ExperimentConfig(kind="uniform_collapse", M=50_000, trials=4, seed=3, C=3,
                           weights=weights, T=0)
    run(cfg)
    rows = np.concatenate(drawn)
    assert len(drawn) == 4 and rows.size == 200_000
    for symbol, w in enumerate(weights):
        assert abs(float((rows == symbol).mean()) - w) < 0.01


def test_collapse_c2_is_instant():
    cfg = ExperimentConfig(kind="uniform_collapse", M=200, trials=20, seed=0, C=2)
    trials, aggregate = run(cfg)
    assert all(t["collapse_iteration"] == 0 for t in trials)
    assert aggregate["estimate"] == 1.0


def test_collapse_weighted_sampling():
    cfg = ExperimentConfig(kind="uniform_collapse", M=500, trials=10, seed=0, C=3,
                           weights=(0.6, 0.3, 0.1))
    _, aggregate = run(cfg)
    assert aggregate["collapsed"] == 10


def test_collapse_increasing_alphabet():
    cfg = ExperimentConfig(kind="increasing_alphabet", M=2000, trials=10, seed=0,
                           schedule=Schedule.parse("1:2,1000:3"))
    _, aggregate = run(cfg)
    assert aggregate["collapsed"] == 10
    assert aggregate["median_collapse"] is not None


def test_collapse_budget_respected():
    cfg = ExperimentConfig(kind="uniform_collapse", M=500, trials=10, seed=0, C=6, T=1)
    trials, _ = run(cfg)
    for t in trials:
        assert t.get("collapse_iteration") is None or t["collapse_iteration"] <= 1


def test_leading_term_prime_prefix_behaviour():
    cfg = ExperimentConfig(kind="gap_leading_term", M=100, trials=5, seed=0,
                           schedule=Schedule.constant(2))
    trials, _ = run(cfg)
    # f = 2 gives a first iterate of 1, 2u_2, ...: stabilized immediately
    for t in trials:
        assert t["m0"] == 1
        assert t["leading_term_trace"] == [[1, 100]]
    # and so for every sequence, not only the sampled ones
    assert exact_m0_distribution(2, 12) == (Counter({1: 2**11}), 0)


def test_leading_term_wider_schedule():
    cfg = ExperimentConfig(kind="gap_leading_term", M=400, trials=20, seed=1,
                           schedule=Schedule.constant(4))
    trials, _ = run(cfg)
    finite = [t["m0"] for t in trials if t["m0"] is not None]
    assert len(finite) == 20  # desk-scale f=4 still settles
    # traces must run the full M rows and end in 1s
    for t in trials:
        assert sum(c for _, c in t["leading_term_trace"]) == 400
        assert t["leading_term_trace"][-1][0] == 1


def test_leading_term_matches_exact_m0_distribution():
    # f = 3, M = 10: all 3**9 gap sequences against 4,000 trials, within 3 SE.
    f, M, trials = 3, 10, 4000
    counts, null = exact_m0_distribution(f, M)
    total = f ** (M - 1)
    assert sum(counts.values()) + null == total and null > 0
    assert 2 not in counts  # row 1 starts with the gap 3 - 2 = 1
    cfg = ExperimentConfig(kind="gap_leading_term", M=M, trials=trials, seed=0,
                           schedule=Schedule.constant(f))
    results, aggregate = run(cfg)
    half = sum(c for m, c in counts.items() if m <= M / 2)
    for exact, observed in [
        (half / total, aggregate["m0_half_fraction"]),
        (counts[1] / total, sum(t["m0"] == 1 for t in results) / trials),
        (1 - null / total, aggregate["estimate"]),
    ]:
        se = (exact * (1 - exact) / trials) ** 0.5
        assert abs(observed - exact) <= 3 * se, (exact, observed)


def test_exact_m0_distribution_matches_the_experiment(monkeypatch):
    # Feed the experiment every gap sequence once, in place of its sampler.
    f, M = 3, 7
    u = enumerate_rows(f, M - 1)
    first_two = np.tile([2, 3], (len(u), 1))
    seqs = np.hstack([first_two, 3 + 2 * np.cumsum(u, axis=1)])
    # One stream block covers every trial; the block's rows past them are dropped.
    monkeypatch.setattr(experiments, "sample_gap_sequence",
                        lambda n, M, schedule, rng: np.resize(seqs, (n, M + 1)))
    results, _ = run(ExperimentConfig(kind="gap_leading_term", M=M, trials=len(u), seed=0,
                                      schedule=Schedule.constant(f)))
    counts, null = exact_m0_distribution(f, M)
    assert Counter(t["m0"] for t in results) == counts + Counter({None: null})


def test_ultimate_zero_exact_small():
    assert exhaustive_ultimate_zero(2, 3) == Fraction(4, 8)
    assert exhaustive_ultimate_zero(5, 1) == Fraction(1, 5)
    _, aggregate = run(ultimate_zero(2, 3, trials=2000, seed=0))
    assert abs(aggregate["estimate"] - 0.5) < 0.05
    assert aggregate["exact_probability"] == "1/2"


def test_ultimate_zero_matches_exhaustive_3se():
    _, aggregate = run(ultimate_zero(3, 6, trials=20_000, seed=0))
    exact = float(exhaustive_ultimate_zero(3, 6))
    se = (exact * (1 - exact) / 20_000) ** 0.5
    assert abs(aggregate["estimate"] - exact) <= 3 * se


def test_records_are_schedule_independent():
    def trial_records(offset, trials):
        cfg = ExperimentConfig(kind="uniform_collapse", M=300, trials=trials, seed=9, C=3,
                               trial_offset=offset)
        return run(cfg)[0]

    assert trial_records(0, 20) + trial_records(20, 20) == trial_records(0, 40)


def test_ultimate_zero_blocks_match_one_block(monkeypatch):
    # One batch_ultimate call per stream block; each block's values match a per-row oracle.
    batches = []

    def spy(rows):
        batches.append(np.array(rows))
        return batch_ultimate(rows)

    monkeypatch.setattr(experiments, "STREAM_CELLS", 64)  # 6 rows of depth 10
    monkeypatch.setattr(experiments, "batch_ultimate", spy)
    cfg = ultimate_zero(3, 10, trials=50, seed=5, trial_offset=7)
    trials, _ = run(cfg)
    # Trials 7..56 fall in blocks 1..9; then the exhaustive 3**10 enumeration.
    assert cfg.streams == range(1, 10)
    assert [len(b) for b in batches[:-1]] == [5] + [6] * 7 + [3]
    rows = np.concatenate(batches[:-1])
    assert [t["trial_index"] for t in trials] == list(range(7, 57))
    assert [t["ultimate_value"] for t in trials] == [ultimate_iterate(r) for r in rows.tolist()]


def test_trial_offset_gives_disjoint_batches():
    base = ExperimentConfig(kind="uniform_collapse", M=300, trials=30, seed=2, C=3)
    shifted = ExperimentConfig(kind="uniform_collapse", M=300, trials=30, seed=2, C=3,
                               trial_offset=30)
    a, _ = run(base)
    b, _ = run(shifted)
    assert {t["trial_index"] for t in a}.isdisjoint(t["trial_index"] for t in b)


WEIGHTS = (0.6, 0.3, 0.1)
SCHEDULE = Schedule.parse("1:2,20:3")

# A config of each kind at M = 50, and the kind's whole-block draw of n rows.
SAMPLERS = {
    "uniform_collapse": (ExperimentConfig(kind="uniform_collapse", M=50, trials=1, seed=4, C=3),
                         lambda n, rng: sample_uniform(n, 50, 3, rng)),
    "weighted_collapse": (ExperimentConfig(kind="uniform_collapse", M=50, trials=1, seed=4, C=3,
                                           weights=WEIGHTS),
                          lambda n, rng: rng.choice(3, size=(n, 50), p=WEIGHTS)),
    "increasing_alphabet": (ExperimentConfig(kind="increasing_alphabet", M=50, trials=1, seed=4,
                                             schedule=SCHEDULE),
                            lambda n, rng: sample_schedule(n, 50, SCHEDULE, rng)),
    "gap_leading_term": (ExperimentConfig(kind="gap_leading_term", M=50, trials=1, seed=4,
                                          schedule=Schedule.constant(3)),
                         lambda n, rng: step_array(
                             sample_gap_sequence(n, 50, Schedule.constant(3), rng))),
    "ultimate_zero": (ultimate_zero(3, 50, trials=1, seed=4),
                      lambda n, rng: sample_uniform(n, 50, 3, rng)),
}


@pytest.mark.parametrize("name", list(SAMPLERS))
def test_trials_difference_their_own_stream_rows(monkeypatch, name):
    base, draw = SAMPLERS[name]
    derive = experiments.derive_trial_stream
    # 4 trials a block (trials 7..18 span blocks 1..4), then the default 1,310 (block 0).
    for stream_cells in (200, 2**16):
        monkeypatch.setattr(experiments, "STREAM_CELLS", stream_cells)
        cfg = replace(base, trial_offset=7, trials=12)
        per = cfg.trials_per_stream
        assert per == stream_cells // 50 and cfg.params()["trials_per_stream"] == per
        seen, streams = [], []

        def stream_spy(seed, block):
            streams.append(block)
            return derive(seed, block)

        monkeypatch.setattr(experiments, "derive_trial_stream", stream_spy)
        if cfg.kind == "ultimate_zero":
            def spy(rows):
                seen.extend(np.array(rows))
                return batch_ultimate(rows)

            monkeypatch.setattr(experiments, "batch_ultimate", spy)
        else:
            iterate = experiments.iterate_until

            def spy(row, stop, max_iters):
                seen.append(np.array(row))
                return iterate(row, stop, max_iters)

            monkeypatch.setattr(experiments, "iterate_until", spy)
        trials, _ = run(cfg)
        monkeypatch.undo()
        assert [t["trial_index"] for t in trials] == list(range(7, 19))
        assert all("derived_seed" not in t for t in trials)
        assert streams == list(range(7 // per, 18 // per + 1))  # one stream per block
        # Ultimate-zero's 3**50 rows are past the exhaustive cap: only trial rows are seen.
        assert len(seen) == 12
        for index, row in zip(range(7, 19), seen):
            block = draw(per, derive(4, index // per))
            assert row.tolist() == block[index % per].tolist()


@pytest.mark.parametrize("name", list(SAMPLERS))
def test_disjoint_offset_runs_concatenate_to_the_full_run(monkeypatch, name):
    monkeypatch.setattr(experiments, "STREAM_CELLS", 250)  # 5 trials a block at M = 50
    base, _ = SAMPLERS[name]
    per = base.trials_per_stream
    assert per == 5
    full, _ = run(replace(base, trials=4 * per + 2))  # ends mid-block
    for split in (per - 1, per, per + 1):
        head, _ = run(replace(base, trials=split))
        tail, _ = run(replace(base, trial_offset=split, trials=4 * per + 2 - split))
        assert head + tail == full, split


def test_run_memory_does_not_grow_with_trials():
    def peak(trials):
        cfg = ExperimentConfig(kind="uniform_collapse", M=50, trials=trials, seed=0, C=3)
        tracemalloc.start()
        try:
            deque(run_experiment(cfg), maxlen=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # warm up lazy imports and caches outside the measurement
    per_trial = (peak(5000) - peak(500)) / 4500
    # The medians keep one int per collapsed trial; a held record costs ~290 bytes.
    assert per_trial < 32, f"{per_trial:.1f} bytes per extra trial"


@pytest.mark.parametrize("kind", ["uniform_collapse", "increasing_alphabet", "gap_leading_term"])
def test_next_trial_samples_with_the_last_row_freed(kind):
    def peak(trials):
        cfg = ExperimentConfig(kind=kind, M=100_000, trials=trials, seed=0, C=3, T=0,
                               schedule=Schedule.constant(3))
        tracemalloc.start()
        try:
            deque(run_experiment(cfg), maxlen=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # warm up lazy imports and caches outside the measurement
    # A row held while the next one is sampled costs 8 to 17 bytes per entry.
    per_entry = (peak(3) - peak(1)) / 100_000
    assert per_entry < 1, f"{per_entry:.2f} bytes per entry"


def test_collapse_monotone_closure():
    # once everything is 0/1 it stays 0/1 under differencing
    rng = derive_trial_stream(0, 0)
    row = rng.integers(0, 2, size=64)
    for _ in range(63):
        row = np.abs(np.diff(row))
        assert set(np.unique(row).tolist()) <= {0, 1}
        if row.size == 1:
            break


VALID = ExperimentConfig(kind="uniform_collapse", M=5, trials=1, seed=0, C=3)


@pytest.mark.parametrize("call, message", [
    (lambda: Schedule(((1, 2), (1, 3))), "schedule breakpoints must be strictly increasing"),
    (lambda: Schedule(((1, 2), (5, 3), (3, 4))),
     "schedule breakpoints must be strictly increasing"),
    (lambda: Schedule.constant(3).values(np.array([0, 1])), "schedule queried below n = 1"),
    (lambda: replace(VALID, M=0), "M (the depth, for ultimate-zero) must be >= 1"),
    (lambda: replace(VALID, trials=0), "trials must be >= 1"),
    (lambda: replace(VALID, seed=-1), "seed must be a non-negative integer"),
    (lambda: replace(VALID, trial_offset=-1), "trial_offset must be >= 0"),
    (lambda: replace(VALID, T=-1), "iteration budget must be >= 0"),
    (lambda: replace(VALID, weights=(0.5, 0.5)), "weights must give one entry per symbol"),
    (lambda: replace(VALID, weights=(1.5, -0.25, -0.25)), "weights must be positive"),
    (lambda: derive_trial_stream(-1, 0), "seed and block must be non-negative"),
    (lambda: derive_trial_stream(0, -1), "seed and block must be non-negative"),
    (lambda: wilson_interval(0, 0), "need at least one observation"),
    (lambda: sample_uniform(1, 0, 3, derive_trial_stream(0, 0)), "M must be >= 1"),
    (lambda: sample_gap_sequence(1, 0, Schedule.constant(3), derive_trial_stream(0, 0)),
     "M must be >= 1"),
    (lambda: exhaustive_ultimate_zero(3, 13),
     f"enumeration of 3**13 rows exceeds cap {EXHAUSTIVE_CAP}"),
], ids=["schedule-repeated-start", "schedule-decreasing-start", "schedule-below-1", "config-M",
        "config-trials", "config-seed", "config-trial-offset", "config-T", "weights-length",
        "weights-non-positive", "stream-seed", "stream-block", "wilson-n", "uniform-M",
        "gap-sequence-M", "exhaustive-cap"])
def test_bad_arguments_name_the_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
