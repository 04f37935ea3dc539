from fractions import Fraction

import numpy as np
import pytest

from gilbreath import experiments
from gilbreath.experiments import (
    AliasTable,
    ExperimentConfig,
    Schedule,
    derive_trial_stream,
    derived_seed,
    estimate_ultimate_zero,
    exhaustive_ultimate_zero,
    run_collapse_experiment,
    run_leading_term_experiment,
    sample_gap_sequence,
    sample_schedule,
    sample_uniform,
    wilson_interval,
)
from gilbreath.triangle import batch_ultimate


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
    a = sample_uniform(5, 2, derive_trial_stream(42, 0))
    b = sample_uniform(5, 2, derive_trial_stream(42, 0))
    assert a.tolist() == b.tolist()
    with pytest.raises(ValueError):
        sample_uniform(5, 1, derive_trial_stream(42, 0))


def test_sample_uniform_frequencies():
    draws = sample_uniform(10**4, 3, derive_trial_stream(1, 0))
    for symbol in range(3):
        freq = float((draws == symbol).mean())
        assert abs(freq - 1 / 3) < 0.02


def test_gap_sequence_construction():
    seq = sample_gap_sequence(50, Schedule.constant(2), derive_trial_stream(0, 0))
    assert seq[0] == 2 and seq[1] == 3
    steps = np.diff(seq[1:])
    assert set(steps.tolist()) <= {0, 2}
    first_diff = np.abs(np.diff(seq))
    assert first_diff[0] == 1
    assert set(first_diff[1:].tolist()) <= {0, 2}
    again = sample_gap_sequence(50, Schedule.constant(2), derive_trial_stream(0, 0))
    assert seq.tolist() == again.tolist()


def test_gap_sequence_degenerate():
    seq = sample_gap_sequence(1, Schedule.constant(2), derive_trial_stream(0, 0))
    assert seq.tolist() == [2, 3]


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


def test_alias_table_matches_weights():
    weights = (0.5, 0.3, 0.2)
    table = AliasTable(weights)
    draws = table.sample(derive_trial_stream(3, 0), 200_000)
    for symbol, w in enumerate(weights):
        assert abs(float((draws == symbol).mean()) - w) < 0.01


def test_collapse_c2_is_instant():
    cfg = ExperimentConfig(kind="uniform_collapse", M=200, trials=20, seed=0, C=2)
    rec = run_collapse_experiment(cfg)
    assert all(t.collapse_iteration == 0 for t in rec.trials)
    assert rec.aggregate["estimate"] == 1.0


def test_collapse_weighted_sampling():
    cfg = ExperimentConfig(kind="uniform_collapse", M=500, trials=10, seed=0, C=3,
                           weights=(0.6, 0.3, 0.1))
    rec = run_collapse_experiment(cfg)
    assert rec.aggregate["collapsed"] == 10


def test_collapse_increasing_alphabet():
    cfg = ExperimentConfig(kind="increasing_alphabet", M=2000, trials=10, seed=0,
                           schedule=Schedule.parse("1:2,1000:3"))
    rec = run_collapse_experiment(cfg)
    assert rec.aggregate["collapsed"] == 10
    assert rec.aggregate["median_collapse"] is not None


def test_collapse_budget_respected():
    cfg = ExperimentConfig(kind="uniform_collapse", M=500, trials=10, seed=0, C=6, T=1)
    rec = run_collapse_experiment(cfg)
    for t in rec.trials:
        assert t.collapse_iteration is None or t.collapse_iteration <= 1


def test_leading_term_prime_prefix_behaviour():
    cfg = ExperimentConfig(kind="gap_leading_term", M=100, trials=5, seed=0,
                           schedule=Schedule.constant(2))
    rec = run_leading_term_experiment(cfg)
    # f = 2 gives a first iterate of 1, 2u_2, ...: stabilized immediately
    for t in rec.trials:
        assert t.m0 == 1
        assert t.leading_term_trace == [[1, 100]]


def test_leading_term_wider_schedule():
    cfg = ExperimentConfig(kind="gap_leading_term", M=400, trials=20, seed=1,
                           schedule=Schedule.constant(4))
    rec = run_leading_term_experiment(cfg)
    finite = [t.m0 for t in rec.trials if t.m0 is not None]
    assert len(finite) == 20  # desk-scale f=4 still settles
    # traces must run the full M rows and end in 1s
    for t in rec.trials:
        assert sum(c for _, c in t.leading_term_trace) == 400
        assert t.leading_term_trace[-1][0] == 1


def test_ultimate_zero_exact_small():
    assert exhaustive_ultimate_zero(2, 3) == Fraction(4, 8)
    assert exhaustive_ultimate_zero(5, 1) == Fraction(1, 5)
    rec = estimate_ultimate_zero(2, 3, trials=2000, seed=0)
    assert abs(rec.aggregate["estimate"] - 0.5) < 0.05
    assert rec.aggregate["exact_probability"] == "1/2"


def test_ultimate_zero_matches_exhaustive_3se():
    rec = estimate_ultimate_zero(3, 6, trials=20_000, seed=0)
    exact = float(exhaustive_ultimate_zero(3, 6))
    se = (exact * (1 - exact) / 20_000) ** 0.5
    assert abs(rec.aggregate["estimate"] - exact) <= 3 * se


def test_records_are_schedule_independent():
    def trial_records(offset, trials):
        cfg = ExperimentConfig(kind="uniform_collapse", M=300, trials=trials, seed=9, C=3,
                               trial_offset=offset)
        return list(run_collapse_experiment(cfg).records())[:-1]

    assert trial_records(0, 20) + trial_records(20, 20) == trial_records(0, 40)


def test_ultimate_zero_blocks_match_one_block(monkeypatch):
    one_block = list(estimate_ultimate_zero(3, 10, trials=50, seed=5, trial_offset=7).records())
    batches = []

    def spy(rows):
        batches.append(len(rows))
        return batch_ultimate(rows)

    monkeypatch.setattr(experiments, "BLOCK_CELLS", 64)  # 6 rows of depth 10
    monkeypatch.setattr(experiments, "batch_ultimate", spy)
    blocked = list(estimate_ultimate_zero(3, 10, trials=50, seed=5, trial_offset=7).records())
    # Nine trial blocks, then the exhaustive 3**10 enumeration.
    assert batches[:-1] == [6] * 8 + [2]
    assert blocked == one_block


def test_trial_offset_gives_disjoint_batches():
    base = ExperimentConfig(kind="uniform_collapse", M=300, trials=30, seed=2, C=3)
    shifted = ExperimentConfig(kind="uniform_collapse", M=300, trials=30, seed=2, C=3,
                               trial_offset=30)
    a = run_collapse_experiment(base)
    b = run_collapse_experiment(shifted)
    assert {t.trial_index for t in a.trials}.isdisjoint(t.trial_index for t in b.trials)
    assert {t.derived_seed for t in a.trials}.isdisjoint(t.derived_seed for t in b.trials)


def test_collapse_monotone_closure():
    # once everything is 0/1 it stays 0/1 under differencing
    rng = derive_trial_stream(0, 0)
    row = rng.integers(0, 2, size=64)
    for _ in range(63):
        row = np.abs(np.diff(row))
        assert set(np.unique(row).tolist()) <= {0, 1}
        if row.size == 1:
            break
