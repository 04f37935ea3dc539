"""Acceptance suite: every criterion at its stated tolerance and time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
Timings measure the underlying computation, not interpreter or fixture
startup.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np

from gilbreath.blocks import check_block_destruction, check_inverse_iterates
from gilbreath.cli import main
from gilbreath.experiments import (
    ExperimentConfig,
    Schedule,
    exhaustive_ultimate_zero,
    run_experiment,
)
from gilbreath.lifting import ExoticCertificate, verify_certificate
from gilbreath.parity import parity_of_ultimate, prob_even
from gilbreath.primes import verify_gilbreath
from gilbreath.triangle import batch_ultimate, enumerate_rows, iterate_until, never
from gilbreath.walks import (
    all_red_probability,
    check_bootstrap,
    random_coloring,
    random_regular_digraph,
    remark_counterexample,
)
from oracles import naive_first_column

PRIME_ROWS = [
    [2, 3, 5, 7, 11, 13, 17],
    [1, 2, 2, 4, 2, 4],
    [1, 0, 2, 2, 2],
    [1, 2, 0, 0],
    [1, 2, 0],
    [1, 2],
    [1],
]

EXOTIC_ROWS = [
    [2, 0, 6, 0, 2, 2, 6, 5, 0, 0, 6, 1, 3, 2, 2, 3, 0, 6, 0, 5],
    [2, 6, 6, 2, 0, 4, 1, 5, 0, 6, 5, 2, 1, 0, 1, 3, 6, 6, 5],
    [4, 0, 4, 2, 4, 3, 4, 5, 6, 1, 3, 1, 1, 1, 2, 3, 0, 1],
    [4, 4, 2, 2, 1, 1, 1, 1, 5, 2, 2, 0, 0, 1, 1, 3, 1],
    [0, 2, 0, 1, 0, 0, 0, 4, 3, 0, 2, 0, 1, 0, 2, 2],
    [2, 2, 1, 1, 0, 0, 4, 1, 3, 2, 2, 1, 1, 2, 0],
    [0, 1, 0, 1, 0, 4, 3, 2, 1, 0, 1, 0, 1, 2],
    [1, 1, 1, 1, 4, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 3, 3, 0, 0, 0, 0, 0, 0, 0],
]


def report(n: int, elapsed: float, detail: str) -> None:
    print(f"criterion {n:2d}: PASS ({elapsed:.3f}s) {detail}")


def test_criterion_01_golden_triangle(capsys):
    t0 = time.perf_counter()
    rows = iterate_until(PRIME_ROWS[0], never, retain=True).rows
    elapsed = time.perf_counter() - t0
    assert rows == PRIME_ROWS
    assert all(r[0] == 1 for r in rows[1:])
    assert elapsed < 1e-3
    assert main(["triangle", "--values", "2,3,5,7,11,13,17"]) == 0
    out = capsys.readouterr().out
    assert out == "".join(" ".join(map(str, r)) + "\n" for r in PRIME_ROWS)
    with capsys.disabled():
        report(1, elapsed, "prime triangle reproduced, first column all 1s")


def test_criterion_02_golden_exotic(capsys):
    t0 = time.perf_counter()
    rows = iterate_until(EXOTIC_ROWS[0], never, 8, retain=True).rows
    cert = ExoticCertificate(d=3, initial=tuple(EXOTIC_ROWS[0]), depth_checked=19,
                             first_pure_row=8)
    ok = verify_certificate(cert)
    elapsed = time.perf_counter() - t0
    assert rows == EXOTIC_ROWS
    assert ok
    assert elapsed < 1e-3
    with capsys.disabled():
        report(2, elapsed, "exotic triangle reproduced, {0,3}-only at depth 8")


def test_criterion_03_parity_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    mat = enumerate_rows(2, 15)
    ults = batch_ultimate(mat)
    mismatches = sum(
        1 for idx in range(mat.shape[0])
        if parity_of_ultimate(mat[idx].tolist()) != int(ults[idx]) % 2
    )
    rng = np.random.default_rng(0)
    rows = [rng.integers(0, rng.integers(2, 7), size=rng.integers(1, 66)).tolist()
            for _ in range(10_000)]
    by_len: dict[int, list[list[int]]] = {}
    for row in rows:
        by_len.setdefault(len(row), []).append(row)
    for length, group in by_len.items():
        if length == 1:
            ult = np.array([r[0] for r in group])
        else:
            ult = batch_ultimate(np.array(group))
        for row, u in zip(group, ult):
            if parity_of_ultimate(row) != int(u) % 2:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 10
    with capsys.disabled():
        report(3, elapsed, "2^15 exhaustive + 10^4 random rows, zero mismatches")


def test_criterion_04_destruction_exhaustive(capsys):
    t0 = time.perf_counter()
    failures = 0
    for alphabet, length in ((3, 9), (4, 7)):
        for row in product(range(alphabet), repeat=length):
            if max(row) == 0:
                continue
            v = check_block_destruction(list(row))
            if v.applicable and not v.holds:
                failures += 1
    elapsed = time.perf_counter() - t0
    assert failures == 0
    assert elapsed < 10
    with capsys.disabled():
        report(4, elapsed, "{0,1,2}^9 and {0..3}^7 exhaustive, zero failures")


def test_criterion_05_dichotomy_suite(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    checked = failures = 0
    for _ in range(1000):
        row = rng.integers(0, 5, size=12).tolist()
        rows = iterate_until(row, never, retain=True).rows
        for i, r in enumerate(rows):
            for d in (2, 3, 4):
                length = 0
                for v in r + [-1]:  # sentinel flushes the final run
                    if v >= 0 and v % d == 0:
                        length += 1
                    else:
                        if length:
                            checked += 1
                            verdict = check_inverse_iterates(rows, i, d, length)
                            failures += 0 if verdict.holds else 1
                        length = 0
    elapsed = time.perf_counter() - t0
    assert failures == 0 and checked > 0
    assert elapsed < 5
    with capsys.disabled():
        report(5, elapsed, f"dichotomy held for all {checked} detected blocks")


def test_criterion_06_bootstrap_sweep(capsys):
    t0 = time.perf_counter()
    rng = random.Random(0)
    instances = 0
    for _ in range(500):
        n = rng.randint(2, 64)
        d = rng.randint(1, min(4, n))
        g = random_regular_digraph(n, d, rng)
        col = random_coloring(n, rng)
        for L in range(1, 33):
            c = all_red_probability(g, col, L).value
            verdict = check_bootstrap(g, col, L, c)
            assert verdict.hypothesis_met and verdict.holds, (n, d, L, str(c))
            instances += 1
    g, col, L, c, long_prob = remark_counterexample(200)
    assert all_red_probability(g, col, 10).value == Fraction(11, 200)
    assert all_red_probability(g, col, 100).value == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    with capsys.disabled():
        report(6, elapsed, f"{instances} exact bootstrap instances + cycle remark values")


def test_criterion_07_parity_band(capsys):
    t0 = time.perf_counter()
    lo, hi = Fraction(1, 3), Fraction(2, 3)
    for C in range(2, 7):
        for i in range(1, 65):
            p = prob_even(C, i)
            assert lo <= p <= hi, (C, i, p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    with capsys.disabled():
        report(7, elapsed, "prob_even in [1/3, 2/3] for C in 2..6, depth 1..64")


def test_criterion_08_collapse_desk_scale(capsys):
    t0 = time.perf_counter()
    batches = []
    for offset in (0, 200):
        cfg = ExperimentConfig(kind="uniform_collapse", M=10_000, trials=200, seed=0,
                               C=3, T=10_000 - 1, trial_offset=offset)
        *_, aggregate = run_experiment(cfg)
        assert aggregate["collapsed"] == 200, "a trial failed to collapse"
        batches.append(aggregate["median_collapse"])
    elapsed = time.perf_counter() - t0
    a, b = batches
    assert min(a, b) >= 0.8 * max(a, b), f"medians {a} vs {b} differ by more than 20%"
    assert elapsed < 120
    with capsys.disabled():
        report(8, elapsed, f"400/400 trials collapsed; batch medians {a} / {b}")


def test_criterion_09_ultimate_zero_estimate(capsys):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kind="ultimate_zero", M=10, trials=100_000, seed=0, C=3)
    *_, aggregate = run_experiment(cfg)
    exact = float(exhaustive_ultimate_zero(3, 10))
    estimate = aggregate["estimate"]
    se = (exact * (1 - exact) / 100_000) ** 0.5
    elapsed = time.perf_counter() - t0
    assert abs(estimate - exact) <= 3 * se, (estimate, exact, se)
    assert estimate > 1 / 1800
    assert elapsed < 30
    with capsys.disabled():
        report(9, elapsed, f"estimate {estimate:.4f} vs exact {exact:.4f} "
                           f"(3se = {3 * se:.4f}), > 1/1800")


def test_criterion_10_leading_term_desk_scale(capsys):
    t0 = time.perf_counter()
    fracs = []
    cis = []
    for offset in (0, 100):
        cfg = ExperimentConfig(kind="gap_leading_term", M=5000, trials=100, seed=0,
                               schedule=Schedule.parse("2"), trial_offset=offset)
        *trials, aggregate = run_experiment(cfg)
        assert aggregate["finite_m0"] == 100, "a trial had no finite M_0"
        for t in trials:
            assert t["m0"] is not None and t["m0"] <= 5000
        fracs.append(aggregate["m0_half_fraction"])
        cis.append((aggregate["m0_half_ci_low"], aggregate["m0_half_ci_high"]))
    elapsed = time.perf_counter() - t0
    assert cis[1][0] <= fracs[0] <= cis[1][1]
    assert cis[0][0] <= fracs[1] <= cis[0][1]
    assert elapsed < 120
    with capsys.disabled():
        report(10, elapsed, f"200/200 finite M_0; M_0<=M/2 fractions {fracs[0]} / {fracs[1]}")


def test_criterion_11_prime_verification(capsys):
    t0 = time.perf_counter()
    first = verify_gilbreath(10**6)
    second = verify_gilbreath(10**6)
    elapsed = time.perf_counter() - t0
    assert first.status == "verified"
    assert first.verified_rows == 78_497
    assert first.stabilization_row == second.stabilization_row
    for limit in (100, 1000, 10_000):
        firsts = naive_first_column(limit)
        v = verify_gilbreath(limit)
        assert v.status == "verified" and all(f == 1 for f in firsts)
        assert v.verified_rows == len(firsts)
    assert elapsed < 30
    with capsys.disabled():
        report(11, elapsed, f"N=10^6 verified (78497 rows), stabilization row "
                            f"{first.stabilization_row}; naive oracle agrees to 10^4")


def test_criterion_12_reproducibility(capsys, tmp_path):
    t0 = time.perf_counter()
    cases = [
        ("experiment", "collapse", "--M", "2000", "--C", "3", "--trials", "50",
         "--seed", "3"),
        ("experiment", "ultimate-zero", "--C", "3", "--depth", "10", "--trials", "2000",
         "--seed", "3"),
        ("experiment", "leading-term", "--M", "500", "--f", "2", "--trials", "20",
         "--seed", "3"),
        ("experiment", "increasing-alphabet", "--M", "1000", "--f", "1:2,500:3",
         "--trials", "20", "--seed", "3"),
    ]
    for idx, argv in enumerate(cases):
        outputs = []
        for tag in "abc":
            path = tmp_path / f"{idx}-{tag}.jsonl"
            assert main([*argv, "--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], argv
        aggregate = json.loads(outputs[0].decode().splitlines()[-1])
        assert aggregate["result"]["record"] == "aggregate"
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(12, elapsed, f"{len(cases)} subcommands byte-identical over three runs")
