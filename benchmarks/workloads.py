"""The four benchmark workloads: their CLI commands, output checks and layer metrics.

A workload is one or more ``gilbreath`` CLI commands.  Each command runs in
its own fresh worker; together they form one job.  The seed reaches the
program only where a command takes ``--seed``.  Jobs are kept to one or two
seconds, so that a run holds enough of them for a steady figure on a noisy
machine.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

WORKLOADS = ("primes-1e8", "mc-ultimate-zero", "mc-collapse", "exact-oracles")

UZ_TRIALS = 20_000
UZ_EXACT = Fraction(29377, 59049)  # Pr(ultimate iterate = 0), C = 3, depth 10
COLLAPSE_TRIALS = 250
PRIMES_ROWS = 5_761_454  # pi(1e8) - 1
PRIMES_STABILIZATION_ROW = 175
PARITY_DEPTH = 100_000
# Exact all-red probability at L = 32 on de Bruijn(4, 8), targets {0}; also
# reproduced by counting red-only words of length 39 directly.
BOOTSTRAP_SHORT = "24947546154453/151115727451828646838272"


class CheckFailed(Exception):
    """A job's output breaks one of its workload's invariants."""


def commands(workload: str, seed: int, out: str) -> list[list[str]]:
    """The CLI argv lists of one job; files go to the directory `out`."""
    def path(name: str) -> str:
        return os.path.join(out, name)

    if workload == "primes-1e8":
        return [["primes", "--limit", "100000000", "--checkpoint", path("primes.ckpt"),
                 "--checkpoint-every", "20", "--out", path("primes.jsonl")]]
    if workload == "mc-ultimate-zero":
        return [["experiment", "ultimate-zero", "--C", "3", "--depth", "10",
                 "--trials", str(UZ_TRIALS), "--seed", str(seed), "--out", path("uz.jsonl")]]
    if workload == "mc-collapse":
        return [["experiment", "collapse", "--M", "100000", "--C", "3",
                 "--trials", str(COLLAPSE_TRIALS), "--seed", str(seed),
                 "--out", path("collapse.jsonl")]]
    if workload == "exact-oracles":
        return [["bootstrap", "--debruijn", "4,8", "--targets", "0", "--length", "32",
                 "--out", path("bootstrap.jsonl")],
                ["parity", "--depth", str(PARITY_DEPTH), "--prob-even", "2,6",
                 "--depths", "1,64", "--out", path("parity.jsonl")]]
    raise ValueError(f"unknown workload {workload!r}")


def _records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check(workload: str, out: str) -> None:
    """Raise CheckFailed unless the job's files in `out` meet the invariants.

    The checks test invariants, not byte-golden files, so that changes to
    record fields or per-trial streams do not trip them.
    """
    if workload == "primes-1e8":
        (rec,) = _records(os.path.join(out, "primes.jsonl"))
        res = rec["result"]
        require(res["status"] == "verified", f"status {res['status']}")
        require(res["verified_rows"] == PRIMES_ROWS, f"verified_rows {res['verified_rows']}")
        require(res["stabilization_row"] == PRIMES_STABILIZATION_ROW,
                 f"stabilization_row {res['stabilization_row']}")
        ckpt = os.path.join(out, "primes.ckpt")
        require(os.path.exists(ckpt) and os.path.getsize(ckpt) > 0, "no checkpoint written")
    elif workload == "mc-ultimate-zero":
        indices, aggregates = [], []
        with open(os.path.join(out, "uz.jsonl")) as fh:
            for line in fh:
                rec = json.loads(line)["result"]
                if rec["record"] == "trial":
                    indices.append(rec["trial_index"])
                else:
                    aggregates.append(rec)
        require(len(indices) == UZ_TRIALS and len(aggregates) == 1,
                 f"{len(indices)} trial and {len(aggregates)} aggregate records")
        agg = aggregates[0]
        require(agg.get("exact_probability") == f"{UZ_EXACT.numerator}/{UZ_EXACT.denominator}",
                 f"exact_probability {agg.get('exact_probability')}")
        p = float(UZ_EXACT)
        se = math.sqrt(p * (1 - p) / UZ_TRIALS)
        require(abs(agg["estimate"] - p) <= 5 * se,
                 f"estimate {agg['estimate']} is more than 5 standard errors from {p}")
        require(sorted(indices) == list(range(UZ_TRIALS)),
                 "trial indices are not 0..trials-1, once each")
    elif workload == "mc-collapse":
        agg = _records(os.path.join(out, "collapse.jsonl"))[-1]["result"]
        require(agg["collapsed"] == COLLAPSE_TRIALS, f"collapsed {agg['collapsed']}")
    elif workload == "exact-oracles":
        (boot,) = _records(os.path.join(out, "bootstrap.jsonl"))
        require(boot["result"]["holds"] is True, "bootstrap does not hold")
        require(boot["result"]["short_probability"] == BOOTSTRAP_SHORT,
                 f"short_probability {boot['result']['short_probability']}")
        recs = _records(os.path.join(out, "parity.jsonl"))
        (m,) = [r["result"] for r in recs if r["kind"] == "parity_mask"]
        glaisher = 2 ** bin(PARITY_DEPTH).count("1")  # |J_i| = 2**popcount(i)
        require(m["size"] == glaisher == len(m["members"]), f"mask size {m['size']}")
        require({1, PARITY_DEPTH + 1} <= set(m["members"]), "mask lacks 1 or i+1")
        probs = [Fraction(r["result"]["prob_even"]) for r in recs if r["kind"] == "prob_even"]
        require(len(probs) == 5 * 64, f"{len(probs)} prob_even records")
        require(all(Fraction(1, 3) <= q <= Fraction(2, 3) for q in probs),
                 "a prob_even lies outside [1/3, 2/3]")
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(workload: str, spans: dict, counters: dict, workers: list[dict],
                  out: str) -> dict[str, float]:
    """Per-layer metrics of one traced job of `workload`.

    `spans` maps a span name to {"calls", "total_s", "self_s"}; `counters` are
    the counts the wrappers recorded; `workers` are the worker reports.
    """
    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def stream_setup() -> float:
        return total("experiments.derive_trial_stream") + total("experiments.derived_seed")

    if workload == "primes-1e8":
        (rec,) = _records(os.path.join(out, "primes.jsonl"))
        n_primes = counters.get("primes.primes", 0)
        rows = rec["result"]["rows_iterated"]
        # Differencing row i (length n_primes - i) for i = 1..rows.
        cells = rows * n_primes - rows * (rows + 1) // 2
        verify_self = self_s("primes.verify_gilbreath")
        return {
            "primes.sieve_s": total("primes.primes_array"),
            "primes.primes": n_primes,
            "primes.verify_self_s": verify_self,
            "primes.predicate_s": total("primes.stabilization_predicate"),
            "primes.predicate_calls": calls("primes.stabilization_predicate"),
            "primes.rows_iterated": rows,
            "primes.cells_differenced": cells,
            "primes.cells_per_s": _ratio(cells, verify_self),
            "primes.checkpoint_bytes": os.path.getsize(os.path.join(out, "primes.ckpt")),
        }
    if workload == "mc-ultimate-zero":
        trials = counters.get("experiments.trials", 0)
        streams = calls("experiments.derive_trial_stream")
        return {
            "cli.self_s": self_s("cli.main"),
            "cli.out_bytes": os.path.getsize(os.path.join(out, "uz.jsonl")),
            "triangle.batch_ultimate_s.mc-ultimate-zero": total("triangle.batch_ultimate"),
            "experiments.stream_setup_s": stream_setup(),
            "experiments.streams": streams,
            "experiments.stream_setup_us": _ratio(stream_setup() * 1e6, streams),
            "experiments.trial_self_s.mc-ultimate-zero": self_s("experiments.estimate_ultimate_zero"),
            "experiments.exact_s": total("experiments.exhaustive_ultimate_zero"),
            "experiments.records_s": total("experiments.ExperimentRecord.jsonl_lines"),
            "experiments.trials.mc-ultimate-zero": trials,
            "experiments.trials_per_s.mc-ultimate-zero":
                _ratio(trials, total("experiments.estimate_ultimate_zero")),
        }
    if workload == "mc-collapse":
        trials = counters.get("experiments.trials", 0)
        return {
            "experiments.stream_setup_s.mc-collapse": stream_setup(),
            "experiments.sample_s": total("experiments.sample_uniform"),
            "experiments.trial_self_s.mc-collapse": self_s("experiments.run_collapse_experiment"),
            "experiments.trials.mc-collapse": trials,
            "experiments.trials_per_s.mc-collapse":
                _ratio(trials, total("experiments.run_collapse_experiment")),
        }
    if workload == "exact-oracles":
        dp_s = total("walks.all_red_probability") + total("walks.check_bootstrap")
        dp_steps = counters.get("walks.dp_steps", 0)
        return {
            "triangle.batch_ultimate_s.exact-oracles": total("triangle.batch_ultimate"),
            "walks.graph_s": total("walks.debruijn_graph"),
            "walks.coloring_s": total("walks.ultimate_iterate_coloring"),
            "walks.dp_s": dp_s,
            "walks.dp_calls": calls("walks.all_red_probability") + calls("walks.check_bootstrap"),
            "walks.dp_steps": dp_steps,
            "walks.dp_step_ms": _ratio(dp_s * 1e3, dp_steps),
            "parity.mask_s": total("parity.mask"),
            "parity.mask_calls": calls("parity.mask"),
            "parity.prob_even_s": total("parity.prob_even"),
            # The parity command is the job's second worker.
            "parity.rss_after_mask_mb": workers[-1]["rss_now_mb"],
        }
    raise ValueError(f"unknown workload {workload!r}")
