"""Span tracing from outside the program: wrap module attributes, record spans.

The tracer replaces functions of the ``gilbreath`` modules with wrappers, so
no file of the program changes.  A wrapper sees only calls that look the
name up at call time: calls through the module (``primes.verify_gilbreath``
from the CLI, ``mask`` from ``prob_even``) and through a binding imported
into another module (``experiments.batch_ultimate``), which is wrapped on its
own.  Spans stay in memory and are written to one ``.npz`` file per worker
when the job ends.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter_ns

import numpy as np


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_primes(counters, args, kwargs, result):
    counters["primes.primes"] = counters.get("primes.primes", 0) + len(result)


def _count_trials(counters, args, kwargs, result):
    counters["experiments.trials"] = counters.get("experiments.trials", 0) + len(result.trials)


def _count_dp_all_red(counters, args, kwargs, result):
    # A walk of length L needs L - 1 pushes of the red-walk vector.
    steps = _arg(args, kwargs, 2, "L") - 1
    counters["walks.dp_steps"] = counters.get("walks.dp_steps", 0) + steps


def _count_dp_bootstrap(counters, args, kwargs, result):
    # One counter serves both lengths: max(L, L') - 1 pushes in all.
    L = _arg(args, kwargs, 2, "L")
    steps = max(L, result.long_length or L) - 1
    counters["walks.dp_steps"] = counters.get("walks.dp_steps", 0) + steps


# (module, attribute path, span name, counter hook).  The public functions of
# the layers the benchmark covers; `blocks` and `lifting` are left out.
WRAPS = (
    ("gilbreath.cli", "main", "cli.main", None),
    ("gilbreath.primes", "primes_array", "primes.primes_array", _count_primes),
    ("gilbreath.primes", "verify_gilbreath", "primes.verify_gilbreath", None),
    ("gilbreath.primes", "stabilization_predicate", "primes.stabilization_predicate", None),
    ("gilbreath.experiments", "derive_trial_stream", "experiments.derive_trial_stream", None),
    ("gilbreath.experiments", "derived_seed", "experiments.derived_seed", None),
    ("gilbreath.experiments", "sample_uniform", "experiments.sample_uniform", None),
    ("gilbreath.experiments", "estimate_ultimate_zero", "experiments.estimate_ultimate_zero",
     _count_trials),
    ("gilbreath.experiments", "run_collapse_experiment", "experiments.run_collapse_experiment",
     _count_trials),
    ("gilbreath.experiments", "exhaustive_ultimate_zero",
     "experiments.exhaustive_ultimate_zero", None),
    ("gilbreath.experiments", "ExperimentRecord.jsonl_lines",
     "experiments.ExperimentRecord.jsonl_lines", None),
    ("gilbreath.experiments", "batch_ultimate", "triangle.batch_ultimate", None),
    ("gilbreath.walks", "batch_ultimate", "triangle.batch_ultimate", None),
    ("gilbreath.triangle", "batch_ultimate", "triangle.batch_ultimate", None),
    ("gilbreath.walks", "debruijn_graph", "walks.debruijn_graph", None),
    ("gilbreath.walks", "ultimate_iterate_coloring", "walks.ultimate_iterate_coloring", None),
    ("gilbreath.walks", "all_red_probability", "walks.all_red_probability", _count_dp_all_red),
    ("gilbreath.walks", "check_bootstrap", "walks.check_bootstrap", _count_dp_bootstrap),
    ("gilbreath.parity", "mask", "parity.mask", None),
    ("gilbreath.parity", "prob_even", "parity.prob_even", None),
)


class Tracer:
    """Records (name, start, end, parent, job) spans of the wrapped calls.

    Calls run on one thread, so spans nest and the innermost open span is
    the parent of the next one.
    """

    def __init__(self, job: int):
        self.job = job
        self.names: list[str] = []
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.open = -1
        self.counters: dict[str, int] = {}

    def install(self) -> None:
        """Wrap every attribute in WRAPS that the program still has."""
        for module_name, path, span, count in WRAPS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            if owner is not None and callable(getattr(owner, attr, None)):
                self._wrap(owner, attr, span, count)

    def _wrap(self, owner, attr: str, span: str, count) -> None:
        fn = getattr(owner, attr)
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.open)
            self.end.append(0)
            self.open = idx
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self.open = self.parent[idx]
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int64),
                 start=np.frombuffer(self.start, np.int64), end=np.frombuffer(self.end, np.int64),
                 parent=np.frombuffer(self.parent, np.int64),
                 job=np.full(len(self.start), self.job, dtype=np.int64))


def span_stats(paths: list[str]) -> dict[str, dict]:
    """Calls, total and self seconds per span name over the given span files.

    Self time is a span's duration minus the durations of its direct
    children; spans nest, so the children never overlap.
    """
    stats: dict[str, dict] = {}
    for path in paths:
        with np.load(path) as z:
            names, name, parent = list(z["names"]), z["name"], z["parent"]
            dur = (z["end"] - z["start"]) / 1e9
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        n = len(names)
        calls = np.bincount(name, minlength=n)
        totals = np.bincount(name, weights=dur, minlength=n)
        selfs = np.bincount(name, weights=dur - child, minlength=n)
        for i, span in enumerate(names):
            s = stats.setdefault(str(span), {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += int(calls[i])
            s["total_s"] += float(totals[i])
            s["self_s"] += float(selfs[i])
    return stats
