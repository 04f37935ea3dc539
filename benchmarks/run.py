"""Benchmark of the gilbreath CLI: four batch workloads, timed end to end.

Run from the repository root:

    python3 benchmarks/run.py --workload mc-collapse --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Every job calls ``gilbreath.cli.main(argv)`` in a fresh worker process
(worker.py), one job at a time, so a job has both cores to itself.

``--trace 0`` repeats the workload's job until ``--seconds`` have passed and
reports the end-to-end metrics: medians over jobs of wall time (job_s),
user+sys CPU time (cpu_s) and peak RSS of the job's workers (peak_rss_mb),
and over workers of the import time (setup_s), plus the share of jobs that
failed.

``--trace 1`` runs one traced job of every workload, so that every layer is
covered whichever workload is named, then the unit-op microbenchmarks
(micro.py), then untraced jobs of the named workload until ``--seconds``
have passed, and reports the per-layer metrics and the tracing overhead.

Every job's output is checked (workloads.py).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it give the same numbers for a reader.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from tracing import span_stats
from workloads import WORKLOADS, check, commands, layer_metrics
from micro import OPS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
RUN_LIMIT_S = 170  # per workload: a one-workload run must end within 180 s


class WorkerFailed(Exception):
    pass


class Runner:
    """Starts workers one at a time and stops them all by the run's hard deadline."""

    def __init__(self, seed: int, limit_s: float):
        self.seed = seed
        self.deadline = time.monotonic() + limit_s
        os.makedirs(OUT, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
        self.env = {k: v for k, v in os.environ.items() if k != "GILBREATH_THREADS"}
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.jobs = 0

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def worker(self, spec: dict) -> dict:
        if self.time_left() <= 0:
            raise WorkerFailed("run time limit reached")
        try:
            proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(spec)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=self.time_left())
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker killed at the run time limit: {spec}") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr[-1500:]}")
        return json.loads(lines[-1])

    def job(self, workload: str, trace: bool = False) -> dict:
        """One job of `workload`, checked; with `trace`, also its layer metrics."""
        self.jobs += 1
        out = tempfile.mkdtemp(prefix="job-", dir=self.scratch)
        reports: list[dict] = []
        job = {"workload": workload, "error": None}
        try:
            span_files = []
            for k, argv in enumerate(commands(workload, self.seed, out)):
                spec = {"argv": argv, "job": self.jobs}
                if trace:
                    os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
                    spec["trace"] = os.path.join(OUT, "trace", f"{workload}-{k}.npz")
                    span_files.append(spec["trace"])
                rep = self.worker(spec)
                reports.append(rep)
                if rep["rc"] != 0:
                    raise WorkerFailed(f"{argv[0]} exited {rep['rc']}: {rep['output_tail'][-1500:]}")
            check(workload, out)
            if trace:
                counters: dict = {}
                for rep in reports:
                    for key, value in rep["counters"].items():
                        counters[key] = counters.get(key, 0) + value
                job["layers"] = layer_metrics(workload, span_stats(span_files), counters,
                                              reports, out)
        except Exception:  # a failed job is counted, reported and the run goes on
            job["error"] = traceback.format_exc(limit=2).strip().splitlines()[-1]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        job["setup_s"] = [r["setup_s"] for r in reports]
        job["job_s"] = sum(r["job_s"] for r in reports)
        job["cpu_s"] = sum(r["cpu_s"] for r in reports)
        job["peak_rss_mb"] = max((r["peak_rss_mb"] for r in reports), default=0.0)
        return job

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"none (needs >= 11 jobs, have {n})"
    k = n - 10  # ten samples lie above the k-th smallest
    return f"p{100 * k / n:.0f} = {sorted(values)[k - 1]:.4f}"


def measure(runner: Runner, workload: str, seconds: float) -> tuple[dict, list[dict]]:
    """End-to-end metrics of `workload`: jobs repeated until `seconds` have passed."""
    jobs: list[dict] = []
    start = time.monotonic()
    while not jobs or (runner.time_left() > 0 and time.monotonic() - start < seconds):
        jobs.append(runner.job(workload))
    failed = sum(j["error"] is not None for j in jobs)
    print(f"{workload}: seed {runner.seed}, {len(jobs)} jobs, {failed} failed")
    print(f"  error_rate   {failed / len(jobs):.4f} fraction   ({failed}/{len(jobs)} jobs)")
    # Failed jobs count only when no job passed, and then only if a worker reported.
    timed = [j for j in jobs if j["error"] is None] or [j for j in jobs if j["setup_s"]]
    if not timed:
        return {}, jobs
    setup = [t for j in jobs for t in j["setup_s"]]
    job_s = [j["job_s"] for j in timed]
    metrics = {
        "job_s": statistics.median(job_s),
        "cpu_s": statistics.median(j["cpu_s"] for j in timed),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in timed),
        "setup_s": statistics.median(setup),
    }
    print(f"  job_s        {metrics['job_s']:.4f} s   median of {len(job_s)} jobs; "
          f"highest percentile with >= 10 jobs beyond it: {tail_percentile(job_s)}")
    print(f"               samples: {' '.join(f'{t:.3f}' for t in job_s)}")
    print(f"  cpu_s        {metrics['cpu_s']:.4f} s   median user+sys of worker and children")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  median over jobs of the largest VmHWM "
          f"of a job's workers")
    print(f"  setup_s      {metrics['setup_s']:.4f} s   median of {len(setup)} imports of gilbreath.cli")
    return metrics, jobs


def last_level_cache() -> str:
    sizes = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                sizes[level] = fh.read().strip()
        except (OSError, ValueError):
            continue
    return f"L{max(sizes)} {sizes[max(sizes)]}" if sizes else "unknown"


def trace(runner: Runner, targets: list[str], seconds: float) -> tuple[dict, list[dict]]:
    """Per-layer metrics: traced jobs of every workload, microbenchmarks, overhead."""
    start = time.monotonic()
    metrics: dict = {}
    jobs: list[dict] = []
    traced = {}
    for workload in WORKLOADS:
        job = traced[workload] = runner.job(workload, trace=True)
        jobs.append(job)
        metrics.update(job.get("layers", {}))
    print(f"unit ops (last-level cache {last_level_cache()}; bytes moved are computed, not measured):")
    for op in OPS:
        job = {"workload": f"micro.{op}", "error": None}
        try:
            rep = runner.worker({"micro": op})
            metrics.update(rep["metrics"])
            for what, nbytes in rep["sizes"].items():
                print(f"  {op}: {what} {nbytes / 2**20:.1f} MiB")
        except WorkerFailed as exc:
            job["error"] = str(exc)
        jobs.append(job)
    for dtype, itemsize in (("uint8", 1), ("uint16", 2), ("int64", 8)):
        ns = metrics.get(f"triangle.step_ns_per_cell.{dtype}")
        if ns:
            # max, min and subtract each read two n-cell views and write one.
            print(f"  step_array {dtype}: {9 * itemsize} B/cell computed, "
                  f"{9 * itemsize / ns:.2f} GB/s computed")
    for workload in targets:
        untraced = []
        while not untraced or (runner.time_left() > 0 and time.monotonic() - start < seconds):
            untraced.append(runner.job(workload))
        jobs.extend(untraced)
        base = statistics.median(j["job_s"] for j in untraced)
        name = "trace_overhead_s" if len(targets) == 1 else f"trace_overhead_s.{workload}"
        metrics[name] = traced[workload]["job_s"] - base
        print(f"{workload}: traced job_s {traced[workload]['job_s']:.4f} s, untraced median "
              f"{base:.4f} s over {len(untraced)} jobs")
    return metrics, jobs


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "gilbreath", "cli.py")):
        print(f"error: no program to benchmark at {ROOT}/src/gilbreath", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    def unit_of(name: str) -> str:
        # With --workload all, names carry the workload as a prefix or suffix.
        for w in ("",) + WORKLOADS:
            for base in (name.removeprefix(f"{w}."), name.removesuffix(f".{w}")):
                if base in units:
                    return units[base]
        raise KeyError(name)

    targets = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runner = Runner(args.seed, RUN_LIMIT_S * len(targets))
    try:
        try:
            runner.worker({})  # first import: compiles the program's bytecode, untimed
        except WorkerFailed as exc:
            print(f"error: the program does not import: {exc}", file=sys.stderr)
            return 1
        metrics: dict = {}
        jobs: list[dict] = []
        if args.trace:
            metrics, jobs = trace(runner, targets, args.seconds)
            for name, value in sorted(metrics.items()):
                print(f"  {name} = {value:.6g} {unit_of(name)}")
        else:
            for workload in targets:
                got, done = measure(runner, workload, args.seconds)
                jobs.extend(done)
                prefix = "" if len(targets) == 1 else f"{workload}."
                metrics.update({prefix + k: v for k, v in got.items()})
        for job in jobs:
            if job["error"] is not None:
                print(f"FAILED {job['workload']}: {job['error']}", file=sys.stderr)
    finally:
        runner.close()
    failed = sum(j["error"] is not None for j in jobs)
    kind = "per_layer" if args.trace else "end_to_end"
    if len(targets) == 1 and not failed:
        want = {m["name"] for m in declared[kind]}
        if set(metrics) != want:
            print(f"error: measured metrics differ from BENCHMARK.json {kind}: "
                  f"missing {sorted(want - set(metrics))}, extra {sorted(set(metrics) - want)}",
                  file=sys.stderr)
            return 1
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
