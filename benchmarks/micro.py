"""Unit-op microbenchmarks, one per layer operation the roadmap names.

Each op runs in its own fresh worker (see worker.py), so memo tables such as
the parity mask table start cold.  An op returns its metrics and the sizes in
bytes of the arrays it works on, and raises CheckFailed when its result is
wrong.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import require

ROW_CELLS = 5_761_454  # the first prime-gap row at N = 1e8
SEGMENT = 1 << 20


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sieve_segment() -> dict:
    """Median time of one 2**20 segment of the 1e8 sieve, over its first 24 segments."""
    from gilbreath.primes import SieveConfig, sieve_segments

    gen = sieve_segments(SieveConfig(100_000_000, SEGMENT))
    times = []
    count = 0
    for _ in range(24):
        t0 = time.perf_counter()
        seg = next(gen)
        times.append(time.perf_counter() - t0)
        count += len(seg)
    require(count == 1_575_661, f"{count} primes below 24 * 2**20 + 2, want pi(25165825)")
    return {"metrics": {"micro.sieve_segment_ms": statistics.median(times) * 1e3},
            "sizes": {"segment mask": SEGMENT}}


def step_array() -> dict:
    """Ns per cell of one differencing step on a 5,761,454-cell row, per dtype."""
    from gilbreath.triangle import step_array

    rng = np.random.default_rng(0)
    metrics, sizes = {}, {}
    for dtype, high in (("uint8", 256), ("uint16", 65536), ("int64", 1 << 40)):
        row = rng.integers(0, high, size=ROW_CELLS).astype(dtype)
        out = step_array(row)
        require(out.dtype == row.dtype and out.size == ROW_CELLS - 1
                and np.array_equal(out[:1000], np.abs(np.diff(row[:1001].astype(np.int64)))),
                f"step_array wrong on {dtype}")
        t = _median_time(lambda: step_array(row), 15)
        metrics[f"triangle.step_ns_per_cell.{dtype}"] = t / ROW_CELLS * 1e9
        sizes[f"step_array {dtype} row"] = row.nbytes
    return {"metrics": metrics, "sizes": sizes}


def predicate() -> dict:
    """Ns per cell of stabilization_predicate on a 1-then-{0,2} row (a full scan)."""
    from gilbreath.primes import stabilization_predicate

    rng = np.random.default_rng(0)
    row = (2 * rng.integers(0, 2, size=ROW_CELLS)).astype(np.uint8)
    row[0] = 1
    require(stabilization_predicate(row) is True, "predicate rejects a 0/2 tail")
    t = _median_time(lambda: stabilization_predicate(row), 15)
    return {"metrics": {"micro.predicate_ns_per_cell": t / ROW_CELLS * 1e9},
            "sizes": {"predicate uint8 row": row.nbytes}}


def stream_setup() -> dict:
    """Microseconds to set up one trial's RNG stream and its recorded fingerprint."""
    from gilbreath.experiments import derive_trial_stream, derived_seed

    def setup_2000():
        for i in range(2000):
            derive_trial_stream(7, i)
            derived_seed(7, i)

    t = _median_time(setup_2000, 5)
    return {"metrics": {"micro.stream_setup_us": t / 2000 * 1e6}, "sizes": {}}


def ultimate_depth10() -> dict:
    """Microseconds per ultimate_iterate of a depth-10 row over {0, 1, 2}."""
    from gilbreath.triangle import batch_ultimate, ultimate_iterate

    rows = np.random.default_rng(0).integers(0, 3, size=(20_000, 10))
    lists = rows.tolist()
    values = [ultimate_iterate(r) for r in lists]
    require(values == batch_ultimate(rows).tolist(), "ultimate_iterate != batch_ultimate")
    t = _median_time(lambda: [ultimate_iterate(r) for r in lists], 5)
    return {"metrics": {"triangle.ultimate_us.depth10": t / len(lists) * 1e6}, "sizes": {}}


def dp_step() -> dict:
    """Milliseconds per step of the all-red walk DP on de Bruijn(4, 8)."""
    from gilbreath.walks import all_red_probability, debruijn_graph, ultimate_iterate_coloring

    g = debruijn_graph(4, 8)
    col = ultimate_iterate_coloring(4, 8, [0])
    steps = 8
    t_short = _median_time(lambda: all_red_probability(g, col, 1), 3)
    t_long = _median_time(lambda: all_red_probability(g, col, 1 + steps), 3)
    require(0 < all_red_probability(g, col, 1 + steps).value <= 1, "probability out of range")
    return {"metrics": {"micro.dp_step_ms": (t_long - t_short) / steps * 1e3}, "sizes": {}}


def mask_cold() -> dict:
    """Seconds for parity.mask(100000) in a process that has built no mask yet."""
    from gilbreath.parity import mask

    t0 = time.perf_counter()
    m = mask(100_000)
    t = time.perf_counter() - t0
    require(m.size == 2 ** bin(100_000).count("1"), f"|J_100000| = {m.size}")
    return {"metrics": {"parity.mask_cold_s": t}, "sizes": {}}


OPS = {
    "sieve_segment": sieve_segment,
    "step_array": step_array,
    "predicate": predicate,
    "stream_setup": stream_setup,
    "ultimate_depth10": ultimate_depth10,
    "dp_step": dp_step,
    "mask_cold": mask_cold,
}
