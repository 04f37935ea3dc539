#!/usr/bin/env python3
"""Sweep collapse times over alphabet sizes and lengths.

For each (C, M) cell: sample uniform rows, difference until everything is 0 or
1, and tabulate the median collapse iteration with the collapsed fraction.
"""

import argparse
import time
from collections import deque

from gilbreath.experiments import ExperimentConfig, run_experiment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphabets", default="3,4,5,6")
    ap.add_argument("--lengths", default="1000,10000,100000")
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    alphabets = [int(t) for t in args.alphabets.split(",")]
    lengths = [int(t) for t in args.lengths.split(",")]
    print(f"{'C':>3} {'M':>8} {'collapsed':>10} {'median_it':>10} {'ci':>18}")
    for C in alphabets:
        for M in lengths:
            cfg = ExperimentConfig(kind="uniform_collapse", M=M, trials=args.trials,
                                   seed=args.seed, C=C)
            start = time.perf_counter()
            agg = deque(run_experiment(cfg), maxlen=1).pop()  # the aggregate comes last
            wall_time = time.perf_counter() - start
            ci = f"[{agg['ci_low']:.3f},{agg['ci_high']:.3f}]"
            print(f"{C:>3} {M:>8} {agg['collapsed']:>7}/{args.trials:<3}"
                  f"{str(agg['median_collapse']):>9} {ci:>18}  ({wall_time:.2f}s)")


if __name__ == "__main__":
    main()
