#!/usr/bin/env python3
"""Probe how tight the c^2/10 bootstrap conclusion gets on de Bruijn graphs.

Exploratory only: checks ultimate-iterate colorings and random colorings,
reporting the smallest observed slack P(L') / (c^2/10).  Slack 1 would mean a
coloring at the edge of the bound; anything below 1 would be a finding.
"""

import argparse
import random
from fractions import Fraction
from itertools import combinations

from gilbreath.walks import (
    check_bootstrap,
    debruijn_graph,
    random_coloring,
    ultimate_iterate_coloring,
)


def min_slack(g, red, lengths):
    worst = None
    for L in lengths:
        v = check_bootstrap(g, red, L)  # c = the all-red probability at L
        if not v.hypothesis_met or v.threshold == 0:
            continue
        slack = Fraction(v.long_probability, v.threshold)
        if worst is None or slack < worst[0]:
            worst = (slack, L)
    return worst


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--C", type=int, default=3)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--max-length", type=int, default=24)
    ap.add_argument("--random-colorings", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    g = debruijn_graph(args.C, args.k)
    lengths = range(2, args.max_length + 1)
    print(f"de Bruijn graph: {g.n} vertices, degree {g.d}")

    observed = []
    for r in range(1, args.C):
        for targets in combinations(range(args.C), r):
            red = ultimate_iterate_coloring(args.C, args.k, targets)
            if not red.any() or red.all():
                continue
            worst = min_slack(g, red, lengths)
            if worst:
                print(f"targets {set(targets)}: |red|={int(red.sum()):>4}  "
                      f"min slack {float(worst[0]):9.3f} at L={worst[1]}")
                observed.append(worst[0])

    rng = random.Random(args.seed)
    for _ in range(args.random_colorings):
        red = random_coloring(g.n, rng, red_fraction=rng.uniform(0.1, 0.9))
        worst = min_slack(g, red, lengths)
        if worst:
            observed.append(worst[0])

    tightest = min(observed)
    print(f"tightest slack observed: {float(tightest):.3f} "
          f"(bound respected everywhere: {tightest >= 1})")
    if tightest < 1:
        print("FINDING: bootstrap conclusion violated -- rerun with gilbreath "
              "bootstrap to reproduce")


if __name__ == "__main__":
    main()
