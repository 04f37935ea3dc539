#!/usr/bin/env python3
"""Verify the prime difference triangle at increasing limits.

The stabilization row at each limit is a recorded observation, not an asserted
constant; this script is how those values get logged.  `max_rss` is the peak
resident memory of the process so far (`ru_maxrss`), so it never falls from
one limit to the next.
"""

import argparse
import resource
import time

from gilbreath.primes import verify_gilbreath


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limits", default="10000,100000,1000000,10000000")
    ap.add_argument("--max-full-rows", type=int, default=10_000)
    args = ap.parse_args()

    print(f"{'N':>12} {'status':>12} {'stab_row':>9} {'rows':>10} {'time':>8} {'max_rss':>9}")
    for limit in (int(t) for t in args.limits.split(",")):
        t0 = time.perf_counter()
        v = verify_gilbreath(limit, max_full_rows=args.max_full_rows)
        dt = time.perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(f"{limit:>12} {v.status:>12} {str(v.stabilization_row):>9} "
              f"{v.verified_rows:>10} {dt:>7.2f}s {rss_mb:>6.1f} MB", flush=True)


if __name__ == "__main__":
    main()
