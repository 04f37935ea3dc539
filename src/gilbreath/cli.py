"""Command-line entry point.

Subcommands: triangle, parity, blocks, bootstrap, experiment, primes, exotic.
Every run is seeded (default 0, so unseeded runs reproduce; --seed random opts
into entropy), writes deterministic JSONL records to --out, and emits a
run manifest on stderr.  Exit codes: 0 success, 1 usage or input error, 2 a
falsified invariant (dumped as a minimal reproducer).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import secrets
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Iterable, Iterator

import numpy as np

from . import __version__, experiments, lifting, parity, primes, walks
from .blocks import check_block_destruction, detect_event_cascade, longest_block
from .triangle import (
    Finding,
    all_in_zero_d,
    all_le_one,
    first_not_one,
    iterate_until,
    never,
    stabilization_predicate,
    validate_row,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FINDING = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; findings own that code here.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def int_row(text: str) -> list[int]:
    """argparse type for comma-separated rows: a bad entry is a usage error naming the option."""
    try:
        return validate_row([int(tok) for tok in text.replace(",", " ").split()])
    except ValueError as exc:  # argparse would drop a plain ValueError's reason
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def int_set(text: str) -> list[int]:
    """argparse type for value sets (--allowed, --targets), which may be empty."""
    return int_row(text) if text.strip() else []


def seed_or_random(text: str) -> int | str:
    """argparse type for --seed: an integer >= 0, or 'random'.

    random.Random seeds with abs(n), so a negative seed would repeat the draws
    of a positive one under another run_id.
    """
    if text == "random":
        return text
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer or 'random': {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    return seed


def fraction(text: str) -> Fraction:
    """argparse type for --c: a zero denominator is a usage error, not a traceback."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def int_pair(text: str) -> tuple[int, int]:
    """argparse type for 'A,B' options: a malformed pair is a usage error naming the option."""
    a, b = (int(tok) for tok in text.replace(",", " ").split())
    return a, b


def _resolve_seed(seed: int | str) -> int:
    if seed == "random":
        seed = secrets.randbits(63)
        print(f"seed={seed}", file=sys.stderr)
    return seed


def _run_id(subcommand: str, params: dict, seed: int) -> str:
    blob = json.dumps({"cmd": subcommand, "params": params, "seed": seed},
                      sort_keys=True, separators=(",", ":"), default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# A handler's output: (record kind, record params, result dicts).
Group = tuple[str, dict, Iterable[dict]]

# One encoder for every record.  JSONEncoder.encode builds a new C encoder on
# every call, so the writer builds one here from _ENC's settings, as iterencode
# does, and calls it directly.  Each record is a fresh tree, so no cycle check.
_ENC = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_encode = c_make_encoder(None, _ENC.default, encode_basestring_ascii, _ENC.indent,
                         _ENC.key_separator, _ENC.item_separator, _ENC.sort_keys,
                         _ENC.skipkeys, _ENC.allow_nan)


def _stamp(command: str, seed: int, groups: list[Group]) -> Iterator[str]:
    """The JSON lines of a handler's groups; a group's records share one run_id.

    A record's keys sort as kind < params < result < run_id < seed, so each
    group's head and tail are encoded once and every result is spliced in
    between them.
    """
    for kind, params, results in groups:
        head = "".join(_encode({"kind": kind, "params": params}, 0))[:-1] + ',"result":'
        stamp = {"run_id": _run_id(command, params, seed), "seed": seed}
        tail = "," + "".join(_encode(stamp, 0))[1:] + "\n"
        for result in results:
            yield head + "".join(_encode(result, 0)) + tail


def _write_records(lines: Iterable[str], out: str) -> None:
    """Write the lines to `out`.  A regular file appears only once every line is
    written, by a rename from a temporary file beside it; an existing
    non-regular file, such as /dev/null, is written directly."""
    if os.path.exists(out) and not os.path.isfile(out):
        with open(out, "w") as fh:
            fh.writelines(lines)
        return
    target = os.path.realpath(out)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(lines)
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _manifest(subcommand: str, params: dict, seed: int, started: float) -> None:
    # --out says where records go, not what they are, so the run_id ignores it.
    obj = {
        "run_id": _run_id(subcommand, {k: v for k, v in params.items() if k != "out"}, seed),
        "subcommand": subcommand,
        "config": params,
        "seed": seed,
        "version": __version__,
        "started": started,
        "finished": time.time(),
    }
    print(json.dumps(obj, sort_keys=True, default=str), file=sys.stderr)


_STOP_CHOICES = {
    "le1": all_le_one,
    "zero-d": all_in_zero_d,  # a factory: --d picks the rule
    "first-not-one": first_not_one,
    "stable": stabilization_predicate,
    "none": never,
}


def _cmd_triangle(args) -> list[Group]:
    row = args.values
    stop = _STOP_CHOICES[args.stop]
    _require(args.d is None or stop is all_in_zero_d, "--d needs --stop zero-d")
    if stop is all_in_zero_d:
        _require(args.d is not None, "--stop zero-d needs --d")
        stop = all_in_zero_d(args.d)
    res = iterate_until(row, stop, args.max_iters, retain=True)
    for r in res.rows:
        print(" ".join(str(v) for v in r))
    params = {"values": row, "stop": args.stop, "max_iters": args.max_iters, "d": args.d}
    result = {"rows": res.rows, "iterations": res.iterations, "reason": res.reason}
    return [("triangle", params, [result])]


def _cmd_parity(args) -> list[Group]:
    groups = []
    if args.depth is not None:
        m = parity.mask(args.depth)
        members = sorted(m.members)
        params = {"depth": args.depth}
        result = {"members": members, "size": m.size}
        print(f"J_{args.depth}: {members} (size {m.size})")
        groups.append(("parity_mask", params, [result]))
    if args.prob_even is not None:
        (c_lo, c_hi), (i_lo, i_hi) = args.prob_even, args.depths
        _require(c_lo <= c_hi and i_lo <= i_hi, "--prob-even and --depths need MIN <= MAX")
        probs = []
        for C in range(c_lo, c_hi + 1):
            for i in range(i_lo, i_hi + 1):
                p = parity.prob_even(C, i)
                probs.append(p)
                params = {"C": C, "depth": i}
                result = {"prob_even": str(p), "float": float(p)}
                groups.append(("prob_even", params, [result]))
        lo, hi = min(probs), max(probs)
        print(f"prob_even over C in [{c_lo},{c_hi}], depth in [{i_lo},{i_hi}]: "
              f"min {lo} ({float(lo):.6f}), max {hi} ({float(hi):.6f})")
    if not groups:
        raise ValueError("parity: give --depth and/or --prob-even")
    return groups


def _cmd_blocks(args) -> list[Group]:
    row = args.values
    groups = []
    _require(args.witness is None or args.allowed is not None, "--witness needs --allowed")
    if args.allowed is not None:
        rep = longest_block(row, args.allowed, args.witness)
        params = {"values": row, "allowed": sorted(set(args.allowed)), "witness": args.witness}
        print(f"longest block: length {rep.max_length} at position {rep.start_index}")
        groups.append(("block_report", params, [asdict(rep)]))
    if args.destruction:
        verdict = check_block_destruction(row)
        print(f"max-destruction: d={verdict.d} L={verdict.block_length} "
              f"applicable={verdict.applicable} holds={verdict.holds}")
        groups.append(("block_destruction", {"values": row}, [asdict(verdict)]))
        if verdict.applicable and not verdict.holds:
            raise Finding("max-destruction bound falsified", {"row": row})
    if args.events is not None:
        C, R = args.events
        reports = detect_event_cascade(row, C, R)
        params = {"values": row, "C": C, "R": R}
        result = {"events": [asdict(e) for e in reports]}
        for e in reports:
            print(f"E_{e.j}: iteration {e.iteration}, {{0,{e.allowed[1]}}}-block of length "
                  f">= {e.required_length}: {e.status}")
        groups.append(("event_cascade", params, [result]))
    if not groups:
        raise ValueError("blocks: give --allowed, --destruction, and/or --events")
    return groups


def _build_graph(args, rng_seed: int) -> tuple[walks.RegularDigraph, np.ndarray, dict, str]:
    """The graph, its red mask, its record params, and a stdout line about it ('' if none)."""
    import random as _random

    _require(args.targets is None or args.debruijn is not None, "--targets needs --debruijn")
    _require(args.red_fraction is None or args.random_graph is not None,
             "--red-fraction needs --random")
    if args.graph is not None:
        with open(args.graph) as fh:
            g, red = walks.parse_walk_instance(fh.read())
        if red is None:
            raise ValueError("graph file must end with a coloring line of 'r'/'b'")
        return g, red, {"graph": args.graph}, ""
    if args.cycle is not None:
        n = args.cycle
        g, red, L, c, long_prob = walks.remark_counterexample(n)
        note = (f"cycle n={n}: red first {n // 10}, L={L}, c={c}, "
                f"all-red probability at 5L: {long_prob.value}")
        return g, red, {"cycle": n}, note
    if args.debruijn is not None:
        C, k = args.debruijn
        targets = [0] if args.targets is None else args.targets
        top = max(targets, default=0)
        _require(top < C, f"--targets: {top} >= C = {C} is never an ultimate iterate")
        g = walks.debruijn_graph(C, k)
        red = walks.ultimate_iterate_coloring(C, k, targets)
        return g, red, {"debruijn": [C, k], "targets": targets}, ""
    n, d = args.random_graph
    red_fraction = 0.5 if args.red_fraction is None else args.red_fraction
    _require(0 <= red_fraction <= 1, f"--red-fraction must lie in [0, 1], not {red_fraction}")
    rng = _random.Random(rng_seed)
    g = walks.random_regular_digraph(n, d, rng)
    red = walks.random_coloring(n, rng, red_fraction)
    return g, red, {"random": [n, d], "red_fraction": red_fraction}, ""


def _exact_fractions(items: list[tuple[str, object]]) -> dict:
    """asdict factory: each Fraction as its exact str(), 'n/d' or a whole 'n'."""
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in items}


def _cmd_bootstrap(args) -> list[Group]:
    g, red, source, note = _build_graph(args, args.seed)
    L = args.length
    start = time.perf_counter()
    verdict = walks.check_bootstrap(g, red, L, args.c)
    if note:  # only once check_bootstrap has accepted --c: an input error prints nothing
        print(note)
    stats = {"dp_steps": (verdict.long_length or L) - 1,
             "seconds": time.perf_counter() - start}
    print(f"stats: {json.dumps(stats, sort_keys=True)}", file=sys.stderr)
    c = args.c if args.c is not None else verdict.short_probability
    params = dict(source, n=g.n, d=g.d, length=L, c=str(c))
    result = asdict(verdict, dict_factory=_exact_fractions)
    result["short_float"] = float(verdict.short_probability)
    print(f"all-red P(L={L}) = {verdict.short_probability} "
          f"({float(verdict.short_probability):.6g})")
    if verdict.hypothesis_met:
        print(f"bootstrap: P(L'={verdict.long_length}) = {verdict.long_probability} "
              f">= c^2/10 = {verdict.threshold}: {verdict.holds}")
    else:
        print(f"hypothesis unmet: P(L) < c = {c}")
    if verdict.hypothesis_met and not verdict.holds:
        raise Finding("bootstrap conclusion falsified",
                      {"graph": walks.format_walk_instance(g, red), "L": L, "c": str(c)})
    return [("bootstrap", params, [result])]


def _cmd_experiment(args) -> list[Group]:
    # A kind's subparser declares only the options that kind reads; the others are absent.
    cfg = experiments.ExperimentConfig(
        kind=args.kind, M=args.M, trials=args.trials, seed=args.seed, C=getattr(args, "C", None),
        T=getattr(args, "T", None), trial_offset=args.trial_offset,
        schedule=experiments.Schedule.parse(args.f) if "f" in args else None,
        weights=tuple(args.weights) if getattr(args, "weights", None) else None)

    def results() -> Iterator[dict]:
        start = time.perf_counter()
        for result in experiments.run_experiment(cfg):
            yield result
        # The last result is the aggregate; main has drained the stream.
        seconds = time.perf_counter() - start
        print(f"aggregate: {json.dumps(result, sort_keys=True)}")
        stats = {"trials": cfg.trials, "streams": len(cfg.streams), "seconds": seconds,
                 "trials_per_s": cfg.trials / seconds}
        print(f"stats: {json.dumps(stats, sort_keys=True)}", file=sys.stderr)

    return [(cfg.kind, cfg.params(), results())]


def _cmd_primes(args) -> list[Group]:
    verdict = primes.verify_gilbreath(
        args.limit,
        max_full_rows=args.max_full_rows,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )
    if verdict.status == "verified" and verdict.stabilization_row is not None:
        print(f"verified, stabilization row {verdict.stabilization_row}")
    else:
        print(verdict.status)
    print(f"rows confirmed: {verdict.verified_rows}, full rows iterated: {verdict.rows_iterated}")
    params = {"limit": args.limit, "max_full_rows": args.max_full_rows}
    if verdict.status == "violated":
        raise Finding("leading entry != 1 in the prime difference triangle",
                      {"limit": args.limit, "row": verdict.verified_rows + 1})
    return [("primes", params, [asdict(verdict)])]


def _cmd_exotic(args) -> list[Group]:
    import random as _random

    if args.verify is not None:
        _require(args.cap is None and args.width is None, "--verify takes no --cap or --width")
        with open(args.verify) as fh:
            cert = lifting.ExoticCertificate.from_record(fh.read())
        ok = lifting.verify_certificate(cert)
        print(f"certificate {'valid' if ok else 'INVALID'}: d={cert.d}, "
              f"width {len(cert.initial)}, pure from row {cert.first_pure_row}")
        params = {"verify": args.verify}
        result = {"valid": ok, "d": cert.d, "first_pure_row": cert.first_pure_row}
        return [("exotic_verify", params, [result])]
    _require(args.cap is not None and args.width is not None, "--seed-row needs --cap and --width")
    cert = lifting.lift_search(args.seed_row, args.cap, args.width, args.budget,
                               _random.Random(args.seed))
    params = {"seed_row": args.seed_row, "cap": args.cap, "width": args.width,
              "budget": args.budget}
    if cert is None:
        print("none found within budget")
        result: dict = {"found": False}
    else:
        print(f"found width-{len(cert.initial)} initial row, {{0,{cert.d}}}-pure from row "
              f"{cert.first_pure_row}: {' '.join(str(v) for v in cert.initial)}")
        result = {"found": True, **asdict(cert)}
    return [("exotic_search", params, [result])]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gilbreath",
        description="Absolute-difference triangles: verification tools and experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=seed_or_random, default="0",
                       help="integer seed, or 'random' for entropy (default 0)")
        p.add_argument("--out", help="write JSONL records to this file")

    p = sub.add_parser("triangle", help="print the difference triangle of a row")
    p.add_argument("--values", type=int_row, required=True, help="comma-separated row entries")
    p.add_argument("--stop", choices=list(_STOP_CHOICES), default="none")
    p.add_argument("--d", type=int, help="d for the zero-d stop rule")
    p.add_argument("--max-iters", type=int)
    common(p)

    p = sub.add_parser("parity", help="parity masks and even-probability tables")
    p.add_argument("--depth", type=int, help="emit the mask at this depth")
    p.add_argument("--prob-even", type=int_pair, help="alphabet range 'CMIN,CMAX' for the table")
    p.add_argument("--depths", type=int_pair, default="1,64",
                   help="depth range 'IMIN,IMAX' (default 1,64)")
    common(p)

    p = sub.add_parser("blocks", help="block reports and block-lemma checks")
    p.add_argument("--values", type=int_row, required=True)
    p.add_argument("--allowed", type=int_set, help="allowed-value set, e.g. '0,2'")
    p.add_argument("--witness", type=int, help="value the block must contain")
    p.add_argument("--destruction", action="store_true",
                   help="check the max-destruction bound on the row")
    p.add_argument("--events", type=int_pair,
                   help="'C,R' to report the event cascade of the row's triangle")
    common(p)

    p = sub.add_parser("bootstrap", help="exact all-red walk probabilities and the bootstrap check")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph",
                        help="graph file: 'n d', n successor lines, then r/b coloring line")
    source.add_argument("--cycle", type=int, help="n-cycle with first n/10 vertices red")
    source.add_argument("--debruijn", type=int_pair,
                        help="'C,k' de Bruijn graph with ultimate-iterate coloring")
    source.add_argument("--random", dest="random_graph", type=int_pair,
                        help="'n,d' seeded random regular digraph")
    p.add_argument("--targets", type=int_set,
                   help="red targets for --debruijn (default '0'; '' colours none)")
    p.add_argument("--red-fraction", type=float, help="red share for --random (default 0.5)")
    p.add_argument("--length", type=int, required=True, help="walk length L")
    p.add_argument("--c", type=fraction,
                   help="hypothesis threshold (fraction, default: exact P at L)")
    common(p)

    p = sub.add_parser("experiment", help="seeded Monte Carlo runs, JSONL trials + aggregate")
    kinds = p.add_subparsers(required=True)
    k = kinds.add_parser("collapse")
    k.set_defaults(kind="uniform_collapse")
    k.add_argument("--M", type=int, required=True, help="sequence length")
    k.add_argument("--C", type=int, required=True, help="alphabet size")
    k.add_argument("--T", type=int, help="iteration budget (default M-1)")
    k.add_argument("--weights", type=float, nargs="+",
                   help="per-symbol weights for weighted collapse sampling")
    k = kinds.add_parser("increasing-alphabet")
    k.set_defaults(kind="increasing_alphabet")
    k.add_argument("--M", type=int, required=True, help="sequence length")
    k.add_argument("--f", required=True, help="alphabet schedule: constant 'k' or '1:k1,n2:k2,...'")
    k.add_argument("--T", type=int, help="iteration budget (default M-1)")
    k = kinds.add_parser("leading-term")
    k.set_defaults(kind="gap_leading_term")
    k.add_argument("--M", type=int, required=True, help="sequence length")
    k.add_argument("--f", required=True, help="alphabet schedule: constant 'k' or '1:k1,n2:k2,...'")
    k = kinds.add_parser("ultimate-zero")
    k.set_defaults(kind="ultimate_zero")
    k.add_argument("--C", type=int, required=True, help="alphabet size")
    k.add_argument("--depth", dest="M", metavar="DEPTH", type=int, required=True, help="row length")
    for k in kinds.choices.values():
        k.add_argument("--trials", type=int, required=True)
        k.add_argument("--trial-offset", type=int, default=0,
                       help="first trial index (disjoint batches share a seed)")
        common(k)

    p = sub.add_parser("primes", help="verify the prime difference triangle up to a limit")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--max-full-rows", type=int, default=10_000, metavar="D",
                   help="depth cap D; each sieve window overlaps the one before by D gaps")
    p.add_argument("--checkpoint", help="checkpoint file path")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                   help="write --checkpoint after every K-th sieve segment; "
                        "needed with --checkpoint unless --resume")
    p.add_argument("--resume", action="store_true", help="resume from --checkpoint")
    common(p)

    p = sub.add_parser("exotic", help="lift a {0,d} row upward into an exotic initial sequence")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seed-row", type=int_row, help="the {0,d}-valued row to lift")
    mode.add_argument("--verify", metavar="FILE",
                      help="verify the JSONL exotic_search record that --out wrote")
    p.add_argument("--cap", type=int, help="alphabet cap for lifted entries")
    p.add_argument("--width", type=int, help="target initial-row width")
    p.add_argument("--budget", type=int, default=100_000, help="DFS node budget")
    common(p)

    return parser


_HANDLERS = {
    "triangle": _cmd_triangle,
    "parity": _cmd_parity,
    "blocks": _cmd_blocks,
    "bootstrap": _cmd_bootstrap,
    "experiment": _cmd_experiment,
    "primes": _cmd_primes,
    "exotic": _cmd_exotic,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        args.seed = _resolve_seed(args.seed)
        # Fail before the handler: a primes run can take minutes before it writes.
        if args.out is not None:
            target = os.path.realpath(args.out)
            _require(os.path.isdir(os.path.dirname(target)) and not os.path.isdir(target),
                     f"--out {args.out}: not a file in an existing directory")
        groups = _HANDLERS[args.command](args)
        if args.out is None:  # drain the results (an experiment prints at the end); encode none
            for _, _, results in groups:
                collections.deque(results, maxlen=0)
        else:
            _write_records(_stamp(args.command, args.seed, groups), args.out)
    except Finding as finding:
        print(f"FINDING: {finding}", file=sys.stderr)
        print(json.dumps({"finding": str(finding), "reproducer": finding.reproducer},
                         sort_keys=True), file=sys.stderr)
        return EXIT_FINDING
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        public = {k: v for k, v in vars(args).items() if k not in ("command", "seed")}
        _manifest(args.command, public, args.seed, started)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
