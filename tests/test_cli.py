import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gilbreath import blocks, cli, experiments, triangle, walks
from gilbreath.cli import Finding, _run_id, main

PRIME_TRIANGLE = """\
2 3 5 7 11 13 17
1 2 2 4 2 4
1 0 2 2 2
1 2 0 0
1 2 0
1 2
1
"""


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_triangle_prints_prime_triangle(capsys):
    code, out, _ = run(capsys, "triangle", "--values", "2,3,5,7,11,13,17")
    assert code == 0
    assert out == PRIME_TRIANGLE


def test_triangle_max_iters_bounds_stop_none(capsys):
    code, out, _ = run(capsys, "triangle", "--values", "2,3,5,7,11,13,17", "--max-iters", "2")
    assert code == 0
    assert out == "".join(PRIME_TRIANGLE.splitlines(keepends=True)[:3])


def test_triangle_stop_rule(capsys):
    code, out, _ = run(capsys, "triangle", "--values", "3,0,3,0", "--stop", "le1")
    assert code == 0
    assert out.splitlines()[-1] == "0 0"


@pytest.mark.parametrize("values", ["1,99999999999999999999", "1,9223372036854775808,5"])
def test_triangle_big_entries_stay_exact(capsys, values):
    code, exhausted, _ = run(capsys, "triangle", "--values", values, "--stop", "none")
    assert code == 0
    code, stopped, _ = run(capsys, "triangle", "--values", values, "--stop", "le1")
    assert code == 0
    assert stopped == exhausted
    top, *rest = [[int(v) for v in line.split()] for line in exhausted.splitlines()]
    assert rest[0] == [abs(a - b) for a, b in zip(top, top[1:])]


def test_triangle_rejects_bad_values(capsys):
    code, _, err = run(capsys, "triangle", "--values", "3,-1")
    assert code == 1 and "error" in err


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "--values", "1,2", "--bogus"])
    assert exc.value.code == 1


@pytest.mark.parametrize("option", [("--threads", "8"), ("--format", "csv")],
                         ids=["--threads", "--format"])
def test_removed_option_exits_1(capsys, option):
    code, out, err = run(capsys, "experiment", "collapse", "--M", "200", "--C", "3",
                         "--trials", "8", *option)
    assert code == 1 and not out
    assert f"unrecognized arguments: {' '.join(option)}" in err


@pytest.mark.parametrize("argv, option", [
    (("leading-term", "--M", "10", "--f", "3"), ("--T", "4")),
    (("ultimate-zero", "--C", "3", "--depth", "5"), ("--M", "9")),
    (("ultimate-zero", "--C", "3", "--depth", "5"), ("--weights", "0.5", "0.5", "0.5")),
    (("increasing-alphabet", "--M", "10", "--f", "3"), ("--weights", "0.5", "0.5")),
    (("collapse", "--M", "10", "--C", "3"), ("--depth", "5")),
    # --f belongs to the schedule kinds only.
    (("collapse", "--M", "10", "--C", "3"), ("--f", "3")),
], ids=["leading-term --T", "ultimate-zero --M", "ultimate-zero --weights",
        "increasing-alphabet --weights", "collapse --depth", "collapse --f"])
def test_experiment_foreign_option_exits_1(capsys, argv, option):
    code, out, err = run(capsys, "experiment", *argv, *option, "--trials", "1")
    assert code == 1 and not out
    assert f"unrecognized arguments: {' '.join(option)}" in err


def test_bootstrap_two_graph_sources_exit_1(capsys):
    code, out, err = run(capsys, "bootstrap", "--cycle", "20", "--debruijn", "2,3",
                         "--length", "3")
    assert code == 1 and not out
    assert "argument --debruijn: not allowed with argument --cycle" in err


def test_ultimate_zero_help_lists_its_own_options(capsys):
    code, out, _ = run(capsys, "experiment", "ultimate-zero", "--help")
    assert code == 0
    assert "--depth DEPTH" in out and "--C C" in out
    assert not {"--M", "--T", "--weights", "--f"} & set(out.replace("[", " ").split())


def parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action.choices, dict):  # a subparsers action: name -> parser
            for sub in action.choices.values():
                yield from parsers(sub)


@pytest.mark.parametrize("kind", experiments.KINDS)
def test_an_experiment_subparser_declares_the_options_its_kind_reads(kind):
    (parser,) = [p for p in parsers(cli.build_parser()) if p.get_default("kind") == kind]
    shared = {"help", "M", "trials", "trial_offset", "seed", "out"}
    own = [("schedule" if a.dest == "f" else a.dest, a.required)
           for a in parser._actions if a.dest not in shared]
    assert tuple(name for name, _ in own) == experiments.KINDS[kind]
    assert [name for name, required in own if required] == [experiments.KINDS[kind][0]]


def test_every_help_renders():
    # argparse formats help only when it is shown, so a bad help string fails only then.
    found = list(parsers(cli.build_parser()))
    assert len(found) == 1 + len(cli._HANDLERS) + 4  # the top level, each subcommand, each kind
    for p in found:
        assert p.format_help().startswith(f"usage: {p.prog}")


def test_parity_outputs(capsys, tmp_path):
    out_file = tmp_path / "parity.jsonl"
    code, out, _ = run(capsys, "parity", "--depth", "4",
                       "--prob-even", "2,3", "--depths", "1,4",
                       "--out", str(out_file))
    assert code == 0
    assert "J_4: [1, 5]" in out
    lines = out_file.read_text().splitlines()
    assert len(lines) == 1 + 2 * 4
    mask_obj = json.loads(lines[0])
    assert mask_obj["result"]["members"] == [1, 5]


def test_blocks_report_and_destruction(capsys):
    code, out, _ = run(capsys, "blocks", "--values", "1,0,2,2,2",
                       "--allowed", "0,2", "--destruction")
    assert code == 0
    assert "length 4 at position 2" in out
    assert "holds=True" in out


def test_blocks_events(capsys):
    code, out, _ = run(capsys, "blocks", "--values", "2,3,5,7,11,13,17",
                       "--events", "5,2")
    assert code == 0
    assert "E_1" in out and "absent" in out and "insufficient_history" in out


@pytest.mark.parametrize("events, deepest", [("3,2", 0), ("4,2", 4), ("5,2", 8), ("6,3", 54)])
def test_blocks_events_builds_only_the_rows_it_reads(capsys, monkeypatch, events, deepest):
    row = [(7 * k * k + 3 * k) % 4 for k in range(40)]
    steps = []

    def spy(cur, stop, max_iters):
        res = triangle.iterate_until(cur, stop, max_iters)
        steps.append(res.iterations)
        return res

    monkeypatch.setattr(blocks, "iterate_until", spy)
    code, out, _ = run(capsys, "blocks", "--values", ",".join(map(str, row)), "--events", events)
    assert code == 0
    # Reference: event j reads row 2*R**(j-1) (row 0 for j = 1) of the whole triangle.
    C, R = map(int, events.split(","))
    rows = triangle.iterate_until(row, triangle.never, retain=True).rows
    schedule = [0] + [2 * R ** (j - 1) for j in range(2, C - 1)]
    assert schedule[-1] == deepest

    def status(j, i):
        if i >= len(rows):
            return "insufficient_history"
        block = blocks.longest_block(rows[i], {0, C - j})
        return "fired" if block.max_length >= R**j else "absent"

    expect = [status(j, i) for j, i in enumerate(schedule, 1)]
    assert [line.rsplit(": ", 1)[1] for line in out.splitlines()] == expect
    assert ("insufficient_history" in expect) == (deepest >= len(row))
    # Differenced down to the deepest row read, and no further.
    assert sum(steps) == max(i for i in schedule if i < len(row))


def test_bootstrap_cycle(capsys):
    code, out, _ = run(capsys, "bootstrap", "--cycle", "200", "--length", "10",
                       "--c", "1/20")
    assert code == 0
    assert "11/200" in out
    assert "True" in out


def test_bootstrap_bad_fraction_exits_1(capsys):
    for c in ("x/20", "1/0"):
        with pytest.raises(SystemExit) as exc:
            main(["bootstrap", "--cycle", "200", "--length", "10", "--c", c])
        assert exc.value.code == 1
        assert f"argument --c: invalid fraction value: '{c}'" in capsys.readouterr().err


@pytest.mark.parametrize("c", ["-1", "3/2"])
def test_bootstrap_c_outside_unit_interval_exits_1(capsys, c):
    # A bad threshold is an input error, not a falsified conclusion.
    code, out, err = run(capsys, "bootstrap", "--cycle", "200", "--length", "10", "--c", c)
    assert code == 1 and not out
    assert "error: c must lie in [0, 1]" in err and "FINDING" not in err


def test_bootstrap_hypothesis_unmet(capsys):
    code, out, _ = run(capsys, "bootstrap", "--cycle", "200", "--length", "10", "--c", "1/2")
    assert code == 0
    assert "hypothesis unmet: P(L) < c = 1/2" in out


@pytest.mark.parametrize("argv, message", [
    (("parity", "--prob-even", "2"), "argument --prob-even: invalid int_pair value: '2'"),
    (("parity", "--prob-even", "2,3", "--depths", "1"),
     "argument --depths: invalid int_pair value: '1'"),
    (("parity", "--prob-even", "3,2"), "error: --prob-even and --depths need MIN <= MAX"),
    (("blocks", "--values", "1,2", "--events", "4"), "argument --events: invalid int_pair value"),
    (("bootstrap", "--debruijn", "2", "--length", "4"),
     "argument --debruijn: invalid int_pair value"),
    (("bootstrap", "--random", "3", "--length", "4"), "argument --random: invalid int_pair value"),
    (("bootstrap", "--random", "3,4", "--length", "4"),
     "error: a 4-regular digraph on 3 vertices needs 1 <= d <= n"),
    (("bootstrap", "--random", "6,2", "--red-fraction", "1.5", "--length", "4"),
     "error: --red-fraction must lie in [0, 1], not 1.5"),
    (("bootstrap", "--random", "6,2", "--red-fraction", "-1", "--length", "4"),
     "error: --red-fraction must lie in [0, 1], not -1.0"),
    (("experiment", "leading-term", "--M", "10", "--f", "1:2,x", "--trials", "1"),
     "error: schedule '1:2,x': expected 'k' or '1:k1,n2:k2,...'"),
    (("exotic", "--seed-row", "0,3", "--cap", "3", "--width", "4", "--budget", "-1"),
     "error: budget must be >= 0"),
], ids=["prob-even", "depths", "empty-range", "events", "debruijn", "random", "random-d-above-n",
        "red-fraction-above-1", "red-fraction-below-0", "schedule", "budget"])
def test_bad_input_names_the_input(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert message in err and "unpack" not in err


@pytest.mark.parametrize("argv, message", [
    (("triangle", "--values", "1,a"),
     "argument --values: '1,a': invalid literal for int() with base 10: 'a'"),
    (("triangle", "--values", "3,-1"),
     "argument --values: '3,-1': row entries must be non-negative"),
    (("triangle", "--values", "1,2", "--seed", "abc"),
     "argument --seed: not an integer or 'random': 'abc'"),
    (("blocks", "--values", "1,2", "--allowed", "0,x"),
     "argument --allowed: '0,x': invalid literal"),
    (("bootstrap", "--debruijn", "3,2", "--targets", "0,y", "--length", "4"),
     "argument --targets: '0,y': invalid literal"),
    (("exotic", "--seed-row", "0,z", "--cap", "3", "--width", "4"),
     "argument --seed-row: '0,z': invalid literal"),
], ids=["values", "negative", "seed", "allowed", "targets", "seed-row"])
def test_bad_entry_names_the_option(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1 and message in err


@pytest.mark.parametrize("argv", [
    ("bootstrap", "--random", "6,2", "--length", "3"),
    ("exotic", "--seed-row", "0,3", "--cap", "3", "--width", "4"),
    ("experiment", "ultimate-zero", "--C", "3", "--depth", "5", "--trials", "2"),
], ids=["bootstrap", "exotic", "experiment"])
def test_negative_seed_exits_1(capsys, argv):
    # random.Random(-1) draws what random.Random(1) draws, under another run_id.
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 1 and not out
    assert "argument --seed: must be >= 0: '-1'" in err


def test_bootstrap_graph_file_bad_successor_names_the_vertex(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 2\n0 1\nx 1\nrb\n")
    code, _, err = run(capsys, "bootstrap", "--graph", str(path), "--length", "3")
    assert code == 1
    assert "error: vertex 1: successors must be integers, found 'x 1'" in err


@pytest.mark.parametrize("argv, message", [
    (("triangle", "--values", "1,2", "--stop", "zero-d"), "error: --stop zero-d needs --d"),
    (("parity",), "error: parity: give --depth and/or --prob-even"),
    (("blocks", "--values", "1,2"), "error: blocks: give --allowed, --destruction, and/or --events"),
    (("bootstrap", "--length", "3"),
     "error: one of the arguments --graph --cycle --debruijn --random is required"),
], ids=["zero-d-without-d", "parity", "blocks", "bootstrap"])
def test_nothing_to_do_exits_1(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1 and message in err


@pytest.mark.parametrize("argv, message", [
    (("bootstrap", "--cycle", "200", "--length", "10", "--targets", "0,2", "--red-fraction", "0.9"),
     "error: --targets needs --debruijn"),
    (("bootstrap", "--cycle", "200", "--length", "10", "--red-fraction", "0.9"),
     "error: --red-fraction needs --random"),
    (("blocks", "--values", "1,2", "--destruction", "--witness", "2"),
     "error: --witness needs --allowed"),
    (("triangle", "--values", "1,2", "--d", "2"), "error: --d needs --stop zero-d"),
    (("exotic", "--verify", "c.jsonl", "--cap", "6"), "error: --verify takes no --cap or --width"),
    (("exotic", "--verify", "c.jsonl", "--width", "16"),
     "error: --verify takes no --cap or --width"),
    (("exotic", "--verify", "c.jsonl", "--budget", "5"), "error: --verify takes no --budget"),
    (("parity", "--depth", "4", "--depths", "1,3"), "error: --depths needs --prob-even"),
    (("exotic", "--seed-row", "0,3", "--cap", "3"),
     "error: --seed-row needs --cap and --width"),
    (("exotic", "--verify", "c.jsonl", "--seed-row", "0,3"),
     "argument --seed-row: not allowed with argument --verify"),
    (("exotic", "--cap", "3", "--width", "4"),
     "error: one of the arguments --seed-row --verify is required"),
], ids=["targets-without-debruijn", "red-fraction-without-random", "witness-without-allowed",
        "d-without-zero-d", "verify-with-cap", "verify-with-width", "verify-with-budget",
        "depths-without-prob-even", "search-without-width", "verify-and-seed-row",
        "neither-verify-nor-seed-row"])
def test_option_the_run_does_not_read_exits_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out and message in err


def test_experiment_without_kind_names_the_kinds(capsys):
    code, _, err = run(capsys, "experiment")
    assert code == 1
    assert ("the following arguments are required: "
            "{collapse,increasing-alphabet,leading-term,ultimate-zero}") in err


def test_triangle_stop_zero_d(capsys):
    code, out, _ = run(capsys, "triangle", "--values", "0,2,4,2", "--stop", "zero-d", "--d", "2")
    assert code == 0
    assert out == "0 2 4 2\n2 2 2\n"


def test_bootstrap_graph_file_without_coloring_exits_1(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 2\n0 1\n0 1\n")
    code, _, err = run(capsys, "bootstrap", "--graph", str(path), "--length", "5")
    assert code == 1
    assert "error: graph file must end with a coloring line" in err


def test_bootstrap_debruijn(capsys):
    code, out, _ = run(capsys, "bootstrap", "--debruijn", "3,2", "--targets", "0,2",
                       "--length", "4")
    assert code == 0
    assert "all-red P(L=4)" in out


def test_bootstrap_empty_targets_colours_no_vertex(capsys, tmp_path):
    out_file = tmp_path / "b.jsonl"
    code, out, err = run(capsys, "bootstrap", "--debruijn", "2,3", "--targets", "",
                         "--length", "4", "--out", str(out_file))
    assert code == 0
    assert "all-red P(L=4) = 0 (0)" in out
    record = json.loads(out_file.read_text())
    assert record["params"]["targets"] == []
    assert record["result"]["short_probability"] == "0"
    manifest = json.loads(err.splitlines()[-1])
    assert manifest["config"]["targets"] == []


@pytest.mark.parametrize("targets", ["3", "0,5"])
def test_bootstrap_target_outside_alphabet_exits_1(capsys, targets):
    code, out, err = run(capsys, "bootstrap", "--debruijn", "3,2", "--targets", targets,
                         "--length", "4")
    assert code == 1 and not out
    assert f"error: --targets: {targets[-1]} >= C = 3 is never an ultimate iterate" in err


def test_bootstrap_stats_on_stderr_only(capsys, tmp_path):
    out_file = tmp_path / "b.jsonl"
    code, _, err = run(capsys, "bootstrap", "--debruijn", "3,2", "--targets", "0,2",
                       "--length", "10", "--out", str(out_file))
    assert code == 0
    assert not any(ln.startswith("stats: ") for ln in err.splitlines())
    stats = json.loads(err.splitlines()[-1])["stats"]
    assert set(stats) == {"dp_steps"}
    record = json.loads(out_file.read_text())
    assert stats["dp_steps"] == max(10, record["result"]["long_length"] or 10) - 1
    assert "stats" not in out_file.read_text() and "seconds" not in out_file.read_text()


def test_primes_stats_on_stderr_only(capsys, tmp_path):
    out_file = tmp_path / "p.jsonl"
    code, _, err = run(capsys, "primes", "--limit", "100000", "--out", str(out_file))
    assert code == 0
    assert not any(ln.startswith("stats: ") for ln in err.splitlines())
    manifest = json.loads(err.splitlines()[-1])
    stats = manifest["stats"]
    assert set(stats) == {"segments", "wait_s", "child_peak_rss_mb"}
    # 1e5 numbers fit in one 2**20-number segment.
    assert stats["segments"] == 1
    assert 0 <= stats["wait_s"] <= manifest["finished"] - manifest["started"]
    assert stats["child_peak_rss_mb"] > 0
    assert "stats" not in out_file.read_text() and "seconds" not in out_file.read_text()


def test_bootstrap_random_dense_graph(capsys, tmp_path):
    out_file = tmp_path / "r.jsonl"
    code, _, _ = run(capsys, "bootstrap", "--random", "12,11", "--length", "4",
                     "--out", str(out_file))
    assert code == 0
    record = json.loads(out_file.read_text())
    assert record["params"]["random"] == [12, 11] and record["params"]["d"] == 11


def test_bootstrap_graph_file(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 2\n0 1\n0 1\nrr\n")
    code, out, _ = run(capsys, "bootstrap", "--graph", str(path), "--length", "5")
    assert code == 0
    assert "P(L=5) = 1" in out


def test_experiment_collapse_record_count(capsys, tmp_path):
    out_file = tmp_path / "run.jsonl"
    code, _, _ = run(capsys, "experiment", "collapse", "--M", "200", "--C", "3",
                     "--trials", "20", "--seed", "42", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 21
    records = [json.loads(ln) for ln in lines]
    assert [r["result"]["record"] for r in records] == ["trial"] * 20 + ["aggregate"]
    assert all(r["seed"] == 42 for r in records)


@pytest.mark.parametrize("argv, trials", [
    (("collapse", "--M", "50", "--C", "3"), 4),
    (("ultimate-zero", "--C", "3", "--depth", "5"), 50),
], ids=["collapse", "ultimate-zero"])
def test_experiment_jsonl_shape(capsys, tmp_path, argv, trials):
    out_file = tmp_path / "run.jsonl"
    code, _, _ = run(capsys, "experiment", *argv, "--trials", str(trials), "--seed", "0",
                     "--out", str(out_file))
    assert code == 0
    objs = [json.loads(ln) for ln in out_file.read_text().splitlines()]
    assert len(objs) == trials + 1
    *rows, aggregate = [o["result"] for o in objs]
    assert [r["record"] for r in rows] == ["trial"] * trials and aggregate["record"] == "aggregate"
    assert [r["trial_index"] for r in rows] == list(range(trials))
    for o in objs:
        assert set(o) == {"run_id", "kind", "seed", "params", "result"}
    # One run_id per experiment run, from the same scheme as every subcommand.
    assert {o["run_id"] for o in objs} == {_run_id("experiment", objs[0]["params"], 0)}
    if argv[0] == "ultimate-zero":
        zeros = sum(r["ultimate_value"] == 0 for r in rows)
        assert aggregate["estimate"] == zeros / trials
        assert not any("estimate" in r for r in rows)


def test_experiment_stats_on_stderr_only(capsys, tmp_path):
    out_file = tmp_path / "uz.jsonl"
    code, _, err = run(capsys, "experiment", "ultimate-zero", "--C", "3", "--depth", "10",
                       "--trials", "7000", "--trial-offset", "6500", "--out", str(out_file))
    assert code == 0
    assert not any(ln.startswith("stats: ") for ln in err.splitlines())
    stats = json.loads(err.splitlines()[-1])["stats"]
    assert set(stats) == {"trials", "streams"}
    # 6,553 trials a stream: trials 6500..13499 fall in streams 0, 1 and 2.
    assert stats["trials"] == 7000 and stats["streams"] == 3
    assert "stats" not in out_file.read_text() and "seconds" not in out_file.read_text()


def test_leading_term_closure_failure_is_a_finding(capsys, monkeypatch, tmp_path):
    # The stop test runs inside iterate_until; the experiment's own call of
    # the predicate is the closure spot-check on the row after it.
    monkeypatch.setattr(experiments, "stabilization_predicate", lambda row: False)
    code, _, err = run(capsys, "experiment", "leading-term", "--M", "200", "--f", "2",
                       "--trials", "3", "--seed", "4", "--out", str(tmp_path / "lt.jsonl"))
    assert code == 2
    # The run failed mid-stream: neither --out nor its temporary file is left.
    assert list(tmp_path.iterdir()) == []
    reproducer = json.loads(err.splitlines()[1])["reproducer"]
    assert reproducer["seed"] == 4 and reproducer["trial_index"] == 0
    assert reproducer["row"] >= 2
    assert Finding is triangle.Finding


def finding(err: str) -> dict:
    """The dump that follows the FINDING line on stderr."""
    lines = err.splitlines()
    (at,) = [i for i, line in enumerate(lines) if line.startswith("FINDING: ")]
    return json.loads(lines[at + 1])


def test_blocks_destruction_falsified_is_a_finding(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "check_block_destruction",
                        lambda row: blocks.DestructionVerdict(True, False, 2, 4, 2))
    code, _, err = run(capsys, "blocks", "--values", "1,0,2,2,2", "--destruction",
                       "--out", str(tmp_path / "b.jsonl"))
    assert code == 2
    assert "FINDING: max-destruction bound falsified" in err
    assert finding(err) == {"finding": "max-destruction bound falsified",
                            "reproducer": {"row": [1, 0, 2, 2, 2]}}
    assert list(tmp_path.iterdir()) == []


def test_bootstrap_falsified_is_a_finding(capsys, monkeypatch, tmp_path):
    verdict = walks.BootstrapVerdict(True, False, Fraction(1, 10), Fraction(0), 10,
                                     Fraction(1, 4000))
    monkeypatch.setattr(walks, "check_bootstrap", lambda g, red, L, c: verdict)
    code, _, err = run(capsys, "bootstrap", "--cycle", "20", "--length", "1", "--c", "1/20",
                       "--out", str(tmp_path / "b.jsonl"))
    assert code == 2
    assert "FINDING: bootstrap conclusion falsified" in err
    assert err.splitlines()[0].startswith("FINDING:")
    graph = walks.format_walk_instance(*walks.remark_counterexample(20)[:2])
    assert finding(err) == {"finding": "bootstrap conclusion falsified",
                            "reproducer": {"graph": graph, "L": 1, "c": "1/20"}}
    assert list(tmp_path.iterdir()) == []


def test_out_to_non_regular_file(capsys):
    code, out, _ = run(capsys, "experiment", "ultimate-zero", "--C", "3", "--depth", "5",
                       "--trials", "5", "--out", os.devnull)
    assert code == 0 and out.startswith("aggregate: ")
    assert not os.path.isfile(os.devnull)


@pytest.mark.parametrize("name", ["missing/p.jsonl", "."])
def test_out_outside_an_existing_directory_exits_1_before_the_run(capsys, tmp_path, name):
    out_file = os.path.join(tmp_path, name)
    code, out, err = run(capsys, "primes", "--limit", "1000", "--out", out_file)
    assert code == 1
    assert "verified" not in out
    assert f"error: --out {out_file}: " in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["missing/ck", "ck"])
def test_checkpoint_outside_an_existing_directory_exits_1_before_the_run(capsys, tmp_path, name):
    # "ck" is an existing directory: the run must neither sieve nor leave ck.tmp beside it.
    (tmp_path / "ck").mkdir()
    checkpoint = os.path.join(tmp_path, name)
    code, out, err = run(capsys, "primes", "--limit", "1000", "--checkpoint", checkpoint,
                         "--checkpoint-every", "1")
    assert code == 1
    assert "verified" not in out
    assert f"error: --checkpoint {checkpoint}: " in err
    assert json.loads(err.splitlines()[-1])["stats"] == {}
    assert [p.name for p in tmp_path.iterdir()] == ["ck"] and not any((tmp_path / "ck").iterdir())


@pytest.mark.parametrize("link", [False, True])
def test_out_and_checkpoint_naming_one_file_exit_1_before_the_run(capsys, tmp_path, link):
    # Else the record would overwrite the checkpoint, and a later --resume would refuse it.
    checkpoint = os.path.join(tmp_path, "same.x")
    out_file = checkpoint
    if link:
        out_file = os.path.join(tmp_path, "link")
        os.symlink(checkpoint, out_file)
    code, out, err = run(capsys, "primes", "--limit", "1000", "--checkpoint", checkpoint,
                         "--checkpoint-every", "1", "--out", out_file)
    assert code == 1
    assert "verified" not in out
    assert "error: --out and --checkpoint name the same file" in err
    assert json.loads(err.splitlines()[-1])["stats"] == {}
    assert not os.path.exists(checkpoint)


@pytest.mark.parametrize("argv, code", [
    (("triangle", "--values", "2,3,5"), 0),
    (("blocks", "--values", "1,2"), 1),
    (("blocks", "--values", "1,0,2,2,2", "--destruction"), 2),
], ids=["ok", "input-error", "finding"])
def test_manifest_ends_every_exit_path(capsys, monkeypatch, argv, code):
    # Only the --destruction run calls the check: it reports a falsified bound.
    monkeypatch.setattr(cli, "check_block_destruction",
                        lambda row: blocks.DestructionVerdict(True, False, 2, 4, 2))
    got, _, err = run(capsys, *argv)
    assert got == code
    manifest = json.loads(err.splitlines()[-1])
    assert manifest["subcommand"] == argv[0] and isinstance(manifest["stats"], dict)
    if code == 2:
        assert err.splitlines()[0].startswith("FINDING:")


@pytest.mark.parametrize("value", [
    2**70, -2**70, -0.0, 0.1, 1e300, math.nan, math.inf, -math.inf,
    "café ☃", "\x00\n\t\"\\", None, True, False, [], {},
    {"b": {"z": 1, "a": [1.5, None]}, "a": "x", "c": (1, "2")}, (3, [4], {"k": False}),
])
def test_record_encoder_matches_json_dumps(value):
    expected = json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert "".join(cli._encode(value, 0)) == expected


@pytest.mark.parametrize("value", [np.int64(1), Fraction(1, 3), {1, 2}])
def test_record_encoder_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError):
        cli._encode({"result": value}, 0)


def test_experiment_missing_args(capsys):
    code, _, err = run(capsys, "experiment", "collapse", "--trials", "5")
    assert code == 1 and "the following arguments are required: --M, --C" in err


def test_primes_cli(capsys):
    code, out, _ = run(capsys, "primes", "--limit", "17")
    assert code == 0
    assert out.splitlines()[0] == "verified, stabilization row 2"


def test_exotic_search_and_verify(capsys, tmp_path):
    out_file = tmp_path / "cert.jsonl"
    code, out, _ = run(capsys, "exotic", "--seed-row", "0,0,0,3,3,0,0,0,0,0,0,0",
                       "--cap", "6", "--width", "16", "--budget", "100000",
                       "--out", str(out_file))
    assert code == 0 and "found width-16" in out
    code, out, _ = run(capsys, "exotic", "--verify", str(out_file))
    assert code == 0 and "certificate valid" in out


def _exotic_record(result):
    return json.dumps({"kind": "exotic_search", "params": {}, "result": result})


@pytest.mark.parametrize("text, message", [
    (_exotic_record({"found": True}), "certificate must be a JSON object"),
    (_exotic_record({"found": True, "d": 3, "initial": [0, "x"], "depth_checked": 1,
                     "first_pure_row": 0}),
     "certificate entries must be integers"),
    ("", "certificate is not valid JSON: Expecting value"),
    ("{", "certificate is not valid JSON"),
    ("d = 3", "certificate is not valid JSON"),
    (_exotic_record({"found": False}),
     "exotic_search record holds no certificate (result.found is not true)"),
    (json.dumps({"d": 3, "initial": [0, 3], "depth_checked": 1, "first_pure_row": 0}),
     "certificate must be an exotic_search record"),
    (json.dumps({"kind": "exotic_verify", "result": {"valid": True}}),
     "certificate must be an exotic_search record"),
], ids=["missing-fields", "non-integer-entry", "empty", "truncated", "not-json", "not-found",
        "bare-certificate", "other-kind"])
def test_exotic_verify_malformed_certificate_exits_1(capsys, tmp_path, text, message):
    path = tmp_path / "cert.json"
    path.write_text(text)
    code, _, err = run(capsys, "exotic", "--verify", str(path))
    assert code == 1 and f"error: {message}" in err


def test_exotic_long_seed_row_needs_no_recursion(capsys):
    seed_row = ",".join(["0"] * 1200 + ["3"])
    code, out, _ = run(capsys, "exotic", "--seed-row", seed_row, "--cap", "3",
                       "--width", "1300", "--budget", "10")
    assert code == 0 and "none found within budget" in out


@pytest.mark.parametrize("C, floor", [
    (29, -((200 * 29 * 29) ** 58) * math.log10(29)),
    (30, None),  # -(200*30**2)**60 * log10(30) is beyond float range
    (10**6, None),  # decided from logarithms, without the 10**8-bit power
])
def test_ultimate_zero_floor_log10(capsys, tmp_path, C, floor):
    out_file = tmp_path / "uz.jsonl"
    code, _, _ = run(capsys, "experiment", "ultimate-zero", "--C", str(C), "--depth", "3",
                     "--trials", "2", "--seed", "1", "--out", str(out_file))
    aggregate = json.loads(out_file.read_text().splitlines()[-1])["result"]
    assert code == 0 and aggregate["floor_log10"] == floor


def test_manifest_on_stderr(capsys):
    code, _, err = run(capsys, "triangle", "--values", "1,2,3")
    assert code == 0
    manifest = json.loads(err.splitlines()[-1])
    assert manifest["subcommand"] == "triangle"
    assert manifest["run_id"]
    # deterministic run id for identical argv
    _, _, err2 = run(capsys, "triangle", "--values", "1,2,3")
    assert json.loads(err2.splitlines()[-1])["run_id"] == manifest["run_id"]


def test_manifest_run_id_ignores_out(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    manifests = []
    for argv in ((), ("--out", "t.jsonl")):
        code, _, err = run(capsys, "triangle", "--values", "2,3,5", *argv)
        assert code == 0
        manifests.append(json.loads(err.splitlines()[-1]))
    plain, other = manifests
    assert other["run_id"] == plain["run_id"]
    assert other["config"] != plain["config"]  # the echo still shows every option


def test_seed_random_prints_choice(capsys):
    code, _, err = run(capsys, "parity", "--depth", "2", "--seed", "random")
    assert code == 0
    assert any(line.startswith("seed=") for line in err.splitlines())


def test_threads_env_fallback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("GILBREATH_THREADS", "4")
    f1, f2 = tmp_path / "env.jsonl", tmp_path / "one.jsonl"
    args = ("experiment", "collapse", "--M", "200", "--C", "3", "--trials", "8",
            "--seed", "1")
    assert run(capsys, *args, "--out", str(f1))[0] == 0
    monkeypatch.delenv("GILBREATH_THREADS")
    assert run(capsys, *args, "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_thread():
    # OpenBLAS would start a worker thread at numpy's import, and fork would copy it.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import os, gilbreath.cli; print(len(os.listdir('/proc/self/task')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.split() == ["1"]


def readme_examples() -> list[list[str]]:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("gilbreath ")]


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert len(examples) >= 10
    for argv in examples:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        # every file an example names is written
        for opt in ("--out", "--checkpoint"):
            if opt in argv:
                assert (tmp_path / argv[argv.index(opt) + 1]).is_file(), argv
