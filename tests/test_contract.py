"""The command line's contract: each subcommand's exit code, 0 success /
true, 1 false / none, 2 usage or input error and 3 budget exceeded, with
what it prints.  Every CLI test lives here.

The tables hold one run per row, checked by `check`:
- SINGLE_RUNS call cli.main in-process on patched stdin.
- COLD_RUNS start `python -m clutterkit` cold, each within 10 s: one for
  each of the exit codes 0, 1 and 2, and the budget trips that must come
  before set-up.
- LATTICE_AND_FOLD runs each command twice, with a budget at which the
  subset lattice answers and with one at which the fold does.
- ORACLES run `solve-setcover --oracle-cmd`, whose commands hold spaces.

The functions check what one row cannot: runs that read named files,
several runs in one process, counts against lists, the law suite with a
law broken, the modules the import loads, a bound past the limit on
int() of a str, and a fuzz of malformed input that must keep the exit
codes.
"""
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import clutterkit
import clutterkit.laws
from clutterkit import (ZERO, Clutter, ResourceLimitError, blocker, enumerate_semi_matchings,
                        format_semi_matching, kk2, random_clutter, serialize_clutter, staircase)
from clutterkit.cli import main

from helpers import (cnf8_text, cover12_text, fan, gapped_path, matched_clique, ring_semi_matching,
                     rotation_clutter)

INPUTS = {
    "empty": "",
    "sat": "p cnf 2 2\n1 2 0\n-1 -2 0\n",
    "unsat": "p cnf 1 2\n1 0\n-1 0\n",
    "no variables": "p cnf 0 0\n",
    "two headers": "p cnf 1 1\n1 0\np cnf 3 2\n3 0\n",
    "x1 and x2": "p cnf 2 2\n1 0\n2 0\n",
    "-x1 and x2": "p cnf 2 2\n-1 0\n2 0\n",
    "huge exponent": "1 1\n1e4000000 1 1\n",
    "cover3": "3 3\n1 2 1 2\n1 2 2 3\n1 2 1 3\n",
    "cover3, one heavy set": "3 3\n1 2 1 2\n1 2 2 3\n10 2 1 3\n",
    "weight 1e4300": "1 1\n1e4300 1 1\n",
    "weight 1e-4300": "1 1\n1e-4300 1 1\n",
    "repeated element": "2 2\n1 2 1 1\n1 1 2\n",
    "not a number": "1 x\n",
    "one edge": "0 1\n",
    "1-2-3": "1 2\n2 3\n",
    "c6": "1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n",
    "triangles": "0 1 2\n3 4 5\n6 7 8\n",
    "edge of 2000": " ".join(map(str, range(2000))) + "\n",
    "edge of 40000": " ".join(map(str, range(40000))) + "\n",
    "cnf8": cnf8_text(),
    "cover12": cover12_text(),
    **{name: serialize_clutter(h) for name, h in [
        ("kk2(2)", kk2(2)), ("kk2(3)", kk2(3)), ("kk2(8)", kk2(8)), ("kk2(12)", kk2(12)),
        ("pairs9", Clutter([5 * i, 5 * i + 3] for i in range(9))),  # 18 labels with gaps
        *((f"staircase({n})", staircase(n)) for n in (2, 4, 8, 19)),
        ("clique30", matched_clique(30)), ("fan", fan(400)),
        ("dense14", rotation_clutter(14)), ("dense16", rotation_clutter(16)),
        ("rand27", random_clutter(36, 20, 4, 1)),  # 27 of the 36 labels
        *((f"path{n}", gapped_path(n)) for n in (4, 5, 16, 17, 24, 25)),
    ]},
}


def run(monkeypatch, capsys, argv, stdin):
    """cli.main(argv) on stdin: its exit code, stdout and stderr."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps its usage to
    code = main(argv)
    return (code, *capsys.readouterr())


def check(got, code, want):
    """got is an exit code, stdout and stderr.  want is the number of lines
    on stdout, the exact text printed (stdout, then stderr), or lines that
    must be printed.  A run that fails prints nothing on stdout, and one
    that does not, nothing on stderr."""
    got_code, out, err = got
    assert got_code == code, err
    assert (out if code >= 2 else err) == "", (out, err)
    if isinstance(want, int):
        assert len(out.splitlines()) == want
    elif isinstance(want, str):
        assert out + err == want
    else:
        assert set(want) <= set((out + err).splitlines()), (out, err)


def trip(stage, budget):
    return [f"error: {stage} exceeded budget of {budget} search steps"]


def jsonl(**payload):
    return json.dumps(payload) + "\n"


def laws_ok(samples):
    return "".join(f"{name}: ok ({samples} samples)\n" for name in clutterkit.laws._LAWS)


def ids(rows):
    return [f"{name}: {argv}" for argv, name, *_ in rows]


MINOR = "matching-minor search"
BAD_BUDGET = "error: argument --budget: expected a non-negative integer, got"

SINGLE_RUNS = [
    # literal vertices of different variables on adjacent bits do not clash
    ("solve-sat", "x1 and x2", 0, ["SATISFIABLE", "v 1 2 0"]),
    ("solve-sat", "-x1 and x2", 0, ["SATISFIABLE", "v -1 2 0"]),
    # an exponent past 4300 is refused before Fraction expands it
    ("solve-setcover", "huge exponent", 2, 0),
    ("blocker --budget 2", "kk2(2)", 3, 0),
    ("indep --budget 2", "kk2(2)", 3, 0),
    ("blocker", "kk2(3)", 0, 8),
    ("indep", "kk2(3)", 0, 8),
    # folded in packed steps, many sets missing each new edge; a budget one
    # short of the last family trips
    ("blocker", "kk2(12)", 0, 4096),
    ("indep", "kk2(12)", 0, 4096),
    ("blocker --budget 4095", "kk2(12)", 3, 0),
    # 18 vertices, which the decode reads through three 6-bit tables
    ("blocker", "pairs9", 0, 512),
    ("indep", "pairs9", 0, 512),
    # rank 2, no 2K2 minor and 465 edges: the fold's group ends are blockers
    # of deletion minors, so the paper's bound at k = 1, 1 + 465 sets, caps
    # every family it holds
    ("blocker --budget 466", "clique30", 0, 31),
    ("bound --k 1 --verify", "clique30", 0, ["observed: 31", "within: true"]),
    ("semimatchings --budget 5", "staircase(4)", 3, trip("semi-matching enumeration", 5)),
    # no two edges of staircase(19) each have two vertices outside the other,
    # so its minor searches answer from the edges alone, charged 886,446
    # steps: 1,330 candidates, 883,785 pair tests, the root and the 1,330
    # one-candidate families
    ("minor --k 2 --budget 886446", "staircase(19)", 1, ["none"]),
    ("minor --k 2 --budget 886445", "staircase(19)", 3, trip(MINOR, 886445)),
    ("minor --k 3 --budget 886446", "staircase(19)", 1, ["none"]),
    ("minor --k 3 --budget 886445", "staircase(19)", 3, trip(MINOR, 886445)),
    # 1,200 candidates, a set-up charge of 720,600 steps, and condition-4
    # tables of 1,600 bits
    ("minor --k 2 --witness", "fan", 0, ["contract: 0", "pair: 1 2", "pair: 3 4"]),
    ("membership --r 3 --k 2", "fan", 1, ["false"]),
    # three-pair searches charge one step per family made: C6 has no such
    # minor and takes 39 steps, and three disjoint triangles give the first
    # pair of each at 49
    ("minor --k 3 --budget 38", "c6", 3, trip(MINOR, 38)),
    ("minor --k 3 --budget 39", "c6", 1, ["none"]),
    ("minor --k 3 --budget 48", "triangles", 3, trip(MINOR, 48)),
    ("minor --k 3 --witness --budget 49", "triangles", 0, ["pair: 0 1", "pair: 3 4", "pair: 6 7"]),
    ("minor --k -1", "one edge", 2, 0),
    # the clutter and the matching cannot both be read from stdin
    ("extract --matching -", "one edge", 2, 0),
    # C6, each subcommand once; test_repeated_calls_share_no_options runs
    # these rows again in one process
    ("blocker", "c6", 0, "1 3 5\n2 4 6\n1 2 4 5\n1 3 4 6\n2 3 5 6\n"),
    ("blocker --budget 2", "c6", 3, "error: blocker intermediate family exceeded 2 sets\n"),
    ("indep", "c6", 0, "1 4\n2 5\n3 6\n1 3 5\n2 4 6\n"),
    ("minor --k 2", "c6", 0, "found\n"),
    ("minor --k 2 --witness", "c6", 0, "delete: 3 6\ncontract: \npair: 1 2\npair: 4 5\n"),
    ("semimatchings", "c6", 0, "10\n"),
    ("semimatchings --list", "c6", 0, "-\n1,2:1,2\n1,6:1,6\n2,3:2,3\n3,4:3,4\n4,5:4,5\n5,6:5,6\n"
     "1,2:1,2 ; 4,5:4,5\n1,6:1,6 ; 3,4:3,4\n2,3:2,3 ; 5,6:5,6\n"),
    ("bound --k 2", "c6", 0, "edges: 6\nr: 2\nk: 2\nbound: 22\n"),
    ("bound --k 2 --json", "c6", 0, jsonl(edges=6, r=2, k=2, bound=22)),
    ("blocker", "1-2-3", 0, "2\n1 3\n"),
    ("blocker --budget 50", "kk2(8)", 3, "error: blocker intermediate family exceeded 50 sets\n"),
    ("blocker", "not a number", 2, "error: line 1: expected an integer, got 'x'\n"),
    ("blocker /nonexistent/file.clt", "empty", 2,
     "error: [Errno 2] No such file or directory: '/nonexistent/file.clt'\n"),
    ("minor --k 2", "staircase(2)", 1, "none\n"),
    ("bound --k 3", "kk2(3)", 0, "edges: 3\nr: 2\nk: 3\nbound: 8\n"),
    # --json prints what json.dumps writes
    ("bound --k 3 --verify --json", "kk2(3)", 0,
     jsonl(edges=3, r=2, k=3, bound=8, observed=8, within=True)),
    ("bound --k 1 --json", "kk2(3)", 0, jsonl(edges=3, r=2, k=1, bound=4)),
    ("bound --k 1 --json", "one edge", 0, jsonl(edges=1, r=2, k=1, bound=2)),
    ("bound --k -1 --verify", "1-2-3", 2, "error: matching bound must be non-negative\n"),
    ("bound --k 1 --verify", "kk2(2)", 2,
     "error: clutter has a matching minor of 2 pairs; the bound does not apply\n"),
    ("bound --k 0 --verify", "empty", 2,
     "error: the bound is undefined for the edgeless clutter\n"),
    ("membership --r 3 --k 2", "staircase(2)", 0, "true\n"),
    ("membership --r 2 --k 2 --json", "kk2(2)", 1, jsonl(r=2, k=2, rank=2, member=False)),
    ("membership --r 2 --k 4 --json", "kk2(3)", 0, jsonl(r=2, k=4, rank=2, member=True)),
    ("membership --r 2 --k 3 --json", "kk2(3)", 1, jsonl(r=2, k=3, rank=2, member=False)),
    ("membership --r 2 --k 1 --json", "one edge", 1, jsonl(r=2, k=1, rank=2, member=False)),
    ("membership --r 2 --k 2 --json", "one edge", 0, jsonl(r=2, k=2, rank=2, member=True)),
    # negative arguments are input errors, also where the rank is past --r
    ("membership --r -1 --k 2", "one edge", 2, "error: rank bound must be non-negative\n"),
    ("membership --r 2 --k -1", "triangles", 2, "error: matching size must be non-negative\n"),
    ("membership --r 2 --k -1", "one edge", 2, "error: matching size must be non-negative\n"),
    ("solve-sat", "sat", 0, "SATISFIABLE\nv 1 -2 0\n"),
    ("solve-sat", "unsat", 1, "UNSATISFIABLE\n"),
    # no variables: the value line holds only its terminator
    ("solve-sat", "no variables", 0, "SATISFIABLE\nv 0\n"),
    ("solve-setcover", "cover3, one heavy set", 0, "cover: 0 1\ncost: 2\n"),
    ("solve-setcover --weighted", "cover3, one heavy set", 0, "cover: 0 1\ncost: 2\n"),
    # a cost past the 4,300 digits str() writes of an int is printed exactly
    ("solve-setcover --weighted", "weight 1e4300", 0, f"cover: 0\ncost: 1{'0' * 4300}\n"),
    ("solve-setcover --weighted", "weight 1e-4300", 0, f"cover: 0\ncost: 1/1{'0' * 4300}\n"),
    ("solve-setcover", "repeated element", 2, "error: line 2: duplicate element in set\n"),
    ("gen --family kk2 --k 2", "empty", 0, "0 1\n2 3\n"),
    ("gen --family staircase --n 2", "empty", 0, "1 3\n2 3 4\n"),
    # the default --seed 0 gives 1 4 / 2 5 / 3 4 / 4 5
    ("gen --family random --n 6 --m 4 --r 3 --seed 7", "empty", 0, "1 5\n2 4\n"),
    ("gen --family kk2", "empty", 2, "error: family kk2 requires --k\n"),
    ("gen --family staircase", "empty", 2, "error: family staircase requires --n\n"),
    ("gen --family kk2 --k 0", "empty", 2, "error: the matching family needs at least one pair\n"),
    ("gen --family staircase --n 0", "empty", 2,
     "error: the staircase family needs at least one step\n"),
    ("gen --family random --n 0 --m 1 --r 1", "empty", 2,
     "error: vertex count, edge count and rank cap must be positive\n"),
    ("laws --samples 25 --seed 5", "empty", 0, laws_ok(25)),
    ("laws --samples 0", "empty", 0, laws_ok(0)),
    # argparse's usage errors, and its help
    ("laws --samples -3", "empty", 2,
     ["clutterkit laws: error: argument --samples: expected a non-negative integer, got '-3'"]),
    ("blocker --budget x", "c6", 2, ["usage: clutterkit blocker [-h] [--budget BUDGET] [file]",
                                     f"clutterkit blocker: {BAD_BUDGET} 'x'"]),
    ("minor", "c6", 2, ["usage: clutterkit minor [-h] [--budget BUDGET] --k K [--witness] [file]",
                        "clutterkit minor: error: the following arguments are required: --k"]),
    ("no-such-command", "c6", 2, ["usage: clutterkit [-h]"]),
    ("", "c6", 2, ["usage: clutterkit [-h]",
                   "clutterkit: error: the following arguments are required: command"]),
    ("semimatchings --count", "c6", 2, ["clutterkit: error: unrecognized arguments: --count"]),
    *((f"{argv} --budget -1", "c6", 2, [f"clutterkit {argv.split()[0]}: {BAD_BUDGET} '-1'"])
      for argv in ["blocker", "indep", "minor --k 2", "semimatchings", "bound --k 2 --verify",
                   "membership --r 2 --k 2", "solve-setcover", "solve-sat"]),
    ("--help", "empty", 0, ["usage: clutterkit [-h]"]),
    ("blocker --help", "empty", 0,
     ["  --budget BUDGET  resource budget for the underlying engine call"]),
]


@pytest.mark.parametrize("argv, name, code, want", SINGLE_RUNS, ids=ids(SINGLE_RUNS))
def test_single_run(monkeypatch, capsys, argv, name, code, want):
    check(run(monkeypatch, capsys, argv.split(), INPUTS[name]), code, want)


def _env():
    """The environment, with PYTHONPATH set to the tree clutterkit came from."""
    return dict(os.environ, PYTHONPATH=str(Path(clutterkit.__file__).parents[1]))


COLD_RUNS = [
    ("solve-sat", "sat", 0, ["SATISFIABLE"]),
    ("solve-sat", "unsat", 1, ["UNSATISFIABLE"]),
    ("solve-sat", "two headers", 2, 0),
    # a budget must trip before the work it bounds: an edge of n vertices
    # is parsed in linear time, then refused
    ("minor --k 2 --budget 10", "edge of 2000", 3, trip(MINOR, 10)),
    ("minor --k 2 --budget 10", "edge of 40000", 3, trip(MINOR, 10)),
]


@pytest.mark.parametrize("argv, name, code, want", COLD_RUNS, ids=ids(COLD_RUNS))
def test_cold_run(argv, name, code, want):
    proc = subprocess.run([sys.executable, "-m", "clutterkit", *argv.split(), "-"],
                          input=INPUTS[name], capture_output=True, text=True, env=_env(),
                          timeout=10)
    check((proc.returncode, proc.stdout, proc.stderr), code, want)


LATTICE_AND_FOLD = [
    ("blocker", "dense14", 3431, 303),
    ("indep", "dense14", 3431, 303),
    # as many edges as vertices, so the lattice answers at once
    ("blocker", "dense16", 12869, 542),
    ("indep", "dense16", 12869, 542),
    # sparse clutters on 16 vertices
    ("blocker", "staircase(8)", 12869, 9),
    ("indep", "staircase(8)", 12869, 9),
    ("blocker", "kk2(8)", 12869, 256),
    ("indep", "kk2(8)", 12869, 256),
    # one answer, picked off the lattice's table or off the fold's sets
    ("solve-sat", "cnf8", 12869, "SATISFIABLE\nv 1 -2 3 -4 -5 6 7 -8 0\n"),
    ("solve-setcover", "cover12", 923, "cover: 0 1 5 6 10\ncost: 5\n"),
    ("solve-setcover --weighted", "cover12", 923, "cover: 0 2 3 6 8 9\ncost: 8\n"),
]


@pytest.mark.parametrize("argv, name, budget, want", LATTICE_AND_FOLD, ids=ids(LATTICE_AND_FOLD))
def test_lattice_and_fold_print_the_same(monkeypatch, capsys, argv, name, budget, want):
    # the default budget lets the subset lattice answer, and one of
    # C(n, n // 2) - 1 on n vertices keeps the fold
    lattice = run(monkeypatch, capsys, argv.split(), INPUTS[name])
    assert lattice == run(monkeypatch, capsys, [*argv.split(), "--budget", str(budget)],
                          INPUTS[name])
    check(lattice, 0, want)


PRINTS_AND_EXITS_1 = f"{sys.executable} -c \"print(1); raise SystemExit(1)\""
ORACLES = [
    # the cost of a cover is its number of sets
    (f"{sys.executable} -c \"import sys; print(len(sys.stdin.read().split()))\"", 0,
     ["cost: 2"]),
    ("false", 2, "error: oracle command 'false' exited with status 1\n"),
    (f"{sys.executable} -c \"print('x')\"", 2, "error: 'x' is not a rational\n"),
    (PRINTS_AND_EXITS_1, 2,
     f"error: oracle command {PRINTS_AND_EXITS_1!r} exited with status 1\n"),
    ("", 2, "error: the oracle command is empty\n"),
    (" ", 2, "error: the oracle command is empty\n"),
    (f"{sys.executable} -c \"print('1/0')\"", 2, "error: '1/0' is not a rational\n"),
    ("echo 1e4300", 0, f"cover: 0 1\ncost: 1{'0' * 4300}\n"),
]


@pytest.mark.parametrize("cmd, code, want", ORACLES,
                         ids=["prints the cost", "exits 1", "prints no rational",
                              "prints a cost and exits 1", "empty", "blank",
                              "prints a zero denominator", "prints a cost of 4,301 digits"])
def test_solve_setcover_oracle_cmd(monkeypatch, capsys, cmd, code, want):
    argv = ["solve-setcover", "--oracle-cmd", cmd]
    check(run(monkeypatch, capsys, argv, INPUTS["cover3"]), code, want)


def test_the_oracle_runs_once_per_distinct_name_set(monkeypatch, capsys, tmp_path):
    # three covers and the union the spot check samples
    log = tmp_path / "log"
    argv = ["solve-setcover", "--oracle-cmd", f"sh -c 'cat >> {log}; echo 1'"]
    assert run(monkeypatch, capsys, argv, INPUTS["cover3"])[0] == 0
    runs = log.read_text().splitlines()
    assert len(set(runs)) == len(runs) == 4


@pytest.mark.parametrize("name", ["pairs9", "rand27", "dense16",
                                  "path4", "path5", "path16", "path17", "path24", "path25"])
def test_blocker_twice_gives_the_text_back(monkeypatch, capsys, name):
    # blocker orders its sets by the fold's masks, not by a sort.  rand27
    # reaches the decode's loop over four tables through the fold, dense16
    # goes through the lattice, and the paths sit on both sides of each
    # vertex count where the decode's number of tables changes
    code, once, _ = run(monkeypatch, capsys, ["blocker"], INPUTS[name])
    assert code == 0
    assert run(monkeypatch, capsys, ["blocker"], once) == (0, INPUTS[name], "")


def test_repeated_calls_share_no_options(monkeypatch, capsys):
    # the C6 rows of SINGLE_RUNS in one process, each run with a flag
    # before one without it
    rows = {argv: (code, want) for argv, name, code, want in SINGLE_RUNS if name == "c6"}
    for argv in ["minor --k 2 --witness", "minor --k 2", "semimatchings --list", "semimatchings",
                 "bound --k 2 --json", "bound --k 2", "blocker --budget 2", "blocker"]:
        check(run(monkeypatch, capsys, argv.split(), INPUTS["c6"]), *rows[argv])


def test_roundtrip_through_cli(monkeypatch, capsys, tmp_path):
    # each run reads a named file
    argv = "gen --family random --n 8 --m 6 --r 4 --seed 3".split()
    code, text, _ = run(monkeypatch, capsys, argv, "")
    assert code == 0
    h, b = tmp_path / "h.clt", tmp_path / "b.clt"
    h.write_text(text)
    code, btext, _ = run(monkeypatch, capsys, ["blocker", str(h)], "")
    assert code == 0
    b.write_text(btext)
    assert run(monkeypatch, capsys, ["blocker", str(b)], "") == (0, text, "")


RING = ring_semi_matching(400)
NOT_SEMI = "error: input is not a semi-matching of the given clutter\n"


@pytest.mark.parametrize("clutter, matching, code, want", [
    ("1 3\n2 3 4\n", "1,3:1,3 ; 2,4:2,3,4\n", 0, "1,3:1,3\n"),  # staircase(2)
    ("1 3\n2 3 4\n", "1,2:1,2\n", 2, NOT_SEMI),
    ("1 4\n2 4 5\n3 4 5 6\n", "1,4:1,4 ; 2,5:2,4,5 ; 3,6:3,4,5,6\n", 0, "1,4:1,4\n"),
    ("1 2\n", "3,4:3,4\n", 2, NOT_SEMI),
    # half of the ring's 400 pairs are left over, and each must be fixed in one pass
    (serialize_clutter(RING[0]), format_semi_matching(RING[1]), 0, 1),
], ids=["staircase(2)", "not a semi-matching", "staircase(3)", "pairs off the clutter",
        "ring of 400"])
def test_extract_reads_the_matching_from_stdin(monkeypatch, capsys, tmp_path, clutter, matching,
                                               code, want):
    p = tmp_path / "h.clt"
    p.write_text(clutter)
    check(run(monkeypatch, capsys, ["extract", "--matching", "-", str(p)], matching), code, want)


def test_semimatchings_count_equals_the_list(monkeypatch, capsys):
    for n in range(1, 6):
        h = staircase(n)
        text = serialize_clutter(h)
        want = len(enumerate_semi_matchings(h))
        assert run(monkeypatch, capsys, ["semimatchings"], text) == (0, f"{want}\n", "")
        # the count trips at the same budget as the list
        for budget in range(0, 400, 7):
            try:
                enumerate_semi_matchings(h, budget=budget)
                trips = False
            except ResourceLimitError:
                trips = True
            code, out, err = run(monkeypatch, capsys, ["semimatchings", "--budget", str(budget)],
                                 text)
            assert code == (3 if trips else 0)
            assert (out == "") == trips
            assert ("semi-matching enumeration exceeded" in err) == trips


def test_every_law_holds_on_200_samples(capsys):
    assert main(["laws", "--samples", "200", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 and all(line.endswith(": ok (200 samples)") for line in lines)


def test_laws_command_exits_1_on_a_failed_law(monkeypatch, capsys):
    # a blocker that is always ZERO breaks only the involution, at the unit
    involution = "blocker is an involution: ok (3 samples)\n"
    monkeypatch.setattr(clutterkit.laws, "blocker", lambda h: ZERO)
    check(run(monkeypatch, capsys, ["laws", "--samples", "3"], ""), 1, laws_ok(3).replace(
        involution, "blocker is an involution: FAILED (3 samples)\n"
        "  counterexample: blocker of the edgeless clutter is not the unit\n"))
    # one that is wrong only off ZERO fails on a sample, which the line names
    monkeypatch.setattr(clutterkit.laws, "blocker", lambda h: blocker(h) if h.is_zero else ZERO)
    code, out, err = run(monkeypatch, capsys, ["laws", "--samples", "3"], "")
    assert code == 1 and err == ""
    lines = out.splitlines()
    detail = lines[lines.index("blocker is an involution: FAILED (3 samples)") + 1]
    assert detail.startswith("  counterexample: f=") and " g=" in detail and " h=" in detail, detail


def test_import_loads_no_unused_stdlib_modules():
    # modules only some subcommands need are imported where they are used
    code = ("import sys; before = set(sys.modules); import clutterkit, clutterkit.cli; "
            "print(' '.join(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(), check=True)
    new = set(proc.stdout.split())
    assert "clutterkit.cli" in new
    unused = {"dataclasses", "inspect", "subprocess", "shlex", "json", "fractions",
              "decimal", "heapq"}
    assert not new & unused


def _decimal_value(digits):
    """The int a string of decimal digits spells, read 1,000 digits at a
    time, within the limit on int() of a str."""
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10**len(chunk) + int(chunk)
    return value


def test_bound_past_the_int_str_limit(monkeypatch, capsys):
    # 1,600 distinct 40-sets: the cap 77 * 2^38 passes the edge count, so
    # the bound is (1 + C(40, 2))^1600, a number of 4,629 digits
    rng = random.Random(7)
    text = "".join(" ".join(map(str, rng.sample(range(200), 40))) + "\n" for _ in range(1600))
    want = 781**1600
    code, out, _ = run(monkeypatch, capsys, ["bound", "--k", "1"], text)
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["edges: 1600", "r: 40", "k: 1"]
    assert lines[3].startswith("bound: ") and len(lines[3]) - len("bound: ") == 4629
    assert _decimal_value(lines[3][len("bound: "):]) == want
    code, out, _ = run(monkeypatch, capsys, ["bound", "--k", "1", "--json"], text)
    assert code == 0
    payload = json.loads(out, parse_int=str)
    assert payload.keys() == {"edges", "r", "k", "bound"}
    assert _decimal_value(payload["bound"]) == want


# Fragments of every input format, so that generated text often gets past
# the first checks of a parser and reaches the engine.
_FRAGMENTS = st.sampled_from([
    "0", "1", "2", "3", "7", "-1", "-2", "1.5", "x", " ", "\n", "\t", "#", "!one",
    "p cnf ", "p cnf 3 2\n", "c note\n", "%\n", " 0\n", "1 -2 0\n",
    "2 2\n", "1 1 1\n", "3 2 1 2\n", ",", ":", ";", " ; ", "-", "1,2:1,2,3",
])
_INT = st.integers(min_value=-1, max_value=6)
_ROW = st.lists(_INT, max_size=5).map(lambda row: " ".join(map(str, row)) + "\n")
_TEXT = st.one_of(
    st.text(max_size=30),
    st.lists(_FRAGMENTS, max_size=25).map("".join),
    st.lists(_ROW, max_size=6).map("".join),  # .clt, cover rows, DIMACS clauses
    st.tuples(st.sampled_from(["p cnf", ""]), _INT, _INT, st.lists(_ROW, max_size=5))
    .map(lambda t: f"{t[0]} {t[1]} {t[2]}\n" + "".join(t[3])),  # DIMACS or cover
    st.lists(st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=3), max_size=5)
    .map(lambda cs: f"p cnf 3 {len(cs)}\n" + "".join(" ".join(map(str, c)) + " 0\n"
                                                    for c in cs)),  # DIMACS
    st.lists(st.tuples(_INT, st.lists(st.integers(1, 3), max_size=3)), max_size=4)
    .map(lambda rs: f"3 {len(rs)}\n" + "".join(f"{w} {len(c)} {' '.join(map(str, c))}\n"
                                                for w, c in rs)),  # cover
    st.lists(st.tuples(_INT, _INT, st.lists(_INT, max_size=3)), max_size=3)
    .map(lambda ps: " ; ".join(f"{a},{b}:{','.join(map(str, [a, b, *s]))}"
                               for a, b, s in ps)),  # semi-matching
)
_SMALL = st.integers(min_value=-2, max_value=4).map(str)
_FLAG = st.booleans()


@st.composite
def _argv(draw, clt: str, other: str):
    """One subcommand with drawn options; clt and other are input files."""
    budget = ["--budget", "5000"]

    def flag(name):
        return [name] if draw(_FLAG) else []

    return draw(st.sampled_from([
        lambda: ["blocker", *budget, clt],
        lambda: ["indep", *budget, clt],
        lambda: ["minor", "--k", draw(_SMALL), *flag("--witness"), *budget, clt],
        lambda: ["semimatchings", *flag("--list"), *budget, clt],
        lambda: ["extract", "--matching", other, clt],
        lambda: ["bound", "--k", draw(_SMALL), *flag("--verify"), *flag("--json"),
                 *budget, clt],
        lambda: ["membership", "--r", draw(_SMALL), "--k", draw(_SMALL),
                 *flag("--json"), *budget, clt],
        lambda: ["solve-setcover", *flag("--weighted"), *budget, other],
        lambda: ["solve-sat", *budget, other],
        lambda: ["gen", "--family", draw(st.sampled_from(["kk2", "staircase", "random"])),
                 *[a for name in ("--k", "--n", "--m", "--r")
                   if draw(_FLAG) for a in (name, draw(_SMALL))]],
        lambda: ["laws", "--samples", draw(st.sampled_from(["0", "1", "-1", "x"])),
                 "--seed", draw(_SMALL)],
    ]))()


@pytest.mark.filterwarnings("ignore:.*subsumed or duplicate")
@given(clt_text=_TEXT, other_text=_TEXT, data=st.data())
@settings(deadline=None, max_examples=400)
def test_malformed_input_keeps_the_exit_code_contract(tmp_path_factory, clt_text,
                                                      other_text, data):
    # every run returns 0, 1, 2 or 3; none raises or prints a traceback
    d = tmp_path_factory.getbasetemp() / "fuzz"
    d.mkdir(exist_ok=True)
    (d / "h.clt").write_text(clt_text)
    (d / "other.txt").write_text(other_text)
    argv = data.draw(_argv(str(d / "h.clt"), str(d / "other.txt")))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
