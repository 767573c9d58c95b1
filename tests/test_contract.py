"""The command line's exit codes, 0 success / true, 1 false / none, 2 usage
or input error and 3 budget exceeded, with what each run prints.

Most runs call cli.main in-process on patched stdin.  A few start
`python -m clutterkit` cold, each within 10 s: one for each of the exit
codes 0, 1 and 2, and the budget trips that must come before set-up.
"""
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clutterkit
from clutterkit import Clutter, format_semi_matching, kk2, random_clutter, serialize_clutter, staircase
from clutterkit.cli import main

from helpers import (cnf8_text, cover12_text, fan, gapped_path, matched_clique, ring_semi_matching,
                     rotation_clutter)

INPUTS = {
    "sat": "p cnf 2 2\n1 2 0\n-1 -2 0\n",
    "unsat": "p cnf 1 2\n1 0\n-1 0\n",
    "two headers": "p cnf 1 1\n1 0\np cnf 3 2\n3 0\n",
    "x1 and x2": "p cnf 2 2\n1 0\n2 0\n",
    "-x1 and x2": "p cnf 2 2\n-1 0\n2 0\n",
    "huge exponent": "1 1\n1e4000000 1 1\n",
    "cover3": "3 3\n1 2 1 2\n1 2 2 3\n1 2 1 3\n",
    "one edge": "0 1\n",
    "c6": "1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n",
    "triangles": "0 1 2\n3 4 5\n6 7 8\n",
    "edge of 2000": " ".join(map(str, range(2000))) + "\n",
    "edge of 40000": " ".join(map(str, range(40000))) + "\n",
    "cnf8": cnf8_text(),
    "cover12": cover12_text(),
    **{name: serialize_clutter(h) for name, h in [
        ("kk2(2)", kk2(2)), ("kk2(3)", kk2(3)), ("kk2(8)", kk2(8)), ("kk2(12)", kk2(12)),
        ("pairs9", Clutter([5 * i, 5 * i + 3] for i in range(9))),  # 18 labels with gaps
        ("staircase(4)", staircase(4)), ("staircase(8)", staircase(8)),
        ("staircase(19)", staircase(19)), ("clique30", matched_clique(30)), ("fan", fan(400)),
        ("dense14", rotation_clutter(14)), ("dense16", rotation_clutter(16)),
        ("rand27", random_clutter(36, 20, 4, 1)),  # 27 of the 36 labels
        *((f"path{n}", gapped_path(n)) for n in (4, 5, 16, 17, 24, 25)),
    ]},
}


def run(monkeypatch, capsys, argv, stdin):
    """cli.main(argv) on stdin: its exit code, stdout and stderr."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    return (code, *capsys.readouterr())


def check_output(out, err, want):
    """want is the number of lines on stdout, or lines that must be printed."""
    if isinstance(want, int):
        assert len(out.splitlines()) == want
    else:
        assert set(want) <= set((out + err).splitlines()), (out, err)


def trip(stage, budget):
    return [f"error: {stage} exceeded budget of {budget} search steps"]


def ids(rows):
    return [f"{name}: {argv}" for argv, name, *_ in rows]


MINOR = "matching-minor search"

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
]


@pytest.mark.parametrize("argv, name, code, want", SINGLE_RUNS, ids=ids(SINGLE_RUNS))
def test_single_run(monkeypatch, capsys, argv, name, code, want):
    got, out, err = run(monkeypatch, capsys, argv.split(), INPUTS[name])
    assert got == code, err
    check_output(out, err, want)


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
    env = dict(os.environ, PYTHONPATH=str(Path(clutterkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "clutterkit", *argv.split(), "-"],
                          input=INPUTS[name], capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == code, proc.stderr
    check_output(proc.stdout, proc.stderr, want)


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
    code, out, _ = lattice
    assert code == 0
    assert out == want if isinstance(want, str) else len(out.splitlines()) == want


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


RING = ring_semi_matching(400)


@pytest.mark.parametrize("clutter, matching, code", [
    ("1 3\n2 3 4\n", "1,3:1,3 ; 2,4:2,3,4\n", 0),  # staircase(2)
    ("1 3\n2 3 4\n", "1,2:1,2\n", 2),
    # half of the ring's 400 pairs are left over, and each must be fixed in one pass
    (serialize_clutter(RING[0]), format_semi_matching(RING[1]), 0),
], ids=["staircase(2)", "not a semi-matching", "ring of 400"])
def test_extract_reads_the_matching_from_stdin(monkeypatch, capsys, tmp_path, clutter, matching,
                                               code):
    p = tmp_path / "h.clt"
    p.write_text(clutter)
    assert run(monkeypatch, capsys, ["extract", "--matching", "-", str(p)], matching)[0] == code


def test_the_oracle_runs_once_per_distinct_name_set(monkeypatch, capsys, tmp_path):
    # three covers and the union the spot check samples
    log = tmp_path / "log"
    argv = ["solve-setcover", "--oracle-cmd", f"sh -c 'cat >> {log}; echo 1'"]
    assert run(monkeypatch, capsys, argv, INPUTS["cover3"])[0] == 0
    runs = log.read_text().splitlines()
    assert len(set(runs)) == len(runs) == 4


def test_every_law_holds_on_200_samples(capsys):
    assert main(["laws", "--samples", "200", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 and all(line.endswith(": ok (200 samples)") for line in lines)
