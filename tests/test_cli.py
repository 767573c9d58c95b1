import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import clutterkit
from clutterkit import ResourceLimitError, enumerate_semi_matchings, serialize_clutter, staircase
from clutterkit.cli import main

C6_TEXT = "1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n"


@pytest.fixture
def c6_file(tmp_path):
    p = tmp_path / "c6.clt"
    p.write_text(C6_TEXT)
    return str(p)


def test_blocker_golden(c6_file, capsys):
    assert main(["blocker", c6_file]) == 0
    out = capsys.readouterr().out
    assert out == "1 3 5\n2 4 6\n1 2 4 5\n1 3 4 6\n2 3 5 6\n"


def test_blocker_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", __import__("io").StringIO("1 2\n2 3\n"))
    assert main(["blocker"]) == 0
    assert capsys.readouterr().out == "2\n1 3\n"


def test_indep_golden(c6_file, capsys):
    assert main(["indep", c6_file]) == 0
    assert capsys.readouterr().out == "1 4\n2 5\n3 6\n1 3 5\n2 4 6\n"


def test_minor_found_and_witness(c6_file, capsys):
    assert main(["minor", "--k", "2", c6_file]) == 0
    assert capsys.readouterr().out == "found\n"
    assert main(["minor", "--k", "2", "--witness", c6_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("delete:")
    assert "pair:" in out


def test_minor_absent_exits_one(tmp_path, capsys):
    p = tmp_path / "stair.clt"
    p.write_text("1 3\n2 3 4\n")
    assert main(["minor", "--k", "2", str(p)]) == 1
    assert capsys.readouterr().out == "none\n"


def test_semimatchings_count_and_list(c6_file, capsys):
    assert main(["semimatchings", c6_file]) == 0
    assert capsys.readouterr().out == "10\n"
    assert main(["semimatchings", "--list", c6_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    assert lines[0] == "-"
    assert "1,2:1,2 ; 4,5:4,5" in lines


def test_semimatchings_count_equals_the_list(tmp_path, capsys):
    for n in range(1, 6):
        h = staircase(n)
        p = tmp_path / f"s{n}.clt"
        p.write_text(serialize_clutter(h))
        want = len(enumerate_semi_matchings(h))
        assert main(["semimatchings", str(p)]) == 0
        assert capsys.readouterr().out == f"{want}\n"
        # the count trips at the same budget as the list
        for budget in range(0, 400, 7):
            try:
                enumerate_semi_matchings(h, budget=budget)
                trips = False
            except ResourceLimitError:
                trips = True
            code = main(["semimatchings", "--budget", str(budget), str(p)])
            assert code == (3 if trips else 0)
            out, err = capsys.readouterr()
            assert (out == "") == trips
            assert ("semi-matching enumeration exceeded" in err) == trips


def test_bound_negative_k_is_usage_error(tmp_path, capsys):
    p = tmp_path / "h.clt"
    p.write_text("1 2\n2 3\n")
    assert main(["bound", "--k", "-1", "--verify", str(p)]) == 2
    assert capsys.readouterr().err == "error: matching bound must be non-negative\n"


def test_extract(tmp_path, capsys):
    clutter = tmp_path / "h.clt"
    clutter.write_text("1 4\n2 4 5\n3 4 5 6\n")
    matching = tmp_path / "m.txt"
    matching.write_text("1,4:1,4 ; 2,5:2,4,5 ; 3,6:3,4,5,6\n")
    assert main(["extract", "--matching", str(matching), str(clutter)]) == 0
    out = capsys.readouterr().out.strip()
    assert out and out != "-"


def test_bound_json(tmp_path, capsys):
    p = tmp_path / "m3.clt"
    p.write_text("0 1\n2 3\n4 5\n")
    assert main(["bound", "--k", "3", "--verify", "--json", str(p)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"edges": 3, "r": 2, "k": 3, "bound": 8,
                       "observed": 8, "within": True}


def test_bound_not_in_class_is_usage_error(tmp_path, capsys):
    p = tmp_path / "m2.clt"
    p.write_text("0 1\n2 3\n")
    assert main(["bound", "--k", "1", "--verify", str(p)]) == 2


def test_membership_exit_codes(tmp_path, capsys):
    stair = tmp_path / "stair.clt"
    stair.write_text("1 3\n2 3 4\n")
    assert main(["membership", "--r", "3", "--k", "2", str(stair)]) == 0
    assert capsys.readouterr().out == "true\n"
    pairs = tmp_path / "m2.clt"
    pairs.write_text("0 1\n2 3\n")
    assert main(["membership", "--r", "2", "--k", "2", "--json", str(pairs)]) == 1
    assert json.loads(capsys.readouterr().out)["member"] is False


@pytest.mark.parametrize("argv, code, want", [
    (["bound", "--k", "3", "--verify", "--json"], 0,
     {"edges": 3, "r": 2, "k": 3, "bound": 8, "observed": 8, "within": True}),
    (["bound", "--k", "1", "--json"], 0, {"edges": 3, "r": 2, "k": 1, "bound": 4}),
    (["membership", "--r", "2", "--k", "4", "--json"], 0,
     {"r": 2, "k": 4, "rank": 2, "member": True}),
    (["membership", "--r", "2", "--k", "3", "--json"], 1,
     {"r": 2, "k": 3, "rank": 2, "member": False}),
], ids=["bound-verify", "bound", "member", "not-member"])
def test_json_output_is_what_json_dumps_writes(tmp_path, capsys, argv, code, want):
    p = tmp_path / "m3.clt"
    p.write_text("0 1\n2 3\n4 5\n")
    assert main([*argv, str(p)]) == code
    assert capsys.readouterr().out == json.dumps(want) + "\n"


def test_solve_setcover_variants(tmp_path, capsys):
    p = tmp_path / "cover.txt"
    p.write_text("3 3\n1 2 1 2\n1 2 2 3\n10 2 1 3\n")
    assert main(["solve-setcover", str(p)]) == 0
    out = capsys.readouterr().out
    assert "cost: 2" in out
    assert main(["solve-setcover", "--weighted", str(p)]) == 0
    out = capsys.readouterr().out
    assert "cover: 0 1" in out and "cost: 2" in out


def test_solve_setcover_oracle_cmd(tmp_path, capsys):
    p = tmp_path / "cover.txt"
    p.write_text("3 3\n1 2 1 2\n1 2 2 3\n1 2 1 3\n")
    cmd = f"{sys.executable} -c \"import sys; print(len(sys.stdin.read().split()))\""
    assert main(["solve-setcover", "--oracle-cmd", cmd, str(p)]) == 0
    assert "cost: 2" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["false", f"{sys.executable} -c \"print('x')\"",
                                 f"{sys.executable} -c \"print(1); raise SystemExit(1)\"",
                                 "", " ", f"{sys.executable} -c \"print('1/0')\""],
                         ids=["exits 1", "prints no rational", "prints a cost and exits 1",
                              "empty", "blank", "prints a zero denominator"])
def test_solve_setcover_failing_oracle_is_an_input_error(tmp_path, capsys, cmd):
    p = tmp_path / "cover.txt"
    p.write_text("3 3\n1 2 1 2\n1 2 2 3\n1 2 1 3\n")
    assert main(["solve-setcover", "--oracle-cmd", cmd, str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_import_loads_no_unused_stdlib_modules():
    # modules only some subcommands need are imported where they are used
    code = ("import sys; before = set(sys.modules); import clutterkit, clutterkit.cli; "
            "print(' '.join(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(clutterkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    new = set(proc.stdout.split())
    assert "clutterkit.cli" in new
    unused = {"dataclasses", "inspect", "subprocess", "shlex", "json", "fractions",
              "decimal", "heapq"}
    assert not new & unused


def test_solve_sat(tmp_path, capsys):
    sat = tmp_path / "sat.cnf"
    sat.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    assert main(["solve-sat", str(sat)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("SATISFIABLE")
    unsat = tmp_path / "unsat.cnf"
    unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert main(["solve-sat", str(unsat)]) == 1
    assert capsys.readouterr().out == "UNSATISFIABLE\n"


def test_gen_families(capsys):
    assert main(["gen", "--family", "kk2", "--k", "2"]) == 0
    assert capsys.readouterr().out == "0 1\n2 3\n"
    assert main(["gen", "--family", "staircase", "--n", "2"]) == 0
    assert capsys.readouterr().out == "1 3\n2 3 4\n"
    assert main(["gen", "--family", "random", "--n", "6", "--m", "4",
                 "--r", "3", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--family", "random", "--n", "6", "--m", "4",
                 "--r", "3", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_gen_missing_parameter_is_usage_error(capsys):
    assert main(["gen", "--family", "kk2"]) == 2
    assert main(["gen", "--family", "staircase"]) == 2
    assert "family staircase requires --n" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--family", "kk2", "--k", "0"],
                                  ["--family", "staircase", "--n", "0"],
                                  ["--family", "random", "--n", "0", "--m", "1", "--r", "1"]],
                         ids=["kk2", "staircase", "random"])
def test_gen_empty_family_is_an_input_error(argv, capsys):
    assert main(["gen", *argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_laws_command(capsys):
    assert main(["laws", "--samples", "25", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 8


def test_count_flag_is_usage_error(c6_file, capsys):
    assert main(["semimatchings", "--count", c6_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --count" in captured.err


@pytest.mark.parametrize("argv", [
    ["blocker", "--budget", "x"],
    ["minor"],
    ["no-such-command"],
    [],
])
def test_argparse_usage_error_returns_two(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


def test_help_prints_and_returns_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage: clutterkit" in capsys.readouterr().out
    assert main(["blocker", "--help"]) == 0
    assert "--budget" in capsys.readouterr().out


def test_bound_without_verify(tmp_path, capsys):
    p = tmp_path / "m3.clt"
    p.write_text("0 1\n2 3\n4 5\n")
    assert main(["bound", "--k", "3", str(p)]) == 0
    out = capsys.readouterr().out
    assert "bound: 8" in out and "observed" not in out


def _decimal_value(digits):
    """The int a string of decimal digits spells, read 1,000 digits at a
    time, within the limit on int() of a str."""
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10**len(chunk) + int(chunk)
    return value


def test_bound_past_the_int_str_limit(tmp_path, capsys):
    # 1,600 distinct 40-sets: the cap 77 * 2^38 passes the edge count, so
    # the bound is (1 + C(40, 2))^1600, a number of 4,629 digits
    rng = random.Random(7)
    p = tmp_path / "wide.clt"
    p.write_text("".join(" ".join(map(str, rng.sample(range(200), 40))) + "\n" for _ in range(1600)))
    want = 781**1600
    assert main(["bound", "--k", "1", str(p)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["edges: 1600", "r: 40", "k: 1"]
    assert out[3].startswith("bound: ") and len(out[3]) - len("bound: ") == 4629
    assert _decimal_value(out[3][len("bound: "):]) == want
    assert main(["bound", "--k", "1", "--json", str(p)]) == 0
    payload = json.loads(capsys.readouterr().out, parse_int=str)
    assert payload.keys() == {"edges", "r", "k", "bound"}
    assert _decimal_value(payload["bound"]) == want


def test_extract_invalid_matching_is_input_error(tmp_path, capsys):
    clutter = tmp_path / "h.clt"
    clutter.write_text("1 2\n")
    matching = tmp_path / "m.txt"
    matching.write_text("3,4:3,4\n")
    assert main(["extract", "--matching", str(matching), str(clutter)]) == 2


def test_budget_exit_code(tmp_path, capsys):
    p = tmp_path / "m8.clt"
    p.write_text("".join(f"{2 * i} {2 * i + 1}\n" for i in range(8)))
    assert main(["blocker", "--budget", "50", str(p)]) == 3


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.clt"
    p.write_text("1 x\n")
    assert main(["blocker", str(p)]) == 2


def test_missing_file_exit_code(capsys):
    assert main(["blocker", "/nonexistent/file.clt"]) == 2


def test_roundtrip_through_cli(tmp_path, capsys):
    assert main(["gen", "--family", "random", "--n", "8", "--m", "6",
                 "--r", "4", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    p = tmp_path / "h.clt"
    p.write_text(text)
    assert main(["blocker", str(p)]) == 0
    btext = capsys.readouterr().out
    q = tmp_path / "b.clt"
    q.write_text(btext)
    assert main(["blocker", str(q)]) == 0
    assert capsys.readouterr().out == text


def test_repeated_calls_share_no_options(c6_file, capsys):
    assert main(["minor", "--k", "2", "--witness", c6_file]) == 0
    assert capsys.readouterr().out.startswith("delete:")
    assert main(["minor", "--k", "2", c6_file]) == 0
    assert capsys.readouterr().out == "found\n"
    assert main(["semimatchings", "--list", c6_file]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10
    assert main(["semimatchings", c6_file]) == 0
    assert capsys.readouterr().out == "10\n"
    assert main(["bound", "--k", "2", "--json", c6_file]) == 0
    assert json.loads(capsys.readouterr().out)
    assert main(["bound", "--k", "2", c6_file]) == 0
    assert capsys.readouterr().out.startswith("edges: 6\n")
    assert main(["blocker", "--budget", "2", c6_file]) == 3
    assert main(["blocker", c6_file]) == 0
    assert capsys.readouterr().out.count("\n") == 5


@pytest.mark.parametrize("argv", [
    ["blocker"],
    ["indep"],
    ["minor", "--k", "2"],
    ["semimatchings"],
    ["bound", "--k", "2", "--verify"],
    ["membership", "--r", "2", "--k", "2"],
    ["solve-setcover"],
    ["solve-sat"],
])
def test_negative_budget_is_usage_error(argv, c6_file, capsys):
    assert main([*argv, "--budget", "-1", c6_file]) == 2
    assert "non-negative" in capsys.readouterr().err


def test_negative_samples_is_usage_error(capsys):
    assert main(["laws", "--samples", "-3"]) == 2
    assert capsys.readouterr().out == ""
    assert main(["laws", "--samples", "0"]) == 0
    assert capsys.readouterr().out.count(": ok (0 samples)") == 8


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
