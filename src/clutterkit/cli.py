"""Command-line interface exposing every engine capability.

Exit codes: 0 success / true, 1 false / none (minor absent, UNSAT, a law
failed), 2 usage or input error, 3 resource budget exceeded.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .blocker import blocker, maximal_independent_sets
from .bounds import BoundParams, BoundReport, blocker_size_bound, class_membership, verify_bound
from .core import Clutter
from .errors import ParseError, ResourceLimitError
from .formats import (
    format_semi_matching,
    parse_clutter,
    parse_dimacs,
    parse_semi_matching,
    parse_setcover,
    serialize_clutter,
)
from .generate import kk2, random_clutter, staircase
from .laws import run_law_suite
from .matching import (
    MinorWitness,
    _search_pairs,
    enumerate_semi_matchings,
    extract_minor_matching,
    find_kk2_minor,
)
from .reductions import _rational, solve_sat, solve_setcover

if TYPE_CHECKING:
    from fractions import Fraction


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_clutter(path: str) -> Clutter:
    return parse_clutter(_read_text(path))


def _print_witness(w: MinorWitness) -> None:
    print("delete:", " ".join(map(str, w.delete)))
    print("contract:", " ".join(map(str, w.contract)))
    for pair in w.matching:
        print("pair:", " ".join(map(str, pair)))


def cmd_blocker(args) -> int:
    h = _load_clutter(args.file)
    print(serialize_clutter(blocker(h, edge_budget=args.budget)), end="")
    return 0


def cmd_indep(args) -> int:
    h = _load_clutter(args.file)
    for s in maximal_independent_sets(h, edge_budget=args.budget):
        print(" ".join(map(str, s)))
    return 0


def cmd_minor(args) -> int:
    h = _load_clutter(args.file)
    witness = find_kk2_minor(h, args.k, node_budget=args.budget)
    if witness is None:
        print("none")
        return 1
    if args.witness:
        _print_witness(witness)
    else:
        print("found")
    return 0


def cmd_semimatchings(args) -> int:
    h = _load_clutter(args.file)
    if args.list:
        for m in enumerate_semi_matchings(h, budget=args.budget):
            print(format_semi_matching(m))
    else:
        # counted straight off the search: no list is built or sorted
        print(sum(1 for _ in _search_pairs(h, args.budget)))
    return 0


def cmd_extract(args) -> int:
    if args.matching == args.file == "-":
        raise ValueError("the clutter and the matching cannot both be read from stdin")
    h = _load_clutter(args.file)
    matching = parse_semi_matching(_read_text(args.matching))
    print(format_semi_matching(extract_minor_matching(h, matching)))
    return 0


def _text(value: int | bool | Fraction) -> str:
    """An int or a bool as JSON writes it; a Fraction as its numerator,
    then / and its denominator unless that is 1."""
    # str() refuses an int of more than 4,300 digits, and a bound or a
    # cost can have more; Decimal writes any int exactly
    from decimal import Decimal

    if isinstance(value, bool):
        return str(value).lower()
    n, d = map(Decimal, value.as_integer_ratio())
    return str(n) if d == 1 else f"{n}/{d}"


def _print_json(payload: dict[str, int | bool]) -> None:
    """payload as one JSON object, keys and separators as json.dumps writes them."""
    print("{" + ", ".join(f'"{key}": {_text(value)}' for key, value in payload.items()) + "}")


def cmd_bound(args) -> int:
    h = _load_clutter(args.file)
    if args.verify:
        report = verify_bound(h, args.k, edge_budget=args.budget, node_budget=args.budget)
        payload = report.as_dict()
        ok = bool(report.within_bound)
    else:
        params = BoundParams(len(h), h.rank(), args.k)
        payload = BoundReport(params, blocker_size_bound(params)).as_dict()
        ok = True
    if args.json:
        _print_json(payload)
    else:
        for key, value in payload.items():
            print(f"{key}: {_text(value)}")
    return 0 if ok else 1


def cmd_membership(args) -> int:
    h = _load_clutter(args.file)
    member = class_membership(h, args.r, args.k, node_budget=args.budget)
    if args.json:
        _print_json({"r": args.r, "k": args.k, "rank": h.rank(), "member": member})
    else:
        print("true" if member else "false")
    return 0 if member else 1


def _command_oracle(cmd: str) -> Callable[[frozenset], object]:
    import shlex
    import subprocess

    argv = shlex.split(cmd)
    if not argv:
        raise ValueError("the oracle command is empty")

    def evaluate(names: frozenset):
        payload = " ".join(str(n) for n in sorted(names, key=str)) + "\n"
        proc = subprocess.run(argv, input=payload, capture_output=True, text=True)
        if proc.returncode:
            raise OSError(f"oracle command {cmd!r} exited with status {proc.returncode}")
        return _rational(proc.stdout.strip(), None)

    return evaluate


def cmd_solve_setcover(args) -> int:
    inst = parse_setcover(_read_text(args.file))
    oracle = None if args.oracle_cmd is None else _command_oracle(args.oracle_cmd)
    objective = "oracle" if oracle is not None else "weighted" if args.weighted else "cardinality"
    cover, cost = solve_setcover(inst, objective, oracle=oracle, edge_budget=args.budget)
    print("cover:", " ".join(map(str, cover)))
    print("cost:", _text(cost))
    return 0


def cmd_solve_sat(args) -> int:
    formula = parse_dimacs(_read_text(args.file))
    assignment = solve_sat(formula, edge_budget=args.budget)
    if assignment is None:
        print("UNSATISFIABLE")
        return 1
    print("SATISFIABLE")
    print("v", *assignment.as_literals(), "0")
    return 0


def cmd_gen(args) -> int:
    if args.family == "kk2":
        if args.k is None:
            raise ValueError("family kk2 requires --k")
        h = kk2(args.k)
    elif args.family == "staircase":
        if args.n is None:
            raise ValueError("family staircase requires --n")
        h = staircase(args.n)
    else:
        if None in (args.n, args.m, args.r):
            raise ValueError("family random requires --n, --m and --r")
        h = random_clutter(args.n, args.m, args.r, args.seed)
    print(serialize_clutter(h), end="")
    return 0


def cmd_laws(args) -> int:
    results = run_law_suite(args.samples, args.seed)
    all_ok = True
    for res in results:
        status = "ok" if res.ok else "FAILED"
        print(f"{res.name}: {status} ({res.samples} samples)")
        if not res.ok:
            all_ok = False
            if res.detail:
                print(f"  counterexample: {res.detail}")
    return 0 if all_ok else 1


def _count(text: str) -> int:
    """argparse type for budgets and sample counts: an integer, at least 0."""
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clutterkit",
        description="Exact clutter algebra: blockers, minors, matchings, bounds, solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, file_arg=True, budget=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if budget:
            p.add_argument("--budget", type=_count, default=10**6,
                           help="resource budget for the underlying engine call")
        if file_arg:
            p.add_argument("file", nargs="?", default="-",
                           help="input file ('-' for stdin)")
        return p

    add("blocker", cmd_blocker, "print the clutter of minimal transversals")
    add("indep", cmd_indep, "print all maximal independent sets")

    p = add("minor", cmd_minor, "search for a matching minor of k pairs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--witness", action="store_true", help="print the witness")

    p = add("semimatchings", cmd_semimatchings, "enumerate semi-matchings")
    p.add_argument("--list", action="store_true", help="print one matching per line")

    p = add("extract", cmd_extract,
            "thin a semi-matching to an expanded minor matching", budget=False)
    p.add_argument("--matching", required=True, help="file holding the semi-matching")

    p = add("bound", cmd_bound, "evaluate the blocker-size bound")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="also compute the blocker and compare")
    p.add_argument("--json", action="store_true")

    p = add("membership", cmd_membership, "test rank and matching-minor-freeness")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("solve-setcover", cmd_solve_setcover, "minimum cover via blocker scan")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--weighted", action="store_true")
    group.add_argument("--oracle-cmd",
                       help="external cost command: candidate on stdin, rational on stdout")

    add("solve-sat", cmd_solve_sat, "satisfiability via blocker scan (DIMACS input)")

    p = add("gen", cmd_gen, "emit a built-in family", file_arg=False, budget=False)
    p.add_argument("--family", required=True, choices=["kk2", "staircase", "random"])
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--seed", type=int, default=0)

    p = add("laws", cmd_laws, "run the algebraic identity suite",
            file_arg=False, budget=False)
    p.add_argument("--samples", type=_count, default=500)
    p.add_argument("--seed", type=int, default=0)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import, and kept: building costs more
    # than a small kernel call
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed a usage error (2) or the help (0)
        return exc.code
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

