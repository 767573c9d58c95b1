"""Differential records: the engine's answers and budget trips on seeded inputs.

Each record is one call of blocker, maximal_independent_sets, solve_sat,
solve_setcover (cardinality and weighted), find_kk2_minor (k = 1..3) or
enumerate_semi_matchings on one seeded input, under one engine and one
packing setting (ENGINES and PACKINGS below, which the engine and
pack_from fixtures in conftest.py use too), at one budget: 10**6,
C(n, n // 2), C(n, n // 2) - 1 or 60 for an input on n vertices.  The
middle two sit on either side of the subset lattice's hand-over.  The
pair search (find_kk2_minor, enumerate_semi_matchings) reads neither
setting, so its records run once, under the default ones.  A record
holds the answer as ints and tuples, or the exception's type and
message.

    python tests/differential.py                  # counts, sha256 of answers, of trips
    python tests/differential.py --against REV    # compare with git revision REV

--against extracts `git archive REV src` into a temporary directory,
runs the same records on it in a child process and lists the first ten
records that differ; it exits 1 if any does.  test_differential.py pins
the counts and digests.  pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import subprocess
import sys
import tempfile
import zipfile
from io import BytesIO
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ENGINES = {"fold-only": {"LATTICE_UP_TO": -1}, "default": {}}
PACKINGS = {"all-packed": 0, "default": None, "none-packed": 10**9}


def _clutters(ck):
    """(label, clutter) for the blocker and independent-set records."""
    yield "ZERO", ck.ZERO
    yield "ONE", ck.ONE
    for k in range(1, 9):
        yield f"kk2({k})", ck.kk2(k)
        yield f"staircase({k})", ck.staircase(k)
    rng = random.Random(1)
    for n in range(1, 27):
        for i in range(30):
            edges = [rng.sample(range(n), rng.randint(1, min(4, n)))
                     for _ in range(rng.randint(1, n // 2 + 1))]
            yield f"random(n={n}, i={i})", ck.Clutter(edges)
        if n <= 16:  # n to 2n edges of rank 3 or 4, within the lattice's reach
            for i in range(12):
                edges = [rng.sample(range(n), rng.randint(min(3, n), min(4, n)))
                         for _ in range(rng.randint(n, 2 * n))]
                yield f"dense(n={n}, i={i})", ck.Clutter(edges)


def _formulas(ck):
    """(label, formula) on 1..12 variables; from 11 on the fold answers at
    the default budget, below that the table of partial assignments."""
    rng = random.Random(2)
    for v in range(1, 13):
        for i in range(40):
            clauses = [tuple(x if rng.random() < 0.5 else -x
                             for x in rng.sample(range(1, v + 1), rng.randint(1, min(3, v))))
                       for _ in range(rng.randint(1, round(4.5 * v)))]
            yield f"cnf(v={v}, i={i})", ck.CnfFormula(v, clauses)


def _covers(ck):
    """(label, instance): weighted covers of 1..12 elements, some infeasible."""
    from fractions import Fraction

    rng = random.Random(3)
    for i in range(400):
        n = rng.randint(1, 12)
        sets = [frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(4, n))))
                for _ in range(rng.randint(1, 10))]
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in sets]
        yield f"cover(n={n}, i={i})", ck.SetCoverInstance(n, sets, weights)


def _pair_clutters(ck):
    """(label, clutter) for the pair search."""
    for k in range(1, 5):
        yield f"kk2({k})", ck.kk2(k)
    for k in range(1, 6):
        yield f"staircase({k})", ck.staircase(k)
    rng = random.Random(4)
    for i in range(300):
        n = rng.randint(2, 8)
        edges = [rng.sample(range(n), rng.randint(2, min(4, n)))
                 for _ in range(rng.randint(1, 6))]
        yield f"pairs(n={n}, i={i})", ck.Clutter(edges)


def _calls(ck):
    """(function, label, n, call) for every input of the blocker and the
    solvers: call(budget) is the answer."""
    for label, h in _clutters(ck):
        n = len(h.vertices)
        yield "blocker", label, n, lambda b, h=h: ck.blocker(h, edge_budget=b).edges
        yield "indep", label, n, lambda b, h=h: ck.maximal_independent_sets(h, edge_budget=b)
    for label, f in _formulas(ck):

        def sat(b, f=f):
            a = ck.solve_sat(f, edge_budget=b)
            return () if a is None else (a.as_literals(),)

        yield "sat", label, len(ck.cnf_to_clutter(f).vertices), sat
    for label, inst in _covers(ck):
        try:
            n = len(ck.setcover_to_clutter(inst).vertices)
        except ck.InfeasibleInstanceError:
            n = 0
        for objective in ("cardinality", "weighted"):

            def cover(b, inst=inst, objective=objective):
                names, cost = ck.solve_setcover(inst, objective, edge_budget=b)
                return names, (cost.numerator, cost.denominator)

            yield f"cover-{objective}", label, n, cover


def _pair_calls(ck):
    """(function, label, n, call) for every input of the pair search."""
    for label, h in _pair_clutters(ck):
        n = len(h.vertices)
        for k in (1, 2, 3):

            def minor(b, h=h, k=k):
                w = ck.find_kk2_minor(h, k, node_budget=b)
                return () if w is None else (w.delete, w.contract, w.matching)

            yield f"minor(k={k})", label, n, minor
        yield "semimatchings", label, n, lambda b, h=h: tuple(
            m.pairs for m in ck.enumerate_semi_matchings(h, budget=b))


def _outcomes(calls, engine, packing):
    """Yield (key, outcome) for each call at each of its four budgets."""
    for function, label, n, call in calls:
        for budget in (10**6, comb(n, n // 2), comb(n, n // 2) - 1, 60):
            try:
                outcome = ("ok", call(budget))
            except Exception as e:
                outcome = ("raise", type(e).__name__, str(e))
            yield (function, label, engine, packing, budget), outcome


def records():
    """Yield (key, outcome): key is (function, input, engine, packing,
    budget), and outcome is ("ok", answer) or ("raise", type name, message)."""
    ck = importlib.import_module("clutterkit")
    # the attribute clutterkit.blocker is the function, not the module
    module = importlib.import_module("clutterkit.blocker")
    saved = {name: getattr(module, name) for name in ("LATTICE_UP_TO", "PACK_FROM")}
    calls = list(_calls(ck))
    try:
        for engine, overrides in ENGINES.items():
            for packing, pack_from in PACKINGS.items():
                module.__dict__.update(saved, **overrides)
                if pack_from is not None:
                    module.PACK_FROM = pack_from
                yield from _outcomes(calls, engine, packing)
    finally:
        module.__dict__.update(saved)
    yield from _outcomes(_pair_calls(ck), "default", "default")


def summary(recs) -> tuple[int, int, str, str]:
    """The number of records and of trips, and sha256 of the answer records
    and of the trip records, each fed the repr of (key, outcome) in order."""
    count = tripped = 0
    answers, trips = hashlib.sha256(), hashlib.sha256()
    for key, outcome in recs:
        count += 1
        tripped += outcome[0] == "raise"
        (trips if outcome[0] == "raise" else answers).update(repr((key, outcome)).encode())
    return count, tripped, answers.hexdigest(), trips.hexdigest()


def _compared(recs, rev: str, differ: list):
    """Pass recs through; for each record to which git revision rev's src
    gives another outcome, append (key, its outcome, ours) to differ."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=zip", rev, "src"],
                             check=True, stdout=subprocess.PIPE).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with zipfile.ZipFile(BytesIO(archive)) as zf:
            zf.extractall(tmp)
        argv = [sys.executable, __file__, "--emit", str(Path(tmp, "src"))]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            for rec, line in zip(recs, child.stdout):
                # both sides as JSON, so tuples compare with lists alike
                if json.dumps(rec) != line.rstrip("\n"):
                    differ.append((rec[0], json.loads(line)[1], rec[1]))
                yield rec
        if child.returncode:
            raise subprocess.CalledProcessError(child.returncode, argv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="compare with git revision REV")
    # one JSON line per record of the clutterkit under the given src, for --against
    parser.add_argument("--emit", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.emit or str(ROOT / "src"))
    recs = records()
    if args.emit:
        for rec in recs:
            print(json.dumps(rec))
        return 0
    differ: list = []
    if args.against:
        recs = _compared(recs, args.against, differ)
    count, tripped, answers, trips = summary(recs)
    print(f"{count} records, {tripped} trips")
    print("answers", answers)
    print("trips", trips)
    if args.against:
        print(f"{len(differ)} records differ from {args.against}")
        for key, old, new in differ[:10]:
            print(key, "\n  was", json.dumps(old), "\n  now", json.dumps(new))
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
