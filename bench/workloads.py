"""The three benchmark workloads: seeded inputs, op lists and answer checks.

Each builder takes the freshly imported package, a seeded `random.Random`
and a scratch directory, and returns a `Workload`: one round of ops that the
timed loop repeats, plus the commands for the cold `python -m clutterkit`
calls.  Every op carries a check against an answer from `oracles`, computed
here in set-up.  Ops look up library names when they run, not when they are
built, so the traced run sees calls through the wrappers it installs.

Structured families (`kk2`, `staircase`) are relabelled by a seeded random
injection of their vertices.  The inputs then change with the seed while the
work stays the same, because every kernel here treats vertex labels only
through their order.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple

import oracles


class Op(NamedTuple):
    """One call in the closed loop and the predicate its answer must meet.

    With `refusal` set the op must raise `ResourceLimitError` instead.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    refusal: bool = False


class Cold(NamedTuple):
    """One fresh `python -m clutterkit` process: argv, stdin text, check on
    (exit code, stdout)."""

    argv: list
    stdin: str
    check: Callable[[tuple], bool]


class Workload(NamedTuple):
    ops: list
    cold: list


# ---- input generators -------------------------------------------------------

def kk2_edges(k):
    return [(2 * i, 2 * i + 1) for i in range(k)]


def staircase_edges(n):
    return [tuple([i] + [n + j for j in range(1, i + 1)]) for i in range(1, n + 1)]


def relabel(edges, rng):
    """The same family under a seeded injection of its vertices into 0..4|V|."""
    verts = sorted(set().union(*edges))
    image = dict(zip(verts, rng.sample(range(4 * len(verts)), len(verts))))
    return [tuple(sorted(image[v] for v in e)) for e in edges]


def random_edges(rng, n, m, r):
    """m edges of exactly r distinct vertices drawn from 1..n."""
    return [tuple(sorted(rng.sample(range(1, n + 1), r))) for _ in range(m)]


def edges_with_minor(rng, n, m):
    """Rank-3 random edges on which `oracles` itself finds a 2-pair minor."""
    while True:
        edges = random_edges(rng, n, m, 3)
        if oracles.find_two_matching_minor(edges) is not None:
            return edges


def cover_instance(rng, universe, count):
    """`count` random sets of 2..4 elements that together cover the universe,
    with integer weights 1..9."""
    while True:
        sets = [frozenset(rng.sample(range(1, universe + 1), rng.randint(2, 4)))
                for _ in range(count)]
        if frozenset().union(*sets) == frozenset(range(1, universe + 1)):
            return sets, [rng.randint(1, 9) for _ in sets]


def random_cnf(rng, num_vars, clauses):
    return [tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3))
            for _ in range(clauses)]


# ---- text forms for the command line ----------------------------------------

def clt_text(edges):
    return "".join(" ".join(map(str, e)) + "\n" for e in oracles.canonical(edges))


def dimacs_text(num_vars, clauses):
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    return f"p cnf {num_vars} {len(clauses)}\n{body}"


def cover_text(universe, sets, weights):
    rows = "".join(f"{w} {len(s)} {' '.join(map(str, sorted(s)))}\n" for s, w in zip(sets, weights))
    return f"{universe} {len(sets)}\n{rows}"


def matching_text(pairs):
    return " ; ".join(",".join(map(str, l)) + ":" + ",".join(map(str, s)) for l, s in sorted(pairs))


def read_sets(text):
    return [tuple(int(v) for v in line.split()) for line in text.splitlines()]


def read_matching(line):
    if line.strip() == "-":
        return frozenset()
    pairs = []
    for chunk in line.split(";"):
        left, right = chunk.strip().split(":")
        pairs.append((tuple(map(int, left.split(","))), tuple(map(int, right.split(",")))))
    return frozenset(pairs)


def read_fields(text):
    """'key: v1 v2 ...' lines into {key: [tuple, ...]}."""
    out = {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        out.setdefault(key, []).append(tuple(rest.split()))
    return out


def dual_case(rng, subcommand):
    """(argv, stdin, check) for `blocker -` or `indep -` on a random rank-3
    clutter with n=10, m=12."""
    edges = random_edges(rng, 10, 12, 3)
    ref = oracles.minimal_transversals(edges)
    if subcommand == "indep":
        ref = complements(ref, frozenset().union(*map(frozenset, edges)))
    want = oracles.canonical(ref)
    return [subcommand, "-"], clt_text(edges), lambda res: res[0] == 0 and read_sets(res[1]) == want


def witness_case(rng):
    """(argv, stdin, check) for `minor --k 2 --witness -` on a clutter with a minor."""
    edges = edges_with_minor(rng, 10, 12)
    return (["minor", "--k", "2", "--witness", "-"], clt_text(edges),
            lambda res: res[0] == 0 and cli_witness_ok(edges, res[1]))


def sat_case(rng, num_vars, want=None):
    """(argv, stdin, check) for `solve-sat -` on random 3-CNF with m = round(4.2n);
    with `want` set, the first draw that is satisfiable exactly when `want` is."""
    while True:
        clauses = random_cnf(rng, num_vars, round(4.2 * num_vars))
        is_sat = oracles.satisfiable(num_vars, clauses)
        if want is None or is_sat == want:
            return (["solve-sat", "-"], dimacs_text(num_vars, clauses),
                    lambda res: cli_sat_ok(num_vars, clauses, is_sat, res))


def cli_call(ck, argv, stdin=""):
    """An op that runs `clutterkit.cli.main(argv)` in-process on the given
    stdin and returns (exit code, stdout)."""

    def call():
        out, old_stdin = io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = ck.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            sys.stdin = old_stdin
        return code, out.getvalue()

    return call


# ---- shared checks ----------------------------------------------------------

def complements(sets, verts):
    return [frozenset(verts) - s for s in sets]


def witness_ok(edges, delete, contract, pairs):
    return len(pairs) == 2 and oracles.is_matching_minor(edges, delete, contract, pairs)


def extract_ok(edges, given, got):
    """`got` keeps only pairs of `given`, forms an expanded minor matching and
    meets the size guarantee ceil(n * 2^-(r-2) / (2r-3))."""
    r = max(map(len, edges))
    floor = math.ceil(len(given) / (2 ** (r - 2) * (2 * r - 3)))
    return (set(got) <= set(given) and len(got) >= floor
            and oracles.is_expanded_minor_matching(edges, got))


def sat_ok(num_vars, clauses, is_sat, true_vars):
    """A claimed model must satisfy every clause; a claimed UNSAT must match
    the truth table."""
    if true_vars is None:
        return not is_sat
    return oracles.satisfied(clauses, true_vars)


def cover_ok(universe, sets, weights, best, names, cost):
    covered = frozenset().union(*(sets[i] for i in names)) if names else frozenset()
    return (cost == best and sum(weights[i] for i in names) == cost
            and covered == frozenset(range(1, universe + 1)))


# ---- dualize ----------------------------------------------------------------

def dualize(ck, rng, workdir: Path) -> Workload:
    """Full blocker output as the answer, plus cheap reads on built blockers.

    The counts place both percentiles inside one group of like ops, so
    that a seed cannot move them across a gap between groups: of the 632
    ops, the 432 `is_transversal` reads hold the median (whether or not the
    `t in b` reads, whose cost depends on how the relabelled sets hash, are
    as cheap), and the 120 rank-4 dualizations hold p90, below the 6 `kk2`
    ones and the 2 refusals.  The 60 rank-4 clutters are many so that the
    median of their costs, which sets p90, does not move with the draw."""
    ops = []
    built = []  # (clutter, its blocker, reference blocker)

    def dual_ops(kind, edges, ref):
        h = ck.Clutter(edges)
        verts = frozenset().union(*map(frozenset, edges))
        want_b = oracles.canonical(ref)
        want_i = oracles.canonical(complements(ref, verts))
        ops.append(Op(f"blocker.{kind}", lambda: ck.blocker(h), lambda out: list(out.edges) == want_b))
        ops.append(Op(f"indep.{kind}", lambda: ck.maximal_independent_sets(h),
                      lambda out: list(out) == want_i))
        return h

    for k in (9, 10, 11):
        edges = relabel(kk2_edges(k), rng)
        ref = {frozenset(c) for c in itertools.product(*edges)}
        if len(ref) != 2 ** k:
            raise AssertionError("the matching family must have 2^k minimal transversals")
        h = dual_ops("kk2", edges, ref)
        if k == 10:
            built.append((h, ck.blocker(h), ref))
    for n, m, r in [(16, 24, 3)] * 12 + [(14, 40, 4)] * 60:
        edges = random_edges(rng, n, m, r)
        ref = oracles.minimal_transversals(edges)
        h = dual_ops(f"rank{r}", edges, ref)
        built.append((h, ck.blocker(h), ref))

    for _ in range(6):
        sets, weights = cover_instance(rng, 12, 14)
        best = oracles.min_cover_cost(12, sets, weights)
        inst = ck.SetCoverInstance(12, tuple(sets), tuple(weights))
        ops.append(Op("setcover.weighted",
                      lambda inst=inst: ck.solve_setcover(inst, "weighted"),
                      lambda out, s=sets, w=weights, b=best: cover_ok(12, s, w, b, *out)))

    big = ck.Clutter(relabel(kk2_edges(16), rng))
    ops.append(Op("blocker.refusal", lambda: ck.blocker(big, edge_budget=256), None, True))
    ops.append(Op("indep.refusal", lambda: ck.maximal_independent_sets(big, edge_budget=256),
                  None, True))

    # the reads below take their expected answers from the references, so a
    # wrong blocker built here shows up as failed reads
    h10, b10, ref10 = built[0]
    members = oracles.canonical(ref10)
    verts10 = sorted(h10.vertices)
    for i in range(30):
        t = list(rng.choice(members))
        if i % 2:
            t.append(rng.choice([v for v in verts10 if v not in t]))
        rng.shuffle(t)
        want = frozenset(t) in ref10
        ops.append(Op("read.contains", lambda t=t: t in b10, lambda out, w=want: out is w))
    randoms = built[1:]
    # one t of each size 4..9 per random clutter, so that the mix of edge
    # counts and t sizes, which set the cost of a read, does not move with
    # the seed
    for h, _, _ in randoms:
        hv = list(h.vertices)
        for size in range(4, 10):
            t = rng.sample(hv, size)
            want = all(set(t) & set(e) for e in h.edges)
            ops.append(Op("read.is_transversal", lambda h=h, t=t: ck.is_transversal(h, t),
                          lambda out, w=want: out is w))
    for _ in range(12):
        _, b, ref = rng.choice(randoms)
        want = tuple(sorted(frozenset().union(*ref)))
        ops.append(Op("read.vertices", lambda b=b: b.vertices, lambda out, w=want: out == w))

    cold = [Cold(*dual_case(rng, "indep" if i % 2 else "blocker")) for i in range(10)]
    return Workload(ops, cold)


# ---- minor ------------------------------------------------------------------

def minor(ck, rng, workdir: Path) -> Workload:
    """Matching-minor search, bound verification and semi-matching machinery:
    thousands of restrictions on medium families, little blocker work."""
    ops = []
    # 130 ops: 30 cheap early exits and extractions, then the median inside
    # 70 exhaustive searches of staircase(6) (a cost that relabelling does
    # not move), p90 inside 22 memberships of staircase(7) next to the
    # refusal and staircase(6)'s semi-matchings, and the 5 heaviest on top
    for n in [8, 9, 10, 11] + [6] * 70:
        h = ck.Clutter(relabel(staircase_edges(n), rng))
        ops.append(Op("minor.absent", lambda h=h: ck.find_kk2_minor(h, 2), lambda out: out is None))

    present = []
    for _ in range(16):
        edges = edges_with_minor(rng, 10, 12)
        h = ck.Clutter(edges)
        present.append(h)
        ops.append(Op("minor.present", lambda h=h: ck.find_kk2_minor(h, 2),
                      lambda w, e=edges: w is not None
                      and witness_ok(e, w.delete, w.contract, w.matching)))
    for h in present[:8]:
        ops.append(Op("membership.out", lambda h=h: ck.class_membership(h, 3, 2),
                      lambda out: out is False))
    for _ in range(22):
        h7 = ck.Clutter(relabel(staircase_edges(7), rng))
        ops.append(Op("membership.in", lambda h7=h7: ck.class_membership(h7, 8, 2),
                      lambda out: out is True))

    edges8 = relabel(staircase_edges(8), rng)
    h8 = ck.Clutter(edges8)
    bound8 = oracles.blocker_size_bound(8, 9, 1)
    size8 = len(oracles.minimal_transversals(edges8))
    ops.append(Op("bound.verify", lambda: ck.verify_bound(h8, 1),
                  lambda rep: rep.within_bound is True and rep.bound == bound8
                  and rep.observed_blocker_size == size8))

    for n in (5, 6):
        edges = relabel(staircase_edges(n), rng)
        h = ck.Clutter(edges)
        ref = oracles.semi_matchings(edges)
        ops.append(Op("semimatchings.enumerate", lambda h=h: ck.enumerate_semi_matchings(h),
                      lambda out, ref=ref: len(out) == len(ref)
                      and {frozenset(m.pairs) for m in out} == ref))
    # extraction inputs: semi-matchings of size >= 3 of staircase(6), built last
    for given in rng.sample(sorted(sorted(m) for m in ref if len(m) >= 3), 6):
        sm = ck.SemiMatching(given)
        ops.append(Op("semimatchings.extract", lambda sm=sm: ck.extract_minor_matching(h, sm),
                      lambda out, g=given: extract_ok(edges, g, out.pairs)))

    h14 = ck.Clutter(relabel(staircase_edges(14), rng))
    ops.append(Op("minor.refusal", lambda: ck.find_kk2_minor(h14, 2, node_budget=2000),
                  None, True))

    cold = []
    for i in range(10):
        if i % 2:
            cold.append(Cold(["membership", "--r", "6", "--k", "2", "-"],
                             clt_text(relabel(staircase_edges(5), rng)),
                             lambda res: res == (0, "true\n")))
        else:
            cold.append(Cold(*witness_case(rng)))
    return Workload(ops, cold)


def cli_witness_ok(edges, text):
    f = read_fields(text)
    return (len(f.get("delete", ())) == 1 and len(f.get("contract", ())) == 1
            and witness_ok(edges, tuple(map(int, f["delete"][0])), tuple(map(int, f["contract"][0])),
                           [tuple(map(int, p)) for p in f.get("pair", [])]))


# ---- cli-mix ----------------------------------------------------------------

def cli_mix(ck, rng, workdir: Path) -> Workload:
    """Every subcommand on small text inputs through `cli.main`: per-call
    cost of argument parsing, text formats and tiny kernel calls."""
    ops = []

    def add(kind, argv, stdin, check):
        ops.append(Op(kind, cli_call(ck, argv, stdin), check))

    def other_subcommands():
        for i in range(8):
            sub = "indep" if i % 2 else "blocker"
            add("cli." + sub, *dual_case(rng, sub))

        for _ in range(2):
            add("cli.minor", ["minor", "--k", "2", "-"], clt_text(relabel(staircase_edges(5), rng)),
                lambda res: res == (1, "none\n"))
            add("cli.minor", *witness_case(rng))

        edges4 = relabel(staircase_edges(4), rng)
        ref4 = oracles.semi_matchings(edges4)
        add("cli.semimatchings", ["semimatchings", "-"], clt_text(edges4),
            lambda res: res == (0, f"{len(ref4)}\n"))
        add("cli.semimatchings", ["semimatchings", "--list", "-"], clt_text(edges4),
            lambda res: res[0] == 0 and {read_matching(l) for l in res[1].splitlines()} == ref4
            and len(res[1].splitlines()) == len(ref4))

        edges5 = relabel(staircase_edges(5), rng)
        ref5 = oracles.semi_matchings(edges5)
        for given in rng.sample(sorted(sorted(m) for m in ref5 if len(m) >= 3), 2):
            path = workdir / f"matching-{len(ops)}.txt"
            path.write_text(matching_text(given) + "\n")
            add("cli.extract", ["extract", "--matching", str(path), "-"], clt_text(edges5),
                lambda res, g=given: res[0] == 0
                and extract_ok(edges5, g, sorted(read_matching(res[1].strip()))))

        bound5 = {"edges": 5, "r": 6, "k": 1, "bound": oracles.blocker_size_bound(5, 6, 1),
                  "observed": len(oracles.minimal_transversals(edges5)), "within": True}
        for _ in range(2):
            add("cli.bound", ["bound", "--k", "1", "--verify", "--json", "-"], clt_text(edges5),
                lambda res: res[0] == 0 and json.loads(res[1]) == bound5)
        add("cli.membership", ["membership", "--r", "6", "--k", "2", "-"], clt_text(edges5),
            lambda res: res == (0, "true\n"))
        add("cli.membership", ["membership", "--r", "3", "--k", "2", "-"],
            clt_text(edges_with_minor(rng, 10, 12)), lambda res: res == (1, "false\n"))

        for _ in range(4):
            sets, weights = cover_instance(rng, 8, 10)
            best = oracles.min_cover_cost(8, sets, weights)
            add("cli.solve-setcover", ["solve-setcover", "--weighted", "-"],
                cover_text(8, sets, weights),
                lambda res, s=sets, w=weights, b=best: res[0] == 0 and cli_cover_ok(8, s, w, b, res[1]))

        for _ in range(2):
            seed = rng.randrange(10**6)
            add("cli.laws", ["laws", "--samples", "5", "--seed", str(seed)], "",
                lambda res: res[0] == 0 and len(res[1].splitlines()) == 8
                and all(l.endswith(": ok (5 samples)") for l in res[1].splitlines()))

    # three times over, on fresh inputs: 78 calls whose fixed cost
    # dominates, enough to put the median in the middle of the n=8 formulas
    for _ in range(3):
        other_subcommands()

    # 120 formulas with n=8 and 96 with n=9, a sixth of them unsatisfiable
    # at each size, near the share (about 18%) that random draws give: the
    # median falls among the n=8 formulas and p90 among the n=9 ones, and
    # neither moves with how many slow unsatisfiable formulas a seed draws
    for num_vars, sat, unsat in [(8, 100, 20), (9, 80, 16)]:
        for want in [True] * sat + [False] * unsat:
            add("cli.solve-sat", *sat_case(rng, num_vars, want))

    big = relabel(kk2_edges(16), rng)
    add("cli.refusal", ["blocker", "--budget", "256", "-"], clt_text(big),
        lambda res: res[0] == 3)

    cold = [Cold(*(sat_case(rng, 6) if i % 2 else dual_case(rng, "blocker"))) for i in range(10)]
    return Workload(ops, cold)


def cli_cover_ok(universe, sets, weights, best, text):
    f = read_fields(text)
    names = [int(v) for v in f["cover"][0]]
    return cover_ok(universe, sets, weights, best, names, int(f["cost"][0][0]))


def cli_sat_ok(num_vars, clauses, is_sat, res):
    code, text = res
    lines = text.splitlines()
    if code == 1 and lines == ["UNSATISFIABLE"]:
        return sat_ok(num_vars, clauses, is_sat, None)
    if code != 0 or len(lines) != 2 or lines[0] != "SATISFIABLE":
        return False
    lits = [int(v) for v in lines[1].split()[1:-1]]
    if sorted(map(abs, lits)) != list(range(1, num_vars + 1)):
        return False
    return sat_ok(num_vars, clauses, is_sat, {v for v in lits if v > 0})


WORKLOADS = {"dualize": dualize, "minor": minor, "cli-mix": cli_mix}
