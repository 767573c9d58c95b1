"""Shared test utilities: independent brute-force oracles and generators.

The oracles here avoid the package's algorithms on purpose: transversals
by subset enumeration, minors by trying every deletion/contraction
assignment, covers by subfamily enumeration, SAT by truth table.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from clutterkit import Clutter, ONE, ZERO


def random_clutter_sample(rng: random.Random, max_vertices=8, max_edges=6, max_rank=4,
                          allow_bounds=True) -> Clutter:
    if allow_bounds:
        roll = rng.random()
        if roll < 0.03:
            return ZERO
        if roll < 0.06:
            return ONE
    n = rng.randint(1, max_vertices)
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        size = rng.randint(1, min(max_rank, n))
        edges.append(rng.sample(range(1, n + 1), size))
    return Clutter(edges)


def brute_minimal_transversals(edge_sets) -> set[frozenset]:
    """All minimal transversals by enumerating every subset of the union."""
    edges = [frozenset(e) for e in edge_sets]
    universe = sorted(set().union(*edges)) if edges else []
    out = set()
    for r in range(len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            t = frozenset(combo)
            if not all(t & e for e in edges):
                continue
            if all(not all((t - {v}) & e for e in edges) for v in t):
                out.add(t)
    return out


def berge_fold_peak(edges, clashes=()) -> int:
    """Largest family an unindexed Berge fold holds after any step.

    Folds the edges in the order given, keeping every set that meets the
    new edge, extending the others by each vertex of it, and dropping any
    set with a proper subset in the new family.  Then it drops every set
    that holds both vertices of a pair in clashes.  The intermediate
    families depend on the order, so pass the edges in canonical order to
    match the package's fold.
    """
    family = {frozenset()}
    peak = 0
    for e in map(frozenset, edges):
        grown = {t for t in family if t & e}
        grown |= {t | {b} for t in family if not t & e for b in e}
        family = {t for t in grown if not any(w < t for w in grown)}
        family = {t for t in family if not any(a in t and b in t for a, b in clashes)}
        peak = max(peak, len(family))
    return peak


def _brute_minimal_sets(sets) -> set[frozenset]:
    pool = set(sets)
    return {s for s in pool if not any(t < s for t in pool)}


def canonical_edges(sets) -> tuple[tuple[int, ...], ...]:
    """Sorted tuples ordered by size, then lexicographically."""
    return tuple(sorted((tuple(sorted(s)) for s in sets), key=lambda e: (len(e), e)))


# Frozenset definitions of the clutter operations, for differential tests.
# Each takes and returns families of frozensets.

def fs_clutter(family) -> set[frozenset]:
    return _brute_minimal_sets(map(frozenset, family))


def fs_restrict(sets, delete, contract) -> set[frozenset]:
    d, c = frozenset(delete), frozenset(contract)
    return _brute_minimal_sets(e - c for e in sets if not e & d)


def fs_join(a, b) -> set[frozenset]:
    return _brute_minimal_sets(set(a) | set(b))


def fs_meet(a, b) -> set[frozenset]:
    return _brute_minimal_sets(x | y for x in a for y in b)


def fs_vertices(sets) -> tuple[int, ...]:
    return tuple(sorted(set().union(*sets)))


def fs_contains(sets, edge) -> bool:
    return frozenset(edge) in set(sets)


def fs_is_transversal(sets, t) -> bool:
    return all(frozenset(t) & e for e in sets)


def fs_is_semi_matching(edges, pairs) -> bool:
    """Conditions 1, 2, 3a and 4 as written, over frozensets."""
    es = {frozenset(e) for e in edges}
    ls = [frozenset(l) for l, _ in pairs]
    ss = [frozenset(s) for _, s in pairs]
    r = len(ls)
    return (all(len(l) == 2 and l <= s and s in es for l, s in zip(ls, ss))  # 1
            and len(frozenset().union(*ls)) == 2 * r  # 2
            and not any(ls[i] <= ss[j] for i in range(r) for j in range(r) if i != j)  # 3a
            and all(any(l <= e for l in ls)  # 4
                    for e in es if e <= frozenset().union(*ss)))


def brute_semi_matchings(edges) -> list[tuple]:
    """Every semi-matching, as tuples of (L, S) pairs in size-then-lex order.

    Tries every set of (two-vertex set, edge) candidates against conditions
    1, 2, 3a and 4 as written, with no index or pruning.  Sets of more than
    |V| / 2 candidates are skipped: their two-vertex sets cannot be disjoint.
    """
    edges = [tuple(sorted(e)) for e in edges]
    cands = sorted({(l, s) for s in edges for l in itertools.combinations(s, 2)})
    as_sets = {c: (frozenset(c[0]), frozenset(c[1])) for c in cands}
    universe = set().union(*edges) if edges else set()
    out = []
    for r in range(len(universe) // 2 + 1):
        for family in itertools.combinations(cands, r):
            ls, ss = zip(*map(as_sets.get, family)) if family else ((), ())
            support = frozenset().union(*ss)
            if (len(frozenset().union(*ls)) == 2 * r
                    and all(not ls[i] <= ss[j] for i in range(r) for j in range(r) if i != j)
                    and all(any(l <= set(e) for l in ls)
                            for e in edges if support.issuperset(e))):
                out.append(family)
    return sorted(out, key=lambda f: (len(f), f))


def brute_has_matching_minor(edge_sets, k: int) -> bool:
    """Exhaustive search over every keep/delete/contract assignment."""
    edges = [frozenset(e) for e in edge_sets]
    universe = sorted(set().union(*edges)) if edges else []
    for assign in itertools.product(range(3), repeat=len(universe)):
        dele = {v for v, a in zip(universe, assign) if a == 1}
        cont = {v for v, a in zip(universe, assign) if a == 2}
        cur = [e - cont for e in edges if not e & dele]
        mins = _brute_minimal_sets(cur)
        if (
            len(mins) == k
            and all(len(s) == 2 for s in mins)
            and len(frozenset().union(*mins) if mins else frozenset()) == 2 * k
        ):
            return True
    return False


def brute_minor_contains(edge_sets, recognizer) -> bool:
    """Exhaustive minor search with an arbitrary shape recognizer."""
    edges = [frozenset(e) for e in edge_sets]
    universe = sorted(set().union(*edges)) if edges else []
    for assign in itertools.product(range(3), repeat=len(universe)):
        dele = {v for v, a in zip(universe, assign) if a == 1}
        cont = {v for v, a in zip(universe, assign) if a == 2}
        cur = [e - cont for e in edges if not e & dele]
        if recognizer(_brute_minimal_sets(cur)):
            return True
    return False


def brute_min_cover_cost(inst, objective="cardinality"):
    """Minimum cover cost over every subfamily; None when infeasible."""
    universe = set(range(1, inst.universe_size + 1))
    best = None
    for r in range(len(inst.sets) + 1):
        for combo in itertools.combinations(range(len(inst.sets)), r):
            covered = set()
            for i in combo:
                covered |= inst.sets[i]
            if covered >= universe:
                if objective == "cardinality":
                    cost = len(combo)
                else:
                    cost = sum((inst.weights[i] for i in combo), Fraction(0))
                if best is None or cost < best:
                    best = cost
    return best


def truth_table_satisfiable(formula) -> bool:
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        values = {i + 1: bits[i] for i in range(formula.num_vars)}
        if all(any(values[abs(l)] == (l > 0) for l in clause) for clause in formula.clauses):
            return True
    return False


def random_cnf(rng: random.Random, max_vars=12, max_clauses=20, width=3):
    from clutterkit import CnfFormula

    n = rng.randint(width, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(n, tuple(clauses))


def random_cover_instance(rng: random.Random, max_elements=12, max_sets=10,
                          max_weight=9):
    from clutterkit import SetCoverInstance

    n = rng.randint(1, max_elements)
    m = rng.randint(1, max_sets)
    sets = [set(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(m)]
    # patch any uncovered element into a random set so the instance is feasible
    covered = set().union(*sets)
    for u in range(1, n + 1):
        if u not in covered:
            sets[rng.randrange(m)].add(u)
    weights = tuple(Fraction(rng.randint(1, max_weight)) for _ in range(m))
    return SetCoverInstance(n, tuple(frozenset(s) for s in sets), weights)
