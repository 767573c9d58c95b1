"""Shared test utilities: independent brute-force oracles, the inputs and
generators more than one test module draws from, and two probes.

The oracles here avoid the package's algorithms on purpose: transversals
by subset enumeration, minors by trying every deletion/contraction
assignment, covers by subfamily enumeration, SAT by truth table.  Past
the reach of subset enumeration, fk_is_blocker checks a claimed blocker
by Fredman and Khachiyan's duality test.  The probes watch the package
at work: spy logs the calls of one of its functions, and traced measures
the peak memory of one call.
"""
from __future__ import annotations

import itertools
import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import or_

from clutterkit import Clutter, ONE, ZERO

C6 = Clutter([[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]])


def spy(monkeypatch, module, name, note, log=None) -> list:
    """Patch module's function name so that each call first appends
    note(*args) to log, a new list unless one is given; return log.  Two
    spies given one log keep their calls in one order."""
    log = [] if log is None else log
    inner = getattr(module, name)

    def spied(*args):
        log.append(note(*args))
        return inner(*args)

    monkeypatch.setattr(module, name, spied)
    return log


def traced(run):
    """run() and the tracemalloc peak, in bytes, of that call alone."""
    tracemalloc.start()
    try:
        got = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, peak


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


def exact_clutter(rng: random.Random, n: int, m: int, r: int) -> Clutter:
    """m edges of exactly r vertices, each a sample of 0..n-1, minimalized
    (which here only drops repeats)."""
    return Clutter(sorted(rng.sample(range(n), r)) for _ in range(m))


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


def fk_is_blocker(edges, candidate) -> bool:
    """True iff candidate is exactly the family of minimal transversals of
    edges, by Fredman and Khachiyan's algorithm A (J. Algorithms 21, 1996).

    Every candidate set must meet every edge, and every vertex of it must
    have a private edge, one that the set meets in that vertex alone.  Then
    the two families must be dual, which the recursion in _fk_dual decides
    without enumerating subsets, so it reaches sizes brute force cannot.
    """
    verts = sorted(set().union(*map(set, edges), *map(set, candidate)))
    bit = {v: 1 << i for i, v in enumerate(verts)}
    f = [sum(bit[v] for v in set(e)) for e in edges]
    g = [sum(bit[v] for v in set(t)) for t in candidate]
    if len(set(g)) < len(g):
        return False
    for t in g:
        private = 0
        for e in f:
            u = e & t
            if not u:
                return False
            if not u & (u - 1):
                private |= u
        if private != t:
            return False
    return _fk_dual(f, g)


def _fk_dual(f, g) -> bool:
    """Whether the monotone DNFs with terms f and g (antichains of bitmasks
    in which every term of f meets every term of g) are dual."""
    if not f:
        return g == [0]  # f is 0, so g must be 1
    if not g:
        return f == [0]
    if 0 in f or 0 in g:
        return False  # one side is 1, and the other is not 0
    n = reduce(or_, f + g).bit_length()
    if sum(1 << (n - t.bit_count()) for t in f + g) < 1 << n:
        return False  # then some x has f(x) and g(~x) both false
    x = max((1 << i for i in range(n)), key=lambda b: sum(1 for t in f + g if t & b))
    f0, f1 = [t for t in f if not t & x], [t ^ x for t in f if t & x]
    g0, g1 = [t for t in g if not t & x], [t ^ x for t in g if t & x]
    # f = x f1 | f0 and g = x g1 | g0 are dual exactly when f0 | f1 is dual
    # to g0 and f0 is dual to g0 | g1
    return _fk_dual(_join(f1, f0), g0) and _fk_dual(f0, _join(g1, g0))


def _join(stripped, rest):
    """The minimal sets of two antichains, where no set of stripped holds a
    set of rest: all of stripped, and each set of rest holding none of it."""
    return stripped + [t for t in rest if not any(s & t == s for s in stripped)]


def berge_fold_peak(edges, clashes=()) -> int:
    """Largest family an unindexed Berge fold holds after any step.

    Folds the edges in the order given, keeping every set that meets the
    new edge, extending the others by each vertex of it, and dropping any
    set with a proper subset in the new family.  Then it drops every set
    that holds both vertices of a pair in clashes.  The intermediate
    families depend on the order, so pass the edges in fold_order to match
    the package's fold.
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


def fold_order(edges) -> list:
    """The edges in the order the package's Berge fold takes them: every
    edge of at most one vertex first, then the others by least vertex,
    greatest first; ties keep the order given."""
    return sorted(edges, key=lambda e: (len(e) > 1, -min(e) if len(e) > 1 else 0))


def matched_clique(k: int) -> Clutter:
    """The edges {i, k + i} for i < k and every pair {k + i, k + j}: a
    clique on k..2k-1 with a pendant edge at each vertex.  It has rank 2
    and no 2K2 minor, and its blocker has k + 1 sets: the whole clique,
    and for each i the clique less k + i, with i."""
    return Clutter([[i, k + i] for i in range(k)]
                   + [[k + i, k + j] for i in range(k) for j in range(i + 1, k)])


def rotations(n: int, *shapes) -> Clutter:
    """The clutter of the sets {i + d for d in ds} mod n, for each i < n
    and each tuple ds of shapes."""
    return Clutter([(i + d) % n for d in ds] for i in range(n) for ds in shapes)


def rotation_clutter(n: int) -> Clutter:
    """The dense rank-4 clutter of the sets {i, i+1, i+3, i+7} and
    {i, i+2, i+5, i+9} mod n, for each i < n."""
    return rotations(n, (0, 1, 3, 7), (0, 2, 5, 9))


def gapped_path(n: int) -> Clutter:
    """A path on n vertices whose labels leave gaps: edge i joins
    3i + i % 2 and 3i + 3 + (i + 1) % 2."""
    return Clutter([3 * i + i % 2, 3 * i + 3 + (i + 1) % 2] for i in range(n - 1))


def fan(n: int) -> Clutter:
    """The rank-3 fan of the n edges {0, 2i+1, 2i+2}."""
    return Clutter([0, 2 * i + 1, 2 * i + 2] for i in range(n))


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


def fs_expansion(sets, blocks, carrier) -> set[frozenset]:
    """The expansion as defined: the join, over every way of choosing one
    vertex from each block, of the minor that deletes the chosen image and
    contracts the rest of the carrier."""
    out: set[frozenset] = set()
    for choice in itertools.product(*blocks):
        out = fs_join(out, fs_restrict(sets, choice, frozenset(carrier) - set(choice)))
    return out


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


def fs_is_expanded_minor_matching(edges, pairs) -> bool:
    """fs_is_semi_matching plus condition 3b as written, over frozensets."""
    ls = [frozenset(l) for l, _ in pairs]
    ss = [frozenset(s) for _, s in pairs]
    return (fs_is_semi_matching(edges, pairs)
            and not any(ls[i] & ss[j] for i in range(len(ls)) for j in range(len(ls))
                        if i != j))  # 3b


def fs_conflict_edges(pairs) -> tuple[tuple[int, int], ...]:
    """Conflict-graph edges by the frozenset loop: i < j conflict when one
    host meets the other pair's two-vertex set in exactly one vertex."""
    prs = tuple(pairs)
    lsets = [frozenset(l) for l, _ in prs]
    ssets = [frozenset(s) for _, s in prs]
    edges = []
    for i in range(len(prs)):
        for j in range(i + 1, len(prs)):
            if len(ssets[i] & lsets[j]) == 1 or len(ssets[j] & lsets[i]) == 1:
                edges.append((i, j))
    return tuple(edges)


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


def brute_has_matching_minor(edge_sets, k: int) -> bool:
    """Exhaustive search over every keep/delete/contract assignment for a
    minor of k disjoint two-vertex edges."""
    return brute_minor_contains(edge_sets, lambda mins: (
        len(mins) == k and all(len(s) == 2 for s in mins)
        and len(frozenset().union(*mins)) == 2 * k))


def brute_covers(inst):
    """Every subfamily of inst's sets that covers its universe, as a tuple
    of set indices, fewest sets first."""
    universe = set(range(1, inst.universe_size + 1))
    for r in range(len(inst.sets) + 1):
        for combo in itertools.combinations(range(len(inst.sets)), r):
            if set().union(*(inst.sets[i] for i in combo)) >= universe:
                yield combo


def brute_min_cover_cost(inst, objective="cardinality"):
    """Minimum cover cost over every subfamily; None when infeasible."""
    return min((len(combo) if objective == "cardinality"
                else sum((inst.weights[i] for i in combo), Fraction(0))
                for combo in brute_covers(inst)), default=None)


def truth_table_satisfiable(formula) -> bool:
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        values = {i + 1: bits[i] for i in range(formula.num_vars)}
        if all(any(values[abs(l)] == (l > 0) for l in clause) for clause in formula.clauses):
            return True
    return False


def brute_consistent_minimal_transversals(formula) -> set[frozenset]:
    """The minimal transversals of a formula's clauses, over the literal
    vertices 2i (x_i) and 2i + 1 (not x_i), that hold no pair {2i, 2i + 1}.

    Enumerates every consistent set: each variable gives 2i, 2i + 1 or
    neither.  Every subset of a consistent set is consistent, so a
    consistent transversal is minimal exactly when no set one vertex
    smaller is a transversal.
    """
    edges = [frozenset(2 * l if l > 0 else -2 * l + 1 for l in c) for c in formula.clauses]
    choices = [((), (2 * i,), (2 * i + 1,)) for i in range(1, formula.num_vars + 1)]
    out = set()
    for pick in itertools.product(*choices):
        t = frozenset(itertools.chain.from_iterable(pick))
        if all(t & e for e in edges) and all(
                not all((t - {v}) & e for e in edges) for v in t):
            out.add(t)
    return out


def clause(rng: random.Random, variables, width: int) -> tuple[int, ...]:
    """width distinct variables drawn from variables, each negated with
    probability 1/2."""
    return tuple(v if rng.random() < 0.5 else -v for v in rng.sample(variables, width))


def random_cnf(rng: random.Random, max_vars=12, max_clauses=20, width=3):
    from clutterkit import CnfFormula

    n = rng.randint(width, max_vars)
    m = rng.randint(1, max_clauses)
    return CnfFormula(n, tuple(clause(rng, range(1, n + 1), width) for _ in range(m)))


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


def cnf8_text() -> str:
    """DIMACS text of a 3-CNF formula of 34 clauses on 8 variables, which
    uses all 16 literals."""
    clauses = ("".join(f"{(1 - 2 * ((5 * i + i // 8) % 8 >> b & 1)) * ((i + d) % 8 + 1)} "
                       for b, d in enumerate((0, 2, 5))) + "0\n" for i in range(34))
    return "p cnf 8 34\n" + "".join(clauses)


def cover12_text() -> str:
    """Set-cover text of 12 sets {i, i+1, i+3} mod 12, plus 1 to each
    element, on 12 elements, with tied weights 1 + 5i mod 3."""
    return "12 12\n" + "".join(f"{1 + 5 * i % 3} 3 {i + 1} {(i + 1) % 12 + 1} {(i + 3) % 12 + 1}\n"
                               for i in range(12))


def quadratic_greedy_independent_set(graph) -> tuple[int, ...]:
    """Min-degree greedy by a full scan of the survivors each round: the
    earlier greedy_independent_set, kept as its reference."""
    adj = graph.neighbor_map()
    alive = set(range(graph.n))
    chosen: list[int] = []
    while alive:
        v = min(alive, key=lambda u: (len(adj[u] & alive), u))
        chosen.append(v)
        alive.discard(v)
        alive -= adj[v]
    return tuple(sorted(chosen))


def recomputed_extract_minor_matching(h, matching):
    """The earlier extract_minor_matching, kept as its reference: it
    recomputes the whole conditional expectation for both choices of
    every leftover pair.  It uses the package's validator and conflict
    graph, which have their own differential tests."""
    from clutterkit import SemiMatching, build_conflict_graph, is_semi_matching

    if not is_semi_matching(h, matching):
        raise ValueError("input is not a semi-matching of the given clutter")
    prs = matching.pairs
    if not prs:
        return matching
    stable = quadratic_greedy_independent_set(build_conflict_graph(matching))
    outside = [j for j in range(len(prs)) if j not in stable]
    s_of = {i: frozenset(prs[i][1]) for i in stable}
    if not outside:
        return SemiMatching(prs)
    l_of = {j: prs[j][0] for j in outside}

    def expected(fixed: dict[int, int]) -> Fraction:
        total = Fraction(0)
        for i in stable:
            si = s_of[i]
            p = Fraction(1)
            for j in outside:
                v = fixed.get(j)
                if v is not None:
                    if v in si:
                        p = Fraction(0)
                        break
                else:
                    p *= Fraction(len(set(l_of[j]) - si), 2)
            total += p
        return total

    fixed: dict[int, int] = {}
    for j in outside:
        lo, hi = l_of[j]
        fixed[j] = lo if expected(fixed | {j: lo}) >= expected(fixed | {j: hi}) else hi
    picked = set(fixed.values())
    keep = [i for i in stable if not (picked & s_of[i])]
    return SemiMatching(prs[i] for i in keep)


def ring_semi_matching(n: int):
    """A rank-3 ring of n pairs and its clutter of hosts: pair i is
    {3i, 3i+1} and its host adds 3((i+1) mod n), the low vertex of the
    next pair, so the conflict graph is a cycle."""
    from clutterkit import SemiMatching

    hosts = [(3 * i, 3 * i + 1, 3 * ((i + 1) % n)) for i in range(n)]
    return Clutter(hosts), SemiMatching((h[:2], h) for h in hosts)


def random_tangled_semi_matching(rng: random.Random, max_pairs=9, max_fresh=4):
    """A random semi-matching of its own clutter of hosts, built to leave
    pairs over after the greedy independent set.

    Each host is its pair plus at most one vertex of each of some other
    pairs (so 3a holds) plus a few vertices in no pair.  No host lies
    inside another, and the clutter's edges are the hosts, so conditions
    1 and 4 hold too.
    """
    from clutterkit import SemiMatching

    n = rng.randint(2, max_pairs)
    labels = rng.sample(range(2 * n + max_fresh), 2 * n + max_fresh)
    pairs = [tuple(labels[2 * i:2 * i + 2]) for i in range(n)]
    fresh = labels[2 * n:]
    hosts = []
    for i, l in enumerate(pairs):
        others = [p for j, p in enumerate(pairs) if j != i]
        touched = rng.sample(others, rng.randint(0, min(3, len(others))))
        extra = rng.sample(fresh, rng.randint(0, 2))
        hosts.append(tuple(sorted({*l, *extra, *(rng.choice(p) for p in touched)})))
    return Clutter(hosts), SemiMatching(zip(pairs, hosts))
