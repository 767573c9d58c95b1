import functools
import importlib
import itertools
import random
import sys
from math import comb

import pytest

from clutterkit import (
    Assignment,
    Clutter,
    CnfFormula,
    ONE,
    ResourceLimitError,
    ZERO,
    blocker,
    cnf_to_clutter,
    expansion,
    is_transversal,
    kk2,
    maximal_independent_sets,
    solve_sat,
    staircase,
)

from clutterkit.blocker import (
    DECODE_TABLES_KEPT,
    DEFAULT_EDGE_BUDGET,
    _berge,
    _decode,
    _decode_tables,
    _digits,
    _edge_masks,
    _fold,
    _layers,
    _minimal_masks,
    _transversals,
    cheapest_transversal,
)

from helpers import (
    C6,
    berge_fold_peak,
    brute_minimal_transversals,
    canonical_edges,
    clause,
    exact_clutter,
    fk_is_blocker,
    fold_order,
    random_clutter_sample,
    rotation_clutter,
    rotations,
    spy,
    traced,
    truth_table_satisfiable,
)

# the attribute clutterkit.blocker is the function, not the module
BLOCKER = importlib.import_module("clutterkit.blocker")


def _spanning_edges(rng, verts, rank, count):
    """count random sets of rank vertices that together hold all of verts."""
    while True:
        edges = [rng.sample(verts, rank) for _ in range(count)]
        if set().union(*edges) == set(verts):
            return edges


def _disjoint_union(parts):
    """The clutter of the parts' edges, whose vertex sets are disjoint, with
    its minimal transversals: one of each part's, joined."""
    want = {frozenset().union(*pick)
            for pick in itertools.product(*map(brute_minimal_transversals, parts))}
    return Clutter([e for part in parts for e in part]), want


def _packed_fold_cases():
    """Clutters with their brute-force minimal transversals: the bounds,
    singletons, kk2(1..10), and seeded clutters on 7, 8, 15, 16, 23 and 24
    vertices, where a packed field grows by a byte."""
    rng = random.Random(59)
    cases = [(h, brute_minimal_transversals(h.edge_sets))
             for h in (ZERO, ONE, Clutter([[0]]), Clutter([[3], [5], [10**6]]))]
    cases += [_disjoint_union([[(2 * i, 2 * i + 1)] for i in range(k)]) for k in range(1, 11)]
    for sizes in ([7], [8], [15], [8, 7], [16], [8, 8], [8, 8, 7], [8, 8, 8]):
        for _ in range(2 if sum(sizes) > 8 else 6):
            labels = rng.sample(range(100), sum(sizes))  # the parts' vertices interleave
            parts = []
            for size in sizes:
                verts, labels = labels[:size], labels[size:]
                rank = rng.randint(2, 4)
                count = rng.randint(-(-size // rank), size if len(sizes) == 1 else 6)
                parts.append(_spanning_edges(rng, verts, rank, count))
            h, want = _disjoint_union(parts)
            assert len(h.vertices) == sum(sizes)
            cases.append((h, want))
    return cases


def _first_consistent(parts, num_vars):
    """The assignment read off the canonically first blocker set, holding no
    complementary literal pair, of a formula whose clause groups, given as
    literal-vertex edges, share no variable; or None."""
    def consistent(t):
        return not any(2 * i in t and 2 * i + 1 in t for i in range(1, num_vars + 1))

    per_part = [[t for t in brute_minimal_transversals(part) if consistent(t)] for part in parts]
    sets = canonical_edges(frozenset().union(*pick) for pick in itertools.product(*per_part))
    if not sets:
        return None
    return Assignment({i: 2 * i in sets[0] for i in range(1, num_vars + 1)})


def _packed_sat_cases():
    """3-CNF formulas of up to 12 variables (24 literal vertices) made of
    clause groups on disjoint variables, with their expected answers."""
    rng = random.Random(61)
    cases = []
    for sizes in ([4], [7], [4, 3], [4, 4], [4, 4, 3], [4, 4, 4]):
        for _ in range(5):
            variables = rng.sample(range(1, sum(sizes) + 1), sum(sizes))
            clauses, parts = [], []
            for size in sizes:
                group, variables = variables[:size], variables[size:]
                part = [clause(rng, group, 3) for _ in range(rng.randint(1, 6 * size))]
                clauses += part
                parts.append([[2 * l if l > 0 else -2 * l + 1 for l in c] for c in part])
            f = CnfFormula(sum(sizes), tuple(clauses))
            cases.append((f, _first_consistent(parts, f.num_vars)))
    return cases


def _wide_fold_cases():
    """kk2(10) and seeded clutters of rank 2-4 on 20-30 vertices, past the
    reach of brute force, whose blockers hold 663 to 1,830 sets; a packed field
    there takes 3 or 4 bytes."""
    rng = random.Random(71)
    cases = [kk2(10)]
    for n, rank, count in [(20, 3, 30), (22, 3, 35), (20, 4, 40), (26, 2, 30), (30, 2, 40)]:
        cases.append(Clutter(_spanning_edges(rng, rng.sample(range(60), n), rank, count)))
    return cases


@functools.lru_cache(maxsize=None)
def _fk_verdict(h, candidate):
    """fk_is_blocker, run once per clutter and candidate however often a
    fixture repeats the test."""
    return fk_is_blocker(h.edges, candidate)


def _singleton_fold_cases():
    """Seeded clutters of rank 2 to 4 on 20 to 30 vertices, past the reach
    of brute force, most of them with singleton edges on vertices of their
    own."""
    rng = random.Random(89)
    cases = []
    for n, rank, count, singles in [(20, 3, 30, 0), (21, 4, 24, 1), (24, 3, 30, 3),
                                    (26, 2, 34, 1), (28, 2, 34, 3), (30, 2, 40, 2)]:
        verts = rng.sample(range(60), n)
        edges = _spanning_edges(rng, verts[singles:], rank, count)
        cases.append(Clutter(edges + [[v] for v in verts[:singles]]))
    return cases


_PACKED_FOLD_CASES = _packed_fold_cases()
_PACKED_SAT_CASES = _packed_sat_cases()
_WIDE_FOLD_CASES = _wide_fold_cases()
_SINGLETON_FOLD_CASES = _singleton_fold_cases()


class TestBlocker:
    def test_zero_maps_to_one(self):
        assert blocker(ZERO) == ONE

    def test_one_maps_to_zero(self):
        assert blocker(ONE) == ZERO

    def test_path_example(self):
        # expected values from subset enumeration over {1,2,3}
        assert blocker(Clutter([[1, 2], [2, 3]])) == Clutter([[2], [1, 3]])

    def test_two_pair_matching(self):
        assert blocker(kk2(2)) == Clutter([[0, 2], [0, 3], [1, 2], [1, 3]])

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(120):
            h = random_clutter_sample(rng, max_vertices=9, max_edges=7)
            expected = brute_minimal_transversals(h.edge_sets)
            got = blocker(h)
            assert set(got.edge_sets) == expected
            assert len(got) == len(expected)

    def test_matches_brute_force_at_twelve_vertices(self):
        rng = random.Random(13)
        for _ in range(30):
            h = random_clutter_sample(rng, max_vertices=12, max_edges=8,
                                      max_rank=6, allow_bounds=False)
            assert set(blocker(h).edge_sets) == brute_minimal_transversals(h.edge_sets)

    def test_staircase_blockers_match_brute_force(self):
        from clutterkit import staircase

        for n in range(1, 7):
            h = staircase(n)
            assert set(blocker(h).edge_sets) == brute_minimal_transversals(h.edge_sets)

    def test_budget_error(self):
        with pytest.raises(ResourceLimitError):
            blocker(kk2(8), edge_budget=100)

    def test_matches_brute_force_on_exact_size_edges(self):
        # edges of one size stay distinct under minimalization, so the
        # families grow large enough to exercise pruning
        rng = random.Random(43)
        for _ in range(40):
            r = rng.choice((3, 4))
            n = rng.randint(r + 1, 12)
            h = Clutter([rng.sample(range(1, n + 1), r)
                         for _ in range(rng.randint(1, 20))])
            assert set(blocker(h).edge_sets) == brute_minimal_transversals(h.edge_sets)

    def _assert_budget_trips_past_peak(self, h, peak):
        assert blocker(h, edge_budget=peak) == blocker(h)
        with pytest.raises(ResourceLimitError):
            blocker(h, edge_budget=peak - 1)

    def test_budget_caps_the_peak_family(self):
        rng = random.Random(47)
        for _ in range(40):
            h = random_clutter_sample(rng, max_vertices=10, max_edges=10,
                                      allow_bounds=False)
            self._assert_budget_trips_past_peak(h, berge_fold_peak(fold_order(h.edges)))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_budget_caps_the_peak_family_on_matchings(self, k):
        h = kk2(k)
        assert berge_fold_peak(h.edges) == 2**k
        self._assert_budget_trips_past_peak(h, 2**k)

    @pytest.mark.parametrize("k", range(9, 13))
    def test_budget_trips_inside_packed_steps_on_matchings(self, k, pack_from):
        # each step of the kk2 fold doubles the family, as the test above
        # checks up to k = 8, so the peak is 2^k, reached by the last step
        self._assert_budget_trips_past_peak(kk2(k), 2**k)

    def test_budget_trips_inside_packed_steps(self, pack_from):
        rng = random.Random(53)
        for _ in range(12):
            rank = rng.choice((3, 4))
            n = rng.randint(14, 24)
            h = Clutter(rng.sample(range(n), rank) for _ in range(rng.randint(n // 2, 2 * n // 3)))
            self._assert_budget_trips_past_peak(h, berge_fold_peak(fold_order(h.edges)))

    def test_sat_budget_trips_inside_packed_steps(self, pack_from):
        rng = random.Random(71)
        for _ in range(12):
            n = rng.randint(7, 12)
            f = CnfFormula(n, tuple(clause(rng, range(1, n + 1), 3)
                                    for _ in range(rng.randint(n, round(4.2 * n)))))
            clashes = [(2 * i, 2 * i + 1) for i in range(1, n + 1)]
            peak = berge_fold_peak(fold_order(cnf_to_clutter(f).edges), clashes)
            assert solve_sat(f, edge_budget=peak) == solve_sat(f)
            with pytest.raises(ResourceLimitError):
                solve_sat(f, edge_budget=peak - 1)

    def test_memory_of_sixty_five_thousand_sets(self):
        got, peak = traced(lambda: blocker(kk2(16)))
        assert len(got) == 2**16
        assert peak < 16 * 10**6  # bytes; 14.2 MB when first measured

    def test_memory_of_the_packed_scratch(self):
        # kk2(16) above never has more than 16 seen edges; here late packed
        # steps see up to 47.  Their scratch of private fields is one packed
        # int per part of the new edge that a seen edge misses, at most 7
        # for rank 3.  The peak was 1.69x the family (1.52 MiB) when first
        # measured; one int per seen edge makes it 3.13x (2.80 MiB)
        rng = random.Random(1)
        h = Clutter([tuple(sorted(rng.sample(range(1, 33), 3))) for _ in range(48)])
        (_, family), peak = traced(lambda: _fold(h, DEFAULT_EDGE_BUDGET))
        assert len(family) == 23_852
        assert peak < 2.4 * (sys.getsizeof(family) + sum(map(sys.getsizeof, family)))


# a dense rank-4 clutter on 14 vertices whose blocker has 303 sets
DENSE14 = rotation_clutter(14)


def _engine_cases():
    """Clutters with their brute-force minimal transversals: no vertices,
    tables smaller than one byte, the packed-fold cases (up to 16 vertices),
    and seeded exact-size clutters on up to 12 vertices."""
    rng = random.Random(79)
    small = [Clutter([[0, 1]]), Clutter([[0], [1]]), Clutter([[5, 9], [9, 11]]), C6]
    cases = [(h, brute_minimal_transversals(h.edge_sets)) for h in small]
    cases += _PACKED_FOLD_CASES
    for _ in range(40):
        r = rng.randint(2, 5)
        n = rng.randint(r + 1, 12)
        h = Clutter(rng.sample(range(n), r) for _ in range(rng.randint(1, 3 * n)))
        cases.append((h, brute_minimal_transversals(h.edge_sets)))
    return cases


_ENGINE_CASES = _engine_cases()


@functools.lru_cache(maxsize=None)
def _brute_dense14():
    return brute_minimal_transversals(DENSE14.edge_sets)


class TestEngines:
    def test_blocker_and_independent_sets_match_brute_force(self, engine):
        assert {len(h.vertices) for h, _ in _ENGINE_CASES} >= {0, 1, 2, 3, 16}
        for h, want in _ENGINE_CASES:
            got = blocker(h)
            assert set(got.edge_sets) == want
            assert len(got) == len(want)
            verts = frozenset(h.vertices)
            assert maximal_independent_sets(h) == canonical_edges(verts - t for t in want)

    def test_dense_clutter_on_fourteen_vertices(self, engine):
        want = _brute_dense14()
        assert len(want) == 303
        for budget in (10**6, 3432, 3431):
            assert set(blocker(DENSE14, edge_budget=budget).edge_sets) == want

    def test_solve_sat_returns_the_first_consistent_blocker_set(self, engine):
        for f, want in _PACKED_SAT_CASES:
            assert solve_sat(f) == want

    def test_wide_clutters_with_singletons_match_the_duality_oracle(self, engine):
        assert [len(h.vertices) for h in _SINGLETON_FOLD_CASES] == [20, 21, 24, 26, 28, 30]
        for h in _SINGLETON_FOLD_CASES:
            b = blocker(h)
            assert _fk_verdict(h, b.edges)


@pytest.fixture
def lattice_calls(monkeypatch):
    """The vertex count of each table of transversals the subset lattice
    builds, for the fold and for the one-answer pick alike."""
    return spy(monkeypatch, BLOCKER, "_transversals", lambda n, masks, pairs: n)


@pytest.fixture
def pick_calls(monkeypatch):
    """The variable count of each table of partial assignments built for a
    one-answer pick with literals."""
    return spy(monkeypatch, BLOCKER, "_consistent_pick", lambda verts, names, edges: len(names))


def _sat(v):
    """A 3-CNF formula on v variables with round(2.5v) clauses.  Its clause
    clutter holds all 2v literal vertices for v = 8 to 11, with 19 edges at
    v = 8, 22 at 9, 25 at 10 and 28 at 11."""
    rng = random.Random(0)
    return CnfFormula(v, tuple(clause(rng, range(1, v + 1), 3) for _ in range(round(2.5 * v))))


class TestLatticeSwitch:
    """The subset lattice answers every fold on at most LATTICE_UP_TO
    vertices whose budget is at least C(n, n // 2), and no other."""

    def test_long_fold_on_fourteen_vertices(self, lattice_calls):
        got = blocker(DENSE14)
        assert lattice_calls == [14]
        assert maximal_independent_sets(DENSE14) == canonical_edges(
            frozenset(DENSE14.vertices) - set(t) for t in got)
        assert lattice_calls == [14, 14]

    def test_not_below_the_sperner_bound(self, lattice_calls):
        # C(14, 7) = 3432 sets: one fewer and the fold could trip its budget
        assert blocker(DENSE14, edge_budget=3431) == blocker(DENSE14, edge_budget=3432)
        assert lattice_calls == [14]

    def test_not_on_seventeen_vertices(self, lattice_calls):
        h = rotations(17, (0, 1, 3, 7), (0, 2, 5, 9), (0, 4, 6, 13))
        assert len(h.vertices) == 17
        assert fk_is_blocker(h.edges, blocker(h).edges)
        assert lattice_calls == []

    @pytest.mark.parametrize("h, size", [(staircase(7), 8), (kk2(7), 128), (staircase(8), 9), (kk2(8), 256)],
                             ids=["staircase-7", "kk2-7", "staircase-8", "kk2-8"])
    def test_sparse_clutters_in_one_call(self, h, size, lattice_calls, monkeypatch):
        # n / 2 edges: sparse folds, which the lattice answers as well
        n = len(h.vertices)
        got = blocker(h)
        assert len(got) == size
        assert lattice_calls == [n]
        assert fk_is_blocker(h.edges, got.edges)
        monkeypatch.setattr(BLOCKER, "LATTICE_UP_TO", -1)
        assert blocker(h) == got
        assert lattice_calls == [n]

    @pytest.mark.parametrize("n", [15, 16])
    def test_at_once_with_as_many_edges_as_vertices(self, n, lattice_calls):
        # the n-cycle: n edges on n vertices
        h = rotations(n, (0, 1))
        assert fk_is_blocker(h.edges, blocker(h).edges)
        assert lattice_calls == [n]

    def test_the_size_caps_come_before_the_sperner_bound(self, monkeypatch):
        # C(n, n // 2) costs milliseconds on 20,000 vertices, so no call past
        # the reach of both tables computes it
        sizes = spy(monkeypatch, BLOCKER, "comb", lambda n, k: n)
        blocker(kk2(12))
        solve_sat(_sat(11))
        assert len(blocker(Clutter([v] for v in range(2000)))) == 1
        assert sizes == []
        blocker(kk2(8))
        solve_sat(_sat(10))
        assert sizes == [16, 20]

    def test_a_literal_fold_reads_the_vertices_once(self, monkeypatch):
        # Clutter.vertices rebuilds its sorted union on every read
        h = cnf_to_clutter(_sat(11))
        want = cheapest_transversal(h, literals=True)
        reads = []
        vertices = Clutter.vertices
        monkeypatch.setattr(Clutter, "vertices", property(lambda c: reads.append(c) or vertices.fget(c)))
        assert cheapest_transversal(h, literals=True) == want
        assert reads == [h]

    @pytest.mark.parametrize("v", [8, 10])
    def test_literal_folds_in_one_call(self, v, pick_calls, lattice_calls, monkeypatch):
        f = _sat(v)
        h = cnf_to_clutter(f)
        assert len(h.vertices) == 2 * v and len(h) >= 2 * v
        got = solve_sat(f)
        if v == 8:  # brute force over 2^20 subsets is too slow for the suite
            assert got == _first_consistent([h.edges], f.num_vars)
        assert pick_calls == [v]
        assert lattice_calls == []
        monkeypatch.setattr(BLOCKER, "LATTICE_UP_TO", -1)
        assert solve_sat(f) == got
        assert pick_calls == [v]


class TestLatticeReadout:
    """The lattice's tables read off at their first and last bytes, and on
    the largest tables it builds."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_first_and_last_bits_of_the_table(self, n, monkeypatch):
        monkeypatch.setattr(BLOCKER, "LATTICE_UP_TO", -1)
        full = (1 << n) - 1
        # the n singletons: one transversal, the table's last bit; the one
        # edge of all n vertices: the n singletons, its first bits
        for h, masks, want in [(Clutter([i] for i in range(n)), [1 << i for i in range(n)], [full]),
                               (Clutter([range(n)]), [full], [1 << i for i in range(n)])]:
            verts, folded = _fold(h, DEFAULT_EDGE_BUDGET)
            assert verts == tuple(range(n))
            assert sorted(folded) == want
            assert _minimal_masks(n, _transversals(n, masks, 0)) == want

    def test_dense_clutters_on_sixteen_vertices(self, lattice_calls):
        rng = random.Random(89)
        for rank in (2, 3, 4, 3, 4):
            h = Clutter(_spanning_edges(rng, list(range(16)), rank, rng.randint(16, 48)))
            assert len(h.vertices) == 16 and len(h) >= 16
            assert _fk_verdict(h, blocker(h).edges)
            complements = canonical_edges(frozenset(range(16)) - set(s)
                                          for s in maximal_independent_sets(h))
            assert _fk_verdict(h, complements)
        assert lattice_calls == [16] * 10


def _brute_digits(n, radix):
    """The n digits in radix of each index below radix^n, from the low
    digit up."""
    return [[s // radix ** i % radix for i in range(n)] for s in range(radix ** n)]


class TestLayers:
    """The digit tables and layers of both truth tables: radix 2 over the
    subsets of n vertices, radix 3 over the partial assignments of n
    variables."""

    @pytest.mark.parametrize("radix, most", [(2, 10), (3, 6)])
    def test_digits_match_brute_force(self, radix, most):
        for n in range(most + 1):
            digits = _brute_digits(n, radix)
            assert _digits(n, radix) == tuple(
                sum(1 << s for s, ds in enumerate(digits) if ds[i] == d)
                for i in range(n) for d in range(radix - 1, 0, -1))

    @pytest.mark.parametrize("radix, most", [(2, 10), (3, 6)])
    def test_layers_match_brute_force(self, radix, most):
        for n in range(most + 1):
            want = [0] * (n + 1)
            for s, ds in enumerate(_brute_digits(n, radix)):
                want[n - ds.count(0)] |= 1 << s
            assert _layers(n, radix) == tuple(want)

    @pytest.mark.parametrize("radix, n", [(2, 16), (3, 10)])
    def test_tables_partition_the_table(self, radix, n):
        full = (1 << radix ** n) - 1
        layers = _layers(n, radix)
        assert ([layer.bit_count() for layer in layers]
                == [comb(n, k) * (radix - 1) ** k for k in range(n + 1)])
        # the sum equals the OR only when no two tables share a bit
        assert functools.reduce(int.__or__, layers) == sum(layers) == full
        digits = _digits(n, radix)
        for i in range(n):
            nonzero = digits[(radix - 1) * i:(radix - 1) * (i + 1)]
            assert [d.bit_count() for d in nonzero] == [radix ** (n - 1)] * (radix - 1)
            assert functools.reduce(int.__or__, nonzero) == sum(nonzero)
        # an index of layer k holds k nonzero digits
        for k, layer in enumerate(layers):
            assert sum((d & layer).bit_count() for d in digits) == k * layer.bit_count()


def _literal_pick_cases():
    """Clutters on literal vertices, with the bounds, vertices 0 and 1,
    variables with one literal present, singleton edges, and the clause
    clutters of formulas with singleton and subsumed clauses."""
    rng = random.Random(211)
    cases = [ZERO, ONE, Clutter([[0], [1]]), Clutter([[0, 1]]), Clutter([[1]]),
             Clutter([[0, 2], [1, 3]]), Clutter([[4], [5, 6], [2, 7]])]
    for _ in range(60):
        # vertices 0 to 11: one or both literals of each of up to 6 variables
        verts = rng.sample(range(12), rng.randint(1, 12))
        cases.append(Clutter(rng.sample(verts, rng.randint(1, min(3, len(verts))))
                             for _ in range(rng.randint(1, 8))))
    for _ in range(40):
        v = rng.randint(1, 6)
        clauses = [clause(rng, range(1, v + 1), rng.randint(1, min(3, v)))
                   for _ in range(rng.randint(1, 3 * v))]
        # a clause and one that it subsumes
        clauses += [clauses[0] + tuple(x for x in range(1, v + 1)
                                       if x not in clauses[0] and -x not in clauses[0])[:1]]
        cases.append(cnf_to_clutter(CnfFormula(v, clauses)))
    return cases


class TestAssignmentTable:
    """Without weights and with literals, on V variables with 3^V <=
    2^LATTICE_UP_TO and a budget of at least C(n, n // 2), the one answer
    comes off the 3^V-bit table of partial assignments, and no other."""

    def test_matches_the_brute_force_pick(self, pick_calls):
        cases = _literal_pick_cases()
        for h in cases:
            assert cheapest_transversal(h, literals=True) == _brute_cheapest(h, None, True)
        assert len(pick_calls) == len(cases)

    def test_packed_sat_cases(self, pick_calls):
        # up to 12 variables: the table answers on up to 10, the fold above
        table = []
        for f, want in _PACKED_SAT_CASES:
            assert solve_sat(f) == want
            count = len({v >> 1 for v in cnf_to_clutter(f).vertices})
            if count <= 10:
                table.append(count)
        assert pick_calls == table
        assert len(table) < len(_PACKED_SAT_CASES)

    @pytest.mark.parametrize("v", [9, 10])
    def test_hands_over_to_the_fold_below_the_sperner_bound(self, v, pick_calls, monkeypatch):
        h = cnf_to_clutter(_sat(v))
        n = len(h.vertices)
        assert n == 2 * v
        folds = spy(monkeypatch, BLOCKER, "_berge", lambda n, *args: n)
        got = cheapest_transversal(h, literals=True, edge_budget=comb(n, n // 2))
        assert pick_calls == [v] and folds == []
        assert cheapest_transversal(h, literals=True, edge_budget=comb(n, n // 2) - 1) == got
        assert pick_calls == [v] and folds == [n]

    def test_not_without_the_lattice_or_on_eleven_variables(self, pick_calls, monkeypatch):
        assert len(cnf_to_clutter(_sat(11)).vertices) == 22
        solve_sat(_sat(11))
        monkeypatch.setattr(BLOCKER, "LATTICE_UP_TO", -1)
        for v in (8, 10):
            solve_sat(_sat(v))
        assert pick_calls == []


@pytest.fixture
def minimal_steps(monkeypatch):
    """The vertex count of each minimality step and byte readout that the
    subset lattice runs on a table of transversals."""
    return spy(monkeypatch, BLOCKER, "_minimal_masks", lambda n, table: n)


def _brute_cheapest(h, weights, literals):
    """The least (cost, size, tuple) of the minimal transversals of h that,
    with literals, hold no v together with v ^ 1; or None."""
    pool = [tuple(sorted(t)) for t in brute_minimal_transversals(h.edge_sets)
            if not literals or not any(v ^ 1 in t for v in t)]
    costs = {t: sum(weights[v] for v in t) if weights is not None else 0 for t in pool}
    return min(pool, key=lambda t: (costs[t], len(t), t), default=None)


class TestCheapestTransversal:
    def test_matches_the_brute_force_pick(self, engine, pack_from):
        rng = random.Random(191)
        tied = 0
        for _ in range(80):
            h = random_clutter_sample(rng, max_vertices=9, max_edges=8)
            # small weights, zeros among them, so that costs often tie
            weights = [rng.choice((0, 1, 1, 2, 3)) for _ in range(10)]
            for w, literals in itertools.product((None, weights), (False, True)):
                want = _brute_cheapest(h, w, literals)
                assert cheapest_transversal(h, w, literals=literals) == want
            pool = brute_minimal_transversals(h.edge_sets)
            costs = [sum(weights[v] for v in t) for t in pool]
            tied += costs.count(min(costs, default=None)) > 1
        assert tied > 10

    def test_lattice_pick_runs_no_minimality_step(self, lattice_calls, minimal_steps):
        # the literal pick reads the table of partial assignments instead
        h = cnf_to_clutter(_sat(8))
        assert cheapest_transversal(h, literals=True) == _brute_cheapest(h, None, True)
        assert cheapest_transversal(DENSE14) == _brute_cheapest(DENSE14, None, False)
        assert lattice_calls == [14]
        assert minimal_steps == []
        # the weighted pick reads the minimal sets out, once
        weights = list(range(14))
        assert cheapest_transversal(DENSE14, weights) == _brute_cheapest(DENSE14, weights, False)
        assert lattice_calls == [14, 14]
        assert minimal_steps == [14]

    def test_fold_and_lattice_agree_past_the_sperner_bound(self):
        # C(14, 7) = 3432: one fewer keeps the fold, which could trip
        weights = [i % 3 for i in range(14)]
        for w in (None, weights):
            assert (cheapest_transversal(DENSE14, w, edge_budget=3431)
                    == cheapest_transversal(DENSE14, w, edge_budget=3432))
        with pytest.raises(ResourceLimitError):
            cheapest_transversal(DENSE14, edge_budget=60)


def _decode_bit_by_bit(verts, masks):
    """The reference decode: each mask tests every vertex bit, where bit
    n - 1 - i stands for verts[i]."""
    n = len(verts)
    bits = [(1 << n - 1 - i, v) for i, v in enumerate(verts)]
    return [tuple([v for bit, v in bits if t & bit]) for t in masks]


class TestDecode:
    def test_matches_the_bit_by_bit_decode(self):
        # 0 to 40 vertices: at 0 two tables of one entry, ((),), a partial
        # last table, the unrolled lookups up to 24 vertices and the loop
        # above them
        rng = random.Random(83)
        for n in range(41):
            verts = tuple(sorted(rng.sample(range(5 * n), n)))
            masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(50)]
            assert _decode(verts, masks) == _decode_bit_by_bit(verts, masks), n

    def test_tables_follow_the_vertices_not_their_count(self):
        # two vertex tuples of one length, in turn: tables cached by n
        # would decode the second with the first one's vertices
        rng = random.Random(89)
        for n in (3, 10, 16, 20, 30):
            a = tuple(range(n))
            b = tuple(sorted(rng.sample(range(100, 100 + 4 * n), n)))
            masks = [rng.getrandbits(n) for _ in range(20)]
            for verts in (a, b, a, b):
                assert _decode(verts, masks) == _decode_bit_by_bit(verts, masks), n

    def test_the_cache_holds_at_most_its_maxsize(self):
        # three times as many vertex tuples as the cache keeps, twice over,
        # so that evicted tuples come back
        rng = random.Random(97)
        tuples = [tuple(sorted(rng.sample(range(200), 5 + k % 20)))
                  for k in range(3 * DECODE_TABLES_KEPT)]
        assert _decode_tables.cache_info().maxsize == DECODE_TABLES_KEPT
        for verts in tuples + tuples:
            masks = [rng.getrandbits(len(verts)) for _ in range(10)]
            assert _decode(verts, masks) == _decode_bit_by_bit(verts, masks)
            assert _decode_tables.cache_info().currsize <= DECODE_TABLES_KEPT

    def test_a_mutated_answer_leaves_the_cache_alone(self):
        # two tables (at 3 and 12 vertices), three and more
        for n in (3, 12, 20, 30):
            verts = tuple(range(0, 2 * n, 2))
            masks = [(1 << n) - 1, 0, 5]
            want = _decode_bit_by_bit(verts, masks)
            got = _decode(verts, masks)
            got[0] = ()
            got.append((-1,))
            assert _decode(verts, masks) == want
            tables = _decode_tables(verts)
            assert type(tables) is tuple and all(type(t) is tuple for t in tables)

    def test_the_fewest_tables_of_even_widths(self):
        # two tables up to 16 vertices, then one per 8 bits, each of at
        # most 8 bits and no two more than a bit apart
        for n in range(65):
            widths = [len(t).bit_length() - 1 for t in _decode_tables(tuple(range(n)))]
            assert sum(widths) == n and max(widths) - min(widths) <= 1, n
            assert len(widths) == max(2, -(-n // 8)), n
        assert [len(t) for t in _decode_tables(tuple(range(20)))] == [128, 128, 64]


def _gapped_clutter(rng, n):
    """A seeded clutter on exactly n vertices whose labels have gaps: runs of
    2 to 4 shuffled labels, each with one more label drawn from them all."""
    labels = rng.sample(range(3 * n), n)
    while True:
        starts = range(0, n, rng.randint(2, 4))
        h = Clutter(labels[i:i + rng.randint(2, 4)] + rng.sample(labels, 1) for i in starts)
        if len(h.vertices) == n:
            return h


class TestCanonicalOrder:
    """blocker and maximal_independent_sets decode the fold's masks straight
    into canonical order, and restrict keeps the order of its edges:
    Clutter._from_antichain wraps both as given, without sorting."""

    def test_decoded_families_and_restrictions_are_canonical(self, engine, pack_from):
        rng = random.Random(101)
        tables = set()
        for n in (1, 3, 8, 13, 16, 17, 20, 24, 25, 28):
            for _ in range(3):
                h = _gapped_clutter(rng, n)
                # the three decode paths: two tables (up to 16 vertices),
                # three (up to 24), and the loop over four or more
                tables.add(min(len(_decode_tables(h.vertices)), 4))
                b = blocker(h)
                indep = maximal_independent_sets(h)
                assert b.edges == canonical_edges(b.edges)
                assert indep == canonical_edges(indep)
                for g in (h, b):
                    d = rng.sample(g.vertices, rng.randint(0, len(g.vertices)))
                    edges = g.restrict(d, ()).edges
                    assert edges == canonical_edges(edges)
        for g in (ZERO, ONE, blocker(ZERO), blocker(ONE)):
            assert g.edges == canonical_edges(g.edges)
            assert maximal_independent_sets(g) == canonical_edges(maximal_independent_sets(g))
        assert tables == {2, 3, 4}

    def test_first_consistent_transversal_is_the_first_consistent_blocker_set(
            self, engine, pack_from):
        # the reference re-sorts the blocker with tuple comparisons
        rng = random.Random(103)
        decided = set()
        for v in range(1, 13):
            for _ in range(8):
                f = CnfFormula(v, [clause(rng, range(1, v + 1), rng.randint(1, min(3, v)))
                                   for _ in range(rng.randint(1, round(4.2 * v)))])
                h = cnf_to_clutter(f)
                want = next((t for t in canonical_edges(blocker(h).edges)
                             if not any(2 * i in t and 2 * i + 1 in t for i in range(1, v + 1))),
                            None)
                assert cheapest_transversal(h, literals=True) == want
                decided.add(want is not None)
        assert decided == {True, False}


class TestIsTransversal:
    def test_cycle_odd_set(self):
        assert is_transversal(C6, [1, 3, 5])

    def test_vertex_set_always_works(self):
        rng = random.Random(3)
        for _ in range(40):
            h = random_clutter_sample(rng)
            if not h.is_one:
                assert is_transversal(h, h.vertices)

    def test_nothing_hits_the_empty_edge(self):
        assert not is_transversal(ONE, [1, 2, 3])
        assert not is_transversal(ONE, [])

    def test_everything_hits_zero(self):
        assert is_transversal(ZERO, [])
        assert is_transversal(ZERO, [7])


class TestMaximalIndependentSets:
    def test_cycle_fixture(self):
        assert maximal_independent_sets(C6) == (
            (1, 4), (2, 5), (3, 6), (1, 3, 5), (2, 4, 6),
        )

    def test_zero_has_the_empty_set(self):
        assert maximal_independent_sets(ZERO) == ((),)

    def test_single_edge(self):
        assert maximal_independent_sets(Clutter([[1, 2]])) == ((1,), (2,))

    def test_independent_and_maximal(self):
        rng = random.Random(17)
        for _ in range(50):
            h = random_clutter_sample(rng, allow_bounds=False)
            verts = set(h.vertices)
            for ind in maximal_independent_sets(h):
                iset = set(ind)
                assert not any(e <= iset for e in h.edge_sets)
                for v in verts - iset:
                    assert any(e <= iset | {v} for e in h.edge_sets)


class TestIndependentSetsFromTheFold:
    def test_complements_of_brute_force_transversals(self):
        rng = random.Random(19)
        clutters = [ZERO, ONE, Clutter([[0]]), Clutter([[10**6]]),
                    Clutter([[3], [8], [10**6]]), Clutter([[0, 10**6], [5]])]
        for _ in range(300):
            h = random_clutter_sample(rng, max_vertices=9, max_edges=8)
            if rng.random() < 0.3:  # sparse labels up to 10^6
                labels = rng.sample(range(10**6 + 1), 9)
                h = Clutter([labels[v - 1] for v in e] for e in h.edges)
            clutters.append(h)
        for h in clutters:
            verts = frozenset(h.vertices)
            want = canonical_edges(verts - t for t in brute_minimal_transversals(h.edge_sets))
            assert maximal_independent_sets(h) == want

    def test_budget_trips_where_the_blockers_does(self):
        rng = random.Random(23)
        clutters = [kk2(k) for k in range(1, 7)]
        clutters += [random_clutter_sample(rng, max_vertices=10, max_edges=10,
                                           allow_bounds=False) for _ in range(40)]
        for h in clutters:
            peak = berge_fold_peak(fold_order(h.edges))
            for dualize in (blocker, maximal_independent_sets):
                assert dualize(h, edge_budget=peak) == dualize(h)
                with pytest.raises(ResourceLimitError):
                    dualize(h, edge_budget=peak - 1)


@pytest.fixture
def packed_steps(monkeypatch):
    """The mover count of each step the fold packs."""
    return spy(monkeypatch, BLOCKER, "_extend_packed", lambda family, movers, *args: len(movers))


class TestPackedFold:
    """The fold's packed and per-mover steps, with the lattice switched off
    so that the cases on up to 16 vertices reach them."""

    @pytest.fixture(autouse=True)
    def fold_only(self, monkeypatch):
        monkeypatch.setattr(BLOCKER, "LATTICE_UP_TO", -1)

    def test_blocker_and_independent_sets_match_brute_force(self, pack_from):
        for h, want in _PACKED_FOLD_CASES:
            got = blocker(h)
            assert set(got.edge_sets) == want
            assert len(got) == len(want)
            verts = frozenset(h.vertices)
            assert maximal_independent_sets(h) == canonical_edges(verts - t for t in want)

    def test_solve_sat_returns_the_first_consistent_blocker_set(self, pack_from):
        decided = set()
        for f, want in _PACKED_SAT_CASES:
            a = solve_sat(f)
            assert a == want
            assert (a is not None) == truth_table_satisfiable(f)
            decided.add(a is not None)
        assert decided == {True, False}


    def test_steps_with_enough_movers_are_packed(self, packed_steps):
        # kk2(10) has 20 vertices, past the lattice; its disjoint edges make
        # every set a mover, so step i moves 2^i sets
        assert len(blocker(kk2(10))) == 1024
        pack_from = BLOCKER.PACK_FROM
        assert packed_steps == [1 << i for i in range(10) if 1 << i >= pack_from]
        assert packed_steps


@pytest.fixture
def fold_steps(monkeypatch):
    """Each step of the fold as its edge mask and the family before it:
    with every step packed, _extend_packed sees them all."""
    monkeypatch.setattr(BLOCKER, "PACK_FROM", 0)
    return spy(monkeypatch, BLOCKER, "_extend_packed",
               lambda family, movers, mask, *args: (mask, family + movers))


def _group_end_cases():
    """(clutter, literals): seeded clutters of up to 12 vertices, many with
    singleton edges; exact rank-3 and rank-4 clutters on 17 to 24 vertices;
    and the clause clutters of 3-CNF formulas, whose literal vertices 2i
    and 2i + 1 clash."""
    rng = random.Random(97)
    cases = [(random_clutter_sample(rng, max_vertices=12, max_edges=10, allow_bounds=False), False)
             for _ in range(40)]
    for n in range(17, 25):
        cases.append((exact_clutter(rng, n, rng.randint(n // 2, n), rng.choice((3, 4))), False))
    for v in range(4, 11):
        f = CnfFormula(v, [clause(rng, range(1, v + 1), 3)
                           for _ in range(rng.randint(v, round(4.2 * v)))])
        cases.append((cnf_to_clutter(f), True))
    return cases


class TestFoldOrder:
    def test_group_ends_are_blockers_of_deletion_minors(self, fold_steps):
        # the fold takes the singleton edges first, then the others by least
        # vertex x, greatest first.  No other edge holds the vertex of a
        # singleton, so after the last edge of each x the fold has seen
        # exactly the edges that miss every vertex below x that is not a
        # singleton edge, and its family is the blocker of that deletion minor
        ends = singles_seen = 0
        for h, literals in _group_end_cases():
            fold_steps.clear()
            verts = h.vertices
            masks, pairs = _edge_masks(verts, h.edges, literals)
            last = _berge(len(verts), masks, pairs, DEFAULT_EDGE_BUDGET)
            order = fold_order(h.edges)
            mask_of = dict(zip(h.edges, masks))
            assert [mask for mask, _ in fold_steps] == [mask_of[e] for e in order]
            after = [family for _, family in fold_steps[1:]] + [last]
            singles = {e[0] for e in h.edges if len(e) == 1}
            singles_seen += bool(singles)
            groups = [e[0] if len(e) > 1 else None for e in order]
            for i, least in enumerate(groups):
                if groups[i + 1:i + 2] == [least]:
                    continue
                deleted = [v for v in verts
                           if v not in singles and (least is None or v < least)]
                minor = h.restrict(deleted, ())
                assert set(minor.edges) == set(order[:i + 1])
                want = {t for t in blocker(minor).edge_sets
                        if not literals or not any(v ^ 1 in t for v in t)}
                assert set(map(frozenset, _decode(verts, after[i]))) == want
                ends += 1
        assert singles_seen >= 20 and ends >= 150


class TestDualityOracle:
    def test_agrees_with_brute_force(self):
        rng = random.Random(67)
        refused = 0
        for _ in range(200):
            h = random_clutter_sample(rng, max_vertices=10, max_edges=8)
            want = canonical_edges(brute_minimal_transversals(h.edge_sets))
            assert fk_is_blocker(h.edges, want)
            if len(want) > 1:
                drop = rng.randrange(len(want))
                assert not fk_is_blocker(h.edges, want[:drop] + want[drop + 1:])
                refused += 1
        assert refused > 100

    def test_wide_blockers_and_independent_sets(self, pack_from):
        for h in _WIDE_FOLD_CASES:
            b = blocker(h)
            assert 500 < len(b) <= 2000
            assert _fk_verdict(h, b.edges)
            verts = frozenset(h.vertices)
            complements = canonical_edges(verts - set(s) for s in maximal_independent_sets(h))
            assert _fk_verdict(h, complements)


class TestDualityProperties:
    def test_involution(self):
        rng = random.Random(23)
        for _ in range(120):
            h = random_clutter_sample(rng, max_vertices=10, max_edges=8)
            assert blocker(blocker(h)) == h

    def test_deletion_contraction_duality(self):
        rng = random.Random(29)
        for _ in range(80):
            h = random_clutter_sample(rng)
            v = rng.randint(1, 9)
            assert blocker(h.delete(v)) == blocker(h).contract(v)
            assert blocker(h.contract(v)) == blocker(h).delete(v)

    def test_join_meet_duality(self):
        rng = random.Random(31)
        for _ in range(60):
            a = random_clutter_sample(rng)
            b = random_clutter_sample(rng)
            assert blocker(a | b) == blocker(a) & blocker(b)
            assert blocker(a & b) == blocker(a) | blocker(b)

    def test_minor_duality(self):
        rng = random.Random(37)
        for _ in range(60):
            h = random_clutter_sample(rng)
            pool = list(range(1, 10))
            rng.shuffle(pool)
            s, t = pool[:2], pool[2:4]
            assert blocker(h.restrict(s, t)) == blocker(h).restrict(t, s)


class TestTransversalDisjunction:
    def test_holds_for_every_transversal_and_vertex(self):
        rng = random.Random(41)
        for _ in range(12):
            h = random_clutter_sample(rng, max_vertices=7, max_edges=5,
                                      allow_bounds=False)
            transversals = blocker(h)
            deleted = {v: blocker(h.delete(v)) for v in h.vertices}
            expanded_cache = {}
            for t in transversals:
                ts = set(t)
                for v in h.vertices:
                    reduced = tuple(sorted(ts - {v}))
                    if reduced in deleted[v]:
                        continue
                    found = False
                    for s in h.edge_sets:
                        if v not in s:
                            continue
                        for u in sorted(s - {v}):
                            key = (v, u, s)
                            if key not in expanded_cache:
                                expanded_cache[key] = blocker(expansion(h, [{v, u}], s))
                            if tuple(sorted(ts - {v, u})) in expanded_cache[key]:
                                found = True
                                break
                        if found:
                            break
                    assert found, (h, t, v)
