import functools
import importlib
import itertools
import random
import tracemalloc

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

from clutterkit.blocker import DEFAULT_EDGE_BUDGET, _decode, _fold, _lattice

from helpers import (
    berge_fold_peak,
    brute_minimal_transversals,
    canonical_edges,
    fk_is_blocker,
    random_clutter_sample,
    truth_table_satisfiable,
)

C6 = Clutter([[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]])


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
                part = [tuple(v if rng.random() < 0.5 else -v for v in rng.sample(group, 3))
                        for _ in range(rng.randint(1, 6 * size))]
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


_PACKED_FOLD_CASES = _packed_fold_cases()
_PACKED_SAT_CASES = _packed_sat_cases()
_WIDE_FOLD_CASES = _wide_fold_cases()


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
            self._assert_budget_trips_past_peak(h, berge_fold_peak(h.edges))

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
            self._assert_budget_trips_past_peak(h, berge_fold_peak(h.edges))

    def test_sat_budget_trips_inside_packed_steps(self, pack_from):
        rng = random.Random(71)
        for _ in range(12):
            n = rng.randint(7, 12)
            f = CnfFormula(n, tuple(
                tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
                for _ in range(rng.randint(n, round(4.2 * n)))))
            clashes = [(2 * i, 2 * i + 1) for i in range(1, n + 1)]
            peak = berge_fold_peak(cnf_to_clutter(f).edges, clashes)
            assert solve_sat(f, edge_budget=peak) == solve_sat(f)
            with pytest.raises(ResourceLimitError):
                solve_sat(f, edge_budget=peak - 1)

    def test_memory_of_sixty_five_thousand_sets(self):
        tracemalloc.start()
        try:
            got = blocker(kk2(16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == 2**16
        assert peak < 16 * 10**6  # bytes; 14.2 MB when first measured


def _rotations(n, *offsets):
    """The edges {i + o for o in offsets} mod n, for i < n."""
    return [[(i + o) % n for o in offsets] for i in range(n)]


# a dense rank-4 clutter on 14 vertices whose blocker has 303 sets
DENSE14 = Clutter(_rotations(14, 0, 1, 3, 7) + _rotations(14, 0, 2, 5, 9))


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


@pytest.fixture
def lattice_calls(monkeypatch):
    """The vertex count of each _lattice call the fold makes."""
    blocker_module = importlib.import_module("clutterkit.blocker")
    calls = []
    lattice = blocker_module._lattice

    def spy(n, masks, pairs):
        calls.append(n)
        return lattice(n, masks, pairs)

    monkeypatch.setattr(blocker_module, "_lattice", spy)
    return calls


def _sat16():
    """A 3-CNF formula on 8 variables whose clause clutter has 19 edges on
    all 16 literal vertices."""
    rng = random.Random(0)
    return CnfFormula(8, tuple(tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 9), 3))
                               for _ in range(20)))


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
        h = Clutter(_rotations(17, 0, 1, 3, 7) + _rotations(17, 0, 2, 5, 9)
                    + _rotations(17, 0, 4, 6, 13))
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
        monkeypatch.setattr(importlib.import_module("clutterkit.blocker"), "LATTICE_UP_TO", -1)
        assert blocker(h) == got
        assert lattice_calls == [n]

    @pytest.mark.parametrize("n", [15, 16])
    def test_at_once_with_as_many_edges_as_vertices(self, n, lattice_calls):
        # the n-cycle: n edges on n vertices
        h = Clutter(_rotations(n, 0, 1))
        assert fk_is_blocker(h.edges, blocker(h).edges)
        assert lattice_calls == [n]

    def test_literal_folds_in_one_call(self, lattice_calls):
        f = _sat16()
        h = cnf_to_clutter(f)
        assert len(h.vertices) == 16 and len(h) >= 16
        assert solve_sat(f) == _first_consistent([h.edges], f.num_vars)
        assert lattice_calls == [16]


class TestLatticeReadout:
    """The lattice's tables read off at their first and last bytes, and on
    the largest tables it builds."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_first_and_last_bits_of_the_table(self, n, monkeypatch):
        blocker_module = importlib.import_module("clutterkit.blocker")
        monkeypatch.setattr(blocker_module, "LATTICE_UP_TO", -1)
        full = (1 << n) - 1
        # the n singletons: one transversal, the table's last bit; the one
        # edge of all n vertices: the n singletons, its first bits
        for h, masks, want in [(Clutter([i] for i in range(n)), [1 << i for i in range(n)], [full]),
                               (Clutter([range(n)]), [full], [1 << i for i in range(n)])]:
            verts, folded = _fold(h, DEFAULT_EDGE_BUDGET)
            assert verts == tuple(range(n))
            assert sorted(folded) == want
            assert _lattice(n, masks, 0) == want

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


def _decode_bit_by_bit(verts, masks):
    """The reference decode: each mask tests every vertex bit."""
    bits = [(1 << i, v) for i, v in enumerate(verts)]
    return [tuple([v for bit, v in bits if t & bit]) for t in masks]


class TestDecode:
    def test_matches_the_bit_by_bit_decode(self):
        # 0 to 40 vertices: no table, a partial last table, the unrolled
        # lookups up to 16 vertices and the loop above them
        rng = random.Random(83)
        for n in range(41):
            verts = tuple(sorted(rng.sample(range(5 * n), n)))
            masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(50)]
            assert _decode(verts, masks) == _decode_bit_by_bit(verts, masks), n


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
            peak = berge_fold_peak(h.edges)
            for dualize in (blocker, maximal_independent_sets):
                assert dualize(h, edge_budget=peak) == dualize(h)
                with pytest.raises(ResourceLimitError):
                    dualize(h, edge_budget=peak - 1)


@pytest.fixture
def packed_steps(monkeypatch):
    """The mover count of each step the fold packs."""
    blocker_module = importlib.import_module("clutterkit.blocker")
    calls = []
    extend_packed = blocker_module._extend_packed

    def spy(family, movers, *args):
        calls.append(len(movers))
        return extend_packed(family, movers, *args)

    monkeypatch.setattr(blocker_module, "_extend_packed", spy)
    return calls


class TestPackedFold:
    """The fold's packed and per-mover steps, with the lattice switched off
    so that the cases on up to 16 vertices reach them."""

    @pytest.fixture(autouse=True)
    def fold_only(self, monkeypatch):
        monkeypatch.setattr(importlib.import_module("clutterkit.blocker"), "LATTICE_UP_TO", -1)

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
        pack_from = importlib.import_module("clutterkit.blocker").PACK_FROM
        assert packed_steps == [1 << i for i in range(10) if 1 << i >= pack_from]
        assert packed_steps


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
