import copy
import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from clutterkit import Clutter, ONE, ZERO, is_transversal
from clutterkit.core import _canonical

from helpers import (
    C6,
    canonical_edges,
    fs_clutter,
    fs_contains,
    fs_is_transversal,
    fs_join,
    fs_meet,
    fs_restrict,
    fs_vertices,
    random_clutter_sample,
    random_cnf,
    random_cover_instance,
)


def edge_families():
    return st.lists(
        st.frozensets(st.integers(min_value=0, max_value=9), max_size=5),
        max_size=8,
    )


class TestConstruction:
    def test_direct_subsumption(self):
        assert Clutter([[1, 2], [1, 2, 3]]) == Clutter([[1, 2]])

    def test_empty_input_is_zero(self):
        assert Clutter([]) == ZERO
        assert ZERO.is_zero

    def test_pairwise_subset_check(self):
        h = Clutter([[1, 2], [2, 3], [1, 3], [1, 2, 3]])
        assert h == Clutter([[1, 2], [2, 3], [1, 3]])

    def test_empty_edge_forces_one(self):
        assert Clutter([(), (1, 2)]) == ONE
        assert ONE.is_one

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError):
            Clutter([[-1, 2]])

    @pytest.mark.parametrize("edge", [[True, 2], [False], [1, "2"], [1.0],
                                      [1, True], [0, False], [2, 2.0]])
    def test_non_integer_vertex_rejected(self, edge):
        # bool is an int subclass, but `True 2` would not parse back; a label
        # equal to an earlier int of its edge is rejected too
        with pytest.raises(ValueError):
            Clutter([edge])

    def test_minimalization_matches_the_brute_force_oracle(self):
        # many sets of each size, repeated in another vertex order, and now
        # and then the empty set, which makes the clutter ONE
        rng = random.Random(4099)
        for trial in range(300):
            n = rng.randint(1, 12)
            count = 1000 if trial % 50 == 0 else rng.randint(1, 120)
            fam = [rng.sample(range(n), rng.randint(1, min(n, 5))) for _ in range(count)]
            fam += [e[::-1] for e in rng.sample(fam, count // 3)]
            if rng.random() < 0.1:
                fam.insert(rng.randint(0, len(fam)), [])
            assert Clutter(fam).edges == canonical_edges(fs_clutter(fam))
        assert Clutter(list(ONE) + fam) == ONE
        # mixed sizes in the thousands, where many kept sets of each size
        # are scanned for every larger set: dense, where most are subsumed,
        # and sparse, where most are kept
        for count, n, low, high in [(1500, 24, 1, 6), (2500, 60, 2, 6), (4000, 200, 3, 6)]:
            fam = [rng.sample(range(n), rng.randint(low, high)) for _ in range(count)]
            assert Clutter(fam).edges == canonical_edges(fs_clutter(fam))

    def test_same_size_sets_are_never_compared(self):
        # 20,000 singletons cost a quadratic scan if sets of one size are
        # compared with each other; three pairs outside them survive
        fam = [[i] for i in range(20_000)] + [[20_000 + 2 * j, 20_001 + 2 * j] for j in range(3)]
        start = time.perf_counter()
        h = Clutter(fam)
        assert time.perf_counter() - start < 1.0
        assert len(h) == 20_003

    def test_canonical_order_is_size_then_lex(self):
        h = Clutter([[2, 1], [3]])
        assert h.edges == ((3,), (1, 2))

    @given(edge_families())
    @settings(deadline=None)
    def test_antichain_and_canonical_invariants(self, fam):
        h = Clutter(fam)
        _assert_canonical(h)
        assert len(set(h.edges)) == len(h.edges)

    @given(edge_families())
    @settings(deadline=None)
    def test_constructor_is_idempotent(self, fam):
        h = Clutter(fam)
        assert Clutter(h.edges) == h


class TestVertexSetAndRank:
    def test_vertex_set(self):
        assert ZERO.vertices == ()
        assert ONE.vertices == ()
        assert Clutter([[1, 2], [2, 3]]).vertices == (1, 2, 3)

    def test_rank(self):
        assert Clutter([[1, 2], [3, 4, 5]]).rank() == 3
        assert ONE.rank() == 0
        assert C6.rank() == 2

    def test_rank_of_zero_raises(self):
        with pytest.raises(ValueError):
            ZERO.rank()


class TestDeleteContract:
    def test_delete_to_zero(self):
        assert Clutter([[1]]).delete(1) == ZERO

    def test_delete_on_cycle(self):
        assert C6.delete(1) == Clutter([[2, 3], [3, 4], [4, 5], [5, 6]])

    def test_delete_missing_vertex_is_identity(self):
        assert C6.delete(99) == C6

    def test_contract_to_one(self):
        assert Clutter([[1]]).contract(1) == ONE

    def test_contract_on_cycle(self):
        assert C6.contract(1) == Clutter([[2], [6], [3, 4], [4, 5]])

    def test_contract_missing_vertex_is_identity(self):
        assert C6.contract(99) == C6


class TestRestrict:
    def test_identity(self):
        assert C6.restrict([], []) == C6

    def test_hand_example(self):
        assert Clutter([[1, 2, 3], [3, 4]]).restrict([1], [2, 3]) == Clutter([[4]])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            C6.restrict([1, 2], [2, 3])

    def test_composition_identity(self):
        rng = random.Random(4)
        for _ in range(60):
            h = random_clutter_sample(rng)
            pool = list(range(1, 11))
            rng.shuffle(pool)
            s1, s2 = pool[0:2], pool[2:4]
            t1, t2 = pool[4:6], pool[6:8]
            assert h.restrict(s1 + s2, t1 + t2) == h.restrict(s1, t1).restrict(s2, t2)

    def test_invariant_under_interleaving(self):
        rng = random.Random(5)
        for _ in range(30):
            h = random_clutter_sample(rng)
            pool = list(range(1, 10))
            rng.shuffle(pool)
            s, t = pool[:3], pool[3:6]
            expected = h.restrict(s, t)
            ops = [("d", v) for v in s] + [("c", v) for v in t]
            for _ in range(3):
                rng.shuffle(ops)
                cur = h
                for kind, v in ops:
                    cur = cur.delete(v) if kind == "d" else cur.contract(v)
                assert cur == expected


class TestJoinMeet:
    def test_join_subsumption(self):
        assert Clutter([[1, 2]]) | Clutter([[1]]) == Clutter([[1]])

    def test_join_identity(self):
        assert C6 | ZERO == C6

    def test_join_with_one(self):
        assert C6 | ONE == ONE

    def test_meet_singletons(self):
        assert Clutter([[1]]) & Clutter([[2]]) == Clutter([[1, 2]])

    def test_meet_pairwise_union(self):
        assert Clutter([[1], [2]]) & Clutter([[3]]) == Clutter([[1, 3], [2, 3]])

    def test_meet_identity(self):
        assert C6 & ONE == C6

    def test_meet_with_zero(self):
        assert C6 & ZERO == ZERO

    def test_operands_must_be_clutters(self):
        with pytest.raises(TypeError):
            C6 | 1
        with pytest.raises(TypeError):
            C6 & "x"


class TestValueSemantics:
    def test_equality_and_hash(self):
        a = Clutter([[2, 1], [3, 4]])
        b = Clutter([[4, 3], [1, 2]])
        assert a == b
        assert hash(a) == hash(b)

    def test_membership(self):
        assert (2, 1) in C6
        assert (1, 3) not in C6

    def test_labels_that_do_not_compare_with_the_edges_are_absent(self):
        from clutterkit import blocker, kk2

        h = blocker(kk2(10))  # 1,024 sets of ten vertices
        assert len(h) == 1024 and h.edges[500] in h
        assert [f"v{i}" for i in range(10)] not in h
        assert ["a"] * 3 not in h
        assert [0, "a"] not in h
        assert list(h.edges[500][:-1]) + [0.5] not in h

    def test_iteration_yields_canonical_edges(self):
        assert list(Clutter([[3], [1, 2]])) == [(3,), (1, 2)]

    def test_is_frozen(self):
        h = Clutter([[2, 1], [3]])
        index = {h: "h"}
        with pytest.raises(AttributeError):
            h.edges = ((9,),)
        with pytest.raises(AttributeError):
            del h.edges
        with pytest.raises(AttributeError):
            h.extra = 1
        assert h.edges == ((3,), (1, 2))
        assert index[Clutter([[1, 2], [3]])] == "h"

    def test_pickles_and_copies(self):
        for h in (ZERO, ONE, C6, Clutter([[0, 10**9], [7]])):
            for clone in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h), copy.copy(h)):
                assert clone == h
                assert clone.edges == h.edges
                assert hash(clone) == hash(h)


def _assert_canonical(h):
    sets = h.edge_sets
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i != j:
                assert not a <= b
    keys = [(len(e), e) for e in h.edges]
    assert keys == sorted(keys)


def test_random_operation_sequences_preserve_invariants():
    from clutterkit import blocker

    rng = random.Random(163)
    for _ in range(30):
        h = random_clutter_sample(rng)
        for _ in range(12):
            op = rng.randrange(5)
            if op == 0:
                h = h.delete(rng.randint(1, 10))
            elif op == 1:
                h = h.contract(rng.randint(1, 10))
            elif op == 2:
                h = h | random_clutter_sample(rng)
            elif op == 3:
                h = h & random_clutter_sample(rng)
            else:
                h = blocker(h)
            _assert_canonical(h)


# labels whose set iteration order is not their sorted order
LABELS = [0, 1, 2, 3, 8, 9, 16, 33, 10**9]


def _raw_family(rng):
    """Unsorted vertex lists with repeats, sometimes none or an empty one."""
    roll = rng.random()
    if roll < 0.05:
        return []
    labels = rng.sample(LABELS, rng.randint(1, 7))
    family = [[rng.choice(labels) for _ in range(rng.randint(1, 4))]
              for _ in range(rng.randint(1, 6))]
    if roll < 0.1:
        family.append([])
    return family


def test_operations_match_frozenset_definitions():
    rng = random.Random(2718)
    families = [[], [[]]] + [_raw_family(rng) for _ in range(400)]
    for fam in families:
        gfam = rng.choice(families)
        h, g = Clutter(fam), Clutter(gfam)
        sets, other = fs_clutter(fam), fs_clutter(gfam)
        assert h.edges == canonical_edges(sets)
        assert h.edge_sets == tuple(map(frozenset, h.edges))
        assert h.vertices == fs_vertices(sets)
        # some labels are absent from every edge
        pool = list(LABELS)
        for v in pool:
            assert h.delete(v).edges == canonical_edges(fs_restrict(sets, [v], []))
            assert h.contract(v).edges == canonical_edges(fs_restrict(sets, [], [v]))
        rng.shuffle(pool)
        cut = rng.randint(0, 4)
        d, c = pool[:cut], pool[cut:cut + rng.randint(0, 4)]
        assert h.restrict(d, c).edges == canonical_edges(fs_restrict(sets, d, c))
        assert h.join(g).edges == canonical_edges(fs_join(sets, other))
        assert h.meet(g).edges == canonical_edges(fs_meet(sets, other))
        queries = [list(e) for e in h.edges] + _raw_family(rng)
        for q in queries:
            q = q + q[:rng.randint(0, len(q))]
            rng.shuffle(q)
            assert (q in h) == fs_contains(sets, q)
            assert is_transversal(h, q) == fs_is_transversal(sets, q)


def test_each_unchecked_build_meets_the_constructor(monkeypatch):
    # every caller of Clutter._minimalized hands it exact non-negative int
    # labels, and gets what the checking constructor makes of its edges
    from clutterkit import (cnf_to_clutter, expansion, parse_clutter, random_clutter,
                            serialize_clutter, setcover_to_clutter)

    minimalized = Clutter._minimalized.__func__
    seen = []
    caller = None

    def checked(cls, edges):
        edges = [tuple(e) for e in edges]
        assert all(v.__class__ is int and v >= 0 for e in edges for v in e)
        got = minimalized(cls, edges)
        assert got == Clutter(edges)
        seen.append(caller)
        return got

    monkeypatch.setattr(Clutter, "_minimalized", classmethod(checked))
    rng = random.Random(45)
    for _ in range(60):
        h, g = random_clutter_sample(rng), random_clutter_sample(rng)
        verts = list(h.vertices)
        rng.shuffle(verts)
        cut = rng.randint(0, len(verts))
        carrier = verts[cut:]
        blocks = [carrier[i:i + 2] for i in range(0, rng.randint(0, len(carrier)), 2)]
        calls = {
            "join": lambda: h.join(g),
            "meet": lambda: h.meet(g),
            "restrict": lambda: h.restrict(verts[:cut - 1], verts[cut - 1:cut]),
            "expansion": lambda: expansion(h, blocks, carrier),
            "cnf_to_clutter": lambda: cnf_to_clutter(random_cnf(rng)),
            "setcover_to_clutter": lambda: setcover_to_clutter(random_cover_instance(rng)),
            "random_clutter": lambda: random_clutter(rng.randint(1, 9), rng.randint(1, 12),
                                                     rng.randint(1, 4), rng.random()),
            "parse_clutter": lambda: parse_clutter(serialize_clutter(h)),
        }
        for caller, call in calls.items():
            call()
    assert set(seen) == set(calls)


def test_canonical_order_matches_the_size_then_lex_key():
    rng = random.Random(2719)
    for _ in range(300):
        fam = [tuple(sorted(rng.sample(range(12), rng.randint(0, 6))))
               for _ in range(rng.randint(0, 25))]
        if fam:  # duplicates, the empty edge among them
            fam += rng.choices(fam + [()], k=rng.randint(1, 6))
        rng.shuffle(fam)
        want = tuple(sorted(fam, key=lambda e: (len(e), e)))
        assert _canonical(fam) == want
        assert _canonical(iter(fam)) == want
