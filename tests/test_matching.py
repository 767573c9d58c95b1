import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from clutterkit import (
    Clutter,
    ConflictGraph,
    MinorWitness,
    ONE,
    ResourceLimitError,
    SemiMatching,
    ZERO,
    blocker,
    build_conflict_graph,
    enumerate_semi_matchings,
    expansion,
    extend_semi_matching,
    extract_minor_matching,
    find_kk2_minor,
    greedy_independent_set,
    is_expanded_minor_matching,
    is_k_matching,
    is_semi_matching,
    kk2,
    matching_to_minor,
    staircase,
)

from helpers import (
    brute_has_matching_minor,
    brute_minor_contains,
    brute_semi_matchings,
    fs_is_semi_matching,
    random_clutter_sample,
)

C6 = Clutter([[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]])


def pairs_of(h: Clutter) -> SemiMatching:
    """Each edge paired with itself; valid for matchings of disjoint pairs."""
    return SemiMatching((e, e) for e in h.edges)


class TestSemiMatchingType:
    def test_canonical_order_by_min_vertex(self):
        m = SemiMatching([((4, 5), (4, 5, 6)), ((1, 2), (1, 2, 3))])
        assert m.blocks == ((1, 2), (4, 5))

    def test_rejects_wrong_pair_size(self):
        with pytest.raises(ValueError):
            SemiMatching([((1, 2, 3), (1, 2, 3))])

    def test_rejects_pair_outside_host(self):
        with pytest.raises(ValueError):
            SemiMatching([((1, 9), (1, 2))])

    def test_rejects_overlapping_pairs(self):
        with pytest.raises(ValueError):
            SemiMatching([((1, 2), (1, 2)), ((2, 3), (2, 3))])

    def test_is_frozen(self):
        m = SemiMatching([((1, 2), (1, 2, 3))])
        with pytest.raises(AttributeError):
            m.pairs = ()
        with pytest.raises(AttributeError):
            del m.pairs
        with pytest.raises(AttributeError):
            m.extra = 1
        assert m.pairs == (((1, 2), (1, 2, 3)),)

    def test_pickles_and_copies(self):
        import copy
        import pickle

        m = SemiMatching([((4, 5), (4, 5, 6)), ((1, 2), (1, 2, 3))])
        for clone in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
            assert clone == m
            assert clone.pairs == m.pairs


class TestExpansion:
    def test_hand_example(self):
        h = Clutter([[1, 2, 3], [3, 4]])
        assert expansion(h, [[1, 2]], [1, 2, 3]) == Clutter([[4]])

    def test_identity_on_empty_blocks_and_carrier(self):
        assert expansion(C6, [], []) == C6

    def test_two_pair_matching_stays_below_one(self):
        h = kk2(2)
        assert expansion(h, [list(e) for e in h.edges], h.vertices) != ONE

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError):
            expansion(C6, [[1, 2], [2, 3]], [1, 2, 3])

    def test_block_outside_carrier_rejected(self):
        with pytest.raises(ValueError):
            expansion(C6, [[1, 2]], [1])

    def test_choice_budget(self):
        h = Clutter([list(range(20))])
        with pytest.raises(ResourceLimitError):
            expansion(h, [[0, 1], [2, 3]], list(range(20)), choice_budget=3)


class TestSemiMatchingPredicates:
    def test_matching_clutter_pairs(self):
        h = kk2(3)
        assert is_semi_matching(h, pairs_of(h))
        assert is_expanded_minor_matching(h, pairs_of(h))

    def test_staircase_pairs_are_semi_but_not_expanded(self):
        h = staircase(2)  # {{1,3},{2,3,4}}
        m = SemiMatching([((1, 3), (1, 3)), ((2, 4), (2, 3, 4))])
        assert is_semi_matching(h, m)
        assert not is_expanded_minor_matching(h, m)  # first pair meets second host at 3

    def test_cycle_pairs_fail_containment_condition(self):
        m = SemiMatching([((1, 2), (1, 2)), ((3, 4), (3, 4))])
        assert not is_semi_matching(C6, m)  # edge 23 sits inside the union

    def test_disjoint_hosts_example(self):
        h = Clutter([[1, 2, 3], [4, 5]])
        m = SemiMatching([((1, 2), (1, 2, 3)), ((4, 5), (4, 5))])
        assert is_expanded_minor_matching(h, m)

    def test_host_must_be_an_edge(self):
        m = SemiMatching([((1, 2), (1, 2))])
        assert not is_semi_matching(Clutter([[1, 2, 3]]), m)

    def test_empty_matching_valid_except_on_one(self):
        empty = SemiMatching()
        assert is_semi_matching(ZERO, empty)
        assert is_semi_matching(C6, empty)
        assert not is_semi_matching(ONE, empty)

    def test_matches_frozenset_definition(self):
        # every family meeting 1, 2 and 3a, so that condition 4 decides, plus
        # random pair lists with hosts that are not edges and two-vertex sets
        # that break 1, 2 or 3a; ONE, ZERO and one-vertex edges come from
        # the sampler
        rng = random.Random(241)
        by_4 = {True: 0, False: 0}
        other = {True: 0, False: 0}
        for i in range(400):
            if i % 2:
                h = random_clutter_sample(rng, max_vertices=7, max_edges=6, max_rank=4)
            else:  # edges of one size survive minimalization, giving larger families
                n = rng.randint(4, 7)
                h = Clutter(rng.sample(range(n), rng.randint(2, 3))
                            for _ in range(rng.randint(2, 7)))
            for m in _all_123a_candidates(h):
                want = fs_is_semi_matching(h.edges, m.pairs)
                assert is_semi_matching(h, m) == want, (h, m)
                by_4[want] += 1
            pool = list(h.vertices) + [98, 99]
            for _ in range(5):
                pairs = []
                for _ in range(rng.randint(1, 3)):
                    if h.edges and rng.random() < 0.6:
                        s = list(rng.choice(h.edges))
                    else:
                        s = rng.sample(pool, rng.randint(1, min(4, len(pool))))
                    l = rng.sample(s, 2) if len(s) >= 2 else s + [pool[-1]]
                    pairs.append((l, s))
                want = fs_is_semi_matching(h.edges, pairs)
                try:
                    m = SemiMatching(pairs)
                except ValueError:
                    assert not want  # a structural fault breaks 1 or 2
                    continue
                assert is_semi_matching(h, m) == want, (h, m)
                other[want] += 1
        assert min(by_4.values()) > 600 and min(other.values()) > 200

    def test_condition4_matches_expansion_characterization(self):
        rng = random.Random(61)
        checked = 0
        for _ in range(40):
            h = random_clutter_sample(rng, max_vertices=7, max_edges=5,
                                      allow_bounds=False)
            for m in _all_123a_candidates(h):
                direct = is_semi_matching(h, m)
                via_expansion = expansion(h, m.blocks, m.support) != ONE
                assert direct == via_expansion
                checked += 1
        assert checked > 50


def _all_123a_candidates(h):
    """Every pair family satisfying conditions 1, 2 and 3a (small hosts only)."""
    from itertools import combinations

    cands = sorted({(tuple(sorted(l)), e) for e in h.edges for l in combinations(e, 2)})

    out = []

    def rec(start, chosen):
        out.append(SemiMatching(chosen))
        for i in range(start, len(cands)):
            l, s = cands[i]
            ok = True
            for lc, sc in chosen:
                if set(lc) & set(l) or set(lc) <= set(s) or set(l) <= set(sc):
                    ok = False
                    break
            if ok:
                rec(i + 1, chosen + [cands[i]])

    rec(0, [])
    return out


class TestEnumerate:
    def test_zero_has_only_the_empty_matching(self):
        assert enumerate_semi_matchings(ZERO) == [SemiMatching()]

    def test_one_has_none(self):
        assert enumerate_semi_matchings(ONE) == []

    def test_two_pair_matching_count(self):
        assert len(enumerate_semi_matchings(kk2(2))) == 4

    def test_cycle_count_and_content(self):
        ms = enumerate_semi_matchings(C6)
        assert len(ms) == 10
        sizes = [len(m) for m in ms]
        assert sizes == sorted(sizes)
        two = {m.blocks for m in ms if len(m) == 2}
        assert two == {((1, 2), (4, 5)), ((2, 3), (5, 6)), ((1, 6), (3, 4))}

    def test_every_emitted_matching_is_valid(self):
        rng = random.Random(67)
        for _ in range(30):
            h = random_clutter_sample(rng, allow_bounds=False)
            for m in enumerate_semi_matchings(h):
                assert is_semi_matching(h, m)

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            enumerate_semi_matchings(kk2(10), budget=50)

    def test_matches_brute_force_and_first_minor_family(self):
        # the list must equal the unindexed oracle's (content, size-then-lex
        # order, no duplicates), and the minor search must return the
        # witness of the first family of k pairs in it that meets 3b
        rng = random.Random(233)
        hs = [staircase(n) for n in range(2, 6)]
        for _ in range(150):
            hs.append(random_clutter_sample(rng, max_vertices=7, max_edges=6))
            # edges of one size survive minimalization, giving larger families
            n = rng.randint(4, 7)
            r = rng.randint(2, min(4, n))
            hs.append(Clutter(rng.sample(range(n), r) for _ in range(rng.randint(2, 6))))
        for h in hs:
            ref = brute_semi_matchings(h.edges)
            assert [m.pairs for m in enumerate_semi_matchings(h)] == ref
            for k in range(4):
                first = next((f for f in ref if len(f) == k and all(
                    not set(f[i][0]) & set(f[j][1])
                    for i in range(k) for j in range(k) if i != j)), None)
                want = None
                if first is not None:
                    support = set().union(*(s for _, s in first))
                    paired = set().union(*(l for l, _ in first))
                    want = MinorWitness(tuple(sorted(set(h.vertices) - support)),
                                        tuple(sorted(support - paired)),
                                        tuple(l for l, _ in first))
                assert find_kk2_minor(h, k) == want

    def test_blocker_size_bounded_by_count(self):
        rng = random.Random(71)
        for _ in range(40):
            h = random_clutter_sample(rng, max_vertices=7, max_edges=6)
            assert len(blocker(h)) <= len(enumerate_semi_matchings(h))

    def test_equality_for_pair_matchings(self):
        for k in range(1, 6):
            h = kk2(k)
            assert len(blocker(h)) == len(enumerate_semi_matchings(h)) == 2**k


class TestExtend:
    def test_hand_example(self):
        h = Clutter([[1, 2], [3, 4, 5]])
        m = SemiMatching([((1, 2), (1, 2))])
        out = extend_semi_matching(m, h, (3, 4), (3, 4, 5))
        assert out == SemiMatching([((1, 2), (1, 2)), ((3, 4), (3, 4, 5))])

    def test_empty_extension(self):
        h = Clutter([[1, 2, 3]])
        out = extend_semi_matching(SemiMatching(), h, (1, 3), (1, 2, 3))
        assert out == SemiMatching([((1, 3), (1, 2, 3))])

    def test_preconditions(self):
        h = Clutter([[1, 2, 3]])
        with pytest.raises(ValueError):
            extend_semi_matching(SemiMatching(), h, (1,), (1, 2, 3))
        with pytest.raises(ValueError):
            extend_semi_matching(SemiMatching(), h, (1, 4), (1, 2, 3))
        with pytest.raises(ValueError):
            extend_semi_matching(SemiMatching(), h, (1, 2), (1, 2))

    def test_invalid_matching_rejected(self):
        h = Clutter([[1, 2], [3, 4, 5]])
        bogus = SemiMatching([((3, 5), (3, 5))])  # not an edge of the expansion
        with pytest.raises(ValueError):
            extend_semi_matching(bogus, h, (3, 4), (3, 4, 5))

    def test_output_properties_on_random_instances(self):
        rng = random.Random(73)
        cases = 0
        for _ in range(40):
            h = random_clutter_sample(rng, max_vertices=7, max_edges=4,
                                      allow_bounds=False)
            carriers = [e for e in h.edges if len(e) >= 2]
            if not carriers:
                continue
            c = carriers[rng.randrange(len(carriers))]
            r = tuple(sorted(rng.sample(c, 2)))
            expanded = expansion(h, [r], c)
            for mprime in enumerate_semi_matchings(expanded)[:12]:
                lifted = extend_semi_matching(mprime, h, r, c)
                assert is_semi_matching(h, lifted)
                assert (r, c) in lifted.pairs
                assert expansion(h, lifted.blocks, lifted.support) == expansion(
                    expanded, mprime.blocks, mprime.support
                )
                for (l, s), (_, sp) in zip(
                    sorted(p for p in lifted.pairs if p != (r, c)),
                    sorted(mprime.pairs),
                ):
                    assert set(sp) <= set(s) <= set(sp) | set(c)
                    assert not set(r) <= set(s)
                cases += 1
        assert cases > 20

    def test_lift_is_first_among_all_valid_choices(self):
        import itertools

        rng = random.Random(181)
        checked = 0
        for _ in range(25):
            h = random_clutter_sample(rng, max_vertices=7, max_edges=4,
                                      allow_bounds=False)
            carriers = [e for e in h.edges if len(e) >= 2]
            if not carriers:
                continue
            c = carriers[rng.randrange(len(carriers))]
            r = tuple(sorted(rng.sample(c, 2)))
            expanded = expansion(h, [r], c)
            for mprime in enumerate_semi_matchings(expanded)[:8]:
                eligible = []
                for l, sp in mprime.pairs:
                    options = [
                        e for e, es in zip(h.edges, h.edge_sets)
                        if frozenset(sp) <= es <= frozenset(sp) | frozenset(c)
                        and not set(r) <= es
                    ]
                    assert options, "the lift must always have a host available"
                    eligible.append((l, options))
                lifted = extend_semi_matching(mprime, h, r, c)
                chosen = {l: s for l, s in lifted.pairs if (l, s) != (r, tuple(sorted(c)))}
                for l, options in eligible:
                    assert chosen[l] == options[0]
                # every eligible combination also lifts to a semi-matching
                for combo in itertools.islice(
                    itertools.product(*(opts for _, opts in eligible)), 40
                ):
                    alt = SemiMatching(
                        [(l, s) for (l, _), s in zip(eligible, combo)]
                        + [(r, tuple(sorted(c)))]
                    )
                    assert is_semi_matching(h, alt)
                checked += 1
        assert checked > 15

    def test_extension_families_are_disjoint(self):
        rng = random.Random(79)
        for _ in range(15):
            h = random_clutter_sample(rng, max_vertices=7, max_edges=4,
                                      allow_bounds=False)
            verts = h.vertices
            if not verts:
                continue
            v = verts[rng.randrange(len(verts))]
            from itertools import combinations

            lifted_by_case = {}
            for c in h.edges:
                for r in combinations(c, 2):
                    if v not in r:
                        continue
                    expanded = expansion(h, [r], c)
                    sources = enumerate_semi_matchings(expanded)
                    lifted = {extend_semi_matching(m, h, r, c) for m in sources}
                    assert len(lifted) == len(sources)  # injective per (r, c)
                    lifted_by_case[(r, c)] = lifted
            keys = list(lifted_by_case)
            for i in range(len(keys)):
                for j in range(i + 1, len(keys)):
                    assert not lifted_by_case[keys[i]] & lifted_by_case[keys[j]]
            deleted = set(enumerate_semi_matchings(h.delete(v)))
            for family in lifted_by_case.values():
                assert not family & deleted


class TestConflictGraph:
    def test_pair_matching_is_conflict_free(self):
        g = build_conflict_graph(pairs_of(kk2(4)))
        assert g.n == 4 and g.edges == ()

    def test_staircase_triangle(self):
        h = staircase(3)
        m = SemiMatching([((i, 3 + i), h.edges[i - 1]) for i in (1, 2, 3)])
        assert is_semi_matching(h, m)
        g = build_conflict_graph(m)
        assert set(g.edges) == {(0, 1), (0, 2), (1, 2)}

    def test_singleton(self):
        g = build_conflict_graph(SemiMatching([((1, 2), (1, 2))]))
        assert g.n == 1 and g.edges == ()

    def test_edge_count_bound(self):
        rng = random.Random(83)
        for _ in range(40):
            h = random_clutter_sample(rng, allow_bounds=False)
            for m in enumerate_semi_matchings(h):
                if not m.pairs:
                    continue
                g = build_conflict_graph(m)
                r = max(len(s) for s in m.hosts)
                assert len(g.edges) <= (r - 2) * len(m)


class TestGreedyIndependentSet:
    def test_edgeless(self):
        assert greedy_independent_set(ConflictGraph(5, ())) == (0, 1, 2, 3, 4)

    def test_triangle(self):
        got = greedy_independent_set(ConflictGraph(3, ((0, 1), (0, 2), (1, 2))))
        assert len(got) >= 1

    def test_path_endpoints(self):
        got = greedy_independent_set(ConflictGraph(3, ((0, 1), (1, 2))))
        assert got == (0, 2)

    def test_caro_wei_bound_on_random_graphs(self):
        rng = random.Random(89)
        for _ in range(60):
            n = rng.randint(1, 9)
            all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = tuple(e for e in all_edges if rng.random() < 0.4)
            got = greedy_independent_set(ConflictGraph(n, edges))
            assert len(got) >= math.ceil(n * n / (2 * len(edges) + n))
            eset = set(edges)
            assert all(
                (a, b) not in eset for a in got for b in got if a < b
            )


class TestExtract:
    def test_rank_two_returns_input(self):
        h = kk2(3)
        m = pairs_of(h)
        assert extract_minor_matching(h, m) == m

    def test_staircase_three(self):
        h = staircase(3)
        m = SemiMatching([((i, 3 + i), h.edges[i - 1]) for i in (1, 2, 3)])
        out = extract_minor_matching(h, m)
        assert is_expanded_minor_matching(h, out)
        assert len(out) >= math.ceil(Fraction(3, 2**2 * 5))

    def test_empty(self):
        assert extract_minor_matching(C6, SemiMatching()) == SemiMatching()

    def test_rejects_non_semi_matching(self):
        with pytest.raises(ValueError):
            extract_minor_matching(C6, SemiMatching([((1, 3), (1, 3))]))

    def test_bound_and_validity_on_random_instances(self):
        rng = random.Random(97)
        for _ in range(25):
            h = random_clutter_sample(rng, max_vertices=8, max_edges=5,
                                      max_rank=4, allow_bounds=False)
            for m in enumerate_semi_matchings(h):
                out = extract_minor_matching(h, m)
                assert is_expanded_minor_matching(h, out)
                assert set(out.pairs) <= set(m.pairs)
                if m.pairs:
                    r = h.rank()
                    need = math.ceil(Fraction(len(m), 2 ** (r - 2) * (2 * r - 3)))
                    assert len(out) >= need
                    if r == 2:
                        assert out == m


class TestDerandomizedChoice:
    def test_output_meets_the_exhaustive_average(self):
        # the picked survivors must be at least the average, over every
        # choice of one vertex per leftover pair, of the survivor count
        import itertools

        rng = random.Random(173)
        checked = 0
        for _ in range(20):
            h = random_clutter_sample(rng, max_vertices=8, max_edges=5,
                                      max_rank=4, allow_bounds=False)
            for m in enumerate_semi_matchings(h):
                if not m.pairs:
                    continue
                stable = greedy_independent_set(build_conflict_graph(m))
                outside = [j for j in range(len(m.pairs)) if j not in set(stable)]
                if not outside:
                    continue
                total = 0
                count = 0
                for choice in itertools.product(*(m.pairs[j][0] for j in outside)):
                    picked = set(choice)
                    total += sum(
                        1 for i in stable if not picked & set(m.pairs[i][1])
                    )
                    count += 1
                out = extract_minor_matching(h, m)
                assert len(out) * count >= total
                checked += 1
        assert checked > 10


class TestMatchingToMinor:
    def test_hand_example(self):
        h = Clutter([[1, 2, 3], [4, 5]])
        m = SemiMatching([((1, 2), (1, 2, 3)), ((4, 5), (4, 5))])
        w = matching_to_minor(h, m)
        assert w.delete == ()
        assert w.contract == (3,)
        assert h.restrict(w.delete, w.contract) == Clutter([[1, 2], [4, 5]])

    def test_identity_on_pair_matchings(self):
        h = kk2(3)
        w = matching_to_minor(h, pairs_of(h))
        assert w.delete == () and w.contract == ()
        assert Clutter(w.matching) == h

    def test_outside_vertices_are_deleted(self):
        h = Clutter([[1, 2, 3], [4, 5], [5, 9]])
        m = SemiMatching([((1, 2), (1, 2, 3)), ((4, 5), (4, 5))])
        w = matching_to_minor(h, m)
        assert 9 in w.delete

    def test_witness_always_verifies(self):
        rng = random.Random(101)
        for _ in range(25):
            h = random_clutter_sample(rng, allow_bounds=False)
            for m in enumerate_semi_matchings(h):
                if is_expanded_minor_matching(h, m):
                    assert matching_to_minor(h, m).verify(h)

    def test_rejects_plain_semi_matching(self):
        h = staircase(2)
        m = SemiMatching([((1, 3), (1, 3)), ((2, 4), (2, 3, 4))])
        with pytest.raises(ValueError):
            matching_to_minor(h, m)


class TestIsKMatching:
    def test_examples(self):
        assert is_k_matching(Clutter([[1, 2], [7, 9]]), 2)
        assert not is_k_matching(Clutter([[1, 2], [2, 3]]), 2)
        assert is_k_matching(ZERO, 0)
        assert not is_k_matching(ONE, 0)
        assert not is_k_matching(Clutter([[1, 2]]), 2)


class TestFindMatchingMinor:
    def test_matching_is_its_own_minor(self):
        for k in range(1, 5):
            h = kk2(k)
            w = find_kk2_minor(h, k)
            assert w is not None
            assert w.delete == () and w.contract == ()
            assert Clutter(w.matching) == h

    def test_staircase_is_two_pair_free(self):
        assert find_kk2_minor(staircase(2), 2) is None

    def test_cycle_has_a_two_pair_minor(self):
        # deleting vertices 3 and 6 of the 6-cycle leaves {{1,2},{4,5}};
        # confirmed against the exhaustive oracle below
        w = find_kk2_minor(C6, 2)
        assert w is not None and w.verify(C6)
        assert brute_has_matching_minor(C6.edge_sets, 2)

    def test_zero_pairs(self):
        assert find_kk2_minor(C6, 0) is not None
        assert find_kk2_minor(ONE, 0) is None
        assert find_kk2_minor(ZERO, 0) is not None

    def test_single_pair_exists_iff_rank_at_least_two(self):
        rng = random.Random(103)
        for _ in range(40):
            h = random_clutter_sample(rng, allow_bounds=False)
            assert (find_kk2_minor(h, 1) is not None) == (h.rank() >= 2)

    def test_agrees_with_exhaustive_oracle(self):
        rng = random.Random(107)
        for _ in range(40):
            h = random_clutter_sample(rng, max_vertices=6, max_edges=5)
            for k in (1, 2, 3):
                w = find_kk2_minor(h, k)
                assert (w is not None) == brute_has_matching_minor(h.edge_sets, k)
                if w is not None:
                    assert w.verify(h)

    def test_agrees_with_oracle_on_exact_size_edges(self):
        # edges of exactly three or four vertices survive minimalization,
        # so these families are larger than the mixed-size samples above
        rng = random.Random(211)
        found = 0
        for _ in range(80):
            n = rng.randint(4, 8)
            r = rng.randint(3, min(4, n))
            h = Clutter(rng.sample(range(1, n + 1), r) for _ in range(rng.randint(2, 8)))
            for k in (2, 3):
                w = find_kk2_minor(h, k)
                assert (w is not None) == brute_has_matching_minor(h.edge_sets, k)
                if w is not None:
                    assert w.verify(h)
                    found += 1
        assert found >= 20

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            find_kk2_minor(staircase(5), 2, node_budget=3)

    def test_budget_trips_on_large_staircase(self):
        # the search needs about 157k steps here (560 candidates, 156,520
        # pair tests, 561 nodes); 2000 must refuse, not answer
        with pytest.raises(ResourceLimitError):
            find_kk2_minor(staircase(14), 2, node_budget=2000)

    def test_budget_bounds_set_up_memory(self):
        # one edge of 300 vertices gives 44,850 candidates and about 10**9
        # candidate pairs: the budget must refuse them before any is built
        h = Clutter([range(300)])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                find_kk2_minor(h, 2, node_budget=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_memory_does_not_grow_with_one_vertex_edges(self):
        # no host holds the vertex of a one-vertex edge, so the condition-4
        # tables must not grow with them.  The edges are an antichain as
        # written, and minimalizing 20,003 of them takes Clutter() about 30 s
        h = Clutter._from_antichain([(i,) for i in range(20_000)]
                                    + [(20_000 + 2 * i, 20_001 + 2 * i) for i in range(3)])
        for run, want in ((lambda: len(enumerate_semi_matchings(h)), 8),
                          (lambda: find_kk2_minor(h, 0) is not None, True)):
            tracemalloc.start()
            try:
                got = run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got == want
            assert peak < 5 * 10**6

    def test_minor_relation_respects_duality(self):
        def is_blocker_of_pair_matching(k):
            def recognize(mins):
                if len(mins) != 2**k:
                    return False
                if any(len(s) != k for s in mins):
                    return False
                verts = set().union(*mins) if mins else set()
                return len(verts) == 2 * k

            return recognize

        rng = random.Random(109)
        for _ in range(15):
            h = random_clutter_sample(rng, max_vertices=6, max_edges=4,
                                      allow_bounds=False)
            for k in (1, 2):
                if find_kk2_minor(h, k) is not None:
                    assert brute_minor_contains(
                        blocker(h).edge_sets, is_blocker_of_pair_matching(k)
                    )


class TestStaircaseSeparation:
    def test_large_semi_matching_but_no_two_pair_minor(self):
        for n in range(1, 5):
            h = staircase(n)
            m = SemiMatching([((i, n + i), h.edges[i - 1]) for i in range(1, n + 1)])
            assert is_semi_matching(h, m)
            assert find_kk2_minor(h, 2) is None
