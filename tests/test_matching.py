import functools
import importlib
import itertools
import math
import operator
import random
import time
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
    class_membership,
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
    random_clutter,
    staircase,
    verify_bound,
)

from helpers import (
    C6,
    brute_has_matching_minor,
    brute_minor_contains,
    brute_semi_matchings,
    exact_clutter,
    fan,
    fs_conflict_edges,
    fs_expansion,
    fs_is_expanded_minor_matching,
    fs_is_semi_matching,
    quadratic_greedy_independent_set,
    random_clutter_sample,
    random_tangled_semi_matching,
    recomputed_extract_minor_matching,
    ring_semi_matching,
    spy,
    traced,
)


def pairs_of(h: Clutter) -> SemiMatching:
    """Each edge paired with itself; valid for matchings of disjoint pairs."""
    return SemiMatching((e, e) for e in h.edges)


def has_partners(h: Clutter) -> bool:
    """Whether two edges of h each have at least two vertices outside the other."""
    return any(len(s - t) > 1 and len(t - s) > 1
               for s, t in itertools.combinations(h.edge_sets, 2))


def candidates(h: Clutter) -> list:
    """Every (two-vertex set, edge) candidate of h, in the search's order."""
    return sorted((l, e) for e in h.edges for l in itertools.combinations(e, 2))


def sunflower(core: int, size: int, petals: int, first: int = 10) -> Clutter:
    """petals edges, each the core 0..core-1 and a petal of its own: petal
    p is the size vertices from first + size * p on."""
    return Clutter(list(range(core)) + [first + size * p + i for i in range(size)]
                   for p in range(petals))


def relabelled_staircase(rng: random.Random, n: int) -> Clutter:
    """staircase(n) with its 2n + 1 vertices relabelled by a sample of 0..99."""
    labels = rng.sample(range(100), 2 * n + 1)
    return Clutter([labels[v] for v in e] for e in staircase(n).edges)


class TestSemiMatchingType:
    def test_canonical_order_by_min_vertex(self):
        m = SemiMatching([((4, 5), (4, 5, 6)), ((1, 2), (1, 2, 3))])
        assert m.blocks == ((1, 2), (4, 5))
        assert list(m) == [((1, 2), (1, 2, 3)), ((4, 5), (4, 5, 6))]

    def test_any_pair_order_gives_the_enumerated_value(self):
        ms = enumerate_semi_matchings(staircase(5))
        assert max(map(len, ms)) >= 3
        for m in ms:
            for pairs in itertools.permutations(m.pairs):
                assert SemiMatching(pairs) == m
                assert SemiMatching(pairs).pairs == m.pairs

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

    def test_inputs_past_the_old_choice_budget_answer(self):
        # no choice function is enumerated, so nothing is refused for their number
        h = Clutter([list(range(20))])
        assert expansion(h, [[0, 1], [2, 3]], list(range(20))) == ZERO
        # 21 pair blocks make 2^21 choice functions, past the old default of 2^20;
        # each cross edge {2i+1, 2i+2, 100+i} holds no block
        pairs = [(2 * i, 2 * i + 1) for i in range(22)]
        h = Clutter(pairs + [(2 * i + 1, 2 * i + 2, 100 + i) for i in range(21)])
        start = time.perf_counter()
        got = expansion(h, pairs[:21], range(42))
        assert time.perf_counter() - start < 0.1
        assert got == Clutter([[100 + i] for i in range(20)] + [[42, 43], [42, 120]])

    def test_matches_the_join_over_choice_functions(self):
        # seeded (h, blocks, carrier) triples, ZERO and ONE among the clutters,
        # with empty block lists, empty blocks, blocks of 1 to 3 vertices and
        # carriers wider than the blocks; then every semi-matching of
        # staircase(2..5) with its blocks over its support
        rng = random.Random(1313)
        cases = []
        for _ in range(1500):
            h = random_clutter_sample(rng)
            pool = rng.sample(range(1, 11), 10)
            blocks = []
            for _ in range(rng.randint(0, 3)):
                size = 0 if rng.random() < 0.05 else rng.randint(1, 3)
                blocks.append(pool[:size])
                del pool[:size]
            carrier = [v for b in blocks for v in b] + pool[:rng.randint(0, 3)]
            cases.append((h, blocks, carrier))
        for n in range(2, 6):
            h = staircase(n)
            cases += [(h, m.blocks, m.support) for m in enumerate_semi_matchings(h)]
        seen = {"ZERO": 0, "ONE": 0, "other": 0}
        for h, blocks, carrier in cases:
            got = expansion(h, blocks, carrier)
            assert got == Clutter(fs_expansion(h.edge_sets, blocks, carrier)), (h, blocks, carrier)
            seen["ZERO" if got.is_zero else "ONE" if got.is_one else "other"] += 1
        assert len(cases) > 1900 and min(seen.values()) > 100, seen


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

    def test_pair_inside_another_host_fails_3a(self):
        # conditions 1, 2 and 4 hold; only 3a fails, as L_2 lies inside S_1
        h = Clutter([[1, 2, 3, 4], [3, 4, 5]])
        m = SemiMatching([((1, 2), (1, 2, 3, 4)), ((3, 4), (3, 4, 5))])
        assert not fs_is_semi_matching(h.edges, m.pairs)
        assert not is_semi_matching(h, m)
        assert not is_expanded_minor_matching(h, m)

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
        # the sampler.  The expanded-minor check must agree with 3b added
        rng = random.Random(241)
        by_4 = {True: 0, False: 0}
        other = {True: 0, False: 0}
        expanded = {True: 0, False: 0}

        def check(h, m):
            want = fs_is_semi_matching(h.edges, m.pairs)
            assert is_semi_matching(h, m) == want, (h, m)
            want_3b = fs_is_expanded_minor_matching(h.edges, m.pairs)
            assert is_expanded_minor_matching(h, m) == want_3b, (h, m)
            expanded[want_3b] += 1
            return want

        for i in range(400):
            if i % 2:
                h = random_clutter_sample(rng, max_vertices=7, max_edges=6, max_rank=4)
            else:  # edges of one size survive minimalization, giving larger families
                n = rng.randint(4, 7)
                h = Clutter(rng.sample(range(n), rng.randint(2, 3))
                            for _ in range(rng.randint(2, 7)))
            for m in _all_123a_candidates(h):
                by_4[check(h, m)] += 1
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
                assert check(h, m) == want
                other[want] += 1
        assert min(by_4.values()) > 600 and min(other.values()) > 200
        assert min(expanded.values()) > 600

    def test_eight_thousand_pairs_are_checked_within_two_seconds(self):
        # every pair of kk2(8000) as its own host: a check that compares every
        # pair with every other takes many seconds here
        h = kk2(8000)
        m = pairs_of(h)
        start = time.perf_counter()
        assert is_semi_matching(h, m) and is_expanded_minor_matching(h, m)
        assert time.perf_counter() - start < 2

    def test_eight_thousand_pairs_are_checked_in_linear_memory(self):
        # a clash mask per pair with a bit for every pair takes 56.8 MB here
        h = kk2(8000)
        m = pairs_of(h)
        for check in (is_semi_matching, is_expanded_minor_matching):
            got, peak = traced(lambda: check(h, m))
            assert got and peak < 8 * 10**6, (check.__name__, peak)

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

    @pytest.mark.parametrize("run, stage", [
        (lambda: enumerate_semi_matchings(staircase(4), budget=5), "semi-matching enumeration"),
        (lambda: find_kk2_minor(staircase(4), 2, node_budget=5), "matching-minor search"),
        (lambda: class_membership(staircase(4), 5, 2, node_budget=5), "matching-minor search"),
        (lambda: verify_bound(staircase(4), 1, node_budget=5), "matching-minor search"),
    ], ids=["enumerate", "find_kk2_minor", "class_membership", "verify_bound"])
    def test_budget_error_names_the_stage(self, run, stage):
        with pytest.raises(ResourceLimitError) as info:
            run()
        assert str(info.value) == f"{stage} exceeded budget of 5 search steps"

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


def _reference_cover_tables(edges):
    """The condition-4 tables as _cover_tables documents them, one bit at a
    time: each edge of two or more vertices owns a slot per vertex, then a
    guard bit."""
    low = guard = at = 0
    marks = {}
    for e in edges:
        if len(e) == 1:
            continue
        top = at + len(e)
        low |= 1 << at
        guard |= 1 << top
        for i, v in enumerate(e, at):
            marks[v] = marks.get(v, 0) | 1 << i | 1 << top
        at = top + 1
    of_host = {e: functools.reduce(operator.or_, map(marks.get, e)) & ~guard
               for e in edges if len(e) > 1}
    return low, guard, of_host, marks


def _entries_meet_the_reference(h, entries):
    """Whether each candidate's (cover, held) from `entries` is the one the
    reference tables give, and a one-vertex L = (v, v) gives the marks of
    every vertex v of a host whole."""
    _, _, of_host, marks = _reference_cover_tables(h.edges)
    return (all(entries((l, e)) == (of_host[e], marks[l[0]] & marks[l[1]])
                for e in h.edges for l in itertools.combinations(e, 2))
            and all(entries(((v, v), e))[1] == marks[v] for e in h.edges if len(e) > 1 for v in e))


def test_cover_tables_meet_the_reference_on_large_clutters():
    # 120 to 135 three-vertex edges on 12 vertices with up to three
    # one-vertex edges, which own no block; a rank-3 fan {0, 2i+1, 2i+2} of
    # 400 edges, a star of 1,400 edges, and rank 4 with 200 edges on 60
    # vertices
    cover_tables = importlib.import_module("clutterkit.matching")._cover_tables
    rng = random.Random(71)
    triples = list(itertools.combinations(range(12), 3))
    hs = []
    for m in (120, 127, 128, 135):
        hs.append(Clutter(rng.sample(triples, m) + [(100 + i,) for i in range(rng.randint(0, 3))]))
    quads = set()
    while len(quads) < 200:
        quads.add(tuple(sorted(rng.sample(range(60), 4))))
    hs += [fan(400),
           Clutter([0, i] for i in range(1, 1401)),
           Clutter(quads)]
    for h in hs:
        low, guard, entries = cover_tables(h.edges)
        assert (low, guard) == _reference_cover_tables(h.edges)[:2]
        assert _entries_meet_the_reference(h, entries)


def _eager_clash_masks(cand, minor):
    """Every candidate's clash mask at once, as the pair search once built
    them before making its first family: per-edge masks of the candidates
    whose L meets the edge or lies inside it, ORed with per-vertex ones."""
    in_l, of_host = {}, {}
    for i, ((a, b), e) in enumerate(cand):
        in_l[a] = in_l.get(a, 0) | 1 << i
        in_l[b] = in_l.get(b, 0) | 1 << i
        of_host[e] = of_host.get(e, 0) | 1 << i
    in_s, meets, inside = {}, {}, {}
    for e, mask in of_host.items():
        once = twice = 0
        for v in e:
            in_s[v] = in_s.get(v, 0) | mask
            m = in_l.get(v, 0)
            twice |= once & m
            once |= m
        meets[e], inside[e] = once, twice
    if minor:
        return [in_s[a] | in_s[b] | meets[e] for (a, b), e in cand]
    return [in_l[a] | in_l[b] | (in_s[a] & in_s[b]) | inside[e] for (a, b), e in cand]


def _brute_clash_mask(cand, i, minor):
    """Candidate i's clash mask, one pair of candidates at a time: j is in
    it when j is i or the two break 3b or, when `minor` is unset, 2 or 3a."""
    (l, s) = map(frozenset, cand[i])
    mask = 0
    for j, (m, t) in enumerate(cand):
        m, t = frozenset(m), frozenset(t)
        if minor:
            clash = bool(l & t or m & s)
        else:
            clash = bool(l & m) or l <= t or m <= s
        mask |= (j == i or clash) << j
    return mask


def _lazy_build_inputs():
    """Seeded random clutters with one-vertex edges and mixed sizes,
    staircases, sunflowers, ONE and ZERO."""
    rng = random.Random(251)
    hs = [ONE, ZERO] + [staircase(n) for n in range(2, 8)]
    hs += [random_clutter_sample(rng, max_vertices=9, max_edges=8, max_rank=5) for _ in range(120)]
    hs += [sunflower(core, size, petals)
           for core in range(4) for size in (1, 2, 3) for petals in range(1, 5)]
    assert sum(len({len(e) for e in h.edges}) > 1 and any(len(e) == 1 for e in h.edges)
               for h in hs) >= 20
    return hs


def _spied_builders(monkeypatch, log):
    """Wrap the search's two builders so that every row mask and every
    (cover, held) entry it builds is logged as (kind, candidate, value)."""
    matching = importlib.import_module("clutterkit.matching")
    clash_masks, cover_tables = matching._clash_masks, matching._cover_tables

    def spied_clash_masks(cand, minor):
        clash = clash_masks(cand, minor)

        def logged(i):
            mask = clash(i)
            log.append(("row", cand[i], mask))
            return mask

        return logged

    def spied_cover_tables(edges):
        low, guard, entries = cover_tables(edges)

        def logged(candidate):
            entry = entries(candidate)
            log.append(("entry", candidate, entry))
            return entry

        return low, guard, logged

    monkeypatch.setattr(matching, "_clash_masks", spied_clash_masks)
    monkeypatch.setattr(matching, "_cover_tables", spied_cover_tables)


def test_rows_and_entries_built_lazily_meet_their_definitions(monkeypatch):
    # each builder, called for every candidate, against a pair-by-pair
    # brute force, the masks the search once built up front, and the
    # reference tables; then every row and entry that real searches build,
    # each at most once per candidate
    matching = importlib.import_module("clutterkit.matching")
    hs = _lazy_build_inputs()
    for h in hs:
        cand = candidates(h)
        for minor in (False, True):
            clash = matching._clash_masks(cand, minor)
            got = [clash(i) for i in range(len(cand))]
            assert got == _eager_clash_masks(cand, minor)
            assert got == [_brute_clash_mask(cand, i, minor) for i in range(len(cand))]
        low, guard, entries = matching._cover_tables(h.edges)
        assert (low, guard) == _reference_cover_tables(h.edges)[:2]
        assert _entries_meet_the_reference(h, entries)
    log = []
    _spied_builders(monkeypatch, log)
    built = 0
    for h in hs:
        cand = candidates(h)
        _, _, of_host, marks = _reference_cover_tables(h.edges)
        for search, minor in ((lambda: enumerate_semi_matchings(h), False),
                              (lambda: find_kk2_minor(h, 2), True),
                              (lambda: find_kk2_minor(h, 3), True)):
            log.clear()
            search()
            for kind in ("row", "entry"):
                keys = [key for k, key, _ in log if k == kind]
                assert len(keys) == len(set(keys))
            for kind, (l, e), value in log:
                i = cand.index((l, e))
                if kind == "row":
                    assert value == _brute_clash_mask(cand, i, minor)
                else:
                    assert value == (of_host[e], marks[l[0]] & marks[l[1]])
            built += len(log)
    assert built >= 2000


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

    def test_many_pairs_extend_in_one_pass(self):
        # pair i's host in h is {2i, 2i+1, x}; the carrier {x, y, z} holds the
        # new pair {y, z}, so the expansion is kk2(n) and each host lifts
        n = 8000
        x, y, z = 2 * n, 2 * n + 1, 2 * n + 2
        h = Clutter([[2 * i, 2 * i + 1, x] for i in range(n)] + [[x, y, z]])
        m = SemiMatching([((2 * i, 2 * i + 1), (2 * i, 2 * i + 1)) for i in range(n)])
        start = time.perf_counter()
        out = extend_semi_matching(m, h, (y, z), (x, y, z))
        assert time.perf_counter() - start < 1.0
        assert out == SemiMatching([((2 * i, 2 * i + 1), (2 * i, 2 * i + 1, x))
                                    for i in range(n)] + [((y, z), (x, y, z))])

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

    def test_matches_frozenset_loop(self):
        # on semi-matchings, where 3a holds, meeting another pair's set is
        # meeting it in exactly one vertex
        rng = random.Random(251)
        checked = with_edges = 0
        for i in range(200):
            if i % 2:
                h = random_clutter_sample(rng, max_vertices=8, max_edges=6)
            else:
                n = rng.randint(5, 9)
                h = Clutter(rng.sample(range(n), 3) for _ in range(rng.randint(2, 6)))
            for m in enumerate_semi_matchings(h):
                g = build_conflict_graph(m)
                assert (g.n, g.edges) == (len(m), fs_conflict_edges(m.pairs)), m
                checked += 1
                with_edges += bool(g.edges)
        assert checked > 2000 and with_edges > 1000

    def test_eight_thousand_pair_ring_in_linear_memory(self):
        # a clash mask per pair with a bit for every pair takes 37.9 MB here
        _, m = ring_semi_matching(8000)
        g, peak = traced(lambda: build_conflict_graph(m))
        assert len(g.edges) == 8000 and peak < 12 * 10**6, peak

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


    @pytest.mark.parametrize("n, edges", [(-1, ()), (3, ((0, 5),)), (3, ((-1, 2),)),
                                          (2, ((0, 0),))],
                             ids=["negative order", "endpoint past n", "negative endpoint",
                                  "self-loop"])
    def test_rejects_malformed_graphs(self, n, edges):
        with pytest.raises(ValueError):
            ConflictGraph(n, edges)


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

    def test_matches_the_quadratic_scan(self):
        rng = random.Random(211)
        for _ in range(5000):
            n = rng.randint(0, 14)
            density = rng.random()
            edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < density)
            graph = ConflictGraph(n, edges)
            assert greedy_independent_set(graph) == quadratic_greedy_independent_set(graph)


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

    def test_matches_the_recomputed_expectation_on_rings(self):
        for n in range(2, 61):
            h, m = ring_semi_matching(n)
            assert extract_minor_matching(h, m) == recomputed_extract_minor_matching(h, m)

    def test_matches_the_recomputed_expectation_on_staircases(self):
        # every semi-matching of staircase(2..7), and a seeded sample of the
        # 40,742 of staircase(8); most leave two or more pairs over
        rng = random.Random(223)
        for n in range(2, 9):
            h = staircase(n)
            ms = enumerate_semi_matchings(h)
            for m in ms if n < 8 else rng.sample(ms, 2000):
                assert extract_minor_matching(h, m) == recomputed_extract_minor_matching(h, m)

    def test_matches_the_recomputed_expectation_with_pairs_left_over(self):
        rng = random.Random(227)
        left_over = 0
        for _ in range(800):
            h, m = random_tangled_semi_matching(rng)
            assert extract_minor_matching(h, m) == recomputed_extract_minor_matching(h, m)
            stable = greedy_independent_set(build_conflict_graph(m))
            left_over += len(m) - len(stable) >= 2
        assert left_over >= 500

    def test_two_thousand_pair_ring_within_one_second(self):
        # recomputing the expectation per leftover pair took 35 s on 400 pairs
        h, m = ring_semi_matching(2000)
        start = time.perf_counter()
        out = extract_minor_matching(h, m)
        assert time.perf_counter() - start < 1
        assert len(out) >= math.ceil(Fraction(2000, 6))  # n / f(3)

    def test_eight_thousand_pair_ring_extracts_in_linear_memory(self):
        # a validity check and conflict graph on bit tables take 74.5 MB here
        h, m = ring_semi_matching(8000)
        out, peak = traced(lambda: extract_minor_matching(h, m))
        assert len(out) >= math.ceil(Fraction(8000, 6)) and peak < 12 * 10**6, peak

    def test_eight_thousand_pairs_extract_within_four_seconds(self):
        # every pair of kk2(8000) as its own host: the conflict graph is
        # edgeless, and a greedy that rescans the survivors each round is
        # quadratic in the pairs
        h = kk2(8000)
        m = pairs_of(h)
        start = time.perf_counter()
        assert extract_minor_matching(h, m) == m
        assert time.perf_counter() - start < 4


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

    def test_witness_deleting_a_contracted_vertex_fails(self):
        assert not MinorWitness((1,), (1, 2), ((3, 4),)).verify(Clutter([[1, 2, 3, 4]]))

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
        assert not is_k_matching(Clutter([[1], [2, 3, 4]]), 2)  # 2 edges on 4 vertices
        assert not is_k_matching(kk2(2), -1)

    @pytest.mark.parametrize("k", [2.0, True, "2", None])
    def test_k_must_be_an_int(self, k):
        # kk2(2) and kk2(1) are 2.0- and True-matchings if k is not checked
        for h in (kk2(2), kk2(1)):
            with pytest.raises(ValueError, match="matching size must be an integer"):
                is_k_matching(h, k)


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

    def test_zero_pairs_charge_the_root(self):
        # staircase(4) has 20 candidates, so its set-up is 20 + 190 = 210
        # steps; the root, the one family of no pairs, is one more
        with pytest.raises(ResourceLimitError) as info:
            find_kk2_minor(staircase(4), 0, node_budget=210)
        assert str(info.value) == "matching-minor search exceeded budget of 210 search steps"
        w = find_kk2_minor(staircase(4), 0, node_budget=211)
        assert w is not None and w.matching == ()

    def test_negative_size_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            find_kk2_minor(C6, -1)

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
        hs = []
        for _ in range(80):
            n = rng.randint(4, 8)
            r = rng.randint(3, min(4, n))
            hs.append(Clutter(rng.sample(range(1, n + 1), r) for _ in range(rng.randint(2, 8))))
        # no two edges of these each have two vertices outside the other:
        # chains {a_i} | B_i over nested B_i, and sunflowers with one-vertex
        # petals; then staircases with one more edge that has such a pair
        partnerless = []
        for _ in range(10):
            labels = rng.sample(range(7), 7)
            m = rng.randint(2, 3)
            sizes = sorted(rng.sample(range(1, 8 - m), m))
            partnerless.append(Clutter([labels[i]] + labels[m:m + b] for i, b in enumerate(sizes)))
            core = rng.randint(1, 3)
            petals = rng.randint(2, 7 - core)
            partnerless.append(Clutter(labels[:core] + [p] for p in labels[core:core + petals]))
        for h in partnerless:
            assert not has_partners(h)
        partnered = []
        for _ in range(20):
            s = rng.randint(2, 3)
            labels = rng.sample(range(7), 7)
            extra = rng.sample(labels, rng.randint(2, 3))
            h = Clutter([[labels[i - 1]] + labels[s:s + i] for i in range(1, s + 1)] + [extra])
            if has_partners(h):
                partnered.append(h)
        assert len(partnered) >= 10
        hs += partnerless + partnered
        found = 0
        for h in hs:
            for k in (2, 3):
                w = find_kk2_minor(h, k)
                assert (w is not None) == brute_has_matching_minor(h.edge_sets, k)
                if w is not None:
                    assert w.verify(h)
                    found += 1
        assert found >= 20

    def test_partnerless_clutters_build_no_candidates(self, monkeypatch):
        # with no two edges each holding two vertices outside the other, no
        # two candidates meet 3b: the search must answer from the edges
        # alone, charging the set-up, the root and the n one-candidate
        # families it would have reached
        def refuse(*args):
            raise AssertionError("the pair search built its candidates")

        matching = importlib.import_module("clutterkit.matching")
        spy(monkeypatch, matching, "_clash_masks", refuse)
        spy(monkeypatch, matching, "_cover_tables", refuse)
        rng = random.Random(229)
        hs = [staircase(n) for n in range(2, 13)]
        hs += [relabelled_staircase(rng, n) for n in range(2, 13)]
        hs += [sunflower(core, 1, petals, first=core)
               for core in range(1, 4) for petals in range(2, 7)]
        for h in hs:
            assert not has_partners(h)
            for k in (2, 3):
                assert find_kk2_minor(h, k) is None
        for n in range(2, 11):
            c = sum(math.comb(len(e), 2) for e in staircase(n).edges)
            steps = c + c * (c - 1) // 2 + c + 1
            for k in (2, 3):
                assert find_kk2_minor(staircase(n), k, node_budget=steps) is None
                with pytest.raises(ResourceLimitError) as info:
                    find_kk2_minor(staircase(n), k, node_budget=steps - 1)
                assert str(info.value) == (
                    f"matching-minor search exceeded budget of {steps - 1} search steps")

    def test_partner_scan_agrees_with_the_brute_force_pairs(self):
        # the scan compares each edge only with the earlier ones, one way,
        # and skips one-vertex edges; the oracle tests every pair both ways
        matching = importlib.import_module("clutterkit.matching")
        rng = random.Random(233)
        hs = [ONE, ZERO]
        hs += [random_clutter_sample(rng, max_vertices=9, max_edges=8, max_rank=5,
                                     allow_bounds=False) for _ in range(400)]
        hs += [relabelled_staircase(rng, n) for n in range(1, 12)]
        # sunflowers: one- and two-vertex petals around a core of 0-3 vertices
        hs += [sunflower(core, size, petals)
               for core in range(4) for size in (1, 2) for petals in range(1, 6)]
        mixed = [h for h in hs if len({len(e) for e in h.edges}) > 1
                 and any(len(e) == 1 for e in h.edges)]
        assert len(mixed) >= 30
        got = [matching._has_partners(h.edges) for h in hs]
        assert got == [has_partners(h) for h in hs]
        assert 50 <= sum(got) <= len(hs) - 50

    def test_condition_4_tables_are_built_once_with_the_candidates(self, monkeypatch):
        # every search that builds its candidates builds the condition-4
        # tables with them, once, also one that stops before any family one
        # short of its size; none rebuilds them per family
        matching = importlib.import_module("clutterkit.matching")
        calls = spy(monkeypatch, matching, "_clash_masks", lambda *args: "_clash_masks")
        spy(monkeypatch, matching, "_cover_tables", lambda *args: "_cover_tables", calls)
        searches = []
        for n, m in ((12, 12), (14, 16), (16, 20)):
            for seed in range(6):
                h = random_clutter(n, m, 3, seed)
                searches += [functools.partial(find_kk2_minor, h, k) for k in range(1, 5)]
        searches += [functools.partial(enumerate_semi_matchings, staircase(n))
                     for n in range(2, 7)]
        built = 0
        for search in searches:
            calls.clear()
            search()
            assert calls in ([], ["_clash_masks", "_cover_tables"])
            built += bool(calls)
        assert built == 59  # 54 of the 72 minor searches, and the 5 enumerations

    def test_an_early_exit_builds_little(self, monkeypatch):
        # a one-pair search answers with the least candidate and builds no
        # row; a two-pair search that answers with a family whose first
        # candidate is f has made the one-candidate families up to f, and
        # builds a row only for those, each at most once
        rng = random.Random(257)
        hs = [Clutter(rng.sample(range(10), 3) for _ in range(12)) for _ in range(40)]
        hs += [C6, kk2(2), kk2(4)] + [staircase(n) for n in range(2, 6)]
        search_pairs = importlib.import_module("clutterkit.matching")._search_pairs
        expected = [(h, find_kk2_minor(h, 2), next(search_pairs(h, 10**6, 2), None)) for h in hs]
        log = []
        _spied_builders(monkeypatch, log)
        found = 0
        for h, want, family in expected:
            cand = candidates(h)
            log.clear()
            w = find_kk2_minor(h, 1)
            l, s = cand[0]
            assert w == MinorWitness(tuple(sorted(set(h.vertices) - set(s))),
                                     tuple(sorted(set(s) - set(l))), (l,))
            assert [k for k, _, _ in log] == ["entry"]
            log.clear()
            assert find_kk2_minor(h, 2) == want
            rows = [cand.index(key) for k, key, _ in log if k == "row"]
            assert len(rows) == len(set(rows))
            if want is not None:
                found += 1
                assert all(i <= cand.index(family[0]) for i in rows)
        assert found >= 30

    def test_a_one_pair_search_builds_no_vertex_masks(self, monkeypatch):
        # only a row reads the per-vertex masks, and a two-pair search
        # builds them once, with its first row
        matching = importlib.import_module("clutterkit.matching")
        calls = spy(monkeypatch, matching, "_vertex_masks", len)
        h = exact_clutter(random.Random(0), 400, 1500, 3)
        w = find_kk2_minor(h, 1, node_budget=10**8)
        assert w is not None and w.verify(h)
        assert calls == []
        assert find_kk2_minor(h, 2, node_budget=10**8) is not None
        assert calls == [3 * len(h.edges)]

    def test_an_early_exit_takes_a_third_of_the_eager_memory(self):
        # 1,500 edges of three vertices out of 400 give 4,500 candidates.
        # Building every row and condition-4 entry before the first family
        # peaked at 9.5 MiB (Python 3.11.7); a two-pair search that finds
        # its minor at once must stay under a third of that
        h = exact_clutter(random.Random(0), 400, 1500, 3)
        assert len(h.edges) == 1500
        w, peak = traced(lambda: find_kk2_minor(h, 2, node_budget=10**8))
        assert w is not None and w.verify(h)
        assert peak < 9.5 * 2**20 / 3

    @pytest.mark.parametrize("h, steps, pairs", [
        (C6, 39, None),
        (Clutter([[0, 1, 2], [3, 4, 5], [6, 7, 8]]), 49, ((0, 1), (3, 4), (6, 7))),
        (kk2(3), 10, ((0, 1), (2, 3), (4, 5))),
    ])
    def test_three_pair_search_charges_the_last_level_exactly(self, h, steps, pairs):
        # every family is charged one step when it is made, the three-pair
        # families of the last level included: the search ends within
        # `steps` and trips one below
        w = find_kk2_minor(h, 3, node_budget=steps)
        assert (w and w.matching) == pairs
        with pytest.raises(ResourceLimitError) as info:
            find_kk2_minor(h, 3, node_budget=steps - 1)
        assert str(info.value) == (
            f"matching-minor search exceeded budget of {steps - 1} search steps")

    def test_exhaustive_searches_charge_the_set_up_and_each_family_made(self):
        # a search that runs to its end is charged its n candidates, their
        # n(n-1)/2 pair tests and one step per family it makes.  Enumeration
        # makes every family, the root included, whose candidates meet 2
        # and 3a pairwise; a k-pair minor search every family of at most k
        # candidates meeting 3b pairwise, which is the root and the n
        # singles when no two edges are partners.  Each answers at that
        # budget and trips one below.
        def families(cands, most, compatible):
            return sum(all(compatible(c, d) for c, d in itertools.combinations(f, 2))
                       for r in range(most + 1) for f in itertools.combinations(cands, r))

        def meet_2_and_3a(c, d):
            (l, s), (m, t) = c, d
            return not l & m and not l <= t and not m <= s

        def meet_3b(c, d):
            (l, s), (m, t) = c, d
            return not l & t and not m & s

        def charged(run, steps, stage):
            got = run(steps)
            with pytest.raises(ResourceLimitError) as info:
                run(steps - 1)
            assert str(info.value) == f"{stage} exceeded budget of {steps - 1} search steps"
            return got

        rng = random.Random(241)
        hs = []
        for _ in range(150):
            hs.append(random_clutter_sample(rng, max_vertices=7, max_edges=6))
            # edges of one size survive minimalization, giving larger families
            n = rng.randint(4, 7)
            r = rng.randint(2, min(4, n))
            hs.append(Clutter(rng.sample(range(n), r) for _ in range(rng.randint(2, 6))))
        exhausted = 0
        for h in hs:
            cands = [(frozenset(l), frozenset(e))
                     for e in h.edges for l in itertools.combinations(e, 2)]
            n = len(cands)
            set_up = n + n * (n - 1) // 2
            steps = set_up + families(cands, len(h.vertices) // 2, meet_2_and_3a)
            got = charged(lambda b: enumerate_semi_matchings(h, budget=b), steps,
                          "semi-matching enumeration")
            assert got == enumerate_semi_matchings(h)
            for k in range(4):
                if find_kk2_minor(h, k) is None:
                    f = families(cands, k, meet_3b)
                    if k and not has_partners(h):
                        assert f == 1 + n
                    assert charged(lambda b: find_kk2_minor(h, k, node_budget=b),
                                   set_up + f, "matching-minor search") is None
                    exhausted += 1
        assert exhausted >= 300

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

        def refused():
            with pytest.raises(ResourceLimitError):
                find_kk2_minor(h, 2, node_budget=10)

        _, peak = traced(refused)
        assert peak < 2**20

    def test_memory_does_not_grow_with_one_vertex_edges(self):
        # no host holds the vertex of a one-vertex edge, so the condition-4
        # tables must not grow with them
        h = Clutter([(i,) for i in range(20_000)]
                    + [(20_000 + 2 * i, 20_001 + 2 * i) for i in range(3)])
        for run, want in ((lambda: len(enumerate_semi_matchings(h)), 8),
                          (lambda: find_kk2_minor(h, 0) is not None, True)):
            got, peak = traced(run)
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
