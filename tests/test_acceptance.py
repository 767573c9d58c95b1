"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines including measured runtimes.
"""
import contextlib
import math
import random
import time
from fractions import Fraction

from clutterkit import (
    BoundParams,
    Clutter,
    SemiMatching,
    blocker,
    blocker_size_bound,
    class_membership,
    enumerate_semi_matchings,
    expansion,
    extract_minor_matching,
    find_kk2_minor,
    is_expanded_minor_matching,
    is_semi_matching,
    kk2,
    maximal_independent_sets,
    run_law_suite,
    solve_sat,
    solve_setcover,
    staircase,
    satisfies,
)

from helpers import (
    C6,
    brute_has_matching_minor,
    brute_min_cover_cost,
    random_clutter_sample,
    random_cnf,
    random_cover_instance,
    truth_table_satisfiable,
)


@contextlib.contextmanager
def criterion(num, name, limit):
    """Times the block: it must finish within limit seconds, and then
    criterion num prints its PASS line."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s (limit {limit}s)"
    print(f"[{num:>2}] {name}: PASS ({elapsed:.1f}s)")


def test_01_blocker_involution():
    with criterion(1, "blocker involution on 200 random clutters", 30):
        rng = random.Random(1001)
        for _ in range(200):
            h = random_clutter_sample(rng, max_vertices=12, max_edges=10, max_rank=12)
            assert blocker(blocker(h)) == h


def test_02_cycle_fixture():
    with criterion(2, "worked 6-cycle independent-set fixture", 30):
        first = maximal_independent_sets(C6)
        assert first == ((1, 4), (2, 5), (3, 6), (1, 3, 5), (2, 4, 6))
        second = Clutter(maximal_independent_sets(Clutter(first)))
        assert second == Clutter([[1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6], [5, 6, 1], [6, 1, 2]])
        assert second != C6


def test_03_tightness_for_pair_matchings():
    with criterion(3, "bound tight on pair matchings, k = 1..10", 5):
        for k in range(1, 11):
            assert len(blocker(kk2(k))) == 2**k
            assert blocker_size_bound(BoundParams(k, 2, k)) == 2**k


def test_04_bound_holds_on_class_members():
    with criterion(4, "blocker-size bound on 300 random class members", 300):
        rng = random.Random(1004)
        passing = 0
        attempts = 0
        while passing < 300:
            attempts += 1
            assert attempts < 20000, "generator failed to produce enough class members"
            r = rng.randint(2, 4)
            k = rng.randint(1, 2)
            h = random_clutter_sample(rng, max_vertices=10, max_edges=6,
                                      max_rank=r, allow_bounds=False)
            if not class_membership(h, r, k):
                continue
            passing += 1
            assert len(blocker(h)) <= blocker_size_bound(BoundParams(len(h), r, k))


def test_05_blocker_bounded_by_semi_matching_count():
    with criterion(5, "blocker size bounded by semi-matching count (100 clutters)", 300):
        rng = random.Random(1005)
        for _ in range(100):
            h = random_clutter_sample(rng, max_vertices=8, max_edges=8, max_rank=8)
            assert len(blocker(h)) <= len(enumerate_semi_matchings(h))
        assert len(blocker(C6)) == 5 and len(enumerate_semi_matchings(C6)) == 10


def test_06_constructive_extraction():
    with criterion(6, "constructive extraction meets its size bound (50 clutters)", 300):
        rng = random.Random(1006)
        for _ in range(50):
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


def test_07_staircase_separation():
    with criterion(7, "staircase family separates semi-matchings from minors", 60):
        for n in range(1, 7):
            h = staircase(n)
            matchings = enumerate_semi_matchings(h)
            witness = SemiMatching([((i, n + i), h.edges[i - 1]) for i in range(1, n + 1)])
            assert is_semi_matching(h, witness) and witness in matchings
            assert max(len(m) for m in matchings) >= n
            assert find_kk2_minor(h, 2) is None


def test_08_minor_search_matches_exhaustive_oracle():
    with criterion(8, "minor search agrees with exhaustive oracle (140 clutters, "
                      "40 with three planted pairs)", 300):
        rng = random.Random(1008)
        clutters = [random_clutter_sample(rng, max_vertices=6, max_edges=5, max_rank=6)
                    for _ in range(100)]
        # three disjoint pairs on 6 to 8 vertices plus 0 to 3 random edges:
        # the draws above are too small for a 3K2 minor
        rng = random.Random(2008)
        for _ in range(40):
            n = rng.randint(6, 8)
            v = rng.sample(range(1, n + 1), 6)
            clutters.append(Clutter([v[0:2], v[2:4], v[4:6]] + [
                rng.sample(range(1, n + 1), rng.randint(2, 4)) for _ in range(rng.randint(0, 3))]))
        with_3k2 = 0
        for h in clutters:
            for k in (1, 2, 3):
                got = find_kk2_minor(h, k)
                expected = brute_has_matching_minor(h.edge_sets, k)
                assert (got is not None) == expected
                if got is not None:
                    assert got.verify(h)
            with_3k2 += expected  # the oracle's answer for k = 3
        assert with_3k2 > 0


def test_09_sat_equivalence():
    with criterion(9, "SAT decision equals truth-table oracle (100 formulas)", 120):
        rng = random.Random(1009)
        for _ in range(100):
            f = random_cnf(rng, max_vars=12, max_clauses=20)
            a = solve_sat(f)
            assert (a is not None) == truth_table_satisfiable(f)
            if a is not None:
                assert satisfies(f, a)
                assert set(a.values) == set(range(1, f.num_vars + 1))


def test_10_setcover_equivalence():
    with criterion(10, "set-cover costs equal brute force (100 instances)", 120):
        rng = random.Random(1010)
        for _ in range(100):
            inst = random_cover_instance(rng, max_elements=12, max_sets=10)
            _, cost = solve_setcover(inst)
            assert cost == brute_min_cover_cost(inst)
            _, wcost = solve_setcover(inst, "weighted")
            assert wcost == brute_min_cover_cost(inst, "weighted")


def test_11_algebraic_law_suite():
    with criterion(11, "algebraic law suite, 500 samples per law", 120):
        results = run_law_suite(samples=500, seed=1011)
        failing = [r for r in results if not r.ok]
        assert not failing, failing


def test_12_transversal_disjunction():
    with criterion(12, "transversal disjunction on 50 random clutters", 120):
        rng = random.Random(1012)
        for _ in range(50):
            h = random_clutter_sample(rng, max_vertices=8, max_edges=6,
                                      allow_bounds=False)
            transversals = blocker(h)
            deleted = {v: blocker(h.delete(v)) for v in h.vertices}
            cache = {}
            for t in transversals:
                ts = set(t)
                for v in h.vertices:
                    if tuple(sorted(ts - {v})) in deleted[v]:
                        continue
                    found = False
                    for s in h.edge_sets:
                        if v not in s:
                            continue
                        for u in sorted(s - {v}):
                            key = (v, u, s)
                            if key not in cache:
                                cache[key] = blocker(expansion(h, [{v, u}], s))
                            if tuple(sorted(ts - {v, u})) in cache[key]:
                                found = True
                                break
                        if found:
                            break
                    assert found, (h, t, v)
