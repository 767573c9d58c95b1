import math
import random
import time

import pytest

from clutterkit import (
    BoundParams,
    Clutter,
    NotInClassError,
    ZERO,
    blocker,
    blocker_size_bound,
    class_membership,
    kk2,
    staircase,
    verify_bound,
)

from helpers import (C6, brute_has_matching_minor, fk_is_blocker, matched_clique,
                     random_clutter_sample)


class TestBoundValue:
    def test_rank_two_collapses_to_subset_count(self):
        assert blocker_size_bound(BoundParams(3, 2, 3)) == 8

    def test_zero_matching_bound_is_one(self):
        assert blocker_size_bound(BoundParams(17, 5, 0)) == 1

    def test_hand_sum(self):
        # 1 + 15 + 90 + 270 + 405 + 243, exponent cap 6, three pair choices
        assert blocker_size_bound(BoundParams(5, 3, 1)) == 1024

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BoundParams(-1, 2, 0)
        with pytest.raises(ValueError):
            BoundParams(3, 1, 1)
        with pytest.raises(ValueError):
            BoundParams(3, 2, -1)

    def test_monotone_in_every_parameter(self):
        for h in range(7):
            for r in range(2, 6):
                for k in range(4):
                    base = blocker_size_bound(BoundParams(h, r, k))
                    assert blocker_size_bound(BoundParams(h + 1, r, k)) >= base
                    assert blocker_size_bound(BoundParams(h, r + 1, k)) >= base
                    assert blocker_size_bound(BoundParams(h, r, k + 1)) >= base

    def test_equals_the_uncapped_sum(self):
        # terms with m above the edge count are zero, so capping the
        # exponent range at the edge count must not change the value
        for h in range(9):
            for r in range(2, 6):
                for k in range(3):
                    limit = k * (2 * r - 3) * 2 ** (r - 2)
                    full = sum(math.comb(h, m) * math.comb(r, 2) ** m
                               for m in range(limit + 1))
                    assert blocker_size_bound(BoundParams(h, r, k)) == full

    def test_large_rank_is_fast(self):
        # the exponent cap is k(2r-3)2^(r-2), about 86,000 at r = 12
        start = time.perf_counter()
        assert blocker_size_bound(BoundParams(3, 12, 1)) == (1 + 66) ** 3
        assert blocker_size_bound(BoundParams(10, 11, 1)) == 56**10
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"bound took {elapsed:.2f}s (limit 0.5s)"

    def test_many_edges_of_large_rank(self):
        # with the exponent cap at or past the edge count the sum is the
        # binomial expansion of (1 + C(r, 2))^E, here of 153,747 bits
        start = time.perf_counter()
        assert blocker_size_bound(BoundParams(16_000, 40, 1)) == 781**16_000
        elapsed = time.perf_counter() - start
        assert elapsed < 10, f"bound took {elapsed:.2f}s (limit 10s)"
        # a cap of 2 * 7 * 8 = 112 terms, below the 5,000 edges
        assert blocker_size_bound(BoundParams(5_000, 5, 2)) == sum(
            math.comb(5_000, m) * 10**m for m in range(113))

    def test_equality_family(self):
        for k in range(1, 11):
            assert blocker_size_bound(BoundParams(k, 2, k)) == 2**k
            assert len(blocker(kk2(k))) == 2**k


class TestClassMembership:
    def test_staircase_in_class(self):
        assert class_membership(staircase(4), 5, 2)

    def test_pair_matching_not_in_its_own_class(self):
        for k in (1, 2, 3):
            assert not class_membership(kk2(k), 2, k)

    def test_cycle_contains_a_two_pair_minor(self):
        # the 6-cycle minus two opposite vertices is a two-pair matching,
        # so it is not in the (r=2, k=2) class; oracle-confirmed
        assert brute_has_matching_minor(C6.edge_sets, 2)
        assert not class_membership(C6, 2, 2)

    def test_rank_filter(self):
        assert not class_membership(staircase(3), 3, 2)  # rank 4

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            class_membership(ZERO, 3, 2)

    @pytest.mark.parametrize("edges, r, k, message", [
        ([[1, 2]], -1, 2, "rank bound must be non-negative"),
        ([[1, 2, 3]], 2, -1, "matching size must be non-negative"),  # rank above r
        ([[1, 2]], 2, -1, "matching size must be non-negative"),
    ], ids=["negative-r", "negative-k-past-the-rank", "negative-k"])
    def test_negative_arguments_rejected_whatever_the_rank(self, edges, r, k, message):
        with pytest.raises(ValueError, match=message):
            class_membership(Clutter(edges), r, k)


class TestVerifyBound:
    def test_three_pair_matching_is_tight(self):
        report = verify_bound(kk2(3), 3)
        assert report.bound == 8
        assert report.observed_blocker_size == 8
        assert report.within_bound

    def test_staircase(self):
        h = staircase(4)
        report = verify_bound(h, 1)
        assert report.params.edge_count == 4 and report.params.r == 5
        assert report.observed_blocker_size == len(blocker(h))
        assert report.within_bound

    def test_single_edge(self):
        report = verify_bound(Clutter([[1, 2, 3]]), 1)
        assert report.observed_blocker_size == 3
        assert report.bound == 4
        assert report.within_bound

    def test_not_in_class(self):
        with pytest.raises(NotInClassError):
            verify_bound(kk2(2), 1)

    def test_rank_below_two_rejected(self):
        with pytest.raises(ValueError):
            verify_bound(Clutter([[1], [2]]), 1)

    def test_edgeless_clutter_rejected(self):
        with pytest.raises(ValueError, match="the bound is undefined for the edgeless clutter"):
            verify_bound(ZERO, 0)

    def test_negative_k_rejected_before_the_search(self):
        # NotInClassError is a ValueError too, so check the exact type
        for h in (C6, kk2(2), staircase(3)):
            with pytest.raises(ValueError) as info:
                verify_bound(h, -1)
            assert type(info.value) is ValueError
            assert str(info.value) == "matching bound must be non-negative"

    @pytest.mark.parametrize("k", [16, 20, 30])
    def test_the_bound_caps_the_fold_on_matched_cliques(self, k):
        # at r = 2 and k = 1 the bound is 1 + |H|.  Every group of the fold
        # ends on the blocker of a deletion minor, which stays in the class,
        # so those families stay under the bound
        h = matched_clique(k)
        b = blocker(h, edge_budget=blocker_size_bound(BoundParams(len(h), 2, 1)))
        assert len(b) == k + 1
        assert fk_is_blocker(h.edges, b.edges)

    def test_matched_clique_of_thirty(self):
        report = verify_bound(matched_clique(30), 1)
        assert report.params.edge_count == 465 and report.bound == 466
        assert report.observed_blocker_size == 31
        assert report.within_bound

    def test_holds_on_random_members(self):
        rng = random.Random(113)
        seen = 0
        while seen < 60:
            r = rng.randint(2, 4)
            k = rng.randint(1, 2)
            h = random_clutter_sample(rng, max_vertices=8, max_edges=5,
                                      max_rank=r, allow_bounds=False)
            if not class_membership(h, r, k):
                continue
            bound = blocker_size_bound(BoundParams(len(h), r, k))
            assert len(blocker(h)) <= bound
            seen += 1
