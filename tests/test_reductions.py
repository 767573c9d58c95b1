import functools
import random
import time
import warnings
from fractions import Fraction
from math import comb

import pytest

from clutterkit import (
    Assignment,
    Clutter,
    CnfFormula,
    InfeasibleInstanceError,
    MonotoneOracle,
    ResourceLimitError,
    SetCoverInstance,
    blocker,
    cnf_to_clutter,
    satisfies,
    setcover_to_clutter,
    solve_sat,
    solve_setcover,
)
from clutterkit.blocker import _decode, _fold

from helpers import (
    berge_fold_peak,
    brute_consistent_minimal_transversals,
    brute_covers,
    brute_min_cover_cost,
    clause,
    fold_order,
    fs_clutter,
    random_cnf,
    random_cover_instance,
    truth_table_satisfiable,
)

TRIANGLE = SetCoverInstance(
    3,
    (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})),
    names=("A", "B", "C"),
)


class TestSetCoverMapping:
    def test_incidence_transpose(self):
        h = setcover_to_clutter(TRIANGLE)
        assert h == Clutter([[0, 2], [0, 1], [1, 2]])

    def test_single_covering_set(self):
        inst = SetCoverInstance(3, (frozenset({1, 2, 3}),))
        assert setcover_to_clutter(inst) == Clutter([[0]])

    def test_identical_coverage_collapses(self):
        inst = SetCoverInstance(2, (frozenset({1, 2}), frozenset({1, 2})))
        assert setcover_to_clutter(inst) == Clutter([[0, 1]])

    def test_subsumed_coverage_row_removed(self):
        inst = SetCoverInstance(2, (frozenset({1, 2}), frozenset({1})))
        assert setcover_to_clutter(inst) == Clutter([[0]])

    def test_uncovered_element_is_infeasible(self):
        inst = SetCoverInstance(3, (frozenset({1, 2}),))
        with pytest.raises(InfeasibleInstanceError):
            setcover_to_clutter(inst)

    def test_equals_the_per_element_scan(self):
        # each element's row lists the sets holding it, and the first
        # uncovered element is the one named
        def scan(inst):
            rows = []
            for u in range(1, inst.universe_size + 1):
                row = [i for i, s in enumerate(inst.sets) if u in s]
                if not row:
                    return f"element {u} is not covered by any set"
                rows.append(row)
            return Clutter(rows)

        rng = random.Random(151)
        for _ in range(300):
            n = rng.randint(0, 10)
            inst = SetCoverInstance(n, [frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
                                        for _ in range(rng.randint(0, 6))])
            try:
                got = setcover_to_clutter(inst)
            except InfeasibleInstanceError as e:
                got = str(e)
            assert got == scan(inst)

    def test_reads_each_set_once(self):
        # a ring of 20,000 elements and sets {j, j + 1}: a scan of every set
        # per element takes about 17 s here, one pass over the sets 0.1 s
        n = 20_000
        inst = SetCoverInstance(n, [frozenset({j, j % n + 1}) for j in range(1, n + 1)])
        start = time.perf_counter()
        h = setcover_to_clutter(inst)
        assert time.perf_counter() - start < 1.0
        assert h == Clutter([(u - 2) % n, u - 1] for u in range(1, n + 1))

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            SetCoverInstance(2, (frozenset({5}),))
        with pytest.raises(ValueError):
            SetCoverInstance(2, (frozenset({1}),), weights=(1, 2))
        with pytest.raises(ValueError):
            SetCoverInstance(2, (frozenset({1, 2}),), weights=(-1,))
        with pytest.raises(ValueError):
            SetCoverInstance(-1, ())
        with pytest.raises(ValueError):
            SetCoverInstance(2, (frozenset({1}),), names=("a", "b"))

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("before, after", [((), ()), ((1, 0.5), (Fraction(3, 2),))],
                             ids=["alone", "beside valid weights"])
    def test_non_finite_float_weight_is_refused(self, bad, before, after):
        weights = (*before, float(bad), *after)
        with pytest.raises(ValueError, match=f"weights must be finite, got {bad}"):
            SetCoverInstance(1, (frozenset({1}),) * len(weights), weights)


class TestSolveSetCover:
    def test_triangle_cardinality(self):
        cover, cost = solve_setcover(TRIANGLE)
        assert cost == 2 and len(cover) == 2

    def test_triangle_weighted(self):
        inst = SetCoverInstance(3, TRIANGLE.sets, weights=(1, 1, 10),
                                names=("A", "B", "C"))
        cover, cost = solve_setcover(inst, "weighted")
        assert cover == ("A", "B") and cost == 2

    def test_weighted_requires_weights(self):
        with pytest.raises(ValueError):
            solve_setcover(TRIANGLE, "weighted")

    @pytest.mark.parametrize("objective, oracle", [("size", None), ("oracle", None),
                                                   ("cardinality", len), ("weighted", len)])
    def test_oracle_goes_with_the_oracle_objective_only(self, objective, oracle):
        inst = SetCoverInstance(3, TRIANGLE.sets, weights=(1, 1, 1))
        with pytest.raises(ValueError):
            solve_setcover(inst, objective, oracle=oracle)

    def test_oracle_reproduces_cardinality(self):
        rng = random.Random(127)
        for _ in range(15):
            inst = random_cover_instance(rng, max_elements=8, max_sets=6)
            _, cost_card = solve_setcover(inst)
            _, cost_oracle = solve_setcover(inst, "oracle", oracle=lambda s: len(s))
            assert cost_card == cost_oracle

    def test_matches_brute_force(self):
        rng = random.Random(131)
        for _ in range(40):
            inst = random_cover_instance(rng, max_elements=9, max_sets=7)
            _, cost = solve_setcover(inst)
            assert cost == brute_min_cover_cost(inst)
            _, wcost = solve_setcover(inst, "weighted")
            assert wcost == brute_min_cover_cost(inst, "weighted")

    def test_matches_brute_force_under_each_engine(self, engine):
        rng = random.Random(137)
        for _ in range(30):
            inst = random_cover_instance(rng, max_elements=10, max_sets=12)
            _, cost = solve_setcover(inst)
            assert cost == brute_min_cover_cost(inst)
            _, wcost = solve_setcover(inst, "weighted")
            assert wcost == brute_min_cover_cost(inst, "weighted")

    def test_blocker_sets_are_exactly_the_minimal_covers(self):
        rng = random.Random(157)
        for _ in range(25):
            inst = random_cover_instance(rng, max_elements=8, max_sets=8)
            covers = fs_clutter(brute_covers(inst))
            assert set(blocker(setcover_to_clutter(inst)).edge_sets) == covers

    def test_cover_is_feasible(self):
        rng = random.Random(137)
        for _ in range(20):
            inst = random_cover_instance(rng, max_elements=8, max_sets=6)
            cover, _ = solve_setcover(inst)
            covered = set()
            for i in cover:
                covered |= inst.sets[i]
            assert covered >= set(range(1, inst.universe_size + 1))

    def test_ties_go_to_the_first_blocker_set(self):
        rng = random.Random(139)
        half = lambda t: len(t) // 2  # monotone, with many ties
        tied = 0
        for _ in range(150):
            drawn = random_cover_instance(rng, max_elements=8, max_sets=7, max_weight=2)
            inst = SetCoverInstance(drawn.universe_size, drawn.sets, drawn.weights,
                                    names=tuple(f"s{i}" for i in range(len(drawn.sets))))
            covers = blocker(setcover_to_clutter(inst)).edges
            for objective, cost_of, oracle in (
                ("cardinality", len, None),
                ("weighted", lambda t: sum(inst.weights[i] for i in t), None),
                ("oracle", half, half),
            ):
                costs = [cost_of(t) for t in covers]
                first = costs.index(min(costs))
                want = (tuple(sorted(inst.name_of(i) for i in covers[first])), costs[first])
                assert solve_setcover(inst, objective, oracle=oracle) == want
                tied += costs.count(costs[first]) > 1
        assert tied > 100

    def test_weighted_with_fractional_weights(self):
        rng = random.Random(149)
        pool = [Fraction(n, d) for n, d in ((1, 2), (1, 3), (5, 6), (1, 7), (6, 7), (1, 1))]
        tied = 0
        for _ in range(200):
            drawn = random_cover_instance(rng, max_elements=8, max_sets=7)
            # 1/2 + 1/3 == 5/6 and 1/7 + 6/7 == 1 make ties common
            weights = tuple(rng.choice(pool) for _ in drawn.sets)
            inst = SetCoverInstance(drawn.universe_size, drawn.sets, weights)
            cover, cost = solve_setcover(inst, "weighted")
            assert type(cost) is Fraction
            assert cost == brute_min_cover_cost(inst, "weighted")
            covers = blocker(setcover_to_clutter(inst)).edges
            costs = [sum((weights[i] for i in t), Fraction(0)) for t in covers]
            first = costs.index(min(costs))
            assert cover == covers[first]
            tied += costs.count(costs[first]) > 1
        assert tied > 20

    def test_equals_a_re_sort_of_the_blocker(self, engine, pack_from):
        # the reference sorts the blocker sets by (size, tuple) itself and
        # sums Fraction costs; tied and zero weights make the order decide
        rng = random.Random(193)
        pool = (0, 0, 1, 2, Fraction(1, 2), Fraction(3, 2))
        tied = zero = 0
        for _ in range(60):
            drawn = random_cover_instance(rng, max_elements=10, max_sets=12)
            weights = tuple(rng.choice(pool) for _ in drawn.sets)
            inst = SetCoverInstance(drawn.universe_size, drawn.sets, weights)
            covers = sorted(blocker(setcover_to_clutter(inst)).edges, key=lambda t: (len(t), t))
            for objective, cost_of in (("cardinality", len),
                                       ("weighted", lambda t: sum((weights[i] for i in t), Fraction(0)))):
                costs = [cost_of(t) for t in covers]
                best = min(costs)
                assert solve_setcover(inst, objective) == (covers[costs.index(best)], best)
                tied += costs.count(best) > 1
            zero += best == 0
        assert tied > 40 and zero > 20

    def test_budget_caps_the_fold(self):
        rng = random.Random(199)
        kept = 0
        for _ in range(30):
            inst = random_cover_instance(rng)
            h = setcover_to_clutter(inst)
            n = len(h.vertices)
            peak = berge_fold_peak(fold_order(h.edges))
            if peak - 1 >= comb(n, n // 2):  # the lattice would answer at peak - 1
                continue
            kept += 1
            for objective in ("cardinality", "weighted"):
                assert solve_setcover(inst, objective, edge_budget=peak) == solve_setcover(inst, objective)
                with pytest.raises(ResourceLimitError):
                    solve_setcover(inst, objective, edge_budget=peak - 1)
        assert kept >= 20

    def test_monotonicity_spot_check_warns(self):
        bad = MonotoneOracle(lambda s: -len(s))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rng = random.Random(0)
            bad.spot_check([frozenset({1}), frozenset({2}), frozenset({1, 2})], rng)
        assert any("monotonicity" in str(w.message) for w in caught)

    @pytest.mark.parametrize("wrap", [lambda f: f, MonotoneOracle], ids=["callable", "wrapped"])
    def test_oracle_evaluates_each_name_set_once(self, wrap):
        # three covers of two sets each, and the spot check samples their
        # unions, which are all the full family: four distinct name sets
        from collections import Counter

        calls = Counter()

        def cost(names):
            calls[names] += 1
            return len(names)

        assert solve_setcover(TRIANGLE, "oracle", oracle=wrap(cost)) == (("A", "B"), 2)
        assert sorted(calls.values()) == [1, 1, 1, 1]
        assert frozenset("ABC") in calls


class TestCnfMapping:
    def test_direct_mapping(self):
        f = CnfFormula(2, ((1, 2), (-1, -2)))
        assert cnf_to_clutter(f) == Clutter([[2, 4], [3, 5]])

    def test_duplicate_clause_collapses(self):
        f = CnfFormula(2, ((1, 2), (1, 2)))
        assert len(cnf_to_clutter(f)) == 1

    def test_subsumed_clause_removed(self):
        f = CnfFormula(2, ((1,), (1, 2)))
        assert cnf_to_clutter(f) == Clutter([[2]])

    def test_tautological_clause_kept(self):
        f = CnfFormula(1, ((1, -1),))
        assert cnf_to_clutter(f) == Clutter([[2, 3]])
        assert solve_sat(f) is not None

    def test_formula_validation(self):
        with pytest.raises(ValueError):
            CnfFormula(2, ((),))
        with pytest.raises(ValueError):
            CnfFormula(2, ((3,),))
        with pytest.raises(ValueError):
            CnfFormula(2, ((0,),))
        with pytest.raises(ValueError):
            CnfFormula(-1, ())
        # bool and float literals, even beside the int they equal
        for clause in ((True,), (1, True), (-1, False), (2, 2.0)):
            with pytest.raises(ValueError):
                CnfFormula(2, (clause,))

    def test_formula_is_frozen(self):
        f = CnfFormula(2, ((1, 2),))
        with pytest.raises(AttributeError):
            f.clauses = ((5,),)
        with pytest.raises(AttributeError):
            f.num_vars = 1
        assert f == CnfFormula(2, ((1, 2),))


def exact_3cnf(rng, num_vars, num_clauses):
    """num_clauses clauses, each over 3 distinct variables."""
    return CnfFormula(num_vars, tuple(clause(rng, range(1, num_vars + 1), 3)
                                      for _ in range(num_clauses)))


def _near_threshold_formulas():
    """Exact 3-CNF formulas near the satisfiability threshold on 3 to 9
    variables, and seeded random ones."""
    rng = random.Random(163)
    formulas = [exact_3cnf(rng, n, round(4.2 * n) + rng.randint(-2, 2))
                for n in (3, 4, 5, 6, 7, 8, 9) for _ in range(6)]
    return formulas + [random_cnf(rng, max_vars=9, max_clauses=20) for _ in range(30)]


def _adjacent_bit_formulas():
    """Formulas in which each variable occurs in one polarity or both.

    A variable that occurs in one polarity only leaves its other literal
    out, so a literal of the next variable takes the adjacent bit; one
    that occurs in both puts a clashing pair on adjacent bits."""
    formulas = [CnfFormula(2, ((1,), (2,))), CnfFormula(2, ((-1,), (2,)))]
    rng = random.Random(173)
    for _ in range(80):
        n = rng.randint(2, 8)
        signs = [rng.choice(((1,), (-1,), (1, -1))) for _ in range(n)]
        clauses = [rng.sample(range(1, n + 1), rng.randint(1, min(3, n))) for _ in range(3 * n)]
        formulas.append(CnfFormula(n, tuple(
            tuple(v * rng.choice(signs[v - 1]) for v in clause) for clause in clauses
        )))
    return formulas


@functools.lru_cache(maxsize=None)
def _consistent_family_cases():
    """Seeded 2- and 3-CNF formulas of at most 8 variables, so at most 16
    literal vertices and the lattice may answer, and the adjacent-bit
    formulas, each with its brute-force consistent minimal transversals."""
    rng = random.Random(181)
    formulas = [random_cnf(rng, max_vars=8, max_clauses=16, width=rng.choice((2, 3)))
                for _ in range(60)]
    formulas += _adjacent_bit_formulas()
    return [(f, brute_consistent_minimal_transversals(f)) for f in formulas]


def first_consistent_blocker_set(formula):
    """The assignment read off the canonically first blocker set that
    holds no complementary literal pair, or None."""
    variables = range(1, formula.num_vars + 1)
    for t in blocker(cnf_to_clutter(formula)).edge_sets:
        if not any(2 * i in t and 2 * i + 1 in t for i in variables):
            return Assignment({i: 2 * i in t for i in variables})
    return None


class TestSolveSat:
    def test_satisfiable_example(self):
        f = CnfFormula(2, ((1, 2), (-1, -2)))
        a = solve_sat(f)
        assert a is not None and satisfies(f, a)
        assert not satisfies(f, Assignment({1: True, 2: True}))

    @pytest.mark.parametrize("num_vars, values, missing", [
        (2, {1: True}, 2),
        (2, {1: False}, 2),
        (3, {1: False, 2: True}, 3),
    ])
    def test_satisfies_refuses_a_partial_assignment(self, num_vars, values, missing):
        with pytest.raises(ValueError, match=f"no value for variable {missing}$"):
            satisfies(CnfFormula(num_vars, ((1, 2),)), Assignment(values))

    def test_contradiction(self):
        assert solve_sat(CnfFormula(1, ((1,), (-1,)))) is None

    def test_no_clauses_is_satisfiable(self):
        a = solve_sat(CnfFormula(2, ()))
        assert a is not None
        assert a.values == {1: False, 2: False}

    def test_agrees_with_truth_table(self):
        rng = random.Random(139)
        for _ in range(40):
            f = random_cnf(rng, max_vars=8, max_clauses=12)
            a = solve_sat(f)
            assert (a is not None) == truth_table_satisfiable(f)
            if a is not None:
                assert satisfies(f, a)
                assert set(a.values) == set(range(1, f.num_vars + 1))

    def test_superset_clause_never_changes_decision(self):
        rng = random.Random(149)
        for _ in range(25):
            f = random_cnf(rng, max_vars=7, max_clauses=8)
            base = solve_sat(f) is not None
            clause = f.clauses[rng.randrange(len(f.clauses))]
            extra = rng.randint(1, f.num_vars)
            widened = clause + tuple(
                lit for lit in (extra,) if abs(lit) not in {abs(c) for c in clause}
            )
            f2 = CnfFormula(f.num_vars, f.clauses + (widened,))
            assert (solve_sat(f2) is not None) == base

    def test_equals_the_first_consistent_blocker_set(self):
        decided = set()
        for f in _near_threshold_formulas():
            a = solve_sat(f)
            assert a == first_consistent_blocker_set(f)
            assert (a is not None) == truth_table_satisfiable(f)
            decided.add(a is not None)
        assert decided == {True, False}

    def test_literals_of_different_variables_at_adjacent_bits(self, pack_from):
        formulas = _adjacent_bit_formulas()
        assert solve_sat(formulas[0]).values == {1: True, 2: True}
        for f in formulas:
            assert solve_sat(f) == first_consistent_blocker_set(f)

    def test_first_consistent_blocker_set_under_each_engine(self, engine):
        decided = set()
        for f in _near_threshold_formulas() + _adjacent_bit_formulas():
            a = solve_sat(f)
            assert a == first_consistent_blocker_set(f)
            assert (a is not None) == truth_table_satisfiable(f)
            decided.add(a is not None)
        assert decided == {True, False}

    def test_fold_keeps_exactly_the_consistent_minimal_transversals(self, engine, pack_from):
        sizes = set()
        for f, want in _consistent_family_cases():
            got = _decode(*_fold(cnf_to_clutter(f), 10**6, literals=True))
            assert len(got) == len(want)
            assert set(map(frozenset, got)) == want
            sizes.add(len(want))
        assert 0 in sizes and max(sizes) >= 30

    def test_budget_caps_the_consistent_family(self):
        rng = random.Random(167)
        for _ in range(30):
            n = rng.randint(3, 7)
            f = exact_3cnf(rng, n, rng.randint(1, round(4.2 * n)))
            clashes = [(2 * i, 2 * i + 1) for i in range(1, n + 1)]
            peak = berge_fold_peak(fold_order(cnf_to_clutter(f).edges), clashes)
            assert solve_sat(f, edge_budget=peak) == solve_sat(f)
            with pytest.raises(ResourceLimitError):
                solve_sat(f, edge_budget=peak - 1)


class TestAssignment:
    def test_literal_view(self):
        a = Assignment({1: True, 2: False})
        assert a.as_literals() == (1, -2)
        assert a[1] is True

    def test_is_frozen_and_owns_its_values(self):
        values = {1: True, 2: False}
        a = Assignment(values)
        values[1] = False
        values[3] = True
        assert a.values == {1: True, 2: False}
        with pytest.raises(AttributeError):
            a.values = {1: False}
        with pytest.raises(TypeError):
            a.values[1] = False

    def test_pickles_and_copies(self):
        import copy
        import pickle

        a = Assignment({1: True, 2: False})
        assert pickle.loads(pickle.dumps(a)) == a
        assert copy.deepcopy(a) == a
