"""The contract every value type shares through the one immutable base."""
import copy
import pickle
from fractions import Fraction

from decimal import Decimal

import pytest

from clutterkit import (
    Assignment,
    BoundParams,
    BoundReport,
    Clutter,
    CnfFormula,
    ConflictGraph,
    LawResult,
    MinorWitness,
    MonotoneOracle,
    ONE,
    SemiMatching,
    SetCoverInstance,
    ZERO,
    blocker,
    maximal_independent_sets,
    class_membership,
    enumerate_semi_matchings,
    extract_minor_matching,
    find_kk2_minor,
    kk2,
    random_clutter,
    run_law_suite,
    solve_sat,
    solve_setcover,
    staircase,
    verify_bound,
)

# class, keyword arguments in constructor order, and the repr they give
CASES = [
    (Clutter, {"edges": ((3,), (1, 2))},
     "Clutter(edges=((3,), (1, 2)))"),
    (SemiMatching, {"pairs": (((1, 2), (1, 2, 3)),)},
     "SemiMatching(pairs=(((1, 2), (1, 2, 3)),))"),
    (BoundParams, {"edge_count": 3, "r": 2, "k": 1},
     "BoundParams(edge_count=3, r=2, k=1)"),
    (BoundReport, {"params": BoundParams(3, 2, 1), "bound": 7,
                   "observed_blocker_size": 4, "within_bound": True},
     "BoundReport(params=BoundParams(edge_count=3, r=2, k=1), bound=7, "
     "observed_blocker_size=4, within_bound=True)"),
    (LawResult, {"name": "law", "ok": False, "samples": 5, "detail": "f=ONE"},
     "LawResult(name='law', ok=False, samples=5, detail='f=ONE')"),
    (ConflictGraph, {"n": 3, "edges": ((0, 1), (1, 2))},
     "ConflictGraph(n=3, edges=((0, 1), (1, 2)))"),
    (MinorWitness, {"delete": (5,), "contract": (3,), "matching": ((1, 2),)},
     "MinorWitness(delete=(5,), contract=(3,), matching=((1, 2),))"),
    (SetCoverInstance, {"universe_size": 2, "sets": (frozenset({1}), frozenset({1, 2})),
                        "weights": (Fraction(1), Fraction(1, 2)), "names": ("a", "b")},
     "SetCoverInstance(universe_size=2, sets=(frozenset({1}), frozenset({1, 2})), "
     "weights=(Fraction(1, 1), Fraction(1, 2)), names=('a', 'b'))"),
    (MonotoneOracle, {"evaluate": len},
     "MonotoneOracle(evaluate=<built-in function len>)"),
    (CnfFormula, {"num_vars": 2, "clauses": ((1, -2),)},
     "CnfFormula(num_vars=2, clauses=((1, -2),))"),
    (Assignment, {"values": {1: True, 2: False}},
     "Assignment(values=mappingproxy({1: True, 2: False}))"),
]

# keyword arguments each validating constructor, or function, rejects
REJECTED = [
    (Clutter, {"edges": ((-1,),)}),
    (SemiMatching, {"pairs": (((1, 9), (1, 2)),)}),
    (BoundParams, {"edge_count": 3, "r": 1, "k": 1}),
    (ConflictGraph, {"n": 2, "edges": ((0, 2),)}),
    (SetCoverInstance, {"universe_size": 2, "sets": (frozenset({3}),)}),
    (CnfFormula, {"num_vars": 1, "clauses": ((2,),)}),
    # elements are checked as given, before a frozenset folds True into 1
    (SetCoverInstance, {"universe_size": 2, "sets": ([1, True], [2])}),
    (SetCoverInstance, {"universe_size": 2, "sets": ({True}, {2})}),
    # counts are ints, not floats or bools
    (CnfFormula, {"num_vars": 2.5, "clauses": ((1,),)}),
    (CnfFormula, {"num_vars": True, "clauses": ((1,),)}),
    (SetCoverInstance, {"universe_size": 2.5, "sets": ({1},)}),
    (SetCoverInstance, {"universe_size": True, "sets": ({1},)}),
    (BoundParams, {"edge_count": 3, "r": 2.5, "k": 1}),
    (BoundParams, {"edge_count": True, "r": 2, "k": 1}),
    (BoundParams, {"edge_count": 3, "r": 2, "k": True}),
    (ConflictGraph, {"n": 2.5, "edges": ()}),
    (ConflictGraph, {"n": True, "edges": ()}),
    # weights are numbers, not bools
    (SetCoverInstance, {"universe_size": 1, "sets": ({1},), "weights": (True,)}),
    (SetCoverInstance, {"universe_size": 2, "sets": ({1}, {2}), "weights": (1, False)}),
    # matching sizes and rank bounds are ints, not fractions or bools
    (find_kk2_minor, {"h": staircase(4), "k": 1.5}),
    (find_kk2_minor, {"h": staircase(4), "k": True}),
    (class_membership, {"h": staircase(4), "r": 5, "k": 1.5}),
    (class_membership, {"h": staircase(4), "r": 5, "k": True}),
    (class_membership, {"h": staircase(4), "r": 5.5, "k": 1}),
    (class_membership, {"h": staircase(4), "r": True, "k": 1}),
    (verify_bound, {"h": staircase(4), "k": 1.5}),
    (verify_bound, {"h": staircase(4), "k": True}),
    # a library weight is read like a file weight: no exponent past 4300
    (SetCoverInstance, {"universe_size": 1, "sets": ({1},), "weights": ("1e1000000",)}),
    (SetCoverInstance, {"universe_size": 1, "sets": ({1},), "weights": (Decimal("1e1000000"),)}),
    # generator and law-suite counts are ints, not fractions or bools
    (kk2, {"k": 2.5}),
    (kk2, {"k": True}),
    (staircase, {"n": 2.5}),
    (staircase, {"n": True}),
    (random_clutter, {"n": 10.5, "m": 3, "r": 2, "seed": 0}),
    (random_clutter, {"n": True, "m": 1, "r": 1, "seed": 0}),
    (run_law_suite, {"samples": 2.5}),
    (run_law_suite, {"samples": True}),
    # semi-matching labels are checked as given, as Clutter() checks them:
    # none of these formats to text that parse_semi_matching reads back
    (SemiMatching, {"pairs": (((True, 2), (True, 2, 3)),)}),
    (SemiMatching, {"pairs": (((1, 2), (1, 2, 3.0)),)}),
    (SemiMatching, {"pairs": (((1.0, 2), (1, 2)),)}),
    (SemiMatching, {"pairs": ((("a", 2), ("a", 2)),)}),
    (SemiMatching, {"pairs": (((-1, 2), (-1, 2, 3)),)}),
    # conflict-graph endpoints are ints, not bools
    (ConflictGraph, {"n": 2, "edges": ((True, 0),)}),
    (ConflictGraph, {"n": 2, "edges": ((0, 1.0),)}),
]

# every budget of the library, with the other arguments of a call; rank 3
# is past class_membership's r, so it must check its budget up front
BUDGETS = [
    (blocker, {"h": kk2(2)}, "edge_budget"),
    (maximal_independent_sets, {"h": kk2(2)}, "edge_budget"),
    (find_kk2_minor, {"h": kk2(2), "k": 2}, "node_budget"),
    (enumerate_semi_matchings, {"h": kk2(2)}, "budget"),
    (class_membership, {"h": staircase(2), "r": 2, "k": 2}, "node_budget"),
    (verify_bound, {"h": kk2(2), "k": 2}, "edge_budget"),
    (verify_bound, {"h": kk2(2), "k": 2}, "node_budget"),
    (solve_setcover, {"inst": SetCoverInstance(1, ({1},))}, "edge_budget"),
    (solve_sat, {"formula": CnfFormula(1, ((1,),))}, "edge_budget"),
]


@pytest.mark.parametrize("value", [-1, True, 2.5, "9", None])
@pytest.mark.parametrize("func, kwargs, name", BUDGETS,
                         ids=[f"{func.__name__}-{name}" for func, _, name in BUDGETS])
def test_budgets_are_non_negative_ints(func, kwargs, name, value):
    with pytest.raises(ValueError, match="budget must be (an integer|non-negative)"):
        func(**kwargs, **{name: value})


cases = pytest.mark.parametrize("cls, kwargs", [case[:2] for case in CASES],
                                ids=[cls.__name__ for cls, *_ in CASES])


@cases
def test_keyword_construction(cls, kwargs):
    v = cls(**kwargs)
    assert cls.__slots__ == tuple(kwargs)
    assert v == cls(*kwargs.values())
    for name, value in kwargs.items():
        assert getattr(v, name) == value


@pytest.mark.parametrize("cls, kwargs", REJECTED, ids=[cls.__name__ for cls, _ in REJECTED])
def test_validation(cls, kwargs):
    with pytest.raises(ValueError):
        cls(**kwargs)


@cases
def test_immutable(cls, kwargs):
    v = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(v, name, None)
        with pytest.raises(AttributeError):
            delattr(v, name)
    with pytest.raises(AttributeError):
        v.extra = 1
    assert not hasattr(v, "__dict__")
    assert v == cls(**kwargs)


@cases
def test_equality_and_hash(cls, kwargs):
    v, w = cls(**kwargs), cls(**kwargs)
    assert v == w and not v != w
    assert v != tuple(kwargs.values())
    if cls is Assignment:  # its mapping proxy is unhashable
        with pytest.raises(TypeError):
            hash(v)
    else:
        assert hash(v) == hash(w)


@cases
def test_pickle_and_deepcopy_round_trip(cls, kwargs):
    v = cls(**kwargs)
    for clone in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
        assert type(clone) is cls
        assert clone == v


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=[cls.__name__ for cls, *_ in CASES])
def test_repr_names_every_field(cls, kwargs, text):
    assert repr(cls(**kwargs)) == text


def _wrapped_values():
    """Values that the library builds without their constructor: the
    unchecked wrappers of SemiMatching and Clutter, and a witness built
    from a wrapped matching."""
    tri = Clutter([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    stair = staircase(4)
    return {
        "enumerate_semi_matchings": enumerate_semi_matchings(stair)
        + enumerate_semi_matchings(tri),
        "find_kk2_minor": [find_kk2_minor(h, k) for h, k in
                           ((tri, 2), (tri, 3), (kk2(3), 2), (Clutter([[1, 2]]), 1),
                            (stair, 0))],
        "extract_minor_matching": [extract_minor_matching(h, m) for h in (stair, tri)
                                   for m in enumerate_semi_matchings(h)],
        "blocker": [blocker(h) for h in (stair, tri, kk2(3), ONE, ZERO)],
        # deletions, and contractions of vertices no surviving edge holds,
        # keep the survivors as they are
        "restrict": [h.restrict(d, c) for h in (stair, tri)
                     for d, c in (((0,), ()), ((1,), (0,)), ((), ()), ((0, 1), (99,)))],
    }


@pytest.mark.parametrize("source", list(_wrapped_values()))
def test_wrapped_values_behave_like_constructed_ones(source):
    values = _wrapped_values()[source]
    assert values and all(v is not None for v in values)
    for v in values:
        cls = type(v)
        rebuilt = cls(*(getattr(v, name) for name in cls.__slots__))
        assert v == rebuilt and hash(v) == hash(rebuilt) and repr(v) == repr(rebuilt)
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)
        with pytest.raises(AttributeError):
            v.extra = 1
        assert not hasattr(v, "__dict__")
        for clone in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
            assert type(clone) is cls
            assert clone == v and hash(clone) == hash(v)


def test_values_of_different_types_differ():
    assert BoundParams(3, 2, 1) != MinorWitness(3, 2, 1)
    assert Clutter([[1, 2]]) != SemiMatching([((1, 2), (1, 2))])
