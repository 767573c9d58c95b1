"""Set Cover and SAT solved by reading answers off the blocker.

A covering instance maps to a clutter by transposing incidence: one edge
per universe element, listing the sets that cover it.  Minimal covers are
then exactly the blocker sets, so any monotone objective is minimized at
one of them.  A CNF formula maps to a clutter with one vertex per
literal and one edge per clause; the formula is satisfiable exactly when
some blocker set avoids every complementary literal pair, that is, when
the Berge fold that drops each set holding such a pair ends non-empty.
"""
from __future__ import annotations

import functools
import random
import warnings
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .blocker import DEFAULT_EDGE_BUDGET, blocker, cheapest_transversal
from .core import _REREADABLE, Clutter, _Value, _check_count, _check_int
from .errors import InfeasibleInstanceError, ParseError

if TYPE_CHECKING:
    from fractions import Fraction


def _rational(token: str, lineno: int | None) -> Fraction:
    """The token as a Fraction, or a ParseError on the line for anything
    Fraction refuses, a zero denominator included, and for an exponent past
    4300 in magnitude."""
    from fractions import Fraction

    try:
        # Fraction expands an exponent as 10 ** exp, whose cost grows with
        # exp; 4300 is the number of digits int() accepts
        if abs(int(token.lower().partition("e")[2] or 0)) <= 4300:
            return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{token!r} is not a rational", lineno)
    raise ParseError(f"the exponent of {token!r} is past 4300 in magnitude", lineno)


class SetCoverInstance(_Value):
    """Universe {1..n} plus a family of subsets, optionally weighted/named."""

    __slots__ = ("universe_size", "sets", "weights", "names")

    universe_size: int
    sets: tuple[frozenset[int], ...]
    weights: tuple[Fraction, ...] | None
    names: tuple[str, ...] | None

    def __init__(
        self,
        universe_size: int,
        sets: tuple[frozenset[int], ...],
        weights: tuple[Fraction, ...] | None = None,
        names: tuple[str, ...] | None = None,
    ):
        _check_count(universe_size, "universe size")
        # each element is checked as given: in a frozenset, True would
        # already have collapsed into 1
        sets = [s if s.__class__ in _REREADABLE else tuple(s) for s in sets]
        for s in sets:
            for u in s:
                _check_int(u, "element")
                if not 1 <= u <= universe_size:
                    raise ValueError(f"element {u!r} outside universe 1..{universe_size}")
        sets = tuple(map(frozenset, sets))
        if weights is not None:
            import math
            from fractions import Fraction

            exact = []
            for w in weights:
                # True would pass as Fraction(1), as it would pass as an element
                if isinstance(w, bool):
                    raise ValueError(f"weights must be numbers, got {w!r}")
                # a float is taken at its exact value, which inf and nan lack
                if isinstance(w, float) and not math.isfinite(w):
                    raise ValueError(f"weights must be finite, got {w!r}")
                # any other weight, a str or a Decimal say, is read from its
                # str() as a file weight is, under the same exponent guard
                exact.append(Fraction(w) if isinstance(w, (int, float, Fraction))
                             else _rational(str(w), None))
            weights = tuple(exact)
            if len(weights) != len(sets):
                raise ValueError("one weight per set is required")
            if any(w < 0 for w in weights):
                raise ValueError("weights must be non-negative")
        if names is not None:
            names = tuple(str(n) for n in names)
            if len(names) != len(sets):
                raise ValueError("one name per set is required")
        super().__init__(universe_size, sets, weights, names)

    def name_of(self, i: int):
        return self.names[i] if self.names is not None else i


class MonotoneOracle(_Value):
    """Caller-supplied cost on families of set names; assumed monotone.

    Monotonicity cannot be certified efficiently, so spot_check samples a
    few pairs and warns (never fails) on a violation.
    """

    __slots__ = ("evaluate",)

    evaluate: Callable[[frozenset], object]

    def __init__(self, evaluate: Callable[[frozenset], object]):
        super().__init__(evaluate)

    def __call__(self, names: frozenset):
        return self.evaluate(names)

    def spot_check(self, samples: Sequence[frozenset], rng: random.Random, rounds: int = 5):
        pool = list(samples)
        if len(pool) < 2:
            return
        for _ in range(rounds):
            a, b = rng.sample(pool, 2)
            if self(a) > self(a | b):
                warnings.warn("oracle violated monotonicity on a sampled pair")
                return


class CnfFormula(_Value):
    """CNF with DIMACS literal conventions (positive/negative var indices)."""

    __slots__ = ("num_vars", "clauses")

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __init__(self, num_vars: int, clauses: tuple[tuple[int, ...], ...]):
        _check_count(num_vars, "variable count")
        clauses = tuple(tuple(c) for c in clauses)
        for clause in clauses:
            if not clause:
                raise ValueError("clauses must be non-empty")
            for lit in clause:
                # exact ints skip the isinstance tests; bool is an int
                # subclass, but True is no DIMACS literal
                if lit.__class__ is not int and (isinstance(lit, bool) or not isinstance(lit, int)):
                    raise ValueError(f"literals must be integers, got {lit!r}")
                if lit == 0 or abs(lit) > num_vars:
                    raise ValueError(f"literal {lit!r} outside variables 1..{num_vars}")
        super().__init__(num_vars, clauses)

    @classmethod
    def _unchecked(cls, num_vars: int, clauses: tuple[tuple[int, ...], ...]) -> "CnfFormula":
        """Wrap a non-negative variable count and a tuple of non-empty
        tuples of exact non-zero ints within +-num_vars; neither is checked.
        The caller is parse_dimacs's one-pass read, which takes only such
        literals."""
        f = object.__new__(cls)
        _Value.__init__(f, num_vars, clauses)
        return f


class Assignment(_Value):
    """Total truth assignment on variables 1..n."""

    __slots__ = ("values",)

    values: Mapping[int, bool]

    def __init__(self, values: Mapping[int, bool]):
        super().__init__(MappingProxyType(dict(values)))

    def __reduce__(self):
        # a mapping proxy cannot be pickled or deep-copied; its dict can
        return Assignment, (dict(self.values),)

    def __getitem__(self, var: int) -> bool:
        return self.values[var]

    def as_literals(self) -> tuple[int, ...]:
        return tuple(v if self.values[v] else -v for v in sorted(self.values))


def satisfies(formula: CnfFormula, assignment: Assignment) -> bool:
    """Whether the assignment makes every clause true.

    Raises ValueError, naming the least missing variable, when the
    assignment leaves out any of 1..num_vars.
    """
    values = assignment.values
    true_literals = set()
    for v in range(1, formula.num_vars + 1):
        if v not in values:
            raise ValueError(f"assignment has no value for variable {v}")
        # compared by ==, so 1 and 0 are true and false as True and False are
        value = values[v]
        if value == True:
            true_literals.add(v)
        if value == False:
            true_literals.add(-v)
    return not any(map(true_literals.isdisjoint, formula.clauses))


def setcover_to_clutter(inst: SetCoverInstance) -> Clutter:
    """Incidence transpose: one edge per element over set-index vertices.

    Raises InfeasibleInstanceError when some element is uncovered (an
    empty edge would conflate infeasibility with the ONE clutter).
    """
    rows: list[list[int]] = [[] for _ in range(inst.universe_size)]
    for i, s in enumerate(inst.sets):
        for u in s:
            rows[u - 1].append(i)
    if [] in rows:
        raise InfeasibleInstanceError(f"element {rows.index([]) + 1} is not covered by any set")
    return Clutter._minimalized(rows)


def solve_setcover(
    inst: SetCoverInstance,
    objective: str = "cardinality",
    *,
    oracle: MonotoneOracle | Callable[[frozenset], object] | None = None,
    edge_budget: int = DEFAULT_EDGE_BUDGET,
):
    """Minimum cover under a monotone objective, read off the blocker.

    objective is one of "cardinality", "weighted" (requires instance
    weights) or "oracle" (requires an oracle over name sets); an oracle
    passed with another objective is a ValueError.  Because
    every objective here is monotone, the optimum over all covers is
    attained at a minimal cover, i.e. at a blocker set.  Returns
    (sorted tuple of set names, cost); ties go to the canonically first
    blocker set.  cheapest_transversal picks the cardinality and weighted
    answers in the blocker module, with the weights scaled to ints, and
    decodes only that one set; the oracle objective scans every blocker
    set and calls the oracle once per distinct name set.
    """
    if objective not in ("cardinality", "weighted", "oracle"):
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "weighted" and inst.weights is None:
        raise ValueError("weighted objective requires instance weights")
    if objective == "oracle":
        if oracle is None:
            raise ValueError("oracle objective requires an oracle")
        # one evaluation per distinct name set, shared by spot_check and the scan
        oracle = MonotoneOracle(functools.cache(oracle))
    elif oracle is not None:
        raise ValueError(f"the {objective} objective takes no oracle")

    h = setcover_to_clutter(inst)
    if objective == "cardinality":
        cover = cheapest_transversal(h, edge_budget=edge_budget)
        cost = len(cover)
    elif objective == "weighted":
        from fractions import Fraction
        from math import lcm

        # exact integer sums: every weight times the lcm of the denominators
        scale = lcm(*(w.denominator for w in inst.weights))
        scaled = [w.numerator * (scale // w.denominator) for w in inst.weights]
        cover = cheapest_transversal(h, scaled, edge_budget=edge_budget)
        cost = Fraction(sum([scaled[i] for i in cover]), scale)
    else:
        covers = blocker(h, edge_budget=edge_budget).edges
        name_sets = [frozenset(inst.name_of(i) for i in t) for t in covers]
        oracle.spot_check(name_sets, random.Random(0))
        costs = [oracle(names) for names in name_sets]
        # min keeps the first of equal costs
        best = min(range(len(covers)), key=costs.__getitem__)
        cover, cost = covers[best], costs[best]
    # every element is covered, so some cover exists
    return tuple(sorted(inst.name_of(i) for i in cover)), cost


def cnf_to_clutter(formula: CnfFormula) -> Clutter:
    """One edge per clause over literal vertices (2i for x_i, 2i+1 for
    its negation).  Subsumed clauses vanish, which is sound for
    satisfiability since a subset clause is logically stronger."""
    return Clutter._minimalized(
        [2 * lit if lit > 0 else 1 - 2 * lit for lit in clause] for clause in formula.clauses
    )


def solve_sat(
    formula: CnfFormula, *, edge_budget: int = DEFAULT_EDGE_BUDGET
) -> Assignment | None:
    """A satisfying assignment read from the blocker, or None if there is
    no consistent blocker set.

    A blocker set touching no complementary pair extends to a full
    assignment; variables it leaves unconstrained default to false.  The
    answer is the canonically first consistent blocker set, which
    cheapest_transversal, with literals and no weights, picks in the
    blocker module; this function sees only its vertices.  The fold drops
    every set holding a complementary pair as soon as it is built, so
    edge_budget caps the consistent family.  The returned assignment is
    re-checked against the formula before return.
    """
    first = cheapest_transversal(cnf_to_clutter(formula), literals=True, edge_budget=edge_budget)
    if first is None:
        return None
    chosen = set(first)
    assignment = Assignment({i: (2 * i in chosen) for i in range(1, formula.num_vars + 1)})
    if not satisfies(formula, assignment):
        raise RuntimeError("internal error: blocker scan produced a falsifying assignment")
    return assignment
