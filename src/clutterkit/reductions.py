"""Set Cover and SAT solved by reading answers off the blocker.

A covering instance maps to a clutter by transposing incidence: one edge
per universe element, listing the sets that cover it.  Minimal covers are
then exactly the blocker sets, so any monotone objective is minimized by
scanning them.  A CNF formula maps to a clutter with one vertex per
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

from .blocker import DEFAULT_EDGE_BUDGET, blocker, first_consistent_transversal
from .core import Clutter, _Value
from .errors import InfeasibleInstanceError

if TYPE_CHECKING:
    from fractions import Fraction


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
        if universe_size < 0:
            raise ValueError("universe size must be non-negative")
        sets = tuple(frozenset(s) for s in sets)
        for s in sets:
            for u in s:
                if not isinstance(u, int) or not 1 <= u <= universe_size:
                    raise ValueError(f"element {u!r} outside universe 1..{universe_size}")
        if weights is not None:
            from fractions import Fraction

            weights = tuple(Fraction(w) for w in weights)
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
        if num_vars < 0:
            raise ValueError("variable count must be non-negative")
        clauses = tuple(tuple(c) for c in clauses)
        for clause in clauses:
            if not clause:
                raise ValueError("clauses must be non-empty")
            for lit in clause:
                if not isinstance(lit, int) or lit == 0 or abs(lit) > num_vars:
                    raise ValueError(f"literal {lit!r} outside variables 1..{num_vars}")
        super().__init__(num_vars, clauses)


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
    for clause in formula.clauses:
        if not any(
            assignment.values[abs(lit)] == (lit > 0) for lit in clause
        ):
            return False
    return True


def setcover_to_clutter(inst: SetCoverInstance) -> Clutter:
    """Incidence transpose: one edge per element over set-index vertices.

    Raises InfeasibleInstanceError when some element is uncovered (an
    empty edge would conflate infeasibility with the ONE clutter).
    """
    rows = []
    for u in range(1, inst.universe_size + 1):
        row = [i for i, s in enumerate(inst.sets) if u in s]
        if not row:
            raise InfeasibleInstanceError(f"element {u} is not covered by any set")
        rows.append(row)
    return Clutter(rows)


def solve_setcover(
    inst: SetCoverInstance,
    objective: str = "cardinality",
    *,
    oracle: MonotoneOracle | Callable[[frozenset], object] | None = None,
    edge_budget: int = DEFAULT_EDGE_BUDGET,
):
    """Minimum cover under a monotone objective, by blocker scan.

    objective is one of "cardinality", "weighted" (requires instance
    weights) or "oracle" (requires an oracle over name sets); an oracle
    passed with another objective is a ValueError.  Because
    every objective here is monotone, the optimum over all covers is
    attained at a minimal cover, i.e. at a blocker set.  Returns
    (sorted tuple of set names, cost); ties go to the canonically first
    blocker set.  The oracle is called once per distinct name set.
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

    covers = blocker(setcover_to_clutter(inst), edge_budget=edge_budget).edges
    if objective == "cardinality":
        costs = [len(t) for t in covers]
    elif objective == "weighted":
        from fractions import Fraction
        from math import lcm

        # exact integer sums: every weight times the lcm of the denominators
        scale = lcm(*(w.denominator for w in inst.weights))
        scaled = [int(w * scale) for w in inst.weights]
        costs = [sum([scaled[i] for i in t]) for t in covers]
    else:
        name_sets = [frozenset(inst.name_of(i) for i in t) for t in covers]
        oracle.spot_check(name_sets, random.Random(0))
        costs = [oracle(names) for names in name_sets]
    # every element is covered, so covers holds at least one set; min keeps
    # the first of equal costs
    best = min(range(len(covers)), key=costs.__getitem__)
    cost = Fraction(costs[best], scale) if objective == "weighted" else costs[best]
    return tuple(sorted(inst.name_of(i) for i in covers[best])), cost


def _literal_vertex(lit: int) -> int:
    return 2 * lit if lit > 0 else 2 * (-lit) + 1


def cnf_to_clutter(formula: CnfFormula) -> Clutter:
    """One edge per clause over literal vertices (2i for x_i, 2i+1 for
    its negation).  Subsumed clauses vanish, which is sound for
    satisfiability since a subset clause is logically stronger."""
    return Clutter(
        [_literal_vertex(lit) for lit in clause] for clause in formula.clauses
    )


def solve_sat(
    formula: CnfFormula, *, edge_budget: int = DEFAULT_EDGE_BUDGET
) -> Assignment | None:
    """A satisfying assignment read from the blocker, or None if there is
    no consistent blocker set.

    A blocker set touching no complementary pair extends to a full
    assignment; variables it leaves unconstrained default to false.  The
    answer is the canonically first consistent blocker set, which
    first_consistent_transversal picks off the fold's bitmasks in the
    blocker module; this function sees only its vertices.  The fold drops
    every set holding a complementary pair as soon as it is built, so
    edge_budget caps the consistent family.  The returned assignment is
    re-checked against the formula before return.
    """
    first = first_consistent_transversal(cnf_to_clutter(formula), edge_budget=edge_budget)
    if first is None:
        return None
    chosen = set(first)
    assignment = Assignment({i: (2 * i in chosen) for i in range(1, formula.num_vars + 1)})
    if not satisfies(formula, assignment):
        raise RuntimeError("internal error: blocker scan produced a falsifying assignment")
    return assignment
