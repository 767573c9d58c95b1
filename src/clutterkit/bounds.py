"""Blocker-size bound for matching-minor-free clutters of bounded rank.

For a clutter with no matching minor of k+1 pairs and rank r >= 2, the
number of minimal transversals is at most

    sum over m = 0 .. k * (2r-3) * 2^(r-2)  of  C(|H|, m) * C(r, 2)^m

with equality for the matching clutter of k disjoint pairs.  Clutters of
rank below two are outside the formula (their blockers have at most one
set) and are rejected with a domain error.
"""
from __future__ import annotations

from math import comb

from .blocker import DEFAULT_EDGE_BUDGET, blocker
from .core import Clutter, _Value, _check_count, _check_int
from .errors import NotInClassError
from .matching import DEFAULT_NODE_BUDGET, find_kk2_minor


class BoundParams(_Value):
    """Parameters of the bound: edge count, rank bound r, matching bound k."""

    __slots__ = ("edge_count", "r", "k")

    edge_count: int
    r: int
    k: int

    def __init__(self, edge_count: int, r: int, k: int):
        _check_count(edge_count, "edge count")
        _check_int(r, "rank bound")
        _check_count(k, "matching bound")
        if r < 2:
            raise ValueError("the bound is only defined for rank at least 2")
        super().__init__(edge_count, r, k)


class BoundReport(_Value):
    __slots__ = ("params", "bound", "observed_blocker_size", "within_bound")

    params: BoundParams
    bound: int
    observed_blocker_size: int | None
    within_bound: bool | None

    def __init__(
        self,
        params: BoundParams,
        bound: int,
        observed_blocker_size: int | None = None,
        within_bound: bool | None = None,
    ):
        super().__init__(params, bound, observed_blocker_size, within_bound)

    def as_dict(self) -> dict:
        out = {
            "edges": self.params.edge_count,
            "r": self.params.r,
            "k": self.params.k,
            "bound": self.bound,
        }
        if self.observed_blocker_size is not None:
            out["observed"] = self.observed_blocker_size
            out["within"] = self.within_bound
        return out


def blocker_size_bound(params: BoundParams) -> int:
    """Exact value of the bound; arbitrary precision.

    Binomial terms with m beyond the edge count are zero, so the sum stops
    at the smaller of the exponent cap and the edge count.  Each term is
    built from the last, C(E, m + 1) = C(E, m) * (E - m) / (m + 1), which
    divides exactly before the factor C(r, 2) joins.
    """
    e = params.edge_count
    limit = min(params.k * (2 * params.r - 3) * 2 ** (params.r - 2), e)
    per_edge = comb(params.r, 2)
    term = total = 1
    for m in range(limit):
        term = term * (e - m) // (m + 1) * per_edge
        total += term
    return total


def class_membership(
    h: Clutter, r: int, k: int, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> bool:
    """True iff h has rank at most r and no matching minor of k pairs.

    An r, k or node_budget that is not a non-negative int raises
    ValueError whatever the rank of h.
    """
    _check_count(r, "rank bound")
    _check_count(k, "matching size")
    _check_count(node_budget, "node budget")
    if h.is_zero:
        raise ValueError("class membership is undefined for the edgeless clutter")
    if h.rank() > r:
        return False
    return find_kk2_minor(h, k, node_budget=node_budget) is None


def verify_bound(
    h: Clutter,
    k: int,
    *,
    edge_budget: int = DEFAULT_EDGE_BUDGET,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> BoundReport:
    """Evaluate the bound at (|H|, rank, k) and compare with the actual
    blocker size.

    Requires h to have no matching minor of k+1 pairs (checked; raises
    NotInClassError otherwise) and rank at least 2; a k or budget that is
    not a non-negative int raises ValueError.  A report with within_bound
    false would indicate an implementation bug.
    """
    _check_count(k, "matching bound")
    _check_count(edge_budget, "edge budget")
    _check_count(node_budget, "node budget")
    if h.is_zero:
        raise ValueError("the bound is undefined for the edgeless clutter")
    witness = find_kk2_minor(h, k + 1, node_budget=node_budget)
    if witness is not None:
        raise NotInClassError(
            f"clutter has a matching minor of {k + 1} pairs; the bound does not apply"
        )
    params = BoundParams(len(h), h.rank(), k)
    bound = blocker_size_bound(params)
    observed = len(blocker(h, edge_budget=edge_budget))
    return BoundReport(params, bound, observed, observed <= bound)
