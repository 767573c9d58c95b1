"""Semi-matchings, expanded minor matchings, and pair-matching minors.

A semi-matching of a clutter is a list of pairs (L, S) where every L is a
two-vertex set inside its host edge S.  Writing L_i, S_i for the pairs,
the conditions are:

  1.  |L_i| = 2, L_i is a subset of S_i, and S_i is an edge of the clutter;
  2.  the L_i are pairwise disjoint;
  3a. L_i is not a subset of S_j for i != j;
  3b. L_i does not meet S_j for i != j;
  4.  every edge contained in the union of the S_i has some L_i as a subset.

Pairs satisfying 1, 2, 3a and 4 form a semi-matching; adding 3b makes an
expanded minor matching, which certifies that the L_i survive as a
pairwise-disjoint matching after deleting everything outside the union
of the S_i and contracting the rest of that union down to the L_i.

Condition 4 can be restated through the expansion operator: the pairs
satisfy it exactly when expanding the clutter along the L_i over the
union of the S_i does not collapse to ONE.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Iterator

from .core import Clutter, Edge, ZERO, _Value
from .errors import ResourceLimitError

DEFAULT_CHOICE_BUDGET = 2**20
DEFAULT_NODE_BUDGET = 10**6

Pair = tuple[Edge, Edge]


class SemiMatching(_Value):
    """Ordered pairs (L, S), canonically sorted by the smallest vertex of L.

    Structural invariants (each L has two vertices inside its S; the L are
    pairwise disjoint) are enforced on construction.  Validity against a
    host clutter is checked by is_semi_matching, not stored.
    """

    __slots__ = ("pairs",)

    pairs: tuple[Pair, ...]

    def __init__(self, pairs: Iterable[Iterable[Iterable[int]]] = ()):
        canon: list[Pair] = []
        for pair in pairs:
            left, host = pair
            l = tuple(sorted(set(left)))
            s = tuple(sorted(set(host)))
            if len(l) != 2:
                raise ValueError(f"pair set must have exactly two vertices, got {l}")
            if not set(l) <= set(s):
                raise ValueError(f"pair set {l} must lie inside its host set {s}")
            canon.append((l, s))
        canon.sort(key=lambda p: (p[0][0], p[0], p[1]))
        if len({v for l, _ in canon for v in l}) != 2 * len(canon):
            raise ValueError("pair sets must be pairwise disjoint")
        object.__setattr__(self, "pairs", tuple(canon))

    @classmethod
    def _from_canonical(cls, pairs: tuple[Pair, ...]) -> "SemiMatching":
        """Wrap sorted-tuple pairs already in canonical order that meet the
        structural invariants."""
        m = cls.__new__(cls)
        object.__setattr__(m, "pairs", pairs)
        return m

    @property
    def blocks(self) -> tuple[Edge, ...]:
        """The two-vertex sets, in pair order."""
        return tuple(l for l, _ in self.pairs)

    @property
    def hosts(self) -> tuple[Edge, ...]:
        """The host edges, in pair order."""
        return tuple(s for _, s in self.pairs)

    @property
    def support(self) -> Edge:
        """Sorted union of the host edges."""
        return tuple(sorted(set().union(*self.hosts)))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SemiMatching):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"SemiMatching({[(list(l), list(s)) for l, s in self.pairs]})"


@dataclass(frozen=True)
class ConflictGraph:
    """Conflicts between matching pairs: i ~ j when one host meets the
    other pair's two-vertex set in exactly one vertex."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def neighbor_map(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {i: set() for i in range(self.n)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


@dataclass(frozen=True)
class MinorWitness:
    """A (delete, contract) certificate that the named pairs survive as a
    matching minor."""

    delete: Edge
    contract: Edge
    matching: tuple[Edge, ...]

    def verify(self, h: Clutter) -> bool:
        if set(self.delete) & set(self.contract):
            return False
        minor = h.restrict(self.delete, self.contract)
        return minor == Clutter(self.matching) and is_k_matching(minor, len(self.matching))


def expansion(
    h: Clutter,
    blocks: Iterable[Iterable[int]],
    carrier: Iterable[int],
    *,
    choice_budget: int = DEFAULT_CHOICE_BUDGET,
) -> Clutter:
    """Join, over every way of choosing one vertex from each block, of the
    minor that deletes the chosen image and contracts the rest of the
    carrier.

    Blocks must be pairwise disjoint subsets of the carrier.  The number
    of choice functions is the product of the block sizes; beyond
    choice_budget a ResourceLimitError is raised.
    """
    blks = [tuple(sorted(set(b))) for b in blocks]
    carrier_set = frozenset(carrier)
    seen: set[int] = set()
    for b in blks:
        if not seen.isdisjoint(b):
            raise ValueError("expansion blocks must be pairwise disjoint")
        if not carrier_set.issuperset(b):
            raise ValueError("expansion blocks must lie inside the carrier")
        seen.update(b)
    count = math.prod(len(b) for b in blks)
    if count > choice_budget:
        raise ResourceLimitError(
            f"expansion would iterate {count} choice functions (budget {choice_budget})"
        )
    out = ZERO
    for choice in itertools.product(*blks):
        image = frozenset(choice)
        out = out.join(h.restrict(image, carrier_set - image))
    return out


def _condition4(edges, blocks, hosts) -> bool:
    """Condition 4: every edge inside the union of the hosts contains a pair set."""
    support = frozenset().union(*hosts)
    for e in edges:
        if support.issuperset(e) and not any(a in e and b in e for a, b in blocks):
            return False
    return True


def _condition3b(pairs: Iterable[Pair]) -> bool:
    """Condition 3b, given 1 and 2: each host meets the pair sets only in its own."""
    paired = {v for l, _ in pairs for v in l}
    return all(len(paired.intersection(s)) == 2 for _, s in pairs)


def is_semi_matching(h: Clutter, matching: SemiMatching) -> bool:
    """Check conditions 1, 2, 3a and 4 against h (2 holds structurally)."""
    prs = matching.pairs
    edge_index = set(h.edges)
    if any(s not in edge_index for _, s in prs):
        return False
    for i, (l, _) in enumerate(prs):
        for j, (_, s) in enumerate(prs):
            if i != j and l[0] in s and l[1] in s:
                return False
    return _condition4(h.edges, matching.blocks, matching.hosts)


def is_expanded_minor_matching(h: Clutter, matching: SemiMatching) -> bool:
    """A semi-matching whose two-vertex sets avoid all other hosts (3b)."""
    return is_semi_matching(h, matching) and _condition3b(matching.pairs)


def _search_pairs(
    h: Clutter, budget: int, stage: str, minor_size: int | None = None
) -> Iterator[tuple[Pair, ...]]:
    """Depth-first search for the semi-matchings of h, as tuples of pairs.

    The candidates are (L, S) for every two-vertex subset L of every edge
    S, in sorted order.  Each candidate holds a bitmask of the later
    candidates compatible with it: those that keep conditions 2 and 3a
    with it or, when minor_size is given, meet 3b both ways (L_i misses
    S_j and L_j misses S_i, which implies 2 and 3a).  A family grows only
    by candidates in the AND of its members' masks, taken in index order,
    so families are reached in depth-first preorder, which within one size
    is lexicographic.  Each family reached is yielded when it also
    satisfies condition 4.  With minor_size given, only the expanded minor
    matchings of that size are yielded and the search does not descend
    past them.

    `budget` counts search steps: one per candidate built, one per pair of
    candidates whose compatibility is settled, and one per family reached.
    Every step is charged before its work is done, so a clutter whose
    set-up alone is over budget trips before any candidate is built.  Past
    `budget` steps a ResourceLimitError naming the stage is raised.
    """
    edges = h.edges
    n = sum(len(e) * (len(e) - 1) // 2 for e in edges)
    used = n + n * (n - 1) // 2
    if used > budget:
        raise ResourceLimitError(f"{stage} exceeded budget of {budget} search steps")
    cand = sorted((l, e) for e in edges for l in itertools.combinations(e, 2))
    # bitmasks over candidate indices
    of_pair: dict[Edge, int] = {}  # two-vertex set -> candidates with that L
    in_l: dict[int, int] = {}  # vertex -> candidates whose L holds it
    in_s: dict[int, int] = {}  # vertex -> candidates whose S holds it
    for i, (l, e) in enumerate(cand):
        bit = 1 << i
        of_pair[l] = of_pair.get(l, 0) | bit
        for v in l:
            in_l[v] = in_l.get(v, 0) | bit
        for v in e:
            in_s[v] = in_s.get(v, 0) | bit
    if minor_size is None:
        # 2 and 3a fail when L_i meets L_j or either L lies inside the other's S
        inside = {e: reduce(or_, map(of_pair.get, itertools.combinations(e, 2)), 0)
                  for e in edges}
        clash = [in_l[a] | in_l[b] | (in_s[a] & in_s[b]) | inside[e] for (a, b), e in cand]
    else:
        # 3b fails when L_i meets S_j or L_j meets S_i
        meets = {e: reduce(or_, (in_l.get(v, 0) for v in e), 0) for e in edges}
        clash = [in_s[a] | in_s[b] | meets[e] for (a, b), e in cand]
    full = (1 << n) - 1
    later = [(full ^ c) >> (i + 1) << (i + 1) for i, c in enumerate(clash)]

    chosen: list[int] = []
    rest: list[int] = []  # rest[d]: untried children of the family chosen[:d]
    kids = full
    while True:
        used += 1
        if used > budget:
            raise ResourceLimitError(f"{stage} exceeded budget of {budget} search steps")
        at_size = len(chosen) == minor_size
        if minor_size is None or at_size:
            pairs = tuple(cand[i] for i in chosen)
            if _condition4(edges, [l for l, _ in pairs], [s for _, s in pairs]):
                yield pairs
            if at_size:
                kids = 0
        while not kids:
            if not chosen:
                return
            chosen.pop()
            kids = rest.pop()
        low = kids & -kids
        kids ^= low
        rest.append(kids)
        i = low.bit_length() - 1
        chosen.append(i)
        kids &= later[i]


def enumerate_semi_matchings(
    h: Clutter, *, budget: int = DEFAULT_NODE_BUDGET
) -> list[SemiMatching]:
    """Every semi-matching of h, in size-then-lex order.

    The empty matching is included whenever it qualifies (always, except
    when h has the empty edge).  Search is exponential.  `budget` counts
    search steps: one per (pair, host edge) candidate built, one per pair
    of candidates tested, and one per family reached.  Past it a
    ResourceLimitError is raised.
    """
    out = [SemiMatching._from_canonical(f)
           for f in _search_pairs(h, budget, "semi-matching enumeration")]
    out.sort(key=len)  # stable: preorder is already lexicographic within a size
    return out


def extend_semi_matching(
    matching: SemiMatching,
    h: Clutter,
    pair: Iterable[int],
    carrier: Iterable[int],
) -> SemiMatching:
    """Lift a semi-matching of expansion(h, [pair], carrier) back to h and
    append (pair, carrier).

    Every lifted host is the canonically first edge E of h with
    old_host <= E <= old_host | carrier and pair not inside E; this makes
    the lift deterministic and injective for a fixed (pair, carrier).
    """
    r = tuple(sorted(set(pair)))
    c = frozenset(carrier)
    if len(r) != 2:
        raise ValueError("the appended pair must have exactly two vertices")
    if not c.issuperset(r):
        raise ValueError("the appended pair must lie inside the carrier")
    if c not in h:
        raise ValueError("the carrier must be an edge of the host clutter")
    expanded = expansion(h, [r], c)
    if not is_semi_matching(expanded, matching):
        raise ValueError("input is not a semi-matching of the expanded clutter")
    new_pairs: list[tuple[Edge, Edge]] = []
    for l, s in matching.pairs:
        ss = frozenset(s)
        host = next(
            (e for e in h.edges
             if ss.issubset(e) and (ss | c).issuperset(e) and not (r[0] in e and r[1] in e)),
            None,
        )
        if host is None:
            raise ValueError(f"no eligible host edge for pair {l}; matching does not lift")
        new_pairs.append((l, host))
    new_pairs.append((r, tuple(sorted(c))))
    return SemiMatching(new_pairs)


def build_conflict_graph(matching: SemiMatching) -> ConflictGraph:
    """Graph on pair indices; assumes the matching satisfies 1, 2 and 3a.

    For hosts of size at most r the graph has at most (r-2) * n edges,
    since each host has at most r-2 vertices outside its own pair and the
    two-vertex sets are disjoint.
    """
    prs = matching.pairs
    lsets = [frozenset(l) for l, _ in prs]
    ssets = [frozenset(s) for _, s in prs]
    edges = []
    for i in range(len(prs)):
        for j in range(i + 1, len(prs)):
            if len(ssets[i] & lsets[j]) == 1 or len(ssets[j] & lsets[i]) == 1:
                edges.append((i, j))
    return ConflictGraph(len(prs), tuple(edges))


def greedy_independent_set(graph: ConflictGraph) -> tuple[int, ...]:
    """Min-degree greedy independent set.

    Repeatedly takes a surviving vertex of minimum remaining degree
    (smallest index on ties) and discards its neighbors, which yields at
    least ceil(n^2 / (2m + n)) vertices.
    """
    adj = graph.neighbor_map()
    alive = set(range(graph.n))
    chosen: list[int] = []
    while alive:
        v = min(alive, key=lambda u: (len(adj[u] & alive), u))
        chosen.append(v)
        alive.discard(v)
        alive -= adj[v]
    return tuple(sorted(chosen))


def extract_minor_matching(h: Clutter, matching: SemiMatching) -> SemiMatching:
    """Constructively thin a semi-matching down to an expanded minor
    matching of size at least ceil(n * 2^-(r-2) / (2r-3)), where n is the
    input size and r the rank of h.

    The construction takes a greedy independent set of the conflict graph
    and then picks one vertex from each leftover pair by maximizing, with
    exact rational arithmetic, the expected number of independent pairs
    whose hosts avoid every picked vertex (ties broken toward the smaller
    vertex).  Surviving pairs keep their original hosts.  When the rank is
    two the conflict graph is edgeless and the input survives whole.
    """
    if not is_semi_matching(h, matching):
        raise ValueError("input is not a semi-matching of the given clutter")
    prs = matching.pairs
    if not prs:
        return matching
    stable = greedy_independent_set(build_conflict_graph(matching))
    outside = [j for j in range(len(prs)) if j not in stable]
    s_of = {i: frozenset(prs[i][1]) for i in stable}
    if not outside:
        return SemiMatching(prs)
    l_of = {j: prs[j][0] for j in outside}

    def expected(fixed: dict[int, int]) -> Fraction:
        total = Fraction(0)
        for i in stable:
            si = s_of[i]
            p = Fraction(1)
            for j in outside:
                v = fixed.get(j)
                if v is not None:
                    if v in si:
                        p = Fraction(0)
                        break
                else:
                    p *= Fraction(len(set(l_of[j]) - si), 2)
            total += p
        return total

    fixed: dict[int, int] = {}
    for j in outside:
        lo, hi = l_of[j]
        fixed[j] = lo if expected(fixed | {j: lo}) >= expected(fixed | {j: hi}) else hi
    picked = set(fixed.values())
    keep = [i for i in stable if not (picked & s_of[i])]
    return SemiMatching(prs[i] for i in keep)


def matching_to_minor(h: Clutter, matching: SemiMatching) -> MinorWitness:
    """Turn an expanded minor matching into a concrete minor witness.

    Deletes everything outside the union of the hosts and contracts the
    hosts down to the two-vertex sets; the resulting minor is exactly the
    clutter of those sets.
    """
    if not is_expanded_minor_matching(h, matching):
        raise ValueError("input is not an expanded minor matching of the given clutter")
    union_l = set().union(*matching.blocks)
    union_s = set().union(*matching.hosts)
    delete = tuple(sorted(set(h.vertices) - union_s))
    contract = tuple(sorted(union_s - union_l))
    return MinorWitness(delete, contract, matching.blocks)


def is_k_matching(h: Clutter, k: int) -> bool:
    """True iff h has exactly k edges, all of size two, pairwise disjoint."""
    if k < 0 or len(h.edges) != k:
        return False
    if any(len(e) != 2 for e in h.edges):
        return False
    return len(h.vertices) == 2 * k


def find_kk2_minor(
    h: Clutter, k: int, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> MinorWitness | None:
    """Exact search for a k-edge matching minor; a witness or None.

    h has a matching minor of k pairs exactly when it has an expanded
    minor matching of k pairs, so the search walks the families of k
    (pair, host edge) candidates that meet 3b pairwise and returns the
    witness of the first one that also meets condition 4.

    (=>) Suppose h deleted on D and contracted on C is {L_1, ..., L_k}.
    Each L_i is S_i - C for some edge S_i that misses D, so S_i lies
    inside L_i | C and misses L_j for every j != i (3b, which implies 2
    and 3a).  Every edge inside the union of the S_i misses D, so it
    contains some L_j (condition 4).
    (<=) This is matching_to_minor: by 3b, S_i leaves exactly L_i, and by
    condition 4 every other edge inside the union of the S_i contains
    some L_j.

    node_budget counts search steps: one per (pair, host edge) candidate
    built, one per pair of candidates tested, and one per family reached.
    The candidates and pair tests are charged before they are built, so an
    over-budget clutter is refused before its set-up takes memory.  Past
    node_budget steps a ResourceLimitError is raised.
    """
    if k < 0:
        raise ValueError("matching size must be non-negative")
    for pairs in _search_pairs(h, node_budget, "matching-minor search", k):
        return matching_to_minor(h, SemiMatching._from_canonical(pairs))
    return None
