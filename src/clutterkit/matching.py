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
union of the S_i does not collapse to ONE.  By the closed form of
`expansion` this is one line: the expansion holds the empty edge exactly
when some edge inside the union holds no L_i.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .core import Clutter, Edge, _Value, _check_count, _check_int
from .errors import ResourceLimitError

DEFAULT_NODE_BUDGET = 10**6

Pair = tuple[Edge, Edge]


class SemiMatching(_Value):
    """Ordered pairs (L, S), sorted as tuples, so by the smallest vertex of L.

    Structural invariants (each L has two vertices inside its S; the L are
    pairwise disjoint) are enforced on construction.  Validity against a
    host clutter is checked by is_semi_matching, not stored.
    """

    __slots__ = ("pairs",)

    pairs: tuple[Pair, ...]

    def __init__(self, pairs: Iterable[Iterable[Iterable[int]]] = ()):
        canon: list[Pair] = []
        for pair in pairs:
            left, host = map(tuple, pair)
            # each label is checked as given, as Clutter() checks it: in a
            # set, True or 2.0 would already have collapsed into an int
            for v in left + host:
                _check_count(v, "vertex label")
            l = tuple(sorted(set(left)))
            s = tuple(sorted(set(host)))
            if len(l) != 2:
                raise ValueError(f"pair set must have exactly two vertices, got {l}")
            if not set(l) <= set(s):
                raise ValueError(f"pair set {l} must lie inside its host set {s}")
            canon.append((l, s))
        canon.sort()
        if len({v for l, _ in canon for v in l}) != 2 * len(canon):
            raise ValueError("pair sets must be pairwise disjoint")
        _set_pairs(self, tuple(canon))

    @classmethod
    def _from_canonical(cls, pairs: tuple[Pair, ...]) -> "SemiMatching":
        """Wrap sorted-tuple pairs already in canonical order that meet the
        structural invariants."""
        m = object.__new__(cls)
        _set_pairs(m, pairs)
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


_set_pairs = SemiMatching.pairs.__set__


class ConflictGraph(_Value):
    """Conflicts between matching pairs: i ~ j when one host meets the
    other pair's two-vertex set in exactly one vertex.

    Vertices are 0..n-1; each edge joins two different vertices.
    """

    __slots__ = ("n", "edges")

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        _check_count(n, "vertex count")
        edges = tuple(edges)
        for i, j in edges:
            _check_int(i, "conflict edge endpoint")
            _check_int(j, "conflict edge endpoint")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"conflict edge {(i, j)} has an endpoint outside 0..{n - 1}")
            if i == j:
                raise ValueError(f"conflict edge {(i, j)} is a self-loop")
        super().__init__(n, edges)

    def neighbor_map(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {i: set() for i in range(self.n)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


class MinorWitness(_Value):
    """A (delete, contract) certificate that the named pairs survive as a
    matching minor."""

    __slots__ = ("delete", "contract", "matching")

    delete: Edge
    contract: Edge
    matching: tuple[Edge, ...]

    def __init__(self, delete: Edge, contract: Edge, matching: tuple[Edge, ...]):
        super().__init__(delete, contract, matching)

    def verify(self, h: Clutter) -> bool:
        if set(self.delete) & set(self.contract):
            return False
        minor = h.restrict(self.delete, self.contract)
        return minor == Clutter(self.matching) and is_k_matching(minor, len(self.matching))


def expansion(h: Clutter, blocks: Iterable[Iterable[int]], carrier: Iterable[int]) -> Clutter:
    """Join, over every way of choosing one vertex from each block, of the
    minor that deletes the chosen image and contracts the rest of the
    carrier.

    Blocks must be pairwise disjoint subsets of the carrier.  The join has
    the closed form

        Clutter(e - carrier for e in h.edges if no block lies inside e),

    which is what is computed: one pass over the edges, with no choice
    function enumerated.  Proof: take a choice with image D and let C be
    carrier - D.  Then h.restrict(D, C) is the minimal family of the sets
    e - C over the edges e that miss D, and for such an e, e - C equals
    e - carrier.  An edge misses the image of some choice exactly when no
    block lies inside it, since the blocks are disjoint and so the choices
    from different blocks are independent.  Minimalizing the union once
    equals joining the minimalized parts.  An empty block admits no choice;
    it lies inside every edge, so the result is ZERO.
    """
    return Clutter._minimalized(_expansion_sources(h, blocks, carrier))


def _expansion_sources(
    h: Clutter, blocks: Iterable[Iterable[int]], carrier: Iterable[int]
) -> dict[frozenset[int], Edge]:
    """Map each set e - carrier, over the edges e of h inside which no block
    lies, to the canonically first such e.  The keys minimalize to the
    expansion."""
    blks = [frozenset(b) for b in blocks]
    carrier_set = frozenset(carrier)
    seen: set[int] = set()
    for b in blks:
        if not seen.isdisjoint(b):
            raise ValueError("expansion blocks must be pairwise disjoint")
        if not carrier_set.issuperset(b):
            raise ValueError("expansion blocks must lie inside the carrier")
        seen.update(b)
    sources: dict[frozenset[int], Edge] = {}
    for e in h.edges:
        es = frozenset(e)
        if not any(map(es.issuperset, blks)):
            sources.setdefault(es - carrier_set, e)
    return sources


def _clash_mask(candidate: Pair, in_l: dict[int, int], in_s: dict[int, int], minor: bool) -> int:
    """The bitmask over candidate indices of the candidates that break
    conditions 2 or 3a with candidate (L, S) or, when `minor` is set, 3b
    (L_i meets S_j or L_j meets S_i, which implies 2 and 3a), read off the
    per-vertex masks of `_vertex_masks`.  It holds the candidate's own bit.
    """
    (a, b), e = candidate
    if minor:
        # 3b fails when L_i meets S_j or L_j meets S_i
        mask = in_s[a] | in_s[b]
        for v in e:
            mask |= in_l[v]
        return mask
    # 2 fails when L_i meets L_j, and 3a when either L lies inside
    # the other's S: L_j lies inside S_i when it meets S_i twice
    once = twice = 0
    for v in e:
        m = in_l[v]
        twice |= once & m
        once |= m
    return in_l[a] | in_l[b] | (in_s[a] & in_s[b]) | twice


def _vertex_masks(cand: Sequence[Pair]) -> tuple[dict[int, int], dict[int, int]]:
    """(in_l, in_s): in_l[v] holds the candidates whose L holds v, and
    in_s[v] those whose S holds v, in one pass over the candidates and one
    over their hosts."""
    in_l: dict[int, int] = {}
    of_host: dict[Edge, int] = {}  # edge -> candidates with that S
    for i, ((a, b), e) in enumerate(cand):
        bit = 1 << i
        in_l[a] = in_l.get(a, 0) | bit
        in_l[b] = in_l.get(b, 0) | bit
        of_host[e] = of_host.get(e, 0) | bit
    in_s: dict[int, int] = {}
    for e, mask in of_host.items():
        for v in e:
            in_s[v] = in_s.get(v, 0) | mask
    # every vertex of a host lies in some L inside it, so in_l has it
    return in_l, in_s


def _cover_tables(edges: Sequence[Edge]) -> tuple[int, int, dict[int, int]]:
    """Bit tables for the condition-4 carry test: (low, guard, marks).

    Each of `edges` but the one-vertex ones owns a block of bits: one slot
    per vertex, then a guard bit.  `low` has the lowest bit of every block
    and `guard` every guard bit.  The marks of a vertex are its slot and
    the guard in every block holding it, so the marks of a AND those of b
    are the guards of the edges holding {a, b}.  `_search_pairs`, the one
    caller, states the test and why it is exact.

    One pass over the edges ORs each mark into place.  A vertex in d edges
    has its mark copied d times, which is quadratic on a star, yet that
    cost less than gathering each table's positions first at every size
    measured, up to a star of 14,000 edges.
    """
    low = guard = at = 0
    marks: dict[int, int] = {}
    for e in edges:
        if len(e) == 1:
            continue
        top = at + len(e)
        low |= 1 << at
        guard |= 1 << top
        for i, v in enumerate(e, at):
            marks[v] = marks.get(v, 0) | 1 << i | 1 << top
        at = top + 1
    return low, guard, marks


def _cover_entry(candidate: Pair, marks: dict[int, int], slots: int) -> tuple[int, int]:
    """The pair (cover, held) of candidate (L, S) over the marks of
    `_cover_tables`: the slots of the vertices of S, and the guards of the
    edges holding L.  `slots` is the complement of the guard bits."""
    (a, b), e = candidate
    cover = 0
    for v in e:
        cover |= marks[v]
    return cover & slots, marks[a] & marks[b]


def _foreign_owners(matching: SemiMatching) -> tuple[dict[int, int], list[list[int]]]:
    """The map owner: vertex -> index of the pair whose L holds it, and for
    each host S_j, in pair order, the owners other than j of its vertices.

    L_i meets S_j exactly when i is among host j's foreign owners, and lies
    inside S_j exactly when i is there twice.
    """
    owner = {v: i for i, l in enumerate(matching.blocks) for v in l}
    return owner, [[owner[v] for v in s if owner.get(v, j) != j]
                   for j, s in enumerate(matching.hosts)]


def _meets_conditions(h: Clutter, matching: SemiMatching, minor: bool) -> bool:
    """Conditions 1, 2, 3a and 4 or, when `minor` is set, 1, 3b and 4.

    2 holds structurally, and so do |L| = 2 and L <= S.  3b fails when a
    host has a foreign owner and 3a when it has one twice.  Condition 4
    reads only the edges inside the union of the hosts: an edge holds L_i
    exactly when owner i turns up twice among its vertices.  Every host
    lies inside that union, so condition 1 holds when each host turns up
    among those edges.
    """
    owner, foreign = _foreign_owners(matching)
    if any(f and (minor or len(set(f)) < len(f)) for f in foreign):
        return False
    support = frozenset().union(*matching.hosts)
    hosts = set(matching.hosts)
    for e in h.edges:
        if support.issuperset(e):
            held = [owner[v] for v in e if v in owner]
            if len(set(held)) == len(held):  # no L inside e
                return False
            hosts.discard(e)
    return not hosts


def is_semi_matching(h: Clutter, matching: SemiMatching) -> bool:
    """Check conditions 1, 2, 3a and 4 against h (2 holds structurally)."""
    return _meets_conditions(h, matching, False)


def is_expanded_minor_matching(h: Clutter, matching: SemiMatching) -> bool:
    """A semi-matching whose two-vertex sets avoid all other hosts (3b)."""
    return _meets_conditions(h, matching, True)


def _has_partners(edges: Sequence[Edge]) -> bool:
    """Whether two edges each have at least two vertices outside the other.

    Edges come in order of size, so an edge has at least as many vertices
    outside an earlier one as that one has outside it.  The scan builds
    one frozenset per edge of two or more vertices and takes one set
    difference of two frozensets per pair of such edges, stopping at the
    first partners.  On staircase(6), which has none, a scan takes about
    6 us (Python 3.11, one 2-vCPU Xeon).
    """
    seen: list[frozenset[int]] = []
    for e in edges:
        if len(e) > 1:
            es = frozenset(e)
            for t in seen:
                if len(t - es) > 1:
                    return True
            seen.append(es)
    return False


def _search_pairs(
    h: Clutter, budget: int, minor_size: int | None = None
) -> Iterator[tuple[Pair, ...]]:
    """Depth-first search for the semi-matchings of h, as tuples of pairs.

    The candidates are (L, S) for every two-vertex subset L of every edge
    S, in sorted order.  Each candidate's row is the bitmask of the
    candidates compatible with it: those outside its `_clash_mask` mask
    for conditions 2 and 3a or, when minor_size is given, for 3b.  A
    family grows only by later candidates in the AND of its members' rows,
    taken in index order, so families are made in depth-first preorder,
    which within one size is lexicographic.

    One rule drives the search.  Each family is charged one step when it
    is made from its parent, and yielded then if it qualifies: if it meets
    condition 4 while enumerating, and if it has minor_size pairs and
    meets condition 4 in a minor search.  The search goes on to make its
    children only if it has a later compatible candidate and, in a minor
    search, fewer than minor_size pairs.  The root, the family of no
    pairs, is charged with the set-up and yielded there, while enumerating
    and for minor_size 0 alike, unless h is ONE: condition 4 fails for it
    exactly when h holds the empty edge.

    A minor search for two or more pairs can be settled by the edges
    alone.  Call two edges S and T partners when each has at least two
    vertices outside the other.  Candidates (L, S) and (L', T) meet 3b
    together only if L lies inside S - T and L' inside T - S, so only if
    their hosts are partners.  When no two edges are partners, as on a
    staircase, the search would make the n one-candidate families and
    yield nothing, so it is charged those n steps past the root, and no
    candidate is built.  The scan for partners looks at no more than the
    m(m-1)/2 pairs of edges, which the set-up charge of n(n-1)/2 pair
    tests covers.

    Condition 4 is one carry test over the tables of `_cover_tables`.  A
    candidate (L, S) has a cover, the slots of the vertices of S, and a
    held, the guards of the edges holding L, which `_cover_entry` reads
    off the marks.  Let `covered` be the OR of the covers of the family's
    candidates and `held` the OR of their helds.  The family meets
    condition 4 exactly when

        (covered + low) & guard & ~held == 0.

    Adding a block's low bit carries into its guard exactly when every
    slot of the block is set, that is when the edge lies inside the union
    of the hosts.  `covered` sets no guard bit, so the carry stops at the
    guard and no block touches another.  So `(covered + low) & guard`
    holds the guards of exactly the edges inside the union, and the test
    asks that each of them hold some L.  The empty edge's block is its
    guard alone, which the addition always sets, so ONE fails.  A
    one-vertex edge needs no block: h is an antichain, so no other edge,
    and so no host, holds its vertex, and the edge is never inside the
    union.  Leaving those edges out keeps the tables from growing with
    them.

    A family's state is its untried children, `covered`, `held` and its
    tuple of pairs, which is what the search yields.  The search holds the
    state of the family whose children it is making, and a stack of its
    ancestors' states; a family is pushed only when the search goes down
    into one of its children.  A child's untried children are those of its
    parent that come after its last candidate, ANDed with that
    candidate's row, so no row needs the earlier candidates cleared; its
    masks are its parent's with one OR each, and its tuple its parent's
    with one pair appended.

    The rest is built where the search first needs it.  Once per search,
    with the sorted candidates: the `low`, `guard` and marks of
    `_cover_tables`, in one pass over the edges.  With the first row: the
    per-vertex masks `in_l` and `in_s` of `_vertex_masks`, in one pass
    over the candidates and one over their hosts; the search holds them
    from then on.  At most once per candidate: its cover and held, by
    `_cover_entry`, when the first family holding it is made, and its row,
    by `_clash_mask`, when a family ending in it may grow, that is when it
    has untried children and, in a minor search, fewer than minor_size
    pairs.  So a one-pair minor search builds no row and no per-vertex
    mask, and a search that stops early builds only the rows of the
    families it went on from.

    `budget` counts search steps: one per candidate built, one per pair of
    candidates whose compatibility may be settled, and one per family
    made.  The pair tests are charged n(n-1)/2 up front, which bounds the
    ones the rows settle.  Every step is charged before its work is done,
    so a clutter whose set-up alone is over budget trips before any
    candidate is built.  Past `budget` steps a ResourceLimitError naming
    the stage is raised: the matching-minor search with minor_size, else
    semi-matching enumeration.
    """
    _check_count(budget, "search budget")
    stage = "semi-matching enumeration" if minor_size is None else "matching-minor search"
    limit = f"{stage} exceeded budget of {budget} search steps"
    edges = h.edges
    n = sum(len(e) * (len(e) - 1) // 2 for e in edges)
    used = n + n * (n - 1) // 2 + 1  # the set-up and the root
    if used > budget:
        raise ResourceLimitError(limit)
    if not minor_size and not h.is_one:  # enumerating, or minor_size 0
        yield ()
    if minor_size is not None and minor_size >= 2 and not _has_partners(edges):
        if used + n > budget:
            raise ResourceLimitError(limit)
        return
    cand = sorted((l, e) for e in edges for l in itertools.combinations(e, 2))
    low, guard, marks = _cover_tables(edges)
    slots, minor = ~guard, minor_size is not None  # read by the builders
    in_l = in_s = None  # built with the first row
    full = (1 << n) - 1
    rows: list[int | None] = [None] * n
    cover_held: list[tuple[int, int] | None] = [None] * n

    kids, covered, held, family = full if minor_size != 0 else 0, 0, 0, ()
    stack: list[tuple[int, int, int, tuple[Pair, ...]]] = []
    while True:
        while not kids:
            if not stack:
                return
            kids, covered, held, family = stack.pop()
        bit = kids & -kids
        kids ^= bit
        used += 1
        if used > budget:
            raise ResourceLimitError(limit)
        i = bit.bit_length() - 1
        entry = cover_held[i]
        if entry is None:  # the first family holding candidate i
            cover_held[i] = entry = _cover_entry(cand[i], marks, slots)
        cover, hold = entry
        child_covered = covered | cover
        child_held = held | hold
        if ((minor_size is None or len(family) + 1 == minor_size)
                and not (child_covered + low) & guard & ~child_held):
            yield family + (cand[i],)
        if kids and (minor_size is None or len(family) + 1 < minor_size):
            row = rows[i]
            if row is None:
                if in_l is None:  # the first row
                    in_l, in_s = _vertex_masks(cand)
                rows[i] = row = full ^ _clash_mask(cand[i], in_l, in_s, minor)
            grandkids = kids & row
            if grandkids:
                stack.append((kids, covered, held, family))
                kids, covered, held, family = grandkids, child_covered, child_held, family + (cand[i],)


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
    # stable: preorder is already lexicographic within a size
    return [SemiMatching._from_canonical(f)
            for f in sorted(_search_pairs(h, budget), key=len)]


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
    sources = _expansion_sources(h, [r], c)
    if not is_semi_matching(Clutter(sources), matching):
        raise ValueError("input is not a semi-matching of the expanded clutter")
    # a host s of the expansion misses c, so an edge E of h holds s and lies
    # inside s | c exactly when E - c == s
    new_pairs = [(l, sources[frozenset(s)]) for l, s in matching.pairs]
    new_pairs.append((r, tuple(sorted(c))))
    return SemiMatching(new_pairs)


def build_conflict_graph(matching: SemiMatching) -> ConflictGraph:
    """Graph on pair indices; assumes the matching satisfies 1, 2 and 3a.

    Its edges are the pairs that break 3b: under 3a a host meets another
    pair's two-vertex set in one vertex or none.  For hosts of size at
    most r there are at most (r-2) * n edges, since each host has at most
    r-2 vertices outside its own pair and the two-vertex sets are disjoint.
    """
    _, foreign = _foreign_owners(matching)
    edges = {(min(i, j), max(i, j)) for j, f in enumerate(foreign) for i in f}
    return ConflictGraph(len(matching), tuple(sorted(edges)))


def greedy_independent_set(graph: ConflictGraph) -> tuple[int, ...]:
    """Min-degree greedy independent set.

    Repeatedly takes a surviving vertex of minimum remaining degree
    (smallest index on ties) and discards its neighbors, which yields at
    least ceil(n^2 / (2m + n)) vertices (Caro-Wei).  The minimum comes
    off a lazy heap of (remaining degree, vertex): a discarded neighbor
    lowers the degree of its survivors, which pushes fresh entries.
    Degrees only fall, so a vertex's stale entries pop after its fresh
    one, when the vertex is gone; entries of gone vertices are skipped.
    """
    import heapq

    adj = graph.neighbor_map()
    degree = {v: len(ns) for v, ns in adj.items()}
    heap = [(d, v) for v, d in degree.items()]
    heapq.heapify(heap)
    alive = set(range(graph.n))
    chosen: list[int] = []
    while heap:
        _, v = heapq.heappop(heap)
        if v not in alive:
            continue
        chosen.append(v)
        gone = adj[v] & alive
        alive.discard(v)
        alive -= gone
        for w in gone:
            for u in adj[w] & alive:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    return tuple(sorted(chosen))


def extract_minor_matching(h: Clutter, matching: SemiMatching) -> SemiMatching:
    """Constructively thin a semi-matching down to an expanded minor
    matching of size at least ceil(n * 2^-(r-2) / (2r-3)), where n is the
    input size and r the rank of h.

    The construction takes a greedy independent set of the conflict graph
    and then picks one vertex from each leftover pair, in pair order, by
    the method of conditional expectations, with exact integer
    arithmetic.  Let t be the size of the largest host.  odds[i] is 2^(t-2)
    times the chance that the host of independent pair i avoids every pick
    when each leftover pair not yet fixed picks one of its two vertices at
    random.  By 3a a leftover pair meets a foreign host in at most one
    vertex, so odds[i] starts at 2^(t-2) and is halved once per leftover
    pair meeting host i.  The leftover pairs are disjoint and miss pair i,
    and host i has at most t - 2 vertices outside pair i, so every halving
    is exact; scaling all odds alike leaves every comparison below as it
    is.  Fixing a leftover pair (lo, hi) to lo zeroes the odds of the
    hosts holding lo and doubles those of the hosts holding hi, so the
    expected number of survivors under lo minus that under hi is twice
    (sum of odds over hosts holding hi) - (sum over hosts holding lo).  The
    pair picks lo exactly when that difference is non-negative, which
    maximizes the expectation with ties broken toward the smaller vertex.
    The independent pairs whose odds end non-zero survive and keep their
    original hosts.  When the rank is two the conflict graph is edgeless
    and the input survives whole.
    """
    if not is_semi_matching(h, matching):
        raise ValueError("input is not a semi-matching of the given clutter")
    prs = matching.pairs
    stable = greedy_independent_set(build_conflict_graph(matching))
    holders: dict[int, list[int]] = {}
    for i in stable:
        for v in prs[i][1]:
            holders.setdefault(v, []).append(i)
    unit = 1 << (max(map(len, matching.hosts), default=2) - 2)
    odds = dict.fromkeys(stable, unit)
    leftover = [l for j, (l, _) in enumerate(prs) if j not in odds]
    for l in leftover:
        for v in l:
            for i in holders.get(v, ()):
                odds[i] >>= 1
    for lo, hi in leftover:
        picked, other = holders.get(lo, ()), holders.get(hi, ())
        if sum(odds[i] for i in other) < sum(odds[i] for i in picked):
            picked, other = other, picked
        for i in picked:
            odds[i] = 0
        for i in other:
            odds[i] <<= 1
    return SemiMatching._from_canonical(tuple(prs[i] for i in stable if odds[i]))


def matching_to_minor(h: Clutter, matching: SemiMatching) -> MinorWitness:
    """Turn an expanded minor matching into a concrete minor witness.

    Deletes everything outside the union of the hosts and contracts the
    hosts down to the two-vertex sets; the resulting minor is exactly the
    clutter of those sets.
    """
    if not is_expanded_minor_matching(h, matching):
        raise ValueError("input is not an expanded minor matching of the given clutter")
    return _witness(h, matching)


def _witness(h: Clutter, matching: SemiMatching) -> MinorWitness:
    """The witness of matching_to_minor, for an expanded minor matching of h."""
    support = set().union(*matching.hosts)
    return MinorWitness(tuple(sorted(set(h.vertices) - support)),
                        tuple(sorted(support.difference(*matching.blocks))), matching.blocks)


def is_k_matching(h: Clutter, k: int) -> bool:
    """True iff h has exactly k edges, all of size two, pairwise disjoint.

    A k that is not an int raises ValueError.
    """
    _check_int(k, "matching size")
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
    over-budget clutter is refused before its set-up takes memory.  When
    no two edges each have two vertices outside the other, as on a
    staircase, no two candidates meet 3b, so for k >= 2 the answer is
    None; it is charged the root and the one-candidate families the search
    would reach, and no candidate is built.  Past node_budget steps a
    ResourceLimitError is raised.  A k or node_budget that is not a
    non-negative int raises ValueError.
    """
    _check_count(k, "matching size")
    for pairs in _search_pairs(h, node_budget, k):
        return _witness(h, SemiMatching._from_canonical(pairs))
    return None
