"""Exact blocker computation and transversal predicates.

The blocker of a clutter is the clutter of its inclusion-minimal
transversals.  It is computed by Berge's fold over the edges, one at a
time: the running family holds the minimal transversals of the edges
seen so far.  A new edge e keeps every set that already meets it (a
hitter) and extends each other set t (a mover) by single vertices b of e.

Which extensions to keep is decided by critical edges, as in MMCS
(Murakami & Uno, 2014).  A private edge of u in t is a seen edge f with
f & t == {u}; t | b is minimal exactly when every u in t keeps a private
edge that misses b.  So b is forbidden when it lies in every private edge
of some u, and each mover costs one pass over the seen edges.  No other
check is needed:

- No hitter lies inside another, and no t | b lies inside a hitter w (t
  would then lie strictly inside w).  A hitter lies inside t | b exactly
  when b is forbidden.
- Extensions t | b and t' | b' are comparable only when equal: b is not
  in t', so b == b', then t <= t' and the antichain forces t == t'.

The fold takes the singleton edges first, then the others by least
vertex, greatest first (colex order over the vertices in descending
order), and otherwise keeps canonical order.  The paper bounds |b(H)| on
clutters of rank r with no (k + 1)K2 minor, a class closed under
deletion, so this order keeps every family at the end of a group of one
least vertex under that bound on the class:

- No other edge of a clutter holds the vertex of a singleton edge.  So
  after every edge whose least vertex is at least x, the fold has seen
  exactly the edges that miss D, the vertices below x that are not
  singleton edges, and its family is the blocker of the deletion minor
  of H by D.
- The blocker of the singleton edges of a vertex set S and of edges E'
  that miss S is {S | T : T in b(E')}, so folding the singletons first
  keeps every later family the size it would have without them.

Canonical order has no such cap: on a clique of k vertices with a
pendant edge at each, which has k + 1 minimal transversals, its families
reach 2^k sets, while in this order they never pass k + 1.
Berge's method is not output-polynomial in general (Takata, SIAM J.
Discrete Math. 21, 2007).  The answer does not depend on the order; only
where a budget trips does.

With literals set, the fold also drops, as soon as it is built, every set
holding both a vertex v and v ^ 1; cheapest_transversal folds only the
consistent sets this way for solve_sat, since the literals of variable i
are 2i and 2i + 1.  Such v and v ^ 1 differ by one, and the
fold gives consecutive vertices adjacent bits (in descending order, see
below), so whenever both occur they sit on adjacent bits p and p + 1, and
comparing each vertex with the next finds them.  One int, pairs, has bit
p set for each such pair, and the vertices that clash with a vertex of a
mask m are (m & pairs) << 1 | (m >> 1) & pairs.  The pruned fold yields
exactly the consistent members of the blocker:

- Every member T of the next family is a hitter t or an extension t | b
  of some t in the current one; either way t <= T.
- A subset of a consistent set is consistent, so every consistent T
  comes from a t that the pruned fold kept.
- A kept t is consistent, so t | b clashes exactly when b is in the
  mask above for t; forbidding those b drops exactly the clashing
  extensions, and a hitter is a kept t.
- The critical-edge test reads only t, b and the seen edges, never other
  family members, so pruning never changes which extensions are kept.

A mover whose every extension clashes skips the scan over the seen edges.

A step with at least PACK_FROM movers runs the same test for all of them
at once.  The movers are packed into one int, one field each: a whole
number of bytes holding the vertex bits and a spare top bit.  For a seen
edge f, one AND with f copied into every field leaves t & f in each
field, and that is never 0, because every mover is a transversal of the
seen edges.  Then v & (v - 1), taken in every field at once, is 0
exactly where t & f is a single vertex, that is, where f is a private
edge of that vertex; since no field is 0, the subtraction borrows
nothing from the next field.  Subtracting that value from the spare
bits marks the fields where it is 0: the borrow of a nonzero field stops
at its own spare bit and clears it.  For a vertex c of the new edge, the
private vertices of the seen edges that miss c, ORed together, equal t
exactly when every u in t keeps such an edge, so one more spare-bit test
finds every mover t for which t | c is kept.  Those private fields are
ORed as they are made, one int for each part mask & ~f of the new edge
that a seen edge f misses, and the fields for c are the OR of the ints
whose part holds c: OR does not depend on grouping.  No part is empty,
since no seen edge holds the new one, so a step keeps at most
min(|seen|, 2^|e| - 1) such ints, 2^r - 1 for a clutter of rank r, each
the size of the packed movers, beside those and a few temporaries of
their size.  Smaller steps keep the per-mover scan, which costs less
there.

On few vertices the subset lattice answers faster than a long fold.
With n vertices, a table of 2^n bits has bit S set when the subset whose
fold mask is S has some property, and holds[i], the radix-2 digit table
_digits(n)[i], is the table of the subsets holding the vertex of bit i.
A set is a non-transversal exactly when it lies inside the complement of
some edge, so the non-transversals are the down-closure of those
complements: set the bit of each complement, the fold's edge mask XOR
2^n - 1, then for each i OR in (miss & holds[i]) >> 2^i, which moves
every set holding bit i to the set without it.  The transversals T are
the rest.  A transversal is minimal when no set one vertex smaller is a
transversal, so the minimal ones are T minus the OR over i of
(T << 2^i) & holds[i], the sets holding bit i whose set without it is in
T.  A clashing pair on adjacent bits p and p + 1 drops holds[p] &
holds[p + 1] from T first; the kept sets are exactly the consistent
minimal transversals, because every subset of a consistent set is
consistent.  The set bits are read off a byte at a time: compress over a
cached tuple of the byte offsets picks out the nonzero bytes in C, so
only those cost Python work and no call makes an int per byte.  Each
table is 2^n bits, so at most 8 KB with n <= LATTICE_UP_TO = 16; the
cached digit tables take n of them for each n used, the cached layers
(the subsets of each size, below) n + 1, and the cached offsets one int
per byte of each table size used.

The lattice takes a few table operations per vertex, where the fold
tests family members one by one, so _fold decides once, for every
reader, before the first step: on at most LATTICE_UP_TO vertices, with
edge_budget >= C(n, n // 2), the lattice answers, and otherwise the
fold runs to the end.  That bound
keeps every answer and budget trip point the fold's: every family the
fold holds is an antichain (a subset of the minimal transversals of the
seen edges), so by Sperner's theorem (1928) it never holds more than
C(n, n // 2) sets, and with that budget the fold could not have tripped.

The fold hands its family over as bitmasks, in which bit n - 1 - i stands
for the i-th of the n sorted vertices, so the least vertex has the
highest bit.  Within one size, int order is then canonical order
reversed: where two masks of one size first differ from the top, their
bit stands for the least vertex in just one of the two sets, both sorted
tuples agree up to it, and the set holding it is the lexicographically
smaller tuple and has the greater mask.  So sorting the masks in
descending order, then stably by bit count, puts them in canonical order
with two sorts of ints and no tuple comparison.  Three readers in this
module call _fold, each decoding only what it needs.  blocker sorts
the masks so and decodes them into its clutter, which
Clutter._from_antichain wraps as they come; maximal_independent_sets
does the same with the complement of each mask within the vertex set.
cheapest_transversal wants one set, the canonically first of least cost:
it keeps the masks of least cost, summing integer weights through one
256-entry table per eight bits, then takes the greatest of those with
the fewest bits, and decodes only that one, through _decode.  Without
weights it asks _fold (with fewest) for only that mask, and where the
lattice answers, _fold reads no other mask out of the table.
A transversal with the fewest vertices is minimal, since a smaller
transversal inside it would have fewer; with literals, a consistent one
is too, since the sets inside a consistent set are consistent.  So the
table of transversals ANDed with the cached layer of k-bit subsets, for
k from 0 up, is first nonzero at the fewest bits, and its highest bit
is the answer: no minimality step, no readout and no sort.  No other
module sees a mask: solve_sat and solve_setcover get the vertices of
that one set, and the oracle objective of solve_setcover scans the
blocker.

That one-answer pick with literals (solve_sat's) needs neither table of
2^n bits: only 3^V of the 4^V subsets of the literals of V variables are
consistent.  So, on V variables with 3^V <= 2^LATTICE_UP_TO (V <= 10),
_fold reads it off a table of 3^V bits, one per partial assignment.  The
variable at sorted position p is the digit of weight 3^(V - 1 - p): 0
when it is unassigned, 1 when the set holds its odd literal 2x + 1, and
2 when it holds the even literal 2x.  Every index stands for a
consistent set, so nothing is dropped for a clash.  The table of
transversals is the AND, over the edges, of the OR of the digit tables
of the edge's vertices.  The answer is the highest bit of the first
nonzero AND of that table with the layer of assignments of k variables,
k from 0 up, decoded digit by digit into the one mask _fold returns:

- A consistent transversal with the fewest vertices is minimal, since
  the sets inside a consistent set are consistent.  A set holding the
  absent literal of a variable with one literal among the vertices is in
  no such layer, since without that literal it is a transversal with one
  vertex fewer.
- Within a layer, a greater index stands for a canonically earlier set.
  Take two consistent sets of one size and the first variable x where
  their digits differ.  A set with digit 2 holds 2x, while the other
  set's next vertex is at least 2x + 1.  A set with digit 1 holds 2x + 1,
  while the other set's next vertex is at least 2x + 2.

The table answers under the lattice's rule, edge_budget >= C(n, n // 2)
on the n literal vertices, so every answer and budget trip point is still
the fold's.  Each table is at most 3^10 = 59,049 bits (7.2 KiB): the
cached digit tables take two per variable and the cached layers V + 1
for each V used, 31 tables at V = 10.  One builder, _digits(n, radix),
makes the digit tables of both truth tables, radix 2 for the lattice and
radix 3 here, each by _spread replicating a block of it, radix copies a
step, and _layers prepends one top digit a step, so each build costs time
linear in the size of its tables.  Over every size the two truth tables
can reach, n <= 16 and V <= 10, their caches hold about 1.1 MiB for the
lattice (its offsets included) and 0.3 MiB for the assignments, by
tracemalloc on CPython 3.11.

_decode reads each mask through tables of at most 8 bits, each holding
the sorted vertex tuple of every subset of its bits, and a mask decodes
to the concatenation of its lookups, from its high bits down.  The
tables split the bits as evenly as they can: two up to 16 vertices (32 +
32 entries at n = 10, 128 + 128 at 14, 256 + 256 at 16), three up to 24
(7, 7 and 6 bits at 20) and one per 8 bits above.  So a mask costs two
lookups and one concatenation up to 16 vertices, three lookups on 17 to
24, and a loop over the tables above.  Even widths keep building them
cheap: two tables of n / 2 bits hold 2^(n / 2 + 1) entries, where 8-bit
tables cut from the low bits up would hold 256 + 2^(n - 8).
_decode_tables builds them, cached by the sorted vertex tuple in an
lru_cache of DECODE_TABLES_KEPT entries, so that repeated calls on one
vertex set decode without building any.  By sys.getsizeof an entry holds 19 KiB
at 14 vertices, 40 KiB at 16, 24 KiB at 20 and 60 KiB at 24, and
about 2.5 KiB per vertex above.

Blocking is an involution, swaps deletion with contraction and join with
meet; the property suite in the test tree exercises all of these.
"""
from __future__ import annotations

from functools import cache, lru_cache, reduce
from itertools import compress
from math import comb
from operator import or_
from typing import Iterable, Sequence

from .core import Clutter, Edge, _check_count
from .errors import ResourceLimitError

DEFAULT_EDGE_BUDGET = 10**6

# a fold step with at least this many movers tests them all at once.  With
# default budgets the lattice answers every clutter on at most 16 vertices,
# so the fold serves larger ones: kk2(k) from k = 9, and formulas from 11
# variables (22 literal vertices), since the table of partial assignments
# picks solve_sat's answer on up to 10.  Best of 3 x 5 on one pinned Xeon
# vCPU, folding in the order of _berge, at PACK_FROM = 8 / every step
# packed / none: blocker and maximal_independent_sets on kk2(9), kk2(10)
# and kk2(11) took 4.5 / 4.6 / 16.4 ms; solve_sat on 40 seeded 3-CNF
# formulas with round(4.2v) clauses took 11.7 / 25.3 / 11.2 ms at 9
# variables, 25.4 / 42.8 / 25.5 at 12 and 45.1 / 62.0 / 53.8 at 15.  Over
# two such sweeps, 16 read from 4% faster to 8% slower than 8 on the
# formulas, and 4 from 5% faster to 13% slower
PACK_FROM = 8

# on at most LATTICE_UP_TO vertices the subset lattice answers every fold
# whose budget it may take over.  Against the fold alone (LATTICE_UP_TO =
# -1), per clutter, best of 15 on one Xeon core, it made clutters with 0.9n
# edges of rank 4 on 10 to 16 vertices 1.4x to 2.7x faster, 0.5n edges of
# rank 3 on 10 to 14 vertices 1.3x to 1.6x, and 3-CNF with 4.2v clauses
# on 4 and 6 variables 1.3x and 1.4x (even on 8).  It made the folds that
# finish early slower, since a 16-vertex lattice costs about 200 us
# whatever the clutter: 0.5n edges of rank 3 on 16 vertices 1.3x, kk2(8)
# 1.2x, staircase(7) 2x and staircase(8) 4.5x (51 to 232 us).  The same
# cap bounds the table of partial assignments, 3^V <= 2^LATTICE_UP_TO bits,
# that picks solve_sat's answer on V variables.  Per formula, on 40 seeded
# 3-CNF with round(4.2V) clauses on one Xeon vCPU, it took 37 us in place of
# the subset lattice's 107 at V = 8, and 59 and 102 in place of the fold's
# 234 and 318 at 9 and 10
LATTICE_UP_TO = 16

# _decode keeps its tables for this many vertex tuples, each of 1 to 60 KiB
# up to 24 vertices.  One round of the benchmark's dualize workload decodes
# on at most 11 vertex tuples; its cli-mix round on 76, all of at most 18
# vertices, where a rebuild costs 10 to 70 us on one Xeon vCPU
DECODE_TABLES_KEPT = 16


def is_transversal(h: Clutter, t: Iterable[int]) -> bool:
    """True iff t meets every edge of h.

    Every set is a transversal of the edgeless clutter; no set is a
    transversal of the clutter whose only edge is empty.
    """
    ts = frozenset(t)
    return not any(map(ts.isdisjoint, h.edges))


def blocker(h: Clutter, *, edge_budget: int = DEFAULT_EDGE_BUDGET) -> Clutter:
    """The clutter of all minimal transversals of h.

    Intermediate families can outgrow the final result; a ResourceLimitError
    is raised before one would grow past edge_budget sets, so the fold holds
    at most edge_budget sets, or the one empty set it starts from.  Output
    is canonical and deterministic.
    """
    verts, masks = _fold(h, edge_budget)
    return Clutter._from_antichain(_decode(verts, _in_canonical_order(masks)))


def _fold(h: Clutter, edge_budget: int, literals: bool = False,
          fewest: bool = False) -> tuple[Edge, list[int]]:
    """The minimal transversals of h; with literals, only those that hold
    no vertex v together with v ^ 1 (the literals 2i and 2i + 1).

    Returns the vertices of h and one bitmask per transversal, in which bit
    n - 1 - i stands for the i-th of the n vertices, so that among masks of
    one size the greater stands for the canonically earlier set.  Only the
    readers in this module read the masks, and none relies on their
    order, which is unspecified: blocker and maximal_independent_sets sort
    the masks before they decode them.  This is the one place that checks
    edge_budget and decides between the engines, each time with a budget
    the fold could not pass: with literals and fewest, on V variables with
    3^V <= 2^LATTICE_UP_TO, the one mask comes off the 3^V-bit table of
    partial assignments; otherwise, on at most LATTICE_UP_TO vertices, it
    reads the same masks off the subset lattice's 2^n-bit table of
    transversals in the Berge fold's place.  There, with fewest, only the
    greatest mask of the fewest bits comes back, the one
    cheapest_transversal picks without weights; the Berge fold returns
    every mask either way.
    """
    _check_count(edge_budget, "edge budget")
    verts = h.vertices
    n = len(verts)
    # no family of the fold passes C(n, n // 2) sets (Sperner), so with that
    # budget it cannot trip and a table may answer in its place.  Each size
    # cap comes first: C(n, n // 2) costs milliseconds on 20,000 vertices
    if literals and fewest:
        names = tuple(dict.fromkeys([v >> 1 for v in verts]))
        if 3 ** len(names) <= 2 ** LATTICE_UP_TO and edge_budget >= comb(n, n // 2):
            return verts, _consistent_pick(verts, names, h.edges)
    masks, pairs = _edge_masks(verts, h.edges, literals)
    if n <= LATTICE_UP_TO and edge_budget >= comb(n, n // 2):
        table = _transversals(n, masks, pairs)
        if not fewest:
            return verts, _minimal_masks(n, table)
        # a transversal with the fewest vertices is minimal, so the first
        # layer of the table that holds any holds the answer, its highest bit
        hit = next(filter(None, map(table.__and__, _layers(n))), 0)
        return verts, [hit.bit_length() - 1] if hit else []
    return verts, _berge(n, masks, pairs, edge_budget)


def _edge_masks(verts: Edge, edges: Iterable[Edge], literals: bool) -> tuple[list[int], int]:
    """The mask of each edge over the sorted vertices verts, and the clash
    mask: with literals, bit n - 2 - p set when verts[p] clashes with
    verts[p + 1]."""
    n = len(verts)
    bit = {v: 1 << n - 1 - i for i, v in enumerate(verts)}
    masks = [sum(map(bit.__getitem__, e)) for e in edges]
    pairs = sum(1 << n - 2 - p for p in range(n - 1)
                if verts[p] ^ 1 == verts[p + 1]) if literals else 0
    return masks, pairs


def _berge(n: int, masks: list[int], pairs: int, edge_budget: int) -> list[int]:
    """The masks of the minimal transversals of the edge masks, by Berge's
    fold, less every set that holds both bits of a clash in pairs.

    The fold takes the singleton edges first, then the others by least
    vertex, greatest first, so that each group of edges with one least
    vertex ends on the blocker of a deletion minor (see the module
    docstring); ties keep the order of masks.  The answer does not depend
    on the order, but where the budget trips does.
    """
    nbytes = n // 8 + 1  # one packed field: the vertex bits and a spare top bit
    family = [0]
    seen: list[int] = []
    # the least vertex has the highest bit; a singleton (or the empty edge)
    # sorts before every edge of two or more bits
    for mask in sorted(masks, key=lambda m: m.bit_length() if m & (m - 1) else 0):
        movers = [t for t in family if not t & mask]
        family = [t for t in family if t & mask]
        if len(movers) >= PACK_FROM:
            _extend_packed(family, movers, mask, seen, pairs, nbytes, edge_budget)
        else:
            for t in movers:
                forbidden = (t & pairs) << 1 | (t >> 1) & pairs
                if not mask & ~forbidden:  # every extension clashes: skip the scan
                    continue
                private: dict[int, int] = {}
                for f in seen:
                    # t meets every seen edge, so u is never 0
                    u = f & t
                    if not u & (u - 1):
                        private[u] = private.get(u, f) & f
                for common in private.values():
                    forbidden |= common
                free = mask & ~forbidden
                while free:
                    if len(family) >= edge_budget:
                        raise _over_budget(edge_budget)
                    b = free & -free
                    free ^= b
                    family.append(t | b)
        seen.append(mask)
    return family


def _extend_packed(
    family: list[int],
    movers: list[int],
    mask: int,
    seen: list[int],
    pairs: int,
    nbytes: int,
    edge_budget: int,
) -> None:
    """Append to family every kept extension of the movers by a vertex of mask.

    The movers are packed into one int, one field of nbytes bytes each, so
    each seen edge costs a fixed handful of big-int operations.  The scratch
    beside them, the private fields keyed by the part of mask each seen edge
    misses, holds at most min(len(seen), 2^|mask| - 1) ints of that size.
    """
    count = len(movers)
    top = 8 * nbytes - 1
    fam = int.from_bytes(b"".join([t.to_bytes(nbytes, "little") for t in movers]), "little")
    low = int.from_bytes((b"\1" + bytes(nbytes - 1)) * count, "little")
    guard = low << top
    privs: dict[int, int] = {}  # mask & ~f -> the private fields of such f, ORed
    for f in seen:
        v = fam & f * low  # t & f in every field, never 0
        single = (guard - (v & (v - low))) & guard  # top bit set where t & f is one vertex
        privs[mask & ~f] = privs.get(mask & ~f, 0) | v & (single - (single >> top))
    rest = mask
    while rest:
        c = rest & -rest
        rest ^= c
        # a field of x is 0 exactly when every vertex of t keeps a private
        # edge missing c and no vertex of t clashes with c
        x = fam ^ reduce(or_, [p for missed, p in privs.items() if missed & c], 0)
        x |= fam & ((c & pairs) << 1 | (c >> 1) & pairs) * low
        ok = (guard - x) & guard
        if len(family) + ok.bit_count() > edge_budget:
            raise _over_budget(edge_budget)
        flags = (ok >> top).to_bytes(count * nbytes, "little")[::nbytes]
        family.extend([t | c for t in compress(movers, flags)])


def _spread(x: int, s: int, radix: int, size: int) -> int:
    """x, a pattern of s bits, repeated to fill size = s * radix^j bits.
    Each step makes radix copies of the table so far, so the whole build
    costs time linear in size."""
    while s < size:
        x = reduce(or_, [x << d * s for d in range(radix)])
        s *= radix
    return x


@cache
def _digits(n: int, radix: int = 2) -> tuple[int, ...]:
    """The radix^n-bit tables of the indexes of n digits in radix whose
    digit of weight radix^i is d, for each i < n from the low digit up, and
    each d from radix - 1 down to 1: with radix 2, the subsets holding bit
    i; with radix 3, the partial assignments holding the even literal (2)
    and the odd one (1) of the variable of that digit."""
    # the digit of weight w repeats w zeros, w ones, and so on up to radix - 1
    return tuple(_spread((1 << w) - 1 << d * w, radix * w, radix, radix ** n)
                 for w in (radix ** i for i in range(n)) for d in range(radix - 1, 0, -1))


@cache
def _offsets(size: int) -> tuple[int, ...]:
    """0 to size - 1, kept so that reading a table makes no int per byte."""
    return tuple(range(size))


_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


@cache
def _layers(n: int, radix: int = 2) -> tuple[int, ...]:
    """For each k <= n, the radix^n-bit table of the indexes of n digits
    in radix with k of them nonzero: the subsets of k bits, and with radix
    3 the partial assignments of k variables."""
    layers = [1]
    s = 1
    for _ in range(n):
        # prepend a top digit: the indexes where it is d > 0 are the others
        # with one digit fewer set, moved up by d * s
        fewer = [0] + layers
        layers.append(0)
        for d in range(1, radix):
            layers = [low | high << d * s for low, high in zip(layers, fewer)]
        s *= radix
    return tuple(layers)


def _consistent_pick(verts: Edge, names: tuple[int, ...], edges: Iterable[Edge]) -> list[int]:
    """The mask of the consistent transversal of edges with the fewest
    vertices that comes first canonically, or [] if there is none, read
    off the 3^V-bit table of the partial assignments of the V variables
    names (v >> 1 for the vertices v in verts, in order)."""
    digits = _digits(len(names), 3)
    # the last variable has the lowest digit
    at = dict(zip(reversed(names), range(0, 2 * len(names), 2)))
    held = {v: digits[at[v >> 1] + (v & 1)] for v in verts}
    table = (1 << 3 ** len(names)) - 1
    for e in edges:  # the empty edge meets no set
        table &= reduce(or_, map(held.__getitem__, e)) if e else 0
    hit = next(filter(None, map(table.__and__, _layers(len(names), 3))), 0)
    if not hit:
        return []
    index = hit.bit_length() - 1
    top = len(verts) - 1
    mask = 0
    for x in reversed(names):
        index, d = divmod(index, 3)
        if d:  # 2 for the even literal, 1 for the odd
            mask |= 1 << top - verts.index(2 * x + (d & 1))
    return [mask]


def _transversals(n: int, masks: list[int], pairs: int) -> int:
    """The 2^n-bit table of the transversals of the edge masks that hold
    both bits of no clash in pairs."""
    holds = _digits(n)
    top = (1 << n) - 1
    buf = bytearray(max(1, (1 << n) >> 3))  # n < 3: one byte
    for x in [top ^ m for m in masks]:  # the complements of the edges
        buf[x >> 3] |= 1 << (x & 7)
    miss = int.from_bytes(buf, "little")
    for i, held in enumerate(holds):
        miss |= (miss & held) >> (1 << i)
    t = miss ^ ((1 << (1 << n)) - 1)
    while pairs:
        p = (pairs & -pairs).bit_length() - 1
        pairs &= pairs - 1
        t ^= t & holds[p] & holds[p + 1]
    return t


def _minimal_masks(n: int, t: int) -> list[int]:
    """The masks of the minimal sets of a 2^n-bit table of transversals."""
    up = 0
    for i, held in enumerate(_digits(n)):
        up |= (t << (1 << i)) & held
    t ^= t & up
    data = t.to_bytes(max(1, (1 << n) >> 3), "little")
    return [8 * j + i for j in compress(_offsets(len(data)), data) for i in _BITS[data[j]]]


def _over_budget(edge_budget: int) -> ResourceLimitError:
    return ResourceLimitError(f"blocker intermediate family exceeded {edge_budget} sets")


@lru_cache(maxsize=DECODE_TABLES_KEPT)
def _decode_tables(verts: Edge) -> tuple[tuple[Edge, ...], ...]:
    """The tables _decode reads masks over verts with, from the low bits up:
    entry j of a table holds the sorted vertices of the bits set in j.
    Tuples, since the cache hands them to every caller."""
    # two tables up to 16 vertices, then one per 8 bits, of widths as even
    # as possible.  Bit i stands for rev[i], and rev descends, so prepending
    # keeps each tuple sorted
    n = len(verts)
    rev = verts[::-1]
    count = max(2, -(-n // 8))
    tables = []
    k = 0
    for j in range(count):
        w = n // count + (j < n % count)
        table: list[Edge] = [()]
        for v in rev[k:k + w]:
            table += [(v,) + x for x in table]
        tables.append(tuple(table))
        k += w
    return tuple(tables)


def _decode(verts: Edge, masks: Iterable[int]) -> list[Edge]:
    """Each mask as the sorted tuple of the vertices its bits stand for."""
    # a mask's lookups concatenate from its high bits down: two lookups up
    # to 16 vertices and three up to 24, unrolled, and a loop over the
    # tables above.  No mask has a bit past the last table, so its lookup
    # needs no mask
    tables = _decode_tables(verts)
    if len(tables) == 2:
        a, b = tables
        low = len(a) - 1
        s = low.bit_length()
        return [b[m >> s] + a[m & low] for m in masks]
    if len(tables) == 3:
        a, b, c = tables
        low, mid = len(a) - 1, len(b) - 1
        s = low.bit_length()
        t = s + mid.bit_length()
        return [c[m >> t] + b[m >> s & mid] + a[m & low] for m in masks]
    cuts = [(table, len(table) - 1, (len(table) - 1).bit_length()) for table in tables]
    out = []
    for m in masks:
        t: Edge = ()
        for table, low, s in cuts:
            t = table[m & low] + t
            m >>= s
        out.append(t)
    return out


def _in_canonical_order(masks: list[int]) -> list[int]:
    """Sort masks, in place, into the canonical order of the sets they stand
    for: by size, then the greater mask first."""
    masks.sort(reverse=True)
    masks.sort(key=int.bit_count)
    return masks


def maximal_independent_sets(
    h: Clutter, *, edge_budget: int = DEFAULT_EDGE_BUDGET
) -> tuple[tuple[int, ...], ...]:
    """All maximal sets of vertices containing no edge of h.

    These are exactly the complements, within the vertex set of h, of the
    minimal transversals, so they cost one fold and edge_budget caps it
    as in blocker.  Isolated vertices outside the edges of h are not
    modeled.
    """
    verts, masks = _fold(h, edge_budget)
    full = (1 << len(verts)) - 1
    return tuple(_decode(verts, _in_canonical_order([full ^ t for t in masks])))


def cheapest_transversal(
    h: Clutter,
    weights: Sequence[int] | None = None,
    *,
    literals: bool = False,
    edge_budget: int = DEFAULT_EDGE_BUDGET,
) -> Edge | None:
    """The minimal transversal of h with the least cost, then the fewest
    vertices, then the least tuple; or None if there is none.

    A set costs the sum of weights[v] over its vertices v, non-negative
    ints; with weights None every set costs 0.  With literals, only sets
    that hold no vertex v together with v ^ 1 count, and the fold drops
    every other set as soon as it is built.  edge_budget caps the fold as
    in blocker, and the answer and its budget trips are those of a scan of
    the blocker (of its consistent sets, with literals).  It reads _fold
    as blocker does, asking, without weights, for only the greatest mask
    of the fewest bits.
    """
    verts, family = _fold(h, edge_budget, literals, weights is None)
    if not family:
        return None
    if weights is not None:
        family = _least_cost(verts, family, weights)
    fewest = min(map(int.bit_count, family))
    first = max([m for m in family if m.bit_count() == fewest])
    return _decode(verts, [first])[0]


def _least_cost(verts: Edge, masks: list[int], weights: Sequence[int]) -> list[int]:
    """The masks of least cost, where bit n - 1 - i costs weights[verts[i]]."""
    costs = [0] * len(masks)
    rev = verts[::-1]
    # eight bits at a time, from the low bits up: entry j of the table sums
    # the weights of the bits set in j
    for k in range(0, len(rev), 8):
        table = [0]
        for v in rev[k:k + 8]:
            table += [x + weights[v] for x in table]
        costs = [c + table[m >> k & 255] for c, m in zip(costs, masks)]
    least = min(costs)
    return [m for m, c in zip(masks, costs) if c == least]

