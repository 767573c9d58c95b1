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

With literals set, the fold also drops, as soon as it is built, every set
holding both a vertex v and v ^ 1; first_consistent_transversal folds
only the consistent sets this way for solve_sat, since the literals of
variable i are 2i and 2i + 1.  Such v and v ^ 1 differ by one, and the
fold gives the vertices bits in ascending order, so whenever both occur
they sit on adjacent bits p and p + 1, and comparing each vertex with the
next finds them.  One int, pairs, has bit p set for each such pair, and
the vertices that clash with a vertex of a mask m are (m & pairs) << 1 |
(m >> 1) & pairs.  The pruned fold yields exactly the consistent members
of the blocker, in the same canonical order:

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
finds every mover t for which t | c is kept.  Smaller steps keep the
per-mover scan, which costs less there.

On few vertices the subset lattice answers faster than a long fold.
With n vertices, a table of 2^n bits has bit S set when the subset S (bit
i for the i-th vertex) has some property, and holds[i] is the table of
the subsets holding vertex i.  A set is a non-transversal exactly when it
lies inside the complement of some edge, so the non-transversals are the
down-closure of those complements: set the bit of each complement, the
fold's edge mask XOR 2^n - 1, then for each i OR in
(miss & holds[i]) >> 2^i, which moves every set holding i to the set
without it.  The transversals T are the rest.  A transversal is minimal
when no set one vertex smaller is a transversal, so the minimal ones are
T minus the OR over i of (T << 2^i) & holds[i], the sets holding i whose
set without i is in T.  A clashing pair on adjacent bits p and p + 1
drops holds[p] & holds[p + 1] from T first; the kept sets are exactly the
consistent minimal transversals, because every subset of a consistent
set is consistent.  The set bits are read off a byte at a time: compress
over a cached tuple of the byte offsets picks out the nonzero bytes in C,
so only those cost Python work and no call makes an int per byte.  Each
table is 2^n bits, so at most 8 KB with n <= LATTICE_UP_TO = 16; the
cached holds tables take n of them for each n used, and the cached
offsets one int per byte of each table size used.

The lattice takes a few table operations per vertex, where the fold
tests family members one by one, so _fold decides once, before its first
step: on at most LATTICE_UP_TO vertices, with edge_budget >= C(n, n // 2),
the lattice answers, and otherwise the fold runs to the end.  That bound
keeps every answer and budget trip point the fold's: every family the
fold holds is an antichain (a subset of the minimal transversals of the
seen edges), so by Sperner's theorem (1928) it never holds more than
C(n, n // 2) sets, and with that budget the fold could not have tripped.

The fold hands its family over as bitmasks, and three consumers in this
module read them, each decoding only what it needs: blocker decodes the
masks into its clutter, maximal_independent_sets decodes the complement
of each mask within the vertex set, and first_consistent_transversal
picks the canonically first consistent set off the masks and decodes
only that one, bit by bit.  No other module sees a mask: solve_sat gets
the vertices of that one set.  _decode reads masks four bits at a time on
up to 16 vertices and eight above: each call builds four 4-bit tables up
to 16 vertices, three 8-bit tables up to 24 and one per eight vertices
above, each holding the sorted vertex tuple of every subset of its bits,
and a mask decodes to the concatenation of its lookups.

Blocking is an involution, swaps deletion with contraction and join with
meet; the property suite in the test tree exercises all of these.
"""
from __future__ import annotations

from functools import cache, reduce
from itertools import compress
from math import comb
from operator import or_
from typing import Iterable

from .core import Clutter, Edge, _canonical
from .errors import ResourceLimitError

DEFAULT_EDGE_BUDGET = 10**6

# a fold step with at least this many movers tests them all at once; on
# random rank-3 and rank-4 clutters packing is slower at 7 movers and
# faster from 8 on.  A formula on at most 8 variables has at most 16
# literal vertices, so with default budgets the lattice answers it and no
# step is packed.  solve_sat on 60 seeded 3-CNF formulas with round(4.2v)
# clauses, best of 15 on one Xeon core, took 37.5, 54.3 and 60.8 ms at 9,
# 10 and 12 variables, and never packing took 38.5, 55.8 and 75.2 ms
PACK_FROM = 8

# on at most LATTICE_UP_TO vertices the subset lattice answers every fold
# whose budget it may take over.  Against the fold alone (LATTICE_UP_TO =
# -1), per clutter, best of 15 on one Xeon core, it made clutters with 0.9n
# edges of rank 4 on 10 to 16 vertices 1.4x to 2.7x faster, 0.5n edges of
# rank 3 on 10 to 14 vertices 1.3x to 1.6x, and 3-CNF with 4.2v clauses
# on 4 and 6 variables 1.3x and 1.4x (even on 8).  It made the folds that
# finish early slower, since a 16-vertex lattice costs about 200 us
# whatever the clutter: 0.5n edges of rank 3 on 16 vertices 1.3x, kk2(8)
# 1.2x, staircase(7) 2x and staircase(8) 4.5x (51 to 232 us)
LATTICE_UP_TO = 16


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
    return Clutter._from_antichain(_decode(*_fold(h, edge_budget)))


def _fold(h: Clutter, edge_budget: int, literals: bool = False) -> tuple[Edge, list[int]]:
    """The minimal transversals of h; with literals, only those that hold
    no vertex v together with v ^ 1 (the literals 2i and 2i + 1).

    Returns the vertices of h and one bitmask per transversal, in which bit
    i stands for the i-th vertex.  Only the consumers in this module read
    the masks, and none relies on their order, which is unspecified:
    blocker and maximal_independent_sets sort what they decode, and
    first_consistent_transversal, the one caller with literals, picks its
    set from the masks.  On at most LATTICE_UP_TO vertices, where the fold
    could not trip edge_budget, _lattice returns the same masks in its
    place.
    """
    verts = h.vertices
    n = len(verts)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    masks = [sum(map(bit.__getitem__, e)) for e in h.edges]
    # bit p set when verts[p] clashes with verts[p + 1]
    pairs = sum(1 << p for p in range(n - 1) if verts[p] ^ 1 == verts[p + 1]) if literals else 0
    # no family of the fold passes C(n, n // 2) sets (Sperner), so with that
    # budget it cannot trip and the lattice may answer in its place
    if n <= LATTICE_UP_TO and edge_budget >= comb(n, n // 2):
        return verts, _lattice(n, masks, pairs)
    nbytes = n // 8 + 1  # one packed field: the vertex bits and a spare top bit
    family = [0]
    seen: list[int] = []
    for mask in masks:
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
    return verts, family


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
    each seen edge costs a fixed handful of big-int operations.
    """
    count = len(movers)
    top = 8 * nbytes - 1
    fam = int.from_bytes(b"".join([t.to_bytes(nbytes, "little") for t in movers]), "little")
    low = int.from_bytes((b"\1" + bytes(nbytes - 1)) * count, "little")
    guard = low << top
    privs = []
    for f in seen:
        v = fam & f * low  # t & f in every field, never 0
        single = (guard - (v & (v - low))) & guard  # top bit set where t & f is one vertex
        privs.append(v & (single - (single >> top)))
    rest = mask
    while rest:
        c = rest & -rest
        rest ^= c
        # a field of x is 0 exactly when every vertex of t keeps a private
        # edge missing c and no vertex of t clashes with c
        x = fam ^ reduce(or_, compress(privs, [not f & c for f in seen]), 0)
        x |= fam & ((c & pairs) << 1 | (c >> 1) & pairs) * low
        ok = (guard - x) & guard
        hits = ok.bit_count()
        if not hits:
            continue
        if len(family) + hits > edge_budget:
            raise _over_budget(edge_budget)
        flags = (ok >> top).to_bytes(count * nbytes, "little")[::nbytes]
        family.extend([t | c for t in compress(movers, flags)])


@cache
def _holds(n: int) -> tuple[int, ...]:
    """For each i < n, the 2^n-bit table of the subsets holding vertex i."""
    full = (1 << (1 << n)) - 1
    # bit i of S repeats 2^i zeros then 2^i ones
    return tuple(((1 << w) - 1 << w) * (full // ((1 << 2 * w) - 1))
                 for w in (1 << i for i in range(n)))


@cache
def _offsets(size: int) -> tuple[int, ...]:
    """0 to size - 1, kept so that reading a table makes no int per byte."""
    return tuple(range(size))


_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def _lattice(n: int, masks: list[int], pairs: int) -> list[int]:
    """The masks _fold returns for the edge masks of a clutter on n vertices
    and the clash mask pairs, read off 2^n-bit tables of the subsets."""
    holds = _holds(n)
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
    up = 0
    for i, held in enumerate(holds):
        up |= (t << (1 << i)) & held
    t ^= t & up
    data = t.to_bytes(len(buf), "little")
    return [8 * j + i for j in compress(_offsets(len(data)), data) for i in _BITS[data[j]]]


def _over_budget(edge_budget: int) -> ResourceLimitError:
    return ResourceLimitError(f"blocker intermediate family exceeded {edge_budget} sets")


def _decode(verts: Edge, masks: Iterable[int]) -> list[Edge]:
    """Each mask as the sorted tuple of the vertices its bits stand for."""
    # one table per w bits: entry j holds the vertices of the bits set in j;
    # bit i stands for verts[i] and verts is sorted, so each tuple is too.
    # Each call builds its tables, which up to 16 vertices is a large share
    # of the call, so there w is 4, and above 16 it is 8.  Up to 24 vertices
    # the lookups are unrolled over four or three tables: a table past the
    # last vertex holds only (), which every mask indexes with 0, and no
    # mask has a bit past the last table, so its lookup needs no mask.
    n = len(verts)
    w, span = (4, 16) if n <= 16 else (8, max(n, 24))
    tables = []
    for k in range(0, span, w):
        table: list[Edge] = [()]
        for v in verts[k:k + w]:
            table += [x + (v,) for x in table]
        tables.append(table)
    if n <= 16:
        a, b, c, d = tables
        return [a[m & 15] + b[m >> 4 & 15] + c[m >> 8 & 15] + d[m >> 12] for m in masks]
    if n <= 24:
        a, b, c = tables
        return [a[m & 255] + b[m >> 8 & 255] + c[m >> 16] for m in masks]
    out = []
    for m in masks:
        t: Edge = ()
        for table in tables:
            t += table[m & 255]
            m >>= 8
        out.append(t)
    return out


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
    return _canonical(_decode(verts, [full ^ t for t in masks]))


def first_consistent_transversal(
    h: Clutter, *, edge_budget: int = DEFAULT_EDGE_BUDGET
) -> Edge | None:
    """The canonically first minimal transversal of h that holds no vertex
    v together with v ^ 1, or None if there is none.

    This is the answer solve_sat reads off the literal clutter of a
    formula.  The fold drops each clashing set as soon as it is built, so
    edge_budget caps the consistent family, as in blocker.
    """
    verts, masks = _fold(h, edge_budget, literals=True)
    if not masks:
        return None
    # the canonically first set: the fewest vertices, then lex-first; bit i
    # stands for verts[i], so of two masks of one size the lex-first holds
    # the lowest bit in which they differ
    fewest = min(map(int.bit_count, masks))
    best, *rest = [m for m in masks if m.bit_count() == fewest]
    for m in rest:
        d = m ^ best
        if m & d & -d:
            best = m
    return tuple([v for i, v in enumerate(verts) if best >> i & 1])
