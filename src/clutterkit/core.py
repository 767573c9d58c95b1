"""Clutters (Sperner families) over non-negative integer vertices.

A clutter is a finite antichain of finite sets: no edge contains another.
Values are immutable and canonical.  Edges are stored as sorted tuples,
ordered by size and then lexicographically, so two clutters are equal
exactly when their edge sequences are equal.  The lattice is bounded by
ZERO (no edges at all) and ONE (the single edge {}).

All operations are pure functions of their inputs; results never alias
mutable state, so values can be shared freely across threads.
"""
from __future__ import annotations

from typing import Iterable, Iterator

Edge = tuple[int, ...]


def _edge_key(e: Edge) -> tuple[int, Edge]:
    return (len(e), e)


def _minimal(sets: Iterable[frozenset]) -> list[frozenset]:
    """Inclusion-minimal members of the family, deduplicated."""
    kept: list[frozenset] = []
    for s in sorted(set(sets), key=len):
        if not any(t <= s for t in kept):
            kept.append(s)
    return kept


class Clutter:
    """Canonical clutter value.

    The constructor accepts any family of vertex iterables and removes
    every set that contains another one (including duplicates), so the
    antichain invariant holds for every constructed value.
    """

    __slots__ = ("edges", "_sets")

    edges: tuple[Edge, ...]

    def __init__(self, edges: Iterable[Iterable[int]] = ()):
        pool = []
        for e in edges:
            s = frozenset(e)
            for v in s:
                # exact ints skip the isinstance tests; bool is an int
                # subclass whose labels would not parse back
                if (v.__class__ is not int
                        and (isinstance(v, bool) or not isinstance(v, int))
                        or v < 0):
                    raise ValueError(
                        f"vertex labels must be non-negative integers, got {v!r}"
                    )
            pool.append(s)
        self._sets = tuple(
            sorted((frozenset(s) for s in _minimal(pool)),
                   key=lambda s: _edge_key(tuple(sorted(s))))
        )
        self.edges = tuple(tuple(sorted(s)) for s in self._sets)

    @classmethod
    def _from_antichain(cls, sets: Iterable[frozenset]) -> "Clutter":
        """Wrap sets already known to be pairwise incomparable."""
        c = cls.__new__(cls)
        c._sets = tuple(sorted(sets, key=lambda s: _edge_key(tuple(sorted(s)))))
        c.edges = tuple(tuple(sorted(s)) for s in c._sets)
        return c

    @property
    def edge_sets(self) -> tuple[frozenset, ...]:
        """Edges as frozensets, in canonical order."""
        return self._sets

    @property
    def vertices(self) -> Edge:
        """Union of all edges, sorted."""
        out: set[int] = set()
        for s in self._sets:
            out |= s
        return tuple(sorted(out))

    @property
    def is_zero(self) -> bool:
        return not self.edges

    @property
    def is_one(self) -> bool:
        return self.edges == ((),)

    def rank(self) -> int:
        """Largest edge size.  Undefined (raises) when there are no edges."""
        if self.is_zero:
            raise ValueError("rank is undefined for the clutter with no edges")
        return len(self.edges[-1])

    def delete(self, v: int) -> "Clutter":
        """Drop every edge containing v.  The result needs no re-minimalizing."""
        if not any(v in s for s in self._sets):
            return self
        return Clutter._from_antichain(s for s in self._sets if v not in s)

    def contract(self, v: int) -> "Clutter":
        """Remove v from every edge, then re-minimalize."""
        if not any(v in s for s in self._sets):
            return self
        return Clutter(s - {v} for s in self._sets)

    def restrict(self, delete: Iterable[int], contract: Iterable[int]) -> "Clutter":
        """Delete all of one vertex set, then contract all of another.

        The two sets must be disjoint; the outcome does not depend on the
        order in which the individual deletions and contractions are
        interleaved.
        """
        d = frozenset(delete)
        c = frozenset(contract)
        if d & c:
            raise ValueError(
                f"deletion and contraction sets overlap on {sorted(d & c)}"
            )
        survivors = [s for s in self._sets if not (s & d)]
        if not c:
            return Clutter._from_antichain(survivors)
        return Clutter(s - c for s in survivors)

    def join(self, other: "Clutter") -> "Clutter":
        """Minimalized union of the two edge families."""
        return Clutter(self._sets + other._sets)

    def meet(self, other: "Clutter") -> "Clutter":
        """Minimalized family of pairwise unions."""
        return Clutter(a | b for a in self._sets for b in other._sets)

    def __or__(self, other: object) -> "Clutter":
        if not isinstance(other, Clutter):
            return NotImplemented
        return self.join(other)

    def __and__(self, other: object) -> "Clutter":
        if not isinstance(other, Clutter):
            return NotImplemented
        return self.meet(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clutter):
            return NotImplemented
        return self.edges == other.edges

    def __hash__(self) -> int:
        return hash(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __contains__(self, edge: Iterable[int]) -> bool:
        return frozenset(edge) in set(self._sets)

    def __repr__(self) -> str:
        return f"Clutter({[list(e) for e in self.edges]})"


ZERO = Clutter()
ONE = Clutter([()])
