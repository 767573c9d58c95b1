"""Clutters (Sperner families) over non-negative integer vertices.

A clutter is a finite antichain of finite sets: no edge contains another.
Values are immutable and canonical.  Edges are stored once, as sorted
tuples ordered by size and then lexicographically, so two clutters are
equal exactly when their edge sequences are equal.  `edge_sets` builds
fresh frozensets on each access: read it once, outside loops.  The
lattice is bounded by ZERO (no edges at all) and ONE (the single edge {}).

All operations are pure functions of their inputs; results never alias
mutable state, so values can be shared freely across threads.
"""
from __future__ import annotations

from typing import Iterable, Iterator

Edge = tuple[int, ...]


def _canonical(edges: Iterable[Edge]) -> tuple[Edge, ...]:
    return tuple(sorted(edges, key=lambda e: (len(e), e)))


def _minimal(sets: Iterable[frozenset]) -> list[Edge]:
    """Inclusion-minimal members of the family, deduplicated, as sorted tuples."""
    kept: list[frozenset] = []
    for s in sorted(set(sets), key=len):
        if not any(t <= s for t in kept):
            kept.append(s)
    return [tuple(sorted(s)) for s in kept]


class _Value:
    """Immutable value held in one slot, which its constructor accepts."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy go through the constructor
        return type(self), (getattr(self, self.__slots__[0]),)


class Clutter(_Value):
    """Canonical clutter value.

    The constructor accepts any family of vertex iterables and removes
    every set that contains another one (including duplicates), so the
    antichain invariant holds for every constructed value.
    """

    __slots__ = ("edges",)

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
        object.__setattr__(self, "edges", _canonical(_minimal(pool)))

    @classmethod
    def _from_antichain(cls, edges: Iterable[Edge]) -> "Clutter":
        """Wrap sorted tuples already known to be pairwise incomparable."""
        c = cls.__new__(cls)
        object.__setattr__(c, "edges", _canonical(edges))
        return c

    @property
    def edge_sets(self) -> tuple[frozenset, ...]:
        """Edges as frozensets, in canonical order, built on each access."""
        return tuple(map(frozenset, self.edges))

    @property
    def vertices(self) -> Edge:
        """Union of all edges, sorted."""
        return tuple(sorted(set().union(*self.edges)))

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
        return self.restrict((v,), ())

    def contract(self, v: int) -> "Clutter":
        """Remove v from every edge, then re-minimalize."""
        return self.restrict((), (v,))

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
        survivors = [e for e in self.edges if d.isdisjoint(e)]
        if not c or c.isdisjoint(v for e in survivors for v in e):
            return Clutter._from_antichain(survivors)
        return Clutter([v for v in e if v not in c] for e in survivors)

    def join(self, other: "Clutter") -> "Clutter":
        """Minimalized union of the two edge families."""
        return Clutter(self.edges + other.edges)

    def meet(self, other: "Clutter") -> "Clutter":
        """Minimalized family of pairwise unions."""
        return Clutter(a + b for a in self.edges for b in other.edges)

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
        s = set(edge)
        try:
            key = tuple(sorted(s))
        except TypeError:  # labels that do not even compare are no vertices
            return False
        return key in self.edges

    def __repr__(self) -> str:
        return f"Clutter({[list(e) for e in self.edges]})"


ZERO = Clutter()
ONE = Clutter([()])
