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

from bisect import bisect_left
from operator import attrgetter
from typing import Iterable, Iterator

Edge = tuple[int, ...]

# edge types that Clutter() reads twice, to check and to build, as given
_REREADABLE = frozenset((list, tuple, frozenset))


def _check_int(value: object, what: str) -> None:
    """Raise ValueError unless value is an int other than a bool."""
    # exact ints skip the isinstance tests; bool is an int subclass
    if value.__class__ is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _check_count(value: object, what: str) -> None:
    """Raise ValueError unless value is an int other than a bool, at least 0."""
    _check_int(value, what)
    if value < 0:
        raise ValueError(f"{what} must be non-negative")


def _canonical(edges: Iterable[Edge]) -> tuple[Edge, ...]:
    # by size, then lexicographically: the sort by len is stable, and both
    # sorts compare in C
    return tuple(sorted(sorted(edges), key=len))


def _minimal(sets: Iterable[frozenset]) -> list[Edge]:
    """Inclusion-minimal members of the family, deduplicated, as sorted tuples."""
    kept: list[frozenset] = []
    smaller: list[frozenset] = []  # two different sets of one size never nest
    size = -1
    for s in sorted(set(sets), key=len):
        if len(s) != size:
            size, smaller = len(s), kept.copy()
        if not (smaller and any(t <= s for t in smaller)):
            kept.append(s)
    return [tuple(sorted(s)) for s in kept]


class _Value:
    """Immutable value whose fields are its slots.

    A subclass names its fields in `__slots__`, in the order its
    constructor takes them.  Its `__init__` checks the arguments and passes
    the field values, in that order, to `_Value.__init__`, which sets each
    slot once.  Every slot is set through its member descriptor, as in
    `Clutter.edges.__set__(c, edges)`, which writes the slot without going
    through the refusing `__setattr__`.  The hot one-field values bind that
    setter once at module level (`_set_edges`, `matching._set_pairs`), and
    their unchecked wrappers pair it with `object.__new__`, so a wrapped
    value runs no `__init__`.  Equality (same type, equal fields), hash,
    `repr` (`Name(field=value, ...)`) and pickling go by the field values,
    so a value with an unhashable field is unhashable.  Pickle and copy
    rebuild a value through its constructor with the fields as positional
    arguments, so each stored field must be a valid argument.  Setting or
    deleting an attribute raises AttributeError, and instances have no
    `__dict__`.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the fields as one key for equality and hashing; a lone field is its own key
        cls._key = attrgetter(*cls.__slots__)
        # each slot's member-descriptor setter, in field order
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *fields: object):
        for set_field, value in zip(self._setters, fields, strict=True):
            set_field(self, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


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
            # each label is checked as given: in a frozenset, True or 2.0
            # would already have collapsed into the int it equals
            if e.__class__ not in _REREADABLE:
                e = tuple(e)
            for v in e:
                # exact ints skip the isinstance tests; bool is an int
                # subclass whose labels would not parse back
                if (v.__class__ is not int
                        and (isinstance(v, bool) or not isinstance(v, int))
                        or v < 0):
                    raise ValueError(
                        f"vertex labels must be non-negative integers, got {v!r}"
                    )
            pool.append(frozenset(e))
        _set_edges(self, _canonical(_minimal(pool)))

    @classmethod
    def _from_antichain(cls, edges: Iterable[Edge]) -> "Clutter":
        """Wrap sorted tuples that are already in canonical order and known
        to be pairwise incomparable; neither is checked.  The callers are
        blocker, which decodes its masks in canonical order, and restrict,
        whose survivors keep the order of the edges they are taken from."""
        c = object.__new__(cls)
        _set_edges(c, tuple(edges))
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

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __contains__(self, edge: Iterable[int]) -> bool:
        s = set(edge)
        edges = self.edges
        try:
            key = tuple(sorted(s))
            i = bisect_left(edges, (len(key), key), key=lambda e: (len(e), e))
        except TypeError:  # labels that do not even compare are no vertices
            return False
        return i < len(edges) and edges[i] == key


_set_edges = Clutter.edges.__set__

ZERO = Clutter()
ONE = Clutter([()])
