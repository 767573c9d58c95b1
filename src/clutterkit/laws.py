"""Randomized identity suite for the clutter algebra.

Checks, on seeded random inputs, that single-vertex minors commute, that
join and meet form a bounded distributive lattice with prime top and
bottom, and that the blocker swaps each operation with its dual.
"""
from __future__ import annotations

import random
from typing import Callable

from .blocker import blocker
from .core import Clutter, ONE, ZERO, _Value, _check_int
from .generate import random_clutter


class LawResult(_Value):
    __slots__ = ("name", "ok", "samples", "detail")

    name: str
    ok: bool
    samples: int
    detail: str | None

    def __init__(self, name: str, ok: bool, samples: int, detail: str | None = None):
        super().__init__(name, ok, samples, detail)


MAX_VERTICES = 8
MAX_EDGES = 6
MAX_RANK = 4


def _sample(rng: random.Random) -> Clutter:
    roll = rng.random()
    if roll < 0.03:
        return ZERO
    if roll < 0.06:
        return ONE
    n = rng.randint(1, MAX_VERTICES)
    return random_clutter(n, rng.randint(1, MAX_EDGES), MAX_RANK, rng.getrandbits(32))


# each law reads one sample: clutters f, g and h, their blockers bf, bg and
# bh, two distinct vertices u and v, and two disjoint vertex lists s and t
_LAWS: dict[str, Callable[..., bool]] = {
    "deletion and contraction commute": lambda h, u, v, **_: (
        h.delete(v).delete(u) == h.delete(u).delete(v)
        and h.delete(v).contract(u) == h.contract(u).delete(v)
        and h.contract(v).contract(u) == h.contract(u).contract(v)),
    "bounded distributive lattice": lambda f, g, h, **_: (
        f | g == g | f
        and f & g == g & f
        and (f | (g | h)) == ((f | g) | h)
        and (f & (g & h)) == ((f & g) & h)
        and (f | (f & g)) == f
        and (f & (f | g)) == f
        and (f | ZERO) == f
        and (f & ONE) == f
        and (f & (g | h)) == ((f & g) | (f & h))
        and (f | (g & h)) == ((f | g) & (f | h))),
    "top and bottom are prime": lambda f, g, **_: (
        (f | g).is_one == (f.is_one or g.is_one)
        and (f & g).is_zero == (f.is_zero or g.is_zero)),
    "blocker is an involution": lambda h, bh, **_: blocker(bh) == h,
    "blocker swaps deletion and contraction": lambda h, bh, v, **_: (
        blocker(h.delete(v)) == bh.contract(v)
        and blocker(h.contract(v)) == bh.delete(v)),
    "blocker swaps join and meet": lambda f, g, bf, bg, **_: (
        blocker(f | g) == bf & bg
        and blocker(f & g) == bf | bg),
    "blocker swaps the minor roles": lambda h, bh, s, t, **_: (
        blocker(h.restrict(s, t)) == bh.restrict(t, s)),
    "join distributes over single-vertex minors": lambda f, g, v, **_: (
        (f | g).delete(v) == f.delete(v) | g.delete(v)
        and (f | g).contract(v) == f.contract(v) | g.contract(v)),
}


def run_law_suite(samples: int = 500, seed: int = 0) -> list[LawResult]:
    """Run every law on `samples` random inputs; one result per law."""
    _check_int(samples, "sample count")
    if samples < 0:
        raise ValueError(f"sample count must be non-negative, got {samples}")
    rng = random.Random(seed)
    failures: dict[str, str] = {}
    if blocker(ZERO) != ONE:
        failures["blocker is an involution"] = "blocker of the edgeless clutter is not the unit"

    for _ in range(samples):
        f = _sample(rng)
        g = _sample(rng)
        h = _sample(rng)
        u, v = rng.sample(range(1, MAX_VERTICES + 3), 2)
        pool = list(range(1, MAX_VERTICES + 3))
        rng.shuffle(pool)
        cut = rng.randint(0, 3)
        s, t = pool[:cut], pool[cut : cut + rng.randint(0, 3)]
        sample = dict(f=f, g=g, h=h, bf=blocker(f), bg=blocker(g), bh=blocker(h),
                      u=u, v=v, s=s, t=t)
        for name, law in _LAWS.items():
            if not law(**sample):
                failures.setdefault(name, f"f={f!r} g={g!r} h={h!r} u={u} v={v} s={s} t={t}")

    return [LawResult(name, name not in failures, samples, failures.get(name)) for name in _LAWS]
