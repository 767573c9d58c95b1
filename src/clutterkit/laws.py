"""Randomized identity suite for the clutter algebra.

Checks, on seeded random inputs, that single-vertex minors commute, that
join and meet form a bounded distributive lattice with prime top and
bottom, and that the blocker swaps each operation with its dual.
"""
from __future__ import annotations

import random

from .blocker import blocker
from .core import Clutter, ONE, ZERO, _Value
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


def run_law_suite(samples: int = 500, seed: int = 0) -> list[LawResult]:
    """Run every law on `samples` random inputs; one result per law."""
    if samples < 0:
        raise ValueError(f"sample count must be non-negative, got {samples}")
    rng = random.Random(seed)
    names = [
        "deletion and contraction commute",
        "bounded distributive lattice",
        "top and bottom are prime",
        "blocker is an involution",
        "blocker swaps deletion and contraction",
        "blocker swaps join and meet",
        "blocker swaps the minor roles",
        "join distributes over single-vertex minors",
    ]
    failures: dict[str, str] = {}

    def record(name: str, ok: bool, ctx: str):
        if not ok and name not in failures:
            failures[name] = ctx

    if blocker(ZERO) != ONE:
        failures[names[3]] = "blocker of the edgeless clutter is not the unit"

    for _ in range(samples):
        f = _sample(rng)
        g = _sample(rng)
        h = _sample(rng)
        u, v = rng.sample(range(1, MAX_VERTICES + 3), 2)
        pool = list(range(1, MAX_VERTICES + 3))
        rng.shuffle(pool)
        cut = rng.randint(0, 3)
        s, t = pool[:cut], pool[cut : cut + rng.randint(0, 3)]
        ctx = f"f={f!r} g={g!r} h={h!r} u={u} v={v} s={s} t={t}"

        record(names[0],
               h.delete(v).delete(u) == h.delete(u).delete(v)
               and h.delete(v).contract(u) == h.contract(u).delete(v)
               and h.contract(v).contract(u) == h.contract(u).contract(v),
               ctx)
        record(names[1],
               f | g == g | f
               and f & g == g & f
               and (f | (g | h)) == ((f | g) | h)
               and (f & (g & h)) == ((f & g) & h)
               and (f | (f & g)) == f
               and (f & (f | g)) == f
               and (f | ZERO) == f
               and (f & ONE) == f
               and (f & (g | h)) == ((f & g) | (f & h))
               and (f | (g & h)) == ((f | g) & (f | h)),
               ctx)
        record(names[2],
               ((f | g).is_one) == (f.is_one or g.is_one)
               and ((f & g).is_zero) == (f.is_zero or g.is_zero),
               ctx)
        record(names[3], blocker(blocker(h)) == h, ctx)
        record(names[4],
               blocker(h.delete(v)) == blocker(h).contract(v)
               and blocker(h.contract(v)) == blocker(h).delete(v),
               ctx)
        record(names[5],
               blocker(f | g) == blocker(f) & blocker(g)
               and blocker(f & g) == blocker(f) | blocker(g),
               ctx)
        record(names[6], blocker(h.restrict(s, t)) == blocker(h).restrict(t, s), ctx)
        record(names[7],
               (f | g).delete(v) == f.delete(v) | g.delete(v)
               and (f | g).contract(v) == f.contract(v) | g.contract(v),
               ctx)

    return [
        LawResult(name, name not in failures, samples, failures.get(name))
        for name in names
    ]
