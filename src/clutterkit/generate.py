"""Built-in clutter families: disjoint matchings, staircases, seeded random."""
from __future__ import annotations

import random

from .core import Clutter, _check_int


def kk2(k: int) -> Clutter:
    """The matching clutter of k disjoint pairs {2i, 2i+1}."""
    _check_int(k, "pair count")
    if k < 1:
        raise ValueError("the matching family needs at least one pair")
    return Clutter([(2 * i, 2 * i + 1) for i in range(k)])


def staircase(n: int) -> Clutter:
    """Edges S_i = {i} | {n+1 .. n+i} for i = 1..n.

    The family carries a semi-matching of size n built from the pairs
    {i, n+i}, yet has no matching minor of two pairs.
    """
    _check_int(n, "step count")
    if n < 1:
        raise ValueError("the staircase family needs at least one step")
    return Clutter([[i] + [n + j for j in range(1, i + 1)] for i in range(1, n + 1)])


def random_clutter(n: int, m: int, r: int, seed: int) -> Clutter:
    """Minimalized sample of m edges of size at most r over vertices 1..n.

    Edge sizes are drawn uniformly from 1..min(r, n) and vertices without
    replacement, so the same seed always produces the same clutter.
    """
    _check_int(n, "vertex count")
    _check_int(m, "edge count")
    _check_int(r, "rank cap")
    if n < 1 or m < 1 or r < 1:
        raise ValueError("vertex count, edge count and rank cap must be positive")
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        size = rng.randint(1, min(r, n))
        edges.append(rng.sample(range(1, n + 1), size))
    return Clutter(edges)
