"""Reference answers computed without the code under test.

Everything here works on plain Python sets and tuples, by brute force or by
a direct reading of a definition, so a bug in clutterkit cannot also hide in
the reference.  These run in set-up, never inside the timed loop.
"""
from __future__ import annotations

import itertools
from math import comb


def minimalize(sets):
    """Inclusion-minimal members of a family of frozensets, deduplicated."""
    out = []
    for s in sorted(set(sets), key=len):
        if not any(t <= s for t in out):
            out.append(s)
    return set(out)


def minimal_transversals(edges):
    """Every inclusion-minimal transversal, by enumerating all vertex subsets.

    A subset is a non-transversal exactly when it misses some edge, i.e. lies
    inside the complement of an edge; those are marked first, then each
    transversal is kept if dropping any one of its vertices breaks it.
    """
    verts = sorted(set().union(*edges))
    if len(verts) > 20:
        raise ValueError("brute-force reference is limited to 20 vertices")
    pos = {v: i for i, v in enumerate(verts)}
    full = (1 << len(verts)) - 1
    missed = bytearray(1 << len(verts))
    for e in edges:
        comp = full & ~sum(1 << pos[v] for v in e)
        s = comp
        while True:
            missed[s] = 1
            if s == 0:
                break
            s = (s - 1) & comp
    out = set()
    for t in range(1 << len(verts)):
        if missed[t]:
            continue
        rest = t
        while rest:
            low = rest & -rest
            if not missed[t ^ low]:
                break
            rest ^= low
        else:
            out.add(frozenset(v for v in verts if t >> pos[v] & 1))
    return out


def canonical(sets):
    """Sorted tuples ordered by size, then lexicographically."""
    return sorted((tuple(sorted(s)) for s in sets), key=lambda e: (len(e), e))


def minor(edges, delete, contract):
    """Delete every edge meeting `delete`, strip `contract`, minimalize."""
    d, c = frozenset(delete), frozenset(contract)
    return minimalize(frozenset(e) - c for e in edges if not frozenset(e) & d)


def is_matching_minor(edges, delete, contract, pairs):
    """True iff the (delete, contract) minor is exactly the given disjoint pairs."""
    ps = [frozenset(p) for p in pairs]
    if set(delete) & set(contract) or any(len(p) != 2 for p in ps):
        return False
    if len(frozenset().union(*ps)) != 2 * len(ps):
        return False
    return minor(edges, delete, contract) == set(ps)


def find_two_matching_minor(edges):
    """A (delete, contract, pairs) witness of a 2-pair matching minor, or None.

    Tries the direct shape only: two disjoint edges, one pair inside each,
    the rest of their union contracted and everything else deleted.  When it
    finds a witness the minor is certainly present.
    """
    es = [frozenset(e) for e in edges]
    verts = frozenset().union(*es)
    for e1, e2 in itertools.combinations(es, 2):
        if e1 & e2:
            continue
        for l1 in itertools.combinations(sorted(e1), 2):
            for l2 in itertools.combinations(sorted(e2), 2):
                keep = frozenset(l1) | frozenset(l2)
                contract = (e1 | e2) - keep
                delete = verts - e1 - e2
                if is_matching_minor(es, delete, contract, (l1, l2)):
                    return tuple(sorted(delete)), tuple(sorted(contract)), (l1, l2)
    return None


def _condition4(edges, chosen):
    support = frozenset().union(*(s for _, s in chosen))
    return all(any(l <= e for l, _ in chosen) for e in edges if e <= support)


def semi_matchings(edges):
    """All semi-matchings as frozensets of (pair, host) tuples.

    Grows pair lists in candidate order, keeping conditions 2 and 3a at every
    step and testing condition 4 on each complete list.
    """
    es = [frozenset(e) for e in edges]
    cands = [(frozenset(l), e) for e in es for l in itertools.combinations(sorted(e), 2)]
    found = []

    def grow(start, chosen):
        if _condition4(es, chosen):
            found.append(frozenset((tuple(sorted(l)), tuple(sorted(s))) for l, s in chosen))
        for i in range(start, len(cands)):
            l, s = cands[i]
            if all(not (l & l2) and not l <= s2 and not l2 <= s for l2, s2 in chosen):
                chosen.append((l, s))
                grow(i + 1, chosen)
                chosen.pop()

    grow(0, [])
    return set(found)


def is_expanded_minor_matching(edges, pairs):
    """Conditions 1, 2, 3a, 3b and 4 for (pair, host) tuples against edges."""
    es = {frozenset(e) for e in edges}
    ps = [(frozenset(l), frozenset(s)) for l, s in pairs]
    for i, (l, s) in enumerate(ps):
        if len(l) != 2 or not l <= s or s not in es:
            return False
        for j, (l2, s2) in enumerate(ps):
            if i != j and (l & l2 or l & s2):
                return False
    return _condition4(es, ps)


def blocker_size_bound(edge_count, r, k):
    limit = k * (2 * r - 3) * 2 ** (r - 2)
    return sum(comb(edge_count, m) * comb(r, 2) ** m for m in range(limit + 1))


def satisfied(clauses, true_vars):
    """True iff the assignment (set of true variables) satisfies every clause."""
    return all(any((lit > 0) == (abs(lit) in true_vars) for lit in c) for c in clauses)


def satisfiable(num_vars, clauses):
    """Truth-table search over all 2^n assignments."""
    for bits in range(1 << num_vars):
        true_vars = {v for v in range(1, num_vars + 1) if bits >> (v - 1) & 1}
        if satisfied(clauses, true_vars):
            return True
    return False


def min_cover_cost(universe_size, sets, weights):
    """Least total weight over every subfamily that covers 1..universe_size."""
    full = (1 << universe_size) - 1
    masks = [sum(1 << (u - 1) for u in s) for s in sets]
    cover = [0] * (1 << len(sets))
    cost = [0] * (1 << len(sets))
    best = None
    for f in range(1, 1 << len(sets)):
        low = (f & -f).bit_length() - 1
        rest = f & (f - 1)
        cover[f] = cover[rest] | masks[low]
        cost[f] = cost[rest] + weights[low]
        if cover[f] == full and (best is None or cost[f] < best):
            best = cost[f]
    return best
