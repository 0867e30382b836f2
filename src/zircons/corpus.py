"""Exhaustive small-poset generation and independent brute-force oracles.

Everything here exists to falsify the clever implementations elsewhere:
the matching enumerator is checked against unconstrained backtracking,
the Mobius recursion against zeta-matrix inversion, and poset counts
against the known unlabeled sequence 1, 2, 5, 16, 63, 318.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Iterator

from .posets import (
    Poset,
    PosetError,
    _bits,
    _iso_search,
    _order,
    _poset,
    _signatures,
    build_poset,
    leq,
)

__all__ = [
    "MAX_EXHAUSTIVE_N",
    "enumerate_posets",
    "enumerate_matchings",
    "mobius_oracle",
    "mobius_matrix",
    "random_poset",
]

MAX_EXHAUSTIVE_N = 7


def _natural_strict_orders(n: int) -> Iterator[list[int]]:
    """Strict-downset bitmasks of all posets on 0..n-1 for which the index
    order is a linear extension.

    Element j may take any order ideal of the poset on 0..j-1 as its
    strict downset; that choice is exactly what transitivity allows.
    """
    below = [0] * n

    def extend(j: int) -> Iterator[list[int]]:
        if j == n:
            yield below[:]
            return
        for mask in range(1 << j):
            if not any(below[i] & ~mask for i in _bits(mask)):
                below[j] = mask
                yield from extend(j + 1)
        below[j] = 0

    if n == 0:
        yield []
        return
    yield from extend(1)


def _poset_from_masks(below: list[int]) -> Poset:
    """The poset on "0".."n-1" whose strict downsets, already closed, are
    ``below``."""
    n = len(below)
    ids = tuple(map(str, range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if below[j] >> i & 1]
    return _poset(ids, *_order(ids, pairs))


def _iso_classes(n: int) -> Iterator[Poset]:
    buckets: dict[tuple, list[Poset]] = {}
    for below in _natural_strict_orders(n):
        P = _poset_from_masks(below)
        key = _signatures(P)[1]  # an isomorphism invariant
        reps = buckets.setdefault(key, [])
        if any(_iso_search(rep, P, find_all=False) for rep in reps):
            continue
        reps.append(P)
        yield P


def enumerate_posets(n: int, canonical: bool = True) -> Iterator[Poset]:
    """All posets on n elements labeled "0".."n-1".

    With ``canonical=True`` one representative per isomorphism class is
    produced; otherwise every labeled poset appears exactly once (each
    class expanded through all distinct relabelings).
    """
    if n < 0:
        raise PosetError("n must be nonnegative")
    if n > MAX_EXHAUSTIVE_N:
        raise PosetError(f"exhaustive enumeration capped at n <= {MAX_EXHAUSTIVE_N}")
    if canonical:
        yield from _iso_classes(n)
        return
    ids = tuple(map(str, range(n)))
    for rep in _iso_classes(n):
        cover_idx = [(i, j) for i, ups in enumerate(rep._up) for j in ups]
        seen: set[frozenset] = set()
        for perm in permutations(range(n)):
            relabeled = frozenset((perm[i], perm[j]) for i, j in cover_idx)
            if relabeled in seen:
                continue
            seen.add(relabeled)
            # relabelling carries covers to covers, so the pairs need no check
            yield _poset(ids, *_order(ids, sorted(relabeled)))


def enumerate_matchings(P: Poset) -> list[dict[str, str]]:
    """ALL perfect matchings of the Hasse diagram, no special filter.

    Deliberately plain backtracking, kept independent of the pruned
    enumerator it serves as an oracle for.
    """
    n = len(P)
    if n % 2 == 1:
        return []
    neighbors = [sorted(P._down[i] + P._up[i]) for i in range(n)]
    partner = [-1] * n
    out: list[dict[str, str]] = []

    def extend(lo: int) -> None:
        i = lo
        while i < n and partner[i] != -1:
            i += 1
        if i == n:
            out.append({P.elements[a]: P.elements[b] for a, b in enumerate(partner)})
            return
        for j in neighbors[i]:
            if partner[j] == -1:
                partner[i] = j
                partner[j] = i
                extend(i + 1)
                partner[i] = -1
                partner[j] = -1

    extend(0)
    return out


def mobius_matrix(P: Poset) -> dict[tuple[str, str], int]:
    """Full Mobius table by inverting the zeta matrix over the integers.

    The elements are put in a linear extension so zeta is unitriangular;
    the inverse comes from exact back substitution, a route disjoint from
    the recursive implementation.
    """
    order = list(P._topo)
    k = len(order)
    zeta = [[1 if (a == b or P._below[order[b]] >> order[a] & 1) else 0 for b in range(k)] for a in range(k)]
    inv = [[0] * k for _ in range(k)]
    for a in range(k):
        inv[a][a] = 1
        for b in range(a + 1, k):
            s = 0
            for c in range(a, b):
                if zeta[c][b]:
                    s += inv[a][c]
            inv[a][b] = -s
    out: dict[tuple[str, str], int] = {}
    for a in range(k):
        for b in range(k):
            if zeta[a][b]:
                out[(P.elements[order[a]], P.elements[order[b]])] = inv[a][b]
    return out


def mobius_oracle(P: Poset, x, y) -> int:
    """Mobius value from the zeta-inversion table."""
    if not leq(P, x, y):
        raise PosetError(f"{x!r} is not below {y!r}")
    return mobius_matrix(P)[(str(x), str(y))]


def random_poset(n: int, seed: int, density: float = 0.3) -> Poset:
    """Random DAG on "0".."n-1": each forward pair kept with probability
    ``density``, then closed and reduced. Deterministic per seed."""
    if not 0.0 <= density <= 1.0:
        raise PosetError("density must lie in [0, 1]")
    rng = random.Random(seed)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                pairs.append((str(i), str(j)))
    return build_poset([str(i) for i in range(n)], pairs, mode="relations")
