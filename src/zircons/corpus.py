"""Exhaustive small-poset generation and independent brute-force oracles.

Everything here exists to falsify the clever implementations elsewhere:
the matching enumerator is checked against unconstrained backtracking,
the Mobius recursion against zeta-matrix inversion, and poset counts
against the known unlabeled sequence 1, 2, 5, 16, 63, 318, 2045 (OEIS
A000112). The classes come from orderly generation: each labelled order
is kept only if it is the least natural labelling of its class, a test
made on every prefix as it grows, so no two posets are ever compared for
isomorphism.
"""

from __future__ import annotations

import random
from typing import Iterator

from .posets import (
    Poset,
    PosetError,
    _bits,
    _from_lower,
    _induced,
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


def _is_least(below: list[int], m: int) -> bool:
    """Whether ``(below[1], ..., below[m-1])`` is the least such tuple over
    all natural labellings of the poset on 0..m-1 that it describes.

    A natural labelling is a linear extension. The search places one
    placeable element per position, relabels its strict downset, and
    compares the mask with ``below`` at that position: smaller decides,
    larger prunes, equal goes on. Two placeable elements with the same
    strict downset and the same strict upset are exchanged by an
    automorphism that fixes everything else, so only one of them is tried.
    """
    down = [_bits(below[y]) for y in range(m)]
    above = [0] * m
    for y in range(1, m):
        for x in down[y]:
            above[x] |= 1 << y
    label = [0] * m  # 1 << new position, for each placed element

    def search(p: int, placed: int) -> bool:
        if p == m:
            return True
        target = below[p]
        tried = set()
        for x in range(m):
            if placed >> x & 1 or below[x] & ~placed:
                continue
            twin = (below[x], above[x])
            if twin in tried:
                continue
            tried.add(twin)
            mask = 0
            for y in down[x]:
                mask |= label[y]
            if mask < target:
                return False
            if mask == target:
                label[x] = 1 << p
                if not search(p + 1, placed | 1 << x):
                    return False
        return True

    return search(0, 0)


def _least_strict_orders(n: int) -> Iterator[list[int]]:
    """The least strict-downset tuple of each poset class on n elements,
    in lexicographic order: orderly generation (Read 1978; Brinkmann and
    McKay 2002).

    Element j may take any order ideal of the poset on 0..j-1 as its
    strict downset; that choice is exactly what transitivity allows, and
    masks are tried in ascending order, so tuples come in lexicographic
    order. Two facts prune the tree:

    - A prefix of a least tuple is least. The first j+1 positions of a
      natural labelling form an order ideal; relabelling that ideal keeps
      a natural labelling of the whole poset, and the comparison of
      tuples is decided on the prefix first. So a branch whose prefix
      fails ``_is_least`` holds no least tuple.
    - A least tuple is non-decreasing. If positions j-1 and j are
      incomparable, swapping them keeps a natural labelling and puts
      ``below[j]`` at position j-1; if they are comparable, ``below[j]``
      has bit j-1 set and so exceeds ``below[j-1]``. So the masks for j
      start at ``below[j-1]``.
    """
    below = [0] * n

    def extend(j: int) -> Iterator[list[int]]:
        if j == n:
            yield below[:]
            return
        for mask in range(below[j - 1], 1 << j):
            if not any(below[i] & ~mask for i in _bits(mask)):
                below[j] = mask
                if _is_least(below, j + 1):
                    yield from extend(j + 1)

    if n == 0:
        yield []
        return
    yield from extend(1)


def _poset_from_masks(below: list[int]) -> Poset:
    """The poset on "0".."n-1" whose strict downsets, already closed, are
    ``below``."""
    return _induced(tuple(map(str, range(len(below)))), below, range(len(below)))


def enumerate_posets(n: int) -> Iterator[Poset]:
    """One poset on "0".."n-1" per isomorphism class: its least natural
    labelling, the one whose strict downsets (as index bitmasks of
    elements 1..n-1) form the lexicographically least tuple, with the
    classes in the order of that tuple."""
    if n < 0:
        raise PosetError("n must be nonnegative")
    if n > MAX_EXHAUSTIVE_N:
        raise PosetError(f"exhaustive enumeration capped at n <= {MAX_EXHAUSTIVE_N}")
    yield from map(_poset_from_masks, _least_strict_orders(n))


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
    lower: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                lower[j].append(i)
    return _from_lower(tuple(str(i) for i in range(n)), lower, covers=False)
