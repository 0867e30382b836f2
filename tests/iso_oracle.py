"""Oracles for the automorphism and isomorphism search of ``zircons.posets``
and for the orderly generation of ``zircons.corpus``.

``backtrack_isomorphisms`` is the plain backtracker that the library used
before its search narrowed the candidates after each choice: one fixed
signature class per element, each choice checked against the covers of
every element assigned before it. It visits the same variables and values
in the same order, so its first isomorphism is the library's witness.

``bruhat_automorphisms`` is an oracle from theory for whole Bruhat
orders, where the backtracker takes minutes (D4): the diagram
automorphisms, with and without inversion. ``in_search_order`` sorts
isomorphisms as the library's search meets them, so that the first is its
witness.

``iso_classes`` is the corpus deduplication that the library used before
its orderly generation: every naturally labelled order, bucketed by the
sorted signatures, kept unless ``_iso_search`` maps an earlier class of
its bucket onto it. ``least_tuple`` is the canonical form by brute force
over all orderings, and ``is_least_without_twins`` the canonicity search
without its twin pruning. ``labelled_posets`` expands every class through
all of its distinct relabellings.
"""

from itertools import permutations

from zircons.corpus import _poset_from_masks, enumerate_posets
from zircons.coxeter import CoxeterError, CoxeterSystem, DiagramAutomorphism
from zircons.posets import Poset, _bits, _from_lower, _iso_search, _signatures


def signatures(P: Poset) -> list[tuple[int, int, int, int, int]]:
    """(down-degree, up-degree, rank or -1, |strict downset|, |strict upset|)
    per element, computed afresh from the covers and the closure."""
    n = len(P)
    rank = P._rank if P._rank is not None else tuple([-1] * n)
    above = [0] * n
    for i in reversed(P._topo):
        for j in P._up[i]:
            above[i] |= above[j] | 1 << j
    return [
        (len(P._down[i]), len(P._up[i]), rank[i], P._below[i].bit_count(), above[i].bit_count())
        for i in range(n)
    ]


def backtrack_isomorphisms(P: Poset, Q: Poset, find_all: bool = True) -> list[tuple[int, ...]]:
    """Cover-preserving bijections P -> Q as index tuples, in the order the
    backtracking finds them; only the first unless ``find_all``.

    Since both relations are closures of their covers, preserving covers
    in both directions is the same as being an order isomorphism.
    """
    n = len(P)
    if n != len(Q) or sum(map(len, P._up)) != sum(map(len, Q._up)):
        return []
    if (P._rank is None) != (Q._rank is None):
        return []
    sig_p = signatures(P)
    sig_q = signatures(Q)
    if sorted(sig_p) != sorted(sig_q):
        return []
    candidates = _candidates(sig_q)
    order = _search_order(sig_p, candidates)
    # bit v of up_p[u] is set iff u is covered by v
    up_p = [sum(1 << v for v in vs) for vs in P._up]
    up_q = [sum(1 << w for w in ws) for ws in Q._up]

    found: list[tuple[int, ...]] = []
    mapping = [-1] * n
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            found.append(tuple(mapping))
            return not find_all
        v = order[pos]
        for w in candidates[sig_p[v]]:
            if used[w]:
                continue
            ok = True
            for u in order[:pos]:
                mu = mapping[u]
                if (up_p[u] >> v & 1 != up_q[mu] >> w & 1
                        or up_p[v] >> u & 1 != up_q[w] >> mu & 1):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if extend(pos + 1):
                return True
            used[w] = False
            mapping[v] = -1
        return False

    extend(0)
    return found


def _candidates(sig_q) -> dict[tuple, list[int]]:
    """The elements of Q of each signature."""
    candidates: dict[tuple, list[int]] = {}
    for j, s in enumerate(sig_q):
        candidates.setdefault(s, []).append(j)
    return candidates


def _search_order(sig_p, candidates) -> list[int]:
    """Rarest signatures first, ties broken by id position."""
    return sorted(range(len(sig_p)), key=lambda i: (len(candidates[sig_p[i]]), sig_p[i], i))


def in_search_order(P: Poset, Q: Poset, maps) -> list[tuple[int, ...]]:
    """Isomorphisms P -> Q in lexicographic order of their images along the
    search order of ``backtrack_isomorphisms``."""
    order = _search_order(signatures(P), _candidates(signatures(Q)))
    return sorted(maps, key=lambda m: [m[v] for v in order])


def bruhat_automorphisms(W: CoxeterSystem) -> list[tuple[int, ...]]:
    """The maps w -> theta(w) and w -> theta(w^-1), theta over the diagram
    automorphisms of W, as sorted index tuples on ``W.bruhat_poset()``.
    For A_n, B_n and D_n with n >= 3 these are every automorphism of the
    Bruhat order (Waterhouse, Automorphisms of the Bruhat order on
    Coxeter groups, Bull. LMS 1989)."""
    gens = W.generators
    maps = set()
    for images in permutations(gens):
        try:
            theta = DiagramAutomorphism(W, dict(zip(gens, images)))
        except CoxeterError:  # not a symmetry of the Coxeter matrix
            continue
        maps.add(tuple(theta._perm))
        maps.add(tuple(theta._perm[j] for j in W._inverse))
    return sorted(maps)


def natural_strict_orders(n: int):
    """Strict-downset bitmasks of all posets on 0..n-1 for which the index
    order is a linear extension, in lexicographic order, unpruned.

    Element j may take any order ideal of the poset on 0..j-1 as its
    strict downset; that choice is exactly what transitivity allows.
    """
    below = [0] * n

    def extend(j: int):
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


def iso_classes(n: int):
    """The first labelled poset of each class, in the order of
    ``natural_strict_orders``, found by pairwise isomorphism tests."""
    buckets: dict[tuple, list[Poset]] = {}
    for below in natural_strict_orders(n):
        P = _poset_from_masks(below)
        reps = buckets.setdefault(_signatures(P)[1], [])
        if any(_iso_search(rep, P, find_all=False) for rep in reps):
            continue
        reps.append(P)
        yield P


def least_tuple(below: list[int]) -> tuple[int, ...]:
    """Least ``(below'[1], ..., below'[n-1])`` over every ordering of the
    elements that is a linear extension, by trying all n! orderings."""
    n = len(below)
    best = None
    for order in permutations(range(n)):
        pos = [0] * n
        for p, x in enumerate(order):
            pos[x] = p
        if any(pos[y] > pos[x] for x in range(n) for y in _bits(below[x])):
            continue
        key = tuple(sum(1 << pos[y] for y in _bits(below[x])) for x in order[1:])
        if best is None or key < best:
            best = key
    return best


def is_least_without_twins(below: list[int], m: int) -> bool:
    """``zircons.corpus._is_least`` with every placeable element tried."""
    label = [0] * m

    def search(p: int, placed: int) -> bool:
        if p == m:
            return True
        for x in range(m):
            if placed >> x & 1 or below[x] & ~placed:
                continue
            mask = sum(label[y] for y in _bits(below[x]))
            if mask < below[p]:
                return False
            if mask == below[p]:
                label[x] = 1 << p
                if not search(p + 1, placed | 1 << x):
                    return False
        return True

    return search(0, 0)


def labelled_posets(n: int):
    """Every poset on "0".."n-1" exactly once: each class of
    ``enumerate_posets`` under all of its distinct relabellings."""
    ids = tuple(map(str, range(n)))
    for rep in enumerate_posets(n):
        cover_idx = [(i, j) for i, ups in enumerate(rep._up) for j in ups]
        seen: set[frozenset] = set()
        for perm in permutations(range(n)):
            relabeled = frozenset((perm[i], perm[j]) for i, j in cover_idx)
            if relabeled in seen:
                continue
            seen.add(relabeled)
            # relabelling carries covers to covers, so the pairs need no check
            yield _from_lower(ids, [sorted(i for i, k in relabeled if k == j) for j in range(n)],
                              covers=False)
