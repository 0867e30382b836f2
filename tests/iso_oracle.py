"""Oracle for the automorphism and isomorphism search of ``zircons.posets``.

``backtrack_isomorphisms`` is the plain backtracker that the library used
before its search narrowed the candidates after each choice: one fixed
signature class per element, each choice checked against the covers of
every element assigned before it. It visits the same variables and values
in the same order, so its first isomorphism is the library's witness.
"""

from zircons.posets import Poset


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
    candidates: dict[tuple, list[int]] = {}
    for j, s in enumerate(sig_q):
        candidates.setdefault(s, []).append(j)
    # rarest signatures first, ties broken by id position
    order = sorted(range(n), key=lambda i: (len(candidates[sig_p[i]]), sig_p[i], i))
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
