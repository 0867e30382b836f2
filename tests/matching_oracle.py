"""Oracles for the special-matching search of ``zircons.matchings`` and for
``zircons.zircon.is_zircon``.

``recursive_special_partners`` is the search that the library used before
it kept its own stack: one recursive call per matched pair, so it raises
``RecursionError`` on a search deeper than about a thousand pairs. It
visits the members, their neighbours and the matchings in the same order
as the library, and it raises ``SearchLimitError`` at the same count.

``per_ideal_is_zircon`` is the zircon test that the library used before it
reused each special matching on the smaller ideals it maps onto itself:
one search per principal ideal below a non-minimal element.
"""

from zircons.matchings import SearchLimitError
from zircons.posets import Poset, _bits


def recursive_special_partners(P: Poset, members: int, limit=None):
    """All special matchings of the subposet on the convex bitmask
    ``members`` of P, in index form with -1 outside it, by recursion."""
    if members.bit_count() % 2 == 1:
        return
    idxs, below = _bits(members), P._below
    m = len(idxs)
    touching = {i: [] for i in idxs}
    for i in idxs:
        for j in P._up[i]:
            if members >> j & 1:
                touching[i].append((i, j))
                touching[j].append((i, j))
    neighbors = {k: sorted([p + q - k for p, q in covers]) for k, covers in touching.items()}
    partner = [-1] * len(P)

    def decided_ok(k):
        for p, q in touching[k]:
            mp = partner[p]
            if mp == -1 or mp == q:
                continue
            mq = partner[q]
            if mq == -1:
                continue
            if not below[mq] >> mp & 1:
                return False
        return True

    def extend(pos):
        while pos < m and partner[idxs[pos]] != -1:
            pos += 1
        if pos == m:
            yield tuple(partner)
            return
        i = idxs[pos]
        for j in neighbors[i]:
            if partner[j] != -1:
                continue
            partner[i] = j
            partner[j] = i
            if decided_ok(i) and decided_ok(j):
                yield from extend(pos + 1)
            partner[i] = -1
            partner[j] = -1

    for count, found in enumerate(extend(0), start=1):
        if limit is not None and count > limit:
            raise SearchLimitError(f"more than {limit} special matchings; raise the cap")
        yield found


def per_ideal_is_zircon(P: Poset) -> bool:
    """Every principal ideal below a non-minimal element, searched on its
    own, has a special matching."""
    return all(next(recursive_special_partners(P, row | 1 << i), None) is not None
               for i, row in enumerate(P._below) if row)
