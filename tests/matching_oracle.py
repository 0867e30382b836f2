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

``family_fixed_point_matching`` is the fixed-point construction that the
library used before it walked only the components of fixed points: it
builds every component of the matching family, takes ``_extrema`` once per
fixed point and checks the result with the label-level ``is_special``.

``shuffled_greedy_endpoints`` is the sweep's ``greedy_descend_endpoints``
check as the library ran it before the sink test: it samples 20 seeded
orders of the members per element and walks down and up in each by the
public ``greedy_descend``.
"""

import random
import zlib

from zircons.matchings import MatchingError, SearchLimitError, is_special
from zircons.posets import Poset, PosetMap, UnknownElementError, _bits
from zircons.zircon import (
    ConstructionError,
    MatchingFamily,
    _extrema,
    fixed_point_subposet,
    greedy_descend,
)

GREEDY_SHUFFLES = 20


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


def family_fixed_point_matching(P: Poset, partner, phi: PosetMap) -> dict[str, str]:
    """The fixed-point construction on the whole matching family, as the
    library built it before it walked only the components of fixed points.

    Every conjugate M_k = phi M_(k-1) phi^-1 and every component of their
    union are built; each fixed point, in index order, takes ``_extrema``
    of its component and is paired with the opposite extremum; the result
    is checked by the label-level ``is_special`` on the fixed-point
    subposet. ``partner`` is any map of P to itself in index form.
    """
    n, perm, inverse = len(P), phi._perm, [0] * len(P)
    for i, j in enumerate(perm):
        inverse[j] = i
    members = []
    for _ in range(phi.order()):
        partner = tuple(perm[partner[j]] for j in inverse)
        members.append(partner)
    components: list[int] = []
    component_of = [-1] * n
    for x in range(n):
        if component_of[x] != -1:
            continue
        mask, queue = 1 << x, [x]
        for y in queue:
            component_of[y] = len(components)
            for member in members:
                if not mask >> member[y] & 1:
                    mask |= 1 << member[y]
                    queue.append(member[y])
        components.append(mask)

    labels = P.elements
    result: dict[str, str] = {}
    for p, image in enumerate(perm):
        if image != p:
            continue
        lo, hi = _extrema(P, components[component_of[p]])
        if p not in (lo, hi):
            raise ConstructionError(
                f"fixed point {labels[p]!r} is neither the minimum nor the maximum of its component"
            )
        result[labels[p]] = labels[lo if p == hi else hi]
    try:
        verdict = is_special(fixed_point_subposet(P, phi), result)
    except (MatchingError, UnknownElementError) as exc:
        raise ConstructionError("induced pairing is not a matching on the fixed points") from exc
    if not verdict:
        raise ConstructionError(f"induced matching is not special at cover {verdict.witness}")
    return result


def shuffled_greedy_endpoints(poset_id: str, P: Poset, family: MatchingFamily,
                              m_idx: int, a_idx: int):
    """``(ok, witness)`` of greedy descent from every element, in
    ``GREEDY_SHUFFLES`` shuffled member orders seeded by the case, against
    the extrema of its component; the witness of the first failing walk
    is ``[q, got_lo, got_hi]``."""
    labels = P.elements
    extrema = [_extrema(P, mask) for mask in family.components]
    base = list(range(1, family.order + 1))
    for qi, q in enumerate(labels):
        lo, hi = extrema[family.component_of[qi]]
        case_seed = zlib.crc32(f"{poset_id}|{m_idx}|{a_idx}|{q}".encode())
        for shuffle_i in range(GREEDY_SHUFFLES):
            rng = random.Random(case_seed + shuffle_i)
            order = base[:]
            rng.shuffle(order)
            got_lo = greedy_descend(P, family, q, "down", order)
            got_hi = greedy_descend(P, family, q, "up", order)
            if got_lo != labels[lo] or got_hi != labels[hi]:
                return False, [q, got_lo, got_hi]
    return True, None
