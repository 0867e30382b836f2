"""Matchings on Hasse diagrams: the special property and its consequences.

A matching is a fixed-point-free involution pairing each element with one
of its Hasse neighbors. It is special when for every cover p < q either
M(p) = q or M(p) < M(q). Enumeration is exponential in the worst case, so
it is guarded by a configurable cap; hitting the cap raises rather than
silently truncating. Inside the library a matching is a ``partner``
sequence, ``partner[i]`` the index matched to element i or -1; each public
function takes and returns label dicts, converted once at its boundary.

A special matching that the library finds or builds
(``enumerate_special_matchings``, ``coxeter.descent_matching``) is returned
as a ``SpecialMatching``: a read-only dict that also keeps the poset it was
checked on and its index form. ``_special_input``, the one boundary that
needs "M is special on P", takes that index form as it is when M is such a
matching of this very poset object, since it was found by the search or
checked when it was built and cannot have changed since. Any other mapping,
a plain dict from a caller or a JSON file, a copy, or a ``SpecialMatching``
of another poset, is parsed and checked in full. ``is_special`` always
checks in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .posets import Poset, UnknownElementError, _bits

__all__ = [
    "MatchingError",
    "SearchLimitError",
    "Verdict",
    "SpecialMatching",
    "DEFAULT_MATCHING_LIMIT",
    "is_matching",
    "is_special",
    "enumerate_special_matchings",
    "has_special_matching",
    "verify_lifting",
    "matching_pairs",
    "matching_from_dict",
]

DEFAULT_MATCHING_LIMIT = 10**6


class MatchingError(ValueError):
    """Input that is not the kind of matching the operation requires."""


class SearchLimitError(RuntimeError):
    """Enumeration exceeded the configured cap; results were discarded."""


@dataclass(frozen=True)
class Verdict:
    """Boolean outcome plus the first witness found on failure."""

    ok: bool
    witness: Optional[tuple[str, str]] = None

    def __bool__(self) -> bool:
        return self.ok


class SpecialMatching(dict):
    """A special matching built by the library, as a read-only label dict.

    It compares, iterates and serializes as the plain dict of its pairs.
    Every mutator raises ``TypeError``; ``dict(M)`` is a mutable copy.
    ``copy``, ``deepcopy`` and ``pickle`` give a plain dict too, so a copy
    is checked again wherever it is used. One made by hand keeps no source
    poset and is checked like any dict.
    """

    __slots__ = ("_source", "_partner")

    def _read_only(self, *args, **kwargs):
        raise TypeError("a SpecialMatching is read-only; dict(M) is a mutable copy")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return dict, (dict(self),)


def _partner(P: Poset, M: Mapping) -> Optional[list[int]]:
    """The index form of M, ``partner[i]`` the index matched to i, or None
    unless M is a matching; UnknownElementError on an id that is not an
    element, whatever else is wrong with M."""
    index = P._index
    partner = [-1] * len(P)
    try:
        for k, v in M.items():
            partner[index[str(k)]] = index[str(v)]
    except KeyError:
        raise UnknownElementError("matching references unknown ids") from None
    # two keys naming one element leave another unmatched, at -1
    return partner if len(M) == len(P) and _is_matching(P, partner) else None


def _is_matching(P: Poset, partner: Sequence[int]) -> bool:
    """Whether the index form ``partner`` is a matching of P: each element
    paired with a Hasse neighbour that is paired back; -1 is unmatched."""
    up = P._up
    for i, j in enumerate(partner):
        if j == -1 or partner[j] != i or (j not in up[i] and i not in up[j]):
            return False
    return True


def _failing_covers(P: Poset, partner: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The covers p < q with M(p) != q and not M(p) < M(q), as index pairs
    in ``covers`` order (the covers are sorted by index pair)."""
    below = P._below
    for p, ups in enumerate(P._up):
        mp = partner[p]
        for q in ups:
            if mp != q and not below[partner[q]] >> mp & 1:
                yield p, q


def _special_matching(P: Poset, partner: Sequence[int]) -> SpecialMatching:
    """The ``SpecialMatching`` of P with index form ``partner``, which the
    caller has found by the search or checked to be special on P."""
    labels = P.elements
    M = SpecialMatching(zip(labels, [labels[j] for j in partner]))
    M._source, M._partner = P, partner
    return M


def _special_input(P: Poset, M: Mapping, message: str) -> Sequence[int]:
    """The index form of M, known to be a special matching of P: taken as
    it is from a ``SpecialMatching`` of P itself, otherwise parsed and
    checked once; ``MatchingError(message)`` if it is not special."""
    if type(M) is SpecialMatching and getattr(M, "_source", None) is P:
        return M._partner
    partner = _partner(P, M)
    if partner is None or next(_failing_covers(P, partner), None):
        raise MatchingError(message)
    return partner


def is_matching(P: Poset, M: Mapping) -> bool:
    """Check all matching invariants: total, involutive, fixed-point-free,
    and every pair a Hasse edge."""
    return _partner(P, M) is not None


def is_special(P: Poset, M: Mapping) -> Verdict:
    """Special test; the witness is the first violating cover (p, q)."""
    partner = _partner(P, M)
    if partner is None:
        raise MatchingError("input is not a matching on the poset")
    for p, q in _failing_covers(P, partner):  # the first one, if any
        return Verdict(False, (P.elements[p], P.elements[q]))
    return Verdict(True)


def _special_partners(P: Poset, members: int, limit: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Depth-first enumeration of all special matchings of the subposet on
    ``members``, a convex bitmask of P (all of P, a principal ideal or an
    interval), in index form; elements outside it keep partner -1.

    The smallest unmatched member (in element order) is paired with each
    of its Hasse neighbors in turn; a branch is abandoned as soon as a
    fully decided cover violates the special condition. The search keeps
    its own stack, one frame per paired member with its untried
    neighbors, so its depth is not bounded by the recursion limit. A
    convex set keeps P's covers among its members, and its own element
    order is P's, so the matchings and their order are those of the
    built subposet. Finding more than ``limit`` matchings raises
    SearchLimitError.
    """
    if members.bit_count() % 2 == 1:
        return
    idxs, below = _bits(members), P._below
    m = len(idxs)
    if m == len(P):
        ups, downs = P._up, P._down
    else:  # the covers among the members, from each end
        ups = {i: [j for j in P._up[i] if members >> j & 1] for i in idxs}
        downs = {i: [j for j in P._down[i] if members >> j & 1] for i in idxs}
    # a member's Hasse neighbors, ascending
    neighbors = {i: sorted([*ups[i], *downs[i]]) for i in idxs}
    partner = [-1] * len(P)

    def decided_ok(k: int) -> bool:
        """No decided cover at the newly paired k breaks the condition."""
        mk = partner[k]
        for q in ups[k]:  # k < q
            mq = partner[q]
            if mq != -1 and mk != q and not below[mq] >> mk & 1:
                return False
        for p in downs[k]:  # p < k
            mp = partner[p]
            if mp != -1 and mp != k and not below[mk] >> mp & 1:
                return False
        return True

    found = 0
    stack: list[tuple[int, int, Iterator[int]]] = []  # (position, member, untried neighbors)
    pos = 0
    while True:
        while pos < m and partner[idxs[pos]] != -1:
            pos += 1
        if pos == m:
            found += 1
            if limit is not None and found > limit:
                raise SearchLimitError(f"more than {limit} special matchings; raise the cap")
            yield tuple(partner)
        else:
            i = idxs[pos]
            stack.append((pos, i, iter(neighbors[i])))
        while stack:  # the next pair of the deepest member that has one left
            pos, i, untried = stack[-1]
            j = partner[i]
            if j != -1:  # undo its current pair
                partner[i] = partner[j] = -1
            for j in untried:
                if partner[j] == -1:
                    partner[i] = j
                    partner[j] = i
                    if decided_ok(i) and decided_ok(j):
                        break
                    partner[i] = partner[j] = -1
            else:
                stack.pop()
                continue
            pos += 1
            break
        else:
            return


def enumerate_special_matchings(P: Poset, limit: int = DEFAULT_MATCHING_LIMIT) -> list[SpecialMatching]:
    """All special matchings, in deterministic search order, each a
    read-only ``SpecialMatching`` of P.

    Raises SearchLimitError when more than ``limit`` matchings exist.
    """
    return [_special_matching(P, partner) for partner in _special_partners(P, (1 << len(P)) - 1, limit)]


def has_special_matching(P: Poset) -> bool:
    return next(_special_partners(P, (1 << len(P)) - 1), None) is not None


def _lifting(P: Poset, partner: Sequence[int]) -> Verdict:
    """``verify_lifting`` on a special matching in index form."""
    below, labels = P._below, P.elements
    for yi, my in enumerate(partner):
        if below[yi] >> my & 1:  # M(y) < y
            for xi in _bits(below[yi]):
                mx = partner[xi]
                if (not (mx == yi or below[yi] >> mx & 1)  # (i)
                        or below[xi] >> mx & 1 and not below[my] >> mx & 1):  # (ii)
                    return Verdict(False, (labels[xi], labels[yi]))
    return Verdict(True)


def verify_lifting(P: Poset, M: Mapping) -> Verdict:
    """Exhaustive lifting-property check for a special matching.

    For every x < y with M(y) < y it must hold that (i) M(x) <= y and
    (ii) M(x) < x implies M(x) < M(y). This is a theorem for special
    matchings, so any returned witness indicates an implementation bug.
    """
    return _lifting(P, _special_input(P, M, "lifting property requires a special matching"))


# -- serialization ----------------------------------------------------------

def matching_pairs(M: Mapping) -> list[list[str]]:
    """Each unordered pair once, lexicographically sorted."""
    return sorted([a, b] for a, b in {tuple(sorted((str(k), str(v)))) for k, v in M.items()})


def matching_from_dict(obj: Mapping) -> dict[str, str]:
    pairs = obj.get("pairs") if isinstance(obj, Mapping) else None
    if not (isinstance(pairs, list)
            and all(isinstance(pair, list) and len(pair) == 2 for pair in pairs)):
        raise MatchingError('matching JSON needs a "pairs" list of id pairs')
    mapping: dict[str, str] = {}
    for pair in pairs:
        a, b = str(pair[0]), str(pair[1])
        if a == b or a in mapping or b in mapping:
            raise MatchingError(f"pair {pair!r} is degenerate or reuses an element")
        mapping[a] = b
        mapping[b] = a
    return mapping
