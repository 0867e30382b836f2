"""Matchings on Hasse diagrams: the special property and its consequences.

A matching is a fixed-point-free involution pairing each element with one
of its Hasse neighbors. It is special when for every cover p < q either
M(p) = q or M(p) < M(q). Enumeration is exponential in the worst case, so
it is guarded by a configurable cap; hitting the cap raises rather than
silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .posets import Poset, UnknownElementError, leq

__all__ = [
    "MatchingError",
    "SearchLimitError",
    "Verdict",
    "DEFAULT_MATCHING_LIMIT",
    "is_matching",
    "is_special",
    "iter_special_matchings",
    "enumerate_special_matchings",
    "has_special_matching",
    "verify_lifting",
    "matching_pairs",
    "matching_to_dict",
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
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _as_mapping(M: Mapping) -> dict[str, str]:
    return {str(k): str(v) for k, v in M.items()}


def is_matching(P: Poset, M: Mapping) -> bool:
    """Check all matching invariants: total, involutive, fixed-point-free,
    and every pair a Hasse edge."""
    mapping = _as_mapping(M)
    for k, v in mapping.items():
        if k not in P or v not in P:
            raise UnknownElementError("matching references unknown ids")
    if set(mapping) != set(P.elements):
        return False
    for p, q in mapping.items():
        if q == p:
            return False
        if mapping[q] != p:
            return False
        i, j = P.index(p), P.index(q)
        if j not in P._up[i] and j not in P._down[i]:
            return False
    return True


def is_special(P: Poset, M: Mapping) -> Verdict:
    """Special test; the witness is the first violating cover (p, q)."""
    mapping = _as_mapping(M)
    if not is_matching(P, mapping):
        raise MatchingError("input is not a matching on the poset")
    for p, q in P.covers:
        mp = mapping[p]
        if mp == q:
            continue
        mq = mapping[q]
        if not (mp != mq and leq(P, mp, mq)):
            return Verdict(False, (p, q), "M(p) != q and not M(p) < M(q)")
    return Verdict(True)


def iter_special_matchings(P: Poset) -> Iterator[dict[str, str]]:
    """Depth-first enumeration of all special matchings.

    The smallest unmatched element (in element order) is paired with each
    of its Hasse neighbors in turn; a branch is abandoned as soon as a
    fully decided cover violates the special condition.
    """
    n = len(P)
    if n % 2 == 1:
        return
    below = P._below
    neighbors = [sorted(P._down[i] + P._up[i]) for i in range(n)]
    touching: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        for j in P._up[i]:
            touching[i].append((i, j))
            touching[j].append((i, j))
    partner = [-1] * n

    def decided_ok(k: int) -> bool:
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

    def extend(lo: int) -> Iterator[dict[str, str]]:
        i = lo
        while i < n and partner[i] != -1:
            i += 1
        if i == n:
            yield {P.elements[a]: P.elements[b] for a, b in enumerate(partner)}
            return
        for j in neighbors[i]:
            if partner[j] != -1:
                continue
            partner[i] = j
            partner[j] = i
            if decided_ok(i) and decided_ok(j):
                yield from extend(i + 1)
            partner[i] = -1
            partner[j] = -1

    yield from extend(0)


def enumerate_special_matchings(P: Poset, limit: int = DEFAULT_MATCHING_LIMIT) -> list[dict[str, str]]:
    """All special matchings, in deterministic search order.

    Raises SearchLimitError when more than ``limit`` matchings exist.
    """
    out: list[dict[str, str]] = []
    for m in iter_special_matchings(P):
        out.append(m)
        if len(out) > limit:
            raise SearchLimitError(f"more than {limit} special matchings; raise the cap")
    return out


def has_special_matching(P: Poset) -> bool:
    return next(iter_special_matchings(P), None) is not None


def verify_lifting(P: Poset, M: Mapping) -> Verdict:
    """Exhaustive lifting-property check for a special matching.

    For every x < y with M(y) < y it must hold that (i) M(x) <= y and
    (ii) M(x) < x implies M(x) < M(y). This is a theorem for special
    matchings, so any returned witness indicates an implementation bug.
    """
    mapping = _as_mapping(M)
    if not is_special(P, mapping):
        raise MatchingError("lifting property requires a special matching")
    below = P._below
    for yi, y in enumerate(P.elements):
        my = P.index(mapping[y])
        if not below[yi] >> my & 1:
            continue
        for xi in range(len(P)):
            if not below[yi] >> xi & 1:
                continue
            x = P.elements[xi]
            mx = P.index(mapping[x])
            if not (mx == yi or below[yi] >> mx & 1):
                return Verdict(False, (x, y), "M(x) not <= y")
            if below[xi] >> mx & 1 and not below[my] >> mx & 1:
                return Verdict(False, (x, y), "M(x) < x but not M(x) < M(y)")
    return Verdict(True)


# -- serialization ----------------------------------------------------------

def matching_pairs(M: Mapping) -> list[list[str]]:
    """Each unordered pair once, lexicographically sorted."""
    mapping = _as_mapping(M)
    return sorted([a, b] for a, b in {tuple(sorted((k, v))) for k, v in mapping.items()})


def matching_to_dict(M: Mapping) -> dict:
    return {"pairs": matching_pairs(M)}


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
