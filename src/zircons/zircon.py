"""Zircon verification and the fixed-point special-matching construction.

A poset is a zircon when the order ideal below every non-minimal element
is finite and carries a special matching; an equivalent formulation asks
for a rank function instead of finiteness. The constructive centerpiece:
given a special matching M on a finite bounded poset and an automorphism,
conjugating M through the powers of the automorphism yields a family of
special matchings whose connectivity components have unique extrema, and
pairing each fixed point with the opposite extremum of its component is a
special matching on the fixed-point subposet.

Each public call converts its labels and checks its input once, at the
boundary, and its result once. ``matching_family``,
``fixed_point_matching`` and ``fixed_point_report`` take M through
``matchings._special_input``: a ``SpecialMatching`` that the library built
on this very poset (by ``enumerate_special_matchings`` or
``descent_matching``) was found by the search or checked when it was
built, and is read-only, so its index form is used as it is; any other
mapping is parsed and checked to be special on P. ``fixed_point_matching``
also checks that phi is an automorphism and P bounded, and then checks the
induced pairing on every call, in index form, on the fixed-point subposet:
first to be a matching, then to be special. The steps in between trust the
theory and are not re-checked at run time; the test suite checks them
against a construction on the whole matching family. A result that
fails its one check raises ``ConstructionError`` loudly; ``ExtremaError``,
a component without unique extrema, is a ``ConstructionError`` too, so
every internal contradiction is caught as that one type. The sweep's
records and ``fixed_point_report`` take one construction outcome from
``_construct``: the family, then either the induced matching's pairs or
the message of the step that failed.
Inside, matchings are ``partner`` tuples of ``matchings`` and
components are bitmasks over element indices, each the closure of one element under
some index maps, walked by ``_closure``. The component of a fixed point
p is phi-stable, so it is the closure of {p} under M and phi;
``fixed_point_matching`` walks only these closures and builds no
conjugate. The family, with its conjugates and every component, is
built only for ``matching_family``, ``fixed_point_report`` and the
sweep's records; there conjugation stops when the orbit of M closes,
after d steps, d a divisor of the order N of phi, and each component
is the closure under those d conjugates, not M_1..M_N.
``is_zircon`` searches a principal ideal in place, as the bitmask of its
members, and builds no ideal poset. It searches top down and reuses each
special matching it finds on every smaller ideal that the matching maps
onto itself, so a few searches decide the whole poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .matchings import (
    _failing_covers,
    _is_matching,
    _special_input,
    _special_partners,
    matching_pairs,
)
from .posets import (
    Poset,
    PosetMap,
    NotAutomorphismError,
    _bits,
    _fixed_subposet,
    is_bounded,
)

__all__ = [
    "BoundednessError",
    "ExtremaError",
    "ConstructionError",
    "MatchingFamily",
    "is_zircon",
    "is_zircon_ranked",
    "matching_family",
    "orbit_component",
    "component_extrema",
    "greedy_descend",
    "fixed_point_subposet",
    "fixed_point_matching",
    "fixed_point_report",
]


class BoundednessError(ValueError):
    """The operation requires a unique minimum and maximum."""


class ConstructionError(RuntimeError):
    """An internal step contradicted a guaranteed property."""


class ExtremaError(ConstructionError):
    """A component failed to have unique extrema; indicates a bug, the
    construction guarantees uniqueness."""


@dataclass(frozen=True)
class MatchingFamily:
    """The conjugates M_k of a special matching under automorphism powers.

    M_k(p) = phi^k(M(phi^-k(p))), for k = 1..N, N the multiplicative order
    of phi. ``orbit[k-1]`` is M_k as a partner tuple for k = 1..d, d the
    size of M's orbit under conjugation, a divisor of N; M_d is the base
    matching, and M_(k+d) = M_k. ``members`` is the paper's M_1..M_N, the
    orbit repeated N/d times. ``components`` holds the connected
    components of the union of all member edges as bitmasks, in order of
    their first element; element i lies in ``components[component_of[i]]``.
    """

    automorphism: PosetMap
    order: int
    orbit: tuple[tuple[int, ...], ...]
    components: tuple[int, ...]
    component_of: tuple[int, ...]

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        return self.orbit * (self.order // len(self.orbit))


def is_zircon(P: Poset) -> bool:
    """Every principal ideal below a non-minimal element has a special
    matching. Finiteness is automatic in this representation; an element
    is non-minimal iff its downset row is non-zero.

    First, an ideal with an odd number of elements has no perfect
    matching, so the answer is False at once if one exists. Then the
    ideals are walked largest first. Each one not yet decided is searched
    for its first special matching M, and False is returned if it has
    none. Every smaller ideal that M maps onto itself is then decided
    too: it is a lower set, so it keeps the covers of the searched one,
    and M restricted to it is a special matching there. That closure is
    tested with bitmasks, as the image of each ideal under M, built up
    over the lower covers. By the lifting property (Brenti, Caselli and
    Marietti 2006) the closed ideals are exactly those of the v with
    M(v) < v, but the verdict rests only on the test; an ideal that
    fails it is searched later. The verdict is that of searching every
    ideal on its own.
    """
    below, down = P._below, P._down
    if any(row and not row.bit_count() & 1 for row in below):
        return False
    done = 0  # the elements whose ideal is known to have a special matching
    for w in reversed(P._topo):
        if not below[w] or done >> w & 1:
            continue
        ideal = below[w] | 1 << w
        partner = next(_special_partners(P, ideal), None)
        if partner is None:
            return False
        image: dict[int, int] = {}  # the image under M of the ideal of v
        for v in P._topo:
            if ideal >> v & 1:
                mask = 1 << partner[v]
                for u in down[v]:
                    mask |= image[u]
                image[v] = mask
                if not mask & ~(below[v] | 1 << v):
                    done |= 1 << v
    return True


def is_zircon_ranked(P: Poset) -> bool:
    """Ranked variant of the zircon condition: a rank function must exist
    and every non-trivial principal ideal must have a special matching."""
    return P._rank is not None and is_zircon(P)


def _as_poset_map(P: Poset, f) -> PosetMap:
    if isinstance(f, PosetMap):
        if f.source is not P and f.source != P:
            raise NotAutomorphismError("map belongs to a different poset")
        return f
    return PosetMap(P, f)


_NOT_SPECIAL = "family construction requires a special matching"


def matching_family(P: Poset, M: Mapping, phi) -> MatchingFamily:
    """Build all conjugates M_1..M_N of a special matching M, N the order
    of phi, and the connected components of their union.

    M is checked once to be special, unless it is a ``SpecialMatching``
    of P; its conjugates are special because phi is an automorphism, and
    they are not re-checked.
    """
    fm = _as_poset_map(P, phi)
    return _matching_family(_special_input(P, M, _NOT_SPECIAL), fm)


def _conjugates(partner: Sequence[int], phi: PosetMap) -> tuple[tuple[int, ...], ...]:
    """M_1..M_d of an involution in index form, M_k = phi M_(k-1) phi^-1,
    up to the first M_d equal to M: the orbit of M under conjugation, d a
    divisor of the order of phi, which is not computed."""
    perm = phi._perm
    base = partner = tuple(partner)  # a list never equals the tuples made here
    members = []
    while True:
        conjugate = [0] * len(perm)
        for j, image in enumerate(perm):  # phi(j) is matched to phi(M(j))
            conjugate[image] = perm[partner[j]]
        partner = tuple(conjugate)
        members.append(partner)
        if partner == base:
            return tuple(members)


def _closure(maps: Sequence[Sequence[int]], x: int) -> int:
    """The closure of {x} under the index maps ``maps``, a bitmask.

    Under the orbit M_1..M_d of a matching it is the component of x in
    the union of their edges, since each M_k is an involution. Under M
    and phi it is that component only when x is a fixed point of phi (the
    proof is in ``_fixed_point_matching``); elsewhere it is the union of
    the component's phi-translates. So ``_matching_family``, which needs
    every component, walks the orbit.
    """
    mask, queue = 1 << x, [x]
    for y in queue:  # the queue grows while it is walked
        for f in maps:
            z = f[y]
            if not mask >> z & 1:
                mask |= 1 << z
                queue.append(z)
    return mask


def _matching_family(partner: Sequence[int], phi: PosetMap) -> MatchingFamily:
    """The family of a special matching given in index form, not checked;
    its orbit and components come from the d distinct conjugates."""
    orbit = _conjugates(partner, phi)
    components: list[int] = []
    component_of = [-1] * len(partner)
    for x in range(len(partner)):
        if component_of[x] == -1:
            mask = _closure(orbit, x)
            for y in _bits(mask):
                component_of[y] = len(components)
            components.append(mask)
    return MatchingFamily(
        automorphism=phi,
        order=phi.order(),
        orbit=orbit,
        components=tuple(components),
        component_of=tuple(component_of),
    )


def orbit_component(P: Poset, F: MatchingFamily, p) -> frozenset[str]:
    """Connected component of p in the union of all family edges."""
    _as_poset_map(P, F.automorphism)
    return frozenset(P.elements[i] for i in _bits(F.components[F.component_of[P.index(p)]]))


def _extrema(P: Poset, mask: int) -> tuple[int, int]:
    """Indices of the unique minimum and maximum of the subposet on the
    bitmask ``mask``; ExtremaError when either is not unique."""
    below = P._below
    mins, under, rest = [], 0, mask  # under: everything strictly below some member
    while rest:  # the set bits, lowest first: a component has few of P's
        low = rest & -rest
        x = low.bit_length() - 1
        rest ^= low
        under |= below[x]
        if not below[x] & mask:
            mins.append(x)
    top = mask & ~under  # the maximal members
    if len(mins) != 1 or top & (top - 1):
        names = [[P.elements[x] for x in xs] for xs in (_bits(mask), mins, _bits(top))]
        raise ExtremaError("component {} has extrema {} / {}".format(*names))
    return mins[0], top.bit_length() - 1


def component_extrema(P: Poset, C) -> tuple[str, str]:
    """Unique minimum and maximum of the induced subposet on C.

    Raises ExtremaError when either is not unique; for genuine orbit
    components that would contradict a proven property.
    """
    mask = 0
    for x in C:  # ids that name one element set one bit
        mask |= 1 << P.index(x)
    lo, hi = _extrema(P, mask)
    return P.elements[lo], P.elements[hi]


def greedy_descend(
    P: Poset,
    F: MatchingFamily,
    q,
    direction: str = "down",
    priority: Optional[Sequence[int]] = None,
) -> str:
    """Repeatedly apply the first family matching, in ``priority`` order,
    that moves strictly down (or up), until none does. Each step stays in
    q's component, so the walk ends at a sink, which no member moves down
    (up). In an orbit component the minimum (maximum) is the only sink, so
    the walk lands there in every order; the sweep tests this on each case.

    ``priority`` is a sequence of 1-based member indices to try in order;
    defaults to 1..N.
    """
    _as_poset_map(P, F.automorphism)
    if direction not in ("down", "up"):
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    ks = list(priority) if priority is not None else list(range(1, F.order + 1))
    if sorted(ks) != list(range(1, F.order + 1)):
        raise ValueError("priority must be a permutation of 1..N")
    below, down, i = P._below, direction == "down", P.index(q)
    while True:
        for k in ks:
            image = F.orbit[(k - 1) % len(F.orbit)][i]  # M_k = M_(k-d)
            if (below[i] >> image if down else below[image] >> i) & 1:
                i = image
                break
        else:  # no matching moves i
            return P.elements[i]


def fixed_point_subposet(P: Poset, phi) -> Poset:
    """Induced subposet on the fixed points of an automorphism."""
    return _fixed_subposet(P, _as_poset_map(P, phi))


def _require_bounded(P: Poset) -> None:
    if not is_bounded(P):
        raise BoundednessError("fixed-point construction requires a bounded poset")


def _fixed_point_matching(P: Poset, partner: Sequence[int], phi: PosetMap) -> dict[str, str]:
    """Pair each fixed point p of phi with the opposite extremum of its
    component in the union of M_1..M_N, M = ``partner``, then check once
    that the pairing is special on the fixed-point subposet.

    That component is the closure of {p} under M and phi, so no conjugate
    is built. Since M_(k+1) = phi M_k phi^-1, phi maps each M_k-edge to an
    M_(k+1)-edge and M_N-edges to M_1-edges, so it permutes the components
    and fixes the one through p; that component is closed under phi and
    under M = M_N, and so holds the closure. Conversely the closure is
    closed under phi^-1 = phi^(N-1), hence under every
    M_k = phi^k M phi^-k, and so holds the component. The argument needs
    only that M is an involution of the element indices, special or not.

    When M(p) = q is a fixed point too, the closure is {p, q}, and p and q
    are paired as they are if they are comparable. Any other component
    met has its extrema taken by ``_extrema``; a component is walked again
    only for a fixed point that is neither extremum, which then raises.
    The fixed points are taken in index order, and the first whose
    component has no unique extrema raises ``ExtremaError``, the first
    that is neither extremum ``ConstructionError``. The pairing is then
    checked in index form on the fixed-point subposet, by ``_is_matching``
    and then ``_failing_covers``, each failure a ``ConstructionError``.
    Labels are built once, for the return value.
    """
    perm = phi._perm
    fixed = [p for p, image in enumerate(perm) if image == p]
    position = {p: k for k, p in enumerate(fixed)}  # index in the fixed-point subposet
    ends: dict[int, tuple[int, int]] = {}  # each extremum of a walked component: its extrema
    pairing = []  # in the fixed-point subposet's indices, -1 when not a fixed point
    below = P._below
    for p in fixed:
        q = partner[p]
        if q != p and perm[q] == q and (below[p] >> q | below[q] >> p) & 1:
            pairing.append(position[q])  # the closure is the chain {p, q}
            continue
        extrema = ends.get(p)
        if extrema is None:  # p is the first fixed point of its component, or neither extremum
            extrema = _extrema(P, _closure((partner, perm), p))
            ends[extrema[0]] = ends[extrema[1]] = extrema
        lo, hi = extrema
        if p != lo and p != hi:
            raise ConstructionError(
                f"fixed point {P.elements[p]!r} is neither the minimum nor the maximum of its component"
            )
        pairing.append(position.get(lo if p == hi else hi, -1))
    sub = _fixed_subposet(P, phi)
    if not _is_matching(sub, pairing):
        raise ConstructionError("induced pairing is not a matching on the fixed points")
    labels = sub.elements
    for p, q in _failing_covers(sub, pairing):  # the first one, if any
        raise ConstructionError(f"induced matching is not special at cover {(labels[p], labels[q])}")
    return {labels[k]: labels[j] for k, j in enumerate(pairing)}


def fixed_point_matching(P: Poset, M: Mapping, phi) -> dict[str, str]:
    """The induced special matching on the fixed points of phi.

    Input, checked at the boundary: phi an automorphism of P, P bounded,
    M special (taken as it is when it is a ``SpecialMatching`` of P). Each
    fixed point sits at an extremum of its orbit component and is matched
    to the opposite extremum. The result is checked once, to be a special
    matching on the fixed-point subposet;
    ``ConstructionError`` is raised otherwise. Neither a
    ``MatchingFamily`` nor a conjugate of M is built: each fixed point's
    component is its closure under M and phi. The result is a plain dict.
    """
    fm = _as_poset_map(P, phi)
    _require_bounded(P)
    return _fixed_point_matching(P, _special_input(P, M, _NOT_SPECIAL), fm)


def _construct(
    P: Poset, partner: Sequence[int], phi: PosetMap
) -> tuple[MatchingFamily, Optional[list[list[str]]], Optional[str]]:
    """The one run of the construction on a special matching in index form:
    its family, then the induced matching's sorted pairs, or None and the
    message of the step that failed, a ``BoundednessError`` or a
    ``ConstructionError``."""
    family = _matching_family(partner, phi)
    try:
        _require_bounded(P)
        m_phi = _fixed_point_matching(P, partner, phi)
    except (BoundednessError, ConstructionError) as exc:
        return family, None, str(exc)
    return family, matching_pairs(m_phi), None


def fixed_point_report(P: Poset, M: Mapping, phi) -> dict:
    """JSON-ready record of one fixed-point construction run; an unbounded
    P gives ``special: false`` with the boundedness message as witness."""
    fm = _as_poset_map(P, phi)
    family, pairs, witness = _construct(P, _special_input(P, M, _NOT_SPECIAL), fm)
    return {
        "n": len(P),
        "order_N": family.order,
        "components": [[P.elements[i] for i in _bits(mask)] for mask in family.components],
        "fixed_points": list(fm.fixed_points()),
        "special": pairs is not None,
        "witness": witness,
        "m_phi": pairs,
    }
