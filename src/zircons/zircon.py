"""Zircon verification and the fixed-point special-matching construction.

A poset is a zircon when the order ideal below every non-minimal element
is finite and carries a special matching; an equivalent formulation asks
for a rank function instead of finiteness. The constructive centerpiece:
given a special matching M on a finite bounded poset and an automorphism,
conjugating M through the powers of the automorphism yields a family of
special matchings whose connectivity components have unique extrema, and
pairing each fixed point with the opposite extremum of its component is a
special matching on the fixed-point subposet.

Each public call checks its input once, at the boundary, and its result
once: ``matching_family`` checks that M is special, and
``fixed_point_matching`` checks that the induced pairing is special on the
fixed points. The steps in between trust the theory and are not re-checked
at run time; the test suite checks them exhaustively on small posets.
A result that fails its one check raises ``ConstructionError`` loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .matchings import (
    MatchingError,
    is_special,
    has_special_matching,
    matching_pairs,
)
from .posets import (
    Poset,
    PosetMap,
    NotAutomorphismError,
    UnknownElementError,
    induced_subposet,
    is_bounded,
    leq,
    principal_ideal,
    rank_function,
)

__all__ = [
    "BoundednessError",
    "ExtremaError",
    "ConstructionError",
    "MatchingFamily",
    "is_zircon",
    "is_zircon_ranked",
    "definitions_agree",
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


class ExtremaError(RuntimeError):
    """A component failed to have unique extrema; indicates a bug, the
    construction guarantees uniqueness."""


class ConstructionError(RuntimeError):
    """An internal step contradicted a guaranteed property."""


@dataclass(frozen=True)
class MatchingFamily:
    """The conjugates M_k of a special matching under automorphism powers.

    ``members[k-1]`` is M_k(p) = phi^k(M(phi^-k(p))) for k = 1..N, where N
    is the multiplicative order of phi; M_N equals the base matching.
    ``components[p]`` is the connected component of p in the union of all
    member edges, keyed in element order.
    """

    base: Mapping[str, str]
    automorphism: PosetMap
    order: int
    members: tuple[Mapping[str, str], ...]
    components: Mapping[str, frozenset[str]]


def is_zircon(P: Poset) -> bool:
    """Every principal ideal below a non-minimal element has a special
    matching. Finiteness is automatic in this representation."""
    minimal = set(P.minimal_elements)
    for x in P.elements:
        if x in minimal:
            continue
        if not has_special_matching(principal_ideal(P, x)):
            return False
    return True


def is_zircon_ranked(P: Poset) -> bool:
    """Ranked variant of the zircon condition: a rank function must exist
    and every non-trivial principal ideal must have a special matching."""
    return rank_function(P) is not None and is_zircon(P)


def definitions_agree(P: Poset) -> bool:
    """Regression oracle: the two zircon definitions are provably the same
    class, so this must always return True."""
    return is_zircon(P) == is_zircon_ranked(P)


def _as_poset_map(P: Poset, f) -> PosetMap:
    if isinstance(f, PosetMap):
        if f.source != P:
            raise NotAutomorphismError("map belongs to a different poset")
        return f
    return PosetMap(P, f)


def matching_family(P: Poset, M: Mapping, phi) -> MatchingFamily:
    """Build all conjugates M_1..M_N of a special matching M, N the order
    of phi, and the connected components of their union.

    M is checked once to be special; its conjugates are special because
    phi is an automorphism, and they are not re-checked.
    """
    fm = _as_poset_map(P, phi)
    if not is_special(P, M):
        raise MatchingError("family construction requires a special matching")
    base = {str(k): str(v) for k, v in M.items()}
    members = []
    current = base
    for _ in range(fm.order()):
        current = {fm(p): fm(q) for p, q in current.items()}
        members.append(current)

    comp_of: dict[str, frozenset[str]] = {}
    for x in P.elements:
        if x in comp_of:
            continue
        seen = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for member in members:
                z = member[y]
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
        comp = frozenset(seen)
        for y in comp:
            comp_of[y] = comp
    return MatchingFamily(
        base=base,
        automorphism=fm,
        order=len(members),
        members=tuple(members),
        components={x: comp_of[x] for x in P.elements},
    )


def orbit_component(P: Poset, F: MatchingFamily, p) -> frozenset[str]:
    """Connected component of p in the union of all family edges."""
    return F.components[P.elements[P.index(p)]]


def component_extrema(P: Poset, C) -> tuple[str, str]:
    """Unique minimum and maximum of the induced subposet on C.

    Raises ExtremaError when either is not unique; for genuine orbit
    components that would contradict a proven property.
    """
    members = sorted(C, key=P.index)
    mins = [x for x in members if not any(leq(P, y, x) and y != x for y in members)]
    maxs = [x for x in members if not any(leq(P, x, y) and y != x for y in members)]
    if len(mins) != 1 or len(maxs) != 1:
        raise ExtremaError(f"component {members} has extrema {mins} / {maxs}")
    return mins[0], maxs[0]


def greedy_descend(
    P: Poset,
    F: MatchingFamily,
    q,
    direction: str = "down",
    priority: Optional[Sequence[int]] = None,
) -> str:
    """Repeatedly apply any family matching that moves strictly down (or
    up) until none does; lands on the component minimum (maximum)
    regardless of the order the matchings are tried in.

    ``priority`` is a sequence of 1-based member indices to try in order;
    defaults to 1..N.
    """
    if direction not in ("down", "up"):
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    ks = list(priority) if priority is not None else list(range(1, F.order + 1))
    if sorted(ks) != list(range(1, F.order + 1)):
        raise ValueError("priority must be a permutation of 1..N")
    current = P.elements[P.index(q)]
    moved = True
    while moved:
        moved = False
        for k in ks:
            image = F.members[k - 1][current]
            if direction == "down":
                improves = image != current and leq(P, image, current)
            else:
                improves = image != current and leq(P, current, image)
            if improves:
                current = image
                moved = True
                break
    return current


def fixed_point_subposet(P: Poset, phi) -> Poset:
    """Induced subposet on the fixed points of an automorphism."""
    fm = _as_poset_map(P, phi)
    return induced_subposet(P, fm.fixed_points())


def _require_bounded(P: Poset) -> None:
    if not is_bounded(P):
        raise BoundednessError("fixed-point construction requires a bounded poset")


def _fixed_point_matching(P: Poset, family: MatchingFamily) -> dict[str, str]:
    """Pair each fixed point with the opposite extremum of its component,
    then check once that the pairing is special on the fixed points."""
    fixed = family.automorphism.fixed_points()
    result: dict[str, str] = {}
    extrema_cache: dict[frozenset[str], tuple[str, str]] = {}
    for p in fixed:
        comp = family.components[p]
        if comp not in extrema_cache:
            extrema_cache[comp] = component_extrema(P, comp)
        lo, hi = extrema_cache[comp]
        if p == hi:
            result[p] = lo
        elif p == lo:
            result[p] = hi
        else:
            raise ConstructionError(
                f"fixed point {p!r} is neither the minimum nor the maximum of its component"
            )
    try:
        verdict = is_special(induced_subposet(P, fixed), result)
    except (MatchingError, UnknownElementError) as exc:
        raise ConstructionError("induced pairing is not a matching on the fixed points") from exc
    if not verdict:
        raise ConstructionError(
            f"induced matching is not special at cover {verdict.witness}"
        )
    return result


def fixed_point_matching(P: Poset, M: Mapping, phi) -> dict[str, str]:
    """The induced special matching on the fixed points of phi.

    Input, checked at the boundary: phi an automorphism of P, P bounded,
    M special (the last by ``matching_family``). Each fixed point sits at
    an extremum of its orbit component and is matched to the opposite
    extremum. The result is checked once, to be a special matching on the
    fixed-point subposet; ``ConstructionError`` is raised otherwise.
    """
    fm = _as_poset_map(P, phi)
    _require_bounded(P)
    return _fixed_point_matching(P, matching_family(P, M, fm))


def fixed_point_report(P: Poset, M: Mapping, phi) -> dict:
    """JSON-ready record of one fixed-point construction run."""
    fm = _as_poset_map(P, phi)
    family = matching_family(P, M, fm)
    report = {
        "n": len(P),
        "order_N": family.order,
        "components": [
            sorted(comp, key=P.index) for comp in dict.fromkeys(family.components.values())
        ],
        "fixed_points": sorted(fm.fixed_points(), key=P.index),
        "special": False,
        "witness": None,
        "m_phi": None,
    }
    try:
        _require_bounded(P)
        m_phi = _fixed_point_matching(P, family)
    except (BoundednessError, ConstructionError, ExtremaError) as exc:
        report["witness"] = str(exc)
        return report
    report["special"] = True
    report["m_phi"] = matching_pairs(m_phi)
    return report
