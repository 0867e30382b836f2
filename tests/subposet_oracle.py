"""Oracle for ``zircons.posets._induced``, the one subposet builder.

``pairs_subposet`` is the route the library took before it read covers
off the parent's rows: list every comparable pair of the members, then
close and reduce them again with ``_from_lower``. It is quadratic in the
number of members, and it needs no linear extension, so it is
independent of the walk that it checks.
"""

from typing import Sequence

from zircons.posets import Poset, _from_lower


def pairs_subposet(ids: Sequence[str], below: Sequence[int], members: Sequence[int]) -> Poset:
    """The subposet on ``members``, ascending indices, of the order with
    closed strict-downset rows ``below`` and labels ``ids``."""
    rows = [below[j] for j in members]
    lower = [[a for a, i in enumerate(members) if row >> i & 1] for row in rows]
    return _from_lower(tuple(ids[i] for i in members), lower, covers=False)


def same_poset(P: Poset, Q: Poset) -> bool:
    """Equal labels, strict-downset rows and cover adjacency in both
    directions, in the same order."""
    return (P.elements, P._below, P._up, P._down) == (Q.elements, Q._below, Q._up, Q._down)
