"""Finite partially ordered sets stored as Hasse diagrams.

Elements are opaque string ids (numeric inputs are stringified so that
JSON round-trips are uniform). Inside the library an element is its
index in ``elements``; labels are built only for return values,
witnesses and error messages. A poset keeps one representation of its
order: bit ``i`` of the Python int ``_below[j]`` is set iff ``i < j``,
next to the cover adjacency ``_up``/``_down`` it is the closure of. The
label views ``covers``, ``minimal_elements`` and ``maximal_elements``
are derived from the adjacency on each access. Arbitrary-precision ints
cannot wrap, so the order is exact at every size. ``Poset(ids, below,
covers)`` stores a closure as given; ``build_poset`` is the one
validator, and the Bruhat order enters it by ``_from_pairs``. Every
derived poset (ideals, intervals, induced and fixed-point subposets, the
corpus classes) is read off its parent's rows by ``_induced``; ``_order``
closes only orders given by generating pairs. An
instance's order never changes after construction: a ``Poset`` gains no
state; a ``PosetMap`` gains its fixed-point subposet, with no lock:
sweeps run in worker processes, each on its own pickled copies of the
posets, so no instance is shared between threads. Only this module
writes that state or checks a map; the other modules hand it index
forms. Only finite posets are representable, hence local-finiteness
hypotheses hold vacuously throughout.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Optional, Sequence

__all__ = [
    "Poset",
    "PosetMap",
    "PosetError",
    "CycleError",
    "DuplicateElementError",
    "UnknownElementError",
    "RedundantCoverError",
    "NotComparableError",
    "NotAutomorphismError",
    "build_poset",
    "leq",
    "principal_ideal",
    "interval",
    "rank_function",
    "mobius",
    "automorphisms",
    "induced_subposet",
    "are_isomorphic",
    "is_bounded",
    "poset_to_dict",
    "poset_from_dict",
    "poset_to_dot",
    "map_from_dict",
]


class PosetError(ValueError):
    """Malformed poset input or invalid query."""


class CycleError(PosetError):
    """The supplied relations contain a directed cycle."""


class DuplicateElementError(PosetError):
    """An element id occurs more than once."""


class UnknownElementError(PosetError):
    """An id does not belong to the poset."""


class RedundantCoverError(PosetError):
    """A pair given as a cover is implied by other pairs."""


class NotComparableError(PosetError):
    """An operation required x <= y but the elements are incomparable."""


class NotAutomorphismError(PosetError):
    """A mapping fails to be an order automorphism."""


def _bits(mask: int) -> list[int]:
    """Positions of the set bits, ascending."""
    return [k for k, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _order(ids: Sequence[str], pairs: Sequence[tuple[int, int]]) -> tuple[list[int], list[tuple[int, int]]]:
    """Strict downsets and covers of the order generated by ``pairs``.

    ``pairs`` are sorted, distinct index pairs. The closure is a dynamic
    program over a Kahn topological order: each element takes the union
    of the rows of its lower neighbours, plus those neighbours. A given
    pair (i, j) is a cover iff i lies in none of those rows (Aho, Garey
    and Ullman 1972); the covers come back in the order of ``pairs``.
    """
    n = len(ids)
    lower: list[list[int]] = [[] for _ in range(n)]
    upper: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        lower[j].append(i)
        upper[i].append(j)
    missing = [len(preds) for preds in lower]
    ready = [j for j in range(n) if not missing[j]]
    below = [0] * n
    through = [0] * n  # union of the rows of the lower neighbours
    while ready:
        j = ready.pop()
        rows = direct = 0
        for i in lower[j]:
            rows |= below[i]
            direct |= 1 << i
        through[j] = rows
        below[j] = rows | direct
        for k in upper[j]:
            missing[k] -= 1
            if not missing[k]:
                ready.append(k)
    if any(missing):
        # every element left over has a lower neighbour left over, so
        # walking down through them must close a cycle
        k = next(j for j in range(n) if missing[j])
        seen = set()
        while k not in seen:
            seen.add(k)
            k = next(i for i in lower[k] if missing[i])
        raise CycleError(f"cycle through element {ids[k]!r}")
    return below, [(i, j) for i, j in pairs if not through[j] >> i & 1]


class Poset:
    """Immutable finite poset: ids, cover adjacency, and the strict order
    as bitset rows.

    ``Poset(ids, below, covers)`` stores distinct string ids, the closed
    strict-downset rows and the sorted cover index pairs, checking nothing;
    :func:`build_poset` validates. ``Poset(elements, covers)`` is a TypeError.
    """

    __slots__ = ("elements", "_index", "_below", "_up", "_down", "_rank", "_topo")

    def __init__(self, ids: tuple[str, ...], below: Sequence[int], covers: Sequence[tuple[int, int]]):
        n = len(ids)
        up: list[list[int]] = [[] for _ in range(n)]
        down: list[list[int]] = [[] for _ in range(n)]
        for i, j in covers:
            up[i].append(j)
            down[j].append(i)
        self.elements = ids
        self._index = {e: pos for pos, e in enumerate(ids)}
        self._below = tuple(below)
        self._up = tuple(map(tuple, up))
        self._down = tuple(map(tuple, down))
        # sorting by |strict downset| is a linear extension
        self._topo = tuple(sorted(range(n), key=lambda i: (below[i].bit_count(), i)))
        self._rank = self._compute_rank()

    def _compute_rank(self) -> Optional[tuple[int, ...]]:
        n = len(self.elements)
        rank = [None] * n
        for root in range(n):
            if rank[root] is not None:
                continue
            rank[root] = 0
            component = [root]
            for i in component:  # the component grows while it is walked
                for step, neighbours in ((1, self._up[i]), (-1, self._down[i])):
                    for j in neighbours:
                        if rank[j] is None:
                            rank[j] = rank[i] + step
                            component.append(j)
                        elif rank[j] != rank[i] + step:
                            return None
            base = min(rank[i] for i in component)
            for i in component:
                rank[i] -= base
        return tuple(rank)

    @property
    def covers(self) -> tuple[tuple[str, str], ...]:
        """The cover pairs as labels, sorted by index pair."""
        ids = self.elements
        return tuple((ids[i], ids[j]) for i, ups in enumerate(self._up) for j in ups)

    @property
    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(e for e, down in zip(self.elements, self._down) if not down)

    @property
    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(e for e, up in zip(self.elements, self._up) if not up)

    def index(self, x) -> int:
        try:
            return self._index[str(x)]
        except KeyError:
            raise UnknownElementError(f"unknown element id {x!r}") from None

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return str(x) in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __hash__(self) -> int:
        return hash((self.elements, self._up))

    def __repr__(self) -> str:
        return f"Poset(n={len(self.elements)}, covers={sum(map(len, self._up))})"


class PosetMap:
    """A validated order automorphism of a poset.

    ``source`` is the carrier poset and ``_perm`` the permutation of
    element indices; ``image`` is the label dict derived from it. The
    constructor rejects anything that is not a bijection carrying the
    cover set onto itself; on a finite poset that is the same as
    preserving the order in both directions. ``_fixed`` holds the
    fixed-point subposet once it is first asked for.
    """

    __slots__ = ("source", "_perm", "_fixed")

    def __init__(self, source: Poset, image: Mapping):
        self.source = source
        mapping = {str(k): str(v) for k, v in image.items()}
        if set(mapping) != set(source.elements):
            raise NotAutomorphismError("map is not total on the element set")
        perm = []
        for e in source.elements:
            v = mapping[e]
            if v not in source._index:
                raise UnknownElementError(f"image {v!r} is not an element")
            perm.append(source._index[v])
        _check_automorphism(source, perm)
        self._perm = tuple(perm)
        self._fixed: Optional[Poset] = None

    @property
    def image(self) -> dict[str, str]:
        ids = self.source.elements
        return {ids[i]: ids[j] for i, j in enumerate(self._perm)}

    def __call__(self, x) -> str:
        return self.source.elements[self._perm[self.source.index(x)]]

    def order(self) -> int:
        """Multiplicative order, the lcm of the cycle lengths."""
        seen = [False] * len(self._perm)
        out = 1
        for start in range(len(self._perm)):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = self._perm[i]
                length += 1
            out = math.lcm(out, length)
        return out

    def fixed_points(self) -> tuple[str, ...]:
        return tuple(self.source.elements[i] for i, j in enumerate(self._perm) if i == j)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PosetMap):
            return NotImplemented
        return self.source == other.source and self._perm == other._perm

    def __hash__(self) -> int:
        return hash((self.source.elements, self._perm))

    def __repr__(self) -> str:
        moved = sum(1 for i, j in enumerate(self._perm) if i != j)
        return f"PosetMap(n={len(self._perm)}, moved={moved})"


def build_poset(elements: Sequence, relations: Iterable, mode: str = "covers") -> Poset:
    """Build and validate a poset from covers or arbitrary order relations.

    In ``relations`` mode the input pairs are transitively closed and then
    reduced; in ``covers`` mode the pairs must already be exactly the
    transitive reduction of their closure, otherwise the first redundant
    pair in index order is reported.
    """
    if mode not in ("covers", "relations"):
        raise PosetError(f"unknown mode {mode!r}")
    ids = tuple(str(e) for e in elements)
    index = {e: pos for pos, e in enumerate(ids)}
    if len(index) != len(ids):
        dup = next(e for pos, e in enumerate(ids) if index[e] != pos)
        raise DuplicateElementError(f"duplicate element id {dup!r}")
    pairs = []
    for a, b in relations:
        a, b = str(a), str(b)
        if a not in index or b not in index:
            raise UnknownElementError(f"pair ({a!r}, {b!r}) references an unknown id")
        if a == b:
            if mode == "covers":
                raise RedundantCoverError(f"element {a!r} cannot cover itself")
            continue  # reflexive pairs are vacuous as relations
        pairs.append((index[a], index[b]))
    return _from_pairs(ids, pairs, covers=mode == "covers")


def _from_pairs(ids: tuple[str, ...], pairs: Iterable[tuple[int, int]], covers: bool) -> Poset:
    """``build_poset`` on distinct ids and index pairs: close the order
    they generate and, in covers mode, reject the first pair implied by
    the others."""
    pairs = sorted(set(pairs))
    below, reduced = _order(ids, pairs)
    if covers and len(reduced) < len(pairs):
        i, j = min(set(pairs).difference(reduced))
        raise RedundantCoverError(f"pair ({ids[i]!r}, {ids[j]!r}) is implied by other covers")
    return Poset(ids, below, reduced)


def _check_automorphism(P: Poset, perm: Sequence[int]) -> None:
    """Raise ``NotAutomorphismError`` unless the index map ``perm``, total
    on P, is a bijection carrying the cover set onto itself."""
    if len(set(perm)) != len(perm):
        raise NotAutomorphismError("map is not a bijection")
    if not _carries_covers(P, P, perm):
        raise NotAutomorphismError("map does not preserve the order both ways")


def _carries_covers(P: Poset, Q: Poset, mapping: Sequence[int]) -> bool:
    """Whether the index map ``mapping`` carries every cover of P to a
    cover of Q. A bijection that does is an isomorphism when P and Q have
    as many covers."""
    up_q = Q._up
    return all(mapping[j] in up_q[mapping[i]] for i, ups in enumerate(P._up) for j in ups)


def _map(P: Poset, perm: Sequence[int]) -> PosetMap:
    """An automorphism from its index permutation, trusted as given."""
    f = PosetMap.__new__(PosetMap)
    f.source, f._perm, f._fixed = P, tuple(perm), None
    return f


def _fixed_subposet(P: Poset, phi: PosetMap) -> Poset:
    """The fixed-point subposet of phi, an automorphism of P, built once
    per map; P itself when phi is the identity."""
    if phi._fixed is None:
        fixed = [i for i, j in enumerate(phi._perm) if i == j]
        phi._fixed = P if len(fixed) == len(P) else _induced(P.elements, P._below, fixed)
    return phi._fixed


def leq(P: Poset, x, y) -> bool:
    """x <= y in the reflexive order."""
    i, j = P.index(x), P.index(y)
    return i == j or bool(P._below[j] >> i & 1)


def induced_subposet(P: Poset, subset: Iterable) -> Poset:
    """Order restriction to a subset; its covers are read off P's rows."""
    return _induced(P.elements, P._below, sorted({P.index(x) for x in subset}))


def _induced(ids: Sequence[str], below: Sequence[int], members: Sequence[int]) -> Poset:
    """The subposet on ``members`` (ascending indices) of the order whose
    closed strict-downset rows are ``below``, labelled by ``ids``.

    Members are taken in a linear extension: in index order if no row has
    a bit above its own index, else by size of strict downset. For member
    j the walk takes the top bit c of what is left of j's row among the
    members, as a cover of j, and clears c and c's row; so every maximal
    element of the row is taken, about once per cover. j's new row is the
    taken members with their new rows. Off index order a taken c can lie
    below another taken member; it is then in the union of their new
    rows, and is no cover.
    """
    pos = {i: a for a, i in enumerate(members)}
    mask = sum(1 << i for i in members)
    order = range(len(members))
    if any(below[j] >> j for j in members):
        order = sorted(order, key=lambda a: below[members[a]].bit_count())
    rows = [0] * len(members)
    covers = []
    for a in order:
        rest = below[members[a]] & mask
        through = taken = 0
        while rest:
            c = rest.bit_length() - 1
            b = pos[c]
            covers.append((b, a))
            through |= rows[b]
            taken |= 1 << b
            rest &= ~(below[c] | 1 << c)
        rows[a] = through | taken
        if through & taken:  # off index order only: drop the taken below another
            covers[-taken.bit_count():] = [(b, a) for b in _bits(taken & ~through)]
    covers.sort()
    return Poset(tuple(ids[i] for i in members), rows, covers)


def principal_ideal(P: Poset, x) -> Poset:
    """Subposet on everything weakly below x."""
    i = P.index(x)
    return _induced(P.elements, P._below, _bits(P._below[i] | 1 << i))


def interval(P: Poset, x, y) -> Poset:
    """Subposet on {z : x <= z <= y}; requires x <= y."""
    if not leq(P, x, y):
        raise NotComparableError(f"{x!r} is not below {y!r}")
    i, j = P.index(x), P.index(y)
    below = P._below
    members = [k for k in _bits(below[j] | 1 << j) if k == i or below[k] >> i & 1]
    return _induced(P.elements, below, members)


def rank_function(P: Poset) -> Optional[dict[str, int]]:
    """Rank function normalized to 0 per connected component, if one exists."""
    if P._rank is None:
        return None
    return {e: P._rank[i] for i, e in enumerate(P.elements)}


def mobius(P: Poset, x, y) -> int:
    """Mobius value by the recursion from x up, over the ideal below y."""
    ix, iy = P.index(x), P.index(y)
    if not (ix == iy or P._below[iy] >> ix & 1):
        raise NotComparableError(f"{x!r} is not below {y!r}")
    return _mobius_row(P, ix, P._below[iy] | 1 << iy)[iy]


def _mobius_row(P: Poset, x: int, within: int) -> dict[int, int]:
    """mu(x, z) for x and every z > x in the bitmask ``within``, which
    holds x and everything between x and each of its members.

    One pass of the linear extension ``_topo``: mu(x, x) = 1, and each z
    takes minus the sum of the row over [x, z), which lies in the row
    already since everything below z comes before it.
    """
    below = P._below
    row = {x: 1}
    members = 1 << x
    for z in P._topo:
        if within >> z & 1 and below[z] >> x & 1:
            row[z] = -sum(row[w] for w in _bits(below[z] & members))
            members |= 1 << z
    return row


def _sphericity_witness(P: Poset) -> Optional[list]:
    """First pair x <= y, x in index order and then y, with
    mu(x, y) != (-1)^(rank difference), as labels; ``["unranked zircon"]``
    if P has no rank function.

    An x fails iff some interval [x, y] holds more elements of one rank
    parity than of the other, which costs one AND and two popcounts per y
    on the strict upset rows. If mu(x, z) = (-1)^(rank difference) for
    every z in [x, y), then the recursion for mu(x, y) holds it too iff
    [x, y] is balanced (Stanley, EC1 3.16); so for each x the failures of
    both tests have the same minimal elements, and the same x fail. Only
    the first failing x gets a Moebius row, to name the first bad y.
    """
    rank = P._rank
    if rank is None:
        return ["unranked zircon"]
    even = sum(1 << i for i, r in enumerate(rank) if not r & 1)
    below, above = P._below, _signatures(P)[2]
    for x, up in enumerate(above):
        base = 2 if even >> x & 1 else 0  # x's share of an interval's even count
        for y in _bits(up):
            inner = up & below[y]  # the open interval (x, y)
            if base + 2 * ((inner & even).bit_count() + (even >> y & 1)) != inner.bit_count() + 2:
                row = _mobius_row(P, x, (1 << len(P)) - 1)
                bad = [z for z, value in row.items() if value != (-1) ** (rank[z] - rank[x])]
                return [P.elements[x], P.elements[min(bad)]]
    return None


def is_bounded(P: Poset) -> bool:
    """True iff the poset has a unique minimum and a unique maximum.

    Read off the linear extension ``_topo``, sorted by the size of the
    strict downset: the minimal elements come first, so the minimum is
    unique iff the second element is not minimal; the last element has
    the largest downset, so the maximum is unique iff that downset holds
    every other element.
    """
    n, topo, below = len(P), P._topo, P._below
    return n > 0 and (n == 1 or below[topo[1]] != 0) and below[topo[-1]].bit_count() == n - 1


def _signatures(P: Poset) -> tuple[list[tuple[int, ...]], tuple[tuple[int, ...], ...], list[int]]:
    """Each element's signature (down-degree, up-degree, rank or -1,
    |strict downset|, |strict upset|), the sorted tuple of them, an
    isomorphism invariant of P, and the strict upset rows."""
    n = len(P)
    rank = P._rank if P._rank is not None else tuple([-1] * n)
    above = [0] * n  # strict upsets, by the closure's dual over the covers
    for i in reversed(P._topo):
        for j in P._up[i]:
            above[i] |= above[j] | 1 << j
    sigs = [
        (len(P._down[i]), len(P._up[i]), rank[i], P._below[i].bit_count(), above[i].bit_count())
        for i in range(n)
    ]
    return sigs, tuple(sorted(sigs)), above


def _iso_search(P: Poset, Q: Poset, find_all: bool) -> list[tuple[int, ...]]:
    """Order isomorphisms P -> Q, as index tuples, in lexicographic order
    of the images along ``order``; only the first unless ``find_all``.

    Each element of P keeps a bitset of the elements of Q it may still map
    to, at first those of its signature. Elements are assigned rarest
    signature first, values in ascending index. Choosing v -> w narrows
    every unassigned x to Q's strict downset of w if x < v, to its strict
    upset if x > v, and to the elements incomparable to w, w removed,
    otherwise; the search backs up as soon as a set is empty. Every pair
    is then related alike in P and Q, so each leaf is an isomorphism.
    When a choice leaves two or more later positions and each of them a
    single value, the one map below is tested in a single pass over the
    covers (``_carries_covers``) instead of by descending; it is found
    at the same point of the search, so the results and their order are
    the same. With one position left, descending is the cheaper test.
    The search runs on an explicit stack and undoes the narrowing from a
    trail, so its depth is not bounded by the recursion limit.
    """
    n = len(P)
    if n != len(Q):
        return []
    sig_p, key_p, above_p = _signatures(P)
    sig_q, key_q, above_q = (sig_p, key_p, above_p) if Q is P else _signatures(Q)
    if key_p != key_q:  # this also compares the cover counts and rankedness
        return []
    if not n:
        return [()]
    candidates: dict[tuple, int] = {}
    for j, s in enumerate(sig_q):
        candidates[s] = candidates.get(s, 0) | 1 << j
    # rarest signatures first, ties broken by id position
    order = sorted(range(n), key=lambda i: (candidates[sig_p[i]].bit_count(), sig_p[i], i))
    below_p, below_q = P._below, Q._below
    full = (1 << n) - 1
    domain = [candidates[sig_p[v]] for v in order]  # by position in order
    trail: list[tuple[int, int]] = []  # (position, domain before narrowing)
    mark = [0] * n  # trail length when each position was reached
    left = [0] * n  # values each position has still to try
    left[0] = domain[0]
    mapping = [-1] * n
    found: list[tuple[int, ...]] = []
    pos = 0
    while pos >= 0:
        while len(trail) > mark[pos]:  # undo the last value tried here
            k, d = trail.pop()
            domain[k] = d
        rest = left[pos]
        if not rest:
            pos -= 1
            continue
        low = rest & -rest
        left[pos] = rest ^ low
        v, w = order[pos], low.bit_length() - 1
        mapping[v] = w
        if pos == n - 1:
            found.append(tuple(mapping))
            if not find_all:
                return found
            continue
        down, up = below_q[w], above_q[w]
        apart = full ^ (down | up | low)
        lower, upper = below_p[v], above_p[v]
        forced = True  # every later position is left a single value
        for k in range(pos + 1, n):
            x = order[k]
            d = domain[k]
            narrowed = d & (down if lower >> x & 1 else up if upper >> x & 1 else apart)
            if narrowed != d:
                trail.append((k, d))
                domain[k] = narrowed
                if not narrowed:
                    break
            if narrowed & (narrowed - 1):
                forced = False
        else:
            if forced and pos < n - 2:  # one leaf below, two or more steps down
                for k in range(pos + 1, n):
                    mapping[order[k]] = domain[k].bit_length() - 1
                if len(set(mapping)) == n and _carries_covers(P, Q, mapping):
                    found.append(tuple(mapping))
                    if not find_all:
                        return found
                continue
            pos += 1
            mark[pos] = len(trail)
            left[pos] = domain[pos]
    return found


def automorphisms(P: Poset) -> list[PosetMap]:
    """All order automorphisms, deterministically ordered; contains identity."""
    perms = _iso_search(P, P, find_all=True)
    perms.sort()
    return [_map(P, perm) for perm in perms]


def are_isomorphic(P: Poset, Q: Poset) -> Optional[dict[str, str]]:
    """An order isomorphism P -> Q as a dict, or None."""
    perms = _iso_search(P, Q, find_all=False)
    if not perms:
        return None
    perm = perms[0]
    return {P.elements[i]: Q.elements[j] for i, j in enumerate(perm)}


# -- serialization ----------------------------------------------------------

def poset_to_dict(P: Poset) -> dict:
    return {
        "elements": list(P.elements),
        "covers": sorted([a, b] for a, b in P.covers),
    }


def poset_from_dict(obj: Mapping) -> Poset:
    if not isinstance(obj, Mapping) or "elements" not in obj or "covers" not in obj:
        raise PosetError('poset JSON must have "elements" and "covers"')
    elements, covers = obj["elements"], obj["covers"]
    if not (isinstance(elements, list) and isinstance(covers, list)
            and all(isinstance(pair, list) and len(pair) == 2 for pair in covers)):
        raise PosetError('poset JSON needs an "elements" list and a "covers" list of id pairs')
    return build_poset(elements, covers, mode="covers")


def map_from_dict(obj: Mapping) -> dict[str, str]:
    if not isinstance(obj, Mapping) or "map" not in obj or not isinstance(obj["map"], Mapping):
        raise PosetError('map JSON must have a "map" object')
    return {str(k): str(v) for k, v in obj["map"].items()}


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def poset_to_dot(P: Poset, name: str = "poset") -> str:
    """Graphviz source: one node per element, one edge per cover, bottom-up."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for e in P.elements:
        lines.append(f"  {_dot_quote(e)};")
    for a, b in sorted(P.covers):
        lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)};")
    ranks = rank_function(P)
    if ranks is not None:
        by_level: dict[int, list[str]] = {}
        for e, r in ranks.items():
            by_level.setdefault(r, []).append(e)
        for r in sorted(by_level):
            row = " ".join(f"{_dot_quote(e)};" for e in sorted(by_level[r]))
            lines.append(f"  {{ rank=same; {row} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"
