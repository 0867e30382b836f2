"""Finite Coxeter systems as permutation groups.

Every preset is a group of permutations of points 1..d, with one
multiplication rule: A_n permutes 1..n+1; B_n and D_n permute the 2n
signed letters +-1..+-n (signed and even-signed permutations); I2(m)
permutes the 2m roots of the dihedral group of order 2m. Elements are
enumerated in one breadth-first pass from the identity, multiplying on
the right by s1, s2, ... in turn, so stored lengths are Cayley-graph
distances by construction, and each element carries its ShortLex-minimal
reduced word, which doubles as its label ("e", "s1", "s2.s1", ...).
Bruhat covers come from the lifting property, one table read per cover:
with s the last letter of w's word, the lower covers of w are ws and the
vs above each lower cover v of ws.

Inside the module an element is its index in ``CoxeterSystem.elements``,
which is also its index in the Bruhat poset. Models are multiplied only
in the breadth-first pass, and are not kept: the inverse map and the
Coxeter matrix are read off the generator tables, and so are the Bruhat
covers, descent matchings, diagram automorphisms and twisted maps.
Labels are made only for results, witnesses and errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional

from .matchings import SpecialMatching, _failing_covers, _is_matching, _special_matching
from .posets import (Poset, PosetMap, _bits, _check_automorphism, _fixed_subposet, _from_lower,
                     _map, principal_ideal)

__all__ = [
    "CoxeterError",
    "GroupElement",
    "CoxeterSystem",
    "DiagramAutomorphism",
    "build_coxeter",
    "bruhat_poset",
    "descent_matching",
    "theta_from_spec",
    "twisted_map",
    "twisted_involutions",
    "fix_subgroup_poset",
]

DEFAULT_ORDER_CAP = 50_000
# the most letters all reduced words may hold, B6's: no other A, B or D
# preset under the order cap holds more, and I2(m), with m^2, passes up to m = 910
_WORD_LETTER_CAP = 829_440

# the most digits a message prints: int and str convert at most 4300 by default
_MAX_DIGITS = 4000

_TYPE_RE = re.compile(r"^([ABD])(\d+)$|^I2(?::(\d+)|\((\d+)\))$")


class CoxeterError(ValueError):
    """Invalid type spec, diagram data, or precondition."""


@dataclass(frozen=True)
class GroupElement:
    """One group element: its length, ShortLex-least reduced word and label."""

    length: int
    word: tuple[int, ...]
    label: str


def _parse_type_spec(type_spec: str) -> tuple[str, int]:
    m = _TYPE_RE.match(type_spec.strip())
    if not m:
        raise CoxeterError(f"cannot parse type spec {type_spec!r} (want A3, B3, D4, I2:7)")
    family = m.group(1) or "I2"
    digits = m.group(2) or m.group(3) or m.group(4)
    if len(digits) > _MAX_DIGITS:
        raise CoxeterError(f"{family} parameter has {len(digits)} digits, more than {_MAX_DIGITS}")
    rank = int(digits)
    limits = {"A": 1, "B": 2, "D": 2, "I2": 2}
    if rank < limits[family]:
        raise CoxeterError(f"{family} requires parameter >= {limits[family]}")
    return family, rank


def _group_order(family: str, rank: int) -> Optional[int]:
    """The order of the group, (n+1)! = 2*3*...*(n+1) for A_n, 2^n n! =
    2*4*...*2n for B_n, 2^(n-1) n! = 4*6*...*2n for D_n and 2m for I2(m),
    or None once its factors multiply up past _MAX_DIGITS digits."""
    factors = {"A": range(2, rank + 2), "B": range(2, 2 * rank + 1, 2),
               "D": range(4, 2 * rank + 1, 2), "I2": [2 * rank]}[family]
    order, beyond = 1, 10 ** _MAX_DIGITS
    for factor in factors:
        order *= factor
        if order >= beyond:
            return None
    return order


def _permutation_model(family: str, rank: int) -> list[tuple[int, ...]]:
    """The generators s1, s2, ... as permutations of the points 1..d,
    each written as its tuple of images.

    A_n permutes 1..n+1. B_n and D_n permute 2n points, point i standing
    for +i and point n+i for -i. I2(m) permutes its 2m roots, point k+1
    being the root at angle k*pi/m.
    """
    if family == "I2":  # s1 is k -> -k and s2 is k -> -2-k, mod 2m
        d = 2 * rank
        return [tuple((c - k) % d + 1 for k in range(d)) for c in (0, -2)]
    if family == "A":
        d = rank + 1
        swaps = [[(i, i + 1)] for i in range(1, rank + 1)]
    else:
        d = 2 * rank
        first = [(1, rank + 1)] if family == "B" else [(1, rank + 2), (2, rank + 1)]
        swaps = [first] + [[(i - 1, i), (rank + i - 1, rank + i)] for i in range(2, rank + 1)]
    generators = []
    for pairs in swaps:
        image = list(range(1, d + 1))
        for p, q in pairs:
            image[p - 1], image[q - 1] = q, p
        generators.append(tuple(image))
    return generators


class CoxeterSystem:
    """A fully enumerated finite Coxeter group of type A, B, D, or I2.

    Element i is ``elements[i]``, in (length, word) order. The generator
    action is tabulated once, as index lists: ``_right[k][i]`` is the
    index of w_i s_{k+1}, filled by the breadth-first pass, and
    ``_left[k][i]`` that of s_{k+1} w_i, read off ``_right`` through the
    inverse; ``_inverse[i]`` is the index of w_i^-1 and ``_by_label``
    maps a label to its index. The permutation models are multiplied only
    in ``__init__`` and not kept: the Bruhat covers and everything after
    them come from these tables alone.
    """

    def __init__(self, type_spec: str):
        family, rank = _parse_type_spec(type_spec)
        self.type_spec = f"I2:{rank}" if family == "I2" else f"{family}{rank}"
        self.family = family
        expected = _group_order(family, rank)
        if expected is None or expected > DEFAULT_ORDER_CAP:
            size = expected or f"of more than {_MAX_DIGITS} digits"
            raise CoxeterError(f"group order {size} exceeds the cap {DEFAULT_ORDER_CAP}")
        # each element keeps its word and label; the words hold |W| l(w0) / 2 letters
        longest = {"A": rank * (rank + 1) // 2, "B": rank * rank, "D": rank * (rank - 1),
                   "I2": rank}
        letters = expected * longest[family] // 2
        if letters > _WORD_LETTER_CAP:
            raise CoxeterError(f"the reduced words of {self.type_spec} hold {letters} letters, "
                               f"more than the cap {_WORD_LETTER_CAP}")
        gens = _permutation_model(family, rank)
        self.generators = [f"s{i}" for i in range(1, len(gens) + 1)]

        # One breadth-first pass, multiplying on the right by s1, s2, ... in
        # turn. ShortLex-least reduced words are prefix-closed, so each
        # element is first reached along its own word, and the elements
        # arrive in (length, word) order. A model is the tuple of images of
        # the points 1..d, and (w g)(x) = w(g(x)). A label is its parent's
        # label and one more letter.
        identity = tuple(range(1, len(gens[0]) + 1))
        index, models, words, labels = {identity: 0}, [identity], [()], ["e"]
        self._right: list[list[int]] = [[] for _ in gens]
        for i, w in enumerate(models):  # models grows while it is walked
            prefix = labels[i] + "." if i else ""
            for k, g in enumerate(gens):
                v = tuple([w[x - 1] for x in g])  # a list builds faster than a generator
                if v not in index:
                    index[v] = len(models)
                    models.append(v)
                    words.append(words[i] + (k + 1,))
                    labels.append(prefix + self.generators[k])
                self._right[k].append(index[v])
        if len(models) != expected:
            raise CoxeterError(
                f"model enumeration produced {len(models)} elements, expected {expected}"
            )
        self.elements = [GroupElement(len(word), word, label) for word, label in zip(words, labels)]
        self._by_label = {el.label: i for i, el in enumerate(self.elements)}
        self._inverse = []
        for word in words:  # w^-1 is the product of w's word reversed
            j = 0
            for k in reversed(word):
                j = self._right[k - 1][j]
            self._inverse.append(j)
        # s w = (w^-1 s)^-1
        self._left = [[self._inverse[images[j]] for j in self._inverse] for images in self._right]

        def order(a: list[int], b: list[int]) -> int:
            """The order of s t, for the tables a of s and b of t."""
            w, m = b[a[0]], 1
            while w:
                w, m = b[a[w]], m + 1
            return m

        self.coxeter_matrix = [[order(a, b) for b in self._right] for a in self._right]
        self._bruhat: Optional[Poset] = None

    # -- element access -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def element(self, key) -> GroupElement:
        """Look up by label or by GroupElement."""
        return self.elements[self._position(key)]

    def _position(self, key) -> int:
        """The index of the element with this label, or of this GroupElement."""
        label = key.label if isinstance(key, GroupElement) else key
        if not isinstance(label, str) or label not in self._by_label:
            raise CoxeterError(f"unknown element {key!r}")
        return self._by_label[label]

    def gen_index(self, s) -> int:
        """1-based index of a generator given as 's3' or 3."""
        if isinstance(s, int):
            i = s
        else:
            name = str(s)
            if name not in self.generators:
                raise CoxeterError(f"unknown generator {s!r}")
            i = int(name[1:])
        if not 1 <= i <= len(self.generators):
            raise CoxeterError(f"generator index {i} out of range")
        return i

    def _table(self, side: str) -> list[list[int]]:
        return self._right if side == "right" else self._left

    def _lowers(self, images: list[int], i: int) -> bool:
        """The descent test: does the generator whose table is ``images``
        shorten element i?"""
        return self.elements[images[i]].length < self.elements[i].length

    def _descents(self, key, tables: list[list[int]]) -> list[str]:
        i = self._position(key)
        return [name for name, images in zip(self.generators, tables) if self._lowers(images, i)]

    def right_descents(self, key) -> list[str]:
        return self._descents(key, self._right)

    def left_descents(self, key) -> list[str]:
        return self._descents(key, self._left)

    def longest_element(self) -> GroupElement:
        return max(self.elements, key=lambda el: el.length)

    def bruhat_poset(self) -> Poset:
        """The Bruhat order on the whole group, built once and cached.

        With s the last letter of w's word, the lower covers of w are ws
        and every vs with v a lower cover of ws and vs above v: the lifting
        property (Bjorner-Brenti, GTM 231, Prop. 2.2.7); no vs is ws, so no list
        repeats an element. They go straight to ``_from_lower`` in covers mode.
        """
        if self._bruhat is None:
            lower: list[list[int]] = [[]]  # the lower covers of each element
            for i, el in enumerate(self.elements[1:], start=1):
                images = self._right[el.word[-1] - 1]
                u = images[i]
                lower.append(sorted([u, *(images[v] for v in lower[u] if not self._lowers(images, v))]))
            labels = tuple(el.label for el in self.elements)
            self._bruhat = _from_lower(labels, lower, covers=True)
        return self._bruhat


def build_coxeter(type_spec: str) -> CoxeterSystem:
    """Enumerate a finite Coxeter group preset (A_n, B_n, D_n, I2:m)."""
    return CoxeterSystem(type_spec)


def bruhat_poset(W: CoxeterSystem) -> Poset:
    return W.bruhat_poset()


def descent_matching(
    W: CoxeterSystem,
    w,
    s,
    side: str = "right",
    ideal: Optional[Poset] = None,
) -> SpecialMatching:
    """Multiplication by a descent, restricted to the Bruhat ideal of w.

    Guaranteed to be a special matching on the ideal. Its index form is
    read from the generator table and checked once, by ``_is_matching`` and
    ``_failing_covers``; a failure raises ``CoxeterError``, since it would
    expose a model bug. The result is a read-only ``SpecialMatching`` of
    the ideal, so the constructions that take it on that ideal do not
    check it again. Without ``ideal``, the ideal of w is built by
    ``principal_ideal``, or is ``W.bruhat_poset()`` itself for w = w0.
    """
    if side not in ("right", "left"):
        raise CoxeterError(f"side must be 'right' or 'left', got {side!r}")
    i = W._position(w)
    images = W._table(side)[W.gen_index(s) - 1]
    label = W.elements[i].label
    if not W._lowers(images, i):
        raise CoxeterError(f"{s!r} is not a {side} descent of {label!r}")
    B = W.bruhat_poset()  # indexed like W.elements
    if ideal is None:
        ideal = B if B._below[i].bit_count() == len(B) - 1 else principal_ideal(B, label)
    partner = []
    for x in ideal.elements:
        if x not in B._index:
            raise CoxeterError(f"ideal element {x!r} is not an element of {W.type_spec}")
        y = B.elements[images[B._index[x]]]
        if y not in ideal:
            raise CoxeterError(
                f"descent image {y!r} leaves the ideal of {label!r}; model bug"
            )
        partner.append(ideal._index[y])
    if not _is_matching(ideal, partner):
        raise CoxeterError("descent map is not a matching; model bug")
    for p, q in _failing_covers(ideal, partner):  # the first one, if any
        witness = (ideal.elements[p], ideal.elements[q])
        raise CoxeterError(f"descent matching not special at {witness}; model bug")
    return _special_matching(ideal, tuple(partner))


def _descent_failures(W: CoxeterSystem, k: int, side: str) -> tuple[int, dict[int, str]]:
    """Every descent matching of generator k (0-based) on one side, checked
    in one pass over the whole Bruhat order.

    Returns the mask of the elements w that the generator shortens and, for
    each such w whose matching fails, the message of the ``CoxeterError``
    that ``descent_matching`` raises on [e, w], for the same first
    offender. The ideal [e, w] is the bitset ``below[w] | 1 << w``; it is
    convex, so its covers are the Bruhat covers inside it, and each check
    reads three masks and a list of failing covers made once per pass.
    """
    B = W.bruhat_poset()  # indexed like W.elements
    perm = W._table(side)[k]
    below, up, down, labels = B._below, B._up, B._down, B.elements
    length = [el.length for el in W.elements]
    descents = lower = bad = 0  # shortened; mapped below in B; not a matched Hasse edge
    for x, y in enumerate(perm):
        if length[y] < length[x]:
            descents |= 1 << x
        if below[x] >> y & 1:
            lower |= 1 << x
        if perm[y] != x or (y not in up[x] and y not in down[x]):
            bad |= 1 << x
    failing = list(_failing_covers(B, perm))
    failures: dict[int, str] = {}
    for w in _bits(descents):
        ideal = below[w] | 1 << w
        # An element that the generator lowers stays in the downset, so only
        # the others can leave it. Where the pairs inside are a fixed-point-free
        # involution, the lowered elements map one to one into the others;
        # equal counts make that map onto them, and then nothing leaves.
        if ideal & bad or 2 * (ideal & lower).bit_count() != ideal.bit_count():
            leaving = [perm[x] for x in _bits(ideal & ~lower) if not ideal >> perm[x] & 1]
            if leaving:
                failures[w] = (f"descent image {labels[leaving[0]]!r} leaves the ideal"
                               f" of {labels[w]!r}; model bug")
                continue
            if ideal & bad:
                failures[w] = "descent map is not a matching; model bug"
                continue
        for p, q in failing:
            if ideal >> q & 1:
                failures[w] = f"descent matching not special at {(labels[p], labels[q])}; model bug"
                break
    return descents, failures


class DiagramAutomorphism:
    """Generator permutation preserving the Coxeter matrix, extended to
    the whole group and verified to be a homomorphism. It need not be an
    involution (D4 triality has order 3); ``twisted_map`` requires one.

    The extension is held as the index permutation ``_perm``: element i
    goes to element ``_perm[i]``.
    """

    def __init__(self, system: CoxeterSystem, generator_map: Mapping[str, str]):
        self.system = system
        perm = {str(k): str(v) for k, v in generator_map.items()}
        for name in system.generators:
            perm.setdefault(name, name)
        if set(perm) != set(system.generators) or set(perm.values()) != set(system.generators):
            raise CoxeterError("generator map must permute the generating set")
        gens, m = system.generators, system.coxeter_matrix
        image = [gens.index(perm[name]) for name in gens]
        for i, a in enumerate(gens):
            for j, b in enumerate(gens):
                if m[image[i]][image[j]] != m[i][j]:
                    raise CoxeterError(f"map does not preserve m({a},{b})")
        self.generator_map = perm

        # theta(s w) = theta(s) theta(w), letter by letter along the reduced
        # words; s w comes before w in the (length, word) order
        left, right = system._left, system._right
        self._perm = [0] * len(system)  # the identity is element 0
        for i, el in enumerate(system.elements):
            if el.word:
                k = el.word[0] - 1
                self._perm[i] = left[image[k]][self._perm[left[k][i]]]
        for k, images in enumerate(right):
            for i, j in enumerate(self._perm):
                if self._perm[images[i]] != right[image[k]][j]:
                    raise CoxeterError("letterwise extension is not a homomorphism; model bug")

    def __repr__(self) -> str:
        moved = {k: v for k, v in self.generator_map.items() if k != v}
        return f"DiagramAutomorphism({self.system.type_spec}, {moved or 'id'})"


def theta_from_spec(W: CoxeterSystem, spec: str) -> DiagramAutomorphism:
    """Parse a diagram-automorphism spec: "id", "flip", or "s1:s3,s3:s1"."""
    spec = spec.strip()
    if spec == "id":
        return DiagramAutomorphism(W, {})
    if spec == "flip":
        n = len(W.generators)
        if W.family == "B" and n > 2:
            raise CoxeterError(f"flip exists for B only at B2, not at {W.type_spec}")
        if W.family in ("A", "B"):
            perm = {f"s{i}": f"s{n + 1 - i}" for i in range(1, n + 1)}
        else:
            perm = {"s1": "s2", "s2": "s1"}
        return DiagramAutomorphism(W, perm)
    perm = {}
    for chunk in spec.split(","):
        if ":" not in chunk:
            raise CoxeterError(f"bad map entry {chunk!r} (want s1:s3)")
        k, v = (part.strip() for part in chunk.split(":", 1))
        if k in perm:
            raise CoxeterError(f"generator {k!r} is mapped twice")
        perm[k] = v
    return DiagramAutomorphism(W, perm)


def twisted_map(W: CoxeterSystem, theta: DiagramAutomorphism) -> PosetMap:
    """The Bruhat-poset involution w -> theta(w^-1), verified as such."""
    if any(theta.generator_map[b] != a for a, b in theta.generator_map.items()):
        raise CoxeterError(
            f"the twisted map needs an involutive diagram automorphism, not {theta!r}"
        )
    B = W.bruhat_poset()  # indexed like W.elements
    perm = [theta._perm[j] for j in W._inverse]
    _check_automorphism(B, perm)
    if any(perm[j] != i for i, j in enumerate(perm)):
        raise CoxeterError("twisted map failed to be an involution; model bug")
    return _map(B, perm)


def twisted_involutions(W: CoxeterSystem, theta: DiagramAutomorphism) -> list[GroupElement]:
    """Elements with theta(w) = w^-1, in (length, word) order; for an
    involutive theta, the fixed points of ``twisted_map``."""
    return [el for el, j, inv in zip(W.elements, theta._perm, W._inverse) if j == inv]


def fix_subgroup_poset(W: CoxeterSystem, theta: DiagramAutomorphism) -> Poset:
    """Bruhat order restricted to the group elements fixed by theta; the
    whole Bruhat order itself when theta is the identity."""
    B = W.bruhat_poset()  # indexed like W.elements, as theta._perm is
    return _fixed_subposet(B, _map(B, theta._perm))
