"""Finite Coxeter systems with concrete combinatorial models.

Presets: A_n as permutations of 1..n+1, B_n as signed permutations,
D_n as even-signed permutations, I2(m) as the dihedral group of order 2m.
Elements are enumerated breadth-first from the identity, so stored
lengths are Cayley-graph distances by construction, and each element
carries its ShortLex-minimal reduced word, which doubles as its label
("e", "s1", "s2.s1", ...). Bruhat covers come from the reflection
criterion: v is covered by w exactly when v = w*t for a reflection t and
the lengths differ by one.

Practical scale: building the Bruhat poset is cubic in the group order,
so keep groups below a few thousand elements for poset-level work.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from typing import Mapping, Optional

from .matchings import MatchingError, is_special
from .posets import Poset, PosetMap, build_poset, induced_subposet

__all__ = [
    "CoxeterError",
    "GroupElement",
    "CoxeterSystem",
    "DiagramAutomorphism",
    "build_coxeter",
    "bruhat_poset",
    "descent_matching",
    "diagram_automorphism",
    "theta_from_spec",
    "twisted_map",
    "twisted_involutions",
    "fix_subgroup_poset",
    "DEFAULT_ORDER_CAP",
]

DEFAULT_ORDER_CAP = 50_000

_TYPE_RE = re.compile(r"^([ABD])(\d+)$|^I2[:(](\d+)\)?$")


class CoxeterError(ValueError):
    """Invalid type spec, diagram data, or precondition."""


@dataclass(frozen=True)
class GroupElement:
    """One group element: concrete model, length, canonical reduced word."""

    model: tuple
    length: int
    word: tuple[int, ...]
    label: str


def _parse_type_spec(type_spec: str) -> tuple[str, int]:
    m = _TYPE_RE.match(type_spec.strip())
    if not m:
        raise CoxeterError(f"cannot parse type spec {type_spec!r} (want A3, B3, D4, I2:7)")
    if m.group(1):
        family, rank = m.group(1), int(m.group(2))
    else:
        family, rank = "I2", int(m.group(3))
    limits = {"A": 1, "B": 2, "D": 2, "I2": 2}
    if rank < limits[family]:
        raise CoxeterError(f"{family} requires parameter >= {limits[family]}")
    return family, rank


class CoxeterSystem:
    """A fully enumerated finite Coxeter group of type A, B, D, or I2."""

    def __init__(self, type_spec: str, order_cap: int = DEFAULT_ORDER_CAP):
        family, rank = _parse_type_spec(type_spec)
        self.type_spec = f"I2:{rank}" if family == "I2" else f"{family}{rank}"
        self.family = family
        self.rank_param = rank
        if family == "A":
            self._n_letters = rank + 1
            expected = math.factorial(rank + 1)
            n_gens = rank
        elif family == "B":
            self._n_letters = rank
            expected = 2**rank * math.factorial(rank)
            n_gens = rank
        elif family == "D":
            self._n_letters = rank
            expected = 2 ** (rank - 1) * math.factorial(rank)
            n_gens = rank
        else:
            expected = 2 * rank
            n_gens = 2
        if expected > order_cap:
            raise CoxeterError(
                f"group order {expected} exceeds the cap {order_cap}"
            )
        self.generators = [f"s{i}" for i in range(1, n_gens + 1)]
        self._gen_models = [self._generator_model(i) for i in range(1, n_gens + 1)]

        lengths: dict[tuple, int] = {self.identity_model(): 0}
        frontier = [self.identity_model()]
        while frontier:
            nxt = []
            for w in frontier:
                for g in self._gen_models:
                    v = self.mul(w, g)
                    if v not in lengths:
                        lengths[v] = lengths[w] + 1
                        nxt.append(v)
            frontier = nxt
        if len(lengths) != expected:
            raise CoxeterError(
                f"model enumeration produced {len(lengths)} elements, expected {expected}"
            )
        self._lengths = lengths

        words: dict[tuple, tuple[int, ...]] = {self.identity_model(): ()}
        for w in sorted(lengths, key=lambda m: lengths[m]):
            if lengths[w] == 0:
                continue
            for i, g in enumerate(self._gen_models, start=1):
                u = self.mul(g, w)
                if lengths[u] == lengths[w] - 1:
                    words[w] = (i,) + words[u]
                    break

        self.elements: list[GroupElement] = []
        for w in sorted(lengths, key=lambda m: (lengths[m], words[m])):
            word = words[w]
            label = "e" if not word else ".".join(f"s{i}" for i in word)
            self.elements.append(GroupElement(w, lengths[w], word, label))
        self._by_model = {el.model: el for el in self.elements}
        self._by_label = {el.label: el for el in self.elements}

        refl = set()
        for el in self.elements:
            inv_w = self.inv(el.model)
            for g in self._gen_models:
                refl.add(self.mul(self.mul(el.model, g), inv_w))
        self.reflections = frozenset(refl)

        n = len(self.generators)
        self.coxeter_matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                self.coxeter_matrix[i][j] = self._product_order(
                    self._gen_models[i], self._gen_models[j]
                )
        self._bruhat: Optional[Poset] = None
        self._bruhat_lock = threading.Lock()

    # -- concrete model arithmetic ------------------------------------------

    def identity_model(self) -> tuple:
        if self.family == "A":
            return tuple(range(1, self._n_letters + 1))
        if self.family in ("B", "D"):
            return tuple(range(1, self._n_letters + 1))
        return ("r", 0)

    def _generator_model(self, i: int) -> tuple:
        if self.family == "A":
            base = list(range(1, self._n_letters + 1))
            base[i - 1], base[i] = base[i], base[i - 1]
            return tuple(base)
        if self.family == "B":
            base = list(range(1, self._n_letters + 1))
            if i == 1:
                base[0] = -1
            else:
                base[i - 2], base[i - 1] = base[i - 1], base[i - 2]
            return tuple(base)
        if self.family == "D":
            base = list(range(1, self._n_letters + 1))
            if i == 1:
                base[0], base[1] = -2, -1
            else:
                base[i - 2], base[i - 1] = base[i - 1], base[i - 2]
            return tuple(base)
        return ("f", 0) if i == 1 else ("f", 1)

    def mul(self, a: tuple, b: tuple) -> tuple:
        """Compose models: (a*b)(x) = a(b(x))."""
        if self.family == "A":
            return tuple(a[v - 1] for v in b)
        if self.family in ("B", "D"):
            return tuple(a[v - 1] if v > 0 else -a[-v - 1] for v in b)
        m = self.rank_param
        ta, ka = a
        tb, kb = b
        if ta == "r" and tb == "r":
            return ("r", (ka + kb) % m)
        if ta == "r":
            return ("f", (ka + kb) % m)
        if tb == "r":
            return ("f", (ka - kb) % m)
        return ("r", (ka - kb) % m)

    def inv(self, a: tuple) -> tuple:
        if self.family == "A":
            out = [0] * len(a)
            for i, v in enumerate(a):
                out[v - 1] = i + 1
            return tuple(out)
        if self.family in ("B", "D"):
            out = [0] * len(a)
            for i, v in enumerate(a):
                if v > 0:
                    out[v - 1] = i + 1
                else:
                    out[-v - 1] = -(i + 1)
            return tuple(out)
        ta, ka = a
        if ta == "r":
            return ("r", (-ka) % self.rank_param)
        return a

    def _product_order(self, a: tuple, b: tuple) -> int:
        prod = self.mul(a, b)
        acc = prod
        order = 1
        e = self.identity_model()
        while acc != e:
            acc = self.mul(acc, prod)
            order += 1
        return order

    # -- element access -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def element(self, key) -> GroupElement:
        """Look up by label, model tuple, or pass-through GroupElement."""
        if isinstance(key, GroupElement):
            return key
        if isinstance(key, str):
            if key not in self._by_label:
                raise CoxeterError(f"unknown element label {key!r}")
            return self._by_label[key]
        if isinstance(key, tuple) and key in self._by_model:
            return self._by_model[key]
        raise CoxeterError(f"unknown element {key!r}")

    def length(self, key) -> int:
        return self.element(key).length

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

    def gen_model(self, s) -> tuple:
        return self._gen_models[self.gen_index(s) - 1]

    def right_descents(self, key) -> list[str]:
        w = self.element(key)
        return [
            name
            for name, g in zip(self.generators, self._gen_models)
            if self._lengths[self.mul(w.model, g)] < w.length
        ]

    def left_descents(self, key) -> list[str]:
        w = self.element(key)
        return [
            name
            for name, g in zip(self.generators, self._gen_models)
            if self._lengths[self.mul(g, w.model)] < w.length
        ]

    def longest_element(self) -> GroupElement:
        return max(self.elements, key=lambda el: el.length)

    def bruhat_poset(self) -> Poset:
        """The Bruhat order on the whole group, built once and cached."""
        with self._bruhat_lock:
            if self._bruhat is None:
                covers = []
                for el in self.elements:
                    for t in self.reflections:
                        v = self.mul(el.model, t)
                        if self._lengths[v] == el.length - 1:
                            covers.append((self._by_model[v].label, el.label))
                labels = [el.label for el in self.elements]
                self._bruhat = build_poset(labels, covers, mode="covers")
            return self._bruhat


def build_coxeter(type_spec: str, order_cap: int = DEFAULT_ORDER_CAP) -> CoxeterSystem:
    """Enumerate a finite Coxeter group preset (A_n, B_n, D_n, I2:m)."""
    return CoxeterSystem(type_spec, order_cap=order_cap)


def bruhat_poset(W: CoxeterSystem) -> Poset:
    return W.bruhat_poset()


def descent_matching(
    W: CoxeterSystem,
    w,
    s,
    side: str = "right",
    ideal: Optional[Poset] = None,
) -> dict[str, str]:
    """Multiplication by a descent, restricted to the Bruhat ideal of w.

    Guaranteed to be a special matching on the ideal. The result is
    checked once, by ``is_special`` (which also checks that it is a
    matching); a failure raises ``CoxeterError``, since it would expose a
    model bug.
    """
    if side not in ("right", "left"):
        raise CoxeterError(f"side must be 'right' or 'left', got {side!r}")
    wp = W.element(w)
    g = W.gen_model(s)
    if side == "right":
        if W._lengths[W.mul(wp.model, g)] >= wp.length:
            raise CoxeterError(f"{s!r} is not a right descent of {wp.label!r}")
    else:
        if W._lengths[W.mul(g, wp.model)] >= wp.length:
            raise CoxeterError(f"{s!r} is not a left descent of {wp.label!r}")
    if ideal is None:
        from .posets import principal_ideal

        ideal = principal_ideal(W.bruhat_poset(), wp.label)
    mapping: dict[str, str] = {}
    for x in ideal.elements:
        xm = W.element(x).model
        ym = W.mul(xm, g) if side == "right" else W.mul(g, xm)
        y = W._by_model[ym].label
        if y not in ideal:
            raise CoxeterError(
                f"descent image {y!r} leaves the ideal of {wp.label!r}; model bug"
            )
        mapping[x] = y
    try:
        verdict = is_special(ideal, mapping)
    except MatchingError:
        raise CoxeterError("descent map is not a matching; model bug") from None
    if not verdict:
        raise CoxeterError(f"descent matching not special at {verdict.witness}; model bug")
    return mapping


class DiagramAutomorphism:
    """Involutive generator permutation preserving the Coxeter matrix,
    extended to the whole group and verified to be a homomorphism."""

    def __init__(self, system: CoxeterSystem, generator_map: Mapping[str, str]):
        self.system = system
        perm = {str(k): str(v) for k, v in generator_map.items()}
        for name in system.generators:
            perm.setdefault(name, name)
        if set(perm) != set(system.generators) or set(perm.values()) != set(system.generators):
            raise CoxeterError("generator map must permute the generating set")
        for a, b in perm.items():
            if perm[b] != a:
                raise CoxeterError("generator map must be an involution")
        n = len(system.generators)
        idx = {name: i for i, name in enumerate(system.generators)}
        for i in range(n):
            for j in range(n):
                ti = idx[perm[system.generators[i]]]
                tj = idx[perm[system.generators[j]]]
                if system.coxeter_matrix[ti][tj] != system.coxeter_matrix[i][j]:
                    raise CoxeterError(
                        f"map does not preserve m({system.generators[i]},{system.generators[j]})"
                    )
        self.generator_map = perm
        self._gen_image = {
            i + 1: idx[perm[name]] + 1 for i, name in enumerate(system.generators)
        }

        images: dict[tuple, tuple] = {system.identity_model(): system.identity_model()}
        for el in sorted(system.elements, key=lambda e: e.length):
            if el.length == 0:
                continue
            first = el.word[0]
            rest = system.mul(system._gen_models[first - 1], el.model)
            images[el.model] = system.mul(
                system._gen_models[self._gen_image[first] - 1], images[rest]
            )
        self._element_image = images
        for el in system.elements:
            for g_i, g in enumerate(system._gen_models, start=1):
                lhs = images[system.mul(el.model, g)]
                rhs = system.mul(images[el.model], system._gen_models[self._gen_image[g_i] - 1])
                if lhs != rhs:
                    raise CoxeterError("letterwise extension is not a homomorphism; model bug")

    def apply_model(self, model: tuple) -> tuple:
        return self._element_image[model]

    def apply_label(self, label: str) -> str:
        el = self.system.element(label)
        return self.system._by_model[self._element_image[el.model]].label

    def is_identity(self) -> bool:
        return all(k == v for k, v in self.generator_map.items())

    def fixed_labels(self) -> list[str]:
        return [
            el.label
            for el in self.system.elements
            if self._element_image[el.model] == el.model
        ]

    def __repr__(self) -> str:
        moved = {k: v for k, v in self.generator_map.items() if k != v}
        return f"DiagramAutomorphism({self.system.type_spec}, {moved or 'id'})"


def diagram_automorphism(W: CoxeterSystem, perm: Mapping[str, str]) -> DiagramAutomorphism:
    return DiagramAutomorphism(W, perm)


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
        k, v = chunk.split(":", 1)
        perm[k.strip()] = v.strip()
    return DiagramAutomorphism(W, perm)


def twisted_map(W: CoxeterSystem, theta: DiagramAutomorphism) -> PosetMap:
    """The Bruhat-poset involution w -> theta(w^-1), verified as such."""
    B = W.bruhat_poset()
    mapping = {
        el.label: W._by_model[theta.apply_model(W.inv(el.model))].label
        for el in W.elements
    }
    pm = PosetMap(B, mapping)  # constructor verifies the order isomorphism
    for lbl, img in mapping.items():
        if mapping[img] != lbl:
            raise CoxeterError("twisted map failed to be an involution; model bug")
    return pm


def twisted_involutions(W: CoxeterSystem, theta: DiagramAutomorphism) -> list[GroupElement]:
    """Elements with theta(w) = w^-1, in (length, word) order."""
    out = [
        el
        for el in W.elements
        if theta.apply_model(el.model) == W.inv(el.model)
    ]
    fixed = set(twisted_map(W, theta).fixed_points())
    if {el.label for el in out} != fixed:
        raise CoxeterError("twisted involutions disagree with map fixed points; model bug")
    return out


def fix_subgroup_poset(W: CoxeterSystem, theta: DiagramAutomorphism) -> Poset:
    """Bruhat order restricted to the group elements fixed by theta."""
    return induced_subposet(W.bruhat_poset(), theta.fixed_labels())
