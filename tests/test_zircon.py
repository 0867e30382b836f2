import dataclasses
import json
from collections import Counter
import os
import subprocess
import sys
from pathlib import Path

import pytest
from matching_oracle import (
    family_fixed_point_matching,
    per_ideal_is_zircon,
    shuffled_greedy_endpoints,
)

import zircons.matchings
import zircons.zircon
from zircons import (
    BoundednessError,
    ConstructionError,
    DiagramAutomorphism,
    ExtremaError,
    MatchingError,
    NotAutomorphismError,
    build_coxeter,
    build_poset,
    component_extrema,
    enumerate_posets,
    descent_matching,
    enumerate_special_matchings,
    fixed_point_matching,
    fixed_point_report,
    fixed_point_subposet,
    greedy_descend,
    has_special_matching,
    interval,
    is_special,
    is_zircon,
    is_zircon_ranked,
    leq,
    matching_family,
    matching_pairs,
    orbit_component,
    poset_to_dict,
    principal_ideal,
    theta_from_spec,
    twisted_map,
)
from zircons.cli import main
from zircons.matchings import DEFAULT_MATCHING_LIMIT, _partner, _special_partners
from zircons.posets import Poset, PosetMap, automorphisms, is_bounded, poset_from_dict
from zircons.sweep import _iter_posets, _proof_step_records, sweep_case
from zircons.zircon import _matching_family


def members(P, F):
    """The family's members, index tuples, as label dicts."""
    return tuple({P.elements[i]: P.elements[j] for i, j in enumerate(m)} for m in F.members)


@pytest.fixture(scope="module")
def diamond_swap(diamond):
    return PosetMap(diamond, {"0": "0", "1": "2", "2": "1", "3": "3"})


@pytest.fixture(scope="module")
def hexagon_flip(hexagon):
    return PosetMap(
        hexagon,
        {
            "e": "e",
            "s1": "s2",
            "s2": "s1",
            "s1.s2": "s2.s1",
            "s2.s1": "s1.s2",
            "s1.s2.s1": "s1.s2.s1",
        },
    )


@pytest.fixture(scope="module")
def m_rmult_s1(a2):
    return descent_matching(a2, "s1.s2.s1", "s1", "right")


class TestZirconChecks:
    def test_antichain_vacuous(self):
        P = build_poset(list(range(4)), [])
        assert is_zircon(P)
        assert is_zircon_ranked(P)

    def test_hexagon(self, hexagon):
        assert is_zircon(hexagon)
        assert is_zircon_ranked(hexagon)

    def test_n_poset_fails_parity(self, n_poset):
        assert not is_zircon(n_poset)
        assert not is_zircon_ranked(n_poset)

    def test_singleton(self):
        P = build_poset(["x"], [])
        assert is_zircon_ranked(P)

    def test_definitions_agree_examples(self, hexagon, n_poset):
        """The two zircon definitions agree iff every zircon is ranked."""
        for P, zircon in ((hexagon, True), (n_poset, False)):
            assert is_zircon(P) is is_zircon_ranked(P) is zircon

    def test_definitions_agree_on_corpus(self, corpus_to_5):
        for P in corpus_to_5:
            assert is_zircon_ranked(P) == is_zircon(P)


class TestTransform:
    """The first family member M_1 is the conjugate p -> phi(M(phi^-1(p)))."""

    def test_identity(self, diamond):
        M = {"0": "1", "1": "0", "2": "3", "3": "2"}
        ident = PosetMap(diamond, {e: e for e in diamond.elements})
        assert members(diamond, matching_family(diamond, M, ident))[0] == M

    def test_diamond_conjugation(self, diamond, diamond_swap):
        M = {"0": "1", "1": "0", "2": "3", "3": "2"}
        assert members(diamond, matching_family(diamond, M, diamond_swap))[0] == {
            "0": "2",
            "2": "0",
            "1": "3",
            "3": "1",
        }

    def test_hexagon_flip_gives_other_descent(self, a2, hexagon, hexagon_flip, m_rmult_s1):
        conj = members(hexagon, matching_family(hexagon, m_rmult_s1, hexagon_flip))[0]
        assert conj == descent_matching(a2, "s1.s2.s1", "s2", "right")


class TestMatchingFamily:
    def test_identity_automorphism(self, diamond):
        M = {"0": "1", "1": "0", "2": "3", "3": "2"}
        ident = PosetMap(diamond, {e: e for e in diamond.elements})
        F = matching_family(diamond, M, ident)
        assert F.order == 1 and members(diamond, F) == (M,)

    def test_diamond_family(self, diamond, diamond_swap):
        M = {"0": "1", "1": "0", "2": "3", "3": "2"}
        F = matching_family(diamond, M, diamond_swap)
        assert F.order == 2
        assert matching_pairs(members(diamond, F)[0]) == [["0", "2"], ["1", "3"]]
        assert matching_pairs(members(diamond, F)[1]) == [["0", "1"], ["2", "3"]]

    def test_hexagon_family(self, a2, hexagon, hexagon_flip, m_rmult_s1):
        F = matching_family(hexagon, m_rmult_s1, hexagon_flip)
        assert F.order == 2
        assert members(hexagon, F)[0] == descent_matching(a2, "s1.s2.s1", "s2", "right")
        assert members(hexagon, F)[1] == m_rmult_s1

    def test_conjugates_match_power_formula(self, hexagon, hexagon_flip, m_rmult_s1):
        F = matching_family(hexagon, m_rmult_s1, hexagon_flip)
        flip = hexagon_flip._perm
        fwd = back = tuple(range(len(hexagon)))  # phi^k and phi^-k
        for M_k in members(hexagon, F):
            fwd = tuple(flip[i] for i in fwd)
            back = tuple(flip.index(j) for j in back)
            for p in hexagon.elements:
                q = hexagon.elements[back[hexagon.index(p)]]
                assert M_k[p] == hexagon.elements[fwd[hexagon.index(m_rmult_s1[q])]]

    def test_requires_special(self, n_poset):
        ident = PosetMap(n_poset, {e: e for e in n_poset.elements})
        with pytest.raises(MatchingError):
            matching_family(n_poset, {"a": "c", "c": "a", "b": "d", "d": "b"}, ident)


class TestComponents:
    def test_identity_component_is_pair(self, diamond):
        M = {"0": "1", "1": "0", "2": "3", "3": "2"}
        ident = PosetMap(diamond, {e: e for e in diamond.elements})
        F = matching_family(diamond, M, ident)
        assert orbit_component(diamond, F, "0") == frozenset({"0", "1"})

    def test_diamond_connects(self, diamond, diamond_swap):
        M = {"0": "1", "1": "0", "2": "3", "3": "2"}
        F = matching_family(diamond, M, diamond_swap)
        assert orbit_component(diamond, F, "0") == frozenset({"0", "1", "2", "3"})

    def test_hexagon_connects(self, hexagon, hexagon_flip, m_rmult_s1):
        F = matching_family(hexagon, m_rmult_s1, hexagon_flip)
        assert orbit_component(hexagon, F, "e") == frozenset(hexagon.elements)

    def test_extrema(self, diamond, diamond_swap, hexagon, hexagon_flip, m_rmult_s1):
        F = matching_family(diamond, {"0": "1", "1": "0", "2": "3", "3": "2"}, diamond_swap)
        assert component_extrema(diamond, orbit_component(diamond, F, "0")) == ("0", "3")
        G = matching_family(hexagon, m_rmult_s1, hexagon_flip)
        assert component_extrema(hexagon, orbit_component(hexagon, G, "e")) == (
            "e",
            "s1.s2.s1",
        )

    def test_extrema_of_ids_naming_one_element(self, diamond):
        """Ids that name one element, such as 1 and "1", count once: their
        bits are ORed, not added into a carry."""
        assert component_extrema(diamond, [1, "1"]) == ("1", "1")
        assert component_extrema(diamond, [0, "0", 3]) == ("0", "3")
        assert component_extrema(diamond, (x for x in ["3", 3, "1", 1, 0])) == ("0", "3")

    def test_extrema_raises_on_bad_set(self, diamond):
        with pytest.raises(ExtremaError):
            component_extrema(diamond, {"1", "2"})

    def test_extrema_needs_both_unique(self, diamond):
        """One unique extremum is not enough: the other side is tested too,
        and the message lists the set and both kinds of extremal members."""
        with pytest.raises(ExtremaError, match=r"\['0', '1', '2'\] has extrema \['0'\] / \['1', '2'\]"):
            component_extrema(diamond, {"0", "1", "2"})
        with pytest.raises(ExtremaError, match=r"\['1', '2', '3'\] has extrema \['1', '2'\] / \['3'\]"):
            component_extrema(diamond, {"1", "2", "3"})


class TestGreedyDescend:
    def test_fixed_point_of_descent(self, diamond, diamond_swap):
        F = matching_family(diamond, {"0": "1", "1": "0", "2": "3", "3": "2"}, diamond_swap)
        assert greedy_descend(diamond, F, "0", "down") == "0"

    def test_hexagon_reaches_bottom_and_top(self, hexagon, hexagon_flip, m_rmult_s1):
        F = matching_family(hexagon, m_rmult_s1, hexagon_flip)
        assert greedy_descend(hexagon, F, "s1.s2.s1", "down") == "e"
        assert greedy_descend(hexagon, F, "s2", "up") == "s1.s2.s1"
        # endpoint independent of the order the matchings are tried in
        assert greedy_descend(hexagon, F, "s1.s2.s1", "down", priority=[2, 1]) == "e"

    def test_diamond_single_step(self, diamond, diamond_swap):
        F = matching_family(diamond, {"0": "1", "1": "0", "2": "3", "3": "2"}, diamond_swap)
        assert greedy_descend(diamond, F, "1", "down") == "0"

    def test_priority_validation(self, diamond, diamond_swap):
        F = matching_family(diamond, {"0": "1", "1": "0", "2": "3", "3": "2"}, diamond_swap)
        with pytest.raises(ValueError):
            greedy_descend(diamond, F, "1", "down", priority=[1, 1])

    def test_direction_validation(self, diamond, diamond_swap):
        F = matching_family(diamond, {"0": "1", "1": "0", "2": "3", "3": "2"}, diamond_swap)
        with pytest.raises(ValueError, match="direction must be 'down' or 'up', got 'left'"):
            greedy_descend(diamond, F, "1", "left")


class TestFamilyOwnership:
    """The family helpers read a family's index tuples against P, so a
    family built on another poset is rejected, whatever its size."""

    @pytest.fixture()
    def families(self, diamond, diamond_swap, hexagon, hexagon_flip, m_rmult_s1):
        return {
            "diamond": matching_family(diamond, {"0": "1", "1": "0", "2": "3", "3": "2"}, diamond_swap),
            "hexagon": matching_family(hexagon, m_rmult_s1, hexagon_flip),
        }

    @pytest.mark.parametrize("helper", [orbit_component, greedy_descend])
    @pytest.mark.parametrize(
        "owner,target",
        [
            ("diamond", "chain"),  # the same size
            ("hexagon", "chain"),  # a larger poset
            ("diamond", "hexagon"),  # a smaller one
        ],
    )
    def test_rejects_a_family_of_another_poset(self, families, hexagon, helper, owner, target):
        chain = build_poset("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        P = hexagon if target == "hexagon" else chain
        with pytest.raises(NotAutomorphismError, match="map belongs to a different poset"):
            helper(P, families[owner], P.elements[-1])


class TestFixedPoints:
    def test_subposet_identity(self, diamond):
        ident = PosetMap(diamond, {e: e for e in diamond.elements})
        assert fixed_point_subposet(diamond, ident) == diamond

    def test_subposet_diamond_swap(self, diamond, diamond_swap):
        P = fixed_point_subposet(diamond, diamond_swap)
        assert P.elements == ("0", "3") and P.covers == (("0", "3"),)

    def test_subposet_hexagon_flip(self, hexagon, hexagon_flip):
        P = fixed_point_subposet(hexagon, hexagon_flip)
        assert P.elements == ("e", "s1.s2.s1") and P.covers == (("e", "s1.s2.s1"),)

    def test_matching_identity(self, diamond):
        M = {"0": "1", "1": "0", "2": "3", "3": "2"}
        ident = PosetMap(diamond, {e: e for e in diamond.elements})
        assert fixed_point_matching(diamond, M, ident) == M

    def test_matching_diamond(self, diamond, diamond_swap):
        M = {"0": "1", "1": "0", "2": "3", "3": "2"}
        assert fixed_point_matching(diamond, M, diamond_swap) == {"0": "3", "3": "0"}

    def test_matching_takes_a_plain_dict_map(self, diamond, diamond_swap):
        M = {"0": "1", "1": "0", "2": "3", "3": "2"}
        assert (fixed_point_matching(diamond, M, dict(diamond_swap.image))
                == fixed_point_matching(diamond, M, diamond_swap) == {"0": "3", "3": "0"})

    def test_matching_hexagon(self, hexagon, hexagon_flip, m_rmult_s1):
        got = fixed_point_matching(hexagon, m_rmult_s1, hexagon_flip)
        assert got == {"e": "s1.s2.s1", "s1.s2.s1": "e"}
        assert is_special(fixed_point_subposet(hexagon, hexagon_flip), got).ok

    def test_unbounded_rejected(self, n_poset):
        # the N-shaped poset has two minimal elements
        M = {"a": "c", "c": "a", "b": "d", "d": "b"}
        ident = PosetMap(n_poset, {e: e for e in n_poset.elements})
        with pytest.raises(BoundednessError):
            fixed_point_matching(n_poset, M, ident)

    def test_report_shape(self, hexagon, hexagon_flip, m_rmult_s1):
        rep = fixed_point_report(hexagon, m_rmult_s1, hexagon_flip)
        assert rep["n"] == 6
        assert rep["order_N"] == 2
        assert rep["components"] == [sorted(hexagon.elements, key=hexagon.index)]
        assert rep["fixed_points"] == ["e", "s1.s2.s1"]
        assert rep["special"] is True
        assert rep["witness"] is None
        assert rep["m_phi"] == [["e", "s1.s2.s1"]]

    def test_report_on_an_unbounded_poset(self):
        """Two disjoint 2-chains and their swap: M is special, and the
        report says the construction needs a bounded poset."""
        P = build_poset("abcd", [("a", "b"), ("c", "d")])
        swap = PosetMap(P, {"a": "c", "b": "d", "c": "a", "d": "b"})
        rep = fixed_point_report(P, {"a": "b", "b": "a", "c": "d", "d": "c"}, swap)
        assert rep["special"] is False and rep["m_phi"] is None
        assert rep["witness"] == "fixed-point construction requires a bounded poset"
        assert rep["order_N"] == 2 and rep["fixed_points"] == []


def _prism(core):
    """core x 2-chain; pairing each element with its copy is always special."""
    els = [f"{e}.lo" for e in core.elements] + [f"{e}.hi" for e in core.elements]
    pairs = [(f"{a}.{t}", f"{b}.{t}") for a, b in core.covers for t in ("lo", "hi")]
    pairs += [(f"{e}.lo", f"{e}.hi") for e in core.elements]
    return build_poset(els, pairs, mode="relations")


def _bounded_random(n_interior, seed, density=0.35):
    import random

    rng = random.Random(seed)
    pairs = []
    for i in range(n_interior):
        for j in range(i + 1, n_interior):
            if rng.random() < density:
                pairs.append((str(i), str(j)))
    els = [str(i) for i in range(n_interior)] + ["bot", "top"]
    pairs += [("bot", str(i)) for i in range(n_interior)]
    pairs += [(str(i), "top") for i in range(n_interior)]
    return build_poset(els, pairs, mode="relations")


def test_theorem_on_random_prisms_beyond_exhaustive_range():
    """Raw density-sampled posets are almost never bounded with a special
    matching, so the randomized regime gets its real coverage from prisms
    over random bounded cores: 8-12 elements, guaranteed special matchings."""
    from zircons.posets import is_bounded

    cases = 0
    for seed in range(15):
        for n_core in (4, 5, 6):
            P = _prism(_bounded_random(n_core - 2, seed))
            assert is_bounded(P) and len(P) == 2 * n_core
            specials = enumerate_special_matchings(P)
            assert specials  # the copy matching at the very least
            for M in specials[:3]:
                for phi in automorphisms(P)[:8]:
                    got = fixed_point_matching(P, M, phi)
                    assert is_special(fixed_point_subposet(P, phi), got).ok
                    cases += 1
    assert cases > 100


def test_sweep_battery_on_random_prisms():
    """The sweep's whole battery on the 45 prisms above. Each is bounded and
    has a special matching, so, unlike nearly every poset of a random
    manifest, each one runs the construction, the lifting property and the
    proof-step invariants; none is skipped and none fails."""
    by_check = Counter()
    for seed in range(15):
        for n_core in (4, 5, 6):
            P = _prism(_bounded_random(n_core - 2, seed))
            records = sweep_case(f"prism-{n_core}-s{seed}", P, DEFAULT_MATCHING_LIMIT)
            assert [r for r in records if not r["ok"]] == []
            by_check.update(r["check"] for r in records)
    assert by_check["theorem_suite_skipped"] == 0
    assert by_check["fixed_point_special"] >= 278
    assert by_check["lifting_property"] >= 70
    assert by_check["fixed_points_zircon"] >= 48


def test_theorem_holds_across_small_bounded_posets(corpus_to_5):
    """Every (bounded poset, special matching, automorphism) triple yields a
    special matching on the fixed points; checked exhaustively up to n=5."""
    from zircons.posets import is_bounded

    ran = 0
    for P in corpus_to_5:
        if not is_bounded(P):
            continue
        specials = enumerate_special_matchings(P)
        if not specials:
            continue
        for M in specials:
            for phi in automorphisms(P):
                sub = fixed_point_subposet(P, phi)
                got = fixed_point_matching(P, M, phi)
                assert is_special(sub, got).ok
                ran += 1
    assert ran > 0


def _rotate(mask):
    return ((mask << 1) | (mask >> 2)) & 7


def _conjugates(M, phi):
    """M_1..M_N, conjugated here as label dicts apart from the index form
    that ``matching_family`` stores."""
    out, current = [], M
    for _ in range(phi.order()):
        current = {phi(p): phi(q) for p, q in current.items()}
        out.append(current)
    return out


def _component_walk(conjugates, p):
    """Component of p in the union of the conjugates' edges."""
    seen, frontier = {p}, [p]
    while frontier:
        x = frontier.pop()
        for M_k in conjugates:
            if M_k[x] not in seen:
                seen.add(M_k[x])
                frontier.append(M_k[x])
    return frozenset(seen)


def _label_descend(P, conjugates, q, down):
    """Greedy descent through label dicts and the label-level ``leq``."""
    moved = True
    while moved:
        moved = False
        for M_k in conjugates:
            image = M_k[q]
            if image != q and (leq(P, image, q) if down else leq(P, q, image)):
                q, moved = image, True
                break
    return q


def test_index_form_agrees_with_label_walk(corpus_to_5, cube, a3):
    """The construction does not re-check its intermediate steps at run
    time, and it runs them on index tuples and bitmasks. This checks them
    against label dicts walked here, on every class up to n = 5, the cube
    and the Bruhat orders of A3 and I2(6), the last two also with their
    elements listed top down, for every special matching and every
    automorphism: the members are the conjugates, each special, M_N
    is M; the components are the orbit components, in the order of their
    first elements; the extrema are the least and greatest elements of each
    component; and greedy descent in either direction, trying the members
    in either order, ends where the label-level walk ends."""
    bruhat = [a3.bruhat_poset(), build_coxeter("I2:6").bruhat_poset()]
    top_down = [build_poset(P.elements[::-1], P.covers) for P in bruhat]
    cases = 0
    for P in [*corpus_to_5, cube, *bruhat, *top_down]:
        for M in enumerate_special_matchings(P):
            for phi in automorphisms(P):
                F = matching_family(P, M, phi)
                conjugates = _conjugates(M, phi)
                assert F.order == phi.order() and list(members(P, F)) == conjugates
                assert conjugates[-1] == M
                assert all(is_special(P, M_k).ok for M_k in conjugates)

                walk = [_component_walk(conjugates, p) for p in P.elements]
                components = [frozenset(p for i, p in enumerate(P.elements) if mask >> i & 1)
                              for mask in F.components]
                assert components == list(dict.fromkeys(walk))
                assert [components[c] for c in F.component_of] == walk
                assert [orbit_component(P, F, p) for p in P.elements] == walk
                for C in components:
                    least = [x for x in C if all(leq(P, x, y) for y in C)]
                    greatest = [x for x in C if all(leq(P, y, x) for y in C)]
                    assert [component_extrema(P, C)] == list(zip(least, greatest))

                for ks in (list(range(1, F.order + 1)), list(range(F.order, 0, -1))):
                    tried = [conjugates[k - 1] for k in ks]
                    for q in P.elements:
                        assert greedy_descend(P, F, q, "down", ks) == _label_descend(P, tried, q, True)
                        assert greedy_descend(P, F, q, "up", ks) == _label_descend(P, tried, q, False)
                cases += 1
    assert cases > 1000


def test_conjugation_stops_when_the_orbit_closes(corpus_to_5, cube, a3):
    """``_conjugates`` returns M_1..M_d, the orbit of M: d divides the
    order N of phi, the members are distinct, M_d is M and they are the
    first d label conjugates. The family keeps its meaning: order N, and
    the orbit repeated N/d times."""
    seen = set()
    for P in [*corpus_to_5, cube, a3.bruhat_poset(), build_coxeter("I2:6").bruhat_poset()]:
        for M in enumerate_special_matchings(P):
            partner = _partner(P, M)  # a list, as a checked input gives
            for phi in automorphisms(P):
                orbit = zircons.zircon._conjugates(partner, phi)
                N, d = phi.order(), len(orbit)
                assert N % d == 0 and len(set(orbit)) == d and orbit[-1] == tuple(partner)
                F = matching_family(P, M, phi)
                assert F.orbit == orbit and len(set(F.orbit)) == d
                assert F.order == N and F.members == orbit * (N // d)
                assert list(members(P, F))[:d] == _conjugates(M, phi)[:d]
                seen.add((N, d))
    assert {(1, 1), (2, 1), (2, 2), (3, 3)} <= seen


def _closures_equal_components(P, partner, phi):
    """Check that the closure under M and phi of every fixed point p of
    phi is its component in the matching family; return the number of
    fixed points."""
    F = zircons.zircon._matching_family(partner, phi)
    fixed = [p for p, image in enumerate(phi._perm) if image == p]
    for p in fixed:
        assert zircons.zircon._closure((partner, phi._perm), p) == F.components[F.component_of[p]]
    return len(fixed)


class TestClosureIsComponent:
    """The construction takes each fixed point's component as its closure
    under M and phi, without the conjugates. It is the family's
    component, on every special matching and automorphism."""

    def test_bounded_classes_to_6(self):
        cases = fixed = 0
        for n in range(7):
            for P in enumerate_posets(n):
                if is_bounded(P):
                    for M in enumerate_special_matchings(P):
                        for phi in automorphisms(P):
                            fixed += _closures_equal_components(P, _partner(P, M), phi)
                            cases += 1
        assert cases == 32 and fixed > cases

    def test_b3_intervals(self):
        B = build_coxeter("B3").bruhat_poset()
        cases = moved = 0
        for u in B.elements:
            for v in B.elements:
                if u != v and leq(B, u, v):
                    I = interval(B, u, v)
                    maps = automorphisms(I)
                    for M in enumerate_special_matchings(I):
                        for phi in maps:
                            moved += _closures_equal_components(I, M._partner, phi) < len(I)
                            cases += 1
        assert cases == 9276 and moved > 0

    def test_d4_triality(self):
        """The order-3 automorphisms of D4, whose fixed points are G2, and
        every other automorphism of the whole order."""
        B = build_coxeter("D4").bruhat_poset()
        maps, specials = automorphisms(B), enumerate_special_matchings(B)
        for phi in maps:
            for M in specials:
                assert _closures_equal_components(B, M._partner, phi) > 0
        assert len(maps) == 12 and len(specials) == 8
        assert {len(phi.fixed_points()) for phi in maps if phi.order() == 3} == {12}


def _outcome(construct, *args):
    """The result of a construction, or the type and message of its error."""
    try:
        return construct(*args)
    except (ExtremaError, ConstructionError) as exc:
        return type(exc), str(exc)


def _involutions(n, partner=None, start=0):
    """Every involution of range(n), fixed points allowed, as tuples."""
    partner = [-1] * n if partner is None else partner
    while start < n and partner[start] != -1:
        start += 1
    if start == n:
        yield tuple(partner)
        return
    for j in range(start, n):
        if partner[j] == -1:
            partner[start], partner[j] = j, start
            yield from _involutions(n, partner, start + 1)
            partner[start] = partner[j] = -1


_ERROR_KINDS = ("has extrema", "neither the minimum", "not a matching", "not special")


class TestAgainstFamilyOracle:
    """``fixed_point_matching`` walks only the components of fixed points
    and checks its result in index form. The oracle builds the whole
    matching family, takes the extrema of every fixed point's component
    and checks the result by labels. They give equal dicts on every
    special matching and automorphism, and the same error type and
    message on injected broken partners."""

    @staticmethod
    def _agree(P, M, phi):
        """M is the library's own ``SpecialMatching`` of P, taken as it is;
        its plain copy goes through the full check and must agree."""
        got = fixed_point_matching(P, M, phi)
        assert got == family_fixed_point_matching(P, _partner(P, M), phi)
        assert fixed_point_matching(P, dict(M), phi) == got
        return got

    @pytest.mark.parametrize("spec,count", [("A3", 1518), ("B3", 9276), ("I2:6", 2836)])
    def test_bruhat_intervals(self, spec, count):
        B = build_coxeter(spec).bruhat_poset()
        cases = 0
        for u in B.elements:
            for v in B.elements:
                if u != v and leq(B, u, v):
                    I = interval(B, u, v)
                    maps = automorphisms(I)
                    for M in enumerate_special_matchings(I):
                        for phi in maps:
                            self._agree(I, M, phi)
                            cases += 1
        assert cases == count

    @pytest.mark.parametrize("spec,count", [("A4", 32), ("D4", 96)])
    def test_whole_orders(self, spec, count):
        B = build_coxeter(spec).bruhat_poset()
        maps = automorphisms(B)
        cases = [self._agree(B, M, phi) for M in enumerate_special_matchings(B) for phi in maps]
        assert len(cases) == count

    def test_bounded_classes_to_6(self):
        bounded = [P for n in range(7) for P in enumerate_posets(n) if is_bounded(P)]
        cases = [self._agree(P, M, phi) for P in bounded
                 for M in enumerate_special_matchings(P) for phi in automorphisms(P)]
        assert len(bounded) == 26 and len(cases) == 32

    def test_broken_partners(self):
        """Every involution of the elements, fixed points allowed, under
        every automorphism of each bounded class with n <= 6, labelled as
        enumerated and top down: the same result or the same error, and
        each of the four errors is met."""
        errors = set()
        cases = 0
        for n in range(7):
            for Q in enumerate_posets(n):
                if not is_bounded(Q):
                    continue
                for P in (Q, build_poset(Q.elements[::-1], Q.covers)):
                    maps = automorphisms(P)
                    for partner in _involutions(n):
                        for phi in maps:
                            got = _outcome(zircons.zircon._fixed_point_matching, P, partner, phi)
                            assert got == _outcome(family_fixed_point_matching, P, partner, phi)
                            if isinstance(got, tuple):
                                errors.add(next(k for k in _ERROR_KINDS if k in got[1]))
                            cases += 1
        assert cases == 9666 and errors == set(_ERROR_KINDS)


_MODULES = ("posets", "matchings", "zircon", "coxeter", "sweep", "cli")


def _count_calls(monkeypatch, module, name):
    """Sizes of the posets that ``module.name`` is run on, counted at every
    module that could call it."""
    seen = []
    real = getattr(getattr(zircons, module), name)

    def counting(P, *args, **kwargs):
        seen.append(len(P))
        return real(P, *args, **kwargs)

    for binding in _MODULES:
        monkeypatch.setattr(f"zircons.{binding}.{name}", counting, raising=False)
    return seen


@pytest.fixture()
def check_calls(monkeypatch):
    """Sizes of the posets that the special check (``_failing_covers``) and
    the matching check (``_is_matching``, index form) are run on. A label
    dict reaches the matching check through ``_partner``."""
    return {"special": _count_calls(monkeypatch, "matchings", "_failing_covers"),
            "matching": _count_calls(monkeypatch, "matchings", "_is_matching")}


@pytest.fixture()
def validated_maps(monkeypatch):
    """Sizes of the posets that a map is validated on: the ``PosetMap``
    constructor and ``twisted_map`` both validate by ``_check_automorphism``."""
    return _count_calls(monkeypatch, "posets", "_check_automorphism")


class TestChecksRunOnce:
    """Each public call checks its input once and its result once."""

    @pytest.mark.parametrize(
        "image,order",
        [
            (lambda m: m, 1),
            (lambda m: m & 1 | (m & 2) << 1 | (m & 4) >> 1, 2),  # swap bits 1 and 2
            (_rotate, 3),
        ],
    )
    def test_fixed_point_matching_checks_twice(self, check_calls, cube, image, order):
        phi = PosetMap(cube, {str(m): str(image(m)) for m in range(8)})
        toggle_bit_0 = {str(m): str(m ^ 1) for m in range(8)}
        got = fixed_point_matching(cube, toggle_bit_0, phi)
        assert phi.order() == order
        # the input M on the cube, then the result on the fixed points
        fixed = len(phi.fixed_points())
        assert check_calls == {"special": [8, fixed], "matching": [8, fixed]}
        assert len(got) == fixed

    def test_a_library_matching_is_not_checked_again(self, check_calls, cube):
        """A ``SpecialMatching`` that the search found on this very poset
        object is taken as it is: only the result is checked. Its plain
        copy, and the same matching found on an equal but distinct poset,
        are checked in full."""
        phi = PosetMap(cube, {str(m): str(m & 1 | (m & 2) << 1 | (m & 4) >> 1) for m in range(8)})
        fixed = len(phi.fixed_points())
        M = enumerate_special_matchings(cube)[0]
        twin = enumerate_special_matchings(poset_from_dict(poset_to_dict(cube)))[0]
        assert twin == M and twin._source is not cube
        results = []
        for given, checked in ((M, [fixed]), (dict(M), [8, fixed]), (twin, [8, fixed])):
            check_calls["special"].clear()
            check_calls["matching"].clear()
            results.append(fixed_point_matching(cube, given, phi))
            assert check_calls == {"special": checked, "matching": checked}
        assert all(type(r) is dict and r == results[0] for r in results)

    def test_fixed_point_matching_builds_no_family(self, monkeypatch, cube):
        built = []
        monkeypatch.setattr("zircons.zircon.MatchingFamily", lambda **fields: built.append(fields))
        toggle_bit_0 = {str(m): str(m ^ 1) for m in range(8)}
        for phi in automorphisms(cube):
            fixed_point_matching(cube, toggle_bit_0, phi)
        assert built == []

    def test_descent_matching_checks_once(self, check_calls, a3):
        M = descent_matching(a3, a3.longest_element(), "s2", "left")
        assert check_calls == {"special": [24], "matching": [24]}
        assert len(M) == 24

    def test_sweep_builds_one_family_per_case(self, monkeypatch, cube):
        built = []
        real = zircons.zircon.MatchingFamily

        def counting(**fields):
            built.append(fields["order"])
            return real(**fields)

        monkeypatch.setattr("zircons.zircon.MatchingFamily", counting)
        cases = [r for r in sweep_case("cube", cube, 100)
                 if r["check"] == "fixed_point_special"]
        assert cases and all(r["ok"] for r in cases)
        assert len(built) == len(cases)
        assert 3 in built  # the rotations are among the automorphisms

    def test_sweep_walks_the_orbit_once(self, monkeypatch, cube):
        """The sweep walks M's orbit once per case, for the family of its
        records, and hands the construction the base matching;
        ``fixed_point_matching`` builds no conjugate at all."""
        handed, conjugated = [], []
        real_construction = zircons.zircon._fixed_point_matching
        real_conjugates = zircons.zircon._conjugates

        def recording(P, partner, phi):
            handed.append(tuple(partner))
            return real_construction(P, partner, phi)

        def counting(partner, phi):
            conjugated.append(tuple(partner))
            return real_conjugates(partner, phi)

        monkeypatch.setattr("zircons.zircon._fixed_point_matching", recording)
        monkeypatch.setattr("zircons.zircon._conjugates", counting)
        records = sweep_case("cube", cube, 100)
        assert all(r["ok"] for r in records)
        specials = [_partner(cube, M) for M in enumerate_special_matchings(cube)]
        assert len(handed) == len(automorphisms(cube)) * len(specials)
        assert handed == conjugated == [tuple(m) for _ in automorphisms(cube) for m in specials]

        conjugated.clear()
        for phi in automorphisms(cube):
            for M in enumerate_special_matchings(cube):
                fixed_point_matching(cube, M, phi)
        assert conjugated == []

    def test_sweep_builds_one_fixed_subposet_per_automorphism(self, monkeypatch, cube):
        built = _count_calls(monkeypatch, "posets", "_induced")
        cases = [r for r in sweep_case("cube", cube, 100)
                 if r["check"] == "fixed_point_special"]
        assert len(cases) > len(automorphisms(cube)) > 1
        # shared by the fixed_points_zircon check and every construction;
        # the identity's fixed-point subposet is the cube itself
        assert built == [len(cube)] * (len(automorphisms(cube)) - 1)

    def test_fixed_subposet_is_built_once_per_map(self, monkeypatch, cube):
        built = _count_calls(monkeypatch, "posets", "_induced")
        toggle_bit_0 = {str(m): str(m ^ 1) for m in range(8)}
        maps = automorphisms(cube)
        for phi in maps:
            for _ in range(3):
                fixed_point_matching(cube, toggle_bit_0, phi)
            assert fixed_point_subposet(cube, phi) is fixed_point_subposet(cube, phi)
        # the identity's fixed points are the cube itself
        assert maps[0].order() == 1 and fixed_point_subposet(cube, maps[0]) is cube
        assert built == [len(cube)] * (len(maps) - 1)

    @pytest.mark.parametrize("spec", ["A3", "B3"])
    def test_a_descent_matching_at_w0_is_trusted(self, check_calls, spec):
        """At the longest element the ideal is the whole Bruhat order, and
        the matching is one of that very poset: ``fixed_point_matching``
        then checks only its result."""
        W = build_coxeter(spec)
        B = W.bruhat_poset()
        M = descent_matching(W, W.longest_element(), "s1", "right")
        assert M._source is B
        phi = twisted_map(W, theta_from_spec(W, "id"))
        check_calls["special"].clear()
        check_calls["matching"].clear()
        fixed_point_matching(B, M, phi)
        fixed = len(phi.fixed_points())
        assert check_calls == {"special": [fixed], "matching": [fixed]}

    def test_sweep_case_checks_only_the_constructions(self, check_calls, cube):
        """The sweep does not check the matchings its own search found, on
        the cube or anywhere: the checks run once per (automorphism,
        matching) case, on the induced matching of the fixed points."""
        specials = enumerate_special_matchings(cube)
        fixed = [len(phi.fixed_points()) for phi in automorphisms(cube) for _ in specials]
        cases = [r for r in sweep_case("cube", cube, 100)
                 if r["check"] == "fixed_point_special"]
        assert len(cases) == len(fixed) > 1 and all(r["ok"] for r in cases)
        assert check_calls == {"special": fixed, "matching": fixed}

    def test_check_validates_phi_once(self, check_calls, validated_maps, tmp_path, a3):
        M = descent_matching(a3, a3.longest_element(), "s2", "left")
        phi = twisted_map(a3, theta_from_spec(a3, "flip"))
        fixed = len(phi.fixed_points())
        paths = []
        for name, obj in (("p", poset_to_dict(a3.bruhat_poset())),
                          ("m", {"pairs": matching_pairs(M)}), ("phi", {"map": phi.image})):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(obj))
        check_calls["special"].clear()
        check_calls["matching"].clear()
        validated_maps.clear()
        rc = main(["check", *map(str, paths), "--output", str(tmp_path / "report.json")])
        report = json.loads((tmp_path / "report.json").read_text())
        assert rc == 0 and report["fixed_point"]["special"]
        assert validated_maps == [24]
        # M once, by check itself; m_phi once
        assert check_calls == {"special": [24, fixed], "matching": [24, fixed]}

    def test_coxeter_twisted_builds_the_map_once(self, validated_maps, monkeypatch, tmp_path):
        induced = _count_calls(monkeypatch, "posets", "_induced")
        rc = main(["coxeter", "B4", "twisted", "id", "--output", str(tmp_path / "t.json")])
        report = json.loads((tmp_path / "t.json").read_text())
        assert rc == 0 and report["equals_fixed_point_subposet"]
        assert validated_maps == [384]  # the twisted map on the whole of B4
        assert induced == [384]  # the twisted involutions, taken from B4 once
        assert report["cardinality"] == 76

    def test_coxeter_zircon_check_builds_no_diagram_automorphism(self, monkeypatch, tmp_path):
        built = []
        real_init = DiagramAutomorphism.__init__

        def counting(self, system, generator_map):
            built.append(dict(generator_map))
            real_init(self, system, generator_map)

        monkeypatch.setattr(DiagramAutomorphism, "__init__", counting)
        rc = main(["coxeter", "B3", "zircon-check", "--output", str(tmp_path / "z.json")])
        assert rc == 0 and built == []

    def test_coxeter_zircon_check_builds_each_ideal_once(self, monkeypatch, tmp_path):
        ideals = _count_calls(monkeypatch, "posets", "principal_ideal")
        zircon = _count_calls(monkeypatch, "zircon", "is_zircon")
        rc = main(["coxeter", "B3", "zircon-check", "--output", str(tmp_path / "z.json")])
        assert rc == 0 and json.loads((tmp_path / "z.json").read_text())["zircon"]
        assert ideals == []  # every descent matching is checked on the whole of B3
        assert zircon == []

    def test_is_zircon_builds_no_poset(self, monkeypatch):
        """Each principal ideal is searched in place, as a bitmask of P."""
        W = build_coxeter("B3")
        B = W.bruhat_poset()
        twisted = fixed_point_subposet(B, twisted_map(W, theta_from_spec(W, "id")))
        stored = []
        real_init = Poset.__init__

        def counting(self, ids, *args):
            stored.append(len(ids))
            real_init(self, ids, *args)

        monkeypatch.setattr(Poset, "__init__", counting)
        assert is_zircon(B) and is_zircon(twisted)
        assert stored == []

    @pytest.mark.parametrize("zircon", [True, False])
    def test_sweep_case_runs_is_zircon_once(self, monkeypatch, cube, n_poset, zircon):
        P = cube if zircon else n_poset
        assert is_zircon(P) is zircon
        subposets = [fixed_point_subposet(P, phi) for phi in automorphisms(P)
                     if phi.order() != 1] if zircon else []
        calls = _count_calls(monkeypatch, "zircon", "is_zircon")
        sweep_case("p", P, 100)
        # once on P, then once on the fixed-point subposet of each
        # non-identity automorphism of a zircon: the identity's is P
        assert calls == [len(P), *map(len, subposets)]


def _twisted(spec, theta):
    W = build_coxeter(spec)
    return fixed_point_subposet(W.bruhat_poset(), twisted_map(W, theta_from_spec(W, theta)))


class TestTopDownReuse:
    """``is_zircon`` searches a few ideals and reuses each special matching
    on the smaller ideals it maps onto itself; its verdict is that of the
    per-ideal search."""

    def test_every_class_to_7(self):
        verdicts = [is_zircon(P) == per_ideal_is_zircon(P)
                    for n in range(8) for P in enumerate_posets(n)]
        assert len(verdicts) == 2451 and all(verdicts)

    @pytest.mark.parametrize("spec", ["A3", "B3", "I2:6", "A4", "D4"])
    def test_bruhat_orders_and_their_fixed_points(self, spec):
        B = build_coxeter(spec).bruhat_poset()
        assert is_zircon(B) and per_ideal_is_zircon(B)
        maps = automorphisms(B)
        assert len(maps) > 1
        for phi in maps:
            fixed = fixed_point_subposet(B, phi)
            assert is_zircon(fixed) == per_ideal_is_zircon(fixed)

    @pytest.mark.parametrize("spec,theta", [("A4", "id"), ("A4", "flip"), ("B4", "id"),
                                            ("D4", "flip")])
    def test_twisted_involutions(self, spec, theta):
        T = _twisted(spec, theta)
        assert is_zircon(T) and per_ideal_is_zircon(T)

    def test_a_lower_ideal_without_a_special_matching(self):
        """The whole poset, the ideal of its top 5, has a special matching,
        but the ideal {0, 1, 2, 4} of 4 has none: its one perfect matching
        pairs 0 with 2 and 1 with 4, and then the cover 2 < 4 fails. Every
        ideal has an even number of elements, so only a search can tell."""
        P = build_poset(list(range(6)), [(0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)])
        assert all(row.bit_count() % 2 for row in P._below if row)
        assert has_special_matching(P)
        assert not has_special_matching(principal_ideal(P, "4"))
        assert not is_zircon(P) and not per_ideal_is_zircon(P)

    def test_b4_takes_few_searches(self, monkeypatch):
        B = build_coxeter("B4").bruhat_poset()
        searched = _count_calls(monkeypatch, "zircon", "_special_partners")
        assert is_zircon(B)
        # one search per principal ideal would be 383
        assert 0 < len(searched) <= 10

    def test_odd_ideal_decides_before_any_search(self, monkeypatch):
        """The ideal of element 2 of a chain has three elements: no search
        runs, not even on the 2100-element ideal at the top."""
        chain = build_poset(list(range(2100)), [(i, i + 1) for i in range(2099)])
        searched = _count_calls(monkeypatch, "zircon", "_special_partners")
        assert not is_zircon(chain) and searched == []


_NO_EXTREMA = """
import json, sys
import zircons.sweep
zircons.sweep._extrema = lambda P, mask: (-1, -1)  # no element is an extremum
payload = json.loads(sys.argv[1])
P = zircons.poset_from_dict(payload["poset"])
records = zircons.sweep.sweep_case(payload["poset_id"], P, payload["cap"])
print(json.dumps([r["witness"] for r in records
                  if r["check"] == "fixed_points_extremal" and r["automorphism"] == 0]))
"""


def test_proof_step_witness_ignores_the_hash_seed(cube):
    """The sweep walks the fixed points in element order. With the extrema
    patched so that no fixed point of the cube under the identity (the first
    automorphism) is extremal, every hash seed reports the same witness: the
    first fixed point in element order."""
    assert automorphisms(cube)[0].order() == 1
    payload = json.dumps({"poset_id": "cube", "poset": poset_to_dict(cube), "cap": 100})
    src = str(Path(zircons.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = set()
    for seed in range(5):
        result = subprocess.run(
            [sys.executable, "-c", _NO_EXTREMA, payload],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)},
            capture_output=True, text=True, check=True,
        )
        outputs.add(result.stdout)
    witnesses = [json.loads(out) for out in outputs]
    assert len(witnesses) == 1 and set(witnesses[0]) == {"0"}
    assert len(witnesses[0]) == len(enumerate_special_matchings(cube))


def _intervals(spec):
    """Every Bruhat interval [u, v], u < v, with its ``sweep_case`` id."""
    B = build_coxeter(spec).bruhat_poset()
    return [(f"{u}<{v}", interval(B, u, v))
            for u in B.elements for v in B.elements if u != v and leq(B, u, v)]


def _greedy_records(posets):
    """Each ``greedy_descend_endpoints`` record of ``sweep_case`` with the
    poset and the matching family it was made from."""
    for poset_id, P in posets:
        records = [r for r in sweep_case(poset_id, P, DEFAULT_MATCHING_LIMIT)
                   if r["check"] == "greedy_descend_endpoints"]
        if not records:
            continue
        maps = automorphisms(P)
        specials = list(_special_partners(P, (1 << len(P)) - 1, DEFAULT_MATCHING_LIMIT))
        for rec in records:
            yield P, _matching_family(specials[rec["matching"]], maps[rec["automorphism"]]), rec


def _greedy_record(P, F):
    records = _proof_step_records(P, F)
    check, ok, witness = next(r for r in records if r[0] == "greedy_descend_endpoints")
    return {"ok": ok, "witness": witness}


def _unmatched_by(P, F, moved, onto):
    """F with the member that pairs ``moved`` with ``onto`` edited to leave
    both unmatched; the components stay as they were."""
    i, j = P.index(moved), P.index(onto)
    k = next(k for k, member in enumerate(F.orbit) if member[i] == j)
    member = list(F.orbit[k])
    member[i], member[j] = i, j
    return dataclasses.replace(F, orbit=F.orbit[:k] + (tuple(member),) + F.orbit[k + 1:])


class TestGreedyDescendRecord:
    """The sweep's ``greedy_descend_endpoints`` record tests that each
    component's extrema are its only sinks. The shuffled walks it replaced
    are the oracle."""

    @pytest.mark.parametrize("source,count", [("sweep", 32), ("A3", 1518)])
    def test_agrees_with_shuffled_walks(self, source, count):
        if source == "sweep":
            posets = _iter_posets({"mode": "exhaustive", "max_n": 6})
        else:
            posets = _intervals(source)
        cases = 0
        for P, F, rec in _greedy_records(posets):
            ok, witness = shuffled_greedy_endpoints(rec["poset"], P, F, rec["matching"],
                                                    rec["automorphism"])
            assert rec["ok"] == ok
            if ok:
                assert rec["witness"] == witness
            cases += 1
        assert cases == count

    def test_a_down_sink_fails(self, hexagon, hexagon_flip, m_rmult_s1):
        """Only e is below s1 in the one component. With the pair s1-e
        undone, nothing moves s1 down, though s1 is not the bottom."""
        F = _unmatched_by(hexagon, matching_family(hexagon, m_rmult_s1, hexagon_flip), "s1", "e")
        rec = _greedy_record(hexagon, F)
        assert not rec["ok"] and rec["witness"] == ["s1", "s1", "s1.s2.s1"]
        assert not shuffled_greedy_endpoints("p", hexagon, F, 0, 0)[0]

    def test_an_up_sink_fails(self, hexagon, hexagon_flip, m_rmult_s1):
        """One member moves s2.s1 up, to the top. With that pair undone,
        nothing moves s2.s1 up, though s2.s1 is not the top."""
        F = matching_family(hexagon, m_rmult_s1, hexagon_flip)
        F = _unmatched_by(hexagon, F, "s2.s1", "s1.s2.s1")
        rec = _greedy_record(hexagon, F)
        assert not rec["ok"] and rec["witness"] == ["s2.s1", "e", "s2.s1"]
        assert not shuffled_greedy_endpoints("p", hexagon, F, 0, 0)[0]


def test_theorem_on_the_b3_intervals():
    """The fixed-point theorem and its proof steps on every Bruhat interval
    of B3: 799 intervals, 9276 (matching, automorphism) cases."""
    records = [r for poset_id, P in _intervals("B3")
               for r in sweep_case(poset_id, P, DEFAULT_MATCHING_LIMIT)]
    checks = [r["check"] for r in records]
    assert len({r["poset"] for r in records}) == 799
    assert checks.count("fixed_point_special") == checks.count("greedy_descend_endpoints") == 9276
    assert all(r["ok"] for r in records)
