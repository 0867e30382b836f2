import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from iso_oracle import labelled_posets
from subposet_oracle import pairs_subposet, same_poset
from zircons import (
    CycleError,
    DuplicateElementError,
    NotAutomorphismError,
    NotComparableError,
    PosetError,
    RedundantCoverError,
    UnknownElementError,
    are_isomorphic,
    automorphisms,
    build_coxeter,
    build_poset,
    enumerate_posets,
    fix_subgroup_poset,
    fixed_point_subposet,
    induced_subposet,
    interval,
    is_bounded,
    leq,
    map_from_dict,
    mobius,
    mobius_matrix,
    mobius_oracle,
    poset_from_dict,
    poset_to_dict,
    poset_to_dot,
    principal_ideal,
    random_poset,
    rank_function,
    theta_from_spec,
    twisted_map,
)
import zircons
from zircons.corpus import _least_strict_orders, _poset_from_masks
from zircons.posets import Poset, PosetMap, _fixed_subposet, _induced, _sphericity_witness


def brute_closure(relations):
    """Independent transitive-closure oracle: add composites until stable."""
    lt = {(a, b) for a, b in relations if a != b}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(lt), list(lt)):
            if b == c and (a, d) not in lt:
                lt.add((a, d))
                changed = True
    return lt


def brute_covers(elements, relations):
    """Independent transitive-reduction oracle over all pairs."""
    lt = brute_closure(relations)
    return {
        (a, b)
        for a, b in lt
        if not any((a, z) in lt and (z, b) in lt for z in elements)
    }


class TestBuild:
    def test_two_element_chain(self):
        P = build_poset([0, 1], [(0, 1)])
        assert P.covers == (("0", "1"),)

    def test_relations_mode_reduces_diamond(self):
        els = ["0", "1", "2", "3"]
        rels = [("0", "1"), ("0", "2"), ("1", "3"), ("2", "3"), ("0", "3")]
        P = build_poset(els, rels, mode="relations")
        assert set(P.covers) == brute_covers(els, rels)
        assert ("0", "3") not in P.covers

    def test_cycle_detected(self):
        with pytest.raises(CycleError):
            build_poset([0, 1], [(0, 1), (1, 0)], mode="relations")
        # 0 and 3 hang off the cycle 1 -> 2 -> 1; the error names 1 or 2
        with pytest.raises(CycleError, match="'[12]'"):
            build_poset([0, 1, 2, 3], [(0, 1), (1, 2), (2, 1), (2, 3)], mode="relations")

    def test_duplicate_id(self):
        with pytest.raises(DuplicateElementError):
            build_poset([0, 0], [])

    def test_unknown_id_in_pair(self):
        with pytest.raises(UnknownElementError):
            build_poset([0, 1], [(0, 9)])

    def test_covers_mode_rejects_redundant_pair(self):
        with pytest.raises(RedundantCoverError):
            build_poset(
                [0, 1, 2, 3],
                [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)],
                mode="covers",
            )
        # of two redundant pairs, the first in index order is named
        with pytest.raises(RedundantCoverError, match=r"pair \('0', '2'\)"):
            build_poset([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (1, 3), (0, 2)])
        # the least pair over all elements, though ('1', '3') lies under
        # an earlier element than ('0', '4')
        chain = [(0, 1), (1, 2), (2, 3), (3, 4)]
        with pytest.raises(RedundantCoverError, match=r"pair \('0', '4'\)"):
            build_poset(range(5), chain + [(1, 3), (0, 4)])

    def test_repeated_cover_counts_once(self):
        P = build_poset([0, 1], [(0, 1), (0, 1)])
        assert P.covers == (("0", "1"),) and P._down == ((), (0,)) and P._up == ((1,), ())

    def test_covers_mode_rejects_self_cover(self):
        with pytest.raises(RedundantCoverError):
            build_poset([0], [(0, 0)], mode="covers")

    def test_unknown_mode(self):
        with pytest.raises(PosetError, match="unknown mode 'edges'"):
            build_poset([0, 1], [(0, 1)], mode="edges")

    def test_relations_mode_skips_reflexive_pairs(self):
        P = build_poset([0, 1], [(0, 0), (0, 1), (1, 1)], mode="relations")
        assert P.covers == (("0", "1"),)


class TestOneConstructor:
    """``Poset.__init__`` makes every poset; ``build_poset`` validates."""

    @pytest.fixture
    def made(self, monkeypatch):
        """The posets ``Poset.__init__`` fills, in order."""
        made = []
        real_init = Poset.__init__

        def counting(self, *args, **kwargs):
            made.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Poset, "__init__", counting)
        return made

    def test_each_builder_makes_each_result_once(self, made):
        W = build_coxeter("A3")  # no Bruhat order built yet
        theta = theta_from_spec(W, "flip")
        builders = {
            "build_poset": lambda: [build_poset([0, 1, 2], [(0, 1), (0, 2)])],
            "relations": lambda: [build_poset([0, 1, 2], [(0, 1), (1, 2), (0, 2)], "relations")],
            "poset_from_dict": lambda: [poset_from_dict({"elements": ["a", "b"],
                                                         "covers": [["a", "b"]]})],
            "bruhat_poset": lambda: [W.bruhat_poset()],
            "interval": lambda: [interval(W.bruhat_poset(), "s1", "s1.s2.s3")],
            "principal_ideal": lambda: [principal_ideal(W.bruhat_poset(), "s2.s1.s3")],
            "induced_subposet": lambda: [induced_subposet(W.bruhat_poset(), ["e", "s1", "s3"])],
            "fixed_point_subposet": lambda: [fixed_point_subposet(W.bruhat_poset(),
                                                                  twisted_map(W, theta))],
            "fix_subgroup_poset": lambda: [fix_subgroup_poset(W, theta)],
            "enumerate_posets": lambda: list(enumerate_posets(4)),
            "random_poset": lambda: [random_poset(6, 1)],
        }
        for name, build in builders.items():
            made.clear()
            results = build()
            assert [id(P) for P in made] == [id(P) for P in results], name
        assert twisted_map(W, theta).order() != 1

    def test_the_label_form_is_gone(self):
        with pytest.raises(TypeError):
            Poset(["a", "b"], [("a", "b")])


class TestNoReclosure:
    """Every derived poset reads its order off its parent's rows:
    ``_from_lower`` closes only orders given by generating pairs."""

    def test_derived_posets_call_order_zero_times(self, monkeypatch):
        W = build_coxeter("A3")
        B = W.bruhat_poset()
        phi = twisted_map(W, theta_from_spec(W, "flip"))
        closed = []
        real_from_lower = zircons.posets._from_lower

        def counting(ids, lower, covers):
            closed.append(len(ids))
            return real_from_lower(ids, lower, covers)

        for module in ("posets", "corpus"):
            monkeypatch.setattr(f"zircons.{module}._from_lower", counting)
        builders = {
            "interval": lambda: interval(B, "s1", "s1.s2.s3"),
            "principal_ideal": lambda: principal_ideal(B, "s2.s1.s3"),
            "induced_subposet": lambda: induced_subposet(B, ["e", "s1", "s3", "s1.s3"]),
            "fixed_point_subposet": lambda: fixed_point_subposet(B, phi),
            "enumerate_posets": lambda: list(enumerate_posets(5)),
        }
        for name, build in builders.items():
            build()
            assert closed == [], name
        random_poset(6, 1)  # built from generating pairs
        assert closed == [6]



def _wide_diamond(width):
    """A bottom and a top with ``width`` incomparable elements between."""
    middle = [f"m{k}" for k in range(width)]
    covers = [("bot", m) for m in middle] + [(m, "top") for m in middle]
    return ["bot", "top", *middle], covers


class TestExactClosure:
    """256 two-step paths once wrapped a uint8 path count to 0."""

    def test_wide_diamond_is_ordered(self):
        P = build_poset(*_wide_diamond(256))
        assert leq(P, "bot", "top")
        assert not leq(P, "top", "bot")
        assert mobius(P, "bot", "top") == 255

    def test_wide_diamond_rejects_redundant_cover(self):
        elements, covers = _wide_diamond(256)
        with pytest.raises(RedundantCoverError, match="'bot', 'top'"):
            build_poset(elements, covers + [("bot", "top")])

    def test_d5_bruhat_matches_reachability(self):
        B = build_coxeter("D5").bruhat_poset()
        lower = {e: [] for e in B.elements}
        for a, b in B.covers:
            lower[b].append(a)
        for y in B.elements:
            reach = {y}
            stack = [y]
            while stack:
                for x in lower[stack.pop()]:
                    if x not in reach:
                        reach.add(x)
                        stack.append(x)
            assert reach == {x for x in B.elements if leq(B, x, y)}, y


class TestOrderQueries:
    def test_leq_diamond(self, diamond):
        assert leq(diamond, 0, 3)
        assert not leq(diamond, 1, 2)
        for x in diamond.elements:
            assert leq(diamond, x, x)

    def test_leq_unknown(self, diamond):
        with pytest.raises(UnknownElementError):
            leq(diamond, "0", "zzz")

    def test_leq_axioms_on_corpus(self, corpus_to_5):
        for P in corpus_to_5:
            if len(P) > 4:
                continue
            for x, y, z in itertools.product(P.elements, repeat=3):
                if leq(P, x, y) and leq(P, y, x):
                    assert x == y
                if leq(P, x, y) and leq(P, y, z):
                    assert leq(P, x, z)

    def test_covers_have_no_two_step_witness(self, corpus_to_5):
        for P in corpus_to_5:
            for a, b in P.covers:
                assert not any(
                    leq(P, a, z) and leq(P, z, b) and z not in (a, b)
                    for z in P.elements
                )


def _bounded_by_two_sums(P):
    """A unique minimal and a unique maximal element, counted."""
    return sum(not down for down in P._down) == 1 and sum(not up for up in P._up) == 1


class TestBounded:
    """``is_bounded`` reads two entries of the linear extension; it agrees
    with counting the minimal and the maximal elements."""

    def test_every_class_to_7(self):
        verdicts = [(is_bounded(P), _bounded_by_two_sums(P)) for n in range(8) for P in enumerate_posets(n)]
        assert len(verdicts) == 2451 and all(got == want for got, want in verdicts)
        # the point, then a bottom and a top adjoined to each class on
        # n - 2 elements (OEIS A000112)
        assert sum(got for got, _ in verdicts) == 1 + (1 + 1 + 2 + 5 + 16 + 63)

    def test_random_9_element_posets(self):
        posets = [random_poset(9, seed, (0.2, 0.4, 0.6, 0.8)[seed % 4]) for seed in range(300)]
        verdicts = [(is_bounded(P), _bounded_by_two_sums(P)) for P in posets]
        assert all(got == want for got, want in verdicts)
        assert {got for got, _ in verdicts} == {True, False}


class TestIdealsIntervals:
    def test_principal_ideal_top(self, diamond):
        assert principal_ideal(diamond, 3) == diamond

    def test_principal_ideal_chain(self, diamond):
        P = principal_ideal(diamond, 1)
        assert P.elements == ("0", "1") and P.covers == (("0", "1"),)

    def test_principal_ideal_hexagon(self, hexagon):
        P = principal_ideal(hexagon, "s1.s2")
        assert set(P.elements) == {"e", "s1", "s2", "s1.s2"}
        assert set(P.covers) == {
            ("e", "s1"),
            ("e", "s2"),
            ("s1", "s1.s2"),
            ("s2", "s1.s2"),
        }

    def test_interval_point(self, diamond):
        P = interval(diamond, 1, 1)
        assert P.elements == ("1",) and P.covers == ()

    def test_interval_whole(self, diamond):
        assert interval(diamond, 0, 3) == diamond

    def test_interval_hexagon_is_diamond(self, hexagon, diamond):
        P = interval(hexagon, "s1", "s1.s2.s1")
        assert set(P.elements) == {"s1", "s1.s2", "s2.s1", "s1.s2.s1"}
        assert are_isomorphic(P, diamond) is not None

    def test_interval_requires_comparable(self, diamond):
        with pytest.raises(NotComparableError):
            interval(diamond, 1, 2)


class TestRank:
    def test_diamond(self, diamond):
        assert rank_function(diamond) == {"0": 0, "1": 1, "2": 1, "3": 2}

    def test_n_poset(self, n_poset):
        assert rank_function(n_poset) == {"a": 0, "b": 0, "c": 1, "d": 1}

    def test_kite_is_unranked(self):
        kite = build_poset(
            ["x", "y", "z", "u", "v"],
            [("x", "y"), ("y", "z"), ("x", "u"), ("u", "v"), ("v", "z")],
        )
        assert rank_function(kite) is None

    def test_rank_invariant_on_corpus(self, corpus_to_5):
        for P in corpus_to_5:
            ranks = rank_function(P)
            if ranks is None:
                continue
            for a, b in P.covers:
                assert ranks[a] == ranks[b] - 1


class TestMobius:
    def test_reflexive_base(self, corpus_to_5):
        for P in corpus_to_5[:20]:
            for x in P.elements:
                assert mobius(P, x, x) == 1

    def test_diamond(self, diamond):
        assert mobius(diamond, 0, 3) == 1

    def test_hexagon(self, hexagon):
        assert mobius(hexagon, "e", "s1.s2.s1") == -1

    def test_incomparable_raises(self, diamond):
        with pytest.raises(NotComparableError):
            mobius(diamond, 1, 2)

    def test_recursion_identity_on_corpus(self, corpus_to_5):
        for P in corpus_to_5:
            for x in P.elements:
                for y in P.elements:
                    if not leq(P, x, y):
                        continue
                    total = sum(
                        mobius(P, x, z)
                        for z in P.elements
                        if leq(P, x, z) and leq(P, z, y)
                    )
                    assert total == (1 if x == y else 0)

    def test_against_zeta_inversion_oracle(self, corpus_to_5):
        for P in corpus_to_5:
            for x in P.elements:
                for y in P.elements:
                    if leq(P, x, y):
                        assert mobius(P, x, y) == mobius_oracle(P, x, y)

    def test_sphericity_witness_against_zeta_inversion(self):
        """On every class with n <= 6 the witness is the first pair (x, y),
        x in index order and then y, where the zeta-inversion table breaks
        mu(x, y) = (-1)^(rank difference); an unranked class has none."""
        counts = {"ranked": 0, "unranked": 0, "fired": 0}
        for n in range(1, 7):
            for P in enumerate_posets(n):
                witness = _sphericity_witness(P)
                assert witness == zeta_sphericity_witness(P)
                if witness == ["unranked zircon"]:
                    counts["unranked"] += 1
                else:
                    counts["ranked"] += 1
                    counts["fired"] += witness is not None
        assert counts == {"ranked": 365, "unranked": 40, "fired": 243}

    def test_sphericity_witness_in_index_order(self):
        """In a labelled poset the index order need not be a linear
        extension; the witness still takes x and then y in index order."""
        for n in range(1, 5):
            for P in labelled_posets(n):
                assert _sphericity_witness(P) == zeta_sphericity_witness(P)


    @pytest.mark.parametrize("spec,theta,size", [("A3", "id", 10), ("A3", "flip", 10),
                                                 ("A4", "flip", 26), ("B3", "id", 20),
                                                 ("D4", "s1:s2,s2:s1", 32)])
    def test_sphericity_witness_on_twisted_posets(self, spec, theta, size):
        """The twisted involutions, the fixed points of w -> theta(w^-1),
        are Eulerian (Hultman 2005): the parity test finds no bad interval,
        as the zeta-inversion table says."""
        W = build_coxeter(spec)
        P = _fixed_subposet(W.bruhat_poset(), twisted_map(W, theta_from_spec(W, theta)))
        assert len(P) == size
        assert _sphericity_witness(P) is None and zeta_sphericity_witness(P) is None

    @pytest.mark.parametrize("spec", ["A2", "A3", "B3"])
    def test_sphericity_witness_with_one_interval_made_non_eulerian(self, spec):
        """A Bruhat order stays graded when an element z is put between u
        and v, two ranks apart, but [u, v] is then no longer Eulerian, nor
        any interval holding it. With z first or last in the element order,
        the witness is the first bad pair of the zeta-inversion table."""
        B = build_coxeter(spec).bruhat_poset()
        rank = rank_function(B)
        cases = 0
        for u in B.elements:
            for v in B.elements:
                if rank[v] - rank[u] != 2 or not leq(B, u, v):
                    continue
                covers = [*B.covers, (u, "z"), ("z", v)]
                for elements in (["z", *B.elements], [*B.elements, "z"]):
                    P = build_poset(elements, covers)
                    witness = _sphericity_witness(P)
                    assert witness is not None and witness == zeta_sphericity_witness(P)
                    cases += 1
        assert cases == {"A2": 2 * 4, "A3": 2 * 63, "B3": 2 * 192}[spec]

def zeta_sphericity_witness(P):
    """The first pair (x, y), x in index order and then y, where the
    zeta-inversion table breaks mu(x, y) = (-1)^(rank difference), as
    labels; ["unranked zircon"] if P has no rank function."""
    rank = rank_function(P)
    if rank is None:
        return ["unranked zircon"]
    table = mobius_matrix(P)
    return next(([x, y] for x in P.elements for y in P.elements
                 if (x, y) in table and table[x, y] != (-1) ** (rank[y] - rank[x])), None)


def brute_automorphisms(P):
    """Exhaustive bijection check, independent of the search code."""
    out = []
    n = len(P.elements)
    for perm in itertools.permutations(range(n)):
        ok = True
        for i in range(n):
            for j in range(n):
                a = leq(P, P.elements[i], P.elements[j])
                b = leq(P, P.elements[perm[i]], P.elements[perm[j]])
                if a != b:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append({P.elements[i]: P.elements[perm[i]] for i in range(n)})
    return out


class TestAutomorphisms:
    def test_chain_is_rigid(self):
        P = build_poset([0, 1], [(0, 1)])
        maps = automorphisms(P)
        assert len(maps) == 1 and maps[0].order() == 1

    def test_diamond(self, diamond):
        maps = automorphisms(diamond)
        images = [m.image for m in maps]
        assert images == brute_automorphisms(diamond)
        assert {"0": "0", "1": "2", "2": "1", "3": "3"} in images
        assert len(maps) == 2

    def test_hexagon_group(self, hexagon):
        # the two middle ranks are joined by all four covers, so both rank
        # levels can be permuted independently: a Klein four-group
        maps = automorphisms(hexagon)
        assert len(brute_automorphisms(hexagon)) == 4
        assert len(maps) == 4
        flip = {
            "e": "e",
            "s1": "s2",
            "s2": "s1",
            "s1.s2": "s2.s1",
            "s2.s1": "s1.s2",
            "s1.s2.s1": "s1.s2.s1",
        }
        assert flip in [m.image for m in maps]

    def test_all_pass_is_automorphism_and_close_under_composition(self, corpus_to_5):
        for P in corpus_to_5:
            if len(P) > 5:
                continue
            maps = automorphisms(P)
            assert any(m.order() == 1 for m in maps)
            for m in maps:
                assert PosetMap(P, m.image)._perm == m._perm
            perms = {m._perm for m in maps}
            for f in maps:
                for g in maps:
                    assert tuple(f._perm[j] for j in g._perm) in perms

    def test_order_is_the_lcm_of_the_cycles(self, cube):
        """The cube's automorphisms permute its three coordinates: orders
        1, 2 and 3."""
        maps = automorphisms(cube)
        orders = [m.order() for m in maps]
        assert sorted(orders) == [1, 2, 2, 2, 3, 3]
        identity = tuple(range(len(cube)))
        for m, order in zip(maps, orders):
            power = identity
            for k in range(1, 7):
                power = tuple(m._perm[i] for i in power)
                assert (power == identity) == (k % order == 0)

    def test_is_automorphism_rejects_order_reversal(self, diamond):
        with pytest.raises(NotAutomorphismError):
            PosetMap(diamond, {"0": "3", "3": "0", "1": "1", "2": "2"})

    def test_is_automorphism_unknown_ids(self, diamond):
        with pytest.raises(UnknownElementError):
            PosetMap(diamond, {"0": "9", "1": "1", "2": "2", "3": "3"})

    @pytest.mark.parametrize(
        "image,error,message",
        [
            ({"0": "0", "1": "1", "2": "2"}, NotAutomorphismError, "map is not total on the element set"),
            ({"0": "9", "1": "1", "2": "2", "3": "3"}, UnknownElementError, "image '9' is not an element"),
            ({"0": "0", "1": "1", "2": "1", "3": "3"}, NotAutomorphismError, "map is not a bijection"),
            ({"0": "3", "1": "1", "2": "2", "3": "0"}, NotAutomorphismError,
             "map does not preserve the order both ways"),
        ],
    )
    def test_poset_map_rejects_each_failure(self, diamond, image, error, message):
        """Each failure mode of the constructor, with its type and message."""
        with pytest.raises(PosetError) as excinfo:
            PosetMap(diamond, image)
        assert type(excinfo.value) is error and str(excinfo.value) == message


class TestInducedSubposet:
    def test_full_subset(self, hexagon):
        assert induced_subposet(hexagon, hexagon.elements) == hexagon

    def test_new_cover_appears(self, hexagon):
        P = induced_subposet(hexagon, ["e", "s1.s2.s1"])
        assert P.covers == (("e", "s1.s2.s1"),)

    def test_antichain(self, hexagon):
        P = induced_subposet(hexagon, ["s1", "s2"])
        assert P.covers == ()


@st.composite
def shuffled_posets(draw):
    """A poset on 0..n-1 with its elements listed in a drawn order, so that
    its index order is mostly no linear extension, and a subset of its
    indices, ascending."""
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    listing = draw(st.permutations(range(n)))
    P = build_poset(listing, [(min(p), max(p)) for p in pairs if p[0] != p[1]], mode="relations")
    return P, sorted(draw(st.sets(st.integers(0, n - 1))))


class TestOneSubposetBuilder:
    """``_induced`` against the pair-list route it replaced
    (``subposet_oracle.pairs_subposet``): the same rows and the same cover
    adjacency in both directions."""

    @given(shuffled_posets())
    @settings(max_examples=200, deadline=None)
    def test_shuffled_posets_and_subsets(self, data):
        P, members = data
        assert same_poset(_induced(P.elements, P._below, members),
                          pairs_subposet(P.elements, P._below, members))

    def test_a_chain_listed_top_down(self):
        """The walk takes the lowest element first, which another taken
        element lies above: it is no cover."""
        P = build_poset(["c", "b", "a"], [("a", "b"), ("b", "c")])
        Q = induced_subposet(P, ["a", "b", "c"])
        assert Q.covers == (("b", "c"), ("a", "b")) and Q == P
        assert same_poset(Q, pairs_subposet(P.elements, P._below, [0, 1, 2]))

    @pytest.mark.parametrize("spec", ["A3", "B3", "I2:6"])
    def test_intervals_and_ideals_keep_the_parents_covers(self, spec):
        """Everything between two members of an interval is a member, so
        its covers are exactly the parent's covers inside it."""
        B = build_coxeter(spec).bruhat_poset()
        for y in B.elements:
            for x in B.elements:
                if not leq(B, x, y):
                    continue
                Q = interval(B, x, y)
                inside = set(Q.elements)
                assert Q.covers == tuple(c for c in B.covers if set(c) <= inside)
                members = [B.index(z) for z in Q.elements]
                assert same_poset(Q, pairs_subposet(B.elements, B._below, members))
            assert same_poset(principal_ideal(B, y), interval(B, B.elements[0], y))

    @pytest.mark.parametrize("spec,theta_spec,twisted", [
        ("D5", "flip", False), ("A5", "flip", False), ("B4", "id", True),
        ("B5", "id", True), ("D6", "id", True), ("A7", "flip", True),
    ])
    def test_fixed_sets_and_twisted_posets(self, spec, theta_spec, twisted):
        """Fixed subgroups under a diagram automorphism, and twisted
        involutions, the fixed points of w -> theta(w)^-1."""
        W = build_coxeter(spec)
        B = W.bruhat_poset()
        theta = theta_from_spec(W, theta_spec)
        if twisted:
            phi = twisted_map(W, theta)
            Q, perm = fixed_point_subposet(B, phi), phi._perm
        else:
            Q, perm = fix_subgroup_poset(W, theta), theta._perm
        fixed = [i for i, j in enumerate(perm) if i == j]
        assert 1 < len(Q) < len(B)
        assert same_poset(Q, pairs_subposet(B.elements, B._below, fixed))

    def test_corpus_classes(self):
        for n in range(7):
            ids = tuple(map(str, range(n)))
            for below in _least_strict_orders(n):
                assert same_poset(_poset_from_masks(below), pairs_subposet(ids, below, range(n)))


class TestIsomorphism:
    def test_self(self, diamond):
        m = are_isomorphic(diamond, diamond)
        assert m is not None and PosetMap(diamond, m).image == m

    def test_diamond_vs_n_poset(self, diamond, n_poset):
        assert are_isomorphic(diamond, n_poset) is None

    def test_different_sizes(self, diamond, hexagon):
        assert are_isomorphic(diamond, hexagon) is None

    def test_two_empty_posets(self):
        assert are_isomorphic(build_poset([], []), build_poset([], [])) == {}

    def test_finds_map_across_relabeling(self, hexagon):
        relabeled = build_poset(
            [f"x{i}" for i in range(6)],
            [
                (f"x{hexagon.index(a)}", f"x{hexagon.index(b)}")
                for a, b in hexagon.covers
            ],
            mode="covers",
        )
        m = are_isomorphic(hexagon, relabeled)
        assert m is not None
        for a, b in hexagon.covers:
            assert leq(relabeled, m[a], m[b])


class TestSerialization:
    def test_poset_round_trip(self, hexagon):
        assert poset_from_dict(poset_to_dict(hexagon)) == hexagon

    def test_map_round_trip(self, diamond):
        f = PosetMap(diamond, {"0": "0", "1": "2", "2": "1", "3": "3"})
        assert map_from_dict(json.loads(json.dumps({"map": f.image}))) == f.image

    def test_dot_output(self, diamond):
        dot = poset_to_dot(diamond)
        assert '"0" -> "1";' in dot and "rankdir=BT" in dot
        assert "rank=same" in dot  # graded, so layers are aligned


class TestDerivedViews:
    """The label views are derived from the index data; they must agree
    with it and with the definitions, on every class with n <= 5 and
    every automorphism of it."""

    def test_covers_sorted_and_rebuild(self, corpus_to_5):
        for P in corpus_to_5:
            pairs = [(P.index(a), P.index(b)) for a, b in P.covers]
            assert pairs == sorted(pairs)
            assert set(P.covers) == brute_covers(P.elements, P.covers)
            Q = build_poset(P.elements, P.covers)
            assert Q == P and hash(Q) == hash(P)

    def test_extremal_elements(self, corpus_to_5):
        for P in corpus_to_5:
            def strictly_below(x):
                return [y for y in P.elements if y != x and leq(P, y, x)]

            def strictly_above(x):
                return [y for y in P.elements if y != x and leq(P, x, y)]

            assert P.minimal_elements == tuple(x for x in P if not strictly_below(x))
            assert P.maximal_elements == tuple(x for x in P if not strictly_above(x))

    def test_maps_rebuild_from_their_image(self, corpus_to_5):
        for P in corpus_to_5:
            for f in automorphisms(P):
                assert set(f.image) == set(P.elements)
                assert all(f(x) == y for x, y in f.image.items())
                assert PosetMap(P, f.image) == f


@st.composite
def relation_lists(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=12,
        )
    )
    forward = [(a, b) if a < b else (b, a) for a, b in pairs if a != b]
    return n, forward


@given(relation_lists())
@settings(max_examples=60, deadline=None)
def test_build_poset_properties(data):
    n, rels = data
    P = build_poset(list(range(n)), rels, mode="relations")
    closure = brute_closure(rels)
    for a, b in itertools.product(range(n), repeat=2):
        assert leq(P, a, b) == (a == b or (a, b) in closure)
    assert set(P.covers) == {(str(a), str(b)) for a, b in brute_covers(range(n), rels)}
    for a, b in P.covers:
        assert not any(
            leq(P, a, z) and leq(P, z, b) and z not in (a, b) for z in P.elements
        )
    # rebuilding from the emitted covers is the identity
    assert build_poset(P.elements, P.covers, mode="covers") == P


def test_runs_without_numpy():
    """numpy is not a dependency: the package works with it unimportable."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(zircons.__file__).resolve().parents[1])!r})\n"
        "sys.modules['numpy'] = None\n"
        "import zircons\n"
        "P = zircons.build_poset('abcd', [('a', 'b'), ('a', 'c'), ('b', 'd'), ('c', 'd')])\n"
        "assert zircons.leq(P, 'a', 'd') and not zircons.leq(P, 'b', 'c')\n"
        "assert zircons.mobius(P, 'a', 'd') == 1 and zircons.is_zircon(P)\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
