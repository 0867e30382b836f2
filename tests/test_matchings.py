import copy
import json
import pickle

import pytest
from matching_oracle import recursive_special_partners

from zircons import (
    MatchingError,
    SearchLimitError,
    SpecialMatching,
    UnknownElementError,
    build_coxeter,
    build_poset,
    descent_matching,
    enumerate_matchings,
    enumerate_posets,
    enumerate_special_matchings,
    fixed_point_subposet,
    has_special_matching,
    interval,
    is_matching,
    is_special,
    is_zircon,
    matching_from_dict,
    matching_pairs,
    principal_ideal,
    theta_from_spec,
    twisted_map,
    verify_lifting,
)
from zircons.matchings import _partner, _special_input, _special_partners
from zircons.posets import _bits, automorphisms


def pairs_set(matchings):
    return {frozenset(map(tuple, matching_pairs(m))) for m in matchings}


def _strictly_below(P):
    """Pairs x < y, by walking up the covers apart from the library's order."""
    up = {x: [] for x in P.elements}
    for a, b in P.covers:
        up[a].append(b)
    below = set()
    for x in P.elements:
        frontier = list(up[x])
        while frontier:
            y = frontier.pop()
            if (x, y) not in below:
                below.add((x, y))
                frontier.extend(up[y])
    return below


def special_oracle(P, M):
    """(is a matching, first failing cover or None), from the definition: a
    total, fixed-point-free involution along Hasse edges, with M(p) = q or
    M(p) < M(q) on every cover p < q, the covers taken in ``covers`` order."""
    covers = set(P.covers)
    if set(M) != set(P.elements) or any(
        p == q or M.get(q) != p or ((p, q) not in covers and (q, p) not in covers)
        for p, q in M.items()
    ):
        return False, None
    below = _strictly_below(P)
    failing = [(p, q) for p, q in P.covers if M[p] != q and (M[p], M[q]) not in below]
    return True, failing[0] if failing else None


class TestIsMatching:
    def test_chain(self):
        P = build_poset([0, 1], [(0, 1)])
        assert is_matching(P, {"0": "1", "1": "0"})

    def test_diamond_good(self, diamond):
        assert is_matching(diamond, {"0": "1", "1": "0", "2": "3", "3": "2"})

    def test_diamond_bad_pairs(self, diamond):
        assert not is_matching(diamond, {"0": "3", "3": "0", "1": "2", "2": "1"})

    def test_partial_map_is_not_a_matching(self, diamond):
        assert not is_matching(diamond, {"0": "1", "1": "0"})

    def test_unknown_ids_raise(self, diamond):
        with pytest.raises(UnknownElementError):
            is_matching(diamond, {"0": "zz", "zz": "0"})

    @pytest.mark.parametrize("M", [
        {"zz": "0"},
        {"0": "1", "1": "0", "2": "3", "3": "2", "zz": "0"},
        {"0": "1", "1": "0", "2": "3", "3": "zz"},
    ])
    def test_unknown_id_raises_before_the_size_is_judged(self, diamond, M):
        with pytest.raises(UnknownElementError):
            is_matching(diamond, M)

    def test_int_keys(self, diamond):
        M = {0: 1, 1: 0, 2: 3, 3: 2}
        assert is_matching(diamond, M) and is_special(diamond, M).ok
        assert _partner(diamond, M) == [1, 0, 3, 2]

    @pytest.mark.parametrize("M", [
        {"0": "1", 1: "0", "1": "0", "2": "3", "3": "2"},  # five keys
        {"0": "1", 1: "0", "1": "0", "2": "3"},  # four keys, "3" unmatched
    ])
    def test_one_element_keyed_twice(self, diamond, M):
        assert not is_matching(diamond, M)
        with pytest.raises(MatchingError, match="not a matching"):
            is_special(diamond, M)


class TestIsSpecial:
    def test_diamond(self, diamond):
        assert is_special(diamond, {"0": "1", "1": "0", "2": "3", "3": "2"}).ok

    def test_n_poset_witness(self, n_poset):
        v = is_special(n_poset, {"a": "c", "c": "a", "b": "d", "d": "b"})
        assert not v.ok
        assert v.witness == ("a", "d")

    def test_hexagon_descent_matching(self, a2, hexagon):
        M = descent_matching(a2, "s1.s2.s1", "s1", "right")
        assert matching_pairs(M) == [["e", "s1"], ["s1.s2", "s1.s2.s1"], ["s2", "s2.s1"]]
        assert is_special(hexagon, M).ok

    def test_requires_matching(self, diamond):
        with pytest.raises(MatchingError):
            is_special(diamond, {"0": "1", "1": "0"})


class TestEnumeration:
    def test_chain(self):
        P = build_poset([0, 1], [(0, 1)])
        assert enumerate_special_matchings(P) == [{"0": "1", "1": "0"}]

    def test_diamond_exactly_two(self, diamond):
        sm = enumerate_special_matchings(diamond)
        assert pairs_set(sm) == {
            frozenset({("0", "1"), ("2", "3")}),
            frozenset({("0", "2"), ("1", "3")}),
        }

    def test_odd_size_empty(self):
        P = build_poset([0, 1, 2], [(0, 1), (1, 2)])
        assert enumerate_special_matchings(P) == []
        assert not has_special_matching(P)

    def test_matches_brute_force_filter_on_corpus(self, corpus_to_5):
        for P in corpus_to_5:
            brute = [m for m in enumerate_matchings(P) if special_oracle(P, m) == (True, None)]
            assert pairs_set(enumerate_special_matchings(P)) == pairs_set(brute)

    def test_limit_is_enforced(self, hexagon):
        # the full Bruhat order of the rank-2 symmetric group carries four
        # special matchings; a cap below that must trip
        assert len(enumerate_special_matchings(hexagon)) == 4
        with pytest.raises(SearchLimitError):
            enumerate_special_matchings(hexagon, limit=3)

    def test_deterministic_order(self, diamond):
        assert enumerate_special_matchings(diamond) == enumerate_special_matchings(diamond)


@pytest.fixture(scope="module")
def in_place_posets(corpus_to_5, cube):
    """Every class up to n = 5, the cube, the Bruhat orders of A3, B3 and
    I2(6) with their elements listed top down (so that an element's lower
    neighbors follow it in element order), and the twisted involutions of
    B3 under the identity."""
    posets = [*corpus_to_5, cube]
    for spec in ("A3", "B3", "I2:6"):
        B = build_coxeter(spec).bruhat_poset()
        posets.append(build_poset(B.elements[::-1], B.covers))
    W = build_coxeter("B3")
    posets.append(fixed_point_subposet(W.bruhat_poset(), twisted_map(W, theta_from_spec(W, "id"))))
    return posets


def _lifted(Q, idxs, n):
    """The special matchings of Q in index form, each mapped to the parent
    indices ``idxs`` of Q's elements and padded with -1 to length n."""
    out = []
    for partner in _special_partners(Q, (1 << len(Q)) - 1):
        row = [-1] * n
        for a, b in enumerate(partner):
            row[idxs[a]] = idxs[b]
        out.append(tuple(row))
    return out


def test_in_place_search_equals_the_built_subposet(in_place_posets):
    """The search on the bitmask of a principal ideal or an interval of P
    finds the matchings of the built subposet, in P's indices and in the
    same order."""
    searched = found = 0
    for P in in_place_posets:
        below = P._below
        for y in range(len(P)):
            ideal = below[y] | 1 << y
            cases = [(ideal, principal_ideal(P, P.elements[y]))]
            for x in _bits(ideal):
                members = sum(1 << k for k in _bits(ideal) if k == x or below[k] >> x & 1)
                cases.append((members, interval(P, P.elements[x], P.elements[y])))
            for members, Q in cases:
                idxs = _bits(members)
                assert Q.elements == tuple(P.elements[k] for k in idxs)
                expected = _lifted(Q, idxs, len(P))
                assert list(_special_partners(P, members)) == expected
                searched += 1
                found += len(expected)
    assert searched == 2640 and found == 4245


def test_is_zircon_equals_the_built_ideals(in_place_posets, n_poset):
    for P in [*in_place_posets, n_poset]:
        minimal = set(P.minimal_elements)
        assert is_zircon(P) == all(has_special_matching(principal_ideal(P, x))
                                   for x in P.elements if x not in minimal)
    assert not is_zircon(n_poset)


def _searched(search, P, members, limit=None):
    """The matchings a search yields before it ends, and whether it ended
    by raising SearchLimitError."""
    found = []
    try:
        for partner in search(P, members, limit):
            found.append(partner)
    except SearchLimitError:
        return found, True
    return found, False


class TestStackSearch:
    """The search on its own stack yields the matchings of the recursive
    search, in the same order, with the same ``limit`` behaviour."""

    def test_equals_the_recursive_search(self, in_place_posets):
        """On the whole poset and on every interval [x, y]."""
        searched = found = 0
        for P in [*in_place_posets, *enumerate_posets(6)]:
            below = P._below
            cases = [(1 << len(P)) - 1]
            for y, row in enumerate(below):
                for x in _bits(row | 1 << y):
                    cases.append(sum(1 << k for k in _bits(row | 1 << y)
                                     if k == x or below[k] >> x & 1))
            for members in cases:
                expected = list(recursive_special_partners(P, members))
                assert list(_special_partners(P, members)) == expected
                for limit in range(min(len(expected), 3) + 1):
                    assert (_searched(_special_partners, P, members, limit)
                            == _searched(recursive_special_partners, P, members, limit))
                searched += 1
                found += len(expected)
        assert searched == 7022 and found == 5810

    def test_a_chain_deeper_than_the_recursion_limit(self):
        """A chain of 2100 elements has one special matching, 1050 pairs
        deep: the recursive search cannot reach it."""
        chain = build_poset(list(range(2100)), [(i, i + 1) for i in range(2099)])
        found = enumerate_special_matchings(chain)
        assert found == [{str(i): str(i ^ 1) for i in range(2100)}]
        with pytest.raises(RecursionError):
            next(recursive_special_partners(chain, (1 << 2100) - 1))

    def test_a6_bruhat_order(self):
        B = build_coxeter("A6").bruhat_poset()
        assert len(B) == 5040 and has_special_matching(B)

    def test_b5_is_a_zircon(self):
        B = build_coxeter("B5").bruhat_poset()
        assert len(B) == 3840 and is_zircon(B)


class TestLifting:
    def test_diamond(self, diamond):
        assert verify_lifting(diamond, {"0": "1", "1": "0", "2": "3", "3": "2"}).ok

    def test_hexagon_descent(self, a2, hexagon):
        M = descent_matching(a2, "s1.s2.s1", "s1", "right")
        assert verify_lifting(hexagon, M).ok

    def test_every_special_matching_on_corpus(self, corpus_to_5):
        for P in corpus_to_5:
            for M in enumerate_special_matchings(P):
                assert verify_lifting(P, M).ok

    def test_rejects_non_special_input(self, n_poset):
        with pytest.raises(MatchingError):
            verify_lifting(n_poset, {"a": "c", "c": "a", "b": "d", "d": "b"})


_MUTATORS = (
    lambda M: M.__setitem__("0", "2"),
    lambda M: M.__delitem__("0"),
    lambda M: M.clear(),
    lambda M: M.pop("0"),
    lambda M: M.popitem(),
    lambda M: M.setdefault("0", "2"),
    lambda M: M.update({"0": "2"}),
    lambda M: M.__ior__({"0": "2"}),
)


class TestSpecialMatching:
    """The library's special matchings are read-only dicts that keep the
    poset they were found on and their index form."""

    @pytest.fixture()
    def found(self, diamond):
        return enumerate_special_matchings(diamond)[0]

    @pytest.mark.parametrize("mutate", _MUTATORS)
    def test_every_mutator_raises(self, found, mutate):
        before = dict(found)
        with pytest.raises(TypeError, match="read-only"):
            mutate(found)
        assert found == before

    def test_augmented_or_raises(self, found):
        M = found
        with pytest.raises(TypeError, match="read-only"):
            M |= {"0": "2"}

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, dict.copy,
                                           lambda M: pickle.loads(pickle.dumps(M))])
    def test_copies_are_plain_dicts(self, found, duplicate):
        twin = duplicate(found)
        assert type(twin) is dict and twin == found
        twin["0"] = "2"  # a copy is mutable, and the original unchanged
        assert found["0"] != "2"

    def test_behaves_as_its_dict(self, found):
        plain = dict(found)
        assert found == plain and plain == found and found != {}
        assert json.dumps(found) == json.dumps(plain)
        assert list(found.items()) == list(plain.items()) and len(found) == 4
        assert matching_pairs(found) == matching_pairs(plain)
        assert isinstance(found, dict) and not hasattr(found, "__dict__")

    def test_keeps_its_source_and_index_form(self, diamond, found):
        assert found._source is diamond
        assert list(found._partner) == _partner(diamond, found)

    def test_descent_matching_keeps_its_ideal(self, a2):
        B = a2.bruhat_poset()
        M = descent_matching(a2, a2.longest_element(), "s1", "left", ideal=B)
        assert type(M) is SpecialMatching and M._source is B
        assert list(M._partner) == _partner(B, M) and is_special(B, M).ok

    def test_only_a_matching_of_this_poset_is_trusted(self, diamond, found):
        """``_special_input`` takes the index form of a ``SpecialMatching``
        of the very poset object it is given; a plain dict, one of an equal
        poset, and one made by hand are parsed and checked."""
        assert _special_input(diamond, found, "x") is found._partner
        twin = build_poset(diamond.elements, diamond.covers)
        by_hand = SpecialMatching(found)
        for M in (dict(found), enumerate_special_matchings(twin)[0], by_hand):
            got = _special_input(diamond, M, "x")
            assert got is not found._partner and got == _partner(diamond, found)

    def test_a_hand_made_non_special_matching_is_rejected(self, n_poset):
        """A hand-made ``SpecialMatching`` carries no proof: the boundary
        checks it like a dict and raises with the caller's message."""
        M = SpecialMatching({"a": "c", "c": "a", "b": "d", "d": "b"})
        with pytest.raises(MatchingError, match="lifting property requires a special matching"):
            verify_lifting(n_poset, M)


def _oracle_inputs(P):
    """Every perfect matching of P's Hasse diagram, then maps that are
    partial, that swap partners between two pairs (usually off the Hasse
    edges), and that fix every element."""
    matchings = enumerate_matchings(P)
    yield from matchings
    a, b = P.covers[0]
    yield {a: b, b: a}
    for M in matchings[:3]:
        if len(M) >= 4:
            (a, b), (c, d) = matching_pairs(M)[:2]
            yield {**M, a: d, d: a, c: b, b: c}
    yield {p: p for p in P.elements}


def test_checks_agree_with_the_definition(corpus_to_5, cube):
    """``is_matching`` and ``is_special`` (verdict and witness) against the
    definition written out in ``special_oracle``, on every perfect matching
    of every class up to n = 5, the cube and I2(6), and on maps that are
    not matchings."""
    posets = [*corpus_to_5, cube, build_coxeter("I2:6").bruhat_poset()]
    seen = {True: 0, False: 0}
    witnesses = 0
    for P in posets:
        if not P.covers:
            continue
        for M in _oracle_inputs(P):
            matching, failing = special_oracle(P, M)
            assert is_matching(P, M) is matching
            seen[matching] += 1
            if not matching:
                with pytest.raises(MatchingError):
                    is_special(P, M)
                continue
            verdict = is_special(P, M)
            assert verdict.ok is (failing is None)
            assert verdict.witness == failing
            witnesses += failing is not None
    assert seen[True] > 50 and seen[False] > 150 and witnesses > 10


def test_specialness_invariant_under_relabeling(corpus_to_5):
    for P in corpus_to_5:
        if len(P) > 5:
            continue
        maps = automorphisms(P)
        if len(maps) == 1:
            continue
        for M in enumerate_matchings(P):
            verdict = is_special(P, M).ok
            for phi in maps:
                conj = {phi(p): phi(q) for p, q in M.items()}
                assert is_special(P, conj).ok == verdict


class TestSerialization:
    def test_round_trip(self, diamond):
        M = {"0": "1", "1": "0", "2": "3", "3": "2"}
        assert matching_from_dict({"pairs": matching_pairs(M)}) == M

    def test_pairs_sorted_once_each(self):
        assert matching_pairs({"b": "a", "a": "b", "d": "c", "c": "d"}) == [
            ["a", "b"],
            ["c", "d"],
        ]

    def test_degenerate_pairs_rejected(self):
        with pytest.raises(MatchingError):
            matching_from_dict({"pairs": [["a", "a"]]})
        with pytest.raises(MatchingError):
            matching_from_dict({"pairs": [["a", "b"], ["b", "c"]]})
