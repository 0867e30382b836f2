import pytest

from zircons import (
    MatchingError,
    SearchLimitError,
    UnknownElementError,
    build_poset,
    descent_matching,
    enumerate_matchings,
    enumerate_special_matchings,
    has_special_matching,
    is_matching,
    is_special,
    matching_from_dict,
    matching_pairs,
    matching_to_dict,
    verify_lifting,
)
from zircons.posets import automorphisms


def pairs_set(matchings):
    return {frozenset(map(tuple, matching_pairs(m))) for m in matchings}


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
            brute = [m for m in enumerate_matchings(P) if is_special(P, m).ok]
            assert pairs_set(enumerate_special_matchings(P)) == pairs_set(brute)

    def test_limit_is_enforced(self, hexagon):
        # the full Bruhat order of the rank-2 symmetric group carries four
        # special matchings; a cap below that must trip
        assert len(enumerate_special_matchings(hexagon)) == 4
        with pytest.raises(SearchLimitError):
            enumerate_special_matchings(hexagon, limit=3)

    def test_deterministic_order(self, diamond):
        assert enumerate_special_matchings(diamond) == enumerate_special_matchings(diamond)


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
        assert matching_from_dict(matching_to_dict(M)) == M

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
