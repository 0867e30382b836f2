import pytest

from zircons import (
    PosetError,
    are_isomorphic,
    build_poset,
    enumerate_matchings,
    enumerate_posets,
    leq,
    mobius,
    mobius_matrix,
    mobius_oracle,
    poset_to_dict,
    random_poset,
)
from zircons.sweep import _iter_payloads

# counts of posets by isomorphism class and by labeling, n = 1..
CLASS_COUNTS = [1, 2, 5, 16, 63, 318]
LABELED_COUNTS = [1, 3, 19, 219, 4231]


class TestEnumeration:
    @pytest.mark.parametrize("n,count", list(enumerate(CLASS_COUNTS[:5], start=1)))
    def test_class_counts(self, n, count):
        assert sum(1 for _ in enumerate_posets(n)) == count

    @pytest.mark.parametrize("n,count", list(enumerate(LABELED_COUNTS[:4], start=1)))
    def test_labeled_counts(self, n, count):
        assert sum(1 for _ in enumerate_posets(n, canonical=False)) == count

    def test_classes_are_pairwise_non_isomorphic(self):
        classes = list(enumerate_posets(4))
        for i, P in enumerate(classes):
            for Q in classes[i + 1 :]:
                assert are_isomorphic(P, Q) is None

    def test_every_labeled_poset_has_a_class(self):
        classes = list(enumerate_posets(3))
        for P in enumerate_posets(3, canonical=False):
            assert sum(1 for Q in classes if are_isomorphic(P, Q) is not None) == 1

    def test_cap(self):
        with pytest.raises(PosetError):
            next(enumerate_posets(8))

    def test_stream_ids_unique(self):
        payloads = _iter_payloads({"mode": "exhaustive", "max_n": 4}, cap_matchings=1)
        ids = [payload["poset_id"] for payload in payloads]
        assert len(ids) == len(set(ids)) == 24


class TestMatchingOracle:
    def test_diamond_two(self, diamond):
        assert len(enumerate_matchings(diamond)) == 2

    def test_four_chain_single(self):
        P = build_poset([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
        ms = enumerate_matchings(P)
        assert len(ms) == 1
        assert ms[0] == {"0": "1", "1": "0", "2": "3", "3": "2"}

    def test_odd_empty(self):
        P = build_poset([0, 1, 2], [(0, 1), (1, 2)])
        assert enumerate_matchings(P) == []


class TestMobiusOracle:
    def test_reflexive(self, diamond):
        for x in diamond.elements:
            assert mobius_oracle(diamond, x, x) == 1

    def test_diamond(self, diamond):
        assert mobius_oracle(diamond, 0, 3) == 1

    def test_hexagon(self, hexagon):
        assert mobius_oracle(hexagon, "e", "s1.s2.s1") == -1

    def test_incomparable_raises(self, diamond):
        with pytest.raises(PosetError):
            mobius_oracle(diamond, 1, 2)

    def test_agrees_with_recursion_everywhere(self, corpus_to_5):
        for P in corpus_to_5:
            table = mobius_matrix(P)
            for (x, y), value in table.items():
                assert leq(P, x, y)
                assert mobius(P, x, y) == value


class TestRandomPosets:
    def test_deterministic_per_seed(self):
        assert poset_to_dict(random_poset(9, 7)) == poset_to_dict(random_poset(9, 7))
        assert poset_to_dict(random_poset(9, 7)) != poset_to_dict(random_poset(9, 8))

    def test_density_zero_antichain(self):
        assert random_poset(6, 1, 0.0).covers == ()

    def test_density_one_chain(self):
        P = random_poset(5, 1, 1.0)
        assert P.covers == (("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"))

    def test_golden_snapshot(self):
        got = poset_to_dict(random_poset(8, 42, 0.3))
        assert got == {
            "elements": ["0", "1", "2", "3", "4", "5", "6", "7"],
            "covers": [
                ["0", "2"],
                ["0", "4"],
                ["1", "2"],
                ["1", "4"],
                ["2", "3"],
                ["2", "6"],
                ["3", "5"],
                ["4", "6"],
                ["5", "7"],
                ["6", "7"],
            ],
        }

    def test_density_validation(self):
        with pytest.raises(PosetError):
            random_poset(4, 0, 1.5)
