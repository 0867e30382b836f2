"""The automorphism and isomorphism search against its backtracking oracle.

``automorphisms`` must find the oracle's maps and ``are_isomorphic`` its
first witness, since the witness reaches reports and CLI output.
"""

import pytest
from iso_oracle import (
    backtrack_isomorphisms,
    bruhat_automorphisms,
    in_search_order,
    natural_strict_orders,
    signatures,
)

import zircons.posets
from zircons import (
    RedundantCoverError,
    are_isomorphic,
    automorphisms,
    build_coxeter,
    build_poset,
    enumerate_posets,
    fixed_point_subposet,
    interval,
    is_zircon,
    leq,
    poset_from_dict,
    poset_to_dict,
    random_poset,
)
from zircons.corpus import _poset_from_masks
from zircons.posets import Poset, PosetMap, _from_lower, _signatures, _sphericity_witness


def _perms(P):
    return [f._perm for f in automorphisms(P)]


def _reversed_copy(P):
    """P with its ids listed in reverse, so that the candidate sets differ
    and the first witness is not the identity."""
    return build_poset(P.elements[::-1], P.covers)


def _bruhat_intervals(type_spec):
    B = build_coxeter(type_spec).bruhat_poset()
    return [interval(B, u, v) for u in B.elements for v in B.elements if u != v and leq(B, u, v)]


class TestAgainstOracle:
    def test_automorphisms_on_corpus_to_6(self):
        classes = [P for n in range(1, 7) for P in enumerate_posets(n)]
        assert len(classes) == 405
        for P in classes:
            assert _perms(P) == sorted(backtrack_isomorphisms(P, P))

    # the counts of pairs u < v, from the subword property
    @pytest.mark.parametrize("type_spec,count", [("A3", 189), ("B3", 799), ("I2:6", 61)])
    def test_automorphisms_on_bruhat_intervals(self, type_spec, count):
        intervals = _bruhat_intervals(type_spec)
        assert len(intervals) == count
        for I in intervals:
            assert _perms(I) == sorted(backtrack_isomorphisms(I, I))

    def test_witness_on_every_bucket_pair_of_n6(self):
        """Every labeled poset on 6 elements whose index order is a linear
        extension, against every earlier class of its signature bucket, as
        the oracle's corpus deduplication pairs them."""
        buckets: dict[tuple, list] = {}
        pairs = hits = 0
        for below in natural_strict_orders(6):
            P = _poset_from_masks(below)
            reps = buckets.setdefault(tuple(sorted(signatures(P))), [])
            new = True
            for rep in reps:
                first = backtrack_isomorphisms(rep, P, find_all=False)
                witness = None
                if first:
                    witness = {rep.elements[i]: P.elements[j] for i, j in enumerate(first[0])}
                    new = False
                assert are_isomorphic(rep, P) == witness
                pairs += 1
                hits += witness is not None
            if new:
                reps.append(P)
        assert sum(map(len, buckets.values())) == 318
        assert pairs > hits > 0

    def test_witness_across_relabelings_of_b3_intervals(self):
        """A relabelled copy has other candidate sets, so the first witness
        is not the identity."""
        for I in _bruhat_intervals("B3")[::7]:
            Q = _reversed_copy(I)
            first = backtrack_isomorphisms(I, Q, find_all=False)[0]
            assert are_isomorphic(I, Q) == {I.elements[i]: Q.elements[j] for i, j in enumerate(first)}


@pytest.fixture()
def single_leaf_tests(monkeypatch):
    """The verdicts on the maps that the search tests over the covers,
    having found every later position left a single value, instead of
    descending."""
    tested = []
    real = zircons.posets._carries_covers

    def recording(P, Q, mapping):
        tested.append(real(P, Q, mapping))
        return tested[-1]

    monkeypatch.setattr(zircons.posets, "_carries_covers", recording)
    return tested


class TestSingleValueLeaf:
    """Where narrowing leaves each later position a single value, the one
    map below is tested in one pass over the covers. The maps found, and
    their order, stay those of the oracles."""

    @pytest.mark.parametrize("type_spec", ["A4", "B4", "D4"])
    def test_whole_orders(self, single_leaf_tests, type_spec):
        W = build_coxeter(type_spec)
        B = W.bruhat_poset()
        maps = bruhat_automorphisms(W)
        assert _perms(B) == maps
        # the copy lists the same ids reversed: element i of B is n - 1 - i there
        Q, last = _reversed_copy(B), len(B) - 1
        first = in_search_order(B, Q, [tuple(last - j for j in m) for m in maps])[0]
        assert are_isomorphic(B, Q) == {B.elements[i]: Q.elements[j] for i, j in enumerate(first)}
        assert single_leaf_tests

    def test_classes_to_6(self, single_leaf_tests):
        classes = [P for n in range(1, 7) for P in enumerate_posets(n)]
        for P in classes:
            assert _perms(P) == sorted(backtrack_isomorphisms(P, P))
            Q = _reversed_copy(P)
            first = backtrack_isomorphisms(P, Q, find_all=False)[0]
            assert are_isomorphic(P, Q) == {P.elements[i]: Q.elements[j] for i, j in enumerate(first)}
        assert len(classes) == 405 and single_leaf_tests

    # pairs of random posets with equal signatures, found by a search
    # over seeds, where a map of single values fails to carry the covers
    @pytest.mark.parametrize("n,density,seeds", [(9, 0.2, (762, 1067)), (10, 0.2, (854, 1327)),
                                                 (10, 0.35, (34, 1464))])
    def test_a_single_valued_map_that_fails(self, single_leaf_tests, n, density, seeds):
        P, Q = (random_poset(n, seed, density) for seed in seeds)
        assert _signatures(P)[1] == _signatures(Q)[1]
        first = backtrack_isomorphisms(P, Q, find_all=False)
        want = {P.elements[i]: Q.elements[j] for i, j in enumerate(first[0])} if first else None
        assert are_isomorphic(P, Q) == want
        assert False in single_leaf_tests


class TestScale:
    @pytest.mark.parametrize("type_spec,count", [("A4", 4), ("B4", 2), ("D4", 12)])
    def test_waterhouse_counts(self, type_spec, count):
        """|Aut| of a Bruhat order is twice the number of diagram
        automorphisms (Waterhouse 1989): A4 2*2, B4 2*1, D4 2*6."""
        B = build_coxeter(type_spec).bruhat_poset()
        maps = automorphisms(B)
        assert len(maps) == count
        assert len({f._perm for f in maps}) == count and maps[0].order() == 1

    def test_long_chain(self):
        """The search keeps its own stack: a chain longer than the
        recursion limit is rigid and isomorphic to a relabelled copy."""
        n = 1100
        chain = build_poset(range(n), [(i, i + 1) for i in range(n - 1)])
        maps = automorphisms(chain)
        assert len(maps) == 1 and maps[0].order() == 1
        ids = [f"c{n - i}" for i in range(n)]
        copy = build_poset(ids[::-1], [(ids[i], ids[i + 1]) for i in range(n - 1)])
        assert are_isomorphic(chain, copy) == {str(i): ids[i] for i in range(n)}


class TestNoMemo:
    def test_a_poset_gains_no_state(self, hexagon):
        """The searches, the zircon and sphericity checks and the fixed
        points leave every slot of a poset as it was; a map gains only its
        fixed-point subposet."""
        P = poset_from_dict(poset_to_dict(hexagon))  # a fresh instance
        slots = {name: getattr(P, name) for name in Poset.__slots__}
        maps = automorphisms(P)
        map_slots = [(phi.source, phi._perm, phi._fixed) for phi in maps]
        are_isomorphic(P, P)
        is_zircon(P)
        _sphericity_witness(P)
        fixed = [fixed_point_subposet(P, phi) for phi in maps]
        assert not hasattr(P, "__dict__")
        assert all(getattr(P, name) is value for name, value in slots.items())
        assert PosetMap.__slots__ == ("source", "_perm", "_fixed")
        for phi, (source, perm, before), sub in zip(maps, map_slots, fixed):
            assert phi.source is source and phi._perm is perm
            assert before is None and phi._fixed is sub

    def test_signatures_match_the_oracle(self, hexagon):
        sigs, key, _ = _signatures(hexagon)
        assert sigs == signatures(hexagon) and key == tuple(sorted(sigs))


class TestIndexCore:
    def test_rejects_a_redundant_pair(self):
        """The Bruhat order enters the covers-mode validation as each
        element's lower neighbours."""
        with pytest.raises(RedundantCoverError, match="'a', 'c'"):
            _from_lower(("a", "b", "c"), [[], [0], [0, 1]], covers=True)
