import json
import tracemalloc

import pytest

import coxeter_oracle as oracle
from zircons import (
    CoxeterError,
    DiagramAutomorphism,
    NotAutomorphismError,
    are_isomorphic,
    build_coxeter,
    build_poset,
    descent_matching,
    fix_subgroup_poset,
    fixed_point_matching,
    has_special_matching,
    is_special,
    is_zircon,
    leq,
    matching_pairs,
    principal_ideal,
    rank_function,
    theta_from_spec,
    twisted_involutions,
    twisted_map,
)
from zircons.cli import main
from zircons.coxeter import _descent_failures
from zircons.posets import PosetMap, induced_subposet

TRIALITY = "s1:s2,s2:s4,s4:s1"


def _apply(theta, label):
    """theta on one element, by its index table."""
    W = theta.system
    return W.elements[theta._perm[W._position(label)]].label


class TestBuild:
    @pytest.mark.parametrize(
        "spec,order,max_len",
        [
            ("A1", 2, 1),
            ("A2", 6, 3),
            ("A3", 24, 6),
            ("B2", 8, 4),
            ("B3", 48, 9),
            ("D3", 24, 6),
            ("D4", 192, 12),
            ("I2:5", 10, 5),
            ("I2(6)", 12, 6),
        ],
    )
    def test_orders_and_longest(self, spec, order, max_len):
        W = build_coxeter(spec)
        assert len(W) == order
        assert W.longest_element().length == max_len

    def test_lengths_are_bfs_distances(self, b2):
        dist = oracle.distances(b2)
        assert len(dist) == len(b2)
        for el, model in zip(b2.elements, oracle.models(b2)):
            assert el.length == dist[model]

    def test_words_multiply_out_and_are_reduced(self, a3):
        """The words multiply out to distinct elements, each word as long
        as its element's distance from the identity."""
        dist = oracle.distances(a3)
        assert len(oracle.index(a3)) == len(a3)
        for el, model in zip(a3.elements, oracle.models(a3)):
            assert len(el.word) == el.length == dist[model]

    @pytest.mark.parametrize("spec", ["A3", "B3", "D4", "I2:5"])
    def test_labels_are_shortlex_least(self, spec):
        """Each word is the lexicographically least of all generator words
        of length l(w) that multiply out to w, and the elements come in
        (length, word) order."""
        W = build_coxeter(spec)
        gens = oracle.generators(W)
        dist = oracle.distances(W)
        # A word of length l(w) that multiplies out to w has only prefixes
        # of full length, so the walk below drops no candidate word. It
        # visits the words of each length in lexicographic order.
        least = {}
        stack = [((), oracle.identity(W))]
        while stack:
            word, model = stack.pop()
            least.setdefault(model, word)
            for k in reversed(range(len(gens))):
                v = oracle.mul(model, gens[k])
                if dist[v] == len(word) + 1:
                    stack.append((word + (k + 1,), v))
        assert len(least) == len(W)
        for el, model in zip(W.elements, oracle.models(W)):
            assert el.word == least[model] and el.length == dist[model]
            assert el.label == (".".join(f"s{i}" for i in el.word) or "e")
        keys = [(el.length, el.word) for el in W.elements]
        assert keys == sorted(keys)

    def test_coxeter_matrix(self, a3, b2):
        assert a3.coxeter_matrix == [[1, 3, 2], [3, 1, 3], [2, 3, 1]]
        assert b2.coxeter_matrix == [[1, 4], [4, 1]]
        assert build_coxeter("A4").coxeter_matrix == [
            [1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]
        ]
        assert build_coxeter("B3").coxeter_matrix == [[1, 4, 2], [4, 1, 3], [2, 3, 1]]
        # s3 is the central node of D4, joined to s1, s2 and s4
        assert build_coxeter("D4").coxeter_matrix == [
            [1, 2, 3, 2], [2, 1, 3, 2], [3, 3, 1, 3], [2, 2, 3, 1]
        ]
        for m in range(2, 9):
            assert build_coxeter(f"I2:{m}").coxeter_matrix == [[1, m], [m, 1]]
        for spec in ("A5", "B4", "D5", "I2:7"):
            W = build_coxeter(spec)
            gens = oracle.generators(W)
            assert W.coxeter_matrix == [[oracle.product_order(a, b) for b in gens] for a in gens]

    @pytest.mark.parametrize("spec", ["A3", "B3", "D4", "I2:6"])
    def test_inverse(self, spec):
        W = build_coxeter(spec)
        models = oracle.models(W)
        for i, model in zip(W._inverse, models):
            assert oracle.mul(models[i], model) == oracle.identity(W)

    def test_elements_are_looked_up_by_label(self, a3, b2):
        w = a3.element("s1.s2.s3")
        assert a3.element(w) is w and a3.elements[a3._position(w)] is w
        # a model tuple is no key: after the build an element is its index
        for key in ("s4", b2.longest_element(), (2, 1, 3, 4)):
            with pytest.raises(CoxeterError, match="unknown element"):
                a3.element(key)

    def test_invalid_specs(self):
        for bad in ("Z3", "A0", "I2:1", "B1", ""):
            with pytest.raises(CoxeterError):
                build_coxeter(bad)

    def test_order_cap(self):
        with pytest.raises(CoxeterError, match="group order 362880 exceeds the cap 50000"):
            build_coxeter("A8")
        with pytest.raises(CoxeterError, match="group order 199998 exceeds the cap"):
            build_coxeter("I2:99999")
        # 2001! has 5736 digits, more than a message prints
        with pytest.raises(CoxeterError, match="of more than 4000 digits exceeds the cap 50000"):
            build_coxeter("A2000")
        with pytest.raises(CoxeterError, match="I2 parameter has 5000 digits"):
            build_coxeter("I2:" + "9" * 5000)

    def test_word_letter_cap(self):
        """The reduced words of all |W| elements hold |W| l(w0) / 2 letters.
        B6 holds the most of any A, B or D preset under the order cap,
        46,080 x 36 / 2, and so bounds I2(m), whose m^2 letters pass it only
        up to m = 910."""
        for family, ranks in (("A", range(1, 8)), ("B", range(2, 7)), ("D", range(2, 7))):
            for rank in ranks:
                assert len(build_coxeter(f"{family}{rank}")) <= 50_000
        assert len(build_coxeter("I2:910")) == 1820
        with pytest.raises(CoxeterError, match="the reduced words of I2:911 hold 829921 letters, "
                                               "more than the cap 829440"):
            build_coxeter("I2:911")

    def test_gen_index(self, a3):
        assert a3.gen_index(2) == a3.gen_index("s2") == 2
        with pytest.raises(CoxeterError, match="unknown generator 't1'"):
            a3.gen_index("t1")
        for i in (0, 4):
            with pytest.raises(CoxeterError, match=f"generator index {i} out of range"):
                a3.gen_index(i)

    def test_left_right_multiplication_commute(self, b2):
        """s (w t) = (s w) t, read off the tables."""
        for left in b2._left:
            for right in b2._right:
                for i in range(len(b2)):
                    assert left[right[i]] == right[left[i]]


class TestBruhat:
    def test_a1_chain(self):
        P = build_coxeter("A1").bruhat_poset()
        assert P.elements == ("e", "s1") and P.covers == (("e", "s1"),)

    def test_a2_hexagon(self, hexagon):
        assert len(hexagon) == 6 and len(hexagon.covers) == 8
        assert set(hexagon.covers) == {
            ("e", "s1"),
            ("e", "s2"),
            ("s1", "s1.s2"),
            ("s1", "s2.s1"),
            ("s2", "s1.s2"),
            ("s2", "s2.s1"),
            ("s1.s2", "s1.s2.s1"),
            ("s2.s1", "s1.s2.s1"),
        }

    def test_b2_rank_sizes(self, b2):
        P = b2.bruhat_poset()
        ranks = rank_function(P)
        sizes = [0] * 5
        for r in ranks.values():
            sizes[r] += 1
        assert sizes == [1, 2, 2, 2, 1]

    def test_graded_by_length(self, a3):
        P = a3.bruhat_poset()
        ranks = rank_function(P)
        assert ranks is not None
        for el in a3.elements:
            assert ranks[el.label] == el.length

    @pytest.mark.parametrize(
        "spec",
        [*(f"A{n}" for n in range(1, 6)), "B2", "B3", "B4",
         *(f"D{n}" for n in range(2, 6)), *(f"I2:{m}" for m in range(2, 10))],
    )
    def test_covers_are_the_reflection_criterion(self, spec):
        """v is covered by w exactly when v = w t for a reflection t, a
        conjugate w s w^-1 of a generator, and l(v) = l(w) - 1."""
        W = build_coxeter(spec)
        models, index = oracle.models(W), oracle.index(W)
        reflections = {oracle.mul(oracle.mul(w, g), oracle.inv(w))
                       for w in models for g in oracle.generators(W)}
        covers = set()
        for w, model in zip(W.elements, models):
            for t in reflections:
                v = W.elements[index[oracle.mul(model, t)]]
                if v.length == w.length - 1:
                    covers.add((v.label, w.label))
        assert set(W.bruhat_poset().covers) == covers

    def test_d5_build_allocates_no_pair_list(self):
        """Each element's lower covers go straight to the validation: the
        Bruhat order of D5, 1920 elements, peaks near 1.8 MiB, against
        3.2 MiB when they passed through one list of index pairs."""
        W = build_coxeter("D5")
        tracemalloc.start()
        try:
            W.bruhat_poset()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.4 * 2**20

    @pytest.mark.parametrize("spec", ["A5", "B4", "D5", "I2:7"])
    def test_lower_covers_do_not_repeat(self, spec):
        """The lifting lists reach ``_down`` as they are: each must name
        distinct elements in ascending order, since covers mode does not
        look for a repeat."""
        P = build_coxeter(spec).bruhat_poset()
        assert all(list(row) == sorted(set(row)) for row in P._down)

    def test_subword_comparabilities(self, hexagon):
        assert leq(hexagon, "s1", "s2.s1") and leq(hexagon, "s2", "s1.s2")


class TestDescentMatching:
    def test_a2_w0_right_s1(self, a2):
        M = descent_matching(a2, "s1.s2.s1", "s1", "right")
        assert matching_pairs(M) == [["e", "s1"], ["s1.s2", "s1.s2.s1"], ["s2", "s2.s1"]]

    def test_a1(self):
        W = build_coxeter("A1")
        assert descent_matching(W, "s1", "s1", "right") == {"e": "s1", "s1": "e"}

    def test_b2_w0_all_descents(self, b2):
        w0 = b2.longest_element()
        B = b2.bruhat_poset()
        seen = []
        for side in ("right", "left"):
            for s in (b2.right_descents(w0) if side == "right" else b2.left_descents(w0)):
                M = descent_matching(b2, w0, s, side)
                assert is_special(B, M).ok
                seen.append(M)
        assert len(seen) == 4

    def test_left_vs_right_differ_somewhere(self, a3):
        w = a3.element("s1.s2.s3")
        B = a3.bruhat_poset()
        ideal = principal_ideal(B, w.label)
        right = descent_matching(a3, w, "s3", "right", ideal=ideal)
        left = descent_matching(a3, w, "s1", "left", ideal=ideal)
        assert right != left

    def test_non_descent_rejected(self, a2):
        with pytest.raises(CoxeterError):
            descent_matching(a2, "s1", "s2", "right")

    def test_bad_side_rejected(self, a2):
        with pytest.raises(CoxeterError, match="side must be 'right' or 'left', got 'up'"):
            descent_matching(a2, a2.longest_element(), "s1", "up")

    def test_ideal_with_a_foreign_label_rejected(self, a2):
        ideal = build_poset(["x", "e"], [("e", "x")])
        with pytest.raises(CoxeterError, match="'x' is not an element of A2"):
            descent_matching(a2, a2.longest_element(), "s1", "right", ideal=ideal)


def _swap_s1_s2(W, monkeypatch):
    """s1 multiplies by s2 and s2 by s1."""
    for name in ("_right", "_left"):
        tables = list(getattr(W, name))
        tables[0], tables[1] = tables[1], tables[0]
        monkeypatch.setattr(W, name, tables)


def _s1_multiplies_by(W, monkeypatch, model):
    """Rebuild the tables of s1 from another group element's model."""
    models, index = oracle.models(W), oracle.index(W)
    right = [index[oracle.mul(w, model)] for w in models]
    left = [index[oracle.mul(model, w)] for w in models]
    monkeypatch.setattr(W, "_right", [right] + W._right[1:])
    monkeypatch.setattr(W, "_left", [left] + W._left[1:])


def _s1_as_a_reflection(W, monkeypatch):
    """s1 multiplies by the reflection s_j s1 s_j for a neighbour s_j in the
    diagram, which has length 3 and is not a simple one."""
    j = next(j for j, m in enumerate(W.coxeter_matrix[0]) if m >= 3)
    gens = oracle.generators(W)
    _s1_multiplies_by(W, monkeypatch, oracle.mul(oracle.mul(gens[j], gens[0]), gens[j]))


def _s1_s2_swapped_in_lookup(W, monkeypatch):
    """Looking up a product finds s2 for s1 and s1 for s2: the descent maps
    stay along Hasse edges but stop being involutions."""
    i, j = W._position("s1"), W._position("s2")
    swap = {i: j, j: i}
    for name in ("_right", "_left"):
        tables = [[swap.get(x, x) for x in images] for images in getattr(W, name)]
        monkeypatch.setattr(W, name, tables)


def _s1_as_a_rotation(W, monkeypatch):
    """s1 multiplies by s1 s_j for a neighbour s_j in the diagram, an element
    of even length that is not an involution."""
    j = next(j for j, m in enumerate(W.coxeter_matrix[0]) if m >= 3)
    gens = oracle.generators(W)
    _s1_multiplies_by(W, monkeypatch, oracle.mul(gens[0], gens[j]))


def _weak_order_as_bruhat(W, monkeypatch):
    """The right weak order in place of the Bruhat order."""
    covers = []
    for i, el in enumerate(W.elements):
        for images in W._right:
            up = W.elements[images[i]]
            if up.length > el.length:
                covers.append((el.label, up.label))
    weak = build_poset([el.label for el in W.elements], covers)
    monkeypatch.setattr(W, "bruhat_poset", lambda: weak)


class TestDescentPass:
    """``_descent_failures`` checks every descent matching in one pass over
    the whole Bruhat order per generator and side; ``descent_matching`` on
    the built ideal is its oracle, for every (w, s, side), under injected
    faults too."""

    @staticmethod
    def _verdicts(W, check):
        out = []
        for el in W.elements:
            for side in ("right", "left"):
                for s in W.generators:
                    try:
                        check(el, s, side)
                        out.append(None)
                    except CoxeterError as exc:
                        out.append(str(exc))
        return out

    @staticmethod
    def _per_generator(W):
        passes = {}

        def check(el, s, side):
            k = W.gen_index(s) - 1
            if (k, side) not in passes:
                passes[k, side] = _descent_failures(W, k, side)
            descents, failures = passes[k, side]
            i = W._position(el)
            if not descents >> i & 1:
                raise CoxeterError(f"{s!r} is not a {side} descent of {el.label!r}")
            if i in failures:
                raise CoxeterError(failures[i])

        return check

    @pytest.mark.parametrize("type_spec", ["A3", "B3", "D4", "I2:6"])
    @pytest.mark.parametrize(
        "fault,kinds",
        [
            (None, {"is not a"}),
            (_swap_s1_s2, {"is not a"}),
            (_s1_as_a_reflection, {"is not a", "leaves the ideal", "not a matching"}),
            (_s1_as_a_rotation, {"is not a", "leaves the ideal", "not a matching"}),
            (_s1_s2_swapped_in_lookup, {"is not a", "leaves the ideal", "not a matching"}),
            (_weak_order_as_bruhat,
             {"is not a", "leaves the ideal", "not a matching", "not special at"}),
        ],
    )
    def test_per_generator_equals_per_ideal(self, monkeypatch, type_spec, fault, kinds):
        W = build_coxeter(type_spec)
        W.bruhat_poset()  # built before the fault
        clean = self._verdicts(W, self._per_generator(W))
        if fault:
            fault(W, monkeypatch)
        B = W.bruhat_poset()

        def per_ideal(el, s, side):
            descent_matching(W, el, s, side, ideal=principal_ideal(B, el.label))

        got = self._verdicts(W, self._per_generator(W))
        want = self._verdicts(W, per_ideal)
        assert got == want
        assert {k for k in kinds for msg in want if msg and k in msg} == kinds
        assert (want == clean) == (fault is None)  # a fault changes some verdict
        if fault is None:  # every descent matching is special
            assert want.count(None) == sum(
                len(W.right_descents(el)) + len(W.left_descents(el)) for el in W.elements
            )

    @pytest.mark.parametrize("type_spec", ["A3", "B3", "D4", "I2:6"])
    def test_zircon_check_equals_per_element_loop(self, monkeypatch, tmp_path, type_spec):
        """Under the weak order in place of the Bruhat order, the whole
        ``zircon-check`` report is the one a loop over the elements builds
        from ``descent_matching`` and a search on each built ideal: the
        same witnesses in the same order, count and verdict."""
        W = build_coxeter(type_spec)
        _weak_order_as_bruhat(W, monkeypatch)
        B = W.bruhat_poset()
        witnesses, count, zircon = [], 0, True
        for el in W.elements[1:]:  # every element but e
            ideal = principal_ideal(B, el.label)
            special = False
            for side, descents in (("right", W.right_descents(el)), ("left", W.left_descents(el))):
                for s in descents:
                    count += 1
                    try:
                        descent_matching(W, el, s, side, ideal=ideal)
                        special = True
                    except CoxeterError as exc:
                        witnesses.append([el.label, s, side, str(exc)])
            zircon = zircon and (special or has_special_matching(ideal))
        monkeypatch.setattr("zircons.cli.build_coxeter", lambda spec: W)
        out = tmp_path / "z.json"
        rc = main(["coxeter", type_spec, "zircon-check", "--output", str(out)])
        assert json.loads(out.read_text()) == {
            "type": W.type_spec,
            "cardinality": len(W),
            "zircon": zircon,
            "descent_matchings_checked": count,
            "all_descent_matchings_special": not witnesses,
            "witnesses": witnesses,
        }
        assert witnesses and rc == 1

    @pytest.mark.parametrize("spec", ["A3", "B3", "D4", "I2:6"])
    def test_tables_follow_multiplication(self, spec):
        W = build_coxeter(spec)
        models, index, dist = oracle.models(W), oracle.index(W), oracle.distances(W)
        for name, right, left, g in zip(W.generators, W._right, W._left, oracle.generators(W)):
            for i, el in enumerate(W.elements):
                ws, sw = oracle.mul(models[i], g), oracle.mul(g, models[i])
                assert right[i] == index[ws] and left[i] == index[sw]
                assert (name in W.right_descents(el)) == (dist[ws] < el.length)
                assert (name in W.left_descents(el)) == (dist[sw] < el.length)
        assert W._inverse == [index[oracle.inv(w)] for w in models]


class TestDiagramAutomorphism:
    def test_identity_always_valid(self, b2):
        theta = DiagramAutomorphism(b2, {})
        assert theta.generator_map == {"s1": "s1", "s2": "s2"}
        assert theta._perm == list(range(len(b2)))

    def test_a3_flip_valid(self, a3):
        theta = DiagramAutomorphism(a3, {"s1": "s3", "s3": "s1"})
        assert theta.generator_map["s2"] == "s2"
        assert _apply(theta, "s1") == "s3"

    def test_b2_swap_valid(self, b2):
        theta = DiagramAutomorphism(b2, {"s1": "s2", "s2": "s1"})
        assert _apply(theta, "s1.s2.s1") == "s2.s1.s2"

    def test_b3_swap_invalid(self):
        W = build_coxeter("B3")
        with pytest.raises(CoxeterError):
            DiagramAutomorphism(W, {"s1": "s2", "s2": "s1"})
        with pytest.raises(CoxeterError):
            theta_from_spec(W, "flip")

    def test_non_involution_rejected(self, a3):
        with pytest.raises(CoxeterError):
            DiagramAutomorphism(a3, {"s1": "s2", "s2": "s3", "s3": "s1"})

    def test_d4_triality(self):
        # not an involution, so only the twisted map rejects it
        W = build_coxeter("D4")
        theta = theta_from_spec(W, TRIALITY)
        assert [_apply(theta, s) for s in ("s1", "s2", "s3", "s4")] == ["s2", "s4", "s3", "s1"]
        fixed = fix_subgroup_poset(W, theta)
        assert len(fixed) == 12 and is_zircon(fixed)
        with pytest.raises(CoxeterError, match="involutive"):
            twisted_map(W, theta)

    def test_d4_triality_fixed_point_construction(self):
        W = build_coxeter("D4")
        theta = theta_from_spec(W, TRIALITY)
        B = W.bruhat_poset()
        phi = PosetMap(B, {x: _apply(theta, x) for x in B.elements})
        M = descent_matching(W, W.longest_element(), "s3", "right")
        assert phi.order() == 3
        assert len(fixed_point_matching(B, M, phi)) == 12

    def test_explicit_map_spec(self, a3):
        theta = theta_from_spec(a3, "s1:s3,s3:s1")
        assert theta.generator_map == {"s1": "s3", "s2": "s2", "s3": "s1"}
        with pytest.raises(CoxeterError):
            theta_from_spec(a3, "s1=s3")

    @pytest.mark.parametrize("generator_map", [{"s1": "s4"}, {"s4": "s1"}])
    def test_a_map_off_the_generators_is_rejected(self, a3, generator_map):
        with pytest.raises(CoxeterError, match="generator map must permute the generating set"):
            DiagramAutomorphism(a3, generator_map)

    @pytest.mark.parametrize("spec", ["s1:s3,s3:s1,s1:s1,s3:s3", "s1:s3,s1:s1", "s2:s2, s2 :s2"])
    def test_a_generator_mapped_twice_is_rejected(self, a3, spec):
        with pytest.raises(CoxeterError, match="mapped twice"):
            theta_from_spec(a3, spec)

    def test_group_homomorphism(self, a3):
        """theta(w s) = theta(w) theta(s), on the models."""
        theta = theta_from_spec(a3, "flip")
        models, index = oracle.models(a3), oracle.index(a3)
        gens = oracle.generators(a3)
        image = [models[j] for j in theta._perm]
        for i, model in enumerate(models):
            for k, s in enumerate(a3.generators):
                lhs = image[index[oracle.mul(model, gens[k])]]
                rhs = oracle.mul(image[i], gens[a3.gen_index(theta.generator_map[s]) - 1])
                assert lhs == rhs


class TestTwisted:
    def test_map_is_involution(self, a3):
        tm = twisted_map(a3, theta_from_spec(a3, "id"))
        for e in a3.bruhat_poset().elements:
            assert tm(tm(e)) == e

    def test_a2_fixed_points_are_involutions(self, a2):
        tm = twisted_map(a2, theta_from_spec(a2, "id"))
        assert set(tm.fixed_points()) == {"e", "s1", "s2", "s1.s2.s1"}

    def test_extremes_fixed_under_flip(self, a3):
        tm = twisted_map(a3, theta_from_spec(a3, "flip"))
        fixed = set(tm.fixed_points())
        assert "e" in fixed and a3.longest_element().label in fixed

    def test_involution_counts(self, a2, a3):
        # |{w : w^2 = e}| by brute filter of the multiplication model
        def brute(W):
            return {
                el.label
                for el, w in zip(W.elements, oracle.models(W))
                if oracle.mul(w, w) == oracle.identity(W)
            }

        assert {el.label for el in twisted_involutions(a2, theta_from_spec(a2, "id"))} == brute(a2)
        got = twisted_involutions(a3, theta_from_spec(a3, "id"))
        assert len(got) == 10 and {el.label for el in got} == brute(a3)

    @pytest.mark.parametrize(
        "spec,theta",
        [
            *((f"A{n}", theta) for n in (2, 3, 4) for theta in ("id", "flip")),
            ("B2", "id"), ("B3", "id"), ("B4", "id"),
            ("D4", "flip"), ("I2:5", "flip"), ("I2:6", "flip"),
        ],
    )
    def test_twisted_involutions_are_the_map_fixed_points(self, spec, theta):
        W = build_coxeter(spec)
        theta = theta_from_spec(W, theta)
        labels = [el.label for el in twisted_involutions(W, theta)]
        assert labels == list(twisted_map(W, theta).fixed_points())

    @pytest.mark.parametrize(
        "sources,message",
        [
            ((2, 1), "map does not preserve the order both ways"),  # the two images swapped
            ((3, 3), "map is not a bijection"),  # both sent to the image of element 3
        ],
    )
    def test_a_corrupted_diagram_automorphism_is_rejected(self, monkeypatch, capsys, a3, sources, message):
        """Entries 1 and 2 of theta's index table, edited after construction
        to the images of ``sources``: the twisted map fails its automorphism
        check, and the CLI exits 2."""

        def corrupted(W, spec):
            theta = theta_from_spec(W, spec)
            theta._perm[1], theta._perm[2] = [theta._perm[k] for k in sources]
            return theta

        with pytest.raises(NotAutomorphismError) as excinfo:
            twisted_map(a3, corrupted(a3, "flip"))
        assert str(excinfo.value) == message
        monkeypatch.setattr("zircons.cli.theta_from_spec", corrupted)
        assert main(["coxeter", "A3", "twisted", "flip"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_generators_are_twisted_involutions(self, a3):
        labels = {el.label for el in twisted_involutions(a3, theta_from_spec(a3, "id"))}
        assert {"e", "s1", "s2", "s3"} <= labels

    def test_twisted_poset_is_zircon(self, a2):
        B = a2.bruhat_poset()
        labels = [el.label for el in twisted_involutions(a2, theta_from_spec(a2, "id"))]
        P = induced_subposet(B, labels)
        assert is_zircon(P)


class TestFixSubgroup:
    def test_identity_gives_whole_group(self, a2, hexagon):
        assert fix_subgroup_poset(a2, theta_from_spec(a2, "id")) == hexagon

    @pytest.mark.parametrize("spec", ["A3", "B3", "D4", "I2:6"])
    def test_identity_returns_the_bruhat_order(self, spec):
        """The identity fixes every element: its fixed subposet is the
        Bruhat order itself, not a copy."""
        W = build_coxeter(spec)
        assert fix_subgroup_poset(W, theta_from_spec(W, "id")) is W.bruhat_poset()

    def test_a3_flip_cardinality(self, a3):
        P = fix_subgroup_poset(a3, theta_from_spec(a3, "flip"))
        assert len(P) == 8

    def test_a3_flip_isomorphic_to_b2(self, a3, b2):
        P = fix_subgroup_poset(a3, theta_from_spec(a3, "flip"))
        assert are_isomorphic(P, b2.bruhat_poset()) is not None
