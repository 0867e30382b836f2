import pytest

import zircons.matchings
import zircons.zircon
from zircons import (
    BoundednessError,
    ConstructionError,
    ExtremaError,
    MatchingError,
    build_coxeter,
    build_poset,
    component_extrema,
    definitions_agree,
    descent_matching,
    enumerate_special_matchings,
    fixed_point_matching,
    fixed_point_report,
    fixed_point_subposet,
    greedy_descend,
    is_special,
    is_zircon,
    is_zircon_ranked,
    matching_family,
    matching_pairs,
    orbit_component,
    poset_to_dict,
)
from zircons.posets import PosetMap, automorphisms
from zircons.sweep import sweep_case


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
        assert definitions_agree(hexagon)
        assert definitions_agree(n_poset)

    def test_definitions_agree_on_corpus(self, corpus_to_5):
        for P in corpus_to_5:
            assert definitions_agree(P)


class TestTransform:
    """The first family member M_1 is the conjugate p -> phi(M(phi^-1(p)))."""

    def test_identity(self, diamond):
        M = {"0": "1", "1": "0", "2": "3", "3": "2"}
        ident = PosetMap(diamond, {e: e for e in diamond.elements})
        assert matching_family(diamond, M, ident).members[0] == M

    def test_diamond_conjugation(self, diamond, diamond_swap):
        M = {"0": "1", "1": "0", "2": "3", "3": "2"}
        assert matching_family(diamond, M, diamond_swap).members[0] == {
            "0": "2",
            "2": "0",
            "1": "3",
            "3": "1",
        }

    def test_hexagon_flip_gives_other_descent(self, a2, hexagon, hexagon_flip, m_rmult_s1):
        conj = matching_family(hexagon, m_rmult_s1, hexagon_flip).members[0]
        assert conj == descent_matching(a2, "s1.s2.s1", "s2", "right")


class TestMatchingFamily:
    def test_identity_automorphism(self, diamond):
        M = {"0": "1", "1": "0", "2": "3", "3": "2"}
        ident = PosetMap(diamond, {e: e for e in diamond.elements})
        F = matching_family(diamond, M, ident)
        assert F.order == 1 and F.members == (M,)

    def test_diamond_family(self, diamond, diamond_swap):
        M = {"0": "1", "1": "0", "2": "3", "3": "2"}
        F = matching_family(diamond, M, diamond_swap)
        assert F.order == 2
        assert matching_pairs(F.members[0]) == [["0", "2"], ["1", "3"]]
        assert matching_pairs(F.members[1]) == [["0", "1"], ["2", "3"]]

    def test_hexagon_family(self, a2, hexagon, hexagon_flip, m_rmult_s1):
        F = matching_family(hexagon, m_rmult_s1, hexagon_flip)
        assert F.order == 2
        assert F.members[0] == descent_matching(a2, "s1.s2.s1", "s2", "right")
        assert F.members[1] == m_rmult_s1

    def test_conjugates_match_power_formula(self, hexagon, hexagon_flip, m_rmult_s1):
        F = matching_family(hexagon, m_rmult_s1, hexagon_flip)
        for k, M_k in enumerate(F.members, start=1):
            fwd = hexagon_flip.power(k)
            back = hexagon_flip.power(-k)
            for p in hexagon.elements:
                assert M_k[p] == fwd(m_rmult_s1[back(p)])

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

    def test_extrema_raises_on_bad_set(self, diamond):
        with pytest.raises(ExtremaError):
            component_extrema(diamond, {"1", "2"})


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


@pytest.fixture(scope="module")
def cube():
    """Boolean lattice of the subsets of {0, 1, 2}, as bitmasks 0..7."""
    covers = [(m, m | 1 << i) for m in range(8) for i in range(3) if not m >> i & 1]
    return build_poset(list(range(8)), covers)


def _component_walk(F, p):
    """Component of p in the union of the family's edges, walked here apart
    from the one ``matching_family`` stores."""
    seen, frontier = {p}, [p]
    while frontier:
        x = frontier.pop()
        for M_k in F.members:
            if M_k[x] not in seen:
                seen.add(M_k[x])
                frontier.append(M_k[x])
    return frozenset(seen)


def test_family_members_special_and_components_exact(corpus_to_5, cube, a3):
    """The construction does not re-check its intermediate steps at run
    time; this checks them on every class up to n = 5, the cube and the
    Bruhat orders of A3 and I2(6), for every special matching and every
    automorphism: each conjugate is special, M_N is M, and the stored
    components are the orbit components, in element order."""
    cases = 0
    for P in [*corpus_to_5, cube, a3.bruhat_poset(), build_coxeter("I2:6").bruhat_poset()]:
        for M in enumerate_special_matchings(P):
            for phi in automorphisms(P):
                F = matching_family(P, M, phi)
                assert len(F.members) == F.order == phi.order()
                assert F.members[-1] == M
                assert all(is_special(P, M_k).ok for M_k in F.members)
                assert F.components == {p: _component_walk(F, p) for p in P.elements}
                assert list(F.components) == list(P.elements)
                cases += 1
    assert cases > 1000


@pytest.fixture()
def check_calls(monkeypatch):
    """Sizes of the posets that ``is_special`` and ``is_matching`` are run
    on, counted at every module that could call them."""
    calls = {"is_special": [], "is_matching": []}
    for name, seen in calls.items():
        real = getattr(zircons.matchings, name)

        def counting(P, M, real=real, seen=seen):
            seen.append(len(P))
            return real(P, M)

        for module in ("matchings", "zircon", "coxeter"):
            monkeypatch.setattr(f"zircons.{module}.{name}", counting, raising=False)
    return calls


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
        assert check_calls == {"is_special": [8, fixed], "is_matching": [8, fixed]}
        assert len(got) == fixed

    def test_descent_matching_checks_once(self, check_calls, a3):
        M = descent_matching(a3, a3.longest_element(), "s2", "left")
        assert check_calls == {"is_special": [24], "is_matching": [24]}
        assert len(M) == 24

    def test_sweep_builds_one_family_per_case(self, monkeypatch, cube):
        built = []
        real = zircons.zircon.MatchingFamily

        def counting(**fields):
            built.append(fields["order"])
            return real(**fields)

        monkeypatch.setattr("zircons.zircon.MatchingFamily", counting)
        payload = {"poset_id": "cube", "poset": poset_to_dict(cube),
                   "mode": "exhaustive", "cap": 100}
        cases = [r for r in sweep_case(payload) if r["check"] == "fixed_point_special"]
        assert cases and all(r["ok"] for r in cases)
        assert len(built) == len(cases)
        assert 3 in built  # the rotations are among the automorphisms
