"""Acceptance suite.

Each test covers one acceptance criterion, prints a single PASS/FAIL
line (run with ``pytest -s`` to see them live), and asserts the stated
tolerance: all quantifications are exhaustive and all checks demand zero
violations.
"""

import time

import pytest

import coxeter_oracle as oracle
from zircons import (
    are_isomorphic,
    build_coxeter,
    enumerate_matchings,
    enumerate_posets,
    enumerate_special_matchings,
    fix_subgroup_poset,
    is_special,
    is_zircon,
    leq,
    matching_pairs,
    mobius,
    mobius_matrix,
    rank_function,
    theta_from_spec,
    twisted_involutions,
    twisted_map,
)
from zircons.posets import induced_subposet
from zircons.sweep import run_sweep

CLASS_TOTAL = 405  # 1 + 2 + 5 + 16 + 63 + 318 isomorphism classes, n <= 6


def report(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num:02d} failed: {desc}"


@pytest.fixture(scope="module")
def exhaustive_sweep():
    started = time.perf_counter()
    rep = run_sweep({"mode": "exhaustive", "max_n": 6}, jobs=1)
    return rep, time.perf_counter() - started


def records(rep, check):
    return [r for r in rep.cases if r["check"] == check]


def test_criterion_01_fixed_point_theorem_sweep(exhaustive_sweep):
    rep, elapsed = exhaustive_sweep
    recs = records(rep, "fixed_point_special")
    ok = (
        rep.summary["posets"] == CLASS_TOTAL
        and len(recs) > 0
        and all(r["ok"] for r in recs)
        and elapsed < 300.0
    )
    covered = len({r["poset"] for r in recs})
    report(
        1,
        ok,
        f"fixed-point matching special on all {len(recs)} (M, phi) cases over "
        f"{covered} bounded posets with special matchings, {CLASS_TOTAL} classes, "
        f"{elapsed:.1f}s single-threaded (< 300s)",
    )


def test_criterion_02_fixed_points_stay_zircons(exhaustive_sweep):
    rep, _ = exhaustive_sweep
    recs = records(rep, "fixed_points_zircon")
    ok = len(recs) > 0 and all(r["ok"] for r in recs)
    report(2, ok, f"fixed points of every automorphism of every zircon are zircons ({len(recs)} cases)")


def test_criterion_03_lifting_property(exhaustive_sweep):
    rep, _ = exhaustive_sweep
    recs = records(rep, "lifting_property")
    ok = len(recs) > 0 and all(r["ok"] for r in recs)
    report(3, ok, f"lifting property holds for every special matching in the sweep ({len(recs)} matchings)")


def test_criterion_04_definitions_agree(exhaustive_sweep):
    rep, _ = exhaustive_sweep
    recs = records(rep, "definitions_agree")
    ok = len(recs) == CLASS_TOTAL and all(r["ok"] for r in recs)
    report(4, ok, f"both zircon definitions agree on all {len(recs)} classes")


def test_criterion_05_bruhat_orders_are_zircons():
    started = time.perf_counter()
    systems = ["A2", "A3", "B2", "B3"] + [f"I2:{m}" for m in range(3, 9)]
    checked = 0
    ok = True
    detail = []
    for spec in systems:
        W = build_coxeter(spec)
        B = W.bruhat_poset()
        if not is_zircon(B):
            ok = False
            detail.append(f"{spec} not a zircon")
            continue
        from zircons.posets import principal_ideal

        for el in W.elements:
            if el.length == 0:
                continue
            ideal = principal_ideal(B, el.label)
            for side in ("right", "left"):
                descents = W.right_descents(el) if side == "right" else W.left_descents(el)
                for s in descents:
                    from zircons import descent_matching

                    M = descent_matching(W, el, s, side, ideal=ideal)  # raises if not special
                    assert is_special(ideal, M).ok
                    checked += 1
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    report(
        5,
        ok,
        f"Bruhat orders of {', '.join(systems)} are zircons; {checked} descent "
        f"matchings all special, {elapsed:.1f}s (< 120s)" + ("; ".join(detail) if detail else ""),
    )


def test_criterion_06_twisted_involutions():
    cases = [("A2", "id"), ("A3", "id"), ("A3", "flip"), ("B2", "id"), ("B3", "id")]
    anchors = {("A2", "id"): 4, ("A3", "id"): 10}
    ok = True
    details = []
    for spec, theta_spec in cases:
        W = build_coxeter(spec)
        theta = theta_from_spec(W, theta_spec)
        B = W.bruhat_poset()
        labels = [el.label for el in twisted_involutions(W, theta)]
        twisted = induced_subposet(B, labels)
        fixed = induced_subposet(B, twisted_map(W, theta).fixed_points())
        if twisted != fixed:
            ok = False
            details.append(f"{spec}/{theta_spec}: poset mismatch")
            continue
        if (spec, theta_spec) in anchors:
            brute = sum(1 for w in oracle.models(W) if oracle.mul(w, w) == oracle.identity(W))
            if not (len(labels) == anchors[(spec, theta_spec)] == brute):
                ok = False
                details.append(f"{spec}/{theta_spec}: cardinality anchor")
        if not is_zircon(twisted):
            ok = False
            details.append(f"{spec}/{theta_spec}: not a zircon")
            continue
        ranks = rank_function(twisted)
        if ranks is None:
            ok = False
            details.append(f"{spec}/{theta_spec}: unranked")
            continue
        for x in twisted.elements:
            for y in twisted.elements:
                if leq(twisted, x, y):
                    if mobius(twisted, x, y) != (-1) ** (ranks[y] - ranks[x]):
                        ok = False
                        details.append(f"{spec}/{theta_spec}: sphericity at ({x},{y})")
    report(
        6,
        ok,
        "twisted-involution posets equal the fixed-point subposets, are zircons, "
        "and satisfy the Mobius sphericity proxy on every interval"
        + ("; " + "; ".join(details) if details else ""),
    )


def test_criterion_07_fixed_subgroup_poset():
    A3 = build_coxeter("A3")
    B2 = build_coxeter("B2")
    fix = fix_subgroup_poset(A3, theta_from_spec(A3, "flip"))
    target = B2.bruhat_poset()
    ok = len(fix) == 8 == len(target) and are_isomorphic(fix, target) is not None
    report(7, ok, "Bruhat order on the flip-fixed subgroup of A3 is isomorphic to the B2 Bruhat order (8 elements)")


def test_criterion_08_oracle_equivalences():
    posets = 0
    matching_mismatches = 0
    mobius_mismatches = 0
    for n in range(1, 7):
        for P in enumerate_posets(n):
            posets += 1
            clever = {
                frozenset(map(tuple, matching_pairs(m)))
                for m in enumerate_special_matchings(P)
            }
            brute = {
                frozenset(map(tuple, matching_pairs(m)))
                for m in enumerate_matchings(P)
                if is_special(P, m).ok
            }
            if clever != brute:
                matching_mismatches += 1
            for (x, y), value in mobius_matrix(P).items():
                if mobius(P, x, y) != value:
                    mobius_mismatches += 1
    ok = posets == CLASS_TOTAL and matching_mismatches == 0 and mobius_mismatches == 0
    report(
        8,
        ok,
        f"special-matching enumeration and Mobius recursion match their brute-force "
        f"oracles on all {posets} classes (0 discrepancies)",
    )


def test_criterion_09_proof_step_properties(exhaustive_sweep):
    rep, _ = exhaustive_sweep
    ok = True
    counts = {}
    for check in (
        "component_extrema_unique",
        "fixed_points_extremal",
        "min_fixed_iff_max_fixed",
        "greedy_descend_endpoints",
    ):
        recs = records(rep, check)
        counts[check] = len(recs)
        if not recs or not all(r["ok"] for r in recs):
            ok = False
    report(
        9,
        ok,
        "unique component extrema, extremal fixed points, min-fixed iff max-fixed, "
        f"and greedy descent to the component extrema in every order across the sweep ({counts})",
    )


def test_criterion_10_randomized_extension():
    started = time.perf_counter()
    total = violations = skipped = ran = 0
    for n, count in ((8, 167), (10, 167), (12, 166)):
        rep = run_sweep(
            {"mode": "random", "n": n, "seeds": list(range(count)), "density": 0.3},
            jobs=1,
        )
        total += rep.summary["posets"]
        violations += rep.summary["violations"]
        skipped += rep.summary["skipped"]
        ran += len({r["poset"] for r in rep.cases if r["check"] == "fixed_point_special"})
    elapsed = time.perf_counter() - started
    ok = total == 500 and violations == 0 and elapsed < 600.0
    report(
        10,
        ok,
        f"500 seeded random posets (n in 8/10/12, density 0.3): 0 violations, "
        f"{ran} posets ran the full fixed-point suite, {skipped} skipped by "
        f"precondition, {elapsed:.1f}s (< 600s)",
    )
