"""Self-tests of the benchmark harness, its oracles and its known answers.

    python3 -m pytest -q benchmarks/selftest.py

The file name keeps these tests out of the library's own test run.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import oracles  # noqa: E402

harness.ensure_library()

import zircons  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = harness.load_workloads()


def _cli_case(argv, expect, isolated=False):
    return {"id": " ".join(argv), "kind": "cli", "argv": argv, "limit_s": 60,
            "isolated": isolated, "expect": expect}


def test_case_over_its_limit_is_undecided_and_charged_its_limit():
    case = {"id": "spinner", "kind": "spin", "spin_s": 120, "limit_s": 0.5,
            "isolated": True, "expect": []}
    for tracer in (None, Tracer()):
        started = perf_counter()
        result = harness.run_pass([case], tracer)
        assert perf_counter() - started < 60
        (outcome,) = result["cases"]
        assert outcome["killed"] and not outcome["decided"]
        assert outcome["seconds"] == result["wall_s"] == 0.5
        assert outcome["error"] is None and outcome["wrong"] == []
        assert harness.end_to_end([result], [0.1])["decided_share"][0] == 0
    # the traced child's spans up to the limit are kept, cut at the limit
    layers = harness.per_layer(result, result, tracer.spans)
    assert layers["posets.aut.calls"] > 0 and layers["posets.aut.self_s"] > 0
    assert abs(layers["trace.killed_s"] - 0.5) < 1e-9
    assert abs(layers["trace.layer_self_s"] + layers["trace.bench_s"] - 0.5) < 1e-6


def test_wrong_answer_counts_as_wrong_verdict():
    for isolated in (False, True):
        case = _cli_case(["coxeter", "A2", "zircon-check"],
                         [["cardinality", 7, "deliberately wrong: |A2| = 6"],
                          ["zircon", True, "bruhat_zircon"]], isolated)
        result = harness.run_pass([case])
        (outcome,) = result["cases"]
        assert outcome["wrong"] == ["cardinality: got 6, want 7"]
        assert outcome["decided"]
        assert harness.end_to_end([result], [0.1])["wrong_verdicts"][0] == 1


SMALL = [
    _cli_case(["coxeter", "A3", "zircon-check"],
              [["rc", 0, "bruhat_zircon"], ["descent_matchings_checked", 72, "descent_count"]]),
    _cli_case(["coxeter", "B2", "twisted", "flip"], [["rc", 0, "twisted_fixed"]]),
    _cli_case(["sweep", "{bench}/inputs/sweep_exhaustive_6.json", "--jobs", "1"],
              [["summary.violations", 0, "sweep_clean"]]),
    {"id": "intervals-I2:4", "kind": "intervals", "type": "I2:4", "limit_s": 60,
     "isolated": False, "expect": [["intervals", oracles.dihedral_interval_count(4), "subword_intervals"]]},
    {"id": "whole-A3", "kind": "whole", "type": "A3", "limit_s": 60, "isolated": True,
     "expect": [["automorphisms", 4, "waterhouse"], ["constructions_not_special", 0, "theorem"]]},
    {"id": "zircon-check-D4", "kind": "cli", "argv": ["coxeter", "D4", "zircon-check"],
     "oracle": "D4", "limit_s": 60, "isolated": True,
     "expect": [["zircon", True, "bruhat_zircon"], ["oracle_mismatches", 0, "reachability"]]},
    {"id": "enumerate-n4", "kind": "enumerate", "n": 4, "limit_s": 60, "isolated": False,
     "expect": [["classes", 16, "A000112"]]},
]


def test_traced_and_untraced_passes_agree():
    originals = (zircons.is_zircon, zircons.cli.main, zircons.CoxeterSystem.bruhat_poset)
    plain = harness.run_pass(SMALL)
    tracer = Tracer()
    traced = harness.run_pass(SMALL, tracer)
    assert harness.verdicts(plain) == harness.verdicts(traced)
    assert plain["checks_run"] == traced["checks_run"] > 0
    assert all(o["decided"] and not o["wrong"] for o in traced["cases"])
    assert tracer.missing == []
    assert (zircons.is_zircon, zircons.cli.main, zircons.CoxeterSystem.bruhat_poset) == originals

    layers = harness.per_layer(plain, traced, tracer.spans)
    accounted = layers["trace.layer_self_s"] + layers["trace.bench_s"]
    assert abs(accounted - traced["wall_s"]) < 1e-3 * traced["wall_s"]
    assert 0.5 < layers["trace.layer_share"] < 1
    assert layers["lib.direct.calls"] > 0  # leq and fixed_point_subposet in the runners
    assert layers["posets.aut.maps"] > 0  # counted in the isolated child
    assert layers["sweep.records"] == traced["cases"][2]["checks"]
    assert layers["corpus.classes"] == 1 + 2 + 5 + 16 + 63 + 318 + 16
    assert layers["cli.main.calls"] == 4


def test_every_known_answer_names_a_source():
    for workload in WORKLOADS["workloads"].values():
        for case in workload["cases"]:
            assert case["expect"], case["id"]
            for path, _, source in case["expect"]:
                assert source in WORKLOADS["sources"], (case["id"], path)


def _expected(case_id: str, path: str):
    for workload in WORKLOADS["workloads"].values():
        for case in workload["cases"]:
            if case["id"] == case_id:
                return next(v for p, v, _ in case["expect"] if p == path)
    raise KeyError(case_id)


def test_computed_known_answers_match_the_oracles():
    for spec in ("A3", "B3"):
        count = oracles.bruhat_interval_count(spec[0], int(spec[1]))
        assert _expected(f"intervals-{spec}", "intervals") == count
    assert _expected("intervals-I2:6", "intervals") == oracles.dihedral_interval_count(6)
    for family, rank in (("D", 4), ("B", 4), ("A", 5), ("D", 5)):
        order = oracles.group_order(family, rank)
        case_id = f"zircon-check-{family}{rank}"
        assert _expected(case_id, "cardinality") == order
        assert _expected(case_id, "descent_matchings_checked") == rank * order
    perms5 = list(oracles.signed_permutations(5, signed=False))
    assert _expected("twisted-A4-id", "cardinality") == oracles.count_twisted_involutions(perms5)
    assert _expected("twisted-A4-flip", "cardinality") == oracles.count_twisted_involutions(
        perms5, (5, 4, 3, 2, 1))
    assert _expected("twisted-B4-id", "cardinality") == oracles.count_twisted_involutions(
        oracles.signed_permutations(4, signed=True))
    assert _expected("twisted-D4-flip", "cardinality") == oracles.count_d_flip_twisted_involutions(4)


def test_reachability_oracle_counts_past_255_paths():
    middle = [f"m{i}" for i in range(256)]
    elements = ["bot", *middle, "top"]
    covers = [("bot", m) for m in middle] + [(m, "top") for m in middle]
    below = oracles.reachability_below(elements, covers)
    assert below["top"] == (1 << 257) - 1  # bot and every middle element
    assert below["bot"] == 0
    assert all(below[m] == 1 for m in middle)


def test_special_violation_follows_the_definition():
    import cases

    diamond = zircons.build_poset([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert cases.special_violation(diamond, {"0": "1", "1": "0", "2": "3", "3": "2"}) is None
    assert cases.special_violation(diamond, {"0": "1", "1": "0", "2": "2", "3": "3"}) is not None
    assert cases.special_violation(diamond, {"0": "3", "3": "0", "1": "2", "2": "1"}) is not None
