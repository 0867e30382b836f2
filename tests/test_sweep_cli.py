import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import zircons.cli
import zircons.sweep
from zircons import ConstructionError, ExtremaError, automorphisms, build_coxeter, is_zircon, leq
from zircons.cli import main
from zircons.matchings import Verdict, _special_partners
from zircons.sweep import (
    ManifestError,
    SweepReport,
    _ideal_minimum_witness,
    run_sweep,
    validate_manifest,
)


def _fake_pool(monkeypatch, cores: int) -> list:
    """Pretend the host has ``cores`` cores and replace the sweep's process
    pool by one that maps in this process; returns the ``max_workers`` of
    each pool made."""
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr("zircons.sweep.ProcessPoolExecutor", FakePool)
    return pools


@pytest.fixture(scope="module")
def small_report():
    return run_sweep({"mode": "exhaustive", "max_n": 4}, jobs=1)


class TestSweep:
    def test_small_exhaustive(self, small_report):
        assert small_report.summary["posets"] == 24  # 1 + 2 + 5 + 16
        assert small_report.violations == 0

    def test_summary_matches_cases(self, small_report):
        recs = small_report.cases
        assert small_report.summary["records"] == len(recs)
        assert small_report.summary["violations"] == sum(1 for r in recs if not r["ok"])
        by_check = {}
        for r in recs:
            by_check[r["check"]] = by_check.get(r["check"], 0) + 1
        assert small_report.summary["by_check"] == by_check

    def test_json_round_trip_lossless(self, small_report):
        data = json.loads(json.dumps(small_report.to_dict()))
        assert SweepReport(**data).to_dict() == small_report.to_dict()

    def test_byte_identical_reports_modulo_duration(self, small_report):
        again = run_sweep({"mode": "exhaustive", "max_n": 4}, jobs=1)
        a, b = small_report.to_dict(), again.to_dict()
        a["duration_seconds"] = b["duration_seconds"] = 0.0
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_parallel_equals_serial(self, small_report, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        par = run_sweep({"mode": "exhaustive", "max_n": 4}, jobs=2)
        a, b = small_report.to_dict(), par.to_dict()
        a["duration_seconds"] = b["duration_seconds"] = 0.0
        assert a == b

    def test_random_mode_runs_and_skips(self):
        rep = run_sweep({"mode": "random", "n": 8, "seeds": [0, 1, 2], "density": 0.3}, jobs=1)
        assert rep.violations == 0
        assert rep.summary["posets"] == 3

    def test_random_mode_runs_the_whole_battery(self, small_report):
        """A bounded random poset whose only automorphism is the identity
        gets the battery it gets in exhaustive mode. Every pair drawn, the
        random poset on 4 elements is the 4-chain, class 15 of n = 4."""
        rep = run_sweep({"mode": "random", "n": 4, "seeds": [0], "density": 1.0}, jobs=1)
        by_check = rep.summary["by_check"]
        assert rep.summary["skipped"] == 0 and rep.violations == 0
        assert by_check["lifting_property"] == by_check["fixed_point_special"] == 1
        chain = [{**r, "poset": "rand-n4-s0"} for r in small_report.cases
                 if r["poset"] == "n4-c0015"]
        assert rep.cases == chain

    def test_manifest_validation(self):
        for bad in (
            {},
            {"mode": "bogus"},
            {"mode": "exhaustive"},
            {"mode": "exhaustive", "max_n": 99},
            {"mode": "random", "n": 8},
            {"mode": "random", "n": 8, "seeds": []},
            {"mode": "random", "n": 8, "seeds": [1], "density": 2.0},
            # bool is an int subclass, but true is not a size or a seed
            {"mode": "exhaustive", "max_n": True},
            {"mode": "random", "n": True, "seeds": [1]},
            {"mode": "random", "n": 8, "seeds": [True]},
            {"mode": "random", "n": 8, "seeds": [1], "density": True},
            # a key the mode does not read, another mode's or none's
            {"mode": "exhaustive", "max_n": 3, "density": 0.5},
            {"mode": "exhaustive", "max_n": 3, "bogus": 1},
            {"mode": "random", "n": 8, "seeds": [1], "max_n": 3},
            # a repeated seed would give two posets one id
            {"mode": "random", "n": 4, "seeds": [3, 3]},
        ):
            with pytest.raises(ManifestError):
                validate_manifest(bad)

    def test_workers_take_posets_as_built(self, monkeypatch):
        """The corpus posets reach the battery as built: no poset is parsed
        back from its payload, here or in a worker."""
        parsed = []
        real = zircons.posets.poset_from_dict

        def counting(obj):
            parsed.append(obj)
            return real(obj)

        for module in ("posets", "sweep", "cli"):
            monkeypatch.setattr(f"zircons.{module}.poset_from_dict", counting, raising=False)
        rep = run_sweep({"mode": "exhaustive", "max_n": 6}, jobs=1)
        assert rep.summary["posets"] == 405 and rep.violations == 0
        assert parsed == []

    def test_random_parallel_equals_serial(self, monkeypatch):
        """Posets pickled to worker processes give the serial report."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        manifest = {"mode": "random", "n": 7, "seeds": [0, 1, 2, 3], "density": 0.4}
        a, b = (run_sweep(manifest, jobs=jobs).to_dict() for jobs in (1, 2))
        a["duration_seconds"] = b["duration_seconds"] = 0.0
        assert a == b

    @pytest.mark.parametrize("jobs,cores,max_n,workers", [
        (100_000, 4, 2, 3),  # no more workers than cases
        (100_000, 4, 4, 4),  # nor than cores
        (3, 4, 4, 3),
        (8, 1, 4, None),  # one core: serial, no pool
        (1, 4, 4, None),
    ])
    def test_workers_bounded_by_cores_and_cases(self, monkeypatch, jobs, cores, max_n, workers):
        """A fake pool records its size and maps in this process."""
        manifest = {"mode": "exhaustive", "max_n": max_n}
        pools = _fake_pool(monkeypatch, cores)
        report = run_sweep(manifest, jobs=jobs).to_dict()
        assert pools == ([] if workers is None else [workers])
        serial = run_sweep(manifest, jobs=1).to_dict()
        report["duration_seconds"] = serial["duration_seconds"] = 0.0
        assert report == serial

    @pytest.mark.parametrize("jobs,cores", [(1, 2), (4, 1)])
    def test_serial_sweep_streams_the_corpus(self, monkeypatch, jobs, cores):
        """Run serially, each case runs as soon as the corpus yields its
        poset, so the manifest is never held whole."""
        _fake_pool(monkeypatch, cores)
        log = []
        real_iter, real_case = zircons.sweep._iter_posets, zircons.sweep.sweep_case

        def iter_posets(config):
            for poset_id, P in real_iter(config):
                log.append(("yield", poset_id))
                yield poset_id, P

        def case(poset_id, *args):
            log.append(("run", poset_id))
            return real_case(poset_id, *args)

        monkeypatch.setattr("zircons.sweep._iter_posets", iter_posets)
        monkeypatch.setattr("zircons.sweep.sweep_case", case)
        report = run_sweep({"mode": "exhaustive", "max_n": 3}, jobs=jobs)
        ids = [poset_id for step, poset_id in log if step == "yield"]
        assert len(ids) == report.summary["posets"] == 8  # 1 + 2 + 5
        assert log == [(step, poset_id) for poset_id in ids for step in ("yield", "run")]

    def test_tiny_matching_cap_reports_truncation(self):
        rep = run_sweep({"mode": "exhaustive", "max_n": 4}, jobs=1, cap_matchings=1)
        truncated = [r for r in rep.cases if r["check"] == "enumeration_truncated"]
        assert truncated and all(not r["ok"] for r in truncated)
        assert rep.violations >= len(truncated)


_PROOF_STEPS = ["component_extrema_unique", "fixed_points_extremal", "greedy_descend_endpoints",
                "min_fixed_iff_max_fixed"]


class TestViolationRecords:
    """A failed step of the construction or of the proof-step invariants
    becomes an ``ok: false`` record, a counted violation and exit 1."""

    @pytest.fixture()
    def injected(self, monkeypatch, cube):
        """The construction raises on one case of the cube: its second
        special matching under its second automorphism."""
        target = (tuple(list(_special_partners(cube, 255))[1]), tuple(automorphisms(cube)[1]._perm))
        real = zircons.zircon._fixed_point_matching

        def failing(P, partner, phi):
            if (tuple(partner), tuple(phi._perm)) == target:
                raise ConstructionError("injected")
            return real(P, partner, phi)

        monkeypatch.setattr("zircons.zircon._fixed_point_matching", failing)
        # every manifest yields the cube alone
        monkeypatch.setattr("zircons.sweep._iter_posets", lambda config: iter([("cube", cube)]))

    def test_failed_construction_is_a_violation(self, injected, cube, files):
        records = zircons.sweep.sweep_case("cube", cube, 100)
        failed = [r for r in records if not r["ok"]]
        assert failed == [{"poset": "cube", "check": "fixed_point_special", "matching": 1,
                           "automorphism": 1, "ok": False, "witness": "injected", "info": None}]
        case = [r for r in records if r["matching"] == 1 and r["automorphism"] == 1]
        assert sorted(r["check"] for r in case) == sorted(["fixed_point_special", *_PROOF_STEPS])
        assert all(r["ok"] for r in case if r["check"] != "fixed_point_special")

        assert run_sweep({"mode": "exhaustive", "max_n": 1}, jobs=1).violations == 1
        tmp, write = files
        rc = main(["sweep", write("man.json", {"mode": "exhaustive", "max_n": 1}),
                   "--jobs", "1", "--output", str(tmp / "sweep.json")])
        assert rc == 1
        report = json.loads((tmp / "sweep.json").read_text())
        assert report["summary"]["violations"] == 1

    def test_extrema_failure_is_the_only_proof_step(self, monkeypatch, cube):
        def no_extrema(P, mask):
            raise ExtremaError("injected")

        monkeypatch.setattr("zircons.sweep._extrema", no_extrema)
        records = zircons.sweep.sweep_case("cube", cube, 100)
        cases = {(r["matching"], r["automorphism"]) for r in records
                 if r["check"] == "fixed_point_special"}
        assert len(cases) > 1
        for m_idx, a_idx in cases:
            case = [r for r in records if (r["matching"], r["automorphism"]) == (m_idx, a_idx)]
            steps = [r for r in case if r["check"] in _PROOF_STEPS]
            assert [(r["check"], r["ok"], r["witness"]) for r in steps] == [
                ("component_extrema_unique", False, "injected")]
            # the construction has its own binding of _extrema and still passes
            assert [r["ok"] for r in case if r["check"] == "fixed_point_special"] == [True]


DIAMOND = {
    "elements": ["0", "1", "2", "3"],
    "covers": [["0", "1"], ["0", "2"], ["1", "3"], ["2", "3"]],
}
CHAIN = {"elements": ["0", "1", "2", "3"], "covers": [["0", "1"], ["1", "2"], ["2", "3"]]}
N_POSET = {
    "elements": ["a", "b", "c", "d"],
    "covers": [["a", "c"], ["a", "d"], ["b", "d"]],
}


@pytest.fixture()
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return tmp_path, write


class TestCheckCommand:
    def test_pass(self, files):
        tmp, write = files
        rc = main(
            [
                "check",
                write("p.json", DIAMOND),
                write("m.json", {"pairs": [["0", "1"], ["2", "3"]]}),
                "--output",
                str(tmp / "report.json"),
            ]
        )
        assert rc == 0
        report = json.loads((tmp / "report.json").read_text())
        assert report["matching"] and report["special"] and report["lifting"]

    def test_witness_failure(self, files):
        tmp, write = files
        rc = main(
            [
                "check",
                write("p.json", N_POSET),
                write("m.json", {"pairs": [["a", "c"], ["b", "d"]]}),
                "--output",
                str(tmp / "report.json"),
            ]
        )
        assert rc == 1
        report = json.loads((tmp / "report.json").read_text())
        assert report["special"] is False
        assert report["witness"] == ["a", "d"]

    def test_with_automorphism(self, files):
        tmp, write = files
        rc = main(
            [
                "check",
                write("p.json", DIAMOND),
                write("m.json", {"pairs": [["0", "1"], ["2", "3"]]}),
                write("phi.json", {"map": {"0": "0", "1": "2", "2": "1", "3": "3"}}),
                "--output",
                str(tmp / "report.json"),
            ]
        )
        assert rc == 0
        report = json.loads((tmp / "report.json").read_text())
        assert report["fixed_point"]["m_phi"] == [["0", "3"]]

    def test_lifting_failure(self, files, monkeypatch):
        """A lifting verdict that fails is reported with its witness."""
        tmp, write = files
        monkeypatch.setattr("zircons.matchings._lifting",
                            lambda P, partner: Verdict(False, ("0", "3")))
        rc = main(["check", write("p.json", DIAMOND),
                   write("m.json", {"pairs": [["0", "1"], ["2", "3"]]}),
                   "--output", str(tmp / "report.json")])
        assert rc == 1
        report = json.loads((tmp / "report.json").read_text())
        assert report["special"] is True
        assert report["lifting"] is False and report["lifting_witness"] == ["0", "3"]

    def test_fixed_point_failure(self, files, monkeypatch):
        """A construction that fails is reported as ``special: false`` with
        the failed step's message."""
        tmp, write = files

        def failing(P, partner, phi):
            raise ConstructionError("injected")

        monkeypatch.setattr("zircons.zircon._fixed_point_matching", failing)
        rc = main(["check", write("p.json", DIAMOND),
                   write("m.json", {"pairs": [["0", "1"], ["2", "3"]]}),
                   write("phi.json", {"map": {"0": "0", "1": "2", "2": "1", "3": "3"}}),
                   "--output", str(tmp / "report.json")])
        assert rc == 1
        report = json.loads((tmp / "report.json").read_text())
        assert report["lifting"] is True
        fp = report["fixed_point"]
        assert fp["special"] is False and fp["witness"] == "injected" and fp["m_phi"] is None

    def test_non_automorphism_is_input_error(self, files, capsys):
        """A map that is no automorphism exits 2 with the library's reason:
        a partial map, a non-injective one and the 0<->3 swap."""
        tmp, write = files
        poset = write("p.json", DIAMOND)
        matching = write("m.json", {"pairs": [["0", "1"], ["2", "3"]]})
        for image, reason in [
            ({"0": "0", "1": "1", "2": "2"}, "map is not total on the element set"),
            ({"0": "0", "1": "1", "2": "1", "3": "3"}, "map is not a bijection"),
            ({"0": "3", "3": "0", "1": "1", "2": "2"}, "map does not preserve the order both ways"),
        ]:
            phi = write("phi.json", {"map": image})
            assert main(["check", poset, matching, phi]) == 2
            assert capsys.readouterr() == ("", f"error: {reason}\n")

    def test_automorphism_is_read_when_m_is_no_matching(self, files, capsys):
        """PHI is loaded and checked even when M is no matching: a missing
        file is an input error, and a valid map breaks the construction's
        precondition, as it does for a matching that is not special."""
        tmp, write = files
        poset = write("p.json", DIAMOND)
        not_matching = write("m.json", {"pairs": [["0", "3"]]})
        missing = str(tmp / "missing.json")
        assert main(["check", poset, not_matching, missing]) == 2
        assert capsys.readouterr() == ("", f"error: no such file: {missing}\n")
        phi = write("phi.json", {"map": {"0": "0", "1": "2", "2": "1", "3": "3"}})
        assert main(["check", poset, not_matching, phi]) == 2
        assert capsys.readouterr() == (
            "", "error: fixed-point construction requires a special matching\n")

    def test_unbounded_poset_is_input_error(self, files, capsys):
        """The construction needs a bounded poset; two disjoint chains have
        two minima, whatever the automorphism."""
        tmp, write = files
        poset = write("p.json", {"elements": ["a", "b", "c", "d"],
                                 "covers": [["a", "b"], ["c", "d"]]})
        matching = write("m.json", {"pairs": [["a", "b"], ["c", "d"]]})
        for image in ("abcd", "cdab"):
            phi = write("phi.json", {"map": dict(zip("abcd", image))})
            assert main(["check", poset, matching, phi]) == 2
            assert capsys.readouterr() == (
                "", "error: fixed-point construction requires a bounded poset\n")

    def test_malformed_json(self, files):
        tmp, write = files
        bad = tmp / "bad.json"
        bad.write_text("{nope")
        rc = main(["check", str(bad), str(bad)])
        assert rc == 2

    @pytest.mark.parametrize(
        "poset",
        [
            {"elements": ["a", "b"], "covers": [["a"]]},
            {"elements": ["a", "b"], "covers": [["a", "b", "a"]]},
            {"elements": ["a", "b"], "covers": ["ab"]},
            {"elements": "ab", "covers": []},
            {"elements": ["a", "b"], "covers": {"a": "b"}},
        ],
    )
    def test_malformed_poset_is_input_error(self, files, poset):
        tmp, write = files
        rc = main(["check", write("p.json", poset), write("m.json", {"pairs": [["a", "b"]]})])
        assert rc == 2

    @pytest.mark.parametrize(
        "matching",
        [
            {"pairs": [1]},
            {"pairs": None},
            {"pairs": ["01"]},
            {"pairs": "0123"},
            {"pairs": [["0", "1", "2"]]},
            [["0", "1"]],
        ],
    )
    def test_malformed_matching_is_input_error(self, files, matching):
        tmp, write = files
        rc = main(["check", write("p.json", DIAMOND), write("m.json", matching)])
        assert rc == 2

    def test_not_a_matching_fails(self, files):
        tmp, write = files
        rc = main(
            [
                "check",
                write("p.json", DIAMOND),
                write("m.json", {"pairs": [["0", "3"], ["1", "2"]]}),
                "--output",
                str(tmp / "report.json"),
            ]
        )
        assert rc == 1
        assert json.loads((tmp / "report.json").read_text())["matching"] is False


def _unreadable(tmp, write):
    """Argument lists that name a file the CLI cannot read or write."""
    (tmp / "dir").mkdir()
    (tmp / "latin1.json").write_bytes(b'{"elements": ["\xe9"], "covers": []}')
    (tmp / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    (tmp / "big.json").write_text('{"mode": "exhaustive", "max_n": ' + "9" * 5000 + "}")
    return {
        "directory": ["dot", str(tmp / "dir")],
        "not UTF-8": ["dot", str(tmp / "latin1.json")],
        "nested 100k deep": ["dot", str(tmp / "deep.json")],
        "5000-digit integer": ["sweep", str(tmp / "big.json")],
        "output is a directory": ["check", write("p.json", DIAMOND),
                                  write("m.json", {"pairs": [["0", "1"], ["2", "3"]]}),
                                  "--output", str(tmp / "dir")],
    }


@pytest.mark.parametrize("case", ["directory", "not UTF-8", "nested 100k deep", "5000-digit integer",
                                  "output is a directory"])
def test_unreadable_file_is_input_error(files, capsys, case):
    """A file that cannot be read, decoded or written exits 2 with one
    error line, not 1 with a traceback."""
    argv = _unreadable(*files)[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _ideal_minimum_walk(P):
    """First non-minimal element whose principal ideal, built here from
    ``leq``, has more than one minimal element."""
    for x in P.elements:
        ideal = [y for y in P.elements if leq(P, y, x)]
        if len(ideal) == 1:
            continue
        minima = [y for y in ideal if not any(z != y and leq(P, z, y) for z in ideal)]
        if len(minima) != 1:
            return x
    return None


def test_ideal_minimum_witness_matches_ideal_walk(corpus_to_5):
    """Read from the order rows, the witness is the one an ideal-building
    walk finds, on zircons and non-zircons alike."""
    witnesses = [_ideal_minimum_witness(P) for P in corpus_to_5]
    assert witnesses == [_ideal_minimum_walk(P) for P in corpus_to_5]
    assert any(w is None for w in witnesses) and any(w is not None for w in witnesses)
    assert {is_zircon(P) for P in corpus_to_5} == {True, False}


class TestSweepCommand:
    def test_exhaustive(self, files):
        tmp, write = files
        rc = main(
            [
                "sweep",
                write("man.json", {"mode": "exhaustive", "max_n": 4}),
                "--output",
                str(tmp / "sweep.json"),
                "--jobs",
                "1",
            ]
        )
        assert rc == 0
        report = json.loads((tmp / "sweep.json").read_text())
        assert report["summary"]["posets"] == 24
        assert report["summary"]["violations"] == 0

    def test_bad_manifest(self, files, capsys):
        tmp, write = files
        for manifest, line in (
            ({"mode": "bogus"}, "unknown sweep mode 'bogus'"),
            ({"mode": "exhaustive", "max_n": 3, "density": 0.5, "bogus": 1},
             "exhaustive mode does not read 'density', 'bogus'"),
            ({"mode": "random", "n": 4, "seeds": [3, 3]}, "random mode needs distinct seeds"),
        ):
            assert main(["sweep", write("man.json", manifest)]) == 2
            assert capsys.readouterr() == ("", f"error: {line}\n")

    @pytest.mark.parametrize("flag,value", [("--jobs", "0"), ("--jobs", "-4"),
                                            ("--cap-matchings", "-1")])
    def test_malformed_setting(self, files, capsys, flag, value):
        """No worker count below 1 and no negative matching cap: malformed
        input, not a serial run or a made-up truncation."""
        tmp, write = files
        out = tmp / "sweep.json"
        manifest = write("man.json", {"mode": "exhaustive", "max_n": 3})
        assert main(["sweep", manifest, flag, value, "--output", str(out)]) == 2
        assert "must be at least" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_jobs_starts_no_more_workers_than_cores(self, files, monkeypatch):
        tmp, write = files
        pools = _fake_pool(monkeypatch, 2)
        manifest = write("man.json", {"mode": "exhaustive", "max_n": 3})
        assert main(["sweep", manifest, "--jobs", "100000", "--output", str(tmp / "s.json")]) == 0
        assert pools == [2]
        assert json.loads((tmp / "s.json").read_text())["summary"]["posets"] == 8

    def test_worker_panic_exits_3(self, files, monkeypatch):
        tmp, write = files

        def boom(*case):
            raise RuntimeError("injected failure")

        monkeypatch.setattr("zircons.sweep.sweep_case", boom)
        rc = main(
            [
                "sweep",
                write("man.json", {"mode": "exhaustive", "max_n": 2}),
                "--jobs",
                "1",
                "--output",
                str(tmp / "panic.json"),
            ]
        )
        assert rc == 3
        report = json.loads((tmp / "panic.json").read_text())
        assert "injected failure" in report["panic"]
        assert "poset" in report  # serialized for reproduction

    def test_panic_payload(self, files, monkeypatch):
        """The offending poset is serialized with its id and cap:
        ``sweep_case``'s arguments, as ``poset_from_dict`` reads the poset."""
        tmp, write = files

        def boom(*case):
            raise RuntimeError("injected failure")

        monkeypatch.setattr("zircons.sweep.sweep_case", boom)
        rc = main(["sweep", write("man.json", {"mode": "random", "n": 4, "seeds": [3]}),
                   "--jobs", "1", "--output", str(tmp / "panic.json")])
        assert rc == 3
        assert json.loads((tmp / "panic.json").read_text())["poset"] == {
            "poset_id": "rand-n4-s3",
            "poset": {"elements": ["0", "1", "2", "3"], "covers": [["0", "1"], ["2", "3"]]},
            "cap": 1000000,
        }


# each coxeter action with the arguments it reads
ACTIONS = [["export"], ["zircon-check"], ["twisted", "flip"], ["fix-check", "flip", "--against", "B2"]]


class TestCoxeterCommand:
    def test_export(self, files):
        tmp, write = files
        rc = main(["coxeter", "A2", "export", "--output", str(tmp / "hex.json")])
        assert rc == 0
        obj = json.loads((tmp / "hex.json").read_text())
        assert len(obj["elements"]) == 6 and len(obj["covers"]) == 8

    def test_export_dot(self, files):
        tmp, _ = files
        rc = main(
            ["coxeter", "A2", "export", "--format", "dot", "--output", str(tmp / "hex.dot")]
        )
        assert rc == 0
        assert "digraph" in (tmp / "hex.dot").read_text()

    def test_zircon_check(self, files):
        tmp, _ = files
        rc = main(["coxeter", "B2", "zircon-check", "--output", str(tmp / "z.json")])
        assert rc == 0
        obj = json.loads((tmp / "z.json").read_text())
        assert obj["zircon"] and obj["all_descent_matchings_special"]

    @pytest.mark.parametrize(
        "type_spec", ["A2", "A3", "B2", "B3", *(f"I2:{m}" for m in range(3, 9))]
    )
    def test_zircon_check_verdict_is_is_zircon(self, files, type_spec):
        tmp, _ = files
        rc = main(["coxeter", type_spec, "zircon-check", "--output", str(tmp / "z.json")])
        obj = json.loads((tmp / "z.json").read_text())
        assert obj["zircon"] == is_zircon(build_coxeter(type_spec).bruhat_poset())
        assert rc == (0 if obj["zircon"] and not obj["witnesses"] else 1)

    def test_zircon_check_falls_back_to_the_search(self, files, monkeypatch):
        """When an element has no passing descent matching, the verdict is
        ``is_zircon`` on the whole Bruhat order, run once; the failures are
        reported as witnesses."""
        tmp, _ = files
        real_failures, real_search = zircons.cli._descent_failures, zircons.cli.is_zircon
        searched = []

        def failing(W, k, side):
            descents, failures = real_failures(W, k, side)
            w = W._position("s1.s2.s1")
            if descents >> w & 1:
                failures[w] = "injected failure"
            return descents, failures

        def search(P):
            searched.append(len(P))
            return real_search(P)

        monkeypatch.setattr("zircons.cli._descent_failures", failing)
        monkeypatch.setattr("zircons.cli.is_zircon", search)
        rc = main(["coxeter", "A3", "zircon-check", "--output", str(tmp / "z.json")])
        obj = json.loads((tmp / "z.json").read_text())
        assert rc == 1
        assert obj["zircon"] and not obj["all_descent_matchings_special"]
        assert obj["witnesses"] == [
            ["s1.s2.s1", s, side, "injected failure"]
            for side in ("right", "left") for s in ("s1", "s2")
        ]
        assert searched == [24]  # B, the Bruhat order of A3

    def test_zircon_check_d5(self, files):
        """D5 (1920 elements), once killed at its benchmark limit: rank x |W|
        descent matchings, each one special, and no ideal searched."""
        tmp, _ = files
        rc = main(["coxeter", "D5", "zircon-check", "--output", str(tmp / "z.json")])
        assert rc == 0
        assert json.loads((tmp / "z.json").read_text()) == {
            "type": "D5",
            "cardinality": 1920,
            "zircon": True,
            "descent_matchings_checked": 9600,
            "all_descent_matchings_special": True,
            "witnesses": [],
        }

    def test_twisted(self, files):
        tmp, _ = files
        rc = main(["coxeter", "A2", "twisted", "id", "--output", str(tmp / "t.json")])
        assert rc == 0
        obj = json.loads((tmp / "t.json").read_text())
        assert obj["cardinality"] == 4
        assert obj["equals_fixed_point_subposet"] and obj["zircon"] and obj["sphericity"]

    def test_fix_check(self, files):
        tmp, _ = files
        rc = main(
            [
                "coxeter",
                "A3",
                "fix-check",
                "flip",
                "--against",
                "B2",
                "--output",
                str(tmp / "f.json"),
            ]
        )
        assert rc == 0
        obj = json.loads((tmp / "f.json").read_text())
        assert obj["isomorphic"] and obj["cardinality"] == [8, 8]

    def test_fix_check_identity(self, files):
        """Under the identity the fixed subgroup is the whole group."""
        tmp, _ = files
        out = tmp / "f.json"
        assert main(["coxeter", "B4", "fix-check", "id", "--against", "B4",
                     "--output", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["isomorphic"] is True and obj["cardinality"] == [384, 384]

    def test_fix_check_triality_against_g2(self, files):
        tmp, _ = files
        out = tmp / "f.json"
        rc = main(["coxeter", "D4", "fix-check", "s1:s2,s2:s4,s4:s1", "--against", "I2:6",
                   "--output", str(out)])
        obj = json.loads(out.read_text())
        assert rc == 0 and obj["isomorphic"] and obj["cardinality"] == [12, 12]

    def test_twisted_needs_involution(self, files, capsys):
        assert main(["coxeter", "D4", "twisted", "s1:s2,s2:s4,s4:s1"]) == 2
        assert "needs an involutive diagram automorphism" in capsys.readouterr().err

    def test_fix_check_needs_against(self, files):
        assert main(["coxeter", "A3", "fix-check", "flip"]) == 2

    def test_invalid_type(self, files):
        assert main(["coxeter", "Q9", "export"]) == 2

    @pytest.mark.parametrize("spec", ["A2000", "I2:" + "9" * 5000, "A20000000", "I2:25000"],
                             ids=["A2000", "I2-5000-digits", "A20000000", "I2:25000"])
    def test_huge_type_spec(self, spec):
        """A group far over the order cap is malformed input, refused before
        its order is computed, and so is I2:25000, whose words hold far more
        letters than B6's: exit 2 and one error line, under a timeout."""
        src = str(Path(zircons.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for argv in (["coxeter", spec, "export"], ["coxeter", "A2", "fix-check", "--against", spec]):
            result = subprocess.run([sys.executable, "-m", "zircons.cli", *argv],
                                    env={**os.environ, "PYTHONPATH": path},
                                    capture_output=True, text=True, timeout=30)
            assert result.returncode == 2 and result.stdout == ""
            assert len(result.stderr.splitlines()) == 1
            assert result.stderr.startswith("error: ")

    def test_dihedral_spec_forms(self, files, capsys):
        """I2:m and I2(m) name the same group; unbalanced brackets are
        malformed input."""
        tmp, _ = files
        for spec in ("I2:6)", "I2(6"):
            assert main(["coxeter", spec, "zircon-check"]) == 2
            assert "cannot parse type spec" in capsys.readouterr().err
        for spec in ("I2:6", "I2(6)"):
            out = tmp / "z.json"
            assert main(["coxeter", spec, "zircon-check", "--output", str(out)]) == 0
            assert json.loads(out.read_text())["type"] == "I2:6"

    def test_invalid_theta(self, files, capsys):
        assert main(["coxeter", "B3", "twisted", "flip"]) == 2
        assert "flip exists for B only at B2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["A3", "twisted", "s1:s3,s3:s1,s1:s1,s3:s3"],
            ["A3", "fix-check", "s1:s3,s1:s1", "--against", "A3"],
        ],
    )
    def test_theta_mapping_a_generator_twice(self, files, capsys, argv):
        """A generator named twice in a map is malformed input, not the
        map of its last entry."""
        tmp, _ = files
        out = tmp / "out"
        assert main(["coxeter", *argv, "--output", str(out)]) == 2
        assert "generator 's1' is mapped twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("action,theta", [("zircon-check", "bogus"), ("export", "flip"),
                                              ("zircon-check", "id"), ("export", "id")])
    def test_theta_where_none_is_used(self, files, capsys, action, theta):
        """export and zircon-check take no diagram automorphism, so any
        theta, the default written out included, is malformed input."""
        assert main(["coxeter", "A3", action, theta]) == 2
        assert f"unrecognized arguments: {theta}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["A2", "zircon-check", "--against", "B2"], "--against"),
            (["A3", "twisted", "flip", "--against", "B2"], "--against"),
            (["A2", "export", "--against", "A2"], "--against"),
            (["A2", "zircon-check", "--format", "dot"], "--format"),
            (["A3", "fix-check", "flip", "--against", "B2", "--format", "dot"], "--format"),
            (["A2", "twisted", "--format", "dot"], "--format"),
        ],
    )
    def test_flag_the_action_does_not_read(self, files, capsys, argv, flag):
        """--against belongs to fix-check and --format to export; on another
        action either one is malformed input, named in the message."""
        tmp, _ = files
        out = tmp / "out"
        assert main(["coxeter", *argv, "--output", str(out)]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("action", ACTIONS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("before", [0, 1], ids=["before-type", "before-action"])
    def test_output_before_the_action(self, files, capsys, action, before):
        """--output belongs to the action, so it comes after it; before it,
        argparse takes the next word for the action and exits 2."""
        tmp, _ = files
        out = tmp / "out"
        argv = ["A3", *action]
        argv[before:before] = ["--output", str(out)]
        assert main(["coxeter", *argv]) == 2
        assert "argument action: invalid choice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("action", ACTIONS, ids=lambda argv: argv[0])
    def test_output_after_each_action(self, files, capsys, action):
        """Every action writes to --output what it prints without it."""
        tmp, _ = files
        out = tmp / "out"
        assert main(["coxeter", "A3", *action]) == 0
        printed = capsys.readouterr().out
        assert main(["coxeter", "A3", *action, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    def test_help_and_version_return_zero(self, capsys):
        """main returns argparse's exit code instead of raising SystemExit."""
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("zircons ")
        assert main(["coxeter", "A3", "fix-check", "--help"]) == 0
        assert "--against TYPE" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--jobs", "--cap-matchings"])
    def test_sweep_flags_are_rejected(self, files, capsys, flag):
        """Only sweep takes --jobs and --cap-matchings; elsewhere they are
        malformed input, not a silently ignored setting."""
        assert main(["coxeter", "A3", "zircon-check", flag, "2"]) == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


class TestDotMobiusCommands:
    def test_dot(self, files, capsys):
        tmp, write = files
        rc = main(["dot", write("p.json", DIAMOND)])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"0" -> "1";' in out

    def test_mobius(self, files, capsys):
        tmp, write = files
        rc = main(["mobius", write("p.json", DIAMOND), "0", "3"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_mobius_incomparable(self, files, capsys):
        tmp, write = files
        assert main(["mobius", write("p.json", DIAMOND), "1", "2"]) == 2
        assert capsys.readouterr() == ("", "error: '1' is not below '2'\n")

    def test_mobius_unknown_element(self, files, capsys):
        tmp, write = files
        assert main(["mobius", write("p.json", DIAMOND), "0", "9"]) == 2
        assert capsys.readouterr() == ("", "error: unknown element id '9'\n")

    def test_construction_error_exits_3(self, files, capsys, monkeypatch):
        """A ConstructionError that reaches ``main`` is an internal
        contradiction, not an input error."""
        tmp, write = files

        def contradiction(P, x, y):
            raise ConstructionError("injected")

        monkeypatch.setattr("zircons.cli.mobius", contradiction)
        assert main(["mobius", write("p.json", DIAMOND), "0", "3"]) == 3
        assert capsys.readouterr() == ("", "internal contradiction: injected\n")


# Small ids, so that generated covers, pairs and maps often hit real elements.
_ids = st.sampled_from(["0", "1", "2", "3", 0, "x"])
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4) | _ids,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_id_pair = st.lists(_ids, min_size=2, max_size=2)
_poset_json = st.one_of(
    st.sampled_from([DIAMOND, CHAIN]),
    st.fixed_dictionaries({
        "elements": st.lists(_ids, unique=True, max_size=5) | _json,
        "covers": st.lists(_id_pair | _json, max_size=5) | _json,
    }),
    _json,
)
_matching_json = st.one_of(
    st.permutations("0123").map(lambda p: {"pairs": [[p[0], p[1]], [p[2], p[3]]]}),
    st.fixed_dictionaries({"pairs": st.lists(_id_pair | _json, max_size=3) | _json}),
    _json,
)
_map_json = st.one_of(
    st.permutations("0123").map(lambda image: {"map": dict(zip("0123", image))}),
    st.fixed_dictionaries({"map": st.dictionaries(_ids.map(str), _ids, max_size=4) | _json}),
    _json,
)


@given(poset=_poset_json, matching=_matching_json, mapping=st.none() | _map_json)
@example(poset=DIAMOND, matching={"pairs": [1]}, mapping=None)
@settings(max_examples=100, deadline=None)
def test_check_any_json_exits_cleanly(poset, matching, mapping):
    """Whatever JSON it is given, ``check`` answers with exit 0, 1 or 2 and
    never escapes with a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, obj):
            path = Path(tmp) / name
            path.write_text(json.dumps(obj))
            return str(path)

        args = ["check", write("p.json", poset), write("m.json", matching)]
        if mapping is not None:
            args.append(write("phi.json", mapping))
        assert main([*args, "--output", str(Path(tmp) / "report.json")]) in (0, 1, 2)
