import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from zircons.cli import main
from zircons.sweep import ManifestError, SweepReport, run_sweep, validate_manifest


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
        assert SweepReport.from_dict(data).to_dict() == small_report.to_dict()

    def test_byte_identical_reports_modulo_duration(self, small_report):
        again = run_sweep({"mode": "exhaustive", "max_n": 4}, jobs=1)
        a, b = small_report.to_dict(), again.to_dict()
        a["duration_seconds"] = b["duration_seconds"] = 0.0
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_parallel_equals_serial(self, small_report):
        par = run_sweep({"mode": "exhaustive", "max_n": 4}, jobs=2)
        a, b = small_report.to_dict(), par.to_dict()
        a["duration_seconds"] = b["duration_seconds"] = 0.0
        assert a == b

    def test_random_mode_runs_and_skips(self):
        rep = run_sweep({"mode": "random", "n": 8, "seeds": [0, 1, 2], "density": 0.3}, jobs=1)
        assert rep.violations == 0
        assert rep.summary["posets"] == 3

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
        ):
            with pytest.raises(ManifestError):
                validate_manifest(bad)

    def test_tiny_matching_cap_reports_truncation(self):
        rep = run_sweep({"mode": "exhaustive", "max_n": 4}, jobs=1, cap_matchings=1)
        truncated = [r for r in rep.cases if r["check"] == "enumeration_truncated"]
        assert truncated and all(not r["ok"] for r in truncated)
        assert rep.violations >= len(truncated)


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

    def test_non_automorphism_is_input_error(self, files):
        tmp, write = files
        rc = main(
            [
                "check",
                write("p.json", DIAMOND),
                write("m.json", {"pairs": [["0", "1"], ["2", "3"]]}),
                write("phi.json", {"map": {"0": "3", "3": "0", "1": "1", "2": "2"}}),
            ]
        )
        assert rc == 2

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

    def test_bad_manifest(self, files):
        tmp, write = files
        assert main(["sweep", write("man.json", {"mode": "bogus"})]) == 2

    def test_worker_panic_exits_3(self, files, monkeypatch):
        tmp, write = files

        def boom(payload):
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

    def test_fix_check_needs_against(self, files):
        assert main(["coxeter", "A3", "fix-check", "flip"]) == 2

    def test_invalid_type(self, files):
        assert main(["coxeter", "Q9", "export"]) == 2

    def test_invalid_theta(self, files, capsys):
        assert main(["coxeter", "B3", "twisted", "flip"]) == 2
        assert "flip exists for B only at B2" in capsys.readouterr().err


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

    def test_mobius_incomparable(self, files):
        tmp, write = files
        assert main(["mobius", write("p.json", DIAMOND), "1", "2"]) == 2


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
