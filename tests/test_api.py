"""The public surface: what the package exports, and the names the
benchmark traces."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import zircons

MODULES = ("posets", "matchings", "zircon", "coxeter", "corpus", "sweep")
SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_the_package_exports_exactly_the_modules_all():
    exported = {name for name, value in vars(zircons).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    declared = set()
    for name in MODULES:
        module = importlib.import_module(f"zircons.{name}")
        assert len(set(module.__all__)) == len(module.__all__), name
        declared |= set(module.__all__)
    assert exported == declared


def test_every_traced_name_resolves(monkeypatch):
    """Each ``module:attribute`` target of the benchmark tracer's layers
    names a function of the library, so removing or renaming one fails
    here and not only in the benchmark's own self-test."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # load it read-only
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [t for layer in spans.LAYERS.values() for t in layer]
    assert targets
    for target in targets:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, target
        assert callable(owner), target
