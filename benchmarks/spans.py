"""In-memory spans around the library's public functions, per layer.

A :class:`Tracer` replaces each hot function named in :data:`LAYERS` by a
wrapper, in the module that defines it and in every ``zircons`` module
that imported it (methods are replaced on their class). Every other
public function of the ``zircons`` package is wrapped as the layer
``lib.direct`` in the package namespace only, which the case runners call
through and the library itself does not: so library time reached straight
from the benchmark (``leq``, ``fixed_point_subposet``, ...) is charged to
the library and not to the benchmark. Each call records a span: layer,
start, end, parent span and case id, plus a count read off the result
where the layer has one. Generator functions get one span per resumption,
so the consumer's time between items is not charged to them. Spans stay
in memory and are aggregated after the run.

A case's root span holds what no wrapper covers: the benchmark's own
loops and output capture, and methods of library objects that a case
runner calls itself (``W.longest_element()``, ``B.minimal_elements``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

# layer -> "module:attribute" targets; a missing target is skipped and
# reported, so the benchmark survives the library renaming a function
LAYERS: dict[str, tuple[str, ...]] = {
    "posets.build": ("zircons.posets:build_poset", "zircons.posets:poset_from_dict"),
    "posets.ideal": (
        "zircons.posets:principal_ideal",
        "zircons.posets:interval",
        "zircons.posets:induced_subposet",
    ),
    "posets.aut": ("zircons.posets:automorphisms",),
    "posets.iso": ("zircons.posets:are_isomorphic",),
    "posets.mobius": ("zircons.posets:mobius",),
    "matchings.search": (
        "zircons.matchings:enumerate_special_matchings",
        "zircons.matchings:has_special_matching",
    ),
    "matchings.verify": (
        "zircons.matchings:is_matching",
        "zircons.matchings:is_special",
        "zircons.matchings:verify_lifting",
    ),
    "zircon.is_zircon": ("zircons.zircon:is_zircon", "zircons.zircon:is_zircon_ranked"),
    "zircon.family": ("zircons.zircon:matching_family",),
    "zircon.fixed_point": ("zircons.zircon:fixed_point_matching", "zircons.zircon:fixed_point_report"),
    "coxeter.group": ("zircons.coxeter:CoxeterSystem.__init__",),
    "coxeter.bruhat": ("zircons.coxeter:CoxeterSystem.bruhat_poset", "zircons.coxeter:bruhat_poset"),
    "coxeter.descent": ("zircons.coxeter:descent_matching",),
    "coxeter.twisted": (
        "zircons.coxeter:DiagramAutomorphism.__init__",
        "zircons.coxeter:theta_from_spec",
        "zircons.coxeter:twisted_map",
        "zircons.coxeter:twisted_involutions",
        "zircons.coxeter:fix_subgroup_poset",
    ),
    "corpus.enumerate": ("zircons.corpus:enumerate_posets",),
    "sweep.run": ("zircons.sweep:run_sweep",),
    "cli.main": ("zircons.cli:main",),
}

CASE = "bench.case"  # root span of one case; its self time is the benchmark's own
DIRECT = "lib.direct"  # package-level functions of no other layer


def _sweep_counts(report) -> dict:
    summary = report.summary
    return {
        "records": summary["records"],
        "theorem_cases": summary["by_check"].get("fixed_point_special", 0),
        "skipped": summary["skipped"],
        "posets": summary["posets"],
    }


# counts read off a layer's result, at the layer boundary
RESULT_COUNTS = {
    "posets.build": len,
    "posets.aut": len,
    "posets.iso": lambda out: int(out is not None),
    "matchings.search": lambda out: len(out) if isinstance(out, list) else int(bool(out)),
    "sweep.run": _sweep_counts,
}

# span fields
LAYER, START, END, PARENT, CASE_ID, COUNT, FIRST = range(7)


class Tracer:
    """Span recorder; :meth:`installed` patches the library while active."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.wrapped: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._case = None
        self._restore: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()

    # -- recording ----------------------------------------------------------

    def _open(self, layer: str, first: bool = True) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [layer, 0.0, 0.0, parent, self._case, None, first]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def case(self, case_id: str):
        """Root span of one case; library spans inside it hang below it."""
        self._case = case_id
        self.active = True
        rec = self._open(CASE)
        try:
            yield rec
        finally:
            self._close(rec)
            self.active = False
            self._case = None

    def close_open(self) -> None:
        """End every open span now (a child stopped at its limit)."""
        now = perf_counter()
        for i in self._stack:
            rec = self.spans[i]
            rec[START] = rec[START] or now
            rec[END] = now

    def add_killed(self, case_id: str, seconds: float, spans: list[list] | None = None) -> None:
        """A case killed at its limit, charged the limit: the spans its
        child recorded until it was stopped, cut at the limit, or without
        them one root span of the charged length."""
        if not spans:
            self.spans.append([CASE, 0.0, seconds, -1, case_id, "killed", True])
            return
        base = len(self.spans)
        self.extend(spans)
        root = self.spans[base]  # the child's case span is its first
        end = root[START] + seconds
        root[COUNT] = "killed"
        for rec in self.spans[base:]:
            rec[START] = min(rec[START], end)
            rec[END] = min(rec[END], end)
        root[END] = end

    def extend(self, spans: list[list]) -> None:
        """Append spans recorded by a child process, re-basing parent ids."""
        base = len(self.spans)
        for rec in spans:
            rec = list(rec)
            if rec[PARENT] >= 0:
                rec[PARENT] += base
            self.spans.append(rec)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, fn):
        count = RESULT_COUNTS.get(layer)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[COUNT] = count(out)
            return out

        self._wrappers.add(id(wrapper))
        return wrapper

    def _wrap_generator(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not self.active:
                yield from inner
                return
            first = True
            while True:
                rec = self._open(layer, first)
                first = False
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                rec[COUNT] = 1  # one item yielded
                yield item

        self._wrappers.add(id(wrapper))
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target while the block runs; restore on exit."""
        # import first: a module imported while patching would bind wrappers
        for name in {t.partition(":")[0] for targets in LAYERS.values() for t in targets}:
            try:
                importlib.import_module(name)
            except ImportError:
                pass  # reported as missing by _install
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "zircons" or name.startswith("zircons.")]
        try:
            for layer, targets in LAYERS.items():
                for target in targets:
                    self._install(layer, target, modules)
            self._install_direct()
            yield self
        finally:
            for owner, attr, original in reversed(self._restore):
                setattr(owner, attr, original)
            self._restore.clear()
            self._wrappers.clear()

    def _install_direct(self) -> None:
        package = sys.modules["zircons"]
        for name, fn in sorted(vars(package).items()):
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and id(fn) not in self._wrappers):
                self._patch(package, name, fn, self._wrap(DIRECT, fn))
                self.wrapped.append({"layer": DIRECT, "function": f"zircons:{name}",
                                     "patched": [f"zircons.{name}"]})

    def _install(self, layer: str, target: str, modules) -> None:
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        wrapper = self._wrap(layer, original)
        patched = []
        if outer:  # a method: patch the class only
            self._patch(owner, attr, original, wrapper)
            patched.append(module_name + "." + outer[0])
        else:
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)
                        patched.append(f"{module.__name__}.{name}")
        self.wrapped.append({"layer": layer, "function": target, "patched": patched})

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)


# -- aggregation ------------------------------------------------------------

def _p99(values: list[float]) -> float:
    if not values:
        return 0.0
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(0.99 * len(ranked)))]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times from a list of spans.

    Self time is a span's duration minus its children's. A call is a span
    whose parent belongs to another layer, so nested calls within one
    layer (principal_ideal -> induced_subposet) count once.
    """
    n = len(spans)
    duration = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += duration[i]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counted: dict[str, int] = {}
    outer_durations: dict[str, list[float]] = {}
    for i, s in enumerate(spans):
        layer = s[LAYER]
        self_s[layer] = self_s.get(layer, 0.0) + duration[i] - child[i]
        parent = s[PARENT]
        outer = parent < 0 or spans[parent][LAYER] != layer
        if outer and s[FIRST]:
            calls[layer] = calls.get(layer, 0) + 1
            outer_durations.setdefault(layer, []).append(duration[i])
        if outer and isinstance(s[COUNT], int):
            counted[layer] = counted.get(layer, 0) + s[COUNT]

    def nearest(i: int, layer: str) -> int:
        """Index of the closest ancestor span of ``layer``, or -1."""
        p = spans[i][PARENT]
        while p >= 0 and spans[p][LAYER] != layer:
            p = spans[p][PARENT]
        return p

    def parent_layer(i: int):
        p = spans[i][PARENT]
        return spans[p][LAYER] if p >= 0 else None

    labeled_orders = sum(1 for i, s in enumerate(spans)
                         if s[LAYER] == "posets.build" and parent_layer(i) == "corpus.enumerate")
    corpus_iso = sum(1 for i, s in enumerate(spans)
                     if s[LAYER] == "posets.iso" and parent_layer(i) == "corpus.enumerate")
    classes = counted.get("corpus.enumerate", 0)
    found_any = sum(1 for i, s in enumerate(spans)
                    if s[LAYER] == "matchings.search" and parent_layer(i) != "matchings.search"
                    and s[COUNT])
    verify_in_fp = sum(duration[i] for i, s in enumerate(spans)
                       if s[LAYER] == "matchings.verify" and parent_layer(i) != "matchings.verify"
                       and nearest(i, "zircon.fixed_point") >= 0)
    fp_time = sum(outer_durations.get("zircon.fixed_point", []))
    sweeps = [s[COUNT] for s in spans if s[LAYER] == "sweep.run" and isinstance(s[COUNT], dict)]
    sweep_posets = sum(c["posets"] for c in sweeps)

    def share(num, den):
        return num / den if den else 0.0

    out = {
        "posets.build.calls": calls.get("posets.build", 0),
        "posets.build.self_s": self_s.get("posets.build", 0.0),
        "posets.build.p99_ms": 1000 * _p99(outer_durations.get("posets.build", [])),
        "posets.build.elements": counted.get("posets.build", 0),
        "posets.ideal.calls": calls.get("posets.ideal", 0),
        "posets.ideal.self_s": self_s.get("posets.ideal", 0.0),
        "posets.aut.calls": calls.get("posets.aut", 0),
        "posets.aut.self_s": self_s.get("posets.aut", 0.0),
        "posets.aut.maps": counted.get("posets.aut", 0),
        "posets.iso.calls": calls.get("posets.iso", 0),
        "posets.iso.self_s": self_s.get("posets.iso", 0.0),
        "posets.iso.hit_share": share(counted.get("posets.iso", 0), calls.get("posets.iso", 0)),
        "posets.mobius.calls": calls.get("posets.mobius", 0),
        "posets.mobius.self_s": self_s.get("posets.mobius", 0.0),
        "matchings.search.calls": calls.get("matchings.search", 0),
        "matchings.search.self_s": self_s.get("matchings.search", 0.0),
        "matchings.search.found": counted.get("matchings.search", 0),
        "matchings.search.found_share": share(found_any, calls.get("matchings.search", 0)),
        "matchings.verify.calls": calls.get("matchings.verify", 0),
        "matchings.verify.self_s": self_s.get("matchings.verify", 0.0),
        "zircon.is_zircon.calls": calls.get("zircon.is_zircon", 0),
        "zircon.is_zircon.self_s": self_s.get("zircon.is_zircon", 0.0),
        "zircon.family.calls": calls.get("zircon.family", 0),
        "zircon.family.self_s": self_s.get("zircon.family", 0.0),
        "zircon.fixed_point.calls": calls.get("zircon.fixed_point", 0),
        "zircon.fixed_point.self_s": self_s.get("zircon.fixed_point", 0.0),
        "zircon.fixed_point.verify_share": share(verify_in_fp, fp_time),
        "coxeter.group.self_s": self_s.get("coxeter.group", 0.0),
        "coxeter.bruhat.self_s": self_s.get("coxeter.bruhat", 0.0),
        "coxeter.descent.calls": calls.get("coxeter.descent", 0),
        "coxeter.descent.self_s": self_s.get("coxeter.descent", 0.0),
        "coxeter.twisted.self_s": self_s.get("coxeter.twisted", 0.0),
        "corpus.enumerate.self_s": self_s.get("corpus.enumerate", 0.0),
        "corpus.labeled_orders": labeled_orders,
        "corpus.classes": classes,
        "corpus.iso_tests_per_class": share(corpus_iso, classes),
        "sweep.run.self_s": self_s.get("sweep.run", 0.0),
        "sweep.records": sum(c["records"] for c in sweeps),
        "sweep.theorem_cases": sum(c["theorem_cases"] for c in sweeps),
        "sweep.skipped_share": share(sum(c["skipped"] for c in sweeps), sweep_posets),
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "lib.direct.calls": calls.get(DIRECT, 0),
        "lib.direct.self_s": self_s.get(DIRECT, 0.0),
    }
    # layer_self_s + bench_s is the traced wall_s, killed cases included
    out["trace.killed_s"] = sum(duration[i] for i, s in enumerate(spans)
                                if s[LAYER] == CASE and s[COUNT] == "killed")
    out["trace.bench_s"] = self_s.get(CASE, 0.0)
    out["trace.layer_self_s"] = sum(v for k, v in self_s.items() if k != CASE)
    return out
