"""Closed-loop batch runner for the benchmark workloads.

One process runs the cases of a workload one after another (a sweep runs
with ``--jobs 1``). Cases marked isolated run one at a time in a child
process, which is killed at the case's limit; a killed case is
undecided and is charged its limit. The seed only permutes the case
order. See ``run.py`` for the command line and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 5  # spread evenly over the cases of the first pass
CHILD_START_TIMEOUT_S = 60
CHILD_CHECK_TIMEOUT_S = 60
CHILD_STOP_TIMEOUT_S = 10  # a traced child stopped at its limit sends its spans


class LibraryMissing(RuntimeError):
    """The checkout holds no ``src/zircons`` to benchmark."""


def ensure_library() -> None:
    """Put the checkout's own ``src`` first on the path and import it."""
    init = ROOT / "src" / "zircons" / "__init__.py"
    if not init.is_file():
        raise LibraryMissing(f"no library source at {init}")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import zircons

    if Path(zircons.__file__).resolve() != init.resolve():
        raise LibraryMissing(f"imported zircons from {zircons.__file__}, not {init}")


def load_workloads() -> dict:
    with open(BENCH / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def case_order(cases: list[dict], seed: int) -> list[dict]:
    order = list(cases)
    random.Random(seed).shuffle(order)
    return order


def setup(workload: str, seed: int) -> list[dict]:
    """Everything before the first timed case: import the library and
    build the seeded case list."""
    ensure_library()
    import cases  # noqa: F401  (imports zircons)

    return case_order(load_workloads()["workloads"][workload]["cases"], seed)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, from start to the case list."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import harness; "
            f"harness.setup({workload!r}, {seed})")
    started = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return perf_counter() - started


# -- one case ---------------------------------------------------------------

def child_main() -> None:
    """Entry point of an isolated case's process.

    Reads ``{"case": ..., "traced": ...}`` from stdin and writes one JSON
    line per stage to the original stdout: ready, timed, checked. Anything
    else the process prints goes to stderr. A traced child that gets
    SIGUSR1 (its limit has passed) sends the spans it has so far, closed
    at that moment, as ``stopped`` and exits.
    """
    fd = os.dup(sys.stdout.fileno())
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())

    def send(*message) -> None:
        data = memoryview((json.dumps(message) + "\n").encode())
        while data:
            data = data[os.write(fd, data):]

    request = json.loads(sys.stdin.readline())
    ensure_library()
    import cases
    from spans import Tracer

    tracer = Tracer() if request["traced"] else None
    if tracer is not None:
        def stop(signum, frame):
            tracer.close_open()
            send("stopped", tracer.spans)
            os._exit(0)

        signal.signal(signal.SIGUSR1, stop)
    with tracer.installed() if tracer else contextlib.nullcontext():
        send("ready")
        outcome = cases.execute(request["case"], tracer, on_timed=lambda s: send("timed", s))
    send("checked", outcome, tracer.spans if tracer else [])


class _Lines:
    """Newline-delimited JSON messages from a pipe, read with deadlines."""

    def __init__(self, pipe):
        self.fd = pipe.fileno()
        self.buffer = b""

    def read(self, timeout: float):
        deadline = perf_counter() + timeout
        while b"\n" not in self.buffer:
            remaining = deadline - perf_counter()
            if remaining <= 0 or not select.select([self.fd], [], [], remaining)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                raise EOFError("child exited")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)


def run_isolated(case: dict, tracer=None) -> dict:
    """Run a case in a child process; kill it at the case's limit."""
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import harness; harness.child_main()"
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    limit = case["limit_s"]
    try:
        proc.stdin.write(json.dumps({"case": case, "traced": tracer is not None}).encode() + b"\n")
        proc.stdin.close()
        messages = _Lines(proc.stdout)
        if messages.read(CHILD_START_TIMEOUT_S) is None:
            raise RuntimeError("child did not start")
        # ready: the limit runs from here
        if messages.read(limit) is None:
            if tracer is not None:
                tracer.add_killed(case["id"], limit, stop_traced(proc, messages))
            return {"seconds": limit, "checks": 0, "wrong": [], "error": None, "killed": True}
        checked = messages.read(CHILD_CHECK_TIMEOUT_S)
        if checked is None:
            raise RuntimeError(f"check did not finish within {CHILD_CHECK_TIMEOUT_S} s")
        _, outcome, spans = checked
        if tracer is not None:
            tracer.extend(spans)
        return outcome
    except (EOFError, OSError, RuntimeError, ValueError) as exc:
        return {"seconds": limit, "checks": 0, "wrong": [], "error": f"child: {exc}"}
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def stop_traced(proc, messages: _Lines) -> list | None:
    """The spans of a traced child past its limit, or None if it sends none.

    The child's handler runs between bytecodes, so a child inside one long
    call answers late or not at all; it is killed in ``run_isolated``.
    """
    proc.send_signal(signal.SIGUSR1)
    try:
        while (message := messages.read(CHILD_STOP_TIMEOUT_S)) is not None:
            if message[0] in ("stopped", "checked"):
                return message[-1]
    except (EOFError, OSError, ValueError):
        pass
    return None


def run_case(case: dict, tracer=None) -> dict:
    gc.collect()
    if case.get("isolated"):
        outcome = run_isolated(case, tracer)
    else:
        import cases

        outcome = cases.execute(case, tracer)
    outcome = {"id": case["id"], "limit_s": case["limit_s"], "killed": False, **outcome}
    outcome["decided"] = (not outcome["killed"] and outcome["error"] is None
                          and outcome["seconds"] <= case["limit_s"])
    return outcome


def run_pass(order: list[dict], tracer=None, before_case=None) -> dict:
    """All cases once, in order; wall_s sums the charged case times.

    ``before_case(i)`` runs untimed before case ``i`` (the set-up probes).
    """
    outcomes = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for i, case in enumerate(order):
            if before_case is not None:
                before_case(i)
            outcomes.append(run_case(case, tracer))
    return {
        "wall_s": sum(o["seconds"] for o in outcomes),
        "checks_run": sum(o["checks"] for o in outcomes),
        "cases": outcomes,
    }


def verdicts(p: dict) -> list[tuple]:
    """What a pass decided, independent of timing."""
    return sorted((o["id"], o["decided"], tuple(o["wrong"]), o["error"] is None, o["checks"])
                  for o in p["cases"])


# -- metrics ----------------------------------------------------------------

def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def end_to_end(passes: list[dict], setup_samples: list[float]) -> dict:
    outcomes = [o for p in passes for o in p["cases"]]
    walls = [p["wall_s"] for p in passes]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "decided_share": (sum(o["decided"] for o in outcomes) / len(outcomes), "share"),
        "wrong_verdicts": (sum(bool(o["wrong"]) for o in outcomes), "count"),
        "checks_run": (statistics.median(p["checks_run"] for p in passes), "count"),
        "checks_per_s": (statistics.median(p["checks_run"] / p["wall_s"] for p in passes), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(untraced: dict, traced: dict, spans: list) -> dict:
    from spans import layer_metrics

    out = layer_metrics(spans)
    # one pass pair: host drift between the two passes is of the same size
    out["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    out["trace.layer_share"] = out["trace.layer_self_s"] / traced["wall_s"]
    return out


def environment(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# -- command line -----------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(prog="benchmarks/run.py", description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget: whole passes repeat while another fits; at least one runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    try:
        ensure_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workloads = load_workloads()["workloads"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2

    order = setup(args.workload, args.seed)
    # the set-up probes run between the cases of the first pass, so that
    # they see the host over the run and not its state at one moment
    setup_samples: list[float] = []

    def probes(i: int) -> None:
        n = len(order)
        for _ in range((i + 1) * SETUP_PROBES // n - i * SETUP_PROBES // n):
            setup_samples.append(setup_probe(args.workload, args.seed))

    rng = random.Random(args.seed)
    started = perf_counter()
    passes = [run_pass(order, before_case=probes)]
    traced = tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        traced = run_pass(order, tracer)
    else:
        while perf_counter() - started + passes[-1]["wall_s"] <= args.seconds:
            passes.append(run_pass(case_order(order, rng.randrange(2**32))))

    e2e = end_to_end(passes, setup_samples)
    all_passes = passes + ([traced] if traced else [])
    outcomes = [o for p in all_passes for o in p["cases"]]
    failed = sum(bool(o["wrong"]) or o["error"] is not None for o in outcomes)
    correct = all(not o["wrong"] and o["error"] is None for o in outcomes)
    if traced is not None and verdicts(traced) != verdicts(passes[0]):
        correct = False
        print("error: traced and untraced passes disagree", file=sys.stderr)

    if traced is not None:
        layers = per_layer(passes[0], traced, tracer.spans)
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()
                   if name != "wrong_verdicts"}

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "samples": {"passes": len(passes), "traced_passes": int(traced is not None),
                    "setup_probes": len(setup_samples), "cases_per_pass": len(order)},
        "limits_s": {case["id"]: case["limit_s"] for case in order},
        "setup_samples_s": setup_samples,
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()},
        "passes": passes,
    }
    if traced is not None:
        result["traced_pass"] = traced
        result["per_layer"] = metrics
        result["wrapped"] = tracer.wrapped
        result["not_found"] = tracer.missing
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    _print_report(args, e2e, passes, traced, metrics if traced else None, tracer)
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share"):
        return "share"
    if name == "corpus.iso_tests_per_class":
        return "1/class"
    return "count"


def _print_report(args, e2e, passes, traced, layers, tracer) -> None:
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"{'  + 1 traced' if traced else ''}")
    for o in passes[0]["cases"]:
        state = "killed at limit" if o["killed"] else ("decided" if o["decided"] else "undecided")
        extra = o["error"] or "; ".join(o["wrong"]) or "ok"
        print(f"  case {o['id']:<18} {o['seconds']:9.3f} s  limit {o['limit_s']:>4} s  "
              f"{state:<16} checks {o['checks']:>6}  {extra}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<16} {value:14.4f} {unit}")
    if layers is not None:
        for name, m in layers.items():
            print(f"  {name:<34} {m['value']:14.4f} {m['unit']}")
        print(f"  wrapped {len(tracer.wrapped)} functions: "
              + ", ".join(w["function"].split(":")[1] for w in tracer.wrapped))
        if tracer.missing:
            print(f"  not found: {', '.join(tracer.missing)}")
