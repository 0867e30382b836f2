"""Run the benchmark over several workloads and seeds; summarise each metric.

    python3 benchmarks/spread.py --workload corpus-sweep --workload coxeter-zircon \
        --workload fixed-point-theorem --seeds 1-10 [--trace 0] \
        [--out benchmarks/trajectory/BENCH_<sha>.json]

Runs ``run.py`` once per (workload, seed), one run at a time, each for the
``run_seconds`` of ``BENCHMARK.json``, and prints
for every metric of every workload, by name and unit, the median, the
quartiles of ``statistics.quantiles(values, n=4)`` and the spread: the
distance between the quartiles as a share of the median. The metrics are
read from each run's record in ``benchmarks/results/``, so ``--trace 0``
includes ``wrong_verdicts``. With ``--out`` it writes the summary, every
run's metrics, and the environment, limits and sample counts of the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The final JSON line of one run, and the record it wrote."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    final = json.loads(done.stdout.strip().splitlines()[-1])
    record = BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return final, json.loads(record.read_text())


def quartiles(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "n": len(values)}


def summarise(finals: list[dict], records: list[dict], trace: int) -> dict:
    """One workload's entry: environment, limits, per-metric quartiles, runs."""
    key = "per_layer" if trace else "end_to_end"
    units = {name: m["unit"] for name, m in records[0][key].items()}
    return {
        "environment": records[-1]["environment"],
        "limits_s": records[-1]["limits_s"],
        "samples_per_run": records[-1]["samples"],
        "summary": {name: {"unit": unit, **quartiles([r[key][name]["value"] for r in records])}
                    for name, unit in units.items()},
        "runs": [{"seed": r["environment"]["seed"], "correct": f["correct"],
                  "attempted": f["attempted"], "failed": f["failed"],
                  "metrics": {name: m["value"] for name, m in r[key].items()}}
                 for f, r in zip(finals, records)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {"seeds": parse_seeds(args.seeds), "seconds": seconds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workload:
        finals, records = [], []
        for seed in report["seeds"]:
            final, record = run_once(workload, seed, seconds, args.trace)
            finals.append(final)
            records.append(record)
            print(f"{workload} seed {seed}: correct={final['correct']} "
                  f"failed={final['failed']}/{final['attempted']}", flush=True)
        entry = summarise(finals, records, args.trace)
        for name, s in entry["summary"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:<20} {name:<34} median {s['median']:14.4f} {s['unit']:<7} "
                  f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} spread {spread}", flush=True)
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
