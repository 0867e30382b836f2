"""Benchmark of the zircons verifier.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its
``src/``. Workloads, cases, time limits and known answers are in
``benchmarks/workloads.json``. A run repeats whole passes over the
workload's cases while another pass fits in ``--seconds`` (at least one
pass runs), prints one line per case and every metric by name and unit,
writes the full record to ``benchmarks/results/``, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``), per workload:

- ``wall_s``: seconds for the timed cases of a pass; a case killed at its
  limit is charged the limit. Median over passes.
- ``setup_s``: seconds from interpreter start to the case list (import
  and inputs), median of five fresh interpreters started between the
  cases of the first pass, so that they sample the host over the run.
- ``decided_share``: share of cases that returned a verdict within their
  limit.
- ``wrong_verdicts``: cases whose answer differs from the known answer;
  printed, and gated through ``correct`` and ``failed`` rather than as a
  JSON metric, because it is 0 whenever the library is right.
- ``checks_run``: individual checks behind the verdicts.
- ``checks_per_s``: ``checks_run / wall_s``.
- ``peak_rss_mb``: peak resident memory of this process and its children.

``attempted`` counts cases; ``failed`` counts cases that raised or gave a
wrong answer. A case killed at its limit is not failed: it lowers
``decided_share`` and is charged its limit in ``wall_s``.

With ``--trace 1`` a run makes one untraced pass and then one traced
pass (see ``spans.py``) and reports the per-layer metrics instead. Of
the traced ``wall_s``, ``trace.layer_self_s`` is spent in wrapped library
functions (``trace.layer_share`` of it) and ``trace.bench_s`` in the
benchmark's own code; the two add up to it. A killed traced case keeps
the spans its child recorded until its limit. ``trace.overhead_s`` is the
traced minus the untraced ``wall_s`` of one pass pair: indicative only,
since the host's speed drifts by as much between two passes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
