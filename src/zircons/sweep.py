"""Bulk verification sweeps over poset corpora.

A sweep walks a stream of posets and, for each one, whatever its corpus,
enumerates its special matchings and automorphisms, then runs the same battery:
the fixed-point construction on every (matching, automorphism) pair,
the lifting property, zircon preservation under fixed points, agreement
of the two zircon definitions, the Mobius sphericity proxy on zircons,
and the proof-step invariants (unique component extrema, extremal fixed
points, and the extrema as the only sinks of greedy descent).

Each poset reaches ``sweep_case`` as the corpus built it, pickled if it
goes to a worker process; only a worker panic serializes it.

Reports are deterministic: records are sorted, and the JSON encoding is
byte-stable apart from the wall-clock duration field.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import corpus
from .matchings import (
    DEFAULT_MATCHING_LIMIT,
    SearchLimitError,
    _lifting,
    _special_partners,
    matching_pairs,
)
from .posets import (Poset, _fixed_subposet, _sphericity_witness, automorphisms, is_bounded,
                     poset_to_dict)
from .zircon import (
    ConstructionError,
    ExtremaError,
    _extrema,
    _fixed_point_matching,
    _matching_family,
    is_zircon,
)

__all__ = ["SweepReport", "ManifestError", "run_sweep", "validate_manifest"]


class ManifestError(ValueError):
    """The sweep manifest does not match its schema."""


class WorkerPanic(RuntimeError):
    """A worker failed unexpectedly; carries the offending poset."""

    def __init__(self, message: str, poset_payload: dict):
        super().__init__(message)
        self.poset_payload = poset_payload


@dataclass
class SweepReport:
    """Config echo, per-case records, summary counts, and duration."""

    config: dict
    cases: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    duration_seconds: float = 0.0

    @property
    def violations(self) -> int:
        return self.summary.get("violations", 0)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "cases": self.cases,
            "summary": self.summary,
            "duration_seconds": self.duration_seconds,
        }


def _is_int(value) -> bool:
    """JSON integer; ``bool`` is an ``int`` subclass but not a number here."""
    return isinstance(value, int) and not isinstance(value, bool)


_MODE_KEYS = {"exhaustive": {"mode", "max_n"}, "random": {"mode", "n", "seeds", "density"}}


def validate_manifest(manifest: dict) -> dict:
    """Normalize and validate a sweep manifest; reject keys the mode does not read."""
    if not isinstance(manifest, dict) or "mode" not in manifest:
        raise ManifestError('manifest must be an object with a "mode"')
    mode = manifest["mode"]
    if not isinstance(mode, str) or mode not in _MODE_KEYS:
        raise ManifestError(f"unknown sweep mode {mode!r}")
    unknown = [key for key in manifest if key not in _MODE_KEYS[mode]]
    if unknown:
        raise ManifestError(f"{mode} mode does not read {', '.join(map(repr, unknown))}")
    if mode == "exhaustive":
        max_n = manifest.get("max_n")
        if not _is_int(max_n) or not 1 <= max_n <= corpus.MAX_EXHAUSTIVE_N:
            raise ManifestError(f"exhaustive mode needs max_n in 1..{corpus.MAX_EXHAUSTIVE_N}")
        return {"mode": "exhaustive", "max_n": max_n}
    n = manifest.get("n")
    seeds = manifest.get("seeds")
    density = manifest.get("density", 0.3)
    if not _is_int(n) or n < 1:
        raise ManifestError("random mode needs a positive n")
    if not isinstance(seeds, list) or not seeds or not all(_is_int(s) for s in seeds):
        raise ManifestError("random mode needs a non-empty integer seed list")
    if len(set(seeds)) < len(seeds):  # one poset id per seed
        raise ManifestError("random mode needs distinct seeds")
    if (isinstance(density, bool) or not isinstance(density, (int, float))
            or not 0.0 <= density <= 1.0):
        raise ManifestError("density must lie in [0, 1]")
    return {"mode": "random", "n": n, "seeds": list(seeds), "density": float(density)}


def _iter_posets(config: dict) -> Iterable[tuple[str, Poset]]:
    """Each poset of the manifest with its id, as the corpus built it."""
    if config["mode"] == "exhaustive":
        for n in range(1, config["max_n"] + 1):
            for k, P in enumerate(corpus.enumerate_posets(n)):
                yield f"n{n}-c{k:04d}", P
    else:
        for seed in config["seeds"]:
            P = corpus.random_poset(config["n"], seed, config["density"])
            yield f"rand-n{config['n']}-s{seed}", P


def _record(poset_id: str, check: str, ok: bool, *, matching: Optional[int] = None,
            automorphism: Optional[int] = None, witness=None, info=None) -> dict:
    return {
        "poset": poset_id,
        "check": check,
        "matching": matching,
        "automorphism": automorphism,
        "ok": bool(ok),
        "witness": witness,
        "info": info,
    }


def _ideal_minimum_witness(P: Poset) -> Optional[str]:
    """First non-minimal element whose ideal lacks a unique minimum: the
    minima of the ideal below x are the minimal elements of P below x."""
    minimal_mask = sum(1 << i for i, down in enumerate(P._down) if not down)
    for x, below in zip(P.elements, P._below):
        if below and (below & minimal_mask).bit_count() != 1:
            return x
    return None


def _proof_step_records(P: Poset, family) -> list[tuple]:
    """The proof-step invariants of one case, as ``(check, ok, witness)`` triples."""
    labels = P.elements
    perm = family.automorphism._perm
    try:
        extrema = [_extrema(P, mask) for mask in family.components]
    except ExtremaError as exc:
        return [("component_extrema_unique", False, str(exc))]

    # the first fixed point, in element order, that is no extremum
    bad_fixed = next((labels[p] for p, image in enumerate(perm)
                      if image == p and p not in extrema[family.component_of[p]]), None)
    bad_pair = next(([labels[lo], labels[hi]] for lo, hi in extrema
                     if (perm[lo] == lo) != (perm[hi] == hi)), None)

    # A greedy walk moves strictly down (up) in its component and stops at a
    # sink, an element that no member moves down (up): every walk, in every
    # order, ends at the minimum (maximum) iff that is the only such sink.
    below, orbit = P._below, family.orbit
    sink = None
    for q, c in enumerate(family.component_of):
        lo, hi = extrema[c]
        down_sink = q != lo and not any(below[q] >> m[q] & 1 for m in orbit)
        up_sink = q != hi and not any(below[m[q]] >> q & 1 for m in orbit)
        if down_sink or up_sink:
            sink = [labels[q], labels[q if down_sink else lo], labels[q if up_sink else hi]]
            break
    return [("component_extrema_unique", True, None),
            ("fixed_points_extremal", bad_fixed is None, bad_fixed),
            ("min_fixed_iff_max_fixed", bad_pair is None, bad_pair),
            ("greedy_descend_endpoints", sink is None, sink)]


def sweep_case(poset_id: str, P: Poset, cap: int) -> list[dict]:
    """All check records for one poset, from any corpus, the matching
    search capped at ``cap``. Pure; safe to fan out."""
    records: list[dict] = []

    zircon = is_zircon(P)
    # the two zircon definitions agree iff every zircon is ranked
    records.append(_record(poset_id, "definitions_agree", not zircon or P._rank is not None))

    autos = automorphisms(P)
    try:
        specials = list(_special_partners(P, (1 << len(P)) - 1, cap))
    except SearchLimitError as exc:
        specials = None
        records.append(_record(poset_id, "enumeration_truncated", False, witness=str(exc)))

    skip_reason = None
    if not is_bounded(P):
        skip_reason = "not bounded"
    elif specials is None:
        skip_reason = "matching enumeration truncated"
    elif not specials:
        skip_reason = "no special matching"

    if zircon:
        witness = _ideal_minimum_witness(P)
        records.append(_record(poset_id, "ideal_unique_minimum", witness is None, witness=witness))
        witness = _sphericity_witness(P)
        records.append(_record(poset_id, "mobius_sphericity", witness is None, witness=witness))
        for a_idx, phi in enumerate(autos):
            fixed = _fixed_subposet(P, phi)  # P itself for the identity, a zircon here
            verdict = fixed is P or is_zircon(fixed)
            records.append(_record(poset_id, "fixed_points_zircon", verdict, automorphism=a_idx))

    if skip_reason is not None:
        records.append(_record(poset_id, "theorem_suite_skipped", True, info=skip_reason))
        return records

    # the search yields special matchings; they are not checked again
    for m_idx, partner in enumerate(specials):
        verdict = _lifting(P, partner)
        records.append(_record(poset_id, "lifting_property", verdict.ok,
                               matching=m_idx, witness=verdict.witness))

    for a_idx, phi in enumerate(autos):
        m_phi_seen: list = []
        for m_idx, partner in enumerate(specials):
            family = _matching_family(partner, phi)
            try:
                m_phi = _fixed_point_matching(P, partner, phi)
                pairs = matching_pairs(m_phi)
                records.append(_record(poset_id, "fixed_point_special", True,
                                       matching=m_idx, automorphism=a_idx,
                                       info={"order_N": family.order, "m_phi": pairs}))
                if pairs not in m_phi_seen:
                    m_phi_seen.append(pairs)
            except (ConstructionError, ExtremaError) as exc:
                records.append(_record(poset_id, "fixed_point_special", False,
                                       matching=m_idx, automorphism=a_idx, witness=str(exc)))
            records.extend(_record(poset_id, check, ok, matching=m_idx, automorphism=a_idx, witness=w)
                           for check, ok, w in _proof_step_records(P, family))
        # how the induced matching depends on the base matching is an open
        # point; surface the observed spread without judging it
        records.append(_record(poset_id, "m_phi_dependence", True, automorphism=a_idx,
                               info={"distinct_m_phi": len(m_phi_seen)}))
    return records


def _worker(case: tuple[str, Poset, int]) -> dict:
    try:
        return {"records": sweep_case(*case)}
    except Exception:
        poset_id, P, cap = case
        payload = {"poset_id": poset_id, "poset": poset_to_dict(P), "cap": cap}
        return {"panic": traceback.format_exc(), "poset": payload}


def _sort_key(rec: dict):
    return (
        rec["poset"],
        rec["matching"] if rec["matching"] is not None else -1,
        rec["automorphism"] if rec["automorphism"] is not None else -1,
        rec["check"],
    )


def run_sweep(
    manifest: dict,
    jobs: Optional[int] = None,
    cap_matchings: int = DEFAULT_MATCHING_LIMIT,
) -> SweepReport:
    """Run the verification battery over every poset of the manifest on
    ``min(jobs, cores, cases)`` worker processes, or serially on one, each
    poset as the corpus yields it.

    Raises ManifestError on a malformed manifest, on ``jobs`` below 1 and
    on a negative ``cap_matchings``, and WorkerPanic if any case dies
    unexpectedly; the offending poset travels with the exception for
    reproduction.
    """
    config = validate_manifest(manifest)
    cores = os.cpu_count() or 1
    jobs = cores if jobs is None else jobs
    if jobs < 1:
        raise ManifestError(f"jobs must be at least 1, not {jobs}")
    if cap_matchings < 0:
        raise ManifestError(f"cap_matchings must be at least 0, not {cap_matchings}")
    started = time.perf_counter()
    work = ((poset_id, P, cap_matchings) for poset_id, P in _iter_posets(config))
    workers = min(jobs, cores)
    if workers > 1:
        work = list(work)  # only the pool holds every case at once
        workers = min(workers, len(work))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(work) // (workers * 4))
            results = list(pool.map(_worker, work, chunksize=chunk))
    else:
        results = map(_worker, work)

    cases: list[dict] = []
    posets = 0
    for res in results:
        if "panic" in res:
            raise WorkerPanic(res["panic"], res["poset"])
        cases.extend(res["records"])
        posets += 1
    cases.sort(key=_sort_key)

    by_check = Counter(rec["check"] for rec in cases)
    summary = {
        "posets": posets,
        "records": len(cases),
        "violations": sum(not rec["ok"] for rec in cases),
        "skipped": by_check["theorem_suite_skipped"],
        "panics": 0,
        "by_check": dict(sorted(by_check.items())),
    }
    return SweepReport(
        config={**config, "cap_matchings": cap_matchings},
        cases=cases,
        summary=summary,
        duration_seconds=time.perf_counter() - started,
    )
