"""Bulk verification sweeps over poset corpora.

A sweep walks a stream of posets and, for each one, enumerates its
special matchings and automorphisms, then runs the whole battery:
the fixed-point construction on every (matching, automorphism) pair,
the lifting property, zircon preservation under fixed points, agreement
of the two zircon definitions, the Mobius sphericity proxy on zircons,
and the proof-step invariants (unique component extrema, extremal fixed
points, greedy-descent endpoint independence under shuffled orders).

Reports are deterministic: records are sorted, and the JSON encoding is
byte-stable apart from the wall-clock duration field.
"""

from __future__ import annotations

import os
import random
import time
import traceback
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import corpus
from .matchings import (
    DEFAULT_MATCHING_LIMIT,
    SearchLimitError,
    enumerate_special_matchings,
    matching_pairs,
    verify_lifting,
)
from .posets import (
    Poset,
    automorphisms,
    is_bounded,
    leq,
    mobius,
    poset_to_dict,
    rank_function,
)
from .zircon import (
    ConstructionError,
    ExtremaError,
    _fixed_point_matching,
    component_extrema,
    definitions_agree,
    fixed_point_subposet,
    greedy_descend,
    is_zircon,
    matching_family,
)

__all__ = ["SweepReport", "ManifestError", "run_sweep", "validate_manifest", "GREEDY_SHUFFLES"]

GREEDY_SHUFFLES = 20


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

    @property
    def panics(self) -> int:
        return self.summary.get("panics", 0)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "cases": self.cases,
            "summary": self.summary,
            "duration_seconds": self.duration_seconds,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "SweepReport":
        return cls(
            config=obj["config"],
            cases=obj["cases"],
            summary=obj["summary"],
            duration_seconds=obj["duration_seconds"],
        )


def _is_int(value) -> bool:
    """JSON integer; ``bool`` is an ``int`` subclass but not a number here."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate_manifest(manifest: dict) -> dict:
    """Normalize and validate a sweep manifest."""
    if not isinstance(manifest, dict) or "mode" not in manifest:
        raise ManifestError('manifest must be an object with a "mode"')
    mode = manifest["mode"]
    if mode == "exhaustive":
        max_n = manifest.get("max_n")
        if not _is_int(max_n) or not 1 <= max_n <= corpus.MAX_EXHAUSTIVE_N:
            raise ManifestError(f"exhaustive mode needs max_n in 1..{corpus.MAX_EXHAUSTIVE_N}")
        return {"mode": "exhaustive", "max_n": max_n}
    if mode == "random":
        n = manifest.get("n")
        seeds = manifest.get("seeds")
        density = manifest.get("density", 0.3)
        if not _is_int(n) or n < 1:
            raise ManifestError("random mode needs a positive n")
        if not isinstance(seeds, list) or not seeds or not all(_is_int(s) for s in seeds):
            raise ManifestError("random mode needs a non-empty integer seed list")
        if (isinstance(density, bool) or not isinstance(density, (int, float))
                or not 0.0 <= density <= 1.0):
            raise ManifestError("density must lie in [0, 1]")
        return {"mode": "random", "n": n, "seeds": list(seeds), "density": float(density)}
    raise ManifestError(f"unknown sweep mode {mode!r}")


def _iter_payloads(config: dict, cap_matchings: int) -> Iterable[dict]:
    if config["mode"] == "exhaustive":
        for n in range(1, config["max_n"] + 1):
            for k, P in enumerate(corpus.enumerate_posets(n)):
                yield {
                    "poset_id": f"n{n}-c{k:04d}",
                    "poset": poset_to_dict(P),
                    "mode": "exhaustive",
                    "cap": cap_matchings,
                }
    else:
        for seed in config["seeds"]:
            P = corpus.random_poset(config["n"], seed, config["density"])
            yield {
                "poset_id": f"rand-n{config['n']}-s{seed}",
                "poset": poset_to_dict(P),
                "mode": "random",
                "cap": cap_matchings,
            }


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


def _sphericity_witness(P: Poset) -> Optional[list]:
    """First interval violating mu(x, y) = (-1)^(rank difference), if any."""
    ranks = rank_function(P)
    if ranks is None:
        return ["unranked zircon"]
    for x in P.elements:
        for y in P.elements:
            if not leq(P, x, y):
                continue
            expected = (-1) ** (ranks[y] - ranks[x])
            if mobius(P, x, y) != expected:
                return [x, y]
    return None


def _ideal_minimum_witness(P: Poset) -> Optional[str]:
    """First non-minimal element whose ideal lacks a unique minimum."""
    from .posets import principal_ideal

    minimal = set(P.minimal_elements)
    for x in P.elements:
        if x in minimal:
            continue
        if len(principal_ideal(P, x).minimal_elements) != 1:
            return x
    return None


def _proof_step_records(poset_id: str, P: Poset, family, fixed: set[str],
                        m_idx: int, a_idx: int) -> list[dict]:
    """The proof-step invariants for one (matching, automorphism) case."""
    records = []
    comp_of = family.components
    components = list(dict.fromkeys(comp_of.values()))

    extrema_ok, extrema_witness = True, None
    extrema: dict[frozenset[str], tuple[str, str]] = {}
    for comp in components:
        try:
            extrema[comp] = component_extrema(P, comp)
        except ExtremaError as exc:
            extrema_ok, extrema_witness = False, str(exc)
            break
    records.append(_record(poset_id, "component_extrema_unique", extrema_ok,
                           matching=m_idx, automorphism=a_idx, witness=extrema_witness))
    if not extrema_ok:
        return records

    ok, witness = True, None
    for p in fixed:
        lo, hi = extrema[comp_of[p]]
        if p != lo and p != hi:
            ok, witness = False, p
            break
    records.append(_record(poset_id, "fixed_points_extremal", ok,
                           matching=m_idx, automorphism=a_idx, witness=witness))

    ok, witness = True, None
    for comp in components:
        lo, hi = extrema[comp]
        if (lo in fixed) != (hi in fixed):
            ok, witness = False, [lo, hi]
            break
    records.append(_record(poset_id, "min_fixed_iff_max_fixed", ok,
                           matching=m_idx, automorphism=a_idx, witness=witness))

    ok, witness = True, None
    base = list(range(1, family.order + 1))
    for q in P.elements:
        lo, hi = extrema[comp_of[q]]
        case_seed = zlib.crc32(f"{poset_id}|{m_idx}|{a_idx}|{q}".encode())
        for shuffle_i in range(GREEDY_SHUFFLES):
            rng = random.Random(case_seed + shuffle_i)
            order = base[:]
            rng.shuffle(order)
            got_lo = greedy_descend(P, family, q, "down", priority=order)
            got_hi = greedy_descend(P, family, q, "up", priority=order)
            if got_lo != lo or got_hi != hi:
                ok, witness = False, [q, got_lo, got_hi]
                break
        if not ok:
            break
    records.append(_record(poset_id, "greedy_descend_endpoints", ok,
                           matching=m_idx, automorphism=a_idx, witness=witness))
    return records


def sweep_case(payload: dict) -> list[dict]:
    """All check records for one poset. Pure; safe to fan out."""
    from .posets import poset_from_dict

    poset_id = payload["poset_id"]
    P = poset_from_dict(payload["poset"])
    mode = payload["mode"]
    cap = payload["cap"]
    records: list[dict] = []

    records.append(_record(poset_id, "definitions_agree", definitions_agree(P)))

    autos = automorphisms(P)
    try:
        specials = enumerate_special_matchings(P, limit=cap)
        truncated = False
    except SearchLimitError as exc:
        specials = []
        truncated = True
        records.append(_record(poset_id, "enumeration_truncated", False, witness=str(exc)))

    zircon = is_zircon(P)
    if zircon:
        witness = _ideal_minimum_witness(P)
        records.append(_record(poset_id, "ideal_unique_minimum", witness is None, witness=witness))
        witness = _sphericity_witness(P)
        records.append(_record(poset_id, "mobius_sphericity", witness is None, witness=witness))
        for a_idx, phi in enumerate(autos):
            sub = fixed_point_subposet(P, phi)
            records.append(_record(poset_id, "fixed_points_zircon", is_zircon(sub),
                                   automorphism=a_idx))

    bounded = is_bounded(P)
    skip_reason = None
    if not bounded:
        skip_reason = "not bounded"
    elif truncated:
        skip_reason = "matching enumeration truncated"
    elif not specials:
        skip_reason = "no special matching"
    elif mode == "random" and len(autos) == 1:
        skip_reason = "only the trivial automorphism"
    if skip_reason is not None:
        records.append(_record(poset_id, "theorem_suite_skipped", True, info=skip_reason))
        return records

    for m_idx, M in enumerate(specials):
        verdict = verify_lifting(P, M)
        records.append(_record(poset_id, "lifting_property", verdict.ok,
                               matching=m_idx, witness=verdict.witness))

    for a_idx, phi in enumerate(autos):
        m_phi_seen: list = []
        for m_idx, M in enumerate(specials):
            family = matching_family(P, M, phi)
            fixed = set(phi.fixed_points())
            try:
                m_phi = _fixed_point_matching(P, family)
                pairs = matching_pairs(m_phi)
                records.append(_record(poset_id, "fixed_point_special", True,
                                       matching=m_idx, automorphism=a_idx,
                                       info={"order_N": family.order, "m_phi": pairs}))
                if pairs not in m_phi_seen:
                    m_phi_seen.append(pairs)
            except (ConstructionError, ExtremaError) as exc:
                records.append(_record(poset_id, "fixed_point_special", False,
                                       matching=m_idx, automorphism=a_idx, witness=str(exc)))
            records.extend(_proof_step_records(poset_id, P, family, fixed, m_idx, a_idx))
        # how the induced matching depends on the base matching is an open
        # point; surface the observed spread without judging it
        records.append(_record(poset_id, "m_phi_dependence", True, automorphism=a_idx,
                               info={"distinct_m_phi": len(m_phi_seen)}))
    return records


def _worker(payload: dict) -> dict:
    try:
        return {"records": sweep_case(payload)}
    except Exception:
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
    """Run the verification battery over every poset of the manifest.

    Raises WorkerPanic if any case dies unexpectedly; the offending poset
    travels with the exception for reproduction.
    """
    config = validate_manifest(manifest)
    if jobs is None:
        jobs = os.cpu_count() or 1
    started = time.perf_counter()
    payloads = list(_iter_payloads(config, cap_matchings))
    results: list[dict] = []
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(payloads) // (jobs * 4))
            results = list(pool.map(_worker, payloads, chunksize=chunk))
    else:
        results = [_worker(p) for p in payloads]

    cases: list[dict] = []
    for res in results:
        if "panic" in res:
            raise WorkerPanic(res["panic"], res["poset"])
        cases.extend(res["records"])
    cases.sort(key=_sort_key)

    by_check: dict[str, int] = {}
    violations = 0
    skipped = 0
    for rec in cases:
        by_check[rec["check"]] = by_check.get(rec["check"], 0) + 1
        if not rec["ok"]:
            violations += 1
        if rec["check"] == "theorem_suite_skipped":
            skipped += 1
    summary = {
        "posets": len(payloads),
        "records": len(cases),
        "violations": violations,
        "skipped": skipped,
        "panics": 0,
        "by_check": dict(sorted(by_check.items())),
    }
    return SweepReport(
        config={**config, "cap_matchings": cap_matchings},
        cases=cases,
        summary=summary,
        duration_seconds=time.perf_counter() - started,
    )
