"""Case runners: the timed library work of one case, then its check.

Every runner is a pair. ``run`` does the library work that the case
times and returns the raw output. ``check`` runs after timing stops: it
reduces the output to named answers, compares them with the known
answers of ``workloads.json``, and counts the individual checks behind
the verdict. The library is reached through ``zircons.cli.main`` where a
subcommand exists and through the public API everywhere else, always as
``zircons.<name>`` at call time, so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from time import perf_counter

import zircons
import zircons.cli

from oracles import reachability_below

BENCH = Path(__file__).resolve().parent


def _cli_run(case: dict):
    argv = [a.replace("{bench}", str(BENCH)) for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = zircons.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _dig(obj, path: str):
    for part in path.split("."):
        obj = obj[part]
    return obj


def _cli_check(case: dict, raw) -> tuple[dict, int]:
    rc, stdout, stderr = raw
    if rc not in (0, 1):
        raise RuntimeError(f"zircons {' '.join(case['argv'])} exited {rc}: {stderr.strip()}")
    report = json.loads(stdout)
    answers = {"rc": rc}
    for path, _, _ in case["expect"]:
        if path != "rc" and path != "oracle_mismatches":
            answers[path] = _dig(report, path)
    command = case["argv"][0]
    if command == "sweep":
        checks = report["summary"]["records"]
    elif case["argv"][2] == "zircon-check":
        # every descent matching, plus one ideal per non-minimal element
        checks = report["descent_matchings_checked"] + report["cardinality"] - 1
    else:
        # the fixed-point equality, the zircon ideals, the Mobius sweep
        checks = report["cardinality"] + 1
    if case.get("oracle"):
        answers["oracle_mismatches"] = bruhat_mismatches(case["oracle"])
    return answers, checks


def bruhat_mismatches(type_spec: str) -> int:
    """Pairs on which the library's ``leq`` disagrees with reachability."""
    B = zircons.build_coxeter(type_spec).bruhat_poset()
    below = reachability_below(B.elements, B.covers)
    bit = {e: 1 << k for k, e in enumerate(B.elements)}
    leq = zircons.leq
    wrong = 0
    for y in B.elements:
        mask = below[y] | bit[y]
        for x in B.elements:
            if leq(B, x, y) != bool(mask & bit[x]):
                wrong += 1
    return wrong


def special_violation(P, M) -> str | None:
    """Why ``M`` is not a special matching of ``P``, or None.

    Written from the definition: a fixed-point-free involution along Hasse
    edges such that every cover p < q has M(p) = q or M(p) < M(q).
    """
    if set(M) != set(P.elements):
        return "not total"
    covers = set(P.covers)
    for p, q in M.items():
        if p == q or M.get(q) != p:
            return f"not an involution at {p!r}"
        if (p, q) not in covers and (q, p) not in covers:
            return f"{p!r}-{q!r} is not a Hasse edge"
    for p, q in P.covers:
        mp, mq = M[p], M[q]
        if mp != q and not (mp != mq and zircons.leq(P, mp, mq)):
            return f"cover {p!r} < {q!r}"
    return None


def _enumerate_run(case: dict):
    return sum(1 for _ in zircons.enumerate_posets(case["n"]))


def _enumerate_check(case: dict, classes: int) -> tuple[dict, int]:
    return {"classes": classes}, classes


def _intervals_run(case: dict):
    """The theorem on every Bruhat interval [u, v], u < v: every special
    matching against every automorphism; on the lower intervals [e, v],
    which are zircons, also the zircon test of each fixed-point poset."""
    W = zircons.build_coxeter(case["type"])
    B = W.bruhat_poset()
    bottom = B.minimal_elements[0]
    out = []
    for u in B.elements:
        for v in B.elements:
            if u == v or not zircons.leq(B, u, v):
                continue
            I = zircons.interval(B, u, v)
            specials = zircons.enumerate_special_matchings(I)
            autos = zircons.automorphisms(I)
            built = []
            for phi in autos:
                pairs = [zircons.fixed_point_matching(I, M, phi) for M in specials]
                zircon = None
                if u == bottom:
                    zircon = zircons.is_zircon(zircons.fixed_point_subposet(I, phi))
                built.append((phi, pairs, zircon))
            out.append((I, u == bottom, len(specials), built))
    return out


def _intervals_check(case: dict, out) -> tuple[dict, int]:
    not_special = not_zircon = lower_empty = checks = 0
    for I, lower, n_specials, built in out:
        if lower and n_specials == 0:
            lower_empty += 1
        for phi, pairs, zircon in built:
            sub = zircons.fixed_point_subposet(I, phi)
            for m_phi in pairs:
                not_special += special_violation(sub, m_phi) is not None
            checks += len(pairs)
            if zircon is not None:
                not_zircon += not zircon
                checks += 1
    return {
        "intervals": len(out),
        "constructions_not_special": not_special,
        "lower_fixed_points_not_zircon": not_zircon,
        "lower_without_special_matching": lower_empty,
    }, checks


def _whole_run(case: dict):
    """The theorem on a whole Bruhat order: every automorphism against the
    descent matchings of the longest element, whose ideal is everything."""
    W = zircons.build_coxeter(case["type"])
    B = W.bruhat_poset()
    autos = zircons.automorphisms(B)
    w0 = W.longest_element()
    matchings = [
        zircons.descent_matching(W, w0, s, side, ideal=B)
        for side, descents in (("right", W.right_descents(w0)), ("left", W.left_descents(w0)))
        for s in descents
    ]
    built = []
    for phi in autos:
        pairs = [zircons.fixed_point_matching(B, M, phi) for M in matchings]
        zircon = zircons.is_zircon(zircons.fixed_point_subposet(B, phi))
        built.append((phi, pairs, zircon))
    return B, len(matchings), built


def _whole_check(case: dict, out) -> tuple[dict, int]:
    B, n_matchings, built = out
    not_special = not_zircon = checks = 0
    for phi, pairs, zircon in built:
        sub = zircons.fixed_point_subposet(B, phi)
        not_special += sum(special_violation(sub, m) is not None for m in pairs)
        not_zircon += not zircon
        checks += len(pairs) + 1
    return {
        "automorphisms": len(built),
        "descent_matchings": n_matchings,
        "constructions_not_special": not_special,
        "fixed_points_not_zircon": not_zircon,
    }, checks


def _spin_run(case: dict):
    """Automorphisms of a small poset in a loop for ``spin_s`` seconds; the
    self-tests use it to exceed a limit inside a traced layer."""
    diamond = zircons.build_poset([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)])
    stop = perf_counter() + case["spin_s"]
    while perf_counter() < stop:
        zircons.automorphisms(diamond)


def _spin_check(case: dict, out) -> tuple[dict, int]:
    return {}, 0


RUNNERS = {
    "cli": (_cli_run, _cli_check),
    "enumerate": (_enumerate_run, _enumerate_check),
    "intervals": (_intervals_run, _intervals_check),
    "whole": (_whole_run, _whole_check),
    "spin": (_spin_run, _spin_check),
}


def execute(case: dict, tracer=None, on_timed=None) -> dict:
    """Run one case: time ``run``, then ``check`` against known answers.

    Returns the charged seconds, the checks counted, the wrong answers
    (as "path: got X, want Y") and the error if the library raised.
    """
    run, check = RUNNERS[case["kind"]]
    error = None
    raw = None
    span = tracer.case(case["id"]) if tracer is not None else contextlib.nullcontext()
    with span:
        started = perf_counter()
        try:
            raw = run(case)
        except Exception as exc:  # a raised case is reported, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - started
    if on_timed is not None:
        on_timed(seconds)
    wrong: list[str] = []
    checks = 0
    if error is None:
        try:
            answers, checks = check(case, raw)
        except Exception as exc:
            error = f"check failed: {type(exc).__name__}: {exc}"
        else:
            for path, want, _ in case["expect"]:
                got = answers.get(path)
                if (type(got), got) != (type(want), want):
                    wrong.append(f"{path}: got {got!r}, want {want!r}")
    return {"seconds": seconds, "checks": checks, "wrong": wrong, "error": error}
