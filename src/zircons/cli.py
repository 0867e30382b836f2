"""Command-line front end.

Subcommands: check, sweep, coxeter, dot, mobius. Exit codes: 0 when all
checks pass, 1 when a verification fails (the report carries a witness),
2 on malformed input or violated preconditions, 3 when a sweep worker
dies (the offending poset is serialized for reproduction).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .coxeter import (
    CoxeterError,
    build_coxeter,
    descent_matching,
    fix_subgroup_poset,
    theta_from_spec,
    twisted_involutions,
    twisted_map,
)
from .matchings import (
    DEFAULT_MATCHING_LIMIT,
    MatchingError,
    SearchLimitError,
    is_matching,
    is_special,
    matching_from_dict,
    matching_pairs,
    verify_lifting,
)
from .posets import (
    PosetError,
    are_isomorphic,
    is_automorphism,
    is_bounded,
    map_from_dict,
    mobius,
    poset_from_dict,
    poset_to_dict,
    poset_to_dot,
)
from .sweep import ManifestError, WorkerPanic, _sphericity_witness, run_sweep
from .zircon import (
    BoundednessError,
    ConstructionError,
    ExtremaError,
    fixed_point_report,
    is_zircon,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_PANIC = 3


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})")


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(obj, output: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", output)


def cmd_check(args) -> int:
    P = poset_from_dict(_load_json(args.poset))
    M = matching_from_dict(_load_json(args.matching))
    report: dict = {"poset": poset_to_dict(P), "matching_pairs": matching_pairs(M)}
    ok = True

    matching_ok = is_matching(P, M)
    report["matching"] = matching_ok
    if not matching_ok:
        report["special"] = None
        report["witness"] = None
        report["lifting"] = None
        _emit_json(report, args.output)
        return EXIT_VIOLATION

    verdict = is_special(P, M)
    report["special"] = verdict.ok
    report["witness"] = list(verdict.witness) if verdict.witness else None
    if verdict.ok:
        lifting = verify_lifting(P, M)
        report["lifting"] = lifting.ok
        if not lifting.ok:
            report["lifting_witness"] = list(lifting.witness)
            ok = False
    else:
        report["lifting"] = None
        ok = False

    if args.automorphism:
        mapping = map_from_dict(_load_json(args.automorphism))
        if not is_automorphism(P, mapping):
            raise InputError("the supplied map is not an automorphism of the poset")
        if not verdict.ok:
            raise InputError("fixed-point construction requires a special matching")
        if not is_bounded(P):
            raise InputError("fixed-point construction requires a bounded poset")
        fp = fixed_point_report(P, M, mapping)
        report["fixed_point"] = fp
        if not fp["special"]:
            ok = False

    _emit_json(report, args.output)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_sweep(args) -> int:
    manifest = _load_json(args.manifest)
    try:
        report = run_sweep(manifest, jobs=args.jobs, cap_matchings=args.cap_matchings)
    except ManifestError as exc:
        raise InputError(str(exc))
    except WorkerPanic as exc:
        _emit_json({"panic": str(exc), "poset": exc.poset_payload}, args.output)
        return EXIT_PANIC
    _emit_json(report.to_dict(), args.output)
    return EXIT_OK if report.violations == 0 else EXIT_VIOLATION


def _coxeter_export(W, args) -> int:
    B = W.bruhat_poset()
    if args.format == "dot":
        _emit(poset_to_dot(B, name="bruhat"), args.output)
    else:
        _emit_json(poset_to_dict(B), args.output)
    return EXIT_OK


def _coxeter_zircon_check(W, args) -> int:
    from .posets import principal_ideal

    B = W.bruhat_poset()
    witnesses = []
    count = 0
    for el in W.elements:
        if el.length == 0:
            continue
        ideal = principal_ideal(B, el.label)
        for side, descents in (("right", W.right_descents(el)), ("left", W.left_descents(el))):
            for s in descents:
                count += 1
                try:
                    descent_matching(W, el, s, side, ideal=ideal)
                except CoxeterError as exc:
                    witnesses.append([el.label, s, side, str(exc)])
    zircon = is_zircon(B)
    report = {
        "type": W.type_spec,
        "cardinality": len(W),
        "zircon": zircon,
        "descent_matchings_checked": count,
        "all_descent_matchings_special": not witnesses,
        "witnesses": witnesses,
    }
    _emit_json(report, args.output)
    return EXIT_OK if zircon and not witnesses else EXIT_VIOLATION


def _coxeter_twisted(W, theta, args) -> int:
    from .posets import induced_subposet

    B = W.bruhat_poset()
    tm = twisted_map(W, theta)
    fixed = induced_subposet(B, tm.fixed_points())
    labels = [el.label for el in twisted_involutions(W, theta)]
    induced = induced_subposet(B, labels)
    equal = induced == fixed
    zircon = is_zircon(induced)
    witness = _sphericity_witness(induced)
    sphericity = witness is None
    report = {
        "type": W.type_spec,
        "theta": theta.generator_map,
        "cardinality": len(induced),
        "equals_fixed_point_subposet": equal,
        "zircon": zircon,
        "sphericity": sphericity,
        "witness": witness,
        "elements": list(induced.elements),
    }
    _emit_json(report, args.output)
    return EXIT_OK if equal and zircon and sphericity else EXIT_VIOLATION


def _coxeter_fix_check(W, theta, args) -> int:
    if not args.against:
        raise InputError("fix-check requires --against TYPE")
    candidate = build_coxeter(args.against)
    fix = fix_subgroup_poset(W, theta)
    target = candidate.bruhat_poset()
    mapping = are_isomorphic(fix, target)
    report = {
        "type": W.type_spec,
        "theta": theta.generator_map,
        "against": candidate.type_spec,
        "cardinality": [len(fix), len(target)],
        "isomorphic": mapping is not None,
        "witness_map": mapping,
    }
    _emit_json(report, args.output)
    return EXIT_OK if mapping is not None else EXIT_VIOLATION


def cmd_coxeter(args) -> int:
    try:
        W = build_coxeter(args.type_spec)
        theta = theta_from_spec(W, args.theta)
    except CoxeterError as exc:
        raise InputError(str(exc))
    if args.action == "export":
        return _coxeter_export(W, args)
    if args.action == "zircon-check":
        return _coxeter_zircon_check(W, args)
    if args.action == "twisted":
        return _coxeter_twisted(W, theta, args)
    if args.action == "fix-check":
        try:
            return _coxeter_fix_check(W, theta, args)
        except CoxeterError as exc:
            raise InputError(str(exc))
    raise InputError(f"unknown action {args.action!r}")


def cmd_dot(args) -> int:
    P = poset_from_dict(_load_json(args.poset))
    _emit(poset_to_dot(P), args.output)
    return EXIT_OK


def cmd_mobius(args) -> int:
    P = poset_from_dict(_load_json(args.poset))
    try:
        value = mobius(P, args.x, args.y)
    except PosetError as exc:
        raise InputError(str(exc))
    _emit(str(value), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="PATH", default=None,
                        help="write the artifact here instead of stdout")
    common.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for sweeps (default: all cores)")
    common.add_argument("--cap-matchings", type=int, default=DEFAULT_MATCHING_LIMIT,
                        metavar="K", help="abort enumeration beyond K matchings")

    parser = argparse.ArgumentParser(
        prog="zircons",
        description="Special matchings, zircons, and Bruhat-order checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="verify a matching file against a poset file")
    p.add_argument("poset")
    p.add_argument("matching")
    p.add_argument("automorphism", nargs="?", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", parents=[common], help="run a corpus sweep manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("coxeter", parents=[common],
                       help="Bruhat-order workflows for Coxeter presets")
    p.add_argument("type_spec", help="A3, B3, D4, or I2:7")
    p.add_argument("action", choices=["export", "zircon-check", "twisted", "fix-check"])
    p.add_argument("theta", nargs="?", default="id",
                   help='diagram automorphism: "id", "flip", or "s1:s3,s3:s1"')
    p.add_argument("--against", default=None, metavar="TYPE",
                   help="candidate type for fix-check isomorphism")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_coxeter)

    p = sub.add_parser("dot", parents=[common], help="render a poset file as DOT")
    p.add_argument("poset")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("mobius", parents=[common],
                       help="Mobius value of an interval of a poset file")
    p.add_argument("poset")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_mobius)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PosetError, MatchingError, BoundednessError, ManifestError, CoxeterError,
            SearchLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConstructionError, ExtremaError) as exc:
        print(f"internal contradiction: {exc}", file=sys.stderr)
        return EXIT_PANIC


if __name__ == "__main__":
    sys.exit(main())
