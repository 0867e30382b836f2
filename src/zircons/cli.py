"""Command-line front end.

Subcommands: check, sweep, coxeter, dot, mobius. Exit codes: 0 when all
checks pass, 1 when a verification fails (the report carries a witness),
2 on malformed input or violated preconditions, 3 when a sweep worker
dies (the offending poset is serialized for reproduction). ``main``
returns every one of them, argparse's included, and raises no SystemExit.

``coxeter T ACTION`` parses each action with its own parser, which declares
only the arguments that action reads, so argparse rejects any other with
exit 2; they come after the action.

``coxeter T zircon-check`` is a report over ``coxeter._descent_failures``,
which checks the descent matching of every (w, s, side) in one pass over the
whole Bruhat order per generator and side, with no ideal poset built. The
failures are the witnesses, in the order (w, right before left, s). The
order is a zircon if every element but e has a passing descent matching,
which is then a special matching of its ideal; otherwise ``is_zircon``
decides, once, on the whole Bruhat order.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .coxeter import (
    CoxeterError,
    _descent_failures,
    build_coxeter,
    fix_subgroup_poset,
    theta_from_spec,
    twisted_involutions,
    twisted_map,
)
from .matchings import (
    DEFAULT_MATCHING_LIMIT,
    MatchingError,
    SearchLimitError,
    _failing_covers,
    _partner,
    _special_matching,
    matching_from_dict,
    matching_pairs,
    verify_lifting,
)
from .posets import (
    PosetError,
    PosetMap,
    _sphericity_witness,
    are_isomorphic,
    map_from_dict,
    mobius,
    poset_from_dict,
    poset_to_dict,
    poset_to_dot,
)
from .sweep import ManifestError, WorkerPanic, run_sweep
from .zircon import (
    BoundednessError,
    ConstructionError,
    ExtremaError,
    _require_bounded,
    fixed_point_report,
    fixed_point_subposet,
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
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")
    # bad JSON or UTF-8, an integer over the digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: invalid JSON ({exc})")


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc.strerror}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(obj, output: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", output)


def cmd_check(args) -> int:
    P = poset_from_dict(_load_json(args.poset))
    M = matching_from_dict(_load_json(args.matching))
    phi = PosetMap(P, map_from_dict(_load_json(args.automorphism))) if args.automorphism else None
    report: dict = {"poset": poset_to_dict(P), "matching_pairs": matching_pairs(M)}

    # M is converted and checked once; later steps take it as a SpecialMatching
    partner = _partner(P, M)
    failing = None if partner is None else next(_failing_covers(P, partner), None)
    special = ok = partner is not None and failing is None
    if phi is not None and not special:
        raise InputError("fixed-point construction requires a special matching")
    if partner is None:
        report.update(matching=False, special=None, witness=None, lifting=None)
        _emit_json(report, args.output)
        return EXIT_VIOLATION
    report["matching"] = True
    report["special"] = special
    report["witness"] = [P.elements[i] for i in failing] if failing else None
    report["lifting"] = None
    if special:
        M = _special_matching(P, partner)
        lifting = verify_lifting(P, M)
        report["lifting"] = lifting.ok
        if not lifting.ok:
            report["lifting_witness"] = list(lifting.witness)
            ok = False

    if phi is not None:
        _require_bounded(P)
        fp = fixed_point_report(P, M, phi)
        report["fixed_point"] = fp
        if not fp["special"]:
            ok = False

    _emit_json(report, args.output)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_sweep(args) -> int:
    manifest = _load_json(args.manifest)
    try:
        report = run_sweep(manifest, jobs=args.jobs, cap_matchings=args.cap_matchings)
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
    count = passed = 0
    witnesses = []
    for order, side in enumerate(("right", "left")):
        for k, s in enumerate(W.generators):
            descents, failures = _descent_failures(W, k, side)
            count += descents.bit_count()
            passed |= descents & ~sum(1 << w for w in failures)
            witnesses += [(w, order, k, [W.elements[w].label, s, side, message])
                          for w, message in failures.items()]
    witnesses.sort()  # by (w, right before left, generator), each key once
    # a passing descent matching is a special matching of its ideal; e is
    # element 0 and the only minimal one
    zircon = passed == (1 << len(W)) - 2 or is_zircon(W.bruhat_poset())
    report = {
        "type": W.type_spec,
        "cardinality": len(W),
        "zircon": zircon,
        "descent_matchings_checked": count,
        "all_descent_matchings_special": not witnesses,
        "witnesses": [witness[3] for witness in witnesses],
    }
    _emit_json(report, args.output)
    return EXIT_OK if zircon and not witnesses else EXIT_VIOLATION


def _coxeter_twisted(W, args) -> int:
    theta = theta_from_spec(W, args.theta)
    tm = twisted_map(W, theta)
    fixed = fixed_point_subposet(W.bruhat_poset(), tm)
    labels = [el.label for el in twisted_involutions(W, theta)]
    equal = labels == list(fixed.elements)  # both in element order
    zircon = is_zircon(fixed)
    witness = _sphericity_witness(fixed)
    sphericity = witness is None
    report = {
        "type": W.type_spec,
        "theta": theta.generator_map,
        "cardinality": len(fixed),
        "equals_fixed_point_subposet": equal,
        "zircon": zircon,
        "sphericity": sphericity,
        "witness": witness,
        "elements": list(fixed.elements),
    }
    _emit_json(report, args.output)
    return EXIT_OK if equal and zircon and sphericity else EXIT_VIOLATION


def _coxeter_fix_check(W, args) -> int:
    theta = theta_from_spec(W, args.theta)
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
    # a CoxeterError is malformed input: main reports it and exits 2
    return args.handler(build_coxeter(args.type_spec), args)


def cmd_dot(args) -> int:
    P = poset_from_dict(_load_json(args.poset))
    _emit(poset_to_dot(P), args.output)
    return EXIT_OK


def cmd_mobius(args) -> int:
    P = poset_from_dict(_load_json(args.poset))
    _emit(str(mobius(P, args.x, args.y)), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="PATH", default=None,
                        help="write the artifact here instead of stdout")

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
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes, at most one per core and case (default: all cores)")
    p.add_argument("--cap-matchings", type=int, default=DEFAULT_MATCHING_LIMIT,
                   metavar="K", help="abort enumeration beyond K matchings")
    p.set_defaults(func=cmd_sweep)

    # --output sits on each action only: on the coxeter parser as well, the
    # action's default would reset an --output given before the action
    p = sub.add_parser("coxeter", help="Bruhat-order workflows for Coxeter presets")
    p.add_argument("type_spec", help="A3, B3, D4, or I2:7")
    p.set_defaults(func=cmd_coxeter)
    actions = p.add_subparsers(dest="action", required=True)
    theta = argparse.ArgumentParser(add_help=False)
    theta.add_argument("theta", nargs="?", default="id",
                       help='diagram automorphism: "id", "flip", or "s1:s3,s3:s1"')

    a = actions.add_parser("export", parents=[common])
    a.add_argument("--format", choices=["json", "dot"], default="json")
    a.set_defaults(handler=_coxeter_export)
    a = actions.add_parser("zircon-check", parents=[common])
    a.set_defaults(handler=_coxeter_zircon_check)
    a = actions.add_parser("twisted", parents=[common, theta])
    a.set_defaults(handler=_coxeter_twisted)
    a = actions.add_parser("fix-check", parents=[common, theta])
    a.add_argument("--against", required=True, metavar="TYPE",
                   help="candidate type for fix-check isomorphism")
    a.set_defaults(handler=_coxeter_fix_check)

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
    # argparse exits 2 on malformed arguments and 0 after --help or --version
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except (InputError, PosetError, MatchingError, BoundednessError, ManifestError, CoxeterError,
            SearchLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConstructionError, ExtremaError) as exc:
        print(f"internal contradiction: {exc}", file=sys.stderr)
        return EXIT_PANIC


if __name__ == "__main__":
    sys.exit(main())
