"""Command-line driver.

Subcommands cover the whole pipeline: validate a groupoid file, check the
Cartan hypotheses, build the Weyl groupoid and its twist, run the
expectation and algebra checks, verify the action axioms, build the twisted
product, run the reconstruction round trip, and generate corpus files.

Exit codes: 0 success/PASS, 1 mathematical failure (with witness), 2
usage or schema error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus
from .algebra import (
    commutant_check,
    compare_algebras,
    expectation_checks,
    wedderburn_blocks,
)
from .cocycle import check_cocycle
from .errors import NontrivialCocycle, SchemaError, WeylkitError
from .groupoid import Grading
from .io import emit_groupoid_data, load_groupoid, save_groupoid
from .reconstruct import (
    build_boxtimes,
    derive_weyl_actions,
    diamond_action,
    induced_grading_on_H,
    reconstruction_iso,
    theta_for_package,
    verify_action_package,
    verify_reconstruction_hypotheses,
)
from .weyl import (
    build_weyl_groupoid,
    check_gamma_cartan_hypotheses,
    iso_kernel_members,
    weyl_twist_cocycle,
)

PASS, FAIL, USAGE = 0, 1, 2


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        for key, val in report.items():
            print(f"{key}: {val}")


def _pick_subgroupoid(gf, mode):
    if mode == "marked":
        if gf.marked is None:
            raise SchemaError("--subgroupoid marked, but the file has no marked_subgroupoid")
        return gf.marked
    if gf.marked is not None:
        return gf.marked
    if gf.c is None:
        raise SchemaError("no marked subgroupoid and no grading to derive one from")
    return iso_kernel_members(gf.G, gf.c)


def _grading(gf):
    if gf.c is not None:
        return gf.c
    return Grading(group=(1,), values={g: (0,) for g in gf.G.arrows})


def _load_section(args):
    if getattr(args, "section", "lex") == "lex":
        return None
    try:
        with open(args.section_file) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError, TypeError) as exc:
        raise SchemaError(f"cannot read section file: {exc}") from exc
    if not isinstance(raw, dict) or not all(isinstance(v, str) for v in raw.values()):
        raise SchemaError("section file must map class ids to arrow ids")
    return raw


def cmd_validate(args):
    gf = load_groupoid(args.file)
    violations = check_cocycle(gf.G, gf.omega)
    report = {
        "name": gf.name,
        "arrows": len(gf.G),
        "units": len(gf.G.units),
        "cocycle_valid": not violations,
        "violations": violations[:5],
    }
    _emit(report, args.format)
    return PASS if not violations else FAIL


def cmd_hypotheses(args):
    gf = load_groupoid(args.file)
    S = _pick_subgroupoid(gf, args.subgroupoid)
    report = check_gamma_cartan_hypotheses(gf.G, gf.omega, _grading(gf), S)
    _emit(report.as_dict(), args.format)
    return PASS if report.all_pass() else FAIL


def cmd_weyl(args):
    gf = load_groupoid(args.file)
    S = _pick_subgroupoid(gf, args.subgroupoid)
    GW, _ = build_weyl_groupoid(gf.G, S, gf.omega, section=_load_section(args))
    out = emit_groupoid_data(GW, name=GW.name, marked=sorted(GW.units))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _emit({"written": args.output, "arrows": len(GW)}, args.format)
    else:
        _emit(out, "json")
    return PASS


def cmd_twist(args):
    gf = load_groupoid(args.file)
    S = _pick_subgroupoid(gf, args.subgroupoid)
    GW, data = build_weyl_groupoid(gf.G, S, gf.omega, section=_load_section(args))
    C = weyl_twist_cocycle(GW, data)
    violations = check_cocycle(GW, C)
    report = {
        "weyl_arrows": len(GW),
        "twist_entries": len(C.values),
        "twist_is_cocycle": not violations,
        "violations": violations[:5],
    }
    if args.output:
        save_groupoid(args.output, GW, omega=C, name=GW.name)
        report["written"] = args.output
    _emit(report, args.format)
    return PASS if not violations else FAIL


def cmd_expectation(args):
    gf = load_groupoid(args.file)
    S = _pick_subgroupoid(gf, args.subgroupoid)
    report = expectation_checks(gf.G, gf.omega, S, trials=args.trials, seed=args.seed)
    _emit(report.as_dict(), args.format)
    return PASS if report.all_pass() else FAIL


def cmd_actions(args):
    gf = load_groupoid(args.file)
    S = _pick_subgroupoid(gf, args.subgroupoid)
    pkg = derive_weyl_actions(gf.G, S, gf.omega)
    report = verify_action_package(pkg)
    _emit(report.as_dict(), args.format)
    return PASS if report.all_pass() else FAIL


def cmd_boxtimes(args):
    gf = load_groupoid(args.file)
    S = _pick_subgroupoid(gf, args.subgroupoid)
    pkg = derive_weyl_actions(gf.G, S, gf.omega)
    dia = diamond_action(pkg)
    theta = theta_for_package(pkg, dia, _load_section(args))
    B = build_boxtimes(dia, theta)
    report = {"arrows": len(B), "units": len(B.units), "name": B.name}
    if args.output:
        save_groupoid(args.output, B, name=B.name)
        report["written"] = args.output
    _emit(report, args.format)
    return PASS


def cmd_roundtrip(args):
    gf = load_groupoid(args.file)
    S = _pick_subgroupoid(gf, args.subgroupoid)
    if not gf.omega.is_trivial():
        raise NontrivialCocycle("reconstruction requires a trivial 2-cocycle")
    rec = reconstruction_iso(gf.G, S, gf.c, section=_load_section(args))
    pkg = rec.dia.pkg
    c_tilde = induced_grading_on_H(pkg, _grading(gf))
    hyp = verify_reconstruction_hypotheses(rec.dia, rec.theta, c_tilde, roundtrip=True)
    report = {
        "verdict": "PASS",
        "sizes": rec.sizes,
        "grading_checked": rec.grading_checked,
        "sufficient_hypotheses": hyp.all_pass(),
        "hypothesis_witnesses": {k: str(v) for k, v in hyp.witnesses.items()},
        "roundtrip_succeeded": hyp.roundtrip_succeeded,
        "note": hyp.note,
    }
    _emit(report, args.format)
    return PASS


def cmd_algebra(args):
    gf = load_groupoid(args.file)
    report = {"seed": args.seed, "tol": args.tol}
    blocks, zdim = wedderburn_blocks(gf.G, gf.omega, seed=args.seed, tol=args.tol)
    report.update({"dimension": len(gf.G), "center_dim": zdim, "blocks": blocks})
    code = PASS
    if gf.c is not None and gf.marked is not None:
        comm = commutant_check(gf.G, gf.omega, gf.c, gf.marked)
        report["commutant"] = comm.as_dict()
        if not comm.maximal_abelian:
            code = FAIL
    if args.compare:
        other = load_groupoid(args.compare)
        cmp_report = compare_algebras(
            gf.G, gf.omega, other.G, other.omega, seed=args.seed, tol=args.tol
        )
        report["compare"] = cmp_report.as_dict()
        if not cmp_report.passed:
            code = FAIL
    _emit(report, args.format)
    return code


def cmd_gen(args):
    name = args.name
    if name == "rotation":
        if len(args.params) != 2:
            raise SchemaError("gen rotation needs two integers: n p")
        entry = corpus.rotation(int(args.params[0]), int(args.params[1]))
    elif name == "pair":
        if len(args.params) != 1:
            raise SchemaError("gen pair needs one integer: n")
        entry = corpus.pair_groupoid(int(args.params[0]))
    else:
        try:
            entry = corpus.by_name(name)
        except KeyError as exc:
            raise SchemaError(
                f"unknown corpus name {name!r}; choose from "
                f"{sorted(corpus.BUILDERS)} or rotation/pair"
            ) from exc
    path = args.output or f"{entry.name.replace('(', '_').replace(',', '_').replace(')', '')}.json"
    save_groupoid(path, entry.G, omega=entry.omega, c=entry.c, marked=entry.S, name=entry.name)
    _emit({"written": path, "arrows": len(entry.G)}, args.format)
    return PASS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weylkit",
        description="Finite groupoid Cartan-pair toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=False):
        p.add_argument("--format", choices=["json", "text"], default="text")
        p.add_argument("--subgroupoid", choices=["auto", "marked"], default="auto")
        p.add_argument("--section", choices=["lex", "file"], default="lex")
        p.add_argument("--section-file", help="JSON file mapping class ids to arrow ids")
        if output:
            p.add_argument("-o", "--output", help="write the result groupoid file here")

    p = sub.add_parser("validate", help="validate a groupoid file and its cocycle")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("hypotheses", help="check the Cartan-pair hypotheses")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_hypotheses)

    p = sub.add_parser("weyl", help="build the Weyl groupoid")
    p.add_argument("file")
    common(p, output=True)
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("twist", help="build and check the Weyl twist cocycle")
    p.add_argument("file")
    common(p, output=True)
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("expectation", help="random-trial expectation checks")
    p.add_argument("file")
    common(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_expectation)

    p = sub.add_parser("actions", help="verify the unit-bundle action axioms on the Weyl groupoid")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_actions)

    p = sub.add_parser("boxtimes", help="build the twisted product groupoid")
    p.add_argument("file")
    common(p, output=True)
    p.set_defaults(func=cmd_boxtimes)

    p = sub.add_parser("roundtrip", help="full reconstruction round trip")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("algebra", help="Wedderburn blocks, commutant and comparisons")
    p.add_argument("file")
    common(p)
    p.add_argument("--compare", help="second groupoid file to compare against")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("gen", help="generate a corpus groupoid file")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    common(p, output=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        if "WEYLKIT_SEED" in os.environ and hasattr(args, "seed"):
            try:
                args.seed = int(os.environ["WEYLKIT_SEED"])
            except ValueError as exc:
                raise SchemaError(f"WEYLKIT_SEED must be an integer: {exc}") from exc
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return USAGE
    except WeylkitError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
