"""Command-line interface.

Exit codes: 0 success, 1 a verification found a violation, 2 the input is at
fault: a usage error, or an `skkinv.InputError`, reported as "error: ...".
Any other exception is a bug in skkinv and ends in a traceback.
Scalars print exactly, as rationals or exp(p/q) strings; machine-readable
reports carry a schema version and are emitted with --json.
Each layer is imported by the first request that needs it: importing this
module loads none, and a request pays only for the layers its command uses.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from collections import namedtuple

from . import InputError

SCHEMA = 1

_SURFACE_TERM = re.compile(r"g(\d+)b(\d+)")

# Bound on the boundary circles of a surface expression, summed over its
# terms. Every circle gets its own identifier, so an unbounded count lets 16
# bytes such as g0b1000000000000 ask for terabytes. 2^17, like
# `simplicial.MAX_CLOSURE`; the benchmark's start surfaces have at most 15.
MAX_SURFACE_CIRCLES = 1 << 17

# Bound on the terms of a surface expression, counted before any is parsed.
# Each term becomes a component, so without it a 3.5 MB expression of
# 500,000 spheres was parsed and built (2.7 s, 170 MB) before the trace bound
# refused it. 2^17 terms, the most spheres a cut/paste trace admits.
MAX_SURFACE_COMPONENTS = 1 << 17

# Bound on a cut/paste trace: the components and boundary circles of the
# start surface and of the surface after every move, summed, with a
# component weighing TRACE_COMPONENT_WEIGHT circles. The work and the report
# grow with this sum, quadratically in the script length when moves add
# components. With --json a component entry costs 1-1.8 us (it is sorted and
# printed) and a circle at most 0.17 us (walked by a cut of its component).
# The bound admits 2^17 components or 2^21 circles; the costliest traces
# measured there answer in 0.1-0.3 s, and a start of 2^17 spheres, whose
# parsing costs the most, in 0.75 s (shared 2-vCPU VM, Python 3.11). The
# benchmark's largest trace sums 5828 components and circles.
TRACE_COMPONENT_WEIGHT = 16
MAX_TRACE_WEIGHT = 1 << 21


CommandResult = namedtuple("CommandResult", "exit_code report json_report", defaults=(None,))


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc)) from exc


def fraction(text: str):
    """Argument type for exact rationals (`Fraction`): a bad one is a usage error."""
    from .rationals import parse_rational
    try:
        return parse_rational(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def surface_expr(text: str):
    """Argument type for `surfaces.Surface`: g<genus>b<boundary> terms joined by '+'."""
    if text.count("+") + 1 > MAX_SURFACE_COMPONENTS:
        raise argparse.ArgumentTypeError(
            f"a surface expression may have at most {MAX_SURFACE_COMPONENTS} terms")
    comps = []
    for term in text.split("+"):
        match = _SURFACE_TERM.fullmatch(term.strip().lower())
        if match is None:
            raise argparse.ArgumentTypeError(
                f"bad surface term {term.strip()!r}; expected like g1b0")
        comps.append((int(match[1]), int(match[2])))
    if sum(b for _, b in comps) > MAX_SURFACE_CIRCLES:
        raise argparse.ArgumentTypeError(
            f"a surface expression may have at most {MAX_SURFACE_CIRCLES} boundary circles")
    from .surfaces import surface
    return surface(*comps)


def _scalar_pair(args):
    from .tqft import InvertibleTQFT2, exp_scalar, rational
    has_rat = args.cap is not None or args.cup is not None
    has_exp = args.cap_exp is not None or args.cup_exp is not None
    if has_rat and has_exp:
        raise InputError("do not mix --cap/--cup with --cap-exp/--cup-exp")
    if has_rat:
        if args.cap is None or args.cup is None:
            raise InputError("--cap and --cup must be given together")
        if 0 in (args.cap, args.cup):
            raise InputError("--cap and --cup must be nonzero")
        return InvertibleTQFT2(rational(args.cap), rational(args.cup))
    if has_exp:
        if args.cap_exp is None or args.cup_exp is None:
            raise InputError("--cap-exp and --cup-exp must be given together")
        return InvertibleTQFT2(exp_scalar(args.cap_exp), exp_scalar(args.cup_exp))
    raise InputError("give --cap/--cup or --cap-exp/--cup-exp")


def _checks_result(report, command: str, **fields) -> CommandResult:
    """Result of a verification command: its checks, exit 1 if any failed."""
    doc = {"schema": SCHEMA, "command": command, **fields,
           "checks": [{"name": c.name, "passed": c.passed, "witness": c.witness}
                      for c in report.checks]}
    return CommandResult(0 if report.all_passed else 1, report.summary(), doc)


def _cmd_homology(args) -> CommandResult:
    from .simplicial import complex_from_json, homology
    K = complex_from_json(_read(args.file))
    profile = homology(K, args.coefficients)
    lines = [f"dim {K.dim}, {len(K.facets)} facets"]
    lines.append(f"betti ({args.coefficients}): {list(profile.betti)}")
    if args.coefficients == "integers":
        lines.append(f"torsion: {[list(t) for t in profile.torsion]}")
    doc = {
        "schema": SCHEMA,
        "command": "homology",
        "dim": K.dim,
        "coefficients": args.coefficients,
        "betti": list(profile.betti),
        "torsion": [list(t) for t in profile.torsion],
    }
    return CommandResult(0, "\n".join(lines), doc)


def _cmd_invariants(args) -> CommandResult:
    from .simplicial import (OddEulerCharacteristic, complex_from_json, euler_characteristic,
                             kervaire_semicharacteristic, validate_closed)
    K = complex_from_json(_read(args.file))
    chi = euler_characteristic(K)
    closed = validate_closed(K)
    lines = [f"dim {K.dim}", f"chi = {chi}", f"closed = {closed}"]
    doc = {"schema": SCHEMA, "command": "invariants", "dim": K.dim,
           "chi": chi, "closed": closed}
    if closed:
        try:
            semi = kervaire_semicharacteristic(K)
            lines.append(f"kervaire_semicharacteristic = {semi}"
                         + (" (mod 2)" if K.dim % 2 else ""))
            doc["kervaire_semicharacteristic"] = semi
        except OddEulerCharacteristic:
            lines.append("kervaire_semicharacteristic undefined (odd chi)")
            doc["kervaire_semicharacteristic"] = None
        if K.dim == 4:
            from .intersection_form import signature
            sigma = signature(K)
            lines.append(f"sigma = {sigma}")
            doc["sigma"] = sigma
    return CommandResult(0, "\n".join(lines), doc)


def _cmd_cutpaste(args) -> CommandResult:
    from . import surfaces as sf
    moves = sf.parse_script(_read(args.script))
    trace, weight = [], 0
    # the start surface, then the surface after each move
    for chi, shape in sf.trace_script(args.start, moves):
        weight += TRACE_COMPONENT_WEIGHT * len(shape) + sum(b for _, b in shape)
        if weight > MAX_TRACE_WEIGHT:
            raise InputError(f"a cut/paste trace may weigh at most {MAX_TRACE_WEIGHT} in all,"
                             f" {TRACE_COMPONENT_WEIGHT} per component and 1 per boundary"
                             f" circle; this script passes it after {len(trace)} of its"
                             f" {len(moves)} moves")
        trace.append((chi, shape))
    if args.json:
        doc = {"schema": SCHEMA, "command": "cutpaste",
               "trace": [{"chi": c, "components": [list(x) for x in shape]}
                         for c, shape in trace]}
        return CommandResult(0, "", doc)
    lines = [f"start: {trace[0][1]} chi {trace[0][0]}"]
    for i, (chi, shape) in enumerate(trace[1:], start=1):
        lines.append(f"after move {i}: {shape} chi {chi}")
    return CommandResult(0, "\n".join(lines))


def _cmd_cob_normal_form(args) -> CommandResult:
    from .cobordism import normal_form, parse_word
    w = parse_word(args.word, dim=args.dim)
    nf = normal_form(w)
    lines = [f"word: {w.text()} ({w.in_arity} -> {w.out_arity})"]
    comps = []
    for c in nf.components:
        if nf.dim == 2:
            desc = f"genus {c.genus}, in {list(c.in_positions)}, out {list(c.out_positions)}"
        else:
            kind = "circle" if c.is_closed else "arc"
            desc = f"{kind}, in {list(c.in_positions)}, out {list(c.out_positions)}"
        lines.append("component: " + desc)
        comps.append({"genus": c.genus, "in": list(c.in_positions),
                      "out": list(c.out_positions)})
    doc = {"schema": SCHEMA, "command": "cob normal-form",
           "in_arity": nf.in_arity, "out_arity": nf.out_arity, "components": comps}
    return CommandResult(0, "\n".join(lines), doc)


def _cmd_cob_eval(args) -> CommandResult:
    from .cobordism import parse_word
    from .tqft import evaluate
    T = _scalar_pair(args)
    w = parse_word(args.word, dim=2)
    value = evaluate(T, w)
    doc = {"schema": SCHEMA, "command": "cob eval", "word": w.text(),
           "value": str(value)}
    return CommandResult(0, str(value), doc)


def _cmd_tqft_verify(args) -> CommandResult:
    from .tqft import corrupted_tqft, verify_axioms
    T = _scalar_pair(args)
    if args.corrupt:
        T = corrupted_tqft(T)
    report = verify_axioms(T, seed=args.seed, budget=args.budget)
    return _checks_result(report, "tqft verify", seed=args.seed, budget=args.budget,
                          corrupt=bool(args.corrupt))


def _cmd_skk_class(args) -> CommandResult:
    from . import skk
    from .simplicial import complex_from_json
    if args.surface is not None and args.file is not None:
        raise InputError("give a complex file or --surface, not both")
    if args.surface is not None:
        M = args.surface
        dim = 2
    else:
        if args.file is None:
            raise InputError("give a complex file or --surface")
        M = complex_from_json(_read(args.file))
        dim = M.dim
    value = skk.skk_class(M)
    text = f"dim {dim} class: {value}"
    doc = {"schema": SCHEMA, "command": "skk class", "dim": dim,
           "value": list(value) if isinstance(value, tuple) else value}
    return CommandResult(0, text, doc)


def _cmd_skk_verify_sequence(args) -> CommandResult:
    from . import skk
    grid = skk.default_grid(args.grid)
    splitting = skk.corrupted_splitting if args.corrupt_splitting else skk.splitting_S
    report = skk.verify_split_sequence(grid=grid, seed=args.seed, splitting=splitting)
    return _checks_result(report, "skk verify-sequence", seed=args.seed,
                          grid_half_width=args.grid,
                          corrupt_splitting=bool(args.corrupt_splitting))


def _cmd_skk_demo_bsigma(args) -> CommandResult:
    from . import skk, virtual_bordism as vb
    catalog = vb.catalog_from_json(_read(args.catalog)) if args.catalog else vb.dim8_catalog()
    disk_value, cp_value = skk.b_sigma_dependence_demo(catalog)
    text = (f"capping choice D8 => {disk_value}; "
            f"capping choice CP4_minus_D8 => {cp_value}")
    doc = {"schema": SCHEMA, "command": "skk demo-bsigma",
           "values": {"D8": str(disk_value), "CP4_minus_D8": str(cp_value)}}
    return CommandResult(0, text, doc)


def _cmd_selftest(args) -> CommandResult:
    from .selftest import run_selftest
    report = run_selftest(seed=args.seed)
    return _checks_result(report, "selftest", seed=args.seed)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first request.

    `parse_args` leaves it unchanged and no argument has a mutable default,
    so every request can reuse it.
    """
    parser = argparse.ArgumentParser(
        prog="skkinv",
        description="Exact cut-and-paste, cobordism, and invertible-TQFT checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    scalars = argparse.ArgumentParser(add_help=False)
    scalars.add_argument("--cap", type=fraction)
    scalars.add_argument("--cup", type=fraction)
    scalars.add_argument("--cap-exp", dest="cap_exp", type=fraction)
    scalars.add_argument("--cup-exp", dest="cup_exp", type=fraction)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", parents=[common],
                       help="Betti numbers and torsion of a complex file")
    p.add_argument("file")
    p.add_argument("--coefficients", choices=("integers", "rationals", "mod2"),
                   default="integers")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("invariants", parents=[common],
                       help="chi, semicharacteristic, and sigma (dim 4)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("cutpaste", parents=[common],
                       help="run a cut/paste script on a surface")
    p.add_argument("script")
    p.add_argument("--start", required=True, type=surface_expr,
                   help="surface expression, e.g. 'g1b0 + g0b3'")
    p.set_defaults(func=_cmd_cutpaste)

    cob = sub.add_parser("cob", help="cobordism word operations")
    cob_sub = cob.add_subparsers(dest="cob_command", required=True)
    p = cob_sub.add_parser("normal-form", parents=[common],
                           help="classify a word's components")
    p.add_argument("word")
    p.add_argument("--dim", type=int, choices=(1, 2), default=2)
    p.set_defaults(func=_cmd_cob_normal_form)
    p = cob_sub.add_parser("eval", parents=[common, scalars],
                           help="evaluate a TQFT on a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_cob_eval)

    tq = sub.add_parser("tqft", help="TQFT verification")
    tq_sub = tq.add_subparsers(dest="tqft_command", required=True)
    p = tq_sub.add_parser("verify", parents=[common, scalars],
                          help="check the functor laws on random words")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--corrupt", action="store_true",
                   help="use the corrupted negative control")
    p.set_defaults(func=_cmd_tqft_verify)

    sk = sub.add_parser("skk", help="class computations and sequence checks")
    sk_sub = sk.add_subparsers(dest="skk_command", required=True)
    p = sk_sub.add_parser("class", parents=[common],
                          help="class of a complex file or surface expression")
    p.add_argument("file", nargs="?")
    p.add_argument("--surface", type=surface_expr, help="surface expression, e.g. 'g2b0'")
    p.set_defaults(func=_cmd_skk_class)
    p = sk_sub.add_parser("verify-sequence", parents=[common],
                          help="split exact sequence checks")
    p.add_argument("--grid", type=int, default=4, help="exponent half-width")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt-splitting", action="store_true", dest="corrupt_splitting")
    p.set_defaults(func=_cmd_skk_verify_sequence)
    p = sk_sub.add_parser("demo-bsigma", parents=[common],
                          help="capping-choice dependence demo")
    p.add_argument("--catalog")
    p.set_defaults(func=_cmd_skk_demo_bsigma)

    p = sub.add_parser("selftest", parents=[common], help="run every property suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv) -> CommandResult:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CommandResult(2 if exc.code else 0, "")
    try:
        result = args.func(args)
    except InputError as exc:
        return CommandResult(2, f"error: {exc}")
    if args.json and result.json_report is not None:
        return CommandResult(result.exit_code,
                             json.dumps(result.json_report, separators=(",", ":"),
                                        sort_keys=True),
                             result.json_report)
    return result


def main() -> None:
    result = run(sys.argv[1:])
    if result.report:
        print(result.report)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
