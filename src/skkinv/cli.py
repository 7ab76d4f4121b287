"""Command-line interface.

`COMMANDS` states every command: its positionals, its options and its
handler. `run` reads argv against it in one pass; --help at any level prints
what the table says. Exit codes: 0 success, 1 a verification found a
violation, 2 the input is at fault: a usage error (message on standard
error, empty report), or an `skkinv.InputError`, reported as "error: ...".
Any other exception is a bug in skkinv and ends in a traceback.
Scalars print exactly, as rationals or exp(p/q) strings; machine-readable
reports carry a schema version and are emitted with --json.
Each layer is imported by the first request that needs it: importing this
module loads none, and a request pays only for the layers its command uses.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from types import SimpleNamespace

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
    """Option type for exact rationals (`Fraction`)."""
    from .rationals import parse_rational
    return parse_rational(text)


def surface_expr(text: str):
    """Option type for `surfaces.Surface`: g<genus>b<boundary> terms joined by '+'."""
    if text.count("+") + 1 > MAX_SURFACE_COMPONENTS:
        raise InputError(f"a surface expression may have at most {MAX_SURFACE_COMPONENTS} terms")
    comps = []
    for term in text.split("+"):
        match = _SURFACE_TERM.fullmatch(term.strip().lower())
        if match is None:
            raise InputError(f"bad surface term {term.strip()!r}; expected like g1b0")
        comps.append((int(match[1]), int(match[2])))
    if sum(b for _, b in comps) > MAX_SURFACE_CIRCLES:
        raise InputError(
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
    if args.surface is None and args.file is None:
        raise InputError("give a complex file or --surface")
    M = args.surface if args.file is None else complex_from_json(_read(args.file))
    dim = 2 if args.file is None else M.dim
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


# An option's attribute is its name without "--", "-" read as "_". Its value
# is read by `type`, which raises ValueError on a bad one, and must then be one
# of `choices` if given. Type None makes a flag; default ... makes it required.
Option = namedtuple("Option", "type default choices", defaults=(None,))
_FLAG = Option(None, False)
_COMMON = {"--json": _FLAG}
_SCALARS = dict.fromkeys(("--cap", "--cup", "--cap-exp", "--cup-exp"), Option(fraction, None))
_SEED = {"--seed": Option(int, 0)}

# command -> (handler, help, positionals, options); every command also takes
# --json. A positional ending in "?" may be left out and is then None.
COMMANDS = {
    "homology": (_cmd_homology, "Betti numbers and torsion of a complex file", ("file",),
                 {"--coefficients": Option(str, "integers", ("integers", "rationals", "mod2"))}),
    "invariants": (_cmd_invariants, "chi, semicharacteristic, and sigma (dim 4)", ("file",), {}),
    "cutpaste": (_cmd_cutpaste, "run a cut/paste script on a surface such as 'g1b0 + g0b3'",
                 ("script",), {"--start": Option(surface_expr, ...)}),
    "cob normal-form": (_cmd_cob_normal_form, "classify a word's components", ("word",),
                        {"--dim": Option(int, 2, (1, 2))}),
    "cob eval": (_cmd_cob_eval, "evaluate a TQFT on a word", ("word",), _SCALARS),
    "tqft verify": (_cmd_tqft_verify, "check the functor laws on random words, or with"
                    " --corrupt on the corrupted negative control", (),
                    {**_SCALARS, **_SEED, "--budget": Option(int, 200), "--corrupt": _FLAG}),
    "skk class": (_cmd_skk_class, "class of a complex file or surface expression", ("file?",),
                  {"--surface": Option(surface_expr, None)}),
    "skk verify-sequence": (_cmd_skk_verify_sequence, "split exact sequence checks on"
                            " exponents up to --grid in absolute value", (),
                            {"--grid": Option(int, 4), **_SEED, "--corrupt-splitting": _FLAG}),
    "skk demo-bsigma": (_cmd_skk_demo_bsigma, "capping-choice dependence demo", (),
                        {"--catalog": Option(str, None)}),
    "selftest": (_cmd_selftest, "run every property suite", (), _SEED),
}
_GROUPS = {name.split()[0] for name in COMMANDS if " " in name}


class _Stop(Exception):
    """Ends a request before its command: (0, help) or (2, usage error)."""


def _help(prefix: str) -> str:
    """Usage and purpose of the commands whose words start with `prefix`."""
    lines = ["Exact cut-and-paste, cobordism, and invertible-TQFT checks."]
    for name, (_, text, positionals, options) in COMMANDS.items():
        if (name + " ").startswith(prefix):
            usage = [f"skkinv {name}"]
            for flag, o in {**_COMMON, **options}.items():
                meta = ("" if o.type is None else " {%s}" % ",".join(map(str, o.choices))
                        if o.choices else " " + o.type.__name__.upper())
                usage.append(flag + meta if o.default is ... else f"[{flag}{meta}]")
            usage += [f"[{p[:-1]}]" if p[-1] == "?" else p for p in positionals]
            lines += ["", " ".join(usage), "    " + text]
    return "\n".join(lines)


def _parse(argv: list):
    """The handler of a request and its arguments as a namespace; raises _Stop."""
    n = 2 if argv[:1] and argv[0] in _GROUPS else 1
    name = " ".join(argv[:n])
    if name not in COMMANDS:
        if argv[n - 1:n] in (["-h"], ["--help"]):
            raise _Stop(0, _help(" ".join(argv[:n - 1] + [""])))
        raise _Stop(2, f"skkinv: no command {name!r}; see skkinv --help")
    handler, _, positionals, options = COMMANDS[name]
    options = {**_COMMON, **options}
    values = {flag[2:].replace("-", "_"): o.default for flag, o in options.items()}
    values.update((p.rstrip("?"), None if p[-1] == "?" else ...) for p in positionals)
    words, given = iter(argv[n:]), 0
    for word in words:
        flag, eq, text = word.partition("=")
        option = options.get(flag)
        if word in ("-h", "--help"):
            raise _Stop(0, _help(name + " "))
        if word[:1] != "-" and given < len(positionals):
            values[positionals[given].rstrip("?")] = word
            given += 1
        elif option is None or (option.type is None and eq):
            raise _Stop(2, f"skkinv {name}: unrecognized argument {word!r}")
        elif option.type is None:
            values[flag[2:].replace("-", "_")] = True
        elif (text := text if eq else next(words, None)) is None:
            raise _Stop(2, f"skkinv {name}: {flag} expects a value")
        else:
            try:
                values[flag[2:].replace("-", "_")] = value = option.type(text)
            except ValueError as exc:
                raise _Stop(2, f"skkinv {name}: argument {flag}: {exc}") from None
            if option.choices and value not in option.choices:
                raise _Stop(2, f"skkinv {name}: argument {flag}: invalid choice {text!r}")
    missing = [key for key, value in values.items() if value is ...]
    if missing:
        raise _Stop(2, f"skkinv {name}: {missing[0]} is required; see skkinv {name} --help")
    return handler, SimpleNamespace(**values)


def run(argv) -> CommandResult:
    try:
        handler, args = _parse(list(argv))
    except _Stop as stop:
        print(stop.args[1], file=sys.stderr if stop.args[0] else sys.stdout)
        return CommandResult(stop.args[0], "")
    try:
        result = handler(args)
    except InputError as exc:
        return CommandResult(2, f"error: {exc}")
    if args.json and result.json_report is not None:
        return result._replace(report=json.dumps(result.json_report, separators=(",", ":"),
                                                 sort_keys=True))
    return result


def main() -> None:
    result = run(sys.argv[1:])
    if result.report:
        print(result.report)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
