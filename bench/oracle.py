"""Response checks against answers known from how each input was built.

Nothing here imports the package under test: every expected value comes
from the generator's own construction (genus of a connected sum, sign of an
orientation reversal, generator counts of a word, the script's own surface
bookkeeping), so a wrong program answer cannot also be the oracle's answer.
"""

from __future__ import annotations

import hashlib
import json


def check(expect: dict, exit_code: int, report: str) -> str | None:
    """None when the response is right, else a one-line reason."""
    want_exit = expect.get("exit", 0)
    if exit_code != want_exit:
        return f"exit code {exit_code}, expected {want_exit}"
    if expect["check"] == "exit":
        return None
    try:
        doc = json.loads(report)
    except json.JSONDecodeError:
        return "report is not JSON"
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        return "report lacks schema 1"
    try:
        return _CHECKS[expect["check"]](expect, doc)
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def _fields(doc, expect, names):
    for name in names:
        if doc.get(name) != expect[name]:
            return f"{name} = {doc.get(name)!r}, expected {expect[name]!r}"
    return None


def _homology(expect, doc):
    return _fields(doc, expect, ("coefficients", "betti", "torsion"))


def _invariants(expect, doc):
    if doc.get("closed") is not True:
        return "closed manifold reported as not closed"
    if doc.get("kervaire_semicharacteristic") != expect["kervaire"]:
        return (f"kervaire_semicharacteristic = {doc.get('kervaire_semicharacteristic')!r},"
                f" expected {expect['kervaire']!r}")
    names = ("dim", "chi") + (("sigma",) if "sigma" in expect else ())
    if "sigma" not in expect and "sigma" in doc:
        return "signature reported outside dimension 4"
    return _fields(doc, expect, names)


def _skk_class(expect, doc):
    return _fields(doc, expect, ("dim", "value"))


def _component_key(c):
    return json.dumps(c, sort_keys=True)


def _normal_form(expect, doc):
    bad = _fields(doc, expect, ("in_arity", "out_arity"))
    if bad:
        return bad
    comps = doc.get("components")
    if not isinstance(comps, list):
        return "components missing"
    got = sorted(_component_key(c) for c in comps)
    want = sorted(_component_key(c) for c in expect["components"])
    if got != want:
        return f"components {got}, expected {want}"
    if "chi" in expect:
        chi = sum(2 - 2 * c["genus"] - len(c["in"]) - len(c["out"]) for c in comps)
        if chi != expect["chi"]:
            return f"components have chi {chi}, generator count gives {expect['chi']}"
    return None


def _eval(expect, doc):
    if doc.get("value") != expect["value"]:
        return f"value {doc.get('value')!r}, expected {expect['value']!r}"
    return None


def _verify(expect, doc):
    passed = [c.get("passed") for c in doc.get("checks", [])]
    if passed != expect["passed"]:
        return f"checks passed {passed}, expected {expect['passed']}"
    return None


def _cutpaste(expect, doc):
    trace = [[step.get("chi"), step.get("components")] for step in doc.get("trace", [])]
    if len(trace) != expect["steps"]:
        return f"trace has {len(trace)} steps, expected {expect['steps']}"
    if trace[-1] != expect["final"]:
        return f"final surface {trace[-1]}, expected {expect['final']}"
    if trace_digest(trace) != expect["digest"]:
        return "trace differs from the script's own bookkeeping"
    return None


def trace_digest(trace) -> str:
    """SHA-256 of a cut/paste trace as [[chi, sorted [genus, circles] pairs], ...]."""
    return hashlib.sha256(json.dumps(trace, separators=(",", ":")).encode()).hexdigest()


def _demo(expect, doc):
    if doc.get("values") != expect["values"]:
        return f"values {doc.get('values')!r}, expected {expect['values']!r}"
    return None


_CHECKS = {
    "homology": _homology,
    "invariants": _invariants,
    "skk_class": _skk_class,
    "normal_form": _normal_form,
    "eval": _eval,
    "verify": _verify,
    "cutpaste": _cutpaste,
    "demo": _demo,
}
