"""Invertible two-dimensional TQFTs over an exact scalar group.

Scalars live in one of two exactly-represented groups: the nonzero
rationals, or signed exponentials sign * e**(p/q) with rational exponent.
The latter makes expressions of the form exp(integer invariant) exact and
accommodates the sign needed by TQFTs whose closed values are +-1.

An invertible 2d TQFT is determined by two scalars: the cap (birth disk)
value a and the cup (death disk) value e. The cylinder identities force
pants to a**-1 and copants to e**-1, so every closed connected word of
genus g evaluates to (a*e)**(1-g), and a closed word overall to
(a*e)**(chi/2). A property test pins down that any generator assignment
respecting equivalence of words is of this two-parameter form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import InputError
from .cobordism import (
    CobordismWord,
    WrongDimension,
    compose,
    equivalent_rewrite,
    identity_word,
    normal_form,
    parse_word,
    random_closed_word,
    random_word,
    random_word_with_arities,
    tensor,
)
from .rationals import fraction_text
from .surfaces import PasteSpec, chi as surface_chi, disjoint_union as surface_union, paste


class VariantMismatch(InputError):
    """Scalars from different scalar groups cannot be combined."""


class FractionalExponent(ValueError):
    """Requested root does not exist in the scalar group."""


class NotInKernel(ValueError):
    """TQFT does not evaluate closed words trivially."""


@dataclass(frozen=True)
class RationalScalar:
    """Element of the multiplicative group of nonzero rationals."""

    value: Fraction

    def __post_init__(self):
        if type(self.value) is not Fraction:
            object.__setattr__(self, "value", Fraction(self.value))
        if self.value == 0:
            raise ValueError("scalar must be nonzero")

    def one(self) -> "RationalScalar":
        return _RATIONAL_ONE

    @property
    def is_one(self) -> bool:
        return self.value == 1

    def inverse(self) -> "RationalScalar":
        return _rational_of(1 / self.value)

    def __mul__(self, other):
        if not isinstance(other, RationalScalar):
            raise VariantMismatch("rational scalar multiplied by a different variant")
        return _rational_of(self.value * other.value)

    def __pow__(self, k):
        if type(k) is not int:
            k = Fraction(k)
            if k.denominator != 1:
                if self.value == 1:
                    return self.one()
                raise FractionalExponent(f"no exact rational root {k} of {self.value}")
            k = int(k)
        return _rational_of(self.value ** k)

    def abs_value(self) -> "RationalScalar":
        return _rational_of(abs(self.value))

    def __str__(self):
        return fraction_text(self.value)


@dataclass(frozen=True)
class ExpScalar:
    """sign * e**(exponent), with exact rational exponent and sign in {+1, -1}."""

    exponent: Fraction
    sign: int = 1

    def __post_init__(self):
        if type(self.exponent) is not Fraction:
            object.__setattr__(self, "exponent", Fraction(self.exponent))
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def one(self) -> "ExpScalar":
        return _EXP_ONE

    @property
    def is_one(self) -> bool:
        return self.exponent == 0 and self.sign == 1

    def inverse(self) -> "ExpScalar":
        return _exp_of(-self.exponent, self.sign)

    def __mul__(self, other):
        if not isinstance(other, ExpScalar):
            raise VariantMismatch("exponential scalar multiplied by a different variant")
        return _exp_of(self.exponent + other.exponent, self.sign * other.sign)

    def __pow__(self, k):
        if type(k) is int:
            return _exp_of(self.exponent * k, -1 if self.sign == -1 and k % 2 else 1)
        k = Fraction(k)
        if self.sign == 1:
            return _exp_of(self.exponent * k, 1)
        if k.denominator % 2 == 1:
            sign = -1 if k.numerator % 2 else 1
            return _exp_of(self.exponent * k, sign)
        raise FractionalExponent("negative scalar has no real root of even order")

    def abs_value(self) -> "ExpScalar":
        return _exp_of(self.exponent, 1)

    def __str__(self):
        prefix = "-" if self.sign == -1 else ""
        if self.exponent == 0:
            return prefix + "1"
        return f"{prefix}exp({fraction_text(self.exponent)})"


# Products and powers of valid scalars are valid, so they skip __post_init__
# and its Fraction re-normalization.
def _rational_of(value: Fraction) -> RationalScalar:
    s = object.__new__(RationalScalar)
    object.__setattr__(s, "value", value)
    return s


def _exp_of(exponent: Fraction, sign: int) -> ExpScalar:
    s = object.__new__(ExpScalar)
    object.__setattr__(s, "exponent", exponent)
    object.__setattr__(s, "sign", sign)
    return s


_RATIONAL_ONE = RationalScalar(Fraction(1))
_EXP_ONE = ExpScalar(Fraction(0))


GroupScalar = RationalScalar | ExpScalar


def rational(value) -> RationalScalar:
    return RationalScalar(Fraction(value))


def exp_scalar(exponent, sign: int = 1) -> ExpScalar:
    return ExpScalar(Fraction(exponent), sign)


@dataclass(frozen=True)
class InvertibleTQFT2:
    """Two-parameter invertible 2d TQFT: cap value and cup value."""

    cap: GroupScalar
    cup: GroupScalar

    def __post_init__(self):
        if type(self.cap) is not type(self.cup):
            raise VariantMismatch("cap and cup scalars must share a variant")

    @property
    def variant(self) -> str:
        return "rational" if isinstance(self.cap, RationalScalar) else "exp"

    def one(self) -> GroupScalar:
        return self.cap.one()

    def generator_value(self, g: str) -> GroupScalar:
        if g == "cap":
            return self.cap
        if g == "cup":
            return self.cup
        if g == "pants":
            return self.cap.inverse()
        if g == "copants":
            return self.cup.inverse()
        if g in ("id", "swap"):
            return self.cap.one()
        raise WrongDimension(f"generator {g!r} is not a dimension-2 generator")

    def product(self, other: "InvertibleTQFT2") -> "InvertibleTQFT2":
        if type(self.cap) is not type(other.cap):
            raise VariantMismatch("cannot multiply TQFTs over different scalar groups")
        return InvertibleTQFT2(self.cap * other.cap, self.cup * other.cup)

    def inverse(self) -> "InvertibleTQFT2":
        return InvertibleTQFT2(self.cap.inverse(), self.cup.inverse())

    @property
    def is_trivial(self) -> bool:
        return self.cap.is_one and self.cup.is_one


def trivial_tqft(variant: str = "rational") -> InvertibleTQFT2:
    one = rational(1) if variant == "rational" else exp_scalar(0)
    return InvertibleTQFT2(one, one)


def evaluate(T, M: CobordismWord) -> GroupScalar:
    """Product of generator values over the word.

    Scalars commute, so each generator value is raised to its count.
    """
    if M.dim != 2:
        raise WrongDimension("2d TQFTs evaluate dimension-2 words")
    value = T.one()
    for g, n in M.generator_counts().items():
        value = value * T.generator_value(g) ** n
    return value


@dataclass(frozen=True)
class CorruptedTQFT2(InvertibleTQFT2):
    """Negative control: sends pants to the cap value instead of its inverse,
    so equivalent words with different pants counts disagree."""

    def generator_value(self, g: str) -> GroupScalar:
        if g == "pants":
            return self.cap
        return super().generator_value(g)


def corrupted_tqft(T: InvertibleTQFT2) -> CorruptedTQFT2:
    return CorruptedTQFT2(T.cap, T.cup)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class Report:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"[{status}] {c.name}"
            if c.witness:
                line += f": {c.witness}"
            lines.append(line)
        return "\n".join(lines)


# canonical equivalent pairs exercising the cylinder and disk relations
_CANONICAL_EQUIVALENT_PAIRS = (
    ("id", "cap | id ; pants"),
    ("id", "copants ; cup | id"),
    ("cap", "cap | cap ; pants"),
    ("cup", "copants ; cup | cup"),
    ("id | id", "swap ; swap"),
)


def verify_axioms(T, seed: int = 0, budget: int = 200) -> Report:
    """Check the functor laws on seeded random words.

    Covers equivalence-invariance (equal normal forms give equal values),
    functoriality under composition, the cylinder law, monoidality, and the
    empty-word law. Violations are reported with witnesses, not raised.
    """
    if budget < 0:
        raise InputError(f"word budget must be non-negative, got {budget}")
    rng = random.Random(seed)
    checks = []

    witness = None
    for left, right in _CANONICAL_EQUIVALENT_PAIRS:
        lw, rw = parse_word(left), parse_word(right)
        lv, rv = evaluate(T, lw), evaluate(T, rw)
        if lv != rv:
            witness = f"{left!r} -> {lv} but {right!r} -> {rv}"
            break
    if witness is None:
        for _ in range(budget):
            M = random_word(rng)
            R = M
            for _ in range(rng.randrange(1, 4)):
                R = equivalent_rewrite(rng, R)
            if normal_form(M) != normal_form(R):
                continue
            mv, rv = evaluate(T, M), evaluate(T, R)
            if mv != rv:
                witness = f"{M.text()!r} -> {mv} but rewrite {R.text()!r} -> {rv}"
                break
    checks.append(CheckResult("equivalence_invariance", witness is None, witness))

    witness = None
    for _ in range(budget):
        M = random_word(rng)
        N = random_word(rng, start_arity=M.out_arity)
        lhs = evaluate(T, compose(M, N))
        rhs = evaluate(T, M) * evaluate(T, N)
        if lhs != rhs:
            witness = f"compose({M.text()!r}, {N.text()!r}): {lhs} != {rhs}"
            break
    checks.append(CheckResult("functoriality", witness is None, witness))

    witness = None
    for arity in range(0, 5):
        w = identity_word(arity)
        v = evaluate(T, w)
        if not v.is_one:
            witness = f"identity word of arity {arity} -> {v}"
            break
    if witness is None:
        for text in ("cap | id ; pants", "copants ; cup | id"):
            v = evaluate(T, parse_word(text))
            if not v.is_one:
                witness = f"cylinder-equivalent word {text!r} -> {v}"
                break
    checks.append(CheckResult("cylinder_law", witness is None, witness))

    witness = None
    for _ in range(budget):
        M = random_word(rng)
        N = random_word(rng)
        lhs = evaluate(T, tensor(M, N))
        rhs = evaluate(T, M) * evaluate(T, N)
        if lhs != rhs:
            witness = f"tensor({M.text()!r}, {N.text()!r}): {lhs} != {rhs}"
            break
    checks.append(CheckResult("monoidality", witness is None, witness))

    v = evaluate(T, CobordismWord(2, ()))
    checks.append(CheckResult("empty_law", v.is_one, None if v.is_one else f"empty word -> {v}"))

    return Report(tuple(checks))


# -- Theta multiplicativity ----------------------------------------------------

def _witness_str(s: GroupScalar) -> str:
    """Explicit rendering for violation witnesses: exp(0) stays exp(0)."""
    if isinstance(s, ExpScalar):
        prefix = "-" if s.sign == -1 else ""
        return f"{prefix}exp({fraction_text(s.exponent)})"
    return str(s)


@dataclass(frozen=True)
class OneManifold:
    """Disjoint union of arcs and circles."""

    arcs: int
    circles: int

    def __post_init__(self):
        if self.arcs < 0 or self.circles < 0:
            raise ValueError("negative component counts")

    @property
    def chi(self) -> int:
        return self.arcs


def glue_one_manifolds(M: OneManifold, N: OneManifold, matching) -> OneManifold:
    """Glue along matched endpoint pairs ((arc, end) of M to (arc, end) of N).

    Arcs chain into paths or close into circles depending on the matching.
    """
    adj: dict[tuple[str, int], list[tuple[str, int]]] = {}
    used = set()
    for (ma, me), (na, ne) in matching:
        if not (0 <= ma < M.arcs and 0 <= na < N.arcs and me in (0, 1) and ne in (0, 1)):
            raise ValueError("matching references missing endpoints")
        for key in (("m", ma, me), ("n", na, ne)):
            if key in used:
                raise ValueError(f"endpoint {key} matched twice")
            used.add(key)
        adj.setdefault(("m", ma), []).append(("n", na))
        adj.setdefault(("n", na), []).append(("m", ma))

    nodes = [("m", i) for i in range(M.arcs)] + [("n", i) for i in range(N.arcs)]
    seen: set = set()
    arcs = 0
    circles = M.circles + N.circles
    for node in nodes:
        if node in seen:
            continue
        component = []
        stack = [node]
        seen.add(node)
        while stack:
            x = stack.pop()
            component.append(x)
            for y in adj.get(x, []):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        edges = sum(len(adj.get(x, [])) for x in component) // 2
        if edges == len(component):
            circles += 1           # cycle of arcs closes up
        else:
            arcs += 1              # chain of arcs stays an arc
    return OneManifold(arcs, circles)


def check_theta_defines_tqft(theta, dim: int, seed: int = 0, budget: int = 300):
    """Sample gluings and test Theta(M glued N) = Theta(M) * Theta(N).

    Returns (ok, witness). The canonical disk-pair gluings are checked
    before the seeded random ones, so a failing Theta in dimension 1 is
    always witnessed by two arcs closing into a circle.
    """
    rng = random.Random(seed)
    if dim == 1:
        arc = OneManifold(1, 0)
        glued = glue_one_manifolds(arc, arc, [((0, 0), (0, 0)), ((0, 1), (0, 1))])
        lhs = theta(arc) * theta(arc)
        rhs = theta(glued)
        if lhs != rhs:
            witness = (f"two arcs glued to a circle: {_witness_str(theta(arc))} *"
                       f" {_witness_str(theta(arc))} != {_witness_str(rhs)}")
            return False, witness
        for _ in range(budget):
            M = OneManifold(rng.randrange(0, 4), rng.randrange(0, 3))
            N = OneManifold(rng.randrange(0, 4), rng.randrange(0, 3))
            m_ends = [(a, e) for a in range(M.arcs) for e in (0, 1)]
            n_ends = [(a, e) for a in range(N.arcs) for e in (0, 1)]
            k = rng.randrange(0, min(len(m_ends), len(n_ends)) + 1)
            rng.shuffle(m_ends)
            rng.shuffle(n_ends)
            matching = list(zip(m_ends[:k], n_ends[:k]))
            glued = glue_one_manifolds(M, N, matching)
            if theta(M) * theta(N) != theta(glued):
                return False, (f"arcs/circles {M} and {N} glued on {k} endpoint pairs:"
                               f" {_witness_str(theta(M))} * {_witness_str(theta(N))}"
                               f" != {_witness_str(theta(glued))}")
        return True, None
    if dim == 2:
        from .surfaces import disk, random_surface

        glued = paste(surface_union(disk(), disk()), PasteSpec(((0, 1),)))
        lhs = theta(disk()) * theta(disk())
        if lhs != theta(glued):
            return False, (f"two disks glued to a sphere: {theta(disk())} * {theta(disk())}"
                           f" != {theta(glued)}")
        for _ in range(budget):
            M = random_surface(rng, max_genus=3, max_components=3, max_boundary=3)
            N = random_surface(rng, max_genus=3, max_components=3, max_boundary=3)
            union = surface_union(M, N)
            m_circles = list(M.circle_ids())
            n_circles = [c + M.next_circle for c in N.circle_ids()]
            k = rng.randrange(0, min(len(m_circles), len(n_circles)) + 1)
            rng.shuffle(m_circles)
            rng.shuffle(n_circles)
            pairs = tuple(zip(m_circles[:k], n_circles[:k]))
            glued = paste(union, PasteSpec(pairs))
            if theta(M) * theta(N) != theta(glued):
                return False, (f"{M.as_multiset()} and {N.as_multiset()} glued on {k} circles:"
                               f" {theta(M)} * {theta(N)} != {theta(glued)}")
        return True, None
    raise WrongDimension(f"theta checks exist for dimensions 1 and 2, not {dim}")


def exp_chi_theta(dim: int):
    """Theta = exp(Euler characteristic) on the models of the given dimension."""
    if dim == 1:
        return lambda m: exp_scalar(m.chi)
    if dim == 2:
        return lambda s: exp_scalar(surface_chi(s))
    raise WrongDimension(f"no exp(chi) model in dimension {dim}")


def boundary_dependence_check(T, seed: int = 0, budget: int = 100) -> Report:
    """For a TQFT trivial on closed words, values depend only on arities.

    First verifies kernel membership on sampled closed words (raising
    NotInKernel otherwise), then checks sampled equal-arity word pairs for
    equal values and compares against the closed form cup**(in - out).
    """
    rng = random.Random(seed)
    for _ in range(max(10, budget // 10)):
        w = random_closed_word(rng)
        if not evaluate(T, w).is_one:
            raise NotInKernel(f"closed word {w.text()!r} evaluates to {evaluate(T, w)}")

    checks = []
    witness = None
    closed_form_witness = None
    for _ in range(budget):
        in_arity = rng.randrange(0, 4)
        out_arity = rng.randrange(0, 4)
        M = random_word_with_arities(rng, in_arity, out_arity)
        N = random_word_with_arities(rng, in_arity, out_arity)
        mv, nv = evaluate(T, M), evaluate(T, N)
        if mv != nv:
            witness = (f"{M.text()!r} -> {mv} but {N.text()!r} -> {nv}"
                       f" with arities {in_arity}->{out_arity}")
            break
        expected = T.cup ** (in_arity - out_arity)
        if mv != expected:
            closed_form_witness = (f"{M.text()!r} -> {mv}, expected"
                                   f" cup**({in_arity}-{out_arity}) = {expected}")
            break
    checks.append(CheckResult("boundary_only_dependence", witness is None, witness))
    checks.append(CheckResult("closed_form_cup_power", closed_form_witness is None,
                              closed_form_witness))
    return Report(tuple(checks))
