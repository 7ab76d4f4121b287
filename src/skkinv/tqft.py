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

A TQFT declares its `bases`, here (a, e), and in `EXPONENTS` the integer
exponent row of each generator's value over them: cap (1, 0), cup (0, 1),
pants (-1, 0), copants (0, -1), id and swap (0, 0). `evaluate` sums the rows
over a word's generator counts and raises each base once, so a word costs at
most one power per base and no inverse. Requests are bounded: a rational
answer may have at most `MAX_SCALAR_BITS` bits, no power is taken whose
least size, read from its exponent, exceeds that, and `verify_axioms` runs
at most `MAX_BUDGET` words per check.
"""

from __future__ import annotations

import functools
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


class AnswerTooLarge(InputError):
    """The answer, or a power taken to reach it, would exceed
    `MAX_SCALAR_BITS` bits."""


# Bit bound on a rational answer of `evaluate` and on the least size of each
# power taken to reach it: 2^18 bits is about 79,000 decimal digits.
MAX_SCALAR_BITS = 1 << 18

# Bound on the random words per check of `verify_axioms`; a request at the
# bound takes about half a second (0.45-0.7 s with scalars of a few digits,
# in-process on a shared 2-vCPU VM with Python 3.11).
MAX_BUDGET = 3000


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

    # exponent row of each generator's value over `bases`
    EXPONENTS = {"cap": (1, 0), "cup": (0, 1), "pants": (-1, 0), "copants": (0, -1),
                 "id": (0, 0), "swap": (0, 0)}

    def __post_init__(self):
        if type(self.cap) is not type(self.cup):
            raise VariantMismatch("cap and cup scalars must share a variant")

    @property
    def bases(self) -> tuple[GroupScalar, GroupScalar]:
        return (self.cap, self.cup)

    @property
    def variant(self) -> str:
        return "rational" if isinstance(self.cap, RationalScalar) else "exp"

    def product(self, other: "InvertibleTQFT2") -> "InvertibleTQFT2":
        if type(self.cap) is not type(other.cap):
            raise VariantMismatch("cannot multiply TQFTs over different scalar groups")
        return InvertibleTQFT2(self.cap * other.cap, self.cup * other.cup)

    def inverse(self) -> "InvertibleTQFT2":
        return InvertibleTQFT2(self.cap.inverse(), self.cup.inverse())

    @property
    def is_trivial(self) -> bool:
        return self.cap.is_one and self.cup.is_one


@dataclass(frozen=True)
class CorruptedTQFT2(InvertibleTQFT2):
    """Negative control: sends pants to the cap value instead of its inverse,
    so equivalent words with different pants counts disagree."""

    EXPONENTS = {**InvertibleTQFT2.EXPONENTS, "pants": (1, 0)}


def corrupted_tqft(T: InvertibleTQFT2) -> CorruptedTQFT2:
    return CorruptedTQFT2(T.cap, T.cup)


def trivial_tqft(variant: str = "rational") -> InvertibleTQFT2:
    one = rational(1) if variant == "rational" else exp_scalar(0)
    return InvertibleTQFT2(one, one)


def _bits(q: Fraction) -> int:
    """Size of a rational answer: the bits of its numerator, plus those of
    its denominator when that is not 1."""
    d = q.denominator
    return abs(q.numerator).bit_length() + (d.bit_length() if d > 1 else 0)


def _least_power_bits(q: Fraction, k: int) -> int:
    """A lower bound on _bits(q ** k): a part p > 1 of b bits gives p ** |k|
    of at least |k| * (b - 1) + 1 bits."""
    return sum(abs(k) * (p.bit_length() - 1) + 1
               for p in (abs(q.numerator), q.denominator) if p > 1)


def _refuse_size(what: str, bits: int) -> None:
    if bits > MAX_SCALAR_BITS:
        raise AnswerTooLarge(f"{what} {bits} bits; at most {MAX_SCALAR_BITS} are allowed")


def evaluate(T, M: CobordismWord) -> GroupScalar:
    """Value of a dimension-2 word: the product of base ** k over T's bases,
    where k sums the generators' exponent rows over the word's counts.

    A rational answer may have at most `MAX_SCALAR_BITS` bits. A power is
    taken only when its least size fits, so none has more than about twice
    that; powers that cancel to a small answer pass.
    """
    if M.dim != 2:
        raise WrongDimension("2d TQFTs evaluate dimension-2 words")
    bases = T.bases
    rows = T.EXPONENTS
    totals = [0] * len(bases)
    for g, n in M.generator_counts().items():
        for i, k in enumerate(rows[g]):
            totals[i] += k * n
    # rational powers and their product stay Fractions until the answer
    value = None
    most = 0  # bits of the powers, at most
    for base, k in zip(bases, totals):
        if not k:
            continue
        if type(base) is RationalScalar:
            q = base.value
            bits = abs(k) * (q.numerator.bit_length() + q.denominator.bit_length())
            if bits > MAX_SCALAR_BITS:
                _refuse_size("a power in the answer would have at least",
                             _least_power_bits(q, k))
            most += bits
            power = q ** k
        else:
            power = base ** k
        value = power if value is None else value * power
    if value is None:
        return bases[0].one()
    if type(value) is Fraction:
        if most > MAX_SCALAR_BITS:
            _refuse_size("the answer has", _bits(value))
        return _rational_of(value)
    return value


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None


def check(failures):
    """Make a generator of failure witnesses into a check of the same name:
    the first witness it yields fails the check, and the rest is not run."""
    @functools.wraps(failures)
    def run(*args, **kwargs) -> CheckResult:
        witness = next(failures(*args, **kwargs), None)
        return CheckResult(failures.__name__, witness is None, witness)
    return run


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


@functools.cache
def _canonical_words():
    """The canonical pairs as (left, right, left word, right word), parsed
    once per process; the texts stay for the witnesses."""
    return tuple((left, right, parse_word(left), parse_word(right))
                 for left, right in _CANONICAL_EQUIVALENT_PAIRS)


def verify_axioms(T, seed: int = 0, budget: int = 200) -> Report:
    """Check the functor laws on seeded random words.

    Covers equivalence-invariance (equal normal forms give equal values),
    functoriality under composition, the cylinder law, monoidality, and the
    empty-word law. Violations are reported with witnesses, not raised.
    """
    if budget < 0:
        raise InputError(f"word budget must be non-negative, got {budget}")
    if budget > MAX_BUDGET:
        raise InputError(f"word budget may be at most {MAX_BUDGET}, got {budget}")
    rng = random.Random(seed)
    return Report((equivalence_invariance(T, rng, budget), functoriality(T, rng, budget),
                   cylinder_law(T), monoidality(T, rng, budget), empty_law(T)))


@check
def equivalence_invariance(T, rng, budget: int):
    for left, right, lw, rw in _canonical_words():
        lv, rv = evaluate(T, lw), evaluate(T, rw)
        if lv != rv:
            yield f"{left!r} -> {lv} but {right!r} -> {rv}"
    for _ in range(budget):
        M = random_word(rng)
        R = M
        for _ in range(rng.randrange(1, 4)):
            R = equivalent_rewrite(rng, R)
        if normal_form(M) != normal_form(R):
            continue
        mv, rv = evaluate(T, M), evaluate(T, R)
        if mv != rv:
            yield f"{M.text()!r} -> {mv} but rewrite {R.text()!r} -> {rv}"


def _glued_values_multiply(T, rng, budget: int, glue):
    """Witnesses of glue(M, N) -> value(M) * value(N) failing on random
    pairs; for `compose` the second word starts where the first ends."""
    for _ in range(budget):
        M = random_word(rng)
        N = random_word(rng, start_arity=M.out_arity if glue is compose else None)
        lhs = evaluate(T, glue(M, N))
        rhs = evaluate(T, M) * evaluate(T, N)
        if lhs != rhs:
            yield f"{glue.__name__}({M.text()!r}, {N.text()!r}): {lhs} != {rhs}"


@check
def functoriality(T, rng, budget: int):
    yield from _glued_values_multiply(T, rng, budget, compose)


@check
def monoidality(T, rng, budget: int):
    yield from _glued_values_multiply(T, rng, budget, tensor)


@check
def cylinder_law(T):
    for arity in range(0, 5):
        w = identity_word(arity)
        v = evaluate(T, w)
        if not v.is_one:
            yield f"identity word of arity {arity} -> {v}"
    # the right-hand sides of the first two pairs are cylinders
    for _, text, _, w in _canonical_words()[:2]:
        v = evaluate(T, w)
        if not v.is_one:
            yield f"cylinder-equivalent word {text!r} -> {v}"


@check
def empty_law(T):
    v = evaluate(T, CobordismWord(2, ()))
    if not v.is_one:
        yield f"empty word -> {v}"


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


@check
def check_theta_defines_tqft(theta, dim: int, seed: int = 0, budget: int = 300):
    """Sample gluings and test Theta(M glued N) = Theta(M) * Theta(N).

    The canonical disk-pair gluings are checked before the seeded random
    ones, so a failing Theta in dimension 1 is always witnessed by two arcs
    closing into a circle.
    """
    rng = random.Random(seed)
    if dim == 1:
        arc = OneManifold(1, 0)
        glued = glue_one_manifolds(arc, arc, [((0, 0), (0, 0)), ((0, 1), (0, 1))])
        lhs = theta(arc) * theta(arc)
        rhs = theta(glued)
        if lhs != rhs:
            yield (f"two arcs glued to a circle: {_witness_str(theta(arc))} *"
                   f" {_witness_str(theta(arc))} != {_witness_str(rhs)}")
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
                yield (f"arcs/circles {M} and {N} glued on {k} endpoint pairs:"
                       f" {_witness_str(theta(M))} * {_witness_str(theta(N))}"
                       f" != {_witness_str(theta(glued))}")
    elif dim == 2:
        from .surfaces import disk, random_surface

        glued = paste(surface_union(disk(), disk()), PasteSpec(((0, 1),)))
        lhs = theta(disk()) * theta(disk())
        if lhs != theta(glued):
            yield (f"two disks glued to a sphere: {theta(disk())} * {theta(disk())}"
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
                yield (f"{M.as_multiset()} and {N.as_multiset()} glued on {k} circles:"
                       f" {theta(M)} * {theta(N)} != {theta(glued)}")
    else:
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
    NotInKernel otherwise), then draws `budget` equal-arity word pairs, with
    their values, and runs both checks over all of them: equal values within
    a pair, and the closed form cup**(in - out).
    """
    rng = random.Random(seed)
    for _ in range(max(10, budget // 10)):
        w = random_closed_word(rng)
        if not evaluate(T, w).is_one:
            raise NotInKernel(f"closed word {w.text()!r} evaluates to {evaluate(T, w)}")
    pairs = []
    for _ in range(budget):
        in_arity = rng.randrange(0, 4)
        out_arity = rng.randrange(0, 4)
        M = random_word_with_arities(rng, in_arity, out_arity)
        N = random_word_with_arities(rng, in_arity, out_arity)
        pairs.append((in_arity, out_arity, M, evaluate(T, M), N, evaluate(T, N)))
    return Report((boundary_only_dependence(pairs), closed_form_cup_power(T, pairs)))


@check
def boundary_only_dependence(pairs):
    for in_arity, out_arity, M, mv, N, nv in pairs:
        if mv != nv:
            yield (f"{M.text()!r} -> {mv} but {N.text()!r} -> {nv}"
                   f" with arities {in_arity}->{out_arity}")


@check
def closed_form_cup_power(T, pairs):
    for in_arity, out_arity, M, mv, _, _ in pairs:
        expected = T.cup ** (in_arity - out_arity)
        if mv != expected:
            yield (f"{M.text()!r} -> {mv}, expected"
                   f" cup**({in_arity}-{out_arity}) = {expected}")
