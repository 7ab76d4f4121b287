"""Invertible two-dimensional TQFTs over an exact scalar group.

Scalars live in one of two exactly-represented groups: the nonzero
rationals, or signed exponentials sign * e**(p/q) with rational exponent.
The latter makes expressions of the form exp(integer invariant) exact and
accommodates the sign needed by TQFTs whose closed values are +-1. An
exponent is an `int` when it is integral and a reduced `Fraction` otherwise,
so the common integral case never enters `Fraction` arithmetic; code that
halves or divides an exponent writes `Fraction(e, 2)`, never `e / 2`, which
would make a float of an `int`. Scalars refuse floats.

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
most one power per base and no inverse. The value thus depends only on those
totals, so verification tabulates it per call: `verify_axioms` and
`boundary_dependence_check` each pass one dict to `evaluate`, which computes
each distinct tuple of totals once. Requests are bounded: a rational
answer may have at most `MAX_SCALAR_BITS` bits, no power is taken whose
least size, read from its exponent, exceeds that, and `verify_axioms` runs
at most `MAX_BUDGET` words per check, and fewer as rational bases or
fractional exponents grow, so that the budget times their bits stays within
`MAX_BUDGET_BITS`. Functoriality, monoidality and Theta multiplicativity
run one loop over seeded word pairs, and the closed words of the kernel
check are drawn by `random_word_with_arities(rng, 0, 0)`.
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
    random_word,
    random_word_with_arities,
    tensor,
)
from .rationals import fraction_text


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
# bound takes at most about half a second (0.2-0.55 s with scalars of a few
# digits, in-process on a shared 2-vCPU VM with Python 3.11).
MAX_BUDGET = 3000

# Bound on the budget times the bits of the rational bases and of the
# fractional exponents of exponential bases: every product and comparison of
# the checks works on powers of the former and on sums of the latter, so a
# 4000-digit cap took 5 s at budget 3000, and two exponents whose numerator
# and denominator have 4000 digits each took 4.3 s. The costliest requests
# at the bound take about half a second: 0.53 s at budget 3000 with a
# 210-digit cap, 0.56 s for two 2000-digit fractions at budget 78 with
# --corrupt, 0.28 s for fractional exponents at budget 3000, and fractional
# exponent requests at 1.1-1.65 times the bound took 0.04-0.28 s over budgets
# 100-3000 (same VM). Integral exponents are not weighed: sums of them stay
# cheap, and 4000-digit ones take 0.41 s at budget 3000.
MAX_BUDGET_BITS = 1 << 21


@dataclass(frozen=True)
class RationalScalar:
    """Element of the multiplicative group of nonzero rationals."""

    value: Fraction

    def __post_init__(self):
        if type(self.value) is not Fraction:
            object.__setattr__(self, "value", Fraction(_exact(self.value)))
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
    """sign * e**(exponent), with exact rational exponent and sign in {+1, -1}.

    The exponent is held in one canonical form: an `int` when it is integral,
    a `Fraction` in lowest terms otherwise. `int` and `Fraction` mix exactly,
    compare equal and hash alike, so the arithmetic below needs no case for
    either; only `/` does, as `int / int` is a float, so halve an exponent
    with `Fraction(e, 2)`.
    """

    exponent: int | Fraction
    sign: int = 1

    def __post_init__(self):
        e = self.exponent
        if type(e) is not int:
            e = Fraction(_exact(e))
            object.__setattr__(self, "exponent", e.numerator if e.denominator == 1 else e)
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


def _exact(value):
    """`value` itself, unless it is a float: a binary fraction such as
    0.1 == 3602879701896397/2**55 is never what a scalar meant."""
    if isinstance(value, float):
        raise TypeError(f"scalars are exact; got the float {value!r}")
    return value


# Products and powers of valid scalars are valid, so they skip __post_init__;
# an exponential one still takes the canonical exponent form.
def _rational_of(value: Fraction) -> RationalScalar:
    s = object.__new__(RationalScalar)
    object.__setattr__(s, "value", value)
    return s


def _exp_of(exponent: int | Fraction, sign: int) -> ExpScalar:
    if type(exponent) is not int and exponent.denominator == 1:
        exponent = exponent.numerator
    s = object.__new__(ExpScalar)
    object.__setattr__(s, "exponent", exponent)
    object.__setattr__(s, "sign", sign)
    return s


_RATIONAL_ONE = RationalScalar(Fraction(1))
_EXP_ONE = ExpScalar(0)


GroupScalar = RationalScalar | ExpScalar


def rational(value) -> RationalScalar:
    return RationalScalar(value)


def exp_scalar(exponent, sign: int = 1) -> ExpScalar:
    return ExpScalar(exponent, sign)


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


@dataclass(frozen=True)
class CorruptedTQFT2(InvertibleTQFT2):
    """Negative control: sends pants to the cap value instead of its inverse,
    so equivalent words with different pants counts disagree."""

    EXPONENTS = {**InvertibleTQFT2.EXPONENTS, "pants": (1, 0)}


def corrupted_tqft(T: InvertibleTQFT2) -> CorruptedTQFT2:
    return CorruptedTQFT2(T.cap, T.cup)


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


def evaluate(T, M: CobordismWord, values: dict | None = None) -> GroupScalar:
    """Value of a dimension-2 word: the product of base ** k over T's bases,
    where k sums the generators' exponent rows over the word's counts.

    The value is a function of T's bases and those totals, so a verifier
    passes one dict `values` for all its words of one T: each distinct
    tuple of totals is then computed once and looked up after that. Without
    it the value is computed directly.

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
    if values is None:
        return _value(bases, totals)
    key = tuple(totals)
    value = values.get(key)
    if value is None:
        value = values[key] = _value(bases, key)
    return value


def _value(bases, totals) -> GroupScalar:
    """The product of base ** k over `bases` and their exponent `totals`."""
    # rational powers and their product stay Fractions until the answer
    value = None
    for base, k in zip(bases, totals):
        if not k:
            continue
        if type(base) is RationalScalar:
            q = base.value
            _refuse_size("a power in the answer would have at least", _least_power_bits(q, k))
            power = q ** k
        else:
            power = base ** k
        value = power if value is None else value * power
    if value is None:
        return bases[0].one()
    if type(value) is Fraction:
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

    Covers equivalence-invariance (the canonical pairs, and a word and its
    rewrites by `equivalent_rewrite`, which keep its class, give equal
    values), functoriality under composition, the cylinder law, monoidality,
    and the empty-word law. Violations are reported with witnesses, not
    raised. The five checks share one table of values by exponent totals.
    """
    if budget < 0:
        raise InputError(f"word budget must be non-negative, got {budget}")
    if budget > MAX_BUDGET:
        raise InputError(f"word budget may be at most {MAX_BUDGET}, got {budget}")
    bits = sum(_bits(b.value) if type(b) is RationalScalar else _bits(b.exponent)
               for b in T.bases if type(b) is RationalScalar or type(b.exponent) is not int)
    if budget * bits > MAX_BUDGET_BITS:
        raise InputError(f"word budget times the bits of the rational scalars and fractional"
                         f" exponents may be at most {MAX_BUDGET_BITS}, got {budget} * {bits}")
    rng = random.Random(seed)
    values = {}
    return Report((equivalence_invariance(T, rng, budget, values),
                   functoriality(T, rng, budget, values), cylinder_law(T, values),
                   monoidality(T, rng, budget, values), empty_law(T, values)))


@check
def equivalence_invariance(T, rng, budget: int, values: dict):
    for left, right, lw, rw in _canonical_words():
        lv, rv = evaluate(T, lw, values), evaluate(T, rw, values)
        if lv != rv:
            yield f"{left!r} -> {lv} but {right!r} -> {rv}"
    for _ in range(budget):
        M = random_word(rng)
        R = M
        for _ in range(rng.randrange(1, 4)):
            R = equivalent_rewrite(rng, R)
        mv, rv = evaluate(T, M, values), evaluate(T, R, values)
        if mv != rv:
            yield f"{M.text()!r} -> {mv} but rewrite {R.text()!r} -> {rv}"


def _glued_values_multiply(value, rng, budget: int, glue, dim: int = 2):
    """Witnesses of value(glue(M, N)) = value(M) * value(N) failing on
    `budget` random pairs of words of `dim`; for `compose` the second word
    starts where the first ends."""
    for _ in range(budget):
        M = random_word(rng, dim)
        N = random_word(rng, dim, start_arity=M.out_arity if glue is compose else None)
        lhs = value(glue(M, N))
        rhs = value(M) * value(N)
        if lhs != rhs:
            yield f"{glue.__name__}({M.text()!r}, {N.text()!r}): {lhs} != {rhs}"


@check
def functoriality(T, rng, budget: int, values: dict):
    yield from _glued_values_multiply(functools.partial(evaluate, T, values=values), rng,
                                      budget, compose)


@check
def monoidality(T, rng, budget: int, values: dict):
    yield from _glued_values_multiply(functools.partial(evaluate, T, values=values), rng,
                                      budget, tensor)


@check
def cylinder_law(T, values: dict):
    for arity in range(0, 5):
        w = identity_word(arity)
        v = evaluate(T, w, values)
        if not v.is_one:
            yield f"identity word of arity {arity} -> {v}"
    # the right-hand sides of the first two pairs are cylinders
    for _, text, _, w in _canonical_words()[:2]:
        v = evaluate(T, w, values)
        if not v.is_one:
            yield f"cylinder-equivalent word {text!r} -> {v}"


@check
def empty_law(T, values: dict):
    v = evaluate(T, CobordismWord(2, ()), values)
    if not v.is_one:
        yield f"empty word -> {v}"


# -- Theta multiplicativity ----------------------------------------------------

def _witness_str(s: GroupScalar) -> str:
    """Explicit rendering for violation witnesses: exp(0) stays exp(0)."""
    if isinstance(s, ExpScalar):
        prefix = "-" if s.sign == -1 else ""
        return f"{prefix}exp({fraction_text(s.exponent)})"
    return str(s)


# the birth-then-death composition of each dimension, checked first
_BIRTH_DEATH = {1: ("acap", "acup", "two arcs glued to a circle"),
                2: ("cap", "cup", "two disks glued to a sphere")}


@check
def check_theta_defines_tqft(theta, dim: int, seed: int = 0, budget: int = 300):
    """Test Theta(compose(M, N)) = Theta(M) * Theta(N) on words of `dim`.

    Theta is a function of cobordism words. The birth-then-death pair is
    checked first, then `budget` seeded random composable pairs, so a Theta
    that fails in dimension 1 on two arcs closing into a circle is always
    witnessed by that gluing.
    """
    if dim not in _BIRTH_DEATH:
        raise WrongDimension(f"theta checks exist for dimensions 1 and 2, not {dim}")
    birth, death, label = _BIRTH_DEATH[dim]
    M, N = parse_word(birth, dim), parse_word(death, dim)
    mv, nv, glued = theta(M), theta(N), theta(compose(M, N))
    if mv * nv != glued:
        yield f"{label}: {_witness_str(mv)} * {_witness_str(nv)} != {_witness_str(glued)}"
    yield from _glued_values_multiply(theta, random.Random(seed), budget, compose, dim)


def exp_chi_theta(w: CobordismWord) -> ExpScalar:
    """Theta = exp(Euler characteristic of the word's normal form)."""
    return exp_scalar(normal_form(w).total_chi())


def boundary_dependence_check(T, seed: int = 0, budget: int = 100) -> Report:
    """For a TQFT trivial on closed words, values depend only on arities.

    First verifies kernel membership on sampled closed words (raising
    NotInKernel otherwise), then draws `budget` equal-arity word pairs, with
    their values, and runs both checks over all of them: equal values within
    a pair, and the closed form cup**(in - out). Both loops share one table
    of values by exponent totals.
    """
    rng = random.Random(seed)
    values = {}
    for _ in range(max(10, budget // 10)):
        w = random_word_with_arities(rng, 0, 0)
        v = evaluate(T, w, values)
        if not v.is_one:
            raise NotInKernel(f"closed word {w.text()!r} evaluates to {v}")
    pairs = []
    for _ in range(budget):
        in_arity = rng.randrange(0, 4)
        out_arity = rng.randrange(0, 4)
        M = random_word_with_arities(rng, in_arity, out_arity)
        N = random_word_with_arities(rng, in_arity, out_arity)
        pairs.append((in_arity, out_arity, M, evaluate(T, M, values),
                      N, evaluate(T, N, values)))
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
