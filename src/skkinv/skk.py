"""SKK classes, classification tables, and the invertible-TQFT connection.

Classes of closed manifolds are represented by complete invariant tuples:
circle-count parity in dimension 1, half the Euler characteristic in
dimension 2, and the (Euler characteristic, signature) pair in dimension 4.
Restricting an invertible 2d TQFT to closed words gives a class function
(the value is (cap*cup)**(chi/2)), and over signed-exponential scalars the
absolute value of that restriction is hit by an explicit splitting, with
the sign-valued TQFTs forming the kernel. All of this is checked exactly
on parameter grids by `verify_split_sequence`.

The splitting's chi-type summand evaluates invariants directly on pieces;
only bordism-type summands (signature, attribute invariants such as
Pontryagin numbers) go through the close-up construction, whose dependence
on the capping catalog is demonstrated by `b_sigma_dependence_demo`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import InputError, surfaces as sf
from .cobordism import CobordismWord, normal_form
from .intersection_form import signature as complex_signature
from .simplicial import SimplicialComplex, euler_characteristic, homology, validate_closed
from .tqft import (
    ExpScalar,
    GroupScalar,
    InvertibleTQFT2,
    Report,
    VariantMismatch,
    check,
    exp_scalar,
)
from .virtual_bordism import Catalog, VirtualPiece, close_up, dim8_catalog


class UnsupportedDimension(InputError):
    """Classes are implemented in dimensions 1, 2, and 4 only."""


class OddParity(InputError):
    """chi - sigma is odd; the input is not a closed oriented 4-manifold."""


class NotClosedManifold(InputError):
    """Class functions are defined on closed manifolds."""


# -- closed-manifold measurements ------------------------------------------------

def chi_of(M) -> int:
    """Euler characteristic of any closed model object."""
    if isinstance(M, sf.Surface):
        return sf.chi(M)
    if isinstance(M, SimplicialComplex):
        return euler_characteristic(M)
    if isinstance(M, VirtualPiece):
        return M.chi
    if isinstance(M, CobordismWord):
        return normal_form(M).total_chi()
    raise TypeError(f"no Euler characteristic for {type(M).__name__}")


def sigma_of(M) -> int:
    """Signature of a closed dimension-4 model object."""
    if isinstance(M, VirtualPiece):
        return M.sigma
    if isinstance(M, SimplicialComplex):
        return complex_signature(M)
    raise TypeError(f"no signature for {type(M).__name__}")


def _require_closed(M):
    if isinstance(M, sf.Surface) and not M.is_closed:
        raise NotClosedManifold("surface has boundary circles")
    if isinstance(M, VirtualPiece) and not M.is_closed:
        raise NotClosedManifold("piece has boundary labels")
    if isinstance(M, SimplicialComplex) and not validate_closed(M):
        raise NotClosedManifold("complex is not closed")
    if isinstance(M, CobordismWord) and (M.in_arity or M.out_arity):
        raise NotClosedManifold("word has boundary circles")


def circle_count(M) -> int:
    """Connected-component count of a closed 1-manifold model."""
    if isinstance(M, int):
        return M
    if isinstance(M, CobordismWord):
        if M.dim != 1:
            raise UnsupportedDimension("expected a dimension-1 word")
        return normal_form(M).circle_count
    if isinstance(M, SimplicialComplex):
        if M.dim != 1:
            raise UnsupportedDimension("expected a dimension-1 complex")
        return homology(M, "rationals").betti[0]
    raise TypeError(f"no circle count for {type(M).__name__}")


# -- classes and tables ------------------------------------------------------------

@dataclass(frozen=True)
class SKKClass:
    """Complete class data: parity (dim 1), chi/2 (dim 2), (chi, sigma) (dim 4)."""

    dim: int
    value: int | tuple[int, int]

    def __add__(self, other: "SKKClass") -> "SKKClass":
        if self.dim != other.dim:
            raise UnsupportedDimension("cannot add classes of different dimensions")
        if self.dim == 1:
            return SKKClass(1, (self.value + other.value) % 2)
        if self.dim == 4:
            a, b = self.value
            c, d = other.value
            return SKKClass(4, (a + c, b + d))
        return SKKClass(self.dim, self.value + other.value)


def skk_class(M, dim: int) -> SKKClass:
    if dim == 1:
        if not isinstance(M, int):
            _require_closed(M)
        return SKKClass(1, circle_count(M) % 2)
    if dim == 2:
        _require_closed(M)
        chi = chi_of(M)
        if chi % 2:
            raise OddParity(f"closed surface with odd chi {chi}")
        return SKKClass(2, chi // 2)
    if dim == 4:
        _require_closed(M)
        return SKKClass(4, (chi_of(M), sigma_of(M)))
    raise UnsupportedDimension(f"no class representation in dimension {dim}")


def sk_class(M, dim: int):
    """Complete cut-and-paste class: chi/2 (dim 2) or ((chi-sigma)/2, sigma) (dim 4)."""
    if dim == 2:
        return skk_class(M, 2).value
    if dim == 4:
        _require_closed(M)
        chi, sigma = chi_of(M), sigma_of(M)
        if (chi - sigma) % 2:
            raise OddParity(f"chi - sigma = {chi - sigma} is odd")
        return ((chi - sigma) // 2, sigma)
    raise UnsupportedDimension(f"no cut-and-paste class in dimension {dim}")


def i_n_table(n: int) -> str:
    """Kernel of the class-to-bordism surjection: 'Z', 'Z/2', or '0'."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if n % 2 == 0:
        return "Z"
    if n % 4 == 1:
        return "Z/2"
    return "0"


# rank of Hom(Omega_n, R_+) for 4 | n; external input, not derived here
OMEGA_HOM_RANKS = {4: 1, 8: 2}


@dataclass(frozen=True)
class SKKHomStructure:
    dim: int
    shape: str                      # "zero" | "chi_star" | "chi_star_plus_bordism"
    bordism_rank: int | None = None


def hom_structure(n: int) -> SKKHomStructure:
    """Shape of the positive-real-valued invariant group by dimension class."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if n % 2 == 1:
        return SKKHomStructure(n, "zero")
    if n % 4 == 2:
        return SKKHomStructure(n, "chi_star")
    return SKKHomStructure(n, "chi_star_plus_bordism", OMEGA_HOM_RANKS.get(n))


def bordism_projection(M) -> int:
    """Bordism class of a closed oriented 4-manifold, detected by signature."""
    _require_closed(M)
    return sigma_of(M)


# -- invariants and the TQFT restriction ---------------------------------------------

@dataclass(frozen=True)
class SKKInvariant:
    """Multiplicative class function on closed manifolds.

    `base` gives the value (base)**(chi/2); dimension-4 invariants may add
    a signature factor sigma_base**sigma. Arbitrary evaluators (attribute
    invariants) supply `custom` instead.
    """

    dim: int
    base: GroupScalar | None = None
    sigma_base: GroupScalar | None = None
    custom: object = None           # callable M -> GroupScalar
    descriptor: str = ""

    def __call__(self, M) -> GroupScalar:
        if self.custom is not None:
            return self.custom(M)
        value = None
        if self.base is not None:
            value = self.on_chi(chi_of(M))
        if self.sigma_base is not None:
            s = self.sigma_base ** sigma_of(M)
            value = s if value is None else value * s
        if value is None:
            raise ValueError("invariant has no evaluator")
        return value

    def on_chi(self, chi: int) -> GroupScalar:
        """The chi factor base**(chi/2) on a closed manifold of Euler
        characteristic chi: an integer power when chi is even. The root for
        odd chi is exact for positive exponentials, so chi-type invariants
        also evaluate on odd-chi 4-manifolds."""
        half, odd = divmod(chi, 2)
        return self.base ** (Fraction(chi, 2) if odd else half)

    def product(self, other: "SKKInvariant") -> "SKKInvariant":
        if self.dim != other.dim:
            raise UnsupportedDimension("cannot multiply invariants of different dimensions")
        if self.custom is not None or other.custom is not None:
            left, right = self, other
            return SKKInvariant(self.dim, custom=lambda M: left(M) * right(M),
                                descriptor=f"({self.descriptor})*({other.descriptor})")
        def mul(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return a * b
        return SKKInvariant(self.dim, mul(self.base, other.base),
                            mul(self.sigma_base, other.sigma_base),
                            descriptor=f"({self.descriptor})*({other.descriptor})")


def chi_invariant(r, dim: int = 2) -> SKKInvariant:
    """exp(r * chi) as a positive-real-valued invariant."""
    r = Fraction(r)
    return SKKInvariant(dim, base=exp_scalar(2 * r), descriptor=f"exp({r}*chi)")


def sigma_invariant(s) -> SKKInvariant:
    """exp(s * sigma) on closed dimension-4 models."""
    s = Fraction(s)
    return SKKInvariant(4, sigma_base=exp_scalar(s), descriptor=f"exp({s}*sigma)")


def attribute_invariant(key: str, catalog: Catalog) -> SKKInvariant:
    """exp(attribute) on closed catalog pieces.

    Pieces without the attribute are evaluated through their part multiset
    (disjoint unions sum the attribute).
    """
    def value(M) -> ExpScalar:
        if not isinstance(M, VirtualPiece):
            raise TypeError("attribute invariants evaluate catalog pieces")
        if M.has_attribute(key):
            return exp_scalar(M.attribute(key))
        total = Fraction(0)
        for part in M.parts:
            total += catalog.piece(part).attribute(key)
        return exp_scalar(total)

    return SKKInvariant(catalog.dim, custom=value, descriptor=f"exp(1*{key})")


def psi(T: InvertibleTQFT2) -> SKKInvariant:
    """Restriction of a TQFT to closed manifolds: M -> (cap*cup)**(chi/2)."""
    return SKKInvariant(2, base=T.cap * T.cup, descriptor=f"({T.cap}*{T.cup})^(chi/2)")


def abs_psi(T: InvertibleTQFT2) -> SKKInvariant:
    """Positive part of the restriction; defined over exponential scalars."""
    if T.variant != "exp":
        raise VariantMismatch("absolute restriction needs signed-exponential scalars")
    base = (T.cap * T.cup).abs_value()
    return SKKInvariant(2, base=base,
                        descriptor=f"exp({base.exponent / 2}*chi)")


def kernel_membership(T: InvertibleTQFT2) -> bool:
    """True iff every closed value is a sign: |cap * cup| = 1."""
    prod = T.cap * T.cup
    if isinstance(prod, ExpScalar):
        return prod.exponent == 0
    return abs(prod.value) == 1


# Euler characteristics of sample closed surfaces separating the chi classes
# (sphere, torus, genus 2 and 3, two spheres, torus plus genus 2), measured
# once per process; chi-type invariants are compared through them.
SAMPLE_CHIS = tuple(sf.chi(M) for M in (
    sf.sphere(),
    sf.torus(),
    sf.genus_surface(2),
    sf.genus_surface(3),
    sf.disjoint_union(sf.sphere(), sf.sphere()),
    sf.disjoint_union(sf.torus(), sf.genus_surface(2)),
))


def invariants_agree(xi1: SKKInvariant, xi2: SKKInvariant) -> bool:
    return all(xi1.on_chi(c) == xi2.on_chi(c) for c in SAMPLE_CHIS)


def invariant_is_trivial(xi: SKKInvariant) -> bool:
    return all(xi.on_chi(c).is_one for c in SAMPLE_CHIS)


# -- the splitting -----------------------------------------------------------------

@dataclass(frozen=True)
class PieceEvaluator:
    """TQFT-style evaluator on dimension-4 pieces produced by the splitting.

    The chi part is evaluated directly on the piece; the sigma part goes
    through the close-up of the piece's declared in/out boundary split.
    """

    chi_coefficient: Fraction
    sigma_coefficient: Fraction
    catalog: Catalog

    def evaluate(self, P: VirtualPiece, in_labels=(), out_labels=()) -> ExpScalar:
        value = exp_scalar(self.chi_coefficient * P.chi)
        if self.sigma_coefficient:
            closed = close_up(P, in_labels, out_labels, self.catalog)
            xi_value = exp_scalar(self.sigma_coefficient * closed.sigma)
            value = value * (xi_value ** Fraction(1, self.catalog.l))
        return value


def splitting_S(descriptor, dim: int = 2, catalog: Catalog | None = None):
    """Right inverse of the positive restriction on chi/sigma descriptors.

    descriptor: (r,) or (r, s) of rationals for exp(r*chi + s*sigma). In
    dimension 2 the result is the TQFT with cap = cup = exp(r), whose closed
    values are exp(r*chi). In dimension 4 the result evaluates pieces, with
    the sigma summand routed through the catalog's close-up.
    """
    if isinstance(descriptor, SKKInvariant):
        if (descriptor.custom is not None or descriptor.base is None
                or not isinstance(descriptor.base, ExpScalar)):
            raise ValueError("splitting needs an exponential chi/sigma-type descriptor")
        r = descriptor.base.exponent / 2
        s = descriptor.sigma_base.exponent if descriptor.sigma_base is not None else Fraction(0)
    else:
        parts = tuple(Fraction(x) for x in descriptor)
        r = parts[0]
        s = parts[1] if len(parts) > 1 else Fraction(0)
    if dim == 2:
        if s:
            raise UnsupportedDimension("signature summand requires dimension 4")
        return InvertibleTQFT2(exp_scalar(r), exp_scalar(r))
    if dim == 4:
        if catalog is None:
            raise ValueError("dimension-4 splitting needs a catalog")
        return PieceEvaluator(r, s, catalog)
    raise UnsupportedDimension(f"no splitting in dimension {dim}")


def corrupted_splitting(descriptor, dim: int = 2, catalog: Catalog | None = None):
    """Negative control: puts the whole exponent on the cap, so the absolute
    restriction returns exp(r*chi/2) instead of exp(r*chi)."""
    r = Fraction(descriptor[0])
    if dim != 2:
        raise UnsupportedDimension("negative control exists in dimension 2")
    return InvertibleTQFT2(exp_scalar(r), exp_scalar(0))


# Bound on the grid half-width of `default_grid`: the kernel check visits
# (2 * MAX_GRID + 1)^2 = 66,049 grid points, about a second on a 2-vCPU VM.
MAX_GRID = 128


def default_grid(half_width: int = 4):
    """(2*half_width + 1)^2 signed-exponential grid of scalars exp(k), k from
    -half_width to half_width, with sign -1 exactly when k mod 4 is 1 or 2.
    Both components of the scalar group are exercised, and exp(1) * exp(-1)
    has sign -1, so the grid holds sign-valued TQFTs of either sign."""
    if half_width < 0:
        raise InputError(f"grid half-width must be non-negative, got {half_width}")
    if half_width > MAX_GRID:
        raise InputError(f"grid half-width may be at most {MAX_GRID}, got {half_width}")
    return tuple(exp_scalar(k, -1 if k % 4 in (1, 2) else 1)
                 for k in range(-half_width, half_width + 1))


_SAMPLED_RS = tuple(Fraction(k) for k in range(-3, 4)) + (Fraction(1, 2), Fraction(-3, 2))


def verify_split_sequence(grid=None, seed: int = 0, splitting=splitting_S) -> Report:
    """Exactness and splitting checks over a signed-exponential grid.

    (i) sign-valued TQFTs are exactly the kernel of the positive
    restriction; (ii) sampled chi-type invariants are hit (via the
    splitting); (iii) the positive restriction after the splitting is the
    identity on samples; (iv) the positive restriction is a homomorphism.
    All four run in dimension 2; (ii) and (iii) read one list of
    (r, restriction of the split exp(r*chi), exp(r*chi)) triples.
    """
    grid = default_grid() if grid is None else grid
    rng = random.Random(seed)
    restricted = [(r, abs_psi(splitting((r,), 2, None)), chi_invariant(r)) for r in _SAMPLED_RS]
    return Report((kernel_equals_sign_valued(grid), surjectivity_onto_chi_star(restricted),
                   restriction_after_splitting_is_identity(restricted),
                   restriction_is_homomorphism(grid, rng)))


@check
def kernel_equals_sign_valued(grid):
    for a in grid:
        for e in grid:
            T = InvertibleTQFT2(a, e)
            in_kernel = kernel_membership(T)
            trivial = invariant_is_trivial(abs_psi(T))
            if in_kernel != trivial:
                yield (f"cap={a}, cup={e}: kernel membership {in_kernel}"
                       f" but trivial restriction {trivial}")


@check
def surjectivity_onto_chi_star(restricted):
    for r, got, xi in restricted:
        if not invariants_agree(got, xi):
            yield f"exp({r}*chi) is not hit: restriction disagrees on samples"


@check
def restriction_after_splitting_is_identity(restricted):
    for r, got, xi in restricted:
        if not invariants_agree(got, xi):
            yield (f"restriction after splitting of exp({r}*chi) gives"
                   f" {got.descriptor}, expected {xi.descriptor}")


@check
def restriction_is_homomorphism(grid, rng):
    for _ in range(60):
        a1, e1, a2, e2 = (rng.choice(grid) for _ in range(4))
        T1, T2 = InvertibleTQFT2(a1, e1), InvertibleTQFT2(a2, e2)
        lhs = abs_psi(T1.product(T2))
        rhs = abs_psi(T1).product(abs_psi(T2))
        if not invariants_agree(lhs, rhs):
            yield f"product of cap={a1},cup={e1} and cap={a2},cup={e2}"


def b_sigma_dependence_demo(catalog: Catalog | None = None):
    """Evaluate the split image of exp(p2) on the disk cobordism under the two
    declared cappings of its boundary sphere; returns the two scalars."""
    catalog = dim8_catalog() if catalog is None else catalog
    disk = catalog.piece("D8")
    xi = attribute_invariant("p2", catalog)
    values = []
    for choice in ("D8", "CP4_minus_D8"):
        cat = catalog.with_b_sigma("S7", choice)
        closed = close_up(disk, (), ("S7",), cat)
        values.append(xi(closed) ** Fraction(1, cat.l))
    return tuple(values)
