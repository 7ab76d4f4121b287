"""SKK classes, classification tables, and the invertible-TQFT connection.

Classes of closed manifolds are represented by complete invariants:
circle-count parity in dimension 1, half the Euler characteristic in
dimension 2, and the (Euler characteristic, signature) pair in dimension 4.
The class functions take only the closed model that a command builds and
read its dimension from it: a surface (`surfaces.Surface`) is of dimension
2, a simplicial complex of its own `dim`; dimension 1 takes complexes only.

Restricting an invertible 2d TQFT to closed words gives the chi-type
invariant (cap*cup)**(chi/2), held as its base cap*cup. Over signed-exponential
scalars the absolute value of that restriction is hit by an explicit
splitting, exp(r*chi) -> (cap = cup = exp(r)), with the sign-valued TQFTs
forming the kernel. All of this is checked exactly on parameter grids by
`verify_split_sequence`.

Attribute invariants such as exp(p2) are evaluated on catalog pieces after
the close-up construction, whose dependence on the capping catalog is
demonstrated by `b_sigma_dependence_demo`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import InputError, surfaces as sf
from .intersection_form import signature as complex_signature
from .simplicial import (
    SimplicialComplex,
    euler_characteristic,
    homology,
    oriented,
    validate_closed,
)
from .tqft import (
    ExpScalar,
    GroupScalar,
    InvertibleTQFT2,
    Report,
    VariantMismatch,
    check,
    exp_scalar,
)
from .virtual_bordism import Catalog, VirtualPiece, close_up


class UnsupportedDimension(InputError):
    """Classes are implemented in dimensions 1, 2, and 4 only."""


class OddParity(InputError):
    """chi - sigma is odd; the input is not a closed oriented 4-manifold."""


class NotClosedManifold(InputError):
    """Class functions are defined on closed manifolds."""


# -- classes and tables ------------------------------------------------------------

def skk_class(M):
    """Complete class of a closed model, read in the model's own dimension:
    circle-count parity (dim 1), chi/2 (dim 2), or (chi, sigma) (dim 4).
    A `surfaces.Surface` is of dimension 2, a complex of dimension `M.dim`."""
    if isinstance(M, sf.Surface):
        if not M.is_closed:
            raise NotClosedManifold("surface has boundary circles")
        chi = sf.chi(M)
    else:
        if M.dim not in (1, 2, 4):
            raise UnsupportedDimension(f"no class representation in dimension {M.dim}")
        if not validate_closed(M):
            raise NotClosedManifold("complex is not closed")
        if M.dim == 1:
            return homology(M, "rationals").betti[0] % 2
        chi = euler_characteristic(M)
        if M.dim == 4:
            # chi = b2 = sigma (mod 2) on every closed oriented 4-manifold
            sigma = complex_signature(M)
            if (chi - sigma) % 2:
                raise OddParity(f"chi - sigma = {chi - sigma} is odd")
            _refuse_wedge(M)
            return chi, sigma
        if chi % 2 == 0:  # an odd chi is refused below, before orientability and wedges
            _refuse_wedge(oriented(M))  # NotOrientable: the classes are of oriented surfaces
    if chi % 2:
        raise OddParity(f"closed surface with odd chi {chi}")
    return chi // 2


def _refuse_wedge(M) -> None:
    """Refuse two pieces (facets joined through codimension-1 faces) meeting at a vertex."""
    piece = [[i] for i in range(len(M.facets))]  # the facets of each facet's piece
    for (a, _), (b, _) in M.face_index.ridges.values():  # two facets each, as M is closed
        pa, pb = piece[a], piece[b]
        if pa is not pb:  # merge the smaller piece into the larger
            small, big = (pa, pb) if len(pa) < len(pb) else (pb, pa)
            big += small
            for i in small:
                piece[i] = big
    if len({(p[0], v) for p, f in zip(piece, M.facets) for v in f}) > len(M.face_index.cells[0]):
        raise NotClosedManifold("complex is a wedge: two of its pieces meet at a vertex")


def sk_class(M):
    """Complete cut-and-paste class: chi/2 (dim 2) or ((chi-sigma)/2, sigma) (dim 4)."""
    if isinstance(M, SimplicialComplex) and M.dim not in (2, 4):
        raise UnsupportedDimension(f"no cut-and-paste class in dimension {M.dim}")
    value = skk_class(M)
    if isinstance(value, tuple):
        chi, sigma = value
        return (chi - sigma) // 2, sigma
    return value


def i_n_table(n: int) -> str:
    """Kernel of the class-to-bordism surjection: 'Z', 'Z/2', or '0'."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if n % 2 == 0:
        return "Z"
    if n % 4 == 1:
        return "Z/2"
    return "0"


# -- invariants and the TQFT restriction ---------------------------------------------

def chi_invariant(r) -> ExpScalar:
    """exp(r * chi) as a positive-real-valued invariant: its base exp(2r)."""
    return exp_scalar(2 * Fraction(r))


def attribute_invariant(key: str, catalog: Catalog):
    """The function M -> exp(attribute of M) on closed catalog pieces.

    Pieces without the attribute are evaluated through their part multiset
    (disjoint unions sum the attribute).
    """
    def value(M: VirtualPiece) -> ExpScalar:
        if M.has_attribute(key):
            return exp_scalar(M.attribute(key))
        total = Fraction(0)
        for part in M.parts:
            total += catalog.piece(part).attribute(key)
        return exp_scalar(total)

    return value


def psi(T: InvertibleTQFT2) -> GroupScalar:
    """Restriction of a TQFT to closed manifolds, (cap*cup)**(chi/2), as its base."""
    return T.cap * T.cup


def abs_psi(T: InvertibleTQFT2) -> ExpScalar:
    """Positive part of the restriction; defined over exponential scalars."""
    if T.variant != "exp":
        raise VariantMismatch("absolute restriction needs signed-exponential scalars")
    return psi(T).abs_value()


def kernel_membership(T: InvertibleTQFT2) -> bool:
    """True iff every closed value is a sign: |cap * cup| = 1."""
    prod = psi(T)
    if isinstance(prod, ExpScalar):
        return prod.exponent == 0
    return abs(prod.value) == 1


# -- the splitting -----------------------------------------------------------------

def splitting_S(r):
    """Right inverse of the positive restriction: the TQFT with cap = cup =
    exp(r), whose closed values are exp(r*chi)."""
    r = Fraction(r)
    return InvertibleTQFT2(exp_scalar(r), exp_scalar(r))


def corrupted_splitting(r):
    """Negative control: puts the whole exponent on the cap, so the absolute
    restriction returns exp(r*chi/2) instead of exp(r*chi)."""
    return InvertibleTQFT2(exp_scalar(Fraction(r)), exp_scalar(0))


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
    (ii) and (iii) read one list of (r, restriction of the split
    exp(r*chi), exp(r*chi)) triples.
    """
    grid = default_grid() if grid is None else grid
    rng = random.Random(seed)
    restricted = [(r, abs_psi(splitting(r)), chi_invariant(r)) for r in _SAMPLED_RS]
    return Report((kernel_equals_sign_valued(grid), surjectivity_onto_chi_star(restricted),
                   restriction_after_splitting_is_identity(restricted),
                   restriction_is_homomorphism(grid, rng)))


@check
def kernel_equals_sign_valued(grid):
    for a in grid:
        for e in grid:
            T = InvertibleTQFT2(a, e)
            in_kernel = kernel_membership(T)
            trivial = abs_psi(T).is_one
            if in_kernel != trivial:
                yield (f"cap={a}, cup={e}: kernel membership {in_kernel}"
                       f" but trivial restriction {trivial}")


@check
def surjectivity_onto_chi_star(restricted):
    for r, got, xi in restricted:
        if got != xi:
            yield (f"exp({r}*chi) is not hit: the split TQFT restricts to base {got},"
                   f" expected {xi}")


@check
def restriction_after_splitting_is_identity(restricted):
    for r, got, xi in restricted:
        if got != xi:
            yield (f"restriction after splitting of exp({r}*chi) gives"
                   f" exp({Fraction(got.exponent, 2)}*chi), expected exp({r}*chi)")


@check
def restriction_is_homomorphism(grid, rng):
    for _ in range(60):
        a1, e1, a2, e2 = (rng.choice(grid) for _ in range(4))
        T1, T2 = InvertibleTQFT2(a1, e1), InvertibleTQFT2(a2, e2)
        lhs = abs_psi(T1.product(T2))
        rhs = abs_psi(T1) * abs_psi(T2)
        if lhs != rhs:
            yield f"product of cap={a1},cup={e1} and cap={a2},cup={e2}"


def b_sigma_dependence_demo(catalog: Catalog):
    """Evaluate exp(p2) on the disk cobordism under the two declared cappings
    of its boundary sphere, as the l-th root of its value on the close-up;
    returns the two scalars."""
    disk = catalog.piece("D8")
    xi = attribute_invariant("p2", catalog)
    values = []
    for choice in ("D8", "CP4_minus_D8"):
        cat = catalog.with_b_sigma("S7", choice)
        closed = close_up(disk, (), ("S7",), cat)
        values.append(xi(closed) ** Fraction(1, cat.l))
    return tuple(values)
