"""Intersection form and signature of closed oriented triangulated 4-manifolds.

The pairing on degree-2 cohomology is evaluated at cochain level with the
front-face / back-face cup product in the complex's sorted vertex order,
against the fundamental cycle given by the facet orientation signs. On
cocycles, a cup b - b cup a is a coboundary (Steenrod's cup-1 product), so
the pairing needs no symmetrization: it is an integer symmetric matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import InputError
from .exact_linalg import (
    SignatureTriple,
    independent_modulo,
    left_kernel,
    symmetric_signature,
)
from .simplicial import ChainComplex, SimplicialComplex, oriented


class WrongDimension(InputError):
    """Operation requires a 4-dimensional complex."""


class DegeneratePairing(InputError):
    """Intersection form has a radical; the input is not a closed 4-manifold."""


@dataclass(frozen=True)
class IntersectionMatrix:
    """Symmetric integer pairing matrix on a chosen basis of H^2."""

    pairing: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.pairing)


def _h2_representatives(K: SimplicialComplex) -> list[tuple[int, ...]]:
    """Integer cocycle representatives of a rational basis of H^2.

    The chain complex is reduced first (`ChainComplex`), which keeps its
    cohomology. On the surviving cells, a 2-cochain is a cocycle when it
    annihilates the boundaries of the 3-cells, so the cocycles are the left
    kernel of the degree-3 boundary matrix; kernel vectors are kept when
    independent modulo the coboundaries, the rows of the degree-2 boundary
    matrix. Each one is then extended over the removed cells. The kernel
    order is deterministic, which makes the choice reproducible.
    """
    chain = ChainComplex(K)
    cocycles = left_kernel(chain.boundary(3))    # C_3 -> C_2, rows are 2-cells
    return [chain.cocycle(2, z) for z in independent_modulo(chain.boundary(2), cocycles)]


def intersection_matrix(K: SimplicialComplex) -> IntersectionMatrix:
    """Cup-product pairing of H^2 evaluated on the fundamental cycle."""
    if K.dim != 4:
        raise WrongDimension(f"expected dimension 4, got {K.dim}")
    K = oriented(K)
    reps = _h2_representatives(K)
    tri_index = K.face_index.position[2]
    terms = [(sign, tri_index[facet[:3]], tri_index[facet[2:]])
             for sign, facet in zip(K.orientations, K.facets)]

    def pair(alpha, beta) -> int:
        total = 0
        for sign, front, back in terms:
            a = alpha[front]
            if a:
                b = beta[back]
                if b:
                    total += sign * a * b
        return total

    pairing = tuple(tuple(pair(a, b) for b in reps) for a in reps)
    return IntersectionMatrix(pairing)


def signature(K: SimplicialComplex) -> int:
    """Signature of the intersection form; exact, via congruence inertia."""
    form = intersection_matrix(K)
    if form.size == 0:
        return 0
    triple: SignatureTriple = symmetric_signature(form.pairing)
    if triple.n_zero > 0:
        raise DegeneratePairing(f"radical of dimension {triple.n_zero}")
    return triple.signature
