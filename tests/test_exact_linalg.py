"""Exact linear algebra: frozen cases plus algebraic property tests.

The Smith normal form oracle is the determinantal-divisor description:
the k-th invariant factor is gcd(k-minors) / gcd((k-1)-minors).
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from skkinv import fixtures
from skkinv.exact_linalg import (
    IntMatrix,
    NonSymmetricMatrix,
    _smith_loop,
    determinant,
    independent_modulo,
    left_kernel,
    rational_rank,
    smith_normal_form,
    symmetric_signature,
)
from skkinv.simplicial import SimplicialComplex, boundary_matrix


def minor_gcd(rows, k):
    """gcd of all k x k minors, by brute-force expansion."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    g = 0
    for rsel in itertools.combinations(range(m), k):
        for csel in itertools.combinations(range(n), k):
            sub = IntMatrix.from_rows([[rows[i][j] for j in csel] for i in rsel])
            g = gcd(g, abs(determinant(sub)))
    return g


def snf_oracle(rows):
    """Invariant factors from determinantal divisors."""
    if not rows or not rows[0]:
        return ()
    diag = []
    prev = 1
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        dk = minor_gcd(rows, k)
        if dk == 0:
            break
        diag.append(dk // prev)
        prev = dk
    return tuple(diag)


def identity(n):
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def transpose(A):
    return IntMatrix(A.cols, A.rows, tuple(A[i, j] for j in range(A.cols) for i in range(A.rows)))


def dense_smith(A):
    """Invariant factors from the dense Smith loop run on the whole matrix."""
    return _smith_loop(A.to_rows(), A.rows, A.cols)


def rank_oracle(rows):
    """Row reduction over Fraction, written independently of the library."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = None
        for i in range(rank, len(m)):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                factor = m[i][col] / m[rank][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


small_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrices(draw, max_dim=6):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    data = draw(st.lists(st.lists(small_entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return IntMatrix.from_rows(data) if rows else IntMatrix.zeros(0, cols)


@st.composite
def sparse_matrices(draw, max_dim=6, values=(1, -1, 2, -2, 3, -3)):
    """Mostly-zero matrices with small entries, like boundary matrices."""
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    entry = st.sampled_from((0,) * (2 * len(values)) + tuple(values))
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return IntMatrix.from_rows(data) if rows else IntMatrix.zeros(0, cols)


# no entry is +1 or -1, so the whole matrix goes to the dense Smith loop
no_unit_matrices = sparse_matrices(values=(2, -2, 3, -3, 4, 6))

sparse_or_no_unit = st.one_of(sparse_matrices(), no_unit_matrices)

any_matrices = st.one_of(int_matrices(), sparse_or_no_unit)


def relabelled(K, seed):
    """K with its vertices renamed by a seeded random injection."""
    rng = random.Random(seed)
    verts = K.vertices()
    rename = dict(zip(verts, rng.sample(range(3 * len(verts)), len(verts))))
    return SimplicialComplex.from_facets(K.dim, [[rename[v] for v in f] for f in K.facets])


# (fixture, degree, nonzero invariant factors) of small boundary matrices
BOUNDARY_CASES = [
    (fixtures.torus7, 1, (1,) * 6),
    (fixtures.torus7, 2, (1,) * 13),
    (fixtures.projective_plane6, 1, (1,) * 5),
    (fixtures.projective_plane6, 2, (1,) * 9 + (2,)),
    (lambda: fixtures.simplex_boundary(4), 2, (1,) * 6),
    (lambda: fixtures.simplex_boundary(4), 3, (1,) * 4),
]


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(identity(2)) == (1, 1)

    def test_zero_matrix(self):
        assert smith_normal_form(IntMatrix.zeros(2, 2)) == ()

    def test_frozen_example(self):
        rows = [[2, 4], [6, 8]]
        assert snf_oracle(rows) == (2, 4)  # gcd of entries 2, |det| = 8
        assert smith_normal_form(IntMatrix.from_rows(rows)) == (2, 4)

    @given(int_matrices())
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_loop(self, A):
        assert smith_normal_form(A) == dense_smith(A)

    @given(sparse_or_no_unit)
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_loop_sparse(self, A):
        assert smith_normal_form(A) == dense_smith(A)

    @given(int_matrices())
    @settings(max_examples=120, deadline=None)
    def test_divisibility_chain(self, A):
        diag = smith_normal_form(A)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0

    @given(int_matrices(max_dim=4))
    @settings(max_examples=60, deadline=None)
    def test_against_determinantal_oracle(self, A):
        assert smith_normal_form(A) == snf_oracle(A.to_rows())

    @given(st.one_of(sparse_matrices(max_dim=5),
                     sparse_matrices(max_dim=5, values=(2, -2, 3, -3, 4, 6))))
    @settings(max_examples=80, deadline=None)
    def test_sparse_against_determinantal_oracle(self, A):
        assert smith_normal_form(A) == snf_oracle(A.to_rows())

    def test_no_unit_entries(self):
        # the dense remainder is the whole matrix
        rows = [[2, 0, 4], [0, 6, 0], [4, 0, 2]]
        assert smith_normal_form(IntMatrix.from_rows(rows)) == snf_oracle(rows) == (2, 6, 6)

    def test_non_unit_block_left_by_unit_pivots(self):
        # one unit pivot leaves the 1 x 1 block [[-2]] behind
        rows = [[1, 1], [1, -1]]
        assert smith_normal_form(IntMatrix.from_rows(rows)) == snf_oracle(rows) == (1, 2)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("make, degree, diag", BOUNDARY_CASES)
    def test_relabelled_boundary_matrices(self, make, degree, diag, seed):
        A = boundary_matrix(relabelled(make(), seed), degree)
        assert smith_normal_form(A) == diag
        assert rational_rank(A) == rank_oracle(A.to_rows()) == len(diag)
        doubled = IntMatrix(A.rows, A.cols, tuple(2 * x for x in A.entries))
        assert smith_normal_form(doubled) == tuple(2 * d for d in diag)

    def test_boundary_matrix_against_dense_loop(self):
        A = boundary_matrix(relabelled(fixtures.projective_plane6(), 7), 2)
        assert smith_normal_form(A) == dense_smith(A)

    def test_deterministic(self):
        rows = [[3, 1, -4], [2, 0, 5], [-6, 7, 1]]
        first = smith_normal_form(IntMatrix.from_rows(rows))
        second = smith_normal_form(IntMatrix.from_rows(rows))
        assert first == second


class TestRationalRank:
    def test_identity(self):
        assert rational_rank(identity(3)) == 3

    def test_rank_one(self):
        assert rational_rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1

    def test_zero(self):
        assert rational_rank(IntMatrix.zeros(3, 2)) == 0

    @given(int_matrices())
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_and_snf(self, A):
        rank = rational_rank(A)
        assert rank == rank_oracle(A.to_rows())
        assert rank == len(smith_normal_form(A))

    @given(st.one_of(sparse_or_no_unit, sparse_matrices(max_dim=12)))
    @settings(max_examples=100, deadline=None)
    def test_sparse_matches_oracle_and_snf(self, A):
        rank = rational_rank(A)
        assert rank == rank_oracle(A.to_rows())
        assert rank == len(smith_normal_form(A))

    @given(int_matrices())
    @settings(max_examples=60, deadline=None)
    def test_transpose_invariance(self, A):
        assert rational_rank(A) == rational_rank(transpose(A))

    @given(sparse_or_no_unit)
    @settings(max_examples=40, deadline=None)
    def test_sparse_transpose_invariance(self, A):
        assert rational_rank(A) == rational_rank(transpose(A))


class TestKernelAndIndependence:
    @given(st.one_of(any_matrices, sparse_matrices(max_dim=10)))
    @settings(max_examples=100, deadline=None)
    def test_left_kernel_is_a_basis(self, A):
        kernel = left_kernel(A)
        assert len(kernel) == A.rows - rank_oracle(A.to_rows())
        for y in kernel:
            assert len(y) == A.rows
            assert all(sum(y[i] * A[i, j] for i in range(A.rows)) == 0 for j in range(A.cols))
        assert rank_oracle([list(y) for y in kernel]) == len(kernel)

    def test_left_kernel_of_a_cycle(self):
        # the orientation cycle of the torus spans the kernel of its top boundary
        A = transpose(boundary_matrix(fixtures.torus7(), 2))
        (y,) = left_kernel(A)
        assert set(map(abs, y)) == {1}

    @given(st.one_of(any_matrices, sparse_matrices(max_dim=8)), st.data())
    @settings(max_examples=100, deadline=None)
    def test_independent_modulo(self, span, data):
        vectors = data.draw(st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)),
                                              min_size=span.cols, max_size=span.cols),
                                     max_size=5))
        kept = independent_modulo(span, vectors)
        base = rank_oracle(span.to_rows())
        assert len(kept) == rank_oracle(span.to_rows() + vectors) - base
        assert rank_oracle(span.to_rows() + [list(v) for v in kept]) == base + len(kept)
        # kept vectors are a subsequence of the input
        it = iter(tuple(v) for v in vectors)
        assert all(any(k == v for v in it) for k in kept)

    def test_independent_modulo_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            independent_modulo(identity(2), [(1, 0, 0)])


class TestSymmetricSignature:
    def test_diagonal(self):
        triple = symmetric_signature([[1, 0], [0, -1]])
        assert (triple.n_plus, triple.n_minus, triple.n_zero) == (1, 1, 0)

    def test_hyperbolic_plane(self):
        # congruence-diagonalization oracle: det < 0 forces mixed signs
        triple = symmetric_signature([[0, 1], [1, 0]])
        assert (triple.n_plus, triple.n_minus, triple.n_zero) == (1, 1, 0)

    def test_positive_single(self):
        triple = symmetric_signature([[2]])
        assert (triple.n_plus, triple.n_minus, triple.n_zero) == (1, 0, 0)

    def test_zero_block(self):
        triple = symmetric_signature([[0, 0], [0, 0]])
        assert triple.n_zero == 2

    def test_cancelling_repair(self):
        # the add-a-row move alone would leave a zero pivot here
        triple = symmetric_signature([[0, 1], [1, -2]])
        assert triple.n_zero == 0
        assert triple.n_plus + triple.n_minus == 2

    def test_rejects_non_symmetric(self):
        with pytest.raises(NonSymmetricMatrix):
            symmetric_signature([[0, 1], [2, 0]])
        with pytest.raises(NonSymmetricMatrix):
            symmetric_signature([[1, 2, 3], [2, 1, 1]])

    @st.composite
    def symmetric_matrices(draw, n=st.integers(min_value=1, max_value=5)):
        size = draw(n)
        entries = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                value = draw(small_entries)
                entries[i][j] = entries[j][i] = value
        return entries

    @given(symmetric_matrices(), st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=80, deadline=None)
    def test_congruence_invariance(self, Q, seed):
        """Sylvester: inertia is stable under congruence by unimodular matrices."""
        size = len(Q)
        rng = random.Random(seed)
        U = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        for _ in range(6):  # random elementary row operations keep det = +-1
            i, j = rng.randrange(size), rng.randrange(size)
            if i != j:
                factor = rng.randrange(-2, 3)
                U[i] = [a + factor * b for a, b in zip(U[i], U[j])]
        transformed = [[sum(U[i][k] * Q[k][l] * U[j][l]
                            for k in range(size) for l in range(size))
                        for j in range(size)] for i in range(size)]
        assert symmetric_signature(transformed) == symmetric_signature(Q)

    @given(symmetric_matrices())
    @settings(max_examples=60, deadline=None)
    def test_counts_sum_to_dimension(self, Q):
        triple = symmetric_signature(Q)
        assert triple.n_plus + triple.n_minus + triple.n_zero == len(Q)
