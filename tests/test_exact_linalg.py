"""Exact linear algebra: frozen cases plus algebraic property tests.

The Smith normal form oracle is the determinantal-divisor description:
the k-th invariant factor is gcd(k-minors) / gcd((k-1)-minors).
"""

import copy
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
    independent_modulo,
    left_kernel,
    rational_rank,
    smith_normal_form,
    symmetric_signature,
)
from skkinv.simplicial import SimplicialComplex, boundary_matrix


def zeros(rows, cols):
    return IntMatrix(rows, cols, tuple({} for _ in range(rows)))


def element(A, i, j):
    return A.entries[i].get(j, 0)


def sparse(vector):
    """The {position: entry} dict of a dense vector's nonzero entries."""
    return {k: x for k, x in enumerate(vector) if x}


def dense(vector, length):
    return [vector.get(k, 0) for k in range(length)]


def determinant(A):
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    n = A.rows
    if n == 0:
        return 1
    m = A.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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
    return IntMatrix(n, n, tuple({i: 1} for i in range(n)))


def transpose(A):
    """A.cols x A.rows, also when either is 0."""
    columns = tuple({} for _ in range(A.cols))
    for i, row in enumerate(A.entries):
        for j, x in row.items():
            columns[j][i] = x
    return IntMatrix(A.cols, A.rows, columns)


def _min_pivot(m, t, rows, cols):
    """Position of the smallest nonzero |entry| in the trailing block, scan order row-major."""
    best = None
    best_abs = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = m[i][j]
            if v != 0 and (best_abs is None or abs(v) < best_abs):
                best, best_abs = (i, j), abs(v)
    return best


def _smith_loop(m, rows, cols) -> tuple[int, ...]:
    """Diagonalize the dense rows `m` in place; returns the nonzero invariant factors.

    Pivot choice is the smallest nonzero absolute value in the remaining
    block, ties broken by row-major scan order, which makes the output
    deterministic.
    """

    def row_op(dst, src, q):
        m[dst] = [a - q * b for a, b in zip(m[dst], m[src])]

    def col_op(dst, src, q):
        for r in m:
            r[dst] -= q * r[src]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(rows, cols):
        pos = _min_pivot(m, t, rows, cols)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            pivot = m[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    row_op(i, t, m[i][t] // pivot)
                    dirty = dirty or m[i][t] != 0
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    col_op(j, t, m[t][j] // pivot)
                    dirty = dirty or m[t][j] != 0
            if dirty:
                pos = _min_pivot(m, t, rows, cols)
                continue
            # pivot must divide the whole trailing block for the chain property
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # pull the offending row up, then repeat
            pos = _min_pivot(m, t, rows, cols)
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
        t += 1
    return tuple(m[i][i] for i in range(t))


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
    return IntMatrix.from_rows(data) if rows else zeros(0, cols)


@st.composite
def sparse_matrices(draw, max_dim=6, values=(1, -1, 2, -2, 3, -3)):
    """Mostly-zero matrices with small entries, like boundary matrices."""
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    entry = st.sampled_from((0,) * (2 * len(values)) + tuple(values))
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return IntMatrix.from_rows(data) if rows else zeros(0, cols)


# no entry is +1 or -1, so no unit pivot is taken and the non-unit pivots
# of `invariant_factors` start from the whole matrix
no_unit_matrices = sparse_matrices(values=(2, -2, 3, -3, 4, 5, -5, 6, 7))

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
        assert smith_normal_form(zeros(2, 2)) == ()

    def test_frozen_example(self):
        rows = [[2, 4], [6, 8]]
        assert snf_oracle(rows) == (2, 4)  # gcd of entries 2, |det| = 8
        assert smith_normal_form(IntMatrix.from_rows(rows)) == (2, 4)
        # the pivot moves from -3 to -2 in row 0, and the -1 below it is left
        # alone by the row operations on column 1 because |-1| < 2
        rows = [[-3, -5], [3, 4]]
        assert snf_oracle(rows) == (1, 3)
        assert smith_normal_form(IntMatrix.from_rows(rows)) == (1, 3)

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
        # no unit pivot: the non-unit pivots start from the whole matrix
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
        doubled = IntMatrix(A.rows, A.cols,
                            tuple({j: 2 * x for j, x in row.items()} for row in A.entries))
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
        assert rational_rank(zeros(3, 2)) == 0

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
            assert set(y) <= set(range(A.rows)) and all(y.values())
            assert all(sum(x * element(A, i, j) for i, x in y.items()) == 0
                       for j in range(A.cols))
        assert rank_oracle([dense(y, A.rows) for y in kernel]) == len(kernel)

    def test_left_kernel_of_a_cycle(self):
        # the orientation cycle of the torus spans the kernel of its top boundary
        A = transpose(boundary_matrix(fixtures.torus7(), 2))
        (y,) = left_kernel(A)
        assert set(y) == set(range(A.rows))
        assert set(map(abs, y.values())) == {1}

    @given(st.one_of(any_matrices, sparse_matrices(max_dim=8)), st.data())
    @settings(max_examples=100, deadline=None)
    def test_independent_modulo(self, span, data):
        vectors = data.draw(st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)),
                                              min_size=span.cols, max_size=span.cols),
                                     max_size=5))
        kept = independent_modulo(span, [sparse(v) for v in vectors])
        base = rank_oracle(span.to_rows())
        assert len(kept) == rank_oracle(span.to_rows() + vectors) - base
        assert rank_oracle(span.to_rows() + [dense(v, span.cols) for v in kept]) == base + len(kept)
        # kept vectors are a subsequence of the input
        it = iter(map(sparse, vectors))
        assert all(any(k == v for v in it) for k in kept)

    def test_independent_modulo_rejects_a_column_outside_the_span(self):
        for column in (2, -1):
            with pytest.raises(ValueError):
                independent_modulo(identity(2), [{0: 1}, {column: 1}])

    def test_independent_modulo_ignores_stored_zeros(self):
        assert independent_modulo(identity(1), [{0: 0}]) == []
        assert independent_modulo(zeros(0, 2), [{0: 0, 1: 3}, {1: 1}]) == [{0: 0, 1: 3}]

    @given(st.one_of(any_matrices, sparse_matrices(max_dim=8)), st.data())
    @settings(max_examples=100, deadline=None)
    def test_the_kernel_leaves_its_input_unchanged(self, A, data):
        vectors = [sparse(v) for v in data.draw(st.lists(
            st.lists(small_entries, min_size=A.cols, max_size=A.cols), max_size=4))]
        entries, before = copy.deepcopy(A.entries), copy.deepcopy(vectors)
        smith_normal_form(A)
        rational_rank(A)
        left_kernel(A)
        independent_modulo(A, vectors)
        assert A.entries == entries
        assert vectors == before


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
