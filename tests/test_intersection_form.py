"""Cup-product intersection forms on triangulated 4-manifolds."""

import random

import pytest

from skkinv import fixtures
from skkinv.exact_linalg import independent_modulo
from skkinv.intersection_form import (
    WrongDimension,
    _h2_representatives,
    intersection_matrix,
    signature,
)
from skkinv.simplicial import (
    NotClosed,
    NotOrientable,
    SimplicialComplex,
    boundary_matrix,
    disjoint_union,
    euler_characteristic,
    orient,
)


def matrix_product(rows, A):
    """The integer rows times the matrix A, as a list of rows."""
    a = A.to_rows()
    return [[sum(x * a[i][j] for i, x in enumerate(r)) for j in range(A.cols)] for r in rows]


def relabelled(K, seed):
    """K with its vertices renamed by a seeded random injection. A relabelling
    is an isomorphism; carried along with the sign of the permutation that
    re-sorts each facet, the orientation is preserved."""
    rng = random.Random(seed)
    verts = K.vertices()
    rename = dict(zip(verts, rng.sample(range(3 * len(verts)), len(verts))))
    facets, signs = [], []
    for sign, facet in zip(K.orientations, K.facets):
        image = [rename[v] for v in facet]
        inversions = sum(a > b for i, a in enumerate(image) for b in image[i + 1:])
        facets.append(image)
        signs.append(sign * (-1) ** inversions)
    return SimplicialComplex.from_facets(K.dim, facets, signs)


class TestIntersectionMatrix:
    def test_sphere4_empty(self):
        form = intersection_matrix(orient(fixtures.sphere4()))
        assert form.size == 0
        assert form.pairing == ()

    def test_cp2_rank_one_positive(self):
        form = intersection_matrix(fixtures.cp2_9())
        assert form.size == 1
        q = form.pairing[0][0]
        assert q > 0

    def test_reversed_orientation_negates(self):
        K = fixtures.cp2_9()
        q = intersection_matrix(K).pairing[0][0]
        q_rev = intersection_matrix(K.reversed_orientation()).pairing[0][0]
        assert q_rev == -q

    def test_symmetry(self):
        K = fixtures.cp2_9()
        mixed = relabelled(disjoint_union(K, K.reversed_orientation()), 5)
        for union in (disjoint_union(K, K), mixed):
            form = intersection_matrix(union)
            assert form.size == 2
            for i in range(2):
                for j in range(2):
                    assert type(form.pairing[i][j]) is int
                    assert form.pairing[i][j] == form.pairing[j][i]

    def test_representatives_are_cocycles_of_the_full_complex(self):
        # found on the reduced complex, then extended over the removed cells
        K = fixtures.cp2_9()
        mixed = relabelled(disjoint_union(K, K.reversed_orientation()), 3)
        for M, rank in ((K, 1), (mixed, 2), (orient(fixtures.sphere4()), 0)):
            reps = _h2_representatives(M)
            assert len(reps) == rank
            assert all(len(r) == len(M.simplices(2)) for r in reps)
            if reps:
                product = matrix_product(reps, boundary_matrix(M, 3))
                assert {x for row in product for x in row} == {0}
                assert independent_modulo(boundary_matrix(M, 2), reps) == reps

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            intersection_matrix(orient(fixtures.torus7()))

    def test_not_closed(self):
        K = SimplicialComplex.from_facets(4, [tuple(range(5))])
        with pytest.raises(NotClosed):
            intersection_matrix(K)

    def test_inconsistent_supplied_signs_rejected(self):
        # supplied signs are a fundamental cycle only when they cancel on
        # every tetrahedron; all +1, or one facet flipped, is not one
        K = fixtures.cp2_9()
        all_plus = SimplicialComplex(4, K.facets, (1,) * len(K.facets))
        one_flipped = SimplicialComplex(4, K.facets, (-K.orientations[0],) + K.orientations[1:])
        for bad in (all_plus, one_flipped):
            with pytest.raises(NotOrientable):
                intersection_matrix(bad)
            with pytest.raises(NotOrientable):
                signature(bad)

    def test_not_orientable_rejected(self):
        # a non-orientable closed complex only exists here in dimension 2,
        # so check the error comes through orient() on unoriented input
        with pytest.raises(NotOrientable):
            orient(fixtures.projective_plane6())


class TestSignature:
    def test_sphere4(self):
        assert signature(orient(fixtures.sphere4())) == 0

    def test_cp2_reference_orientation(self):
        K = fixtures.cp2_9()
        assert euler_characteristic(K) == 3
        assert signature(K) == 1

    def test_cp2_reversed(self):
        assert signature(fixtures.cp2_9().reversed_orientation()) == -1

    def test_additive_and_sign_flip(self):
        K = fixtures.cp2_9()
        same = disjoint_union(K, K)
        assert signature(same) == 2
        mixed = disjoint_union(K, K.reversed_orientation())
        assert signature(mixed) == 0

    def test_union_reversed(self):
        union = disjoint_union(fixtures.cp2_9(), fixtures.cp2_9())
        assert signature(union.reversed_orientation()) == -2

    @pytest.mark.parametrize("seed", range(4))
    def test_relabelled_cp2(self, seed):
        K = relabelled(fixtures.cp2_9(), seed)
        assert signature(K) == 1
        assert signature(K.reversed_orientation()) == -1

    def test_sigma_equals_chi_mod_2(self):
        for K in (fixtures.cp2_9(), orient(fixtures.sphere4()),
                  disjoint_union(fixtures.cp2_9(), fixtures.cp2_9())):
            assert (signature(K) - euler_characteristic(K)) % 2 == 0

    def test_sk_pair_cross_check(self):
        # ((chi - sigma)/2, sigma) = (1, 1) for the projective plane
        K = fixtures.cp2_9()
        chi, sigma = euler_characteristic(K), signature(K)
        assert ((chi - sigma) // 2, sigma) == (1, 1)
