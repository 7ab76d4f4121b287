"""Simplicial complexes: fixtures, homology, orientation, semicharacteristic."""

import itertools
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from skkinv import fixtures
from skkinv.exact_linalg import independent_modulo, left_kernel, smith_normal_form
from skkinv.simplicial import (
    MAX_CLOSURE,
    ChainComplex,
    ComplexFormatError,
    DimensionMismatch,
    NotClosed,
    NotOrientable,
    OddEulerCharacteristic,
    SimplicialComplex,
    boundary_matrix,
    check_orientation,
    complex_from_json,
    complex_to_json,
    disjoint_union,
    euler_characteristic,
    homology,
    kervaire_semicharacteristic,
    orient,
    validate_closed,
)


def face_incidence_oracle(K):
    """Brute-force face counting: every (dim-1)-face in exactly two facets."""
    counter = {}
    for facet in K.facets:
        for face in itertools.combinations(facet, K.dim):
            counter[face] = counter.get(face, 0) + 1
    return counter


def signed_boundary_oracle(K, signs):
    """Brute-force signed boundary: each facet's codimension-1 faces, summed
    with the facet's sign times (-1) ** (omitted position)."""
    boundary = {}
    for sign, facet in zip(signs, K.facets):
        for omit in range(len(facet)):
            face = facet[:omit] + facet[omit + 1:]
            boundary[face] = boundary.get(face, 0) + sign * (-1) ** omit
    return boundary


def closure_oracle(K):
    """Brute-force facet closure: the sorted k-simplices for each k."""
    return [sorted({c for f in K.facets for c in itertools.combinations(f, k + 1)})
            for k in range(K.dim + 1)]


def boundary_oracle(K, k):
    """Rows of the degree-k boundary matrix, read off the brute-force closure."""
    cells = closure_oracle(K)
    rows = [[0] * len(cells[k]) for _ in cells[k - 1]]
    for j, c in enumerate(cells[k]):
        for i in range(len(c)):
            rows[cells[k - 1].index(c[:i] + c[i + 1:])][j] += (-1) ** i
    return rows


def rank_mod2_oracle(rows):
    """Rank over GF(2): plain elimination on the rows as bitmasks."""
    masks = [sum((x & 1) << j for j, x in enumerate(r)) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        bit = 1 << c
        piv = next((i for i in range(rank, len(masks)) if masks[i] & bit), None)
        if piv is None:
            continue
        masks[rank], masks[piv] = masks[piv], masks[rank]
        for i in range(len(masks)):
            if i != rank and masks[i] & bit:
                masks[i] ^= masks[rank]
        rank += 1
    return rank


def relabelled(K, seed):
    """K without signs, its vertices renamed by a seeded random injection."""
    rng = random.Random(seed)
    verts = K.vertices()
    rename = dict(zip(verts, rng.sample(range(3 * len(verts)), len(verts))))
    return SimplicialComplex.from_facets(K.dim, [[rename[v] for v in f] for f in K.facets])


def _variants():
    """Every fixture and two points, a relabelling of each, and each with its
    first facet removed."""
    out = {}
    points = {"points2": lambda: SimplicialComplex.from_facets(0, [(0,), (1,)])}
    for name, make in {**fixtures.FIXTURES, **points}.items():
        K = make()
        out[name] = K
        out[f"{name}~relabelled"] = relabelled(K, 1)
        out[f"{name}~punctured"] = SimplicialComplex(K.dim, K.facets[1:])
    return out


COMPLEXES = _variants()
ORIENTABLE = [n for n in COMPLEXES if "punctured" not in n and "projective" not in n]


def wedge(K1, K2):
    """K1 and K2 joined at one vertex: K2's first vertex, shifted as in
    `disjoint_union`, renamed to K1's first vertex."""
    glued = max(K1.vertices()) + 1 + K2.vertices()[0]
    facets = [[K1.vertices()[0] if v == glued else v for v in f]
              for f in disjoint_union(K1, K2).facets]
    return SimplicialComplex.from_facets(K1.dim, facets)


def _closed_sums():
    """Closed complexes made of relabelled fixtures by disjoint unions and
    vertex wedges, each with its number of orientable pieces."""
    T, S2, RP2, S4, CP2 = (relabelled(make(), seed) for seed, make in enumerate(
        (fixtures.torus7, fixtures.sphere2, fixtures.projective_plane6,
         fixtures.sphere4, fixtures.cp2_9)))
    T2 = relabelled(T, 7)
    return {
        "torus+torus": (disjoint_union(T, T2), 2),
        "torus+rp2": (disjoint_union(T, RP2), 1),
        "rp2+sphere2+torus": (disjoint_union(disjoint_union(RP2, S2), T), 2),
        "torus^torus": (wedge(T, T2), 2),
        "torus^sphere2^rp2": (wedge(wedge(T, S2), RP2), 2),
        "rp2^rp2": (wedge(RP2, relabelled(RP2, 9)), 0),
        "cp2+sphere4": (disjoint_union(CP2, S4), 2),
        "cp2^sphere4": (wedge(CP2, S4), 2),
        "sphere4^sphere4+sphere4": (disjoint_union(wedge(S4, S4), S4), 3),
    }


CLOSED_SUMS = _closed_sums()


class TestFaceIndex:
    @pytest.mark.parametrize("name", list(COMPLEXES))
    def test_against_brute_force(self, name):
        K = COMPLEXES[name]
        cells = closure_oracle(K)
        for k in range(-1, K.dim + 2):
            assert K.simplices(k) == (tuple(cells[k]) if 0 <= k <= K.dim else ())
        closed = all(c == 2 for c in face_incidence_oracle(K).values())
        assert closed == ("punctured" not in name)
        assert validate_closed(K) == closed
        assert euler_characteristic(K) == sum((-1) ** k * len(c) for k, c in enumerate(cells))
        for k in range(1, K.dim + 1):
            assert boundary_matrix(K, k).to_rows() == boundary_oracle(K, k)
        # faces[k][i][j]: the position in cells[k - 1] of cells[k][i] without its vertex j
        faces = [[()] * len(cells[0])] + [
            [tuple(cells[k - 1].index(c[:j] + c[j + 1:]) for j in range(k + 1)) for c in cells[k]]
            for k in range(1, K.dim + 1)]
        assert ChainComplex(K).faces == faces
        index = K.face_index
        assert index.faces == faces
        # cofaces[k][i]: the positions in cells[k + 1] of the cells containing cells[k][i]
        assert index.cofaces == [
            [[i for i, c in enumerate(cells[k + 1]) if set(f) < set(c)] if k < K.dim else []
             for f in cells[k]]
            for k in range(K.dim + 1)]
        # each codimension-1 face: (facet index, omitted vertex position), in facet order
        ridges = {}
        for i, f in enumerate(K.facets):
            for omit in range(len(f)):
                ridges.setdefault(f[:omit] + f[omit + 1:], []).append((i, omit))
        assert index.ridges == ridges

    @pytest.mark.parametrize("name", [n for n in COMPLEXES if n not in ORIENTABLE])
    def test_orient_rejects(self, name):
        error = NotClosed if "punctured" in name else NotOrientable
        with pytest.raises(error):
            orient(COMPLEXES[name])


class TestValidateClosed:
    def test_sphere_boundary(self):
        assert validate_closed(fixtures.sphere2())

    def test_single_triangle(self):
        K = SimplicialComplex.from_facets(2, [(0, 1, 2)])
        assert not validate_closed(K)

    def test_torus_with_oracle(self):
        T = fixtures.torus7()
        counts = face_incidence_oracle(T)
        assert len(T.vertices()) == 7
        assert len(T.simplices(1)) == 21
        assert len(T.facets) == 14
        assert all(c == 2 for c in counts.values())
        assert validate_closed(T)


class TestOrient:
    def test_sphere_orientable(self):
        oriented = orient(fixtures.sphere2())
        assert oriented.orientations is not None

    def test_projective_plane_not_orientable(self):
        with pytest.raises(NotOrientable):
            orient(fixtures.projective_plane6())

    def test_torus_orientable(self):
        assert orient(fixtures.torus7()).orientations is not None

    def test_requires_closed(self):
        K = SimplicialComplex.from_facets(2, [(0, 1, 2)])
        with pytest.raises(NotClosed):
            orient(K)
        with pytest.raises(NotClosed):
            check_orientation(SimplicialComplex(2, K.facets, (1,)))

    def test_shares_the_face_index(self):
        K = fixtures.torus7()
        oriented = orient(K)
        assert oriented.face_index is K.face_index
        assert oriented.pieces is K.pieces
        assert oriented.reversed_orientation().face_index is K.face_index
        assert oriented.reversed_orientation().pieces is K.pieces
        assert oriented == SimplicialComplex(K.dim, K.facets, oriented.orientations)
        # the incidences are built once, kept on the index and only read
        faces, cofaces = K.face_index.faces, K.face_index.cofaces
        before = repr((faces, cofaces))
        for copy in (oriented, oriented.reversed_orientation()):
            assert copy.face_index.faces is faces
            assert copy.face_index.cofaces is cofaces
            assert ChainComplex(copy).faces is faces
        assert repr((faces, cofaces)) == before

    @pytest.mark.parametrize("name", list(CLOSED_SUMS))
    def test_pieces_against_brute_force(self, name):
        K, orientable = CLOSED_SUMS[name]
        # facets sharing a codimension-1 face, merged until nothing changes
        label = list(range(len(K.facets)))
        for _ in K.facets:
            for i, j in itertools.combinations(range(len(K.facets)), 2):
                if len(set(K.facets[i]) & set(K.facets[j])) == K.dim:
                    label[i] = label[j] = min(label[i], label[j])
        first = sorted(set(label))
        pieces = K.pieces
        assert pieces.first == tuple(first)
        assert pieces.piece == tuple(first.index(x) for x in label)
        assert all(pieces.signs[i] == 1 for i in first)
        assert sum(pieces.orientable) == orientable
        if all(pieces.orientable):
            # a piece's orientation is unique once its first facet has +1
            check_orientation(orient(K))
            assert orient(K).orientations == pieces.signs
        else:
            with pytest.raises(NotOrientable):
                orient(K)

    @pytest.mark.parametrize("complex_name", ORIENTABLE)
    def test_signed_boundary_vanishes(self, complex_name):
        K = orient(COMPLEXES[complex_name])
        check_orientation(K)
        flipped = SimplicialComplex(K.dim, K.facets, (-K.orientations[0],) + K.orientations[1:])
        with pytest.raises(NotOrientable):
            check_orientation(flipped)
        assert all(total == 0 for total in signed_boundary_oracle(K, K.orientations).values())

    @pytest.mark.parametrize("name", list(CLOSED_SUMS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_check_orientation_against_signed_boundary(self, name, data):
        # random signs, the walk's signs flipped per piece, and those with one facet flipped
        K, _ = CLOSED_SUMS[name]
        pieces, count = K.pieces, len(K.facets)
        flips = data.draw(st.lists(st.sampled_from((1, -1)), min_size=len(pieces.first),
                                   max_size=len(pieces.first)))
        signs = [s * flips[p] for s, p in zip(pieces.signs, pieces.piece)]
        kind = data.draw(st.sampled_from(["random", "per piece", "one flipped"]))
        if kind == "random":
            signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=count,
                                       max_size=count))
        elif kind == "one flipped":
            signs[data.draw(st.integers(0, count - 1))] *= -1
        signed = SimplicialComplex(K.dim, K.facets, tuple(signs))
        if any(signed_boundary_oracle(K, signs).values()):
            with pytest.raises(NotOrientable, match="orientation"):
                check_orientation(signed)
        else:
            check_orientation(signed)


class TestEulerCharacteristic:
    def test_sphere(self):
        assert euler_characteristic(fixtures.sphere2()) == 4 - 6 + 4 == 2

    def test_torus(self):
        assert euler_characteristic(fixtures.torus7()) == 7 - 21 + 14 == 0

    def test_disjoint_spheres(self):
        two = disjoint_union(fixtures.sphere2(), fixtures.sphere2())
        assert euler_characteristic(two) == 4

    def test_cp2(self):
        assert euler_characteristic(fixtures.cp2_9()) == 9 - 36 + 84 - 90 + 36 == 3


class TestHomology:
    @pytest.mark.parametrize("name,betti", [
        ("sphere2", (1, 0, 1)),
        ("sphere3", (1, 0, 0, 1)),
        ("sphere4", (1, 0, 0, 0, 1)),
        ("torus7", (1, 2, 1)),
        ("cp2_9", (1, 0, 1, 0, 1)),
    ])
    def test_betti_integers(self, name, betti):
        profile = homology(fixtures.FIXTURES[name]())
        assert profile.betti == betti
        assert all(t == () for t in profile.torsion)

    def test_projective_plane_torsion(self):
        profile = homology(fixtures.projective_plane6())
        assert profile.betti == (1, 0, 0)
        assert profile.torsion == ((), (2,), ())

    def test_rationals_match_integer_betti(self):
        for name in fixtures.FIXTURES:
            K = fixtures.FIXTURES[name]()
            assert homology(K, "rationals").betti == homology(K).betti

    def test_mod2_ranks_dominate(self):
        for name in ("projective_plane6", "torus7", "sphere2"):
            K = fixtures.FIXTURES[name]()
            mod2 = homology(K, "mod2").betti
            rational = homology(K, "rationals").betti
            assert all(m >= r for m, r in zip(mod2, rational))

    @pytest.mark.parametrize("name", list(COMPLEXES))
    def test_mod2_betti_exact(self, name):
        K = COMPLEXES[name]
        cells = closure_oracle(K)
        ranks = [0] + [rank_mod2_oracle(boundary_oracle(K, k)) for k in range(1, K.dim + 1)] + [0]
        reference = tuple(len(cells[k]) - ranks[k] - ranks[k + 1] for k in range(K.dim + 1))
        mod2 = homology(K, "mod2")
        assert mod2.betti == reference
        assert mod2.torsion == ((),) * (K.dim + 1)
        # universal coefficients: each even invariant factor of H_k adds one
        # Z/2 to H_k (tensor) and one to H_{k+1} (Tor)
        integral = homology(K)
        even = [sum(1 for d in t if d % 2 == 0) for t in integral.torsion]
        assert reference == tuple(b + even[k] + (even[k - 1] if k else 0)
                                  for k, b in enumerate(integral.betti))

    def test_chi_equals_alternating_betti(self):
        for name in fixtures.FIXTURES:
            K = fixtures.FIXTURES[name]()
            betti = homology(K, "rationals").betti
            assert euler_characteristic(K) == sum(
                (-1) ** k * b for k, b in enumerate(betti)
            )

    def test_poincare_duality_on_closed_orientable(self):
        for name in ("sphere2", "sphere3", "sphere4", "torus7", "cp2_9"):
            K = fixtures.FIXTURES[name]()
            betti = homology(K, "rationals").betti
            assert betti == tuple(reversed(betti))

    def test_unknown_coefficients(self):
        with pytest.raises(ValueError):
            homology(fixtures.sphere2(), "mod3")


def matrix_product(rows, A):
    """The integer rows times the matrix A, as a list of rows."""
    a = A.to_rows()
    return [[sum(x * a[i][j] for i, x in enumerate(r)) for j in range(A.cols)] for r in rows]


def reference_homology(K, coefficients="integers"):
    """Betti numbers and torsion from Smith normal forms of the full boundary
    matrices, with no reduction."""
    n = K.dim
    ranks = [0] * (n + 2)
    torsion = [()] * (n + 1)
    for k in range(1, n + 1):
        diag = smith_normal_form(boundary_matrix(K, k))
        ranks[k] = sum(d % 2 for d in diag) if coefficients == "mod2" else len(diag)
        if coefficients == "integers":
            torsion[k - 1] = tuple(d for d in diag if d > 1)
    betti = tuple(len(K.simplices(k)) - ranks[k] - ranks[k + 1] for k in range(n + 1))
    return betti, tuple(torsion)


def cone(K):
    """The cone on K: one new apex joined to every facet."""
    apex = max(K.vertices()) + 1
    return SimplicialComplex.from_facets(K.dim + 1, [f + (apex,) for f in K.facets])


@st.composite
def pure_complexes(draw, dim):
    """A random set of dim-simplices on a few vertices; most are not closed."""
    vertices = draw(st.integers(dim + 1, dim + 4))
    candidates = list(itertools.combinations(range(vertices), dim + 1))
    facets = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=14, unique=True))
    return SimplicialComplex.from_facets(dim, facets)


def suspension(K):
    """Two cones on K glued along K: homology and torsion move up one degree."""
    top, bottom = max(K.vertices()) + 1, max(K.vertices()) + 2
    return SimplicialComplex.from_facets(
        K.dim + 1, [f + (apex,) for f in K.facets for apex in (top, bottom)])


@st.composite
def random_complexes(draw):
    kind = draw(st.sampled_from(["pure", "cone", "union", "suspension"]))
    if kind == "cone":
        return cone(draw(pure_complexes(draw(st.integers(1, 3)))))
    if kind == "suspension":
        base = draw(st.one_of(pure_complexes(draw(st.integers(1, 3))),
                              st.sampled_from([fixtures.projective_plane6(), fixtures.torus7()])))
        return suspension(base)
    dim = draw(st.integers(1, 4))
    if kind == "union":
        return disjoint_union(draw(pure_complexes(dim)), draw(pure_complexes(dim)))
    return draw(pure_complexes(dim))


class TestReduction:
    """The reduced chain complex against the full boundary matrices."""

    @staticmethod
    def assert_matches_reference(K):
        for coefficients in ("integers", "rationals", "mod2"):
            profile = homology(K, coefficients)
            betti, torsion = reference_homology(K, coefficients)
            assert profile.betti == betti, coefficients
            assert profile.torsion == torsion, coefficients

    @pytest.mark.parametrize("name", list(COMPLEXES))
    def test_fixtures_match_full_matrices(self, name):
        self.assert_matches_reference(COMPLEXES[name])

    @settings(max_examples=150, deadline=None)
    @given(random_complexes())
    def test_random_complexes_match_full_matrices(self, K):
        self.assert_matches_reference(K)

    @settings(max_examples=60, deadline=None)
    @given(random_complexes())
    def test_cocycles_extend_to_the_full_complex(self, K):
        self.assert_cocycles_extend(K)

    @staticmethod
    def assert_cocycles_extend(K):
        # a rational basis of H^k of the reduced complex, extended over the
        # removed cells, is a rational basis of H^k of K
        chain = ChainComplex(K)
        betti = homology(K, "rationals").betti
        for k in range(1, K.dim):
            cocycles = left_kernel(chain.boundary(k + 1))
            reps = [chain.cocycle(k, z) for z in independent_modulo(chain.boundary(k), cocycles)]
            assert len(reps) == betti[k]
            if reps:
                product = matrix_product(reps, boundary_matrix(K, k + 1))
                assert all(x == 0 for row in product for x in row)
                reps = [{i: x for i, x in enumerate(r) if x} for r in reps]
                assert independent_modulo(boundary_matrix(K, k), reps) == reps

    @staticmethod
    def assert_boundary_restricts_the_full_map(K):
        # the reduced map is the full one on the surviving rows and columns,
        # and its row dicts store no 0
        chain = ChainComplex(K)
        for k in range(1, K.dim + 1):
            reduced = chain.boundary(k)
            assert (reduced.rows, reduced.cols) == (len(chain.survivors[k - 1]),
                                                    len(chain.survivors[k]))
            full = boundary_matrix(K, k).to_rows()
            assert reduced.to_rows() == [[full[r][c] for c in chain.survivors[k]]
                                         for r in chain.survivors[k - 1]]
            assert all(all(row.values()) for row in reduced.entries)

    @settings(max_examples=100, deadline=None)
    @given(random_complexes())
    def test_random_boundaries_restrict_the_full_map(self, K):
        self.assert_boundary_restricts_the_full_map(K)

    @settings(max_examples=100, deadline=None)
    @given(random_complexes())
    @example(SimplicialComplex.from_facets(3, [(0, 2, 4, 7), (0, 4, 6, 7), (1, 3, 4, 5), (2, 3, 6, 7)]))
    def test_no_pair_is_left(self, K):
        # the example stalls after the coreductions from the removed vertex;
        # the sweep leaves one edge
        chain = ChainComplex(K)
        alive = [set(cells) for cells in chain.survivors]
        incidences = [(k, i, f) for k in range(1, K.dim + 1) for i in alive[k]
                      for f in chain.faces[k][i] if f in alive[k - 1]]
        faces = Counter((k, i) for k, i, _ in incidences)
        cofaces = Counter((k - 1, f) for k, _, f in incidences)
        assert all(faces[k, i] != 1 and cofaces[k, i] != 1
                   for k, cells in enumerate(alive) for i in cells)

    def test_removes_cells_in_pairs(self):
        for K in (fixtures.cp2_9(), cone(fixtures.torus7()), fixtures.projective_plane6()):
            chain = ChainComplex(K)
            removed = [(k, a) for k, a, _ in chain.pairs] + [(k + 1, b) for k, _, b in chain.pairs]
            survivors = [(k, i) for k, cells in enumerate(chain.survivors) for i in cells]
            assert len(set(removed)) == len(removed) == 2 * len(chain.pairs)
            assert chain.components + chain.fundamental + len(removed) + len(survivors) == sum(
                len(c) for c in K.face_index.cells)

    def test_cone_reduces_to_nothing(self):
        for K in (cone(fixtures.torus7()), cone(fixtures.projective_plane6()),
                  SimplicialComplex.from_facets(9, [tuple(range(10))])):
            chain = ChainComplex(K)
            assert chain.components == 1
            assert all(cells == [] for cells in chain.survivors)

    def test_closed_sphere_reduces_to_nothing(self):
        for d in (2, 3, 4):
            chain = ChainComplex(fixtures.simplex_boundary(d + 1))
            assert (chain.components, chain.fundamental) == (1, 1)
            assert [len(cells) for cells in chain.survivors] == [0] * (d + 1)

    @pytest.mark.parametrize("name", list(CLOSED_SUMS))
    def test_closed_sums_match_full_matrices(self, name):
        # one facet goes from each orientable piece, none from the others
        K, orientable = CLOSED_SUMS[name]
        assert validate_closed(K)
        assert ChainComplex(K).fundamental == orientable
        self.assert_matches_reference(K)
        self.assert_cocycles_extend(K)
        self.assert_boundary_restricts_the_full_map(K)

    @pytest.mark.parametrize("name,survivors", [
        ("torus7", [0, 2, 0]),
        ("cp2_9", [0, 0, 1, 0, 0]),
        ("projective_plane6", [0, 5, 5]),
    ])
    def test_closed_fixtures_reduce_to_few_cells(self, name, survivors):
        chain = ChainComplex(fixtures.FIXTURES[name]())
        assert [len(cells) for cells in chain.survivors] == survivors
        assert chain.fundamental == (name != "projective_plane6")

    def test_points_keep_their_vertices(self):
        # in dimension 0 the empty face is the codimension-1 face: two points
        # close it and one or three do not, but it is no face to walk through
        for count in (1, 2, 3):
            K = SimplicialComplex.from_facets(0, [(v,) for v in range(count)])
            assert validate_closed(K) == (count == 2)
            chain = ChainComplex(K)
            assert (chain.components, chain.fundamental, chain.survivors) == (count, 0, [[]])
            assert homology(K).betti == (count,)

    def test_suspension_moves_torsion_up(self):
        profile = homology(suspension(fixtures.projective_plane6()))
        assert profile.betti == (1, 0, 0, 0)
        assert profile.torsion == ((), (), (2,), ())

    def test_empty_and_zero_dimensional(self):
        assert homology(SimplicialComplex.from_facets(2, [])).betti == (0, 0, 0)
        points = SimplicialComplex.from_facets(0, [(3,), (5,), (9,)])
        assert homology(points).betti == (3,)
        assert ChainComplex(points).components == 3


class TestKervaireSemicharacteristic:
    def test_sphere(self):
        assert kervaire_semicharacteristic(fixtures.sphere2()) == 1

    def test_circle(self):
        assert kervaire_semicharacteristic(fixtures.circle()) == 1

    def test_sphere3(self):
        assert kervaire_semicharacteristic(fixtures.sphere3()) == 1

    def test_two_circles_even(self):
        two = disjoint_union(fixtures.circle(), fixtures.circle())
        assert kervaire_semicharacteristic(two) == 0

    def test_odd_chi_rejected(self):
        with pytest.raises(OddEulerCharacteristic):
            kervaire_semicharacteristic(fixtures.cp2_9())

    def test_requires_closed(self):
        K = SimplicialComplex.from_facets(2, [(0, 1, 2)])
        with pytest.raises(NotClosed):
            kervaire_semicharacteristic(K)

    def test_additive_under_disjoint_union(self):
        a, b = fixtures.sphere2(), fixtures.torus7()
        union = disjoint_union(a, b)
        assert kervaire_semicharacteristic(union) == (
            kervaire_semicharacteristic(a) + kervaire_semicharacteristic(b)
        )
        odd_a, odd_b = fixtures.circle(3), fixtures.circle(4)
        union = disjoint_union(odd_a, odd_b)
        assert kervaire_semicharacteristic(union) == (
            kervaire_semicharacteristic(odd_a) + kervaire_semicharacteristic(odd_b)
        ) % 2


class TestDisjointUnion:
    def test_betti_add(self):
        union = disjoint_union(fixtures.sphere2(), fixtures.torus7())
        assert homology(union).betti == (2, 2, 2)

    def test_empty_identity(self):
        empty = SimplicialComplex.from_facets(2, [])
        K = fixtures.torus7()
        assert disjoint_union(K, empty) == K

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            disjoint_union(fixtures.sphere2(), fixtures.sphere3())


class TestComplexFormat:
    def test_round_trip(self):
        K = fixtures.cp2_9()
        assert complex_from_json(complex_to_json(K)) == K

    def test_unknown_field_rejected(self):
        with pytest.raises(ComplexFormatError):
            complex_from_json('{"dim": 2, "facets": [[0,1,2]], "color": "red"}')

    def test_missing_fields_rejected(self):
        with pytest.raises(ComplexFormatError):
            complex_from_json('{"dim": 2}')

    def test_bad_orientations_rejected(self):
        with pytest.raises(ComplexFormatError):
            complex_from_json('{"dim": 2, "facets": [[0,1,2]], "orientations": [2]}')

    @pytest.mark.parametrize("text", [
        '{"dim": true, "facets": [[0,1]]}',                             # boolean dimension
        '{"dim": 1, "facets": [[0,true]]}',                             # boolean vertex
        '{"dim": 1, "facets": [[0,1]], "orientations": [true]}',        # boolean sign
        '{"dim": -1, "facets": []}',                                    # negative dimension
        '{"dim": 1.0, "facets": [[0,1]]}',                              # non-integer dimension
        '{"dim": 1, "facets": [[0,1.0]]}',                              # non-integer vertices
        '{"dim": 1, "facets": [[0,"1"]]}',
        '{"dim": 1, "facets": [[0,[1]]]}',
    ])
    def test_booleans_and_negative_dimension_rejected(self, text):
        with pytest.raises(ComplexFormatError):
            complex_from_json(text)

    def test_invalid_json_rejected(self):
        with pytest.raises(ComplexFormatError):
            complex_from_json("{not json")

    def test_empty_facet_list_rejected(self):
        # a document without facets must not make the face index pay for `dim`
        with pytest.raises(ComplexFormatError):
            complex_from_json('{"dim": 100000, "facets": []}')
        assert SimplicialComplex.from_facets(3, []).simplices(2) == ()

    def test_closure_bound(self):
        # one facet of 18 vertices: 2**18 faces, rejected before any is enumerated
        with pytest.raises(ComplexFormatError, match="closure"):
            complex_from_json(json.dumps({"dim": 17, "facets": [list(range(18))]}))
        # a facet of 17 vertices sits exactly at the bound
        assert MAX_CLOSURE == 1 << 17
        at_bound = complex_from_json(json.dumps({"dim": 16, "facets": [list(range(17))]}))
        assert at_bound.dim == 16
        for name, factory in fixtures.FIXTURES.items():
            assert sum(1 << len(f) for f in factory().facets) * 50 < MAX_CLOSURE, name

    def test_duplicate_facets_rejected(self):
        with pytest.raises(ComplexFormatError):
            complex_from_json('{"dim": 2, "facets": [[0,1,2],[2,1,0]]}')

    @pytest.mark.parametrize("signs", [[1], [1, -1], [1, -1, 1, -1, 1]])
    def test_orientation_count_mismatch_rejected(self, signs):
        # the four facets of the boundary of the 3-simplex; no facet or sign is dropped
        doc = {"dim": 2, "facets": [list(f) for f in fixtures.sphere2().facets],
               "orientations": signs}
        with pytest.raises(ComplexFormatError,
                           match="^orientation count does not match facet count$"):
            complex_from_json(json.dumps(doc))
        with pytest.raises(ValueError, match="^orientation count does not match facet count$"):
            SimplicialComplex.from_facets(2, doc["facets"], signs)


class TestConstructionRefusals:
    @pytest.mark.parametrize("dim, facets, signs, message", [
        (2, ((0, 1),), None, "facet (0, 1) does not have 3 distinct vertices"),
        (2, ((0, 1, 2, 3),), None, "facet (0, 1, 2, 3) does not have 3 distinct vertices"),
        (2, ((0, 0, 1),), None, "facet (0, 0, 1) does not have 3 distinct vertices"),
        (2, ((0, 2, 1),), None, "facet (0, 2, 1) is not sorted"),
        (2, ((0, 1, 2), (0, 1, 2)), None, "duplicate facet (0, 1, 2)"),
        (2, ((0, 1, 3), (0, 1, 2)), None, "facet list is not sorted; use from_facets"),
        # the first facet at fault decides, and a facet fault before a list fault
        (2, ((0, 1, 3), (0, 1, 2), (4, 4, 5)), None,
         "facet (4, 4, 5) does not have 3 distinct vertices"),
        (2, ((0, 1, 2), (0, 1, 3)), (1,), "orientation count does not match facet count"),
        (2, ((0, 1, 2),), (1, -1), "orientation count does not match facet count"),
        (2, ((0, 1, 2),), (2,), "orientation signs must be +1 or -1"),
        (2, ((0, 1, 2),), (0,), "orientation signs must be +1 or -1"),
    ])
    def test_message(self, dim, facets, signs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimplicialComplex(dim, facets, signs)

    def test_oriented_copy_checks_its_signs(self):
        K = fixtures.torus7()
        with pytest.raises(ValueError, match="^orientation signs must be \\+1 or -1$"):
            K._with_orientations((2,) * len(K.facets))
        with pytest.raises(ValueError, match="^orientation count does not match facet count$"):
            K._with_orientations((1,))
