"""Symbolic piece calculus: gluing, doubles, close-up, and catalogs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from skkinv import surfaces as sf
from skkinv import virtual_bordism as vb

seeds = st.integers(min_value=0, max_value=2 ** 31)


def disk2():
    return vb.piece(2, 1, boundary=("S1",), name="D2")


class TestGlue:
    def test_two_disks_sphere(self):
        glued = vb.glue(disk2(), disk2(), ((0, 0),))
        assert glued.is_closed
        assert glued.chi == 2

    def test_two_d4_sphere(self):
        d4 = vb.piece(4, 1, boundary=("S3",), name="D4")
        glued = vb.glue(d4, d4, ((0, 0),))
        assert (glued.chi, glued.sigma) == (2, 0)

    def test_empty_matching_is_disjoint_union(self):
        cp2 = vb.piece(4, 3, sigma=1, name="CP2")
        both = vb.glue(cp2, vb.reverse(cp2), ())
        assert (both.chi, both.sigma) == (6, 0)
        assert len(both.boundary) == 0

    def test_label_name_must_match(self):
        a = vb.piece(4, 1, boundary=("S3",))
        b = vb.piece(4, 1, boundary=("L(7,1)",))
        with pytest.raises(vb.LabelMismatch):
            vb.glue(a, b, ((0, 0),))

    def test_dimension_mismatch(self):
        with pytest.raises(vb.DimensionMismatch):
            vb.glue(disk2(), vb.piece(4, 1, boundary=("S3",)), ())

    def test_double_use_rejected(self):
        a = vb.piece(2, 0, boundary=("S1", "S1"))
        b = vb.piece(2, 0, boundary=("S1", "S1"))
        with pytest.raises(vb.LabelMismatch):
            vb.glue(a, b, ((0, 0), (0, 1)))

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_associative_at_invariant_level(self, seed):
        rng = random.Random(seed)
        a = vb.piece(4, rng.randrange(-5, 6), sigma=rng.randrange(-3, 4),
                     boundary=("S3",))
        b = vb.piece(4, rng.randrange(-5, 6), sigma=rng.randrange(-3, 4),
                     boundary=("S3", "S3"))
        c = vb.piece(4, rng.randrange(-5, 6), sigma=rng.randrange(-3, 4),
                     boundary=("S3",))
        left = vb.glue(vb.glue(a, b, ((0, 0),)), c, ((0, 0),))
        right = vb.glue(a, vb.glue(b, c, ((1, 0),)), ((0, 0),))
        assert (left.chi, left.sigma) == (right.chi, right.sigma)

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_commutative_at_invariant_level(self, seed):
        rng = random.Random(seed)
        boundary = tuple("S3" for _ in range(rng.randrange(1, 4)))
        p = vb.piece(4, rng.randrange(-5, 6), sigma=rng.randrange(-3, 4), boundary=boundary)
        q = vb.piece(4, rng.randrange(-5, 6), sigma=rng.randrange(-3, 4), boundary=boundary)
        matching = vb.match_all_by_name(p, q)
        ab = vb.glue(p, q, matching)
        ba = vb.glue(q, p, matching)
        assert (ab.chi, ab.sigma) == (ba.chi, ba.sigma)


class TestReverse:
    def test_sigma_flips(self):
        cp2 = vb.piece(4, 3, sigma=1, name="CP2")
        assert vb.reverse(cp2).sigma == -1
        assert vb.reverse(cp2).chi == 3

    def test_involution(self):
        p = vb.piece(4, 2, sigma=2, boundary=("S3", "-S3"))
        assert vb.reverse(vb.reverse(p)).boundary == p.boundary
        assert vb.reverse(vb.reverse(p)).sigma == p.sigma

    def test_sphere_symmetric(self):
        s4 = vb.piece(4, 2, name="S4")
        assert vb.reverse(s4).sigma == s4.sigma == 0


class TestDouble:
    def test_d4(self):
        d4 = vb.piece(4, 1, boundary=("S3",), name="D4")
        doubled = vb.double(d4)
        assert (doubled.chi, doubled.sigma) == (2, 0)
        assert doubled.is_closed

    def test_closed_piece(self):
        cp2 = vb.piece(4, 3, sigma=1, name="CP2")
        doubled = vb.double(cp2)
        assert (doubled.chi, doubled.sigma) == (6, 0)

    def test_pants_matches_surface_double(self):
        pants = vb.piece(2, -1, boundary=("S1", "S1", "S1"))
        assert vb.double(pants).chi == -2
        assert vb.double(pants).chi == sf.chi(sf.double(sf.pair_of_pants()))

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_sigma_zero_chi_doubles(self, seed):
        rng = random.Random(seed)
        boundary = tuple("S3" for _ in range(rng.randrange(0, 4)))
        p = vb.piece(4, rng.randrange(-5, 6), sigma=rng.randrange(-3, 4), boundary=boundary)
        doubled = vb.double(p)
        assert doubled.sigma == 0
        assert doubled.chi == 2 * p.chi


class TestCloseUp:
    def test_dim2_genus_tube_closes_to_torus(self):
        catalog = vb.dim2_catalog()
        tube = vb.piece(2, -2, boundary=("S1", "S1"))
        closed = vb.close_up(tube, ("S1",), ("S1",), catalog)
        assert closed.chi == 0  # -2 + 1 + 1

    def test_dim8_disk_choice(self):
        catalog = vb.dim8_catalog()
        d8 = catalog.piece("D8")
        closed = vb.close_up(d8, (), ("S7",), catalog)
        assert closed.name == "S8"
        assert closed.attribute("p2") == 0

    def test_dim8_projective_choice(self):
        catalog = vb.dim8_catalog().with_b_sigma("S7", "CP4_minus_D8")
        d8 = catalog.piece("D8")
        closed = vb.close_up(d8, (), ("S7",), catalog)
        assert closed.name == "CP4"
        assert closed.attribute("p2") == 10

    def test_closed_piece_gives_l_copies(self):
        catalog = vb.dim2_catalog()
        torus = vb.piece(2, 0, name="T2")
        out = vb.close_up(torus, (), (), catalog)
        assert out.chi == catalog.l * torus.chi
        assert out.parts == tuple(["T2"] * catalog.l)

    def test_missing_capping_piece(self):
        catalog = vb.dim2_catalog()
        exotic = vb.piece(2, 0, boundary=("K",))
        with pytest.raises(vb.MissingBSigma):
            vb.close_up(exotic, ("K",), (), catalog)

    def test_split_must_cover_boundary(self):
        catalog = vb.dim2_catalog()
        tube = vb.piece(2, -2, boundary=("S1", "S1"))
        with pytest.raises(vb.LabelMismatch):
            vb.close_up(tube, ("S1",), (), catalog)


class TestLemmaRelation:
    def test_dim2_pants_like(self):
        boundary = ("S1", "S1")
        x1 = vb.piece(2, -2, boundary=boundary)
        x2 = vb.piece(2, 0, boundary=boundary)
        x3 = vb.piece(2, -4, boundary=boundary)
        assert vb.lemma_relation_check(x1, x2, x3, "chi")

    def test_dim4_sigma(self):
        boundary = ("S3",)
        x1 = vb.piece(4, 1, sigma=2, boundary=boundary)
        x2 = vb.piece(4, 0, sigma=-1, boundary=boundary)
        x3 = vb.piece(4, 3, sigma=1, boundary=boundary)
        assert vb.lemma_relation_check(x1, x2, x3, "sigma")

    def test_empty_middle_piece(self):
        empty = vb.piece(4, 0)
        x1 = vb.piece(4, 2, sigma=1)
        x3 = vb.piece(4, -1, sigma=-2)
        assert vb.lemma_relation_check(x1, empty, x3, "chi")
        assert vb.lemma_relation_check(x1, empty, x3, "sigma")

    def test_boundary_mismatch_rejected(self):
        x1 = vb.piece(4, 1, boundary=("S3",))
        x2 = vb.piece(4, 1, boundary=("S3", "S3"))
        with pytest.raises(vb.LabelMismatch):
            vb.lemma_relation_check(x1, x2, x1, "chi")

    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_random_triples(self, seed):
        rng = random.Random(seed)
        dim = rng.choice((2, 4))
        names = ("S1",) if dim == 2 else ("S3", "RP3")
        boundary = tuple(rng.choice(names) for _ in range(rng.randrange(1, 4)))
        def rand_piece():
            sigma = rng.randrange(-3, 4) if dim == 4 else 0
            return vb.piece(dim, rng.randrange(-6, 7), sigma=sigma, boundary=boundary)
        x1, x2, x3 = rand_piece(), rand_piece(), rand_piece()
        assert vb.lemma_relation_check(x1, x2, x3, "chi")
        assert vb.lemma_relation_check(x1, x2, x3, "sigma")


class TestErrorTermAtVirtualLevel:
    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_two_way_gluing_differences_agree(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 5)
        boundary = tuple("S3" for _ in range(n))

        def rand_piece():
            return vb.piece(4, rng.randrange(-5, 6), sigma=rng.randrange(-3, 4),
                            boundary=boundary)

        def matching():
            js = list(range(n))
            rng.shuffle(js)
            k = rng.randrange(1, n + 1)
            return tuple((i, js[i]) for i in range(k))

        f, g = matching(), matching()
        p1, p2 = rand_piece(), rand_piece()
        q1, q2 = rand_piece(), rand_piece()
        for inv in (lambda p: p.chi, lambda p: p.sigma):
            diff_p = inv(vb.glue(p1, p2, f)) - inv(vb.glue(p1, p2, g))
            diff_q = inv(vb.glue(q1, q2, f)) - inv(vb.glue(q1, q2, g))
            assert diff_p == diff_q


class TestSurfaceCrossValidation:
    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_paste_matches_virtual_glue(self, seed):
        rng = random.Random(seed)
        g1, b = rng.randrange(0, 4), rng.randrange(1, 4)
        g2 = rng.randrange(0, 4)
        s1, s2 = sf.surface((g1, b)), sf.surface((g2, b))
        p1 = vb.piece(2, sf.chi(s1), boundary=("S1",) * b)
        p2 = vb.piece(2, sf.chi(s2), boundary=("S1",) * b)
        union = sf.disjoint_union(s1, s2)
        ids1 = s1.circle_ids()
        ids2 = tuple(c + s1.next_circle for c in s2.circle_ids())
        pasted = sf.paste(union, sf.PasteSpec(tuple(zip(ids1, ids2))))
        glued = vb.glue(p1, p2, tuple((i, i) for i in range(b)))
        assert glued.chi == sf.chi(pasted)


class TestCatalogFormat:
    def test_round_trip(self):
        for factory in (vb.dim2_catalog, vb.dim4_catalog, vb.dim8_catalog):
            catalog = factory()
            assert vb.catalog_from_json(vb.catalog_to_json(catalog)) == catalog

    def test_unknown_field_rejected(self):
        with pytest.raises(vb.CatalogFormatError):
            vb.catalog_from_json('{"dim": 2, "l": 1, "pieces": [], "extra": 1}')

    def test_odd_dimension_rejected(self):
        # boundary labels carry no chi, which is right only in even dimension
        with pytest.raises(vb.CatalogFormatError):
            vb.catalog_from_json('{"dim": 3, "l": 1, "pieces": []}')

    def test_b_sigma_must_name_pieces(self):
        with pytest.raises(vb.CatalogFormatError):
            vb.catalog_from_json(
                '{"dim": 2, "l": 1, "pieces": [], "b_sigma": {"S1": "D2"}}')

    def test_b_sigma_boundary_count_checked(self):
        doc = ('{"dim": 2, "l": 2, "pieces":'
               ' [{"name": "D2", "chi": 1, "boundary": ["S1"]}],'
               ' "b_sigma": {"S1": "D2"}}')
        with pytest.raises(vb.CatalogFormatError):
            vb.catalog_from_json(doc)

    def test_identity_chi_cross_checked(self):
        bad = vb.Catalog(
            dim=8, l=1,
            pieces=(vb.piece(8, 1, boundary=("S7",), name="D8"),
                    vb.piece(8, 7, name="S8")),
            b_sigma=(("S7", "D8"),),
            identities=((("D8", "D8"), "S8"),),
        )
        with pytest.raises(vb.CatalogFormatError):
            vb.close_up(bad.piece("D8"), (), ("S7",), bad)
