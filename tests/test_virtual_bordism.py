"""Symbolic pieces: close-up against capping catalogs, and the catalog format."""

import pytest

from skkinv import virtual_bordism as vb


def _disk_capped(l=1):
    """Dimension 2: l circles bound the disk D2."""
    disk = vb.piece(2, 1, boundary=("S1",) * l, name="D2")
    return vb.Catalog(dim=2, l=l, pieces=(disk,), b_sigma=(("S1", "D2"),), identities=())


class TestCloseUp:
    def test_dim2_genus_tube_closes_to_torus(self):
        catalog = _disk_capped()
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
        catalog = _disk_capped(l=2)
        torus = vb.piece(2, 0, name="T2")
        out = vb.close_up(torus, (), (), catalog)
        assert out.chi == catalog.l * torus.chi
        assert out.parts == tuple(["T2"] * catalog.l)

    def test_missing_capping_piece(self):
        catalog = _disk_capped()
        exotic = vb.piece(2, 0, boundary=("K",))
        with pytest.raises(vb.MissingBSigma):
            vb.close_up(exotic, ("K",), (), catalog)

    def test_split_must_cover_boundary(self):
        catalog = _disk_capped()
        tube = vb.piece(2, -2, boundary=("S1", "S1"))
        with pytest.raises(vb.LabelMismatch):
            vb.close_up(tube, ("S1",), (), catalog)

    def test_dimension_mismatch(self):
        with pytest.raises(vb.DimensionMismatch):
            vb.close_up(vb.piece(4, 1, boundary=("S3",)), ("S3",), (), _disk_capped())


class TestCatalogFormat:
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

    def test_piece_name_used_twice_rejected(self):
        # piece() would silently pick the first D8, which has no p2
        doc = ('{"dim": 8, "l": 1, "pieces":'
               ' [{"name": "D8", "chi": 1, "boundary": ["S7"]},'
               ' {"name": "D8", "chi": 1, "boundary": ["S7"], "attributes": {"p2": 0}}],'
               ' "b_sigma": {"S7": "D8"}}')
        with pytest.raises(vb.CatalogFormatError, match="D8"):
            vb.catalog_from_json(doc)

    def test_identities_sharing_a_part_multiset_rejected(self):
        doc = ('{"dim": 2, "l": 1, "pieces":'
               ' [{"name": "D2", "chi": 1, "boundary": ["S1"]}, {"name": "S2", "chi": 2},'
               ' {"name": "T2", "chi": 0}, {"name": "C", "chi": 0, "boundary": ["S1", "S1"]}],'
               ' "identities": [{"pieces": ["D2", "C", "D2"], "equals": "S2"},'
               ' {"pieces": ["D2", "D2", "C"], "equals": "T2"}]}')
        with pytest.raises(vb.CatalogFormatError, match="two identities"):
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
