"""Classes, the TQFT restriction, the splitting, and the sequence checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from skkinv import fixtures, skk, surfaces as sf, virtual_bordism as vb
from skkinv import cobordism as cb
from skkinv.tqft import InvertibleTQFT2, exp_scalar, rational

seeds = st.integers(min_value=0, max_value=2 ** 31)


class TestSkkClass:
    def test_torus(self):
        assert skk.skk_class(sf.torus(), 2).value == 0

    def test_two_spheres(self):
        two = sf.disjoint_union(sf.sphere(), sf.sphere())
        assert skk.skk_class(two, 2).value == 2

    def test_cp2(self):
        assert skk.skk_class(fixtures.cp2_9(), 4).value == (3, 1)

    def test_dim1_circles(self):
        assert skk.skk_class(3, 1).value == 1
        word = cb.parse_word("acap ; acup", dim=1)
        assert skk.skk_class(word, 1).value == 1

    def test_closed_word_input(self):
        assert skk.skk_class(cb.torus_word(), 2).value == 0

    def test_simplicial_input(self):
        assert skk.skk_class(fixtures.torus7(), 2).value == 0

    def test_unsupported_dimension(self):
        with pytest.raises(skk.UnsupportedDimension):
            skk.skk_class(fixtures.sphere3(), 3)

    def test_closedness_required(self):
        with pytest.raises(skk.NotClosedManifold):
            skk.skk_class(sf.disk(), 2)

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_additive_under_disjoint_union(self, seed):
        rng = random.Random(seed)
        a = sf.random_surface(rng, max_boundary=0)
        b = sf.random_surface(rng, max_boundary=0)
        union = sf.disjoint_union(a, b)
        assert skk.skk_class(union, 2).value == (
            skk.skk_class(a, 2) + skk.skk_class(b, 2)
        ).value

    def test_dim4_additivity(self):
        from skkinv.simplicial import disjoint_union

        cp2 = fixtures.cp2_9()
        union = disjoint_union(cp2, cp2.reversed_orientation())
        cls = skk.skk_class(union, 4)
        assert cls.value == (6, 0)

    def test_dim1_additivity_mod_two(self):
        for a in range(4):
            for b in range(4):
                total = skk.skk_class(a + b, 1)
                assert total.value == (skk.skk_class(a, 1) + skk.skk_class(b, 1)).value
                assert total.value == (a + b) % 2


class TestSkClass:
    def test_sphere4(self):
        assert skk.sk_class(fixtures.sphere4(), 4) == (1, 0)

    def test_cp2(self):
        assert skk.sk_class(fixtures.cp2_9(), 4) == (1, 1)

    def test_sphere_dim2(self):
        assert skk.sk_class(sf.sphere(), 2) == 1

    def test_constant_on_sk_equivalent(self):
        left = sf.torus()
        right = sf.disjoint_union(sf.sphere(), sf.genus_surface(2))
        assert skk.sk_class(left, 2) == skk.sk_class(right, 2)


class TestTables:
    def test_i_n_values(self):
        assert skk.i_n_table(2) == "Z"
        assert skk.i_n_table(5) == "Z/2"
        assert skk.i_n_table(3) == "0"

    def test_full_range(self):
        got = [skk.i_n_table(n) for n in range(1, 13)]
        assert got == ["Z/2", "Z", "0", "Z", "Z/2", "Z",
                       "0", "Z", "Z/2", "Z", "0", "Z"]

    def test_hom_structure(self):
        assert skk.hom_structure(3).shape == "zero"
        assert skk.hom_structure(2).shape == "chi_star"
        four = skk.hom_structure(4)
        assert four.shape == "chi_star_plus_bordism"
        assert four.bordism_rank == 1
        assert skk.hom_structure(8).bordism_rank == 2

    def test_bordism_projection(self):
        assert skk.bordism_projection(fixtures.cp2_9()) == 1
        assert skk.bordism_projection(fixtures.sphere4()) == 0
        from skkinv.simplicial import disjoint_union

        cp2 = fixtures.cp2_9()
        union = disjoint_union(cp2, cp2.reversed_orientation())
        assert skk.bordism_projection(union) == 0


class TestPsi:
    def test_sphere_value(self):
        inv = skk.psi(InvertibleTQFT2(rational(2), rational(3)))
        assert inv(sf.sphere()) == rational(6)

    def test_kernel_gives_trivial_invariant(self):
        inv = skk.psi(InvertibleTQFT2(rational(2), rational(Fraction(1, 2))))
        assert skk.invariant_is_trivial(inv)

    def test_homomorphism(self):
        T1 = InvertibleTQFT2(rational(2), rational(3))
        T2 = InvertibleTQFT2(rational(5), rational(Fraction(1, 7)))
        lhs = skk.psi(T1.product(T2))
        rhs = skk.psi(T1).product(skk.psi(T2))
        assert skk.invariants_agree(lhs, rhs)

    def test_matches_word_evaluation(self):
        from skkinv.tqft import evaluate

        T = InvertibleTQFT2(rational(3), rational(5))
        inv = skk.psi(T)
        for g in range(4):
            word = cb.closed_genus_word(g)
            surface = sf.genus_surface(g)
            assert evaluate(T, word) == inv(surface)

    def test_constant_on_sk_equivalent_fixtures(self):
        T = InvertibleTQFT2(rational(2), rational(7))
        inv = skk.psi(T)
        left = sf.torus()
        right = sf.disjoint_union(sf.sphere(), sf.genus_surface(2))
        assert inv(left) == inv(right)


class TestChiInvariantDim4:
    def test_odd_chi_is_fine_for_exponentials(self):
        xi = skk.chi_invariant(1, dim=4)
        assert xi(fixtures.cp2_9()) == exp_scalar(3)

    def test_combined_chi_sigma(self):
        xi = skk.chi_invariant(2, dim=4).product(skk.sigma_invariant(-1))
        assert xi(fixtures.cp2_9()) == exp_scalar(2 * 3 - 1)


class TestAbsPsi:
    def test_drops_sign(self):
        T = InvertibleTQFT2(exp_scalar(1, sign=-1), exp_scalar(0))
        inv = skk.abs_psi(T)
        assert inv(sf.sphere()) == exp_scalar(1)

    def test_sign_valued_becomes_trivial(self):
        T = InvertibleTQFT2(exp_scalar(0, sign=-1), exp_scalar(0))
        assert skk.invariant_is_trivial(skk.abs_psi(T))

    def test_positive_unchanged(self):
        T = InvertibleTQFT2(exp_scalar(1), exp_scalar(0))
        inv = skk.abs_psi(T)
        for g in range(4):
            assert inv(sf.genus_surface(g)) == exp_scalar(1 - g)

    def test_respects_products(self):
        T1 = InvertibleTQFT2(exp_scalar(2, sign=-1), exp_scalar(-1))
        T2 = InvertibleTQFT2(exp_scalar(Fraction(1, 2)), exp_scalar(3, sign=-1))
        lhs = skk.abs_psi(T1.product(T2))
        rhs = skk.abs_psi(T1).product(skk.abs_psi(T2))
        assert skk.invariants_agree(lhs, rhs)

    @given(st.fractions(min_value=-20, max_value=20, max_denominator=12),
           st.fractions(min_value=-20, max_value=20, max_denominator=12),
           st.sampled_from((1, -1)))
    @settings(max_examples=80, deadline=None)
    def test_descriptor_halves_the_exponent(self, p, q, sign):
        """The descriptor is exp(r*chi) with r = (p + q) / 2 as a reduced Fraction prints."""
        T = InvertibleTQFT2(exp_scalar(p, sign), exp_scalar(q))
        assert skk.abs_psi(T).descriptor == f"exp({(p + q) / 2}*chi)"
        assert skk.abs_psi(T).descriptor == skk.chi_invariant((p + q) / 2).descriptor

    @given(st.fractions(min_value=-6, max_value=6, max_denominator=6),
           st.sampled_from((1, -1)), st.integers(-12, 12))
    @settings(max_examples=80, deadline=None)
    def test_integer_powers_match_half_chi_roots(self, r, sign, chi):
        """Even chi takes an integer power, odd chi the root; both equal base**(chi/2)."""
        assume(sign == 1 or chi % 2 == 0)  # a negative scalar has no real square root
        xi = skk.SKKInvariant(2, base=exp_scalar(r, sign))
        assert xi.on_chi(chi) == exp_scalar(r, sign) ** Fraction(chi, 2)

    def test_requires_exp_variant(self):
        from skkinv.tqft import VariantMismatch

        with pytest.raises(VariantMismatch):
            skk.abs_psi(InvertibleTQFT2(rational(2), rational(3)))


class TestKernelMembership:
    def test_minus_one_cap(self):
        assert skk.kernel_membership(InvertibleTQFT2(exp_scalar(0, sign=-1),
                                                     exp_scalar(0)))

    def test_reciprocal_pair(self):
        assert skk.kernel_membership(InvertibleTQFT2(exp_scalar(1), exp_scalar(-1)))

    def test_non_member(self):
        assert not skk.kernel_membership(InvertibleTQFT2(exp_scalar(1), exp_scalar(0)))

    def test_rational_variant(self):
        assert skk.kernel_membership(InvertibleTQFT2(rational(-2), rational(Fraction(1, 2))))
        assert not skk.kernel_membership(InvertibleTQFT2(rational(2), rational(3)))


class TestSplitting:
    def test_dim2_exp_chi(self):
        T = skk.splitting_S((1,), 2)
        assert T.cap == exp_scalar(1) and T.cup == exp_scalar(1)
        from skkinv.tqft import evaluate

        assert evaluate(T, cb.sphere_word()) == exp_scalar(2)

    def test_chi_summand_bypasses_close_up(self):
        """The genus-one tube gets exp(chi) = exp(-2) directly, not the value
        of its closed-up torus."""
        from skkinv.tqft import evaluate

        T = skk.splitting_S((1,), 2)
        tube = cb.parse_word("copants ; pants")
        assert evaluate(T, tube) == exp_scalar(-2)
        catalog = vb.dim2_catalog()
        tube_piece = vb.piece(2, -2, boundary=("S1", "S1"))
        closed = vb.close_up(tube_piece, ("S1",), ("S1",), catalog)
        assert exp_scalar(closed.chi) != exp_scalar(-2)

    def test_dim4_sigma_routed_through_close_up(self):
        catalog = vb.dim4_catalog()
        evaluator = skk.splitting_S((0, 1), 4, catalog)
        d4 = catalog.piece("D4")
        assert evaluator.evaluate(d4, (), ("S3",)).is_one  # sigma(S4) = 0

    def test_dim4_identity_on_closed(self):
        catalog = vb.dim4_catalog()
        evaluator = skk.splitting_S((Fraction(1, 2), 2), 4, catalog)
        cp2 = catalog.piece("CP2")
        value = evaluator.evaluate(cp2)
        assert value == exp_scalar(Fraction(1, 2) * 3 + 2 * 1)

    def test_invariant_descriptor_input(self):
        xi = skk.chi_invariant(Fraction(3, 2))
        T = skk.splitting_S(xi, 2)
        assert T.cap == exp_scalar(Fraction(3, 2))

    def test_trivial_descriptor(self):
        T = skk.splitting_S((0,), 2)
        assert T.is_trivial


class TestVerifySplitSequence:
    def test_all_checks_pass(self):
        report = skk.verify_split_sequence(seed=3)
        assert report.all_passed, report.summary()

    def test_check_names(self):
        report = skk.verify_split_sequence(seed=3)
        assert [c.name for c in report.checks] == [
            "kernel_equals_sign_valued",
            "surjectivity_onto_chi_star",
            "restriction_after_splitting_is_identity",
            "restriction_is_homomorphism",
        ]

    def test_corrupted_splitting_fails_identity_check(self):
        report = skk.verify_split_sequence(seed=3, splitting=skk.corrupted_splitting)
        assert not report.checks[2].passed
        assert report.checks[2].name == "restriction_after_splitting_is_identity"

    def test_trivial_invariant_splits_to_trivial(self):
        assert skk.splitting_S((0,), 2).is_trivial


class TestBSigmaDemo:
    def test_values(self):
        disk_value, cp_value = skk.b_sigma_dependence_demo()
        assert str(disk_value) == "1"
        assert str(cp_value) == "exp(10)"

    def test_agreement_on_sphere(self):
        catalog = vb.dim8_catalog()
        xi = skk.attribute_invariant("p2", catalog)
        for choice in ("D8", "CP4_minus_D8"):
            cat = catalog.with_b_sigma("S7", choice)
            closed = vb.close_up(cat.piece("S8"), (), (), cat)
            assert xi(closed).is_one

    def test_swapping_choices_swaps_outputs(self):
        catalog = vb.dim8_catalog().with_b_sigma("S7", "CP4_minus_D8")
        values = []
        for choice in ("CP4_minus_D8", "D8"):
            cat = catalog.with_b_sigma("S7", choice)
            closed = vb.close_up(cat.piece("D8"), (), ("S7",), cat)
            values.append(skk.attribute_invariant("p2", cat)(closed))
        assert [str(v) for v in values] == ["exp(10)", "1"]


class TestErrorTermProperty:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_class_differences_match(self, seed):
        rng = random.Random(seed)
        k = rng.randrange(1, 3)

        def cut_surface():
            S = sf.surface((rng.randrange(k, k + 2), 0))
            for _ in range(k):
                comp = rng.randrange(len(S.components))
                c = S.components[comp]
                if c.genus >= 1:
                    S = sf.cut(S, sf.CutSpec(comp, sf.NonSeparating()))
                else:
                    S = sf.cut(S, sf.CutSpec(comp, sf.Separating(0)))
            return S

        X, Y = cut_surface(), cut_surface()
        positions = list(range(2 * k))
        rng.shuffle(positions)
        f = [(positions[2 * i], positions[2 * i + 1]) for i in range(k)]
        rng.shuffle(positions)
        g = [(positions[2 * i], positions[2 * i + 1]) for i in range(k)]

        def cls(S, pairing):
            ids = S.circle_ids()
            glued = sf.paste(S, sf.PasteSpec(tuple((ids[a], ids[b]) for a, b in pairing)))
            return skk.skk_class(glued, 2).value

        assert cls(X, f) - cls(X, g) == cls(Y, f) - cls(Y, g)
