"""Classes, the TQFT restriction, the splitting, and the sequence checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from skkinv import fixtures, skk, surfaces as sf, virtual_bordism as vb
from skkinv import cobordism as cb
from skkinv.simplicial import disjoint_union, euler_characteristic
from skkinv.tqft import InvertibleTQFT2, evaluate, exp_scalar, rational

seeds = st.integers(min_value=0, max_value=2 ** 31)


class TestSkkClass:
    def test_torus(self):
        assert skk.skk_class(sf.surface((1, 0))) == 0

    def test_two_spheres(self):
        two = sf.surface((0, 0), (0, 0))
        assert skk.skk_class(two) == 2

    def test_cp2(self):
        assert skk.skk_class(fixtures.cp2_9()) == (3, 1)

    def test_dim1_circles(self):
        two = disjoint_union(fixtures.circle(3), fixtures.circle(4))
        assert skk.skk_class(fixtures.circle()) == 1
        assert skk.skk_class(two) == 0
        assert skk.skk_class(disjoint_union(two, fixtures.circle(5))) == 1

    def test_simplicial_input(self):
        assert skk.skk_class(fixtures.torus7()) == 0

    def test_unsupported_dimension(self):
        with pytest.raises(skk.UnsupportedDimension):
            skk.skk_class(fixtures.sphere3())

    def test_closedness_required(self):
        with pytest.raises(skk.NotClosedManifold):
            skk.skk_class(sf.surface((0, 1)))

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_additive_under_disjoint_union(self, seed):
        rng = random.Random(seed)
        a = sf.random_surface(rng, max_boundary=0)
        b = sf.random_surface(rng, max_boundary=0)
        union = sf.surface(*a.as_multiset(), *b.as_multiset())
        assert skk.skk_class(union) == skk.skk_class(a) + skk.skk_class(b)

    def test_dim4_additivity(self):
        cp2 = fixtures.cp2_9()
        union = disjoint_union(cp2, cp2.reversed_orientation())
        assert skk.skk_class(union) == (6, 0)

    def test_dim1_additivity_mod_two(self):
        def circles(n):
            K = fixtures.circle()
            for k in range(1, n):
                K = disjoint_union(K, fixtures.circle(3 + k))
            return K

        for a in range(1, 4):
            for b in range(1, 4):
                total = skk.skk_class(disjoint_union(circles(a), circles(b)))
                assert total == (skk.skk_class(circles(a)) + skk.skk_class(circles(b))) % 2
                assert total == (a + b) % 2


class TestSkClass:
    def test_sphere4(self):
        assert skk.sk_class(fixtures.sphere4()) == (1, 0)

    def test_cp2(self):
        assert skk.sk_class(fixtures.cp2_9()) == (1, 1)

    def test_sphere_dim2(self):
        assert skk.sk_class(sf.surface((0, 0))) == 1

    def test_constant_on_sk_equivalent(self):
        left = sf.surface((1, 0))
        right = sf.surface((0, 0), (2, 0))
        assert skk.sk_class(left) == skk.sk_class(right)

    def test_no_class_in_dimension_one(self):
        with pytest.raises(skk.UnsupportedDimension, match="no cut-and-paste class in dimension 1"):
            skk.sk_class(fixtures.circle())


class TestTables:
    def test_i_n_values(self):
        assert skk.i_n_table(2) == "Z"
        assert skk.i_n_table(5) == "Z/2"
        assert skk.i_n_table(3) == "0"

    def test_full_range(self):
        got = [skk.i_n_table(n) for n in range(1, 13)]
        assert got == ["Z/2", "Z", "0", "Z", "Z/2", "Z",
                       "0", "Z", "Z/2", "Z", "0", "Z"]


def value_on(base, M):
    """The chi-type invariant with this base on an even-chi closed surface."""
    chi = sf.chi(M)
    assert chi % 2 == 0
    return base ** (chi // 2)


class TestPsi:
    def test_sphere_value(self):
        inv = skk.psi(InvertibleTQFT2(rational(2), rational(3)))
        assert value_on(inv, sf.surface((0, 0))) == rational(6)

    def test_kernel_gives_trivial_invariant(self):
        inv = skk.psi(InvertibleTQFT2(rational(2), rational(Fraction(1, 2))))
        assert inv.is_one

    def test_homomorphism(self):
        T1 = InvertibleTQFT2(rational(2), rational(3))
        T2 = InvertibleTQFT2(rational(5), rational(Fraction(1, 7)))
        assert skk.psi(T1.product(T2)) == skk.psi(T1) * skk.psi(T2)

    def test_matches_word_evaluation(self):
        from skkinv.tqft import evaluate

        T = InvertibleTQFT2(rational(3), rational(5))
        for g in range(4):
            word = cb.parse_word("cap ; " + "copants ; pants ; " * g + "cup")
            assert skk.psi(T) ** (1 - g) == evaluate(T, word)

    def test_constant_on_sk_equivalent_fixtures(self):
        T = InvertibleTQFT2(rational(2), rational(7))
        inv = skk.psi(T)
        left = sf.surface((1, 0))
        right = sf.surface((0, 0), (2, 0))
        assert value_on(inv, left) == value_on(inv, right)


class TestChiInvariantDim4:
    def test_odd_chi_is_fine_for_exponentials(self):
        """cp2_9 has chi 3: exp(chi) there is the base exp(2) to the power 3/2."""
        assert euler_characteristic(fixtures.cp2_9()) == 3
        assert skk.chi_invariant(1) ** Fraction(3, 2) == exp_scalar(3)


class TestAbsPsi:
    def test_drops_sign(self):
        T = InvertibleTQFT2(exp_scalar(1, sign=-1), exp_scalar(0))
        inv = skk.abs_psi(T)
        assert value_on(inv, sf.surface((0, 0))) == exp_scalar(1)

    def test_sign_valued_becomes_trivial(self):
        T = InvertibleTQFT2(exp_scalar(0, sign=-1), exp_scalar(0))
        assert skk.abs_psi(T).is_one

    def test_positive_unchanged(self):
        T = InvertibleTQFT2(exp_scalar(1), exp_scalar(0))
        inv = skk.abs_psi(T)
        for g in range(4):
            assert value_on(inv, sf.surface((g, 0))) == exp_scalar(1 - g)

    def test_respects_products(self):
        T1 = InvertibleTQFT2(exp_scalar(2, sign=-1), exp_scalar(-1))
        T2 = InvertibleTQFT2(exp_scalar(Fraction(1, 2)), exp_scalar(3, sign=-1))
        assert skk.abs_psi(T1.product(T2)) == skk.abs_psi(T1) * skk.abs_psi(T2)

    @given(st.fractions(min_value=-20, max_value=20, max_denominator=12),
           st.fractions(min_value=-20, max_value=20, max_denominator=12),
           st.sampled_from((1, -1)))
    @settings(max_examples=80, deadline=None)
    def test_restriction_is_exp_of_half_the_exponent_sum(self, p, q, sign):
        """|Psi(exp(p), +-exp(q))| is the chi-type invariant exp((p + q) / 2 * chi)."""
        T = InvertibleTQFT2(exp_scalar(p, sign), exp_scalar(q))
        assert skk.abs_psi(T) == skk.chi_invariant((p + q) / 2)

    @given(st.integers(-40, 40), st.integers(-40, 40))
    @settings(max_examples=80, deadline=None)
    def test_splitting_of_odd_integer_sum_halves_it(self, p, q):
        """Integer exponents are ints, and half of an odd int stays a Fraction."""
        assume((p + q) % 2)
        half = exp_scalar(Fraction(p + q, 2))
        xi = skk.abs_psi(InvertibleTQFT2(exp_scalar(p), exp_scalar(q)))
        split = skk.splitting_S(Fraction(xi.exponent, 2))
        assert split == InvertibleTQFT2(half, half)

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
        T = skk.splitting_S(1)
        assert T.cap == exp_scalar(1) and T.cup == exp_scalar(1)
        from skkinv.tqft import evaluate

        assert evaluate(T, cb.parse_word("cap ; cup")) == exp_scalar(2)

    def test_chi_summand_bypasses_close_up(self):
        """The genus-one tube gets exp(chi) = exp(-2) directly, not the value
        of its closed-up torus."""
        from skkinv.tqft import evaluate

        T = skk.splitting_S(1)
        tube = cb.parse_word("copants ; pants")
        assert evaluate(T, tube) == exp_scalar(-2)
        disk = vb.piece(2, 1, boundary=("S1",), name="D2")
        catalog = vb.Catalog(dim=2, l=1, pieces=(disk,), b_sigma=(("S1", "D2"),),
                             identities=())
        tube_piece = vb.piece(2, -2, boundary=("S1", "S1"))
        closed = vb.close_up(tube_piece, ("S1",), ("S1",), catalog)
        assert exp_scalar(closed.chi) != exp_scalar(-2)

    def test_trivial_descriptor(self):
        T = skk.splitting_S(0)
        assert T.cap.is_one and T.cup.is_one


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

    def test_corrupted_witness_prints_half_exponents_as_fractions(self):
        """The first sampled r is -3; its corrupted restriction is exp(-3/2*chi),
        printed from an int exponent halved as a Fraction, never as -1.5."""
        witness = skk.verify_split_sequence(splitting=skk.corrupted_splitting).checks[2].witness
        assert witness == ("restriction after splitting of exp(-3*chi) gives"
                           " exp(-3/2*chi), expected exp(-3*chi)")
        assert "." not in witness

    def test_splitting_evaluates_closed_words_to_exp_r_chi(self):
        rng = random.Random(0)
        words = [cb.random_word_with_arities(rng, 0, 0) for _ in range(30)]
        for r in (0, 1, Fraction(-3, 2)):
            T = skk.splitting_S(r)
            for w in words:
                assert evaluate(T, w) == exp_scalar(Fraction(r) * cb.normal_form(w).total_chi())


class TestBSigmaDemo:
    def test_values(self):
        disk_value, cp_value = skk.b_sigma_dependence_demo(vb.dim8_catalog())
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
            return skk.skk_class(glued)

        assert cls(X, f) - cls(X, g) == cls(Y, f) - cls(Y, g)
