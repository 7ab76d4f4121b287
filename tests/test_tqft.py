"""Invertible TQFT evaluation and the functor-law verification suites."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skkinv import cobordism as cb
from skkinv import tqft

seeds = st.integers(min_value=0, max_value=2 ** 31)
small_rationals = st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                               max_denominator=5).filter(lambda q: q != 0)


def rational_tqft(a, e):
    return tqft.InvertibleTQFT2(tqft.rational(a), tqft.rational(e))


def generator_value(T, g):
    """A generator's value, written out without the exponent table: the
    cylinder identities give pants = cap**-1 and copants = cup**-1; the
    corrupted control sends pants to cap."""
    if g == "cap":
        return T.cap
    if g == "cup":
        return T.cup
    if g == "pants":
        return T.cap if isinstance(T, tqft.CorruptedTQFT2) else T.cap.inverse()
    if g == "copants":
        return T.cup.inverse()
    assert g in ("id", "swap")
    return T.cap.one()


def layer_by_layer_value(T, w):
    """The product of generator values along the word, one generator at a time."""
    value = T.cap.one()
    for layer in w.layers:
        for g in layer:
            value = value * generator_value(T, g)
    return value


class TestScalars:
    def test_rational_group_laws(self):
        a = tqft.rational(Fraction(3, 4))
        assert (a * a.inverse()).is_one
        assert a ** 3 == tqft.rational(Fraction(27, 64))
        assert str(a) == "3/4"

    def test_rational_nonzero(self):
        with pytest.raises(ValueError):
            tqft.rational(0)

    def test_exp_group_laws(self):
        x = tqft.exp_scalar(Fraction(1, 2))
        y = tqft.exp_scalar(Fraction(1, 3), sign=-1)
        assert (x * x.inverse()).is_one
        assert (x * y).sign == -1
        assert (x * y).exponent == Fraction(5, 6)
        assert str(y) == "-exp(1/3)"
        assert str(tqft.exp_scalar(0)) == "1"

    def test_exp_fractional_powers(self):
        x = tqft.exp_scalar(3)
        assert x ** Fraction(1, 3) == tqft.exp_scalar(1)
        neg = tqft.exp_scalar(3, sign=-1)
        assert neg ** Fraction(1, 3) == tqft.exp_scalar(1, sign=-1)
        with pytest.raises(tqft.FractionalExponent):
            neg ** Fraction(1, 2)

    def test_rational_fractional_power_rejected(self):
        with pytest.raises(tqft.FractionalExponent):
            tqft.rational(2) ** Fraction(1, 2)

    def test_abs_value(self):
        assert tqft.exp_scalar(2, sign=-1).abs_value() == tqft.exp_scalar(2)
        assert tqft.rational(-3).abs_value() == tqft.rational(3)

    @given(small_rationals, small_rationals, st.integers(min_value=-4, max_value=4),
           st.sampled_from((1, -1)))
    @settings(max_examples=80, deadline=None)
    def test_arithmetic_matches_constructor(self, p, q, k, sign):
        """Products, powers and inverses equal (and hash like) freshly built scalars."""
        x, y = tqft.rational(p), tqft.rational(q)
        for got, want in ((x * y, p * q), (x ** k, p ** k), (x.inverse(), 1 / p),
                          (x.abs_value(), abs(p)), (x.one(), 1)):
            assert type(got.value) is Fraction
            assert got == tqft.RationalScalar(want) and hash(got) == hash(tqft.RationalScalar(want))
        u, v = tqft.exp_scalar(p, sign), tqft.exp_scalar(q)
        for got, want in ((u * v, tqft.ExpScalar(p + q, sign)),
                          (u ** k, tqft.ExpScalar(p * k, sign if k % 2 else 1)),
                          (u.inverse(), tqft.ExpScalar(-p, sign)),
                          (u.abs_value(), tqft.ExpScalar(p)), (u.one(), tqft.ExpScalar(0))):
            assert type(got.exponent) is Fraction
            assert got == want and hash(got) == hash(want)

    def test_variant_mixing_rejected(self):
        with pytest.raises(tqft.VariantMismatch):
            tqft.rational(2) * tqft.exp_scalar(1)
        with pytest.raises(tqft.VariantMismatch):
            tqft.InvertibleTQFT2(tqft.rational(2), tqft.exp_scalar(1))


class TestEvaluate:
    def test_sphere(self):
        T = rational_tqft(2, 3)
        assert tqft.evaluate(T, cb.sphere_word()) == tqft.rational(6)

    def test_torus(self):
        T = rational_tqft(2, 3)
        assert tqft.evaluate(T, cb.torus_word()).is_one

    def test_kernel_point(self):
        T = rational_tqft(2, Fraction(1, 2))
        rng = random.Random(3)
        for _ in range(50):
            w = cb.random_closed_word(rng)
            assert tqft.evaluate(T, w).is_one
        assert tqft.evaluate(T, cb.parse_word("cap")) == tqft.rational(2)

    def test_wrong_dimension(self):
        with pytest.raises(cb.WrongDimension):
            tqft.evaluate(rational_tqft(2, 3), cb.parse_word("acap ; acup", dim=1))

    @given(seeds, small_rationals, small_rationals, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_generator_by_generator_product(self, seed, a, e, corrupt):
        """Evaluating from generator counts equals the product along the word."""
        rng = random.Random(seed)
        for T in (rational_tqft(a, e), tqft.InvertibleTQFT2(tqft.exp_scalar(a, -1),
                                                            tqft.exp_scalar(e))):
            if corrupt:
                T = tqft.corrupted_tqft(T)
            for w in (cb.random_word(rng), cb.random_closed_word(rng)):
                assert tqft.evaluate(T, w) == layer_by_layer_value(T, w)

    @given(st.data(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_product_on_independent_words_and_bases(self, data, corrupt):
        """Words grown generator by generator and bases of either scalar group
        with any signs: evaluate equals the layer-by-layer product."""
        if data.draw(st.booleans()):
            T = rational_tqft(data.draw(small_rationals), data.draw(small_rationals))
        else:
            signs = st.sampled_from((1, -1))
            exponents = st.fractions(min_value=-6, max_value=6, max_denominator=7)
            T = tqft.InvertibleTQFT2(tqft.exp_scalar(data.draw(exponents), data.draw(signs)),
                                     tqft.exp_scalar(data.draw(exponents), data.draw(signs)))
        if corrupt:
            T = tqft.corrupted_tqft(T)
        arity = data.draw(st.integers(0, 3))
        layers = []
        for g in data.draw(st.lists(st.sampled_from(sorted(cb.GENERATORS)), max_size=25)):
            _, g_in, g_out = cb.GENERATORS[g]
            if g_in > arity or g in ("pid", "acap", "acup"):
                continue
            layers.append(("id",) * (arity - g_in) + (g,))
            arity += g_out - g_in
        w = cb.CobordismWord(2, tuple(layers))
        assert tqft.evaluate(T, w) == layer_by_layer_value(T, w)

    def test_two_powers_per_word(self, monkeypatch):
        """A word with all six generators costs one power per base, whatever
        its length."""
        calls, inside = [], []
        # a rational power may be taken on the scalar or on its Fraction
        # value; one taken inside another counts once
        for cls in (tqft.RationalScalar, tqft.ExpScalar, Fraction):
            real = cls.__pow__

            def counting(self, k, real=real):
                if not inside:
                    calls.append(k)
                inside.append(k)
                try:
                    return real(self, k)
                finally:
                    inside.pop()

            monkeypatch.setattr(cls, "__pow__", counting)
        w = cb.parse_word("cap | cap ; swap ; pants ; copants ; id | cup ; cup")
        assert w.generator_counts().keys() == {"cap", "cup", "pants", "copants", "id", "swap"}
        long = cb.compose(w, w)
        for honest in (rational_tqft(Fraction(3, 2), -5),
                       tqft.InvertibleTQFT2(tqft.exp_scalar(7),
                                            tqft.exp_scalar(Fraction(-9, 5), -1))):
            for T in (honest, tqft.corrupted_tqft(honest)):
                for word in (w, long):
                    calls.clear()
                    value = tqft.evaluate(T, word)
                    assert len(calls) <= 2, calls
                    assert value == layer_by_layer_value(T, word)

    @given(seeds, small_rationals, small_rationals)
    @settings(max_examples=60, deadline=None)
    def test_closed_value_law(self, seed, a, e):
        """Every closed word evaluates to (a*e)**(chi/2)."""
        T = rational_tqft(a, e)
        rng = random.Random(seed)
        w = cb.random_closed_word(rng)
        nf = cb.normal_form(w)
        exponent = sum(1 - c.genus for c in nf.components)
        assert exponent * 2 == nf.total_chi()
        assert tqft.evaluate(T, w) == (T.cap * T.cup) ** exponent


def evaluate_through_scalars(T, w):
    """The product of base ** k over T's bases, each power and product taken
    as a scalar, with k summed from the exponent rows."""
    counts = w.generator_counts()
    value = T.cap.one()
    for i, base in enumerate(T.bases):
        value = value * base ** sum(T.EXPONENTS[g][i] * n for g, n in counts.items())
    return value


def side_by_side(counts):
    """One layer holding count copies of each generator."""
    return cb.CobordismWord(2, (tuple(g for g, n in counts.items() for _ in range(n)),))


_BITS = tqft.MAX_SCALAR_BITS


class TestRationalEvaluate:
    @given(seeds, small_rationals, small_rationals, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_equals_the_product_of_scalar_powers(self, seed, a, e, corrupt):
        T = rational_tqft(a, e)
        if corrupt:
            T = tqft.corrupted_tqft(T)
        rng = random.Random(seed)
        w = cb.random_closed_word(rng) if seed % 2 else cb.random_word(rng)
        value = tqft.evaluate(T, w)
        assert type(value) is tqft.RationalScalar and type(value.value) is Fraction
        assert value == evaluate_through_scalars(T, w)

    def test_words_without_powers_give_one(self):
        T = rational_tqft(Fraction(-5, 3), 7)
        for w in (cb.empty_word(), cb.identity_word(3), cb.parse_word("cap | id ; pants")):
            assert tqft.evaluate(T, w) == evaluate_through_scalars(T, w) == tqft.rational(1)

    @pytest.mark.parametrize("cap,cup,counts,refused", [
        # 4096**n has 12n + 1 bits: the largest accepted power, then one more cap
        (4096, 3, {"cap": (_BITS - 1) // 12}, None),
        (4096, 3, {"cap": (_BITS - 1) // 12 + 1},
         f"^a power in the answer would have at least {12 * ((_BITS - 1) // 12 + 1) + 1} bits;"),
        # 4096**-n has a 1-bit numerator and a 12n + 1 bit denominator
        (4096, 3, {"pants": (_BITS - 2) // 12}, None),
        (4096, 3, {"pants": (_BITS - 2) // 12 + 1}, "^a power in the answer would have"),
        # 3**60 has 96 bits: 2757 caps pass the least size but not the exact one
        (3 ** 60, 3, {"cap": 2756}, None),
        (3 ** 60, 3, {"cap": 2757}, f"^the answer has {(3 ** (60 * 2757)).bit_length()} bits;"),
        # powers that together pass the bound but cancel to a small answer
        (2 ** 200, Fraction(1, 2 ** 200), {"cap": 1000, "cup": 1000}, None),
        (-1, 3, {"cap": 140_000}, None),
    ])
    def test_answer_size_boundaries(self, cap, cup, counts, refused):
        T = rational_tqft(cap, cup)
        w = side_by_side(counts)
        if refused is None:
            assert tqft.evaluate(T, w) == evaluate_through_scalars(T, w)
        else:
            with pytest.raises(tqft.AnswerTooLarge, match=refused):
                tqft.evaluate(T, w)


class TestGroupStructure:
    def test_product_componentwise(self):
        T = rational_tqft(2, 3).product(rational_tqft(5, 7))
        assert T.cap == tqft.rational(10)
        assert T.cup == tqft.rational(21)

    def test_inverse(self):
        T = rational_tqft(2, 3)
        assert T.product(T.inverse()).is_trivial

    @given(seeds, small_rationals, small_rationals, small_rationals, small_rationals)
    @settings(max_examples=40, deadline=None)
    def test_evaluate_multiplicative_in_tqft(self, seed, a1, e1, a2, e2):
        T1, T2 = rational_tqft(a1, e1), rational_tqft(a2, e2)
        w = cb.random_word(random.Random(seed))
        assert tqft.evaluate(T1.product(T2), w) == (
            tqft.evaluate(T1, w) * tqft.evaluate(T2, w)
        )

    def test_variant_mismatch(self):
        with pytest.raises(tqft.VariantMismatch):
            rational_tqft(2, 3).product(
                tqft.InvertibleTQFT2(tqft.exp_scalar(1), tqft.exp_scalar(0)))


class TestVerifyAxioms:
    def test_rational_points_pass(self):
        for a, e in ((2, 3), (Fraction(1, 2), 5), (-2, Fraction(3, 7))):
            report = tqft.verify_axioms(rational_tqft(a, e), seed=1, budget=80)
            assert report.all_passed, report.summary()

    def test_trivial_tqft_passes(self):
        report = tqft.verify_axioms(tqft.trivial_tqft(), seed=2, budget=60)
        assert report.all_passed

    def test_corrupted_fails_with_witness(self):
        bad = tqft.corrupted_tqft(rational_tqft(2, 3))
        report = tqft.verify_axioms(bad, seed=2, budget=60)
        assert not report.all_passed
        failure = report.failures()[0]
        assert failure.witness
        names = {f.name for f in report.failures()}
        assert {"equivalence_invariance", "cylinder_law"} & names

    def test_exp_variant_passes(self):
        T = tqft.InvertibleTQFT2(tqft.exp_scalar(2, sign=-1), tqft.exp_scalar(-1))
        report = tqft.verify_axioms(T, seed=3, budget=80)
        assert report.all_passed, report.summary()

    def test_constant_words_are_parsed_once_per_process(self, monkeypatch):
        texts = []
        monkeypatch.setattr(tqft, "parse_word", lambda text: texts.append(text) or cb.parse_word(text))
        tqft._canonical_words.cache_clear()
        for seed in (0, 1):
            tqft.verify_axioms(rational_tqft(2, 3), seed=seed, budget=5)
        assert sorted(texts) == sorted(t for pair in tqft._CANONICAL_EQUIVALENT_PAIRS for t in pair)


class TestTwoParameterForm:
    """Any generator assignment respecting word equivalence is (a, e)-shaped."""

    @given(small_rationals, small_rationals, small_rationals, small_rationals)
    @settings(max_examples=50, deadline=None)
    def test_cylinder_relations_force_the_form(self, a, e, p, c):
        class FreeAssignment:
            # four independent bases, one per generator, so pants and copants stay free
            bases = (tqft.rational(a), tqft.rational(e), tqft.rational(p), tqft.rational(c))
            EXPONENTS = {"cap": (1, 0, 0, 0), "cup": (0, 1, 0, 0), "pants": (0, 0, 1, 0),
                         "copants": (0, 0, 0, 1), "id": (0, 0, 0, 0), "swap": (0, 0, 0, 0)}

        assignment = FreeAssignment()
        report = tqft.verify_axioms(assignment, seed=4, budget=40)
        forced = (tqft.rational(p) == tqft.rational(a).inverse()
                  and tqft.rational(c) == tqft.rational(e).inverse())
        if report.all_passed:
            assert forced
        if forced:
            assert report.all_passed


class TestMappingCylinderRatio:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_middle_block_ratio(self, seed):
        """Closed words differing in a middle block have value ratio equal to
        the blocks' value ratio."""
        rng = random.Random(seed)
        T = rational_tqft(Fraction(3, 2), Fraction(-5, 7))
        arity = rng.randrange(1, 4)
        top = cb.random_word(rng, start_arity=arity)
        block_f = cb.random_word_with_arities(rng, arity, arity)
        block_g = cb.random_word_with_arities(rng, arity, arity)

        def close(word):
            bottom = [("cap",)]
            width = 1
            while width < arity:
                bottom.append(("copants",) + ("id",) * (width - 1))
                width += 1
            layers = list(word.layers)
            cur = word.out_arity
            while cur > 1:
                layers.append(("pants",) + ("id",) * (cur - 2))
                cur -= 1
            if cur == 1:
                layers.append(("cup",))
            return cb.CobordismWord(2, tuple(bottom) + tuple(layers))

        with_f = close(cb.compose(block_f, top))
        with_g = close(cb.compose(block_g, top))
        ratio = tqft.evaluate(T, with_f) * tqft.evaluate(T, with_g).inverse()
        block_ratio = tqft.evaluate(T, block_f) * tqft.evaluate(T, block_g).inverse()
        assert ratio == block_ratio


class TestThetaChecks:
    def test_exp_chi_dim2_passes(self):
        result = tqft.check_theta_defines_tqft(tqft.exp_chi_theta(2), 2, seed=0, budget=150)
        assert result.passed and result.witness is None

    def test_exp_chi_dim1_fails_on_arc_gluing(self):
        result = tqft.check_theta_defines_tqft(tqft.exp_chi_theta(1), 1, seed=0, budget=150)
        assert not result.passed
        assert result.witness == "two arcs glued to a circle: exp(1) * exp(1) != exp(0)"

    def test_constant_theta_passes_both(self):
        one = lambda m: tqft.exp_scalar(0)
        assert tqft.check_theta_defines_tqft(one, 2, seed=1, budget=80).passed
        assert tqft.check_theta_defines_tqft(one, 1, seed=1, budget=80).passed

    def test_component_count_theta_fails_dim2(self):
        def comp_count(s):
            return tqft.exp_scalar(len(s.components))

        result = tqft.check_theta_defines_tqft(comp_count, 2, seed=1, budget=200)
        assert not result.passed and result.witness


class TestOneManifoldGluing:
    def test_two_arcs_to_circle(self):
        arc = tqft.OneManifold(1, 0)
        out = tqft.glue_one_manifolds(arc, arc, [((0, 0), (0, 0)), ((0, 1), (0, 1))])
        assert out == tqft.OneManifold(0, 1)

    def test_chain_stays_arc(self):
        arc = tqft.OneManifold(1, 0)
        out = tqft.glue_one_manifolds(arc, arc, [((0, 1), (0, 0))])
        assert out == tqft.OneManifold(1, 0)

    def test_circles_carried_through(self):
        out = tqft.glue_one_manifolds(tqft.OneManifold(0, 2), tqft.OneManifold(1, 1), [])
        assert out == tqft.OneManifold(1, 3)

    def test_duplicate_endpoint_rejected(self):
        arc = tqft.OneManifold(1, 0)
        with pytest.raises(ValueError):
            tqft.glue_one_manifolds(arc, arc, [((0, 0), (0, 0)), ((0, 0), (0, 1))])


class TestKernelCharacterization:
    def test_rational_grid_both_directions(self):
        """Closed words all map to 1 exactly when a*e = 1, over the grid of
        rationals with numerator and denominator up to 5."""
        rng = random.Random(17)
        closed_words = [cb.random_closed_word(rng) for _ in range(30)]
        nontrivial = [w for w in closed_words if cb.normal_form(w).total_chi() != 0]
        assert nontrivial, "sampler produced only chi = 0 words"
        values = [Fraction(n, d) * s
                  for n in range(1, 6) for d in range(1, 6) for s in (1, -1)]
        for a in values:
            for e in values:
                T = rational_tqft(a, e)
                trivial = all(tqft.evaluate(T, w).is_one for w in closed_words)
                assert trivial == (a * e == 1), f"a={a}, e={e}"


class TestBoundaryDependence:
    def test_kernel_values_depend_on_arities_only(self):
        T = rational_tqft(2, Fraction(1, 2))
        report = tqft.boundary_dependence_check(T, seed=0, budget=80)
        assert report.all_passed, report.summary()

    def test_closed_form_examples(self):
        T = rational_tqft(2, Fraction(1, 2))
        assert tqft.evaluate(T, cb.parse_word("id")).is_one
        assert tqft.evaluate(T, cb.parse_word("copants ; pants")).is_one
        assert tqft.evaluate(T, cb.parse_word("cap")) == tqft.rational(2)
        assert tqft.evaluate(T, cb.parse_word("cap | cap ; pants")) == tqft.rational(2)

    def test_trivial_tqft(self):
        report = tqft.boundary_dependence_check(tqft.trivial_tqft(), seed=1, budget=40)
        assert report.all_passed

    def test_non_kernel_rejected(self):
        with pytest.raises(tqft.NotInKernel):
            tqft.boundary_dependence_check(rational_tqft(2, 3), seed=0, budget=40)

    @pytest.mark.parametrize("dependence_pair, closed_form_pair", [(2, 5), (5, 2)])
    def test_each_check_reports_its_own_first_failure(self, monkeypatch, dependence_pair,
                                                      closed_form_pair):
        """One pair breaks only boundary-only dependence (its second word gets
        an extra outgoing circle), another only the closed form (both words
        get one); each check reports its own pair, whichever comes first."""
        real = tqft.random_word_with_arities
        drawn = []

        def sampler(rng, in_arity, out_arity):
            pair, second = divmod(len(drawn), 2)
            extra = pair == closed_form_pair or (pair == dependence_pair and second == 1)
            word = real(rng, in_arity, out_arity + int(extra))
            drawn.append((in_arity, out_arity, word))
            return word

        monkeypatch.setattr(tqft, "random_word_with_arities", sampler)
        T = rational_tqft(2, Fraction(1, 2))
        dependence, closed_form = tqft.boundary_dependence_check(T, seed=0, budget=8).checks
        assert len(drawn) == 16
        (i, o, M), (_, _, N) = drawn[2 * dependence_pair:2 * dependence_pair + 2]
        assert dependence.witness == (f"{M.text()!r} -> {tqft.evaluate(T, M)} but {N.text()!r}"
                                      f" -> {tqft.evaluate(T, N)} with arities {i}->{o}")
        i, o, M = drawn[2 * closed_form_pair]
        assert closed_form.witness == (f"{M.text()!r} -> {tqft.evaluate(T, M)}, expected"
                                       f" cup**({i}-{o}) = {T.cup ** (i - o)}")
        assert not dependence.passed and not closed_form.passed
