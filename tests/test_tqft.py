"""Invertible TQFT evaluation and the functor-law verification suites."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from skkinv import cobordism as cb
from skkinv import tqft

seeds = st.integers(min_value=0, max_value=2 ** 31)
small_rationals = st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                               max_denominator=5).filter(lambda q: q != 0)


def _exp_text(exponent: Fraction, sign: int) -> str:
    """The text of sign * e**exponent as the Fraction reference prints it."""
    prefix = "-" if sign == -1 else ""
    return prefix + ("1" if exponent == 0 else f"exp({exponent})")


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


class FreeAssignment:
    """A duck-typed generator assignment with four independent bases, one
    per generator, so pants and copants stay free; it has only `bases` and
    `EXPONENTS`."""

    EXPONENTS = {"cap": (1, 0, 0, 0), "cup": (0, 1, 0, 0), "pants": (0, 0, 1, 0),
                 "copants": (0, 0, 0, 1), "id": (0, 0, 0, 0), "swap": (0, 0, 0, 0)}

    def __init__(self, a, e, p, c):
        self.bases = (tqft.rational(a), tqft.rational(e), tqft.rational(p), tqft.rational(c))


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

    @given(st.fractions(min_value=-6, max_value=6, max_denominator=6),
           st.sampled_from((1, -1)), st.integers(-12, 12))
    @settings(max_examples=80, deadline=None)
    def test_integer_powers_match_half_chi_roots(self, r, sign, chi):
        """base**(chi/2): for even chi the integer power equals the Fraction
        power, and for odd chi the root of a positive base squares to base**chi."""
        assume(sign == 1 or chi % 2 == 0)  # a negative scalar has no real square root
        base = tqft.exp_scalar(r, sign)
        half = base ** Fraction(chi, 2)
        if chi % 2 == 0:
            assert half == base ** (chi // 2)
        assert half * half == base ** chi

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
        for got, want in ((u * v, (p + q, sign)), (u ** k, (p * k, sign if k % 2 else 1)),
                          (u.inverse(), (-p, sign)), (u.abs_value(), (p, 1)), (u.one(), (0, 1))):
            exponent, want_sign = want
            # canonical form: an int exactly when the exponent is integral
            assert type(got.exponent) is (int if exponent.denominator == 1 else Fraction)
            built = tqft.ExpScalar(exponent, want_sign)
            assert got == built and hash(got) == hash(built)
            assert str(got) == str(built) == _exp_text(exponent, want_sign)

    def test_float_scalars_refused(self):
        for make in (tqft.exp_scalar, tqft.ExpScalar, tqft.rational, tqft.RationalScalar):
            with pytest.raises(TypeError):
                make(0.1)
        with pytest.raises(TypeError):
            tqft.ExpScalar(2.0, -1)

    def test_integral_fraction_exponent_is_an_int(self):
        x = tqft.exp_scalar(Fraction(6, 3))
        assert x.exponent == 2 and type(x.exponent) is int
        assert type(tqft.ExpScalar(Fraction(-4, 2), -1).exponent) is int
        assert type(tqft.exp_scalar(Fraction(1, 2)).exponent) is Fraction

    @given(st.integers(0, 6), st.lists(st.integers(0, 12), min_size=1, max_size=6),
           st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_grid_products_and_powers_keep_int_exponents(self, half_width, picks, k):
        from skkinv.skk import default_grid

        grid = default_grid(half_width)
        value = grid[0].one()
        for i in picks:
            x = grid[i % len(grid)]
            for got in (x, x ** k, x.inverse(), x.abs_value(), value * x):
                assert type(got.exponent) is int
            value = value * x ** k
        assert type(value.exponent) is int

    def test_variant_mixing_rejected(self):
        with pytest.raises(tqft.VariantMismatch):
            tqft.rational(2) * tqft.exp_scalar(1)
        with pytest.raises(tqft.VariantMismatch):
            tqft.InvertibleTQFT2(tqft.rational(2), tqft.exp_scalar(1))


class TestEvaluate:
    def test_sphere(self):
        T = rational_tqft(2, 3)
        assert tqft.evaluate(T, cb.parse_word("cap ; cup")) == tqft.rational(6)

    def test_torus(self):
        T = rational_tqft(2, 3)
        assert tqft.evaluate(T, cb.parse_word("cap ; copants ; pants ; cup")).is_one

    def test_kernel_point(self):
        T = rational_tqft(2, Fraction(1, 2))
        rng = random.Random(3)
        for _ in range(50):
            w = cb.random_word_with_arities(rng, 0, 0)
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
            for w in (cb.random_word(rng), cb.random_word_with_arities(rng, 0, 0)):
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
        w = cb.random_word_with_arities(rng, 0, 0)
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
        w = cb.random_word_with_arities(rng, 0, 0) if seed % 2 else cb.random_word(rng)
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


@st.composite
def any_tqfts(draw):
    """A rational or exp TQFT, honest or corrupted, or a free assignment."""
    kind = draw(st.sampled_from(("rational", "exp", "free")))
    if kind == "free":
        return FreeAssignment(*(draw(small_rationals) for _ in range(4)))
    if kind == "rational":
        T = rational_tqft(draw(small_rationals), draw(small_rationals))
    else:
        signs = st.sampled_from((1, -1))
        exponents = st.fractions(min_value=-6, max_value=6, max_denominator=7)
        T = tqft.InvertibleTQFT2(tqft.exp_scalar(draw(exponents), draw(signs)),
                                 tqft.exp_scalar(draw(exponents), draw(signs)))
    return tqft.corrupted_tqft(T) if draw(st.booleans()) else T


def verifier_words(rng):
    """Words shaped like those the verifiers evaluate: random words, their
    compositions and tensor products, chains of equivalent rewrites and
    closed words, then one word of at least 1000 generators."""
    words = []
    for _ in range(20):
        M = cb.random_word(rng)
        N = cb.random_word(rng, start_arity=M.out_arity)
        R = M
        for _ in range(rng.randrange(1, 4)):
            R = cb.equivalent_rewrite(rng, R)
        words += [M, cb.compose(M, N), cb.tensor(M, N), R, cb.random_word_with_arities(rng, 0, 0)]
    long = words[0]
    while sum(len(layer) for layer in long.layers) < 1000:
        long = cb.tensor(long, rng.choice(words))
    return words + [long]


def exponent_totals(T, w):
    counts = w.generator_counts()
    return tuple(sum(T.EXPONENTS[g][i] * n for g, n in counts.items())
                 for i in range(len(T.bases)))


class TestValueTable:
    """A table of values by exponent totals, shared by the words of one
    TQFT, gives what direct evaluation gives."""

    @given(any_tqfts(), seeds)
    @settings(max_examples=40, deadline=None)
    def test_one_table_gives_the_direct_values(self, T, seed):
        words = verifier_words(random.Random(seed))
        values = {}
        for _ in range(2):  # the second pass reads every value from the table
            for w in words:
                got, direct = tqft.evaluate(T, w, values), tqft.evaluate(T, w)
                assert got == direct
                assert (type(got), str(got)) == (type(direct), str(direct))
        assert values.keys() == {exponent_totals(T, w) for w in words}

    def test_each_distinct_totals_is_computed_once(self, monkeypatch):
        real = tqft._value
        computed = []
        monkeypatch.setattr(tqft, "_value",
                            lambda bases, totals: computed.append(tuple(totals)) or real(bases, totals))
        T = rational_tqft(Fraction(3, 2), -5)
        words = verifier_words(random.Random(5))
        values = {}
        for w in words:
            tqft.evaluate(T, w, values)
        distinct = {exponent_totals(T, w) for w in words}
        assert sorted(computed) == sorted(distinct) and len(distinct) < len(words)

    def test_refused_power_is_refused_again(self):
        T = rational_tqft(4096, 3)
        w = side_by_side({"cap": (_BITS - 1) // 12 + 1})
        values = {}
        for _ in range(2):
            with pytest.raises(tqft.AnswerTooLarge, match="^a power in the answer would have"):
                tqft.evaluate(T, w, values)
        assert values == {}

    def test_verifiers_pass_one_table_per_call(self, monkeypatch):
        """Through `verify_axioms` and `boundary_dependence_check` every value
        equals the direct one, and each call has a table of its own, so no
        TQFT reads another's values."""
        real = tqft.evaluate
        tables = []

        def checked(T, M, values=None):
            got, direct = real(T, M, values), real(T, M)
            assert (got, type(got), str(got)) == (direct, type(direct), str(direct))
            if not any(values is t for t in tables):
                tables.append(values)
            return got

        monkeypatch.setattr(tqft, "evaluate", checked)
        exp = tqft.InvertibleTQFT2(tqft.exp_scalar(2, -1), tqft.exp_scalar(Fraction(-1, 3)))
        verified = (rational_tqft(2, 3), rational_tqft(5, Fraction(-7, 2)), exp,
                    tqft.corrupted_tqft(rational_tqft(2, 3)), tqft.corrupted_tqft(exp),
                    FreeAssignment(2, 3, Fraction(1, 2), 5))
        for T in verified:
            tqft.verify_axioms(T, seed=1, budget=40)
        kernel = (rational_tqft(2, Fraction(1, 2)), rational_tqft(-3, Fraction(-1, 3)),
                  tqft.InvertibleTQFT2(tqft.exp_scalar(4), tqft.exp_scalar(-4)))
        for T in kernel:
            tqft.boundary_dependence_check(T, seed=1, budget=40)
        assert len(tables) == len(verified) + len(kernel)
        assert all(type(t) is dict for t in tables)


class TestGroupStructure:
    def test_product_componentwise(self):
        T = rational_tqft(2, 3).product(rational_tqft(5, 7))
        assert T.cap == tqft.rational(10)
        assert T.cup == tqft.rational(21)

    def test_inverse(self):
        T = rational_tqft(2, 3)
        identity = T.product(T.inverse())
        assert identity.cap.is_one and identity.cup.is_one

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
        report = tqft.verify_axioms(rational_tqft(1, 1), seed=2, budget=60)
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

    def test_computes_no_normal_form(self, monkeypatch):
        computed = []
        monkeypatch.setattr(tqft, "normal_form", lambda w: computed.append(w) or cb.normal_form(w))
        tqft.verify_axioms(rational_tqft(2, 3), seed=0, budget=50)
        assert computed == []

    def test_rewrite_that_changes_the_class_fails_with_a_witness(self, monkeypatch):
        """A rewrite that tensors a sphere onto the word multiplies its value
        by cap * cup = 6; the check reports the word and its rewrite."""
        sphere = cb.parse_word("cap ; cup")
        monkeypatch.setattr(tqft, "equivalent_rewrite", lambda rng, M: cb.tensor(M, sphere))
        result = tqft.verify_axioms(rational_tqft(2, 3), seed=0, budget=20).checks[0]
        assert result.name == "equivalence_invariance" and not result.passed
        assert " but rewrite " in result.witness and "cap ; cup" in result.witness


class TestTwoParameterForm:
    """Any generator assignment respecting word equivalence is (a, e)-shaped."""

    @given(small_rationals, small_rationals, small_rationals, small_rationals)
    @settings(max_examples=50, deadline=None)
    def test_cylinder_relations_force_the_form(self, a, e, p, c):
        assignment = FreeAssignment(a, e, p, c)
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
        result = tqft.check_theta_defines_tqft(tqft.exp_chi_theta, 2, seed=0, budget=150)
        assert result.passed and result.witness is None

    def test_exp_chi_dim1_fails_on_arc_gluing(self):
        result = tqft.check_theta_defines_tqft(tqft.exp_chi_theta, 1, seed=0, budget=150)
        assert not result.passed
        assert result.witness == "two arcs glued to a circle: exp(1) * exp(1) != exp(0)"

    def test_constant_theta_passes_both(self):
        one = lambda w: tqft.exp_scalar(0)
        assert tqft.check_theta_defines_tqft(one, 2, seed=1, budget=80).passed
        assert tqft.check_theta_defines_tqft(one, 1, seed=1, budget=80).passed

    def test_component_count_theta_fails_dim2(self):
        def comp_count(w):
            return tqft.exp_scalar(len(cb.normal_form(w).components))

        result = tqft.check_theta_defines_tqft(comp_count, 2, seed=1, budget=200)
        assert not result.passed and result.witness

    def test_dimension_3_is_refused(self):
        with pytest.raises(cb.WrongDimension):
            tqft.check_theta_defines_tqft(tqft.exp_chi_theta, 3, seed=0, budget=10)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_random_compositions_catch_what_the_birth_death_pair_misses(self, dim):
        # components, closed ones twice: 1 + 1 on the birth and death pieces
        # and 2 on what they glue to, but not additive in general
        def components_closed_twice(w):
            parts = cb.normal_form(w).components
            return tqft.exp_scalar(len(parts) + sum(c.is_closed for c in parts))

        result = tqft.check_theta_defines_tqft(components_closed_twice, dim, seed=0, budget=100)
        assert not result.passed
        assert result.witness.startswith("compose(")


class TestKernelCharacterization:
    def test_rational_grid_both_directions(self):
        """Closed words all map to 1 exactly when a*e = 1, over the grid of
        rationals with numerator and denominator up to 5."""
        rng = random.Random(17)
        closed_words = [cb.random_word_with_arities(rng, 0, 0) for _ in range(30)]
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
        report = tqft.boundary_dependence_check(rational_tqft(1, 1), seed=1, budget=40)
        assert report.all_passed

    def test_non_kernel_rejected(self):
        with pytest.raises(tqft.NotInKernel):
            tqft.boundary_dependence_check(rational_tqft(2, 3), seed=0, budget=40)

    def test_non_kernel_word_is_evaluated_once(self, monkeypatch):
        """The message reports the value already computed for the failing
        closed word."""
        real = tqft.evaluate
        evaluated = []
        monkeypatch.setattr(tqft, "evaluate", lambda T, M, values=None: evaluated.append(
            (M, real(T, M, values))) or evaluated[-1][1])
        with pytest.raises(tqft.NotInKernel) as raised:
            tqft.boundary_dependence_check(rational_tqft(2, 3), seed=0, budget=40)
        words = [M for M, _ in evaluated]
        assert len({id(M) for M in words}) == len(words)
        w, v = evaluated[-1]
        assert not v.is_one
        assert str(raised.value) == f"closed word {w.text()!r} evaluates to {v}"

    @pytest.mark.parametrize("dependence_pair, closed_form_pair", [(2, 5), (5, 2)])
    def test_each_check_reports_its_own_first_failure(self, monkeypatch, dependence_pair,
                                                      closed_form_pair):
        """One pair breaks only boundary-only dependence (its second word gets
        an extra outgoing circle), another only the closed form (both words
        get one); each check reports its own pair, whichever comes first.
        The closed words of the kernel precheck pass through unrecorded; no
        pair of seed 0 has arities 0->0."""
        real = tqft.random_word_with_arities
        drawn = []

        def sampler(rng, in_arity, out_arity):
            if in_arity == out_arity == 0:
                return real(rng, 0, 0)
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
