"""Exact rationals as text: the strict reader and the printer of any size."""

import random
from fractions import Fraction

import pytest

from skkinv import InputError
from skkinv.rationals import fraction_text, int_text, parse_rational


class TestParseRational:
    @pytest.mark.parametrize("text, value", [
        ("3", Fraction(3)), ("-3/2", Fraction(-3, 2)), ("+4/6", Fraction(2, 3)),
        ("0.25", Fraction(1, 4)), ("-.5", Fraction(-1, 2)), ("5.", Fraction(5)),
        (" 7 ", Fraction(7)),
    ])
    def test_accepted(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", [
        "1e1000000000", "1E5", "2e-3", "1.5e2", "inf", "nan", "", "-", "3/-2", "1/2/3",
        "1_000", "0x10", "١", "1/0", "1" * 5000,
    ])
    def test_rejected(self, text):
        with pytest.raises(InputError):
            parse_rational(text)


class TestPrinting:
    def test_matches_str_below_the_digit_limit(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(-10 ** 4000, 10 ** 4000) >> rng.randrange(0, 13000)
            assert int_text(n) == str(n)

    @pytest.mark.parametrize("k", [600, 601, 4299, 4300, 4301, 20000])
    def test_powers_of_ten_beyond_the_limit(self, k):
        assert int_text(10 ** k) == "1" + "0" * k
        assert int_text(1 - 10 ** k) == "-" + "9" * k
        assert int_text(7 * 10 ** k + 3) == "7" + "0" * (k - 1) + "3"

    def test_fraction_text(self):
        assert fraction_text(Fraction(-3, 2)) == "-3/2"
        assert fraction_text(Fraction(4)) == "4"
        assert fraction_text(Fraction(1, 10 ** 5000)) == "1/1" + "0" * 5000
