"""Request input as exact numbers: the one reader for rationals given as text,
the test for JSON integers, and a printer for rationals of any size."""

from __future__ import annotations

import re
from fractions import Fraction

from . import InputError

# `Fraction(str)` also takes exponent notation, so 9 bytes ("1e1000000000")
# would ask for a 10**(10**9) integer.
_RATIONAL = re.compile(r"\s*[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)\s*")

# `str(int)` refuses more than `sys.get_int_max_str_digits()` digits (4300 by
# default, at least 640). That limit is process-global, so it is left alone and
# larger integers are split by a power of ten; 2000 bits is under 640 digits.
_STR_BITS = 2000


def is_json_int(x) -> bool:
    """JSON integers only: `bool` is a subclass of `int` but true/false are not numbers."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_rational(text: str) -> Fraction:
    """`[+-]digits[/digits]` or a plain decimal such as `-0.25`, exactly."""
    if _RATIONAL.fullmatch(text) is None:
        raise InputError(f"bad rational {text!r}; expected an integer, p/q or a plain decimal")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"zero denominator in {text!r}") from None
    except ValueError as exc:  # too many digits for int()
        raise InputError(f"bad rational {text[:20]!r}...: {exc}") from None


def int_text(n: int) -> str:
    """Decimal digits of `n`, whatever its size."""
    if n < 0:
        return "-" + int_text(-n)
    if n.bit_length() <= _STR_BITS:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half of n's decimal digits
    high, low = divmod(n, 10 ** half)
    return int_text(high) + int_text(low).zfill(half)


def fraction_text(q: Fraction) -> str:
    """`str(q)` for a rational of any size."""
    if q.denominator == 1:
        return int_text(q.numerator)
    return f"{int_text(q.numerator)}/{int_text(q.denominator)}"
