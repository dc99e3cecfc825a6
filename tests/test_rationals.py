import time
from fractions import Fraction as F

import pytest

from wells_majorize.errors import ValidationError
from wells_majorize.rationals import format_rational, parse_rational, parse_rational_vector


class TestParseRational:
    @pytest.mark.parametrize(
        "text, value",
        [("3/4", F(3, 4)), (" -0.25 ", F(-1, 4)), ("1e-6", F(1, 10**6)),
         (7, F(7)), ("1e4299", F(10**4299)), ("1.5e-4298", F(15, 10**4299)), ("0e4299", F(0))],
    )
    def test_accepts_exact_literals(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text",
        ["1e4300", "1" + "0" * 4300, "1/1" + "0" * 4300, "1e-4300", "1.5e-4299", "0e4300",
         "1e10000000", "1" * 5000, "1e" + "1" * 5000],
    )
    def test_refuses_literals_over_the_digit_limit(self, text):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="over 4300 digits"):
            parse_rational(text)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "char, length, quoted",
        [("x", 100, repr("x" * 100)),
         ("x", 101, f"{'x' * 40!r}... (101 characters)"),
         ("1", 10**6, f"{'1' * 40!r}... (1000000 characters)")],
        ids=["at-limit", "over-limit", "million-digits"],
    )
    def test_quotes_long_literals_by_prefix_and_length(self, char, length, quoted):
        with pytest.raises(ValidationError) as exc:
            parse_rational(char * length)
        assert str(exc.value).endswith(f": {quoted}")

    @pytest.mark.parametrize("value", [True, 1.5, None, [1], "x" * 5000])
    def test_refuses_values_that_are_not_exact_literals(self, value):
        with pytest.raises(ValidationError, match="not a rational literal"):
            parse_rational(value)


class TestParseRationalVector:
    def test_parses_each_item(self):
        assert parse_rational_vector(" 3/2, 0.5 ,1") == (F(3, 2), F(1, 2), F(1))

    @pytest.mark.parametrize("text", ["3,,1", "3,1,", ",3", "", " "])
    def test_refuses_empty_items(self, text):
        with pytest.raises(ValidationError, match="not a rational literal"):
            parse_rational_vector(text)


def test_format_prints_integers_of_any_length():
    big = 7**6000
    assert format_rational(F(big, 3)) == f"{_digits(big)}/3"
    assert format_rational(F(-1, big)) == f"-1/{_digits(big)}"


def _digits(n):
    """Decimal digits of n by repeated division, without str(n)."""
    out = []
    while n:
        n, d = divmod(n, 10)
        out.append(str(d))
    return "".join(reversed(out))
