import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def fraction_reading(text):
    """Fraction's own reading of the stripped literal, None if it refuses."""
    try:
        return F(text.strip())
    except (ValueError, ZeroDivisionError):
        return None


def assert_reads_as_fraction(text):
    expected = fraction_reading(text)
    if expected is None:
        with pytest.raises(ValidationError) as exc:
            parse_rational(text)
        assert str(exc.value) == f"not a rational literal: {text!r}"
    else:
        assert parse_rational(text) == expected


DIGITS = st.text("0123456789", min_size=1, max_size=40)


@st.composite
def plain_literals(draw):
    """'[+-]p' or '[+-]p/q' in ASCII digits, leading zeros and zero
    denominators allowed, with optional whitespace around the whole."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    denominator = draw(st.none() | DIGITS)
    pad = st.sampled_from(["", " ", "\t", "\n "])
    return draw(pad) + sign + draw(DIGITS) + ("" if denominator is None else "/" + denominator) + draw(pad)


class TestPlainLiterals:
    """Plain digit literals are read by int() directly, with the value
    and the refusals Fraction's grammar gives them."""

    @given(plain_literals())
    @settings(max_examples=300)
    def test_plain_literals_read_as_fraction_does(self, text):
        assert_reads_as_fraction(text)

    # No exponents: Fraction's own reading of "9e999999999" never ends.
    @given(st.text("0123456789+-/._ \u0661\u0662", max_size=12))
    @settings(max_examples=300)
    def test_any_short_literal_reads_as_fraction_does(self, text):
        assert_reads_as_fraction(text)

    @pytest.mark.parametrize(
        "text", ["1/0", "-0", "+7/007", "3/", "/3", " 1 / 2 ", "\u0661/\u0662", "1_000", "+", "1/-2"]
    )
    def test_edge_literals_read_as_fraction_does(self, text):
        assert_reads_as_fraction(text)

    def test_spaces_around_the_slash_follow_fractions_grammar(self):
        # Fraction reads "p / q" from Python 3.12 on and refuses it before,
        # so a long denominator is too long exactly where it is a literal.
        assert_reads_as_fraction("1 / 2")
        if fraction_reading("1 / 2") is None:
            message = "not a rational literal"
        else:
            message = "rational literal over 4300 digits"
        with pytest.raises(ValidationError, match=f"^{message}: "):
            parse_rational("1 / " + "1" * 5000)

    @pytest.mark.parametrize(
        "text", ["1." + "d" * 5000, "_" + "1" * 5000, "1__" + "1" * 5000],
        ids=["decimal-letters", "leading-underscore", "double-underscore"],
    )
    def test_long_text_outside_fractions_grammar_is_not_a_literal(self, text):
        with pytest.raises(ValidationError, match="^not a rational literal: "):
            parse_rational(text)

    def test_parts_of_max_digits_are_read(self):
        for text in ["9" * 4300, "-" + "9" * 4300 + "/" + "7" * 4300, "1/" + "3" * 4300]:
            assert parse_rational(text) == F(text)

    @pytest.mark.parametrize(
        "text", ["9" * 4301, "-" + "9" * 4301 + "/7", "1/" + "3" * 4301, "9" * 4301 + "/" + "7" * 4301]
    )
    def test_parts_over_max_digits_are_refused(self, text):
        with pytest.raises(ValidationError, match=f"^rational literal over 4300 digits: .*\\({len(text)} characters\\)$"):
            parse_rational(text)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int() digit limit")
    def test_lowered_int_limit_falls_back_to_the_general_message(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ValidationError) as exc:
                parse_rational("1" * 700)
            assert str(exc.value).startswith("not a rational literal: '1111")
            assert parse_rational("1" * 640) == 10**640 // 9
        finally:
            sys.set_int_max_str_digits(limit)


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
