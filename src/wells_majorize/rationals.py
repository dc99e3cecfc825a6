"""Parsing and lossless serialization of exact rationals.

Rationals are carried everywhere as `fractions.Fraction` (arbitrary
precision, always in lowest terms, positive denominator) and cross the
CLI boundary as strings "p/q" or "p", never as floats. Inner loops carry
a sequence of them as integers over one common denominator
(`clear_denominators`).

`parse_rational` reads the common literal, "[+-]p" or "[+-]p/q" in
ASCII digits with each part at most MAX_DIGITS long, with int()
directly. Every other literal (decimals, exponents, underscores, spaces
around "/", other scripts' digits, longer parts) is checked against
MAX_DIGITS and then read by Fraction's own grammar. Both paths give the
same value, and a literal refused on either gets the same message.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

from .errors import ValidationError

# CPython's default int() limit on digit strings; no literal may need more.
MAX_DIGITS = 4300
# Error messages quote literals up to this length in full; a longer one
# by its first _QUOTED_PREFIX characters and its length.
_QUOTED_MAX = 100
_QUOTED_PREFIX = 40
# Fraction's string grammar for a stripped literal without underscores: a
# signed whole part, then a denominator, or decimals and an exponent.
_LITERAL = re.compile(
    r"[-+]?(?=\d|\.\d)(\d*)(?:\s*/\s*(\d+)|(?:\.(\d*))?(?:e([-+]?\d+))?)", re.IGNORECASE
)


def _too_long(literal: str) -> bool:
    """Whether the literal's numerator or denominator, written out in
    digits, would exceed MAX_DIGITS, judged before any integer is built.
    Only a literal in Fraction's grammar can be too long; any other text
    is left for Fraction to refuse as not a literal."""
    match = _LITERAL.fullmatch(literal.replace("_", ""))
    if match is None:
        return False
    whole, denominator, decimals, exponent = match.groups(default="")
    if len(exponent) > MAX_DIGITS:
        return True  # int() would refuse the exponent itself
    scale = int(exponent or 0) - len(decimals)
    return max(len(whole + decimals) + max(scale, 0), len(denominator), 1 - scale) > MAX_DIGITS


def _plain(digits: str) -> bool:
    """Whether `digits` is 1 to MAX_DIGITS ASCII digits, which int()
    reads exactly as Fraction's grammar does."""
    return len(digits) <= MAX_DIGITS and digits.isascii() and digits.isdigit()


def _quoted(text: str) -> str:
    if len(text) <= _QUOTED_MAX:
        return repr(text)
    return f"{text[:_QUOTED_PREFIX]!r}... ({len(text)} characters)"


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse "p/q", "p", or a decimal literal like "0.3" or "1e-6" into a
    Fraction; refuse floats, bools and literals over MAX_DIGITS digits."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValidationError(f"not a rational literal: {text!r}")
    literal = text.strip()
    numerator, slash, denominator = literal.partition("/")
    if _plain(numerator[1:] if numerator[:1] in ("+", "-") else numerator) and (
        not slash or _plain(denominator)
    ):
        try:
            return Fraction(int(numerator), int(denominator)) if slash else Fraction(int(numerator))
        except ZeroDivisionError as exc:
            raise ValidationError(f"not a rational literal: {_quoted(text)}") from exc
        except ValueError:
            pass  # int() refused the digits under a lowered sys.set_int_max_str_digits
    if _too_long(literal):
        raise ValidationError(f"rational literal over {MAX_DIGITS} digits: {_quoted(text)}")
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational literal: {_quoted(text)}") from exc


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # str() refuses integers over MAX_DIGITS digits
        parts = (q.numerator,) if q.denominator == 1 else (q.numerator, q.denominator)
        return "/".join(str(Decimal(n)) for n in parts)


def clear_denominators(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(D, the values times D), with D the lcm of their denominators: the
    values as exact integers over one common denominator."""
    D = math.lcm(*(q.denominator for q in values))
    return D, tuple(q.numerator * (D // q.denominator) for q in values)


def parse_rational_vector(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rational literals; an empty item,
    as in "3,,1" or "3,1,", is not a literal and is refused."""
    return tuple(parse_rational(piece) for piece in text.split(","))
