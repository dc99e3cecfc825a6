"""Parsing and lossless serialization of exact rationals.

Rationals are carried everywhere as `fractions.Fraction` (arbitrary
precision, always in lowest terms, positive denominator) and cross the
CLI boundary as strings "p/q" or "p", never as floats.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .errors import ValidationError

# CPython's default int() limit on digit strings; no literal may need more.
MAX_DIGITS = 4300


def _too_long(literal: str) -> bool:
    """Whether the literal's numerator or denominator, written out in
    digits, would exceed MAX_DIGITS, judged before any integer is built."""
    numerator, _, denominator = literal.replace("_", "").partition("/")
    mantissa, _, exponent = numerator.lower().partition("e")
    try:
        scale = int(exponent or 0)
    except ValueError:
        return False  # not a literal; Fraction refuses it
    whole, _, decimals = mantissa.lstrip("+-").partition(".")
    scale -= len(decimals)
    return max(len(whole + decimals) + max(scale, 0), len(denominator), 1 - scale) > MAX_DIGITS


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
    if _too_long(literal):
        raise ValidationError(f"rational literal over {MAX_DIGITS} digits: {text!r}")
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational literal: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # str() refuses integers over MAX_DIGITS digits
        parts = (q.numerator,) if q.denominator == 1 else (q.numerator, q.denominator)
        return "/".join(str(Decimal(n)) for n in parts)


def parse_rational_vector(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rational literals."""
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise ValidationError("empty vector literal")
    return tuple(parse_rational(piece) for piece in items)
