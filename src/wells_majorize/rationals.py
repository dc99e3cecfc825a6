"""Parsing and lossless serialization of exact rationals.

Rationals are carried everywhere as `fractions.Fraction` (arbitrary
precision, always in lowest terms, positive denominator) and cross the
CLI boundary as strings "p/q" or "p", never as floats. Inner loops carry
a sequence of them as integers over one common denominator
(`clear_denominators`), and such a sequence is read from a list literal
(`parse_scaled_vector`) and written (`format_scaled`) with no `Fraction`
per entry.

`parse_rational` reads the common literal, "[+-]p" or "[+-]p/q" in
ASCII digits with each part at most MAX_DIGITS long, with int()
directly. Every other literal (decimals, exponents, underscores, other
scripts' digits, longer parts) is checked against MAX_DIGITS in the
running Python's `Fraction` grammar, then read by `Fraction`. Both paths
give the same value, and a literal refused on either gets the same
message. `SpinValue`, a spin S = twice/2, lives here, below every module
that reads one.
"""

from __future__ import annotations

import fractions
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ValidationError

# CPython's default int() limit on digit strings; no literal may need more.
MAX_DIGITS = 4300
# Error messages quote literals up to this length in full; a longer one
# by its first _QUOTED_PREFIX characters and its length.
_QUOTED_MAX = 100
_QUOTED_PREFIX = 40


def _too_long(literal: str) -> bool:
    """Whether the literal's numerator or denominator, written out in
    digits, would exceed MAX_DIGITS, judged before any integer is built.
    Only a literal in the grammar of the running Python's Fraction can be
    too long; any other text is left for Fraction to refuse as not a
    literal."""
    match = fractions._RATIONAL_FORMAT.match(literal)
    if match is None:
        return False
    whole, denominator, decimals, exponent = (
        (match[part] or "").replace("_", "") for part in ("num", "denom", "decimal", "exp")
    )
    if decimals and not decimals.isdecimal():
        return False  # Python 3.10 and 3.11 match decimals "d*", which int() refuses
    if len(exponent) > MAX_DIGITS:
        return True  # int() would refuse the exponent itself
    scale = int(exponent or 0) - len(decimals)
    return max(len(whole + decimals) + max(scale, 0), len(denominator), 1 - scale) > MAX_DIGITS


def _plain_ratio(literal: str) -> tuple[int, int] | None:
    """(p, q) of a literal "[+-]p" or "[+-]p/q" whose parts are 1 to
    MAX_DIGITS ASCII digits, which int() reads exactly as Fraction's
    grammar does, and whose q is not 0, read with int() alone (q is 1 for
    "p"); None for any other literal."""
    numerator, slash, denominator = literal.partition("/")
    digits = numerator[1:] if numerator[:1] in ("+", "-") else numerator
    if not (
        literal.isascii()
        and digits.isdigit()
        and len(digits) <= MAX_DIGITS
        and (not slash or (denominator.isdigit() and len(denominator) <= MAX_DIGITS))
    ):
        return None
    try:
        q = int(denominator) if slash else 1
        return (int(numerator), q) if q else None
    except ValueError:  # int() refused the digits under a lowered sys.set_int_max_str_digits
        return None


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
    ratio = _plain_ratio(literal)
    if ratio is not None:
        p, q = ratio
        return Fraction(p) if q == 1 else Fraction(p, q)
    if _too_long(literal):
        raise ValidationError(f"rational literal over {MAX_DIGITS} digits: {_quoted(text)}")
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational literal: {_quoted(text)}") from exc


def _format_lowest(p: int, q: int) -> str:
    """The text of p/q, in lowest terms with q > 0: "p/q", or "p" when q
    is 1."""
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:  # str() refuses integers over MAX_DIGITS digits
        return "/".join(str(Decimal(n)) for n in ((p,) if q == 1 else (p, q)))


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    return _format_lowest(q.numerator, q.denominator)


def format_scaled(D: int, scaled: Iterable[int]) -> list[str]:
    """format_rational(Fraction(a, D)) for each integer a of scaled, with
    D > 0, written from the integers with no Fraction formed."""
    texts = []
    for a in scaled:
        g = math.gcd(a, D)
        texts.append(_format_lowest(a // g, D // g))
    return texts


def clear_denominators(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(D, the values times D), with D the lcm of their denominators: the
    values as exact integers over one common denominator."""
    D = math.lcm(*(q.denominator for q in values))
    return D, tuple(q.numerator * (D // q.denominator) for q in values)


def parse_rational_vector(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rational literals; an empty item,
    as in "3,,1" or "3,1,", is not a literal and is refused."""
    return tuple(parse_rational(piece) for piece in text.split(","))


def parse_scaled_vector(text: str) -> tuple[int, tuple[int, ...]]:
    """The values of parse_rational_vector(text) as (D, the values times
    D), with D the lcm of their denominators as written ("2/4" counts 4),
    so not always the least. A piece "[+-]p" or "[+-]p/q" of plain digits
    is read with int() alone; every other piece goes through
    parse_rational, which gives its value or its error, so the first
    piece refused is refused with the same message."""
    ratios = [
        _plain_ratio(piece.strip()) or parse_rational(piece).as_integer_ratio()
        for piece in text.split(",")
    ]
    D = math.lcm(*(q for _, q in ratios))
    return D, tuple(p * (D // q) for p, q in ratios)


@dataclass(frozen=True)
class SpinValue:
    """A spin S = twice/2, covering S = 1/2, 1, 3/2, ..."""

    twice: int

    def __post_init__(self) -> None:
        if self.twice < 1:
            raise ValidationError("twice must be >= 1")

    @classmethod
    def parse(cls, text: str | int | Fraction) -> "SpinValue":
        q = parse_rational(text)
        if q.denominator not in (1, 2) or q <= 0:
            raise ValidationError(f"not a valid spin: {text!r}")
        return cls(int(q * 2))

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)
