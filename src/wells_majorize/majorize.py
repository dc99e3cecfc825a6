"""Majorization order on non-negative vectors, in exact rational arithmetic.

Vectors hold `Fraction` entries, but every comparison, running sum and
power runs on Python integers: each vector is put once over one common
denominator D, the lcm of its entries' denominators, and two vectors
compared with each other over the lcm of theirs. A `Fraction` is built
only for a value that a public function returns. The only convex test
functions are the odd powers t**(2m+1), the ones the paper's Karamata
argument needs. Nothing here ever rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Union

from .errors import LengthMismatchError, PreconditionError, ValidationError
from .rationals import clear_denominators, parse_rational

RationalLike = Union[Fraction, int, str]


@dataclass(frozen=True)
class NonNegVector:
    """Finite vector of non-negative exact rationals."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 1:
            raise ValidationError("vector must have at least one entry")
        for e in self.entries:
            if not isinstance(e, Fraction):
                raise ValidationError(f"entry {e!r} is not a Fraction")
            if e.numerator < 0:
                raise ValidationError(f"negative entry {e}")

    @classmethod
    def of(cls, *values: RationalLike) -> "NonNegVector":
        return cls(tuple(parse_rational(v) for v in values))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    @cached_property
    def _scaled(self) -> tuple[int, tuple[int, ...]]:
        return clear_denominators(self.entries)

    @cached_property
    def _order(self) -> list[int]:
        """Indices of the entries in decreasing order. Stable: ties keep
        their original index order."""
        scaled = self._scaled[1]
        return sorted(range(len(scaled)), key=scaled.__getitem__, reverse=True)

    @cached_property
    def decreasing(self) -> tuple[Fraction, ...]:
        return tuple(self.entries[i] for i in self._order)

    @cached_property
    def _decreasing_scaled(self) -> tuple[int, ...]:
        scaled = self._scaled[1]
        return tuple(scaled[i] for i in self._order)

    def total(self) -> Fraction:
        D, scaled = self._scaled
        return Fraction(sum(scaled), D)


def _over_common_denominator(
    x: NonNegVector, y: NonNegVector, decreasing: bool = False
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The entries of x and y, or of their decreasing rearrangements, as
    integers over one common denominator, the lcm of the two vectors'."""
    D = math.lcm(x._scaled[0], y._scaled[0])

    def rescaled(v: NonNegVector) -> tuple[int, ...]:
        k = D // v._scaled[0]
        ints = v._decreasing_scaled if decreasing else v._scaled[1]
        return ints if k == 1 else tuple(a * k for a in ints)

    return rescaled(x), rescaled(y)


def _power_sum(D: int, scaled: Iterable[int], n: int) -> Fraction:
    """sum (a / D)**n over the integers a of scaled, as one Fraction."""
    return Fraction(sum(a**n for a in scaled), D**n)


def partial_sums(v: NonNegVector) -> list[Fraction]:
    """Running sums of the decreasing rearrangement; the last is the total."""
    D = v._scaled[0]
    return [Fraction(s, D) for s in accumulate(v._decreasing_scaled)]


def _first_shortfall(sa: Iterable[int], sb: Iterable[int]) -> int | None:
    """The 1-based first position where the running sums sa fall below the
    running sums sb, or None when they never do."""
    return next((i for i, (a, b) in enumerate(zip(sa, sb), 1) if a < b), None)


def majorizes(x: NonNegVector, y: NonNegVector) -> bool:
    """Exact test of the majorization order: equal totals and dominating
    partial sums of the decreasing rearrangements."""
    if len(x) != len(y):
        raise LengthMismatchError(f"length mismatch: {len(x)} vs {len(y)}")
    xs, ys = _over_common_denominator(x, y, decreasing=True)
    sx = list(accumulate(xs))
    sy = list(accumulate(ys))
    return sx[-1] == sy[-1] and _first_shortfall(sx, sy) is None


@dataclass(frozen=True)
class SingleCrossing:
    """Result of the single-crossing sufficient criterion."""

    applies: bool
    crossing_index: int | None = None  # 1-based position of the crossing


def _single_crossing_index(xs: tuple[int, ...], ys: tuple[int, ...]) -> int | None:
    """The first position where xs is at or below ys (len(xs) if there is
    none), provided xs never rises above ys again from there on; None when
    it does. Sequences are compared as given, not rearranged."""
    first = next((i for i, (a, b) in enumerate(zip(xs, ys)) if a <= b), len(xs))
    if any(a > b for a, b in zip(xs[first:], ys[first:])):
        return None
    return first


def single_crossing_majorizes(x: NonNegVector, y: NonNegVector) -> SingleCrossing:
    """Check the single-crossing pattern on the decreasing rearrangements:
    strictly above before some position l >= 2, at-or-below from l on.

    When the pattern applies the majorization order is implied, so a
    positive result here must always agree with majorizes(). Equal totals
    are a structural hypothesis and raise PreconditionError when violated.
    """
    if len(x) != len(y):
        raise LengthMismatchError(f"length mismatch: {len(x)} vs {len(y)}")
    xs, ys = _over_common_denominator(x, y, decreasing=True)
    if sum(xs) != sum(ys):
        raise PreconditionError("single-crossing criterion requires equal totals")
    first = _single_crossing_index(xs, ys)
    if first is None or first in (0, len(xs)):
        # Crosses back above, has no strict head, or never crosses: the
        # criterion does not apply.
        return SingleCrossing(applies=False)
    return SingleCrossing(applies=True, crossing_index=first + 1)


@dataclass(frozen=True)
class OddConvexFunction:
    """The odd power t -> t**exponent, convex on t >= 0 with value 0 at 0."""

    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 1 or self.exponent % 2 == 0:
            raise ValidationError("exponent must be a positive odd integer")

    @classmethod
    def power(cls, m: int) -> "OddConvexFunction":
        """The odd power t -> t**(2m+1)."""
        if m < 0:
            raise ValidationError("m must be non-negative")
        return cls(2 * m + 1)

    def value(self, t: RationalLike) -> Fraction:
        return parse_rational(t) ** self.exponent


@dataclass(frozen=True)
class KaramataResult:
    holds: bool
    lhs: Fraction
    rhs: Fraction


def karamata_verify(
    x: NonNegVector, y: NonNegVector, phi: OddConvexFunction
) -> KaramataResult:
    """Evaluate both sides of sum phi(x_i) >= sum phi(y_i) for x majorizing
    y and an odd power phi, convex on the non-negative entries.

    The majorization order is a precondition; given it, holds=True is a
    theorem, so a False result is a bug witness, never a soft failure.
    """
    if not majorizes(x, y):
        raise PreconditionError("inputs are not in majorization order")
    lhs, rhs = (_power_sum(*v._scaled, phi.exponent) for v in (x, y))
    return KaramataResult(holds=lhs >= rhs, lhs=lhs, rhs=rhs)
