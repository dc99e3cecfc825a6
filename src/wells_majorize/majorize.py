"""Majorization order on non-negative vectors, in exact rational arithmetic.

Vectors hold `Fraction` entries and convex test functions are either exact
piecewise-linear data or symbolic odd powers, so every inequality check
reduces to integer comparisons. Nothing here ever rounds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, Union

from .errors import (
    DomainError,
    LengthMismatchError,
    PreconditionError,
    ValidationError,
)
from .rationals import parse_rational

RationalLike = Union[Fraction, int, str]


def _fractions(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(parse_rational(v) for v in values)


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
            if e < 0:
                raise ValidationError(f"negative entry {e}")

    @classmethod
    def of(cls, *values: RationalLike) -> "NonNegVector":
        return cls(_fractions(values))

    @classmethod
    def from_iterable(cls, values: Iterable[RationalLike]) -> "NonNegVector":
        return cls(_fractions(values))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    @cached_property
    def decreasing(self) -> tuple[Fraction, ...]:
        # Stable: ties keep their original index order.
        return tuple(sorted(self.entries, reverse=True))

    def total(self) -> Fraction:
        return sum(self.entries, Fraction(0))


def partial_sums(v: NonNegVector) -> list[Fraction]:
    """Running sums of the decreasing rearrangement; the last is the total."""
    return list(accumulate(v.decreasing))


def sequence_partial_sums(values: Iterable[Fraction]) -> list[Fraction]:
    """Running sums of a sequence as given, without rearranging."""
    return list(accumulate(values))


def majorizes(x: NonNegVector, y: NonNegVector) -> bool:
    """Exact test of the majorization order: equal totals and dominating
    partial sums of the decreasing rearrangements."""
    if len(x) != len(y):
        raise LengthMismatchError(f"length mismatch: {len(x)} vs {len(y)}")
    sx = partial_sums(x)
    sy = partial_sums(y)
    if sx[-1] != sy[-1]:
        return False
    return all(a >= b for a, b in zip(sx[:-1], sy[:-1]))


@dataclass(frozen=True)
class SingleCrossing:
    """Result of the single-crossing sufficient criterion."""

    applies: bool
    crossing_index: int | None = None  # 1-based position of the crossing


def _single_crossing_index(
    xs: tuple[Fraction, ...], ys: tuple[Fraction, ...]
) -> int | None:
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
    xs, ys = x.decreasing, y.decreasing
    if sum(xs) != sum(ys):
        raise PreconditionError("single-crossing criterion requires equal totals")
    first = _single_crossing_index(xs, ys)
    if first is None or first in (0, len(xs)):
        # Crosses back above, has no strict head, or never crosses: the
        # criterion does not apply.
        return SingleCrossing(applies=False)
    return SingleCrossing(applies=True, crossing_index=first + 1)


@dataclass(frozen=True)
class PiecewiseLinearConvex:
    """Convex piecewise-linear function given by exact breakpoints.

    Convexity is equivalent to non-decreasing chord slopes, which is
    checked exactly at construction time.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pts = self.breakpoints
        if len(pts) < 2:
            raise ValidationError("need at least two breakpoints")
        for (t0, _), (t1, _) in zip(pts, pts[1:]):
            if not t0 < t1:
                raise ValidationError("breakpoint abscissae must strictly increase")
        slopes = [(v1 - v0) / (t1 - t0) for (t0, v0), (t1, v1) in zip(pts, pts[1:])]
        for s0, s1 in zip(slopes, slopes[1:]):
            if s0 > s1:
                raise ValidationError("slopes decrease: function is not convex")

    @classmethod
    def from_points(cls, points: Iterable[tuple[RationalLike, RationalLike]]) -> "PiecewiseLinearConvex":
        return cls(tuple((parse_rational(t), parse_rational(v)) for t, v in points))

    @classmethod
    def from_callable(
        cls, fn: Callable[[Fraction], RationalLike], knots: Iterable[RationalLike]
    ) -> "PiecewiseLinearConvex":
        ks = _fractions(knots)
        return cls(tuple((t, parse_rational(fn(t))) for t in ks))

    def domain(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0][0], self.breakpoints[-1][0]

    def value(self, t: RationalLike) -> Fraction:
        t = parse_rational(t)
        lo, hi = self.domain()
        if t < lo or t > hi:
            raise DomainError(f"{t} outside [{lo}, {hi}]")
        abscissae = [p[0] for p in self.breakpoints]
        i = bisect_right(abscissae, t) - 1
        if i == len(abscissae) - 1:
            return self.breakpoints[-1][1]
        (t0, v0), (t1, v1) = self.breakpoints[i], self.breakpoints[i + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


@dataclass(frozen=True)
class OddConvexFunction:
    """Odd function whose restriction to t >= 0 is convex with value 0 at 0.

    Either a symbolic odd power t**(2m+1), or the odd extension of an
    exact piecewise-linear convex function on [0, M] with value 0 at 0.
    """

    exponent: int | None = None
    base: PiecewiseLinearConvex | None = None

    def __post_init__(self) -> None:
        if (self.exponent is None) == (self.base is None):
            raise ValidationError("provide exactly one of exponent / base")
        if self.exponent is not None:
            if self.exponent < 1 or self.exponent % 2 == 0:
                raise ValidationError("exponent must be a positive odd integer")
        else:
            t0, v0 = self.base.breakpoints[0]
            if t0 != 0 or v0 != 0:
                raise ValidationError("piecewise base must start at (0, 0)")

    @classmethod
    def power(cls, m: int) -> "OddConvexFunction":
        """The odd power t -> t**(2m+1)."""
        if m < 0:
            raise ValidationError("m must be non-negative")
        return cls(exponent=2 * m + 1)

    @classmethod
    def from_piecewise(cls, base: PiecewiseLinearConvex) -> "OddConvexFunction":
        return cls(base=base)

    def value(self, t: RationalLike) -> Fraction:
        t = parse_rational(t)
        if self.exponent is not None:
            return t**self.exponent
        if t >= 0:
            return self.base.value(t)
        return -self.base.value(-t)


ConvexFunction = Union[PiecewiseLinearConvex, OddConvexFunction]


@dataclass(frozen=True)
class KaramataResult:
    holds: bool
    lhs: Fraction
    rhs: Fraction


def karamata_verify(
    x: NonNegVector, y: NonNegVector, phi: ConvexFunction
) -> KaramataResult:
    """Evaluate both sides of the convex-sum inequality for x majorizing y.

    The majorization order is a precondition; given it, holds=True is a
    theorem, so a False result is a bug witness, never a soft failure.
    """
    if not majorizes(x, y):
        raise PreconditionError("inputs are not in majorization order")
    lhs = sum((phi.value(e) for e in x), Fraction(0))
    rhs = sum((phi.value(e) for e in y), Fraction(0))
    return KaramataResult(holds=lhs >= rhs, lhs=lhs, rhs=rhs)
