"""Majorization order on non-negative vectors, in exact rational arithmetic.

A vector is its integers over one denominator: `NonNegVector`, a frozen
dataclass, holds the one field (D, ints), with D the least common
denominator of its entries, whether it is built from `Fraction` entries
or from integers over any common denominator (`NonNegVector.from_scaled`,
which the CLI's vector reader and the theorem pipelines use). Every
comparison, running sum and power runs on those integers, and two
vectors are compared with each other over the lcm of their two
denominators. A `Fraction` is built only for a value that a public
function returns, or for `entries` and `decreasing` when they are read;
a report writes each entry from the integers. The only convex test
functions are the odd powers t**(2m+1), the ones the paper's Karamata
argument needs; `wells` and `spin_sums` read their integer kernels here:
`_odd_power_sums` (order by order) and `_stop_loss_dominates` (every odd
order at once). Nothing here ever rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import Iterable, Iterator, Union

from .errors import LengthMismatchError, PreconditionError, ValidationError
from .rationals import clear_denominators, parse_rational

RationalLike = Union[Fraction, int, str]


@dataclass(frozen=True, init=False, repr=False)
class NonNegVector:
    """Finite vector of non-negative exact rationals, held as its one
    field `_scaled`: (D, ints), the entries times D, with D > 0 their
    least common denominator. Equal vectors hold the same pair however
    they were built, so the equality and hashing a frozen dataclass
    generates from that field compare vectors by value. `entries` and
    `decreasing` are Fractions formed when first read; a vector built
    from its entries keeps them."""

    _scaled: tuple[int, tuple[int, ...]]

    def __init__(self, entries: tuple[Fraction, ...]) -> None:
        entries = tuple(entries)
        if not entries:
            raise ValidationError("vector must have at least one entry")
        for e in entries:
            if not isinstance(e, Fraction):
                raise ValidationError(f"entry {e!r} is not a Fraction")
            if e.numerator < 0:
                raise ValidationError(f"negative entry {e}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_scaled", clear_denominators(entries))

    @classmethod
    def from_scaled(cls, D: int, scaled: Iterable[int]) -> "NonNegVector":
        """The vector of the integers scaled over the common denominator
        D > 0, put over the least one, with no Fraction formed. Refuses
        what the entries constructor refuses, with the same errors."""
        scaled = tuple(scaled)
        if not scaled:
            raise ValidationError("vector must have at least one entry")
        if D <= 0:
            raise ValidationError(f"denominator {D} is not positive")
        if min(scaled) < 0:
            raise ValidationError(f"negative entry {Fraction(next(a for a in scaled if a < 0), D)}")
        g = math.gcd(D, *scaled)
        v = cls.__new__(cls)
        object.__setattr__(v, "_scaled", (D, scaled) if g == 1 else (D // g, tuple(a // g for a in scaled)))
        return v

    @classmethod
    def of(cls, *values: RationalLike) -> "NonNegVector":
        return cls(tuple(parse_rational(v) for v in values))

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        D, scaled = self._scaled
        return tuple(Fraction(a, D) for a in scaled)

    def __len__(self) -> int:
        return len(self._scaled[1])

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __repr__(self) -> str:
        return f"NonNegVector(entries={self.entries!r})"

    @cached_property
    def decreasing(self) -> tuple[Fraction, ...]:
        """The entries in decreasing order. Stable: ties keep their
        original order, as the same objects."""
        return tuple(sorted(self.entries, reverse=True))

    @cached_property
    def _decreasing_scaled(self) -> tuple[int, ...]:
        return tuple(sorted(self._scaled[1], reverse=True))

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


def _odd_power_sums(terms: list[tuple[int, int]], first: int) -> Iterator[int]:
    """Yield sum c * d**n over the integer pairs (d, c) of terms for the
    odd orders n = first, first + 2, ..., each from the running products
    of the one before times d*d, computed only when it is asked for."""
    powers = [c * d**first for d, c in terms]
    yield sum(powers)
    squares = [d * d for d, _ in terms]
    while True:
        powers = list(map(mul, powers, squares))
        yield sum(powers)


def _stop_loss_dominates(terms: list[tuple[int, int]]) -> bool:
    """True iff sum over d > t of c (d - t) >= sum over d < -t of c (|d| - t)
    for every t >= 0, for nonzero integers d in increasing order.

    The difference of the two sides is sum c d - t * (sum of c, counted
    negative for d < 0), over the d with |d| > t. It is piecewise linear
    in t with kinks only at the |d| and vanishes past the largest, so
    t = 0 and each |d| suffice. One two-ended merge visits the |d| from
    the largest down, the two sides' equal |d| together, keeping both
    sums over the d beyond the current t.
    """
    i, j = 0, len(terms) - 1
    excess = slope = 0
    while i <= j:
        (dn, cn), (dp, cp) = terms[i], terms[j]
        t = max(-dn, dp)
        if excess < t * slope:
            return False
        if dp == t:
            excess, slope, j = excess + cp * dp, slope + cp, j - 1
        if dn == -t:
            excess, slope, i = excess + cn * dn, slope - cn, i + 1
    return excess >= 0


def running_sums(v: NonNegVector) -> NonNegVector:
    """Running sums of the decreasing rearrangement, as a vector formed
    from v's integers; the last is the total."""
    return NonNegVector.from_scaled(v._scaled[0], accumulate(v._decreasing_scaled))


def partial_sums(v: NonNegVector) -> list[Fraction]:
    """Running sums of the decreasing rearrangement, as Fractions; the
    last is the total."""
    return list(running_sums(v))


def _first_shortfall(sa: Iterable[int], sb: Iterable[int]) -> int | None:
    """The 1-based first position where the running sums sa fall below the
    running sums sb, or None when they never do."""
    return next((i for i, (a, b) in enumerate(zip(sa, sb), 1) if a < b), None)


def _check_lengths(x: NonNegVector, y: NonNegVector) -> None:
    if len(x) != len(y):
        raise LengthMismatchError(f"length mismatch: {len(x)} vs {len(y)}")


def majorizes(x: NonNegVector, y: NonNegVector) -> bool:
    """Exact test of the majorization order: equal totals and dominating
    partial sums of the decreasing rearrangements."""
    _check_lengths(x, y)
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
    _check_lengths(x, y)
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
