"""Moment criterion for Ising domination of symmetric two-point measures.

An even, compactly supported, atomic probability measure dominates the
symmetric two-point measure at +-S exactly when every centered even-power
moment integral of (x^2 - S^2)**n is non-negative. The threshold value
T_- is the largest such S; this module computes certified rational
brackets for it, classifies canonical measures (T_- equal to the RMS
spin), and evaluates the closed-form transition-temperature bound ratios.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import comb, lcm
from typing import Iterable

from .errors import DomainError, InvariantError, PreconditionError, ValidationError
from .rationals import format_rational, parse_rational
from .spin_sums import SpinValue, _odd_power_sums

CLOSED_FORM = "closed_form"
CERTIFIED_UP_TO_N_MAX = "certified_up_to_n_max"

DEFAULT_N_MAX = 50
DEFAULT_TOL = Fraction(1, 10**6)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Even probability measure with finitely many rational atoms."""

    atoms: tuple[tuple[Fraction, Fraction], ...]  # (value, weight)

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValidationError("measure needs at least one atom")
        values = [v for v, _ in self.atoms]
        if len(set(values)) != len(values):
            raise ValidationError("duplicate atom values")
        total = Fraction(0)
        table = dict(self.atoms)
        for v, w in self.atoms:
            if w <= 0:
                raise ValidationError(f"non-positive weight at {v}")
            if table.get(-v) != w:
                raise ValidationError(f"measure is not even at value {v}")
            total += w
        if total != 1:
            raise ValidationError(f"weights sum to {format_rational(total)}, not 1")
        if len(self.atoms) == 1 and self.atoms[0][0] == 0:
            raise ValidationError("point mass at 0 is excluded")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, object]]) -> "DiscreteMeasure":
        """Atoms from (value, weight) pairs of Fractions, integers or
        rational strings; a float is refused, since it is not exact."""
        atoms = []
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValidationError(f"atom {pair!r} is not a [value, weight] pair")
            atoms.append((parse_rational(pair[0]), parse_rational(pair[1])))
        return cls(tuple(sorted(atoms)))

    @classmethod
    def from_json(cls, text: str) -> "DiscreteMeasure":
        """Parse {"atoms": [["value", "weight"], ...]} with rational strings."""
        try:
            data = json.loads(text)
            pairs = data["atoms"]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ValidationError(f"bad measure JSON: {exc}") from exc
        if not isinstance(pairs, list):
            raise ValidationError(f"bad measure JSON: atoms must be a list, got {pairs!r}")
        return cls.from_pairs(pairs)

    def second_moment(self) -> Fraction:
        return sum((w * v * v for v, w in self.atoms), Fraction(0))

    def max_abs_value(self) -> Fraction:
        return max(abs(v) for v, _ in self.atoms)

    @cached_property
    def cleared_squares(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """The squared atoms over one common denominator: (D, ((a, c), ...))
        with v^2 = a/D and c/W the total weight at v^2, one entry per
        distinct v^2 in increasing order. W is the common denominator of
        the weights; only the signs and ratios of the c matter, so it is
        not kept. Computed once per measure for the integer moment sums."""
        D = lcm(*(v.denominator**2 for v, _ in self.atoms))
        W = lcm(*(w.denominator for _, w in self.atoms))
        weights: dict[int, int] = {}
        for v, w in self.atoms:
            a = v.numerator**2 * (D // v.denominator**2)
            weights[a] = weights.get(a, 0) + w.numerator * (W // w.denominator)
        return D, tuple(sorted(weights.items()))


def bernoulli_measure(T: Fraction | int | str) -> DiscreteMeasure:
    """Symmetric two-point measure with atoms +-T, weight 1/2 each."""
    T = parse_rational(T)
    if T <= 0:
        raise DomainError("T must be > 0")
    return DiscreteMeasure.from_pairs([(T, Fraction(1, 2)), (-T, Fraction(1, 2))])


def spin_measure(S: SpinValue) -> DiscreteMeasure:
    """2S+1 equally weighted atoms equally spaced between -1 and 1."""
    s2 = S.twice
    weight = Fraction(1, s2 + 1)
    return DiscreteMeasure.from_pairs(
        (Fraction(2 * k - s2, s2), weight) for k in range(s2 + 1)
    )


def mu_lambda_measure(lam: Fraction | int | str) -> DiscreteMeasure:
    """Three-point family: weight lam/2 at each of +-1 and 1-lam at 0."""
    lam = parse_rational(lam)
    if not 0 < lam <= 1:
        raise DomainError("lambda must lie in (0, 1]")
    pairs = [(Fraction(1), lam / 2), (Fraction(-1), lam / 2)]
    if lam < 1:
        pairs.append((Fraction(0), 1 - lam))
    return DiscreteMeasure.from_pairs(pairs)


def spin_second_moment(S: SpinValue) -> Fraction:
    """Second moment of the spin-S measure; equals 1/3 + 1/(3S) exactly."""
    value = spin_measure(S).second_moment()
    closed = Fraction(1, 3) + Fraction(1, 3) / S.as_fraction
    if value != closed:
        raise InvariantError("spin second moment disagrees with closed form")
    return value


def wells_term(mu: DiscreteMeasure, s_squared: Fraction | int | str, n: int) -> Fraction:
    """Exact centered moment integral of (x^2 - s_squared)**n against mu.

    The threshold parameter enters squared to keep everything rational
    (the threshold itself is typically irrational).
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    s = parse_rational(s_squared)
    return sum((w * (v * v - s) ** n for v, w in mu.atoms), Fraction(0))


def _scaled_differences(mu: DiscreteMeasure, s: Fraction) -> list[tuple[int, int]]:
    """(d, c) per distinct v^2, where d = (v^2 - s) * q * D for s = p/q and
    c is the weight scaled by W (see `DiscreteMeasure.cleared_squares`).

    Then (qD)^n * W * P_n(s) = sum c * d^n, so each integer sum has the
    sign of the moment P_n(s), and comparisons between the d or between
    the c are those between the unscaled differences or weights.
    """
    D, squares = mu.cleared_squares
    pD, q = s.numerator * D, s.denominator
    return [(a * q - pD, c) for a, c in squares]


def passes_up_to(mu: DiscreteMeasure, s_squared: Fraction | int | str, n_max: int) -> bool:
    """True iff every centered moment of order n = 1..n_max is >= 0.

    A truncation of the all-n criterion: a True result certifies the
    necessary conditions only up to n_max. Evaluated in exact integers
    (see `_scaled_differences`); even orders are sums of non-negative
    terms, so only the odd ones are read from `_odd_power_sums`, up to
    the first negative one. `wells_term` is the definition.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    s = parse_rational(s_squared)
    terms = [(d, c) for d, c in _scaled_differences(mu, s) if d]
    return all(t >= 0 for t in islice(_odd_power_sums(terms, 1), (n_max + 1) // 2))


def tail_sign_ok(mu: DiscreteMeasure, s_squared: Fraction | int | str) -> bool:
    """Exact large-n necessary condition for the all-n criterion.

    For odd n -> infinity the atoms with the largest |x^2 - s| = top
    dominate the integral, which takes the sign of their weight at +top
    less that at -top; a negative one makes some large odd moment
    negative, decidable exactly, with no truncation. If every difference
    is 0, the two weights are the same one and the condition holds.
    Decided on the integer differences (distinct, one per v^2) and weights
    of `_scaled_differences`, whose positive scale factors change no
    comparison.
    """
    weights = dict(_scaled_differences(mu, parse_rational(s_squared)))
    top = max(map(abs, weights))
    return weights.get(top, 0) >= weights.get(-top, 0)


@dataclass(frozen=True)
class TMinusResult:
    """Certified rational bracket for the domination threshold."""

    lo: Fraction
    hi: Fraction
    n_max_checked: int
    status: str

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise InvariantError("empty bracket")
        if self.status == CLOSED_FORM and self.lo != self.hi:
            raise InvariantError("closed form must be a point bracket")


def t_minus_upper(
    mu: DiscreteMeasure,
    n_max: int = DEFAULT_N_MAX,
    tol: Fraction | int | str = DEFAULT_TOL,
) -> TMinusResult:
    """Bracket the domination threshold by bisection on S in [0, max|atom|].

    The predicate combines the truncated moment checks (n <= n_max) with
    the exact large-n sign condition, so the bracket is tight for the
    atomic families with known closed forms. The true threshold never
    exceeds hi; equality with the bracketed value holds only in the
    all-n limit.

    Bisection is sound because the predicate holds on a down-set of
    s = S^2: if it holds at s, it holds at s - h for every h > 0. For the
    moments, P_n(s - h) = sum_k C(n, k) h^k P_{n-k}(s) with P_0 = 1, a sum
    of non-negative terms once P_1..P_n(s) are. For `tail_sign_ok`,
    lowering s by h raises every difference v^2 - s by h, so the largest
    positive one strictly grows and the largest negative magnitude
    strictly shrinks.

    The top of the range is never a candidate: with more than two atoms
    some |v| < max|atom|, so at S = max|atom| P_1 < 0 and the tail fails.
    """
    tol = parse_rational(tol)
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    top = mu.max_abs_value()
    if len(mu.atoms) == 2:
        # Two-point measure: the threshold is the atom magnitude itself.
        return TMinusResult(lo=top, hi=top, n_max_checked=n_max, status=CLOSED_FORM)
    lo, hi = Fraction(0), top
    while hi - lo > tol:
        mid = (lo + hi) / 2
        s = mid * mid
        if tail_sign_ok(mu, s) and passes_up_to(mu, s, n_max):
            lo = mid
        else:
            hi = mid
    return TMinusResult(lo=lo, hi=hi, n_max_checked=n_max, status=CERTIFIED_UP_TO_N_MAX)


def t_minus_squared_mu_lambda(lam: Fraction | int | str) -> Fraction:
    """Closed-form squared threshold for the three-point family:
    lam when lam <= 1/2; 1/2 when 1/2 < lam < 1; 1 at lam = 1, where the
    zero atom vanishes and the family is the two-point measure at +-1."""
    lam = parse_rational(lam)
    if not 0 < lam <= 1:
        raise DomainError("lambda must lie in (0, 1]")
    if lam == 1:
        return Fraction(1)
    return min(lam, Fraction(1, 2))


@dataclass(frozen=True)
class CanonicalGap:
    second_moment: Fraction
    canonical_up_to_n_max: bool
    bracket: TMinusResult


def canonical_gap(
    mu: DiscreteMeasure,
    n_max: int = DEFAULT_N_MAX,
    tol: Fraction | int | str = DEFAULT_TOL,
) -> CanonicalGap:
    """Compare the threshold bracket against the RMS spin.

    The measure is canonical when the threshold equals the RMS value; the
    truncated certificate here is the moment check at S^2 = second moment.
    The threshold bracket itself is returned as `bracket`.
    """
    second = mu.second_moment()
    bracket = t_minus_upper(mu, n_max=n_max, tol=tol)
    return CanonicalGap(
        second_moment=second,
        canonical_up_to_n_max=passes_up_to(mu, second, n_max),
        bracket=bracket,
    )


def sphere_moment(D: int, k: int) -> Fraction:
    """E[x^(2k)] for the first coordinate of a uniform point on the unit
    sphere in R^D: product of (2i+1)/(D+2i) for i = 0..k-1. Odd moments
    vanish by symmetry."""
    if D < 2:
        raise PreconditionError("D must be >= 2")
    if k < 0:
        raise PreconditionError("k must be >= 0")
    value = Fraction(1)
    for i in range(k):
        value *= Fraction(2 * i + 1, D + 2 * i)
    return value


def sphere_centered_term(D: int, n: int) -> Fraction:
    """Exact integral of (x^2 - 1/D)**n for the sphere coordinate measure,
    via binomial expansion over the even moments."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    shift = Fraction(-1, D)
    return sum(
        (comb(n, i) * sphere_moment(D, i) * shift ** (n - i) for i in range(n + 1)),
        Fraction(0),
    )


def sphere_canonical_check(D: int, n_max: int) -> bool:
    """True iff every centered term at S^2 = 1/D is >= 0 for n = 1..n_max,
    i.e. the sphere coordinate measure looks canonical to this order."""
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    return all(sphere_centered_term(D, n) >= 0 for n in range(1, n_max + 1))


@dataclass(frozen=True)
class TcBounds:
    """Dimensionless lower-bound ratios T_c(S) / T_c(1/2)."""

    griffiths: Fraction
    msw: Fraction
    improvement: Fraction


def tc_bounds(S: SpinValue) -> TcBounds:
    """Classical ratio 1/4 versus the moment-criterion ratio: 1/2 at S = 1,
    otherwise 1/3 + 1/(3S). The improvement factor always exceeds 4/3."""
    if S.as_fraction < 1:
        raise PreconditionError("requires S >= 1")
    griffiths = Fraction(1, 4)
    if S.as_fraction == 1:
        msw = Fraction(1, 2)
    else:
        msw = Fraction(1, 3) + Fraction(1, 3) / S.as_fraction
    return TcBounds(griffiths=griffiths, msw=msw, improvement=msw / griffiths)
