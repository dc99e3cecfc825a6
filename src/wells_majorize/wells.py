"""Moment criterion for Ising domination of symmetric two-point measures.

An even, compactly supported, atomic probability measure dominates the
symmetric two-point measure at +-S exactly when every centered even-power
moment integral of (x^2 - S^2)**n is non-negative. The threshold value
T_- is the largest such S; this module computes certified rational
brackets for it, classifies canonical measures (T_- equal to the RMS
spin), and evaluates the closed-form transition-temperature bound ratios.
Each measure is cleared once into integers over common denominators;
validation, the second moment, the moment sums and the tail rule read
that view, and `wells_term` keeps the `Fraction` definition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import comb, isqrt
from typing import Iterable

from .errors import DomainError, InvariantError, PreconditionError, ValidationError
from .rationals import clear_denominators, format_rational, parse_rational
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
        for atom in self.atoms:  # a bool or a float is not an exact rational
            if not (isinstance(atom, (list, tuple)) and len(atom) == 2
                    and all(type(q) in (Fraction, int) for q in atom)):
                raise ValidationError(f"atom {atom!r} is not a pair of exact rationals")
        _, xs, W, cs = self._cleared
        if len(set(xs)) != len(xs):
            raise ValidationError("duplicate atom values")
        table = dict(zip(xs, cs))
        for (v, _), x, c in zip(self.atoms, xs, cs):
            if c <= 0:
                raise ValidationError(f"non-positive weight at {v}")
            if table.get(-x) != c:
                raise ValidationError(f"measure is not even at value {v}")
        if sum(cs) != W:
            raise ValidationError(f"weights sum to {format_rational(Fraction(sum(cs), W))}, not 1")
        if len(xs) == 1 and xs[0] == 0:
            raise ValidationError("point mass at 0 is excluded")

    @cached_property
    def _cleared(self) -> tuple[int, tuple[int, ...], int, tuple[int, ...]]:
        """(V, the values times V, W, the weights times W): the atoms as
        integers over common denominators, for validation and the moments."""
        values, weights = zip(*self.atoms)
        return (*clear_denominators(values), *clear_denominators(weights))

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
        V, xs, W, cs = self._cleared
        return Fraction(sum(c * x * x for x, c in zip(xs, cs)), V * V * W)

    def max_abs_value(self) -> Fraction:
        return max(abs(v) for v, _ in self.atoms)

    @cached_property
    def cleared_squares(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(D, ((a, c), ...)), one entry per distinct v^2 in increasing
        order, with v^2 = a/D for D = V^2 and c/W the total weight at v^2
        (see `_cleared`); only the signs and ratios of the c matter."""
        V, xs, _, cs = self._cleared
        weights: dict[int, int] = {}
        for x, c in zip(xs, cs):
            weights[x * x] = weights.get(x * x, 0) + c
        return V * V, tuple(sorted(weights.items()))


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
    """Second moment of the spin-S measure, 1/3 + 1/(3S), built from no
    atoms. The 2S+1 atoms are j/S for j = -S..S in unit steps, and the
    sum over j = -S..S of j^2 is S(S+1)(2S+1)/3, so their mean square is
    (S+1)/(3S)."""
    return Fraction(1, 3) + Fraction(1, 3) / S.as_fraction


def wells_term(mu: DiscreteMeasure, s_squared: Fraction | int | str, n: int) -> Fraction:
    """Exact centered moment integral of (x^2 - s_squared)**n against mu.

    The threshold parameter enters squared to keep everything rational
    (the threshold itself is typically irrational).
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    s = parse_rational(s_squared)
    return sum((w * (v * v - s) ** n for v, w in mu.atoms), Fraction(0))


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


def passes_up_to(mu: DiscreteMeasure, s_squared: Fraction | int | str, n_max: int) -> bool:
    """True iff every centered moment of order n = 1..n_max is >= 0.

    A truncation of the all-n criterion: a True result certifies the
    necessary conditions only up to n_max. With v^2 = a/D and weights c/W
    from `DiscreteMeasure.cleared_squares` and s = p/q, the nonzero
    d = a q - p D give the exact integer (qD)^n W P_n(s) = sum c d^n. Even
    orders are sums of non-negative terms, so only the odd ones matter.
    `wells_term` is the definition.

    The stop-loss certificate `_stop_loss_dominates` is tried first. For
    odd n >= 3, x^n = integral over t > 0 of n(n-1) t^(n-2) [(x - t)_+ -
    (-x - t)_+] dt, and n = 1 is the bracket at t = 0. So when the
    positive differences' stop-loss sum dominates the negative ones' at
    every t >= 0, every odd moment is >= 0, whatever n_max is: this is
    the weighted, weak form of majorization (Marshall, Olkin & Arnold,
    *Inequalities*, 2nd ed. 2011, ch. 3 and 5; Shaked & Shanthikumar,
    *Stochastic Orders*, 2007, ch. 4). Only when it fails are the odd
    moments read from `_odd_power_sums`, up to the first negative one.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    s = parse_rational(s_squared)
    D, squares = mu.cleared_squares
    pD, q = s.numerator * D, s.denominator
    terms = [(d, c) for a, c in squares if (d := a * q - pD)]
    if _stop_loss_dominates(terms):
        return True
    return all(t >= 0 for t in islice(_odd_power_sums(terms, 1), (n_max + 1) // 2))


def tail_sign_ok(mu: DiscreteMeasure, s_squared: Fraction | int | str) -> bool:
    """Exact large-n necessary condition for the all-n criterion.

    For odd n -> infinity the atoms with the largest |v^2 - s| dominate
    the integral, which takes the sign of their weight above s less that
    below; a negative one makes some large odd moment negative, decidable
    exactly, with no truncation. The largest lies at min v^2 or max v^2,
    so with the two ends (a_lo, c_lo), (a_hi, c_hi) of `cleared_squares`
    and s = p/q the rule holds iff s < (min v^2 + max v^2)/2, that is
    balance = (a_lo + a_hi) q - 2 p D > 0, or balance = 0 and c_hi >= c_lo.
    """
    s = parse_rational(s_squared)
    D, squares = mu.cleared_squares
    (a_lo, c_lo), (a_hi, c_hi) = squares[0], squares[-1]
    balance = (a_lo + a_hi) * s.denominator - 2 * s.numerator * D
    return balance > 0 or (balance == 0 and c_hi >= c_lo)


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
    of non-negative terms once P_1..P_n(s) are. `tail_sign_ok` holds for
    every s below a midpoint, and at it by a weight condition.

    The top of the range is never a candidate: with more than two atoms
    some |v| < max|atom|, so at S = max|atom| P_1 < 0 and the tail fails.

    The bisection runs on integers: with top = tp/tq, the bracket after j
    steps is [top * a / 2^j, top * (a + 1) / 2^j], kept as (a, j), so its
    width is top / 2^j. It takes the least j with top / 2^j <= tol, that
    is the bit length of ceil(top / tol) - 1, and lo and hi are formed
    once, at the end.

    The predicate is evaluated first at s* = min(second moment,
    (min v^2 + max v^2)/2) = sp/sq, and when it holds there no step is
    taken. Below s*, it holds at every s, by the down-set. Above s*, it
    fails at every s: past the second moment P_1 < 0, and past the
    midpoint the tail rule fails. So every step's answer is whether its
    midpoint's square is at most s*, and after j steps a is the largest
    integer with (tp a)^2 sq <= sp tq^2 4^j, one integer square root;
    a < 2^j since s* < top^2. When the predicate fails at s*, some
    intermediate order binds, and the bisection runs step by step, each
    midpoint's square one Fraction(tp^2 m^2, tq^2 4^j) with m = 2a + 1.
    Each step then asks only the moments: below s* the tail rule holds,
    and at s* and above the predicate fails, so tail_sign_ok runs once.
    With no step to take (tol >= top), nothing is evaluated.
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
    tp, tq = top.numerator, top.denominator
    steps = (-(-tp * tol.denominator // (tol.numerator * tq)) - 1).bit_length()
    a = j = 0
    if steps:
        D, squares = mu.cleared_squares
        s_star = min(mu.second_moment(), Fraction(squares[0][0] + squares[-1][0], 2 * D))
        if tail_sign_ok(mu, s_star) and passes_up_to(mu, s_star, n_max):
            sp, sq = s_star.numerator, s_star.denominator
            a, j = isqrt((sp * tq * tq << 2 * steps) // (tp * tp * sq)), steps
    while j < steps:
        m = 2 * a + 1
        j += 1
        s = Fraction(tp * tp * m * m, tq * tq << 2 * j)
        a = m if s < s_star and passes_up_to(mu, s, n_max) else m - 1
    lo, hi = Fraction(tp * a, tq << j), Fraction(tp * (a + 1), tq << j)
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
        msw = spin_second_moment(S)
    return TcBounds(griffiths=griffiths, msw=msw, improvement=msw / griffiths)
