"""Exact verification of the centered odd-power spin sums and of the
convex-grid machinery (vector constructions, single-crossing route,
side conditions) that proves their non-negativity.

Both grid variants build their vectors from one excess/deficit
construction: the deficits mean - v of the samples at or below the mean
and the excesses v - mean of those above it, each sorted decreasingly,
with the excesses zero-padded to the deficit count.

Two grid flavours appear throughout:

* half-odd: samples of a non-negative, strictly increasing, convex
  function at 0, 1/N, ..., 1. Covers the half-odd-integer spins.
* integer: samples of an even, non-negative, convex function at
  -1, ..., -1/N, 0, 1/N, ..., 1. Covers the integer spins, where the
  value at 0 carries half the multiplicity of every other magnitude and
  the construction needs a repaired pairing (the w vector below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice
from typing import Callable, Optional

from .errors import InvariantError, PreconditionError, ValidationError
from .majorize import (
    NonNegVector,
    OddConvexFunction,
    SingleCrossing,
    _check_lengths,
    _first_shortfall,
    _odd_power_sums,
    _over_common_denominator,
    _power_sum,
    _single_crossing_index,
    karamata_verify,
    single_crossing_majorizes,
)
from .rationals import SpinValue, clear_denominators, parse_rational
from .report import FAIL, HYPOTHESIS_NOT_MET, PASS, VerificationReport

HALF_ODD = "half-odd"
INTEGER = "integer"


def spin_sum(S: SpinValue, m: int) -> Fraction:
    """Exact value of sum over j = -S..S of (3 j^2 - S(S+1))**(2m+1).

    j steps by 1, so for half-odd S every j is a half-odd integer. To keep
    the arithmetic integral we work with k = 2j and pull out 4**(2m+1):
    3 j^2 - S(S+1) = (3 k^2 - 2S(2S+2)) / 4. That quarter is itself an
    integer for every k of the sum (see `_spin_sum_row`), so the value
    always has denominator 1.

    With s = 1/3 + 1/(3S), the second moment of the spin-S measure, the sum
    is (2S+1) (3S^2)^(2m+1) times that measure's centered moment of
    (x^2 - s)^(2m+1), `wells_term(spin_measure(S), s, 2m+1)`, and has its
    sign.

    This is the literal definition, one power per term over 4**(2m+1),
    and it does not rely on the integrality. `verify_conjecture` computes
    whole rows with `_spin_sum_row` and checks each row's last entry
    against this function.
    """
    if m < 0:
        raise ValidationError("m must be >= 0")
    s2 = S.twice
    base = s2 * (s2 + 2)  # 4 S (S+1)
    e = 2 * m + 1
    total = sum((3 * k * k - base) ** e for k in range(-s2, s2 + 1, 2))
    return Fraction(total, 4**e)


def _spin_sum_row(S: SpinValue, m_first: int, m_last: int) -> list[int]:
    """spin_sum(S, m) for each m = m_first..m_last, with m_first <= m_last,
    as plain integers.

    Each summand is t^(2m+1) with the quarter-integer term
    t = 3 j^2 - S(S+1) = (3 k^2 - base) / 4, k = 2j, base = 2S(2S+2), and
    t is an integer: for even 2S, k = 2i gives t = 3 i^2 - S(S+1); for odd
    2S, k is odd, so 3 k^2 = 3 (mod 4), and base = (2S+1)^2 - 1 = 3
    (mod 4) too. The row is therefore sum c t^(2m+1) on integers, with
    nothing to normalize.

    The summand is even in k, so each |k| is one term t of weight 2, or 1
    for k = 0, and the row is read from `_odd_power_sums`. The last entry
    is checked against the definition, spin_sum(S, m_last), and a mismatch
    raises InvariantError.
    """
    s2 = S.twice
    base = s2 * (s2 + 2)
    terms = [((3 * k * k - base) // 4, 2 if k else 1) for k in range(s2 % 2, s2 + 1, 2)]
    row = list(islice(_odd_power_sums(terms, 2 * m_first + 1), m_last - m_first + 1))
    if row[-1] != spin_sum(S, m_last):
        raise InvariantError(
            f"spin-sum row for S = {S.as_fraction} disagrees with spin_sum at m = {m_last}"
        )
    return row


def verify_conjecture(S_max: SpinValue, m_max: int) -> VerificationReport:
    """Tabulate spin_sum signs for S = 1/2, 1, ..., S_max and m = 1..m_max.

    Expected picture: every entry non-negative except the S=1 family,
    which is strictly negative for every m >= 1. m_max = 0 degenerates to
    the all-zero table. Each row (one S, every m) is computed in one pass
    by `_spin_sum_row` on the quarter-integer terms (3 k^2 - 2S(2S+2)) / 4,
    which are integers, so every entry is an integer and the signs are
    read from plain ints; the row's last entry is cross-checked against
    `spin_sum`. Entries become Fractions (denominator 1) only in the
    report.
    """
    if m_max < 0:
        raise ValidationError("m_max must be >= 0")
    ms = range(min(m_max, 1), m_max + 1)
    rows = []
    unexpected = []
    for twice in range(1, S_max.twice + 1):
        S = SpinValue(twice)
        values = _spin_sum_row(S, ms[0], m_max)
        rows.append({"S": S.as_fraction, "values": list(map(Fraction, values))})
        for m, v in zip(ms, values):
            if (v < 0) != (twice == 2 and m >= 1):
                unexpected.append({"S": S.as_fraction, "m": m, "value": Fraction(v)})
    return VerificationReport(
        command="verify-conjecture",
        status=PASS if not unexpected else FAIL,
        parameters={"s_max": S_max.as_fraction, "m_max": m_max},
        details={"table": rows, "negative_family": "S=1" if m_max >= 1 else None},
        witnesses=unexpected,
    )


@dataclass(frozen=True)
class PsiGrid:
    """Exact samples of a convex profile on an equally spaced grid.

    half-odd variant: values (psi(0/N), ..., psi(N/N)), non-negative,
    strictly increasing, discretely convex.
    integer variant: values (psi(-N/N), ..., psi(N/N)), even, non-negative,
    discretely convex.

    The samples are validated, their mean computed and the grid centred
    on it once per grid, on integers over their common denominator.
    """

    variant: str
    subdivisions: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        N = self.subdivisions
        if self.variant not in (HALF_ODD, INTEGER):
            raise ValidationError(f"unknown variant {self.variant!r}")
        if N < 1:
            raise ValidationError(f"{self.variant} grid needs N >= 1")
        expected = N + 1 if self.variant == HALF_ODD else 2 * N + 1
        if len(self.values) != expected:
            raise ValidationError(f"expected {expected} samples, got {len(self.values)}")
        vals = self._cleared[1]
        if any(v < 0 for v in vals):
            raise ValidationError("samples must be non-negative")
        if self.variant == HALF_ODD:
            if any(a >= b for a, b in zip(vals, vals[1:])):
                raise ValidationError("half-odd samples must strictly increase")
        elif any(vals[i] != vals[-1 - i] for i in range(len(vals) // 2)):
            raise ValidationError("integer samples must be even in j")
        second_diffs = [
            vals[i + 2] - 2 * vals[i + 1] + vals[i] for i in range(len(vals) - 2)
        ]
        if any(d < 0 for d in second_diffs):
            raise ValidationError("samples are not discretely convex")

    @classmethod
    def from_function(
        cls,
        fn: Callable[[Fraction], Fraction | int | str],
        N: int,
        variant: str = HALF_ODD,
    ) -> "PsiGrid":
        if N < 1:
            raise ValidationError(f"{variant} grid needs N >= 1")
        lo = 0 if variant == HALF_ODD else -N
        vals = tuple(
            parse_rational(fn(Fraction(j, N))) for j in range(lo, N + 1)
        )
        return cls(variant, N, vals)

    def value_at_index(self, j: int) -> Fraction:
        """Sample at grid index j (j in [0, N] half-odd, [-N, N] integer)."""
        offset = 0 if self.variant == HALF_ODD else self.subdivisions
        return self.values[j + offset]

    @cached_property
    def _cleared(self) -> tuple[int, tuple[int, ...]]:
        return clear_denominators(self.values)

    @cached_property
    def _mean(self) -> Fraction:
        D, vals = self._cleared
        return Fraction(sum(vals), len(vals) * D)

    def mean(self) -> Fraction:
        return self._mean

    @cached_property
    def _centered(self) -> tuple[int, tuple[int, ...]]:
        """(C, the samples less `mean()`, times C), with C the lcm of the
        samples' common denominator and the mean's denominator."""
        (D, vals), mean = self._cleared, self.mean()
        C = math.lcm(D, mean.denominator)
        k, M = C // D, mean.numerator * (C // mean.denominator)
        return C, tuple(v * k - M for v in vals)


@dataclass(frozen=True)
class ConstructionPair:
    """The paired excess/deficit vectors built from a grid around its mean."""

    x: NonNegVector
    y: NonNegVector
    n: int  # number of samples at or below the mean
    q: int  # number of samples strictly above the mean
    mean: Fraction
    w: Optional[NonNegVector] = None  # integer variant only: repaired pairing


def _excesses_and_deficits(grid: PsiGrid) -> ConstructionPair:
    """The pair built around the grid's mean: y holds the deficits
    mean - v for v <= mean and x the excesses v - mean for v > mean, both
    sorted decreasingly, with x zero-padded to the deficit count. Raises
    PreconditionError when under half the samples sit at or below the
    mean, as on a grid with a flat bottom, and InvariantError when the two
    totals differ."""
    mean, (C, centered) = grid.mean(), grid._centered
    deficits = sorted((-c for c in centered if c <= 0), reverse=True)
    excesses = sorted((c for c in centered if c > 0), reverse=True)
    n, q = len(deficits), len(excesses)
    if 2 * n < len(grid.values):
        samples = "(N+1)" if grid.variant == HALF_ODD else "(2N+1)"
        raise PreconditionError(f"below-mean count fell under {samples}/2")
    if sum(excesses) != sum(deficits):
        raise InvariantError("construction totals differ")
    x = NonNegVector.from_scaled(C, excesses + [0] * (n - q))
    y = NonNegVector.from_scaled(C, deficits)
    return ConstructionPair(x=x, y=y, n=n, q=q, mean=mean)


def build_half_odd_pair(grid: PsiGrid) -> ConstructionPair:
    """Deficit vector y and zero-padded excess vector x for a half-odd grid.

    y_j = mean - psi((j-1)/N) for j = 1..n with n = #{samples <= mean};
    x_j = psi((N+1-j)/N) - mean for j = 1..q = N+1-n, then zeros. The two
    totals agree exactly by the definition of the mean.
    """
    if grid.variant != HALF_ODD:
        raise PreconditionError("half-odd grid required")
    return _excesses_and_deficits(grid)


def build_integer_triple(grid: PsiGrid) -> ConstructionPair:
    """Excess/deficit vectors for an integer grid, plus the repaired w.

    x collects the above-mean excesses sorted decreasingly and zero-padded
    to the deficit count n; w is x with one padding zero relocated to
    position 3, which restores the pairing that the single-crossing route
    needs after the leading block is handled separately.
    """
    if grid.variant != INTEGER:
        raise PreconditionError("integer grid required")
    if grid.subdivisions < 2:
        raise PreconditionError("integer construction needs N >= 2")
    pair = _excesses_and_deficits(grid)
    D, x = pair.x._scaled
    w = x[:2] + (0,) + x[2:-1] if pair.n - pair.q >= 1 and pair.n >= 3 else x
    if sum(w) != sum(x):
        raise InvariantError("construction totals differ")
    return replace(pair, w=NonNegVector.from_scaled(D, w))


def leading_block_check(grid: PsiGrid) -> bool:
    """Side condition 2 psi(1) + psi(0) + 2 psi(1/N) >= 5 * mean.

    Equivalently: the first two excesses dominate the first three deficits
    of the integer construction.
    """
    if grid.variant != INTEGER:
        raise PreconditionError("integer grid required")
    lhs = 2 * grid.value_at_index(grid.subdivisions) + grid.value_at_index(0)
    lhs += 2 * grid.value_at_index(1)
    return lhs >= 5 * grid.mean()


def odd_midpoint_check(grid: PsiGrid) -> bool:
    """Side condition psi(1/2 + 1/(2N)) <= mean, defined for odd N only.

    For odd N the point (N+1)/(2N) is the grid point with index (N+1)/2,
    so the check is an exact sample lookup. Even N raises
    PreconditionError.
    """
    if grid.variant != INTEGER:
        raise PreconditionError("integer grid required")
    N = grid.subdivisions
    if N % 2 == 0:
        raise PreconditionError("requires odd N")
    return grid.value_at_index((N + 1) // 2) <= grid.mean()


def leading_block_bound_spin(S: int) -> bool:
    """Closed form of the leading-block condition on the square profile at
    integer spin S: 2 S^2 + 2 >= (5/3) S (S+1), i.e. (S-2)(S-3) >= 0."""
    if S < 2:
        raise PreconditionError("requires integer S >= 2")
    return 3 * (2 * S * S + 2) >= 5 * S * (S + 1)


def midpoint_bound_spin(S: int) -> bool:
    """Closed form of the odd-N midpoint condition on the square profile:
    S^2 (1/2 + 1/(2S))^2 <= S(S+1)/3, i.e. (S-3)(S+1) >= 0."""
    if S < 3 or S % 2 == 0:
        raise PreconditionError("requires odd S >= 3")
    lhs = Fraction(S, 1) ** 2 * (Fraction(1, 2) + Fraction(1, 2 * S)) ** 2
    return lhs <= Fraction(S * (S + 1), 3)


def _karamata_tail(
    grid: PsiGrid, x: NonNegVector, y: NonNegVector, phi: OddConvexFunction, witnesses: list
) -> Fraction:
    """Tail shared by both theorem pipelines: run the Karamata evaluation,
    whose precondition cross-checks that x majorizes y, and match its
    difference against the directly computed centered sum. Appends a
    witness for each failed step and returns the centered sum."""
    try:
        kara = karamata_verify(x, y, phi)
    except PreconditionError:
        kara = None
        witnesses.append({"reason": "majorization cross-check failed", "x": x, "y": y})
    full_sum = _power_sum(*grid._centered, phi.exponent)
    if kara is not None and kara.lhs - kara.rhs != full_sum:
        witnesses.append({"reason": "karamata difference != centered sum"})
    if full_sum < 0:
        witnesses.append({"reason": "centered sum negative", "value": full_sum})
    return full_sum


def verify_half_odd_theorem(
    grid: PsiGrid, phi: OddConvexFunction
) -> VerificationReport:
    """Verify that the centered odd-convex sum over a half-odd grid is >= 0.

    Route: build the (x, y) pair, certify x majorizes y by the
    single-crossing criterion (trivial when x == y), run the Karamata
    evaluation, whose precondition cross-checks the majorization by the
    direct partial-sum test, and confirm it matches the directly computed
    centered sum. Any failed step is reported with a witness and fails
    the report.
    """
    pair = build_half_odd_pair(grid)
    x, y = pair.x, pair.y
    witnesses: list = []

    crossing: SingleCrossing | None = None
    if x == y:
        route = "equal-vectors"
    else:
        route = "single-crossing"
        crossing = single_crossing_majorizes(x, y)
        if not crossing.applies:
            witnesses.append({"reason": "single crossing does not apply", "x": x, "y": y})

    full_sum = _karamata_tail(grid, x, y, phi, witnesses)
    # The full centered sum excludes nothing; dropping the j=0 term (the
    # minimum, hence a non-positive summand) can only increase it.
    tail_sum = full_sum - phi.value(grid.values[0] - pair.mean)
    return VerificationReport(
        command="theorem-half-odd",
        status=PASS if not witnesses and tail_sum >= 0 else FAIL,
        parameters={"N": grid.subdivisions, "variant": grid.variant},
        details={
            "x": x,
            "y": y,
            "route": route,
            "crossing_index": crossing.crossing_index if crossing else None,
            "mean": pair.mean,
            "centered_sum": full_sum,
            "centered_sum_positive_part": tail_sum,
        },
        witnesses=witnesses,
    )


@dataclass(frozen=True)
class SplitDomination:
    """Outcome of the blocked partial-sum comparison of w against y."""

    holds: bool
    head_ok: bool
    block_ok: bool
    tail_single_crossing: bool
    failing_index: int | None = None


def split_domination_check(w: NonNegVector, y: NonNegVector) -> SplitDomination:
    """Check that every running sum of the sequence w dominates that of y,
    recording the split used to prove it: w1 >= y1 and w1+w2 >= y1+y2+y3
    for the leading block, then a single sign change in w_j - y_j from
    position 4 on."""
    _check_lengths(w, y)
    ws, ys = _over_common_denominator(w, y)
    sw = list(accumulate(ws))
    sy = list(accumulate(ys))
    failing = _first_shortfall(sw, sy)
    head_ok = ws[0] >= ys[0]
    block_ok = len(w) >= 3 and sw[1] >= sy[2]
    return SplitDomination(
        holds=failing is None,
        head_ok=head_ok,
        block_ok=block_ok,
        tail_single_crossing=_single_crossing_index(ws[3:], ys[3:]) is not None,
        failing_index=failing,
    )


def verify_integer_theorem(
    grid: PsiGrid, phi: OddConvexFunction
) -> VerificationReport:
    """Verify that the centered odd-convex sum over an integer grid is >= 0.

    Hypotheses checked first: the head condition psi(1) + psi(0) >= 2 *
    mean (w1 >= y1), the leading-block condition, and the midpoint
    condition when N is odd; failure of any reports hypothesis_not_met
    (distinct from the inequality failing). Then the
    (x, y, w) triple is built, w's running sums are shown to dominate y's
    by the block-plus-single-crossing split, x dominates w by sorting, and
    the Karamata evaluation, whose precondition cross-checks x > y, is
    matched against the directly computed centered sum. Any failed step
    is reported with a witness and fails the report.
    """
    N = grid.subdivisions
    params = {"N": N, "variant": grid.variant}
    head = grid.value_at_index(N) + grid.value_at_index(0) >= 2 * grid.mean()
    block = leading_block_check(grid)
    midpoint = odd_midpoint_check(grid) if N % 2 == 1 else True
    hypotheses = {"head": head, "leading_block": block, "odd_midpoint": midpoint}
    if not all(hypotheses.values()):
        return VerificationReport(
            command="theorem-integer",
            status=HYPOTHESIS_NOT_MET,
            parameters=params,
            details=hypotheses,
            witnesses=[{"reason": "hypotheses not met"}],
        )

    triple = build_integer_triple(grid)
    x, y, w = triple.x, triple.y, triple.w
    witnesses: list = []
    degenerate = x == y

    split = None
    if not degenerate:
        split = split_domination_check(w, y)
        if not split.holds:
            witnesses.append({"reason": "w running sums fail", "index": split.failing_index})
        # x is the decreasing rearrangement of w, so its running sums
        # dominate w's; verified rather than assumed.
        xs, ws = _over_common_denominator(x, w)
        if _first_shortfall(accumulate(xs), accumulate(ws)) is not None:
            witnesses.append({"reason": "x running sums fail against w"})

    full_sum = _karamata_tail(grid, x, y, phi, witnesses)
    return VerificationReport(
        command="theorem-integer",
        status=PASS if not witnesses else FAIL,
        parameters=params,
        details={
            "x": x,
            "y": y,
            "w": w,
            "mean": triple.mean,
            "centered_sum": full_sum,
            "split": split,
            **hypotheses,
        },
        witnesses=witnesses,
    )
