"""Exact verification of the centered odd-power spin sums and of the
convex-grid machinery (vector constructions, single-crossing route,
side conditions) that proves their non-negativity.

Two grid flavours appear throughout:

* half-odd: samples of a non-negative, strictly increasing, convex
  function at 0, 1/N, ..., 1. Covers the half-odd-integer spins.
* integer: samples of an even, non-negative, convex function at
  -1, ..., -1/N, 0, 1/N, ..., 1. Covers the integer spins, where the
  value at 0 carries half the multiplicity of every other magnitude and
  the construction needs a repaired pairing (the w vector below).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Optional

from .errors import InvariantError, PreconditionError, ValidationError
from .majorize import (
    NonNegVector,
    OddConvexFunction,
    SingleCrossing,
    _single_crossing_index,
    karamata_verify,
    majorizes,
    single_crossing_majorizes,
)
from .rationals import parse_rational
from .report import FAIL, HYPOTHESIS_NOT_MET, PASS, VerificationReport

HALF_ODD = "half-odd"
INTEGER = "integer"


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


def spin_sum(S: SpinValue, m: int) -> Fraction:
    """Exact value of sum over j = -S..S of (3 j^2 - S(S+1))**(2m+1).

    j steps by 1, so for half-odd S every j is a half-odd integer. To keep
    the arithmetic integral we work with k = 2j and pull out 4**(2m+1):
    3 j^2 - S(S+1) = (3 k^2 - 2S(2S+2)) / 4.

    This is the literal definition, one power per term. `verify_conjecture`
    computes whole rows with `_spin_sum_row` and checks each row's last
    entry against this function.
    """
    if m < 0:
        raise ValidationError("m must be >= 0")
    s2 = S.twice
    base = s2 * (s2 + 2)  # 4 S (S+1)
    e = 2 * m + 1
    total = sum((3 * k * k - base) ** e for k in range(-s2, s2 + 1, 2))
    return Fraction(total, 4**e)


def _spin_sum_row(S: SpinValue, ms: list[int]) -> list[Fraction]:
    """spin_sum(S, m) for each m of the increasing, non-empty list ms.

    The summand is even in k, so each |k| is summed once and counted twice
    for k != 0. Each term t = 3 k^2 - base is raised to the first order
    once; every later order multiplies the running powers by t*t (by
    (t*t)**step where ms skips values). The last entry is checked against
    the definition, spin_sum(S, ms[-1]), and a mismatch raises
    InvariantError.
    """
    s2 = S.twice
    base = s2 * (s2 + 2)
    terms = [3 * k * k - base for k in range(s2 % 2, s2 + 1, 2)]
    squares = [t * t for t in terms]
    single = s2 % 2 == 0  # k = 0 is a term, counted once
    m_prev = ms[0]
    powers = [t ** (2 * m_prev + 1) for t in terms]
    row = []
    for m in ms:
        if m != m_prev:
            step = squares if m == m_prev + 1 else [q ** (m - m_prev) for q in squares]
            powers = list(map(int.__mul__, powers, step))
            m_prev = m
        total = 2 * sum(powers) - (powers[0] if single else 0)
        row.append(Fraction(total, 4 ** (2 * m + 1)))
    if row[-1] != spin_sum(S, ms[-1]):
        raise InvariantError(
            f"spin-sum row for S = {S.as_fraction} disagrees with spin_sum at m = {ms[-1]}"
        )
    return row


def verify_conjecture(S_max: SpinValue, m_max: int) -> VerificationReport:
    """Tabulate spin_sum signs for S = 1/2, 1, ..., S_max and m = 1..m_max.

    Expected picture: every entry non-negative except the S=1 family,
    which is strictly negative for every m >= 1. m_max = 0 degenerates to
    the all-zero table. Each row (one S, every m) is computed in one pass
    by `_spin_sum_row`, which uses the k -> -k symmetry of the summand and
    steps each order to the next by the squared terms; the row's last
    entry is cross-checked against `spin_sum`.
    """
    if m_max < 0:
        raise ValidationError("m_max must be >= 0")
    ms = list(range(1, m_max + 1)) if m_max >= 1 else [0]
    rows = []
    unexpected = []
    for twice in range(1, S_max.twice + 1):
        S = SpinValue(twice)
        values = _spin_sum_row(S, ms)
        rows.append({"S": S.as_fraction, "values": values})
        for m, v in zip(ms, values):
            if twice == 2 and m >= 1:
                if v >= 0:
                    unexpected.append({"S": S.as_fraction, "m": m, "value": v})
            elif v < 0:
                unexpected.append({"S": S.as_fraction, "m": m, "value": v})
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
    """

    variant: str
    subdivisions: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        N = self.subdivisions
        vals = self.values
        if self.variant not in (HALF_ODD, INTEGER):
            raise ValidationError(f"unknown variant {self.variant!r}")
        if N < 1:
            raise ValidationError(f"{self.variant} grid needs N >= 1")
        expected = N + 1 if self.variant == HALF_ODD else 2 * N + 1
        if len(vals) != expected:
            raise ValidationError(f"expected {expected} samples, got {len(vals)}")
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

    def value_at(self, t: Fraction | int | str) -> Fraction:
        """Exact linear interpolation of the grid at abscissa t.

        For convex samples the interpolant lies above the sampled function
        between grid points, so using it in upper-bound side conditions is
        conservative.
        """
        t = parse_rational(t)
        lo = 0 if self.variant == HALF_ODD else -1
        if not lo <= t <= 1:
            raise ValidationError(f"{t} outside [{lo}, 1]")
        scaled = t * self.subdivisions
        j0 = scaled.numerator // scaled.denominator  # floor
        frac = scaled - j0
        left = self.value_at_index(j0)
        if frac == 0:
            return left
        right = self.value_at_index(j0 + 1)
        return left + (right - left) * frac

    def mean(self) -> Fraction:
        return Fraction(sum(self.values), len(self.values))


@dataclass(frozen=True)
class ConstructionPair:
    """The paired excess/deficit vectors built from a grid around its mean."""

    x: NonNegVector
    y: NonNegVector
    n: int  # number of samples at or below the mean
    q: int  # number of samples strictly above the mean
    mean: Fraction
    w: Optional[NonNegVector] = None  # integer variant only: repaired pairing


def build_half_odd_pair(grid: PsiGrid) -> ConstructionPair:
    """Deficit vector y and zero-padded excess vector x for a half-odd grid.

    y_j = mean - psi((j-1)/N) for j = 1..n with n = #{samples <= mean};
    x_j = psi((N+1-j)/N) - mean for j = 1..q = N+1-n, then zeros. The two
    totals agree exactly by the definition of the mean.
    """
    if grid.variant != HALF_ODD:
        raise PreconditionError("half-odd grid required")
    N = grid.subdivisions
    mean = grid.mean()
    vals = grid.values
    n = sum(1 for v in vals if v <= mean)
    q = N + 1 - n
    if 2 * n < N + 1:
        raise InvariantError("below-mean count fell under (N+1)/2")
    y = [mean - vals[j] for j in range(n)]
    x = [vals[N - j] - mean for j in range(q)] + [Fraction(0)] * (n - q)
    xv, yv = NonNegVector(tuple(x)), NonNegVector(tuple(y))
    if xv.total() != yv.total():
        raise InvariantError("construction totals differ")
    return ConstructionPair(x=xv, y=yv, n=n, q=q, mean=mean)


def build_integer_triple(grid: PsiGrid) -> ConstructionPair:
    """Excess/deficit vectors for an integer grid, plus the repaired w.

    x collects the above-mean excesses sorted decreasingly and zero-padded
    to the deficit count n; w is x with one padding zero relocated to
    position 3, which restores the pairing that the single-crossing route
    needs after the leading block is handled separately.
    """
    if grid.variant != INTEGER:
        raise PreconditionError("integer grid required")
    N = grid.subdivisions
    if N < 2:
        raise PreconditionError("integer construction needs N >= 2")
    mean = grid.mean()
    deficits = sorted((mean - v for v in grid.values if v <= mean), reverse=True)
    excesses = sorted((v - mean for v in grid.values if v > mean), reverse=True)
    n, q = len(deficits), len(excesses)
    if n < N + 1:
        raise InvariantError("below-mean count fell under (2N+1)/2")
    x = list(excesses) + [Fraction(0)] * (n - q)
    if n - q >= 1 and n >= 3:
        w = list(excesses[:2]) + [Fraction(0)] + list(excesses[2:])
        w += [Fraction(0)] * (n - len(w))
    else:
        w = list(x)
    xv = NonNegVector(tuple(x))
    yv = NonNegVector(tuple(deficits))
    wv = NonNegVector(tuple(w))
    if not (xv.total() == yv.total() == wv.total()):
        raise InvariantError("construction totals differ")
    return ConstructionPair(x=xv, y=yv, n=n, q=q, mean=mean, w=wv)


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
    """Side condition psi(1/2 + 1/(2N)) <= mean (needed when N is odd).

    For odd N the evaluation point (N+1)/(2N) is a grid point, so this is
    an exact sample lookup; otherwise the convex interpolant is used,
    which only makes the check more conservative.
    """
    if grid.variant != INTEGER:
        raise PreconditionError("integer grid required")
    N = grid.subdivisions
    point = Fraction(1, 2) + Fraction(1, 2 * N)
    return grid.value_at(point) <= grid.mean()


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


def reflected_secant_check(
    grid: PsiGrid,
    a: Fraction | int | str,
    b: Fraction | int | str,
    c: Fraction | int | str,
) -> bool:
    """Convexity consequence on reflected pairs around c:
    (psi(b) + psi(2c-b))/2 >= (psi(a) + psi(2c-a))/2 >= psi(c)
    for 0 <= 2c-b < 2c-a <= c <= a < b <= 1."""
    a, b, c = parse_rational(a), parse_rational(b), parse_rational(c)
    bt, at = 2 * c - b, 2 * c - a
    if not (0 <= bt < at <= c <= a < b <= 1):
        raise PreconditionError("arguments violate the reflected ordering")
    outer = (grid.value_at(b) + grid.value_at(bt)) / 2
    inner = (grid.value_at(a) + grid.value_at(at)) / 2
    return outer >= inner >= grid.value_at(c)


def below_mean_count_check(grid: PsiGrid) -> bool:
    """Half-odd structural facts: at least (N+1)/2 samples sit at or below
    the mean, and psi(1/2) <= mean <= (psi(0) + psi(1))/2."""
    if grid.variant != HALF_ODD:
        raise PreconditionError("half-odd grid required")
    N = grid.subdivisions
    mean = grid.mean()
    n = sum(1 for v in grid.values if v <= mean)
    if 2 * n < N + 1:
        return False
    mid = grid.value_at(Fraction(1, 2))
    endpoints = (grid.value_at_index(0) + grid.value_at_index(N)) / 2
    return mid <= mean <= endpoints


def _karamata_tail(
    grid: PsiGrid, x: NonNegVector, y: NonNegVector, phi: OddConvexFunction, witnesses: list
) -> tuple[bool, Fraction]:
    """Tail shared by both theorem pipelines: cross-check that x majorizes
    y, run the Karamata evaluation, and match its difference against the
    directly computed centered sum. Appends a witness for each failed
    step; returns whether all of them held, and the centered sum."""
    maj = majorizes(x, y)
    if not maj:
        witnesses.append({"reason": "majorization cross-check failed", "x": x, "y": y})
    kara = karamata_verify(x, y, phi) if maj else None
    mean = grid.mean()
    full_sum = sum((phi.value(v - mean) for v in grid.values), Fraction(0))
    if kara is not None and kara.lhs - kara.rhs != full_sum:
        witnesses.append({"reason": "karamata difference != centered sum"})
    if full_sum < 0:
        witnesses.append({"reason": "centered sum negative", "value": full_sum})
    return maj and kara.holds and full_sum >= 0, full_sum


def verify_half_odd_theorem(
    grid: PsiGrid, phi: OddConvexFunction
) -> VerificationReport:
    """Verify that the centered odd-convex sum over a half-odd grid is >= 0.

    Route: build the (x, y) pair, certify x majorizes y by the
    single-crossing criterion (trivial when x == y), cross-check against
    the direct partial-sum test, run the Karamata evaluation, and confirm
    it matches the directly computed centered sum. Any failed step is
    reported with a witness.
    """
    if grid.variant != HALF_ODD:
        raise PreconditionError("half-odd grid required")
    pair = build_half_odd_pair(grid)
    x, y = pair.x, pair.y
    witnesses: list = []

    crossing: SingleCrossing | None = None
    if x.entries == y.entries:
        route = "equal-vectors"
    else:
        route = "single-crossing"
        crossing = single_crossing_majorizes(x, y)
        if not crossing.applies:
            witnesses.append({"reason": "single crossing does not apply", "x": x, "y": y})

    ok, full_sum = _karamata_tail(grid, x, y, phi, witnesses)
    # The full centered sum excludes nothing; dropping the j=0 term (the
    # minimum, hence a non-positive summand) can only increase it.
    tail_sum = full_sum - phi.value(grid.values[0] - pair.mean)
    ok = ok and (crossing is None or crossing.applies) and tail_sum >= 0
    return VerificationReport(
        command="theorem-half-odd",
        status=PASS if ok else FAIL,
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
    if len(w) != len(y):
        raise PreconditionError("length mismatch")
    sw = list(accumulate(w.entries))
    sy = list(accumulate(y.entries))
    failing = next((i + 1 for i, (a, b) in enumerate(zip(sw, sy)) if a < b), None)
    head_ok = w[0] >= y[0]
    block_ok = len(w) >= 3 and sw[1] >= sy[2]
    return SplitDomination(
        holds=failing is None,
        head_ok=head_ok,
        block_ok=block_ok,
        tail_single_crossing=_single_crossing_index(w.entries[3:], y.entries[3:]) is not None,
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
    by the block-plus-single-crossing split, x dominates w by sorting, the
    majorization x > y is cross-checked independently, and the Karamata
    evaluation is matched against the directly computed centered sum.
    """
    if grid.variant != INTEGER:
        raise PreconditionError("integer grid required")
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
    degenerate = x.entries == y.entries

    split = None
    if not degenerate:
        split = split_domination_check(w, y)
        if not split.holds:
            witnesses.append({"reason": "w running sums fail", "index": split.failing_index})
        # x is the decreasing rearrangement of w, so its running sums
        # dominate w's; verified rather than assumed.
        sx = list(accumulate(x.entries))
        sw = list(accumulate(w.entries))
        if any(a < b for a, b in zip(sx, sw)):
            witnesses.append({"reason": "x running sums fail against w"})

    ok, full_sum = _karamata_tail(grid, x, y, phi, witnesses)
    ok = ok and (degenerate or split.holds)
    return VerificationReport(
        command="theorem-integer",
        status=PASS if ok else FAIL,
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
