from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wells_majorize import cli, spin_sums
from wells_majorize.errors import InvariantError, PreconditionError, ValidationError
from wells_majorize.majorize import NonNegVector, OddConvexFunction, majorizes
from wells_majorize.report import HYPOTHESIS_NOT_MET, PASS
from wells_majorize.spin_sums import (
    HALF_ODD,
    INTEGER,
    PsiGrid,
    SpinValue,
    _spin_sum_row,
    build_half_odd_pair,
    build_integer_triple,
    leading_block_bound_spin,
    leading_block_check,
    midpoint_bound_spin,
    odd_midpoint_check,
    spin_sum,
    split_domination_check,
    verify_conjecture,
    verify_half_odd_theorem,
    verify_integer_theorem,
)
from wells_majorize.wells import spin_measure, spin_second_moment, wells_term


def square_grid(N, variant=INTEGER):
    return PsiGrid.from_function(lambda t: (N * t) ** 2, N, variant)


def abs_grid(N):
    return PsiGrid.from_function(lambda t: abs(N * t), N, INTEGER)


def half_odd_square(N):
    """Samples (j + 1/2)**2: the profile behind the half-odd spin sums."""
    return PsiGrid.from_function(lambda t: (N * t + F(1, 2)) ** 2, N, HALF_ODD)


class TestSpinValue:
    def test_parse(self):
        assert SpinValue.parse("3/2").twice == 3
        assert SpinValue.parse(2).twice == 4
        assert SpinValue.parse("1/2").as_fraction == F(1, 2)

    def test_rejects_bad_spins(self):
        for bad in ("1/3", "0", "-1"):
            with pytest.raises(ValidationError):
                SpinValue.parse(bad)


class TestSpinSum:
    @pytest.mark.parametrize("twice", range(1, 12))
    def test_m_zero_vanishes(self, twice):
        assert spin_sum(SpinValue(twice), 0) == 0

    def test_spin_one(self):
        # 2*(3-2)**3 + (0-2)**3 = 2 - 8
        assert spin_sum(SpinValue(2), 1) == -6

    def test_spin_three_halves_pairs_off(self):
        assert spin_sum(SpinValue(3), 1) == 0

    def test_spin_two(self):
        # -216 - 54 + 432 over the five integer terms
        assert spin_sum(SpinValue(4), 1) == 162

    @pytest.mark.parametrize("m", range(1, 21))
    def test_spin_three_halves_vanishes_for_all_m(self, m):
        assert spin_sum(SpinValue(3), m) == 0

    def test_half_odd_pairing_symmetry(self):
        # For half-odd S the sum is exactly twice the positive-j half.
        for twice in (1, 3, 5, 7, 9):
            S = SpinValue(twice)
            base = F(twice * (twice + 2), 4)
            for m in (1, 2, 3):
                half = sum(
                    (3 * F(k, 2) ** 2 - base) ** (2 * m + 1)
                    for k in range(1, twice + 1, 2)
                )
                assert spin_sum(S, m) == 2 * half

    def test_sign_table(self):
        for twice in range(1, 42):
            S = SpinValue(twice)
            for m in range(1, 21):
                value = spin_sum(S, m)
                if twice == 2:
                    assert value < 0
                elif twice == 3:
                    assert value == 0
                else:
                    assert value >= 0


class TestVerifyConjecture:
    def test_small_table(self):
        report = verify_conjecture(SpinValue.parse(3), 3)
        assert report.status == PASS
        assert report.witnesses == []

    def test_matches_large_experiment(self):
        report = verify_conjecture(SpinValue.parse(20), 10)
        assert report.status == PASS

    def test_spin_half_all_zero(self):
        report = verify_conjecture(SpinValue.parse("1/2"), 5)
        assert report.status == PASS
        assert all(v == 0 for row in report.details["table"] for v in row["values"])

    def test_m_zero_table(self):
        report = verify_conjecture(SpinValue.parse(2), 0)
        assert report.status == PASS
        assert all(v == 0 for row in report.details["table"] for v in row["values"])

    def test_negative_m_max_is_refused(self):
        with pytest.raises(ValidationError):
            verify_conjecture(SpinValue(4), -1)
        with pytest.raises(ValidationError):
            spin_sum(SpinValue(4), -1)


class TestSpinSumRow:
    @given(twice=st.integers(1, 60), m_first=st.integers(0, 40), length=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_row_matches_definition(self, twice, m_first, length):
        S = SpinValue(twice)
        ms = range(m_first, m_first + length)
        assert _spin_sum_row(S, ms[0], ms[-1]) == [spin_sum(S, m) for m in ms]

    def test_sum_is_a_scaled_centered_moment(self):
        # spin_sum(S, m) = (2S+1) (3S^2)^(2m+1) P_(2m+1)(s) at the spin
        # measure's second moment s = 1/3 + 1/(3S).
        for twice in range(1, 21):
            S = SpinValue(twice)
            mu, s = spin_measure(S), spin_second_moment(S)
            for m in range(6):
                n = 2 * m + 1
                scale = (twice + 1) * (3 * S.as_fraction**2) ** n
                assert spin_sum(S, m) == scale * wells_term(mu, s, n)

    def test_wrong_definition_is_an_invariant_error(self, monkeypatch, capsys):
        original = spin_sums.spin_sum
        monkeypatch.setattr(spin_sums, "spin_sum", lambda S, m: original(S, m) + 1)
        with pytest.raises(InvariantError, match="disagrees with spin_sum"):
            verify_conjecture(SpinValue(4), 3)
        code = cli.main(["verify-conjecture", "--s-max", "2", "--m-max", "3"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestPsiGrid:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            PsiGrid(HALF_ODD, 2, (F(0), F(1)))

    def test_rejects_non_convex(self):
        with pytest.raises(ValidationError):
            PsiGrid(HALF_ODD, 2, (F(0), F(3), F(4)))

    def test_rejects_non_monotone_half_odd(self):
        with pytest.raises(ValidationError):
            PsiGrid(HALF_ODD, 2, (F(1), F(1), F(2)))

    def test_rejects_asymmetric_integer(self):
        with pytest.raises(ValidationError):
            PsiGrid(INTEGER, 1, (F(1), F(0), F(2)))

    def test_mean_of_squares(self):
        assert square_grid(6).mean() == 14

    def test_mean_of_constant(self):
        grid = PsiGrid(INTEGER, 3, (F(7),) * 7)
        assert grid.mean() == 7

    def test_mean_of_affine_half_odd(self):
        grid = PsiGrid.from_function(lambda t: t, 2, HALF_ODD)
        assert grid.mean() == F(1, 2)

    def test_slope_monotonicity(self):
        for grid in (square_grid(6), abs_grid(5), half_odd_square(7)):
            vals = grid.values
            slopes = [b - a for a, b in zip(vals, vals[1:])]
            assert all(s0 <= s1 for s0, s1 in zip(slopes, slopes[1:]))


class TestHalfOddConstruction:
    def test_affine_gives_equal_vectors(self):
        for N in (1, 2, 5, 9):
            grid = PsiGrid.from_function(lambda t: 3 * t + F(1, 7), N, HALF_ODD)
            pair = build_half_odd_pair(grid)
            assert pair.x == pair.y

    def test_square_N2(self):
        pair = build_half_odd_pair(PsiGrid.from_function(lambda t: t * t, 2, HALF_ODD))
        assert pair.mean == F(5, 12)
        assert pair.n == 2 and pair.q == 1
        assert pair.y.entries == (F(5, 12), F(1, 6))
        assert pair.x.entries == (F(7, 12), F(0))

    def test_square_N1(self):
        pair = build_half_odd_pair(PsiGrid.from_function(lambda t: t * t, 1, HALF_ODD))
        assert pair.x == pair.y

    def test_totals_always_match(self):
        for N in range(1, 15):
            pair = build_half_odd_pair(half_odd_square(N))
            assert pair.x.total() == pair.y.total()

    def test_requires_half_odd_variant(self):
        with pytest.raises(PreconditionError):
            build_half_odd_pair(square_grid(4))

    @given(
        start=st.fractions(0, 5, max_denominator=6),
        slope=st.fractions(F(1, 6), 5, max_denominator=6),
        bends=st.lists(st.fractions(0, 3, max_denominator=6), min_size=0, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_index_order_formula(self, start, slope, bends):
        # Strictly increasing convex samples: a positive first difference
        # and non-negative second differences.
        vals, step = [start, start + slope], slope
        for bend in bends:
            step += bend
            vals.append(vals[-1] + step)
        N = len(vals) - 1
        pair = build_half_odd_pair(PsiGrid(HALF_ODD, N, tuple(vals)))
        mean = sum(vals) / F(N + 1)
        n = sum(1 for v in vals if v <= mean)
        q = N + 1 - n
        assert (pair.mean, pair.n, pair.q) == (mean, n, q)
        assert pair.y.entries == tuple(mean - vals[j - 1] for j in range(1, n + 1))
        x = [vals[N + 1 - j] - mean for j in range(1, q + 1)] + [F(0)] * (n - q)
        assert pair.x.entries == tuple(x)


class TestHalfOddTheorem:
    def test_square_cube_N10(self):
        report = verify_half_odd_theorem(
            PsiGrid.from_function(lambda t: t * t, 10, HALF_ODD),
            OddConvexFunction.power(1),
        )
        assert report.status == PASS
        assert report.details["centered_sum"] > 0

    def test_affine_sum_is_zero(self):
        for m in (0, 1, 2):
            report = verify_half_odd_theorem(
                PsiGrid.from_function(lambda t: 5 * t, 8, HALF_ODD),
                OddConvexFunction.power(m),
            )
            assert report.status == PASS
            assert report.details["centered_sum"] == 0
            assert report.details["route"] == "equal-vectors"

    @pytest.mark.parametrize("N", range(1, 11))
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_matches_spin_sum_scaling(self, N, m):
        # The half-odd spin sum is twice the centered grid sum, up to the
        # 3**(2m+1) factor from pulling the 3 out of each term.
        report = verify_half_odd_theorem(half_odd_square(N), OddConvexFunction.power(m))
        assert report.status == PASS
        S = SpinValue(2 * N + 1)
        assert spin_sum(S, m) == 2 * 3 ** (2 * m + 1) * report.details["centered_sum"]


class TestIntegerConstruction:
    def test_square_N6_vectors(self):
        triple = build_integer_triple(square_grid(6))
        assert triple.x.entries == tuple(map(F, (22, 22, 11, 11, 2, 2, 0)))
        assert triple.y.entries == tuple(map(F, (14, 13, 13, 10, 10, 5, 5)))
        assert triple.w.entries == tuple(map(F, (22, 22, 0, 11, 11, 2, 2)))

    def test_abs_totals_match(self):
        triple = build_integer_triple(abs_grid(4))
        assert triple.x.total() == triple.y.total() == triple.w.total()

    def test_constant_grid_all_zero(self):
        grid = PsiGrid(INTEGER, 3, (F(2),) * 7)
        triple = build_integer_triple(grid)
        assert set(triple.x.entries) == {F(0)}
        assert set(triple.y.entries) == {F(0)}
        assert set(triple.w.entries) == {F(0)}

    def test_requires_integer_variant(self):
        with pytest.raises(PreconditionError):
            build_integer_triple(half_odd_square(4))


class TestSideConditions:
    def test_leading_block_square_N6(self):
        # 2*36 + 0 + 2*1 = 74 against 5*14 = 70
        assert leading_block_check(square_grid(6))

    def test_leading_block_constant_equality(self):
        assert leading_block_check(PsiGrid(INTEGER, 4, (F(3),) * 9))

    def test_leading_block_power_trend(self):
        # The flat profile |j| (p = 1 < 3/2) loses the condition once N
        # grows, while the square (p = 2) keeps it at every N.
        assert leading_block_check(abs_grid(2))
        assert not leading_block_check(abs_grid(5))
        assert not leading_block_check(abs_grid(12))
        for N in range(2, 20):
            assert leading_block_check(square_grid(N))

    @pytest.mark.parametrize("N", range(2, 13))
    def test_leading_block_matches_vector_blocks(self, N):
        grids = [square_grid(N)]
        if N % 2 == 0:
            # For odd N the flat profile has too few below-mean samples
            # for the vector construction, so only the even case pairs up.
            grids.append(abs_grid(N))
        for grid in grids:
            triple = build_integer_triple(grid)
            x, y = triple.x, triple.y
            blocks = x[0] + x[1] >= y[0] + y[1] + y[2]
            assert leading_block_check(grid) == blocks

    def test_midpoint_square_N3_equality(self):
        grid = square_grid(3)
        assert odd_midpoint_check(grid)
        assert grid.value_at_index(2) == grid.mean()

    def test_midpoint_square_N5(self):
        assert odd_midpoint_check(square_grid(5))

    def test_midpoint_constant(self):
        assert odd_midpoint_check(PsiGrid(INTEGER, 5, (F(1),) * 11))

    @pytest.mark.parametrize("N", (2, 4, 10))
    def test_midpoint_refuses_even_N(self, N):
        with pytest.raises(PreconditionError, match="requires odd N"):
            odd_midpoint_check(square_grid(N))

    @pytest.mark.parametrize("N", range(3, 42, 2))
    def test_midpoint_square_matches_closed_form(self, N):
        assert odd_midpoint_check(square_grid(N)) == midpoint_bound_spin(N)

    def test_closed_form_block_bound(self):
        for S in range(2, 101):
            assert leading_block_bound_spin(S)
        with pytest.raises(PreconditionError):
            leading_block_bound_spin(1)

    def test_closed_form_block_equality_points(self):
        slack = lambda S: 3 * (2 * S * S + 2) - 5 * S * (S + 1)
        assert slack(2) == 0 and slack(3) == 0
        assert slack(4) > 0 and slack(100) > 0

    def test_closed_form_midpoint_bound(self):
        for S in range(3, 100, 2):
            assert midpoint_bound_spin(S)
        with pytest.raises(PreconditionError):
            midpoint_bound_spin(4)

    def test_closed_form_midpoint_equality_at_three(self):
        slack = lambda S: F(S * (S + 1), 3) - F(S, 1) ** 2 * (F(1, 2) + F(1, 2 * S)) ** 2
        assert slack(3) == 0
        assert slack(5) > 0


class TestSplitDomination:
    def test_example_split(self):
        triple = build_integer_triple(square_grid(6))
        split = split_domination_check(triple.w, triple.y)
        assert split.holds and split.head_ok and split.block_ok
        assert split.tail_single_crossing

    def test_detects_failure(self):
        w = NonNegVector.of(1, 5)
        y = NonNegVector.of(4, 2)
        split = split_domination_check(w, y)
        assert not split.holds and split.failing_index == 1

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_literal_running_sums(self, data):
        # Running sums in the given order, compared position by position;
        # totals may differ.
        n = data.draw(st.integers(1, 8))
        entries = st.lists(st.integers(0, 4).map(F), min_size=n, max_size=n)
        w, y = data.draw(entries), data.draw(entries)
        split = split_domination_check(NonNegVector(tuple(w)), NonNegVector(tuple(y)))
        below = [k for k in range(1, n + 1) if sum(w[:k]) < sum(y[:k])]
        assert split.failing_index == (below[0] if below else None)
        assert split.holds == (not below)
        assert split.block_ok == (n >= 3 and w[0] + w[1] >= y[0] + y[1] + y[2])


class TestIntegerTheorem:
    def test_square_N6_cube(self):
        report = verify_integer_theorem(square_grid(6), OddConvexFunction.power(1))
        assert report.status == PASS
        assert report.details["x"].entries == tuple(map(F, (22, 22, 11, 11, 2, 2, 0)))
        assert report.details["w"].entries == tuple(map(F, (22, 22, 0, 11, 11, 2, 2)))

    @pytest.mark.parametrize("N", range(2, 11))
    @pytest.mark.parametrize("m", range(1, 6))
    def test_matches_spin_sum_scaling(self, N, m):
        report = verify_integer_theorem(square_grid(N), OddConvexFunction.power(m))
        assert report.status == PASS
        assert spin_sum(SpinValue(2 * N), m) == 3 ** (2 * m + 1) * report.details[
            "centered_sum"
        ]

    def test_linear_phi_sum_is_zero(self):
        report = verify_integer_theorem(square_grid(7), OddConvexFunction.power(0))
        assert report.status == PASS
        assert report.details["centered_sum"] == 0

    def test_hypothesis_not_met_reported(self):
        report = verify_integer_theorem(abs_grid(5), OddConvexFunction.power(1))
        assert report.status == HYPOTHESIS_NOT_MET
        assert report.details["leading_block"] is False

    def test_head_condition_is_a_hypothesis(self):
        # |t| on N = 2: psi(1) + psi(0) = 2 < 2 * mean = 12/5, so w1 < y1
        # although the leading block (6 >= 6) holds and N is even.
        report = verify_integer_theorem(abs_grid(2), OddConvexFunction.power(1))
        assert report.status == HYPOTHESIS_NOT_MET
        assert report.details == {"head": False, "leading_block": True, "odd_midpoint": True}

    def test_cross_checks_majorization_every_run(self):
        report = verify_integer_theorem(square_grid(9), OddConvexFunction.power(2))
        assert report.status == PASS
        assert majorizes(report.details["x"], report.details["y"])
