import math
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wells_majorize.errors import DomainError, PreconditionError, ValidationError
from wells_majorize.spin_sums import SpinValue
from wells_majorize.wells import (
    CERTIFIED_UP_TO_N_MAX,
    CLOSED_FORM,
    DiscreteMeasure,
    TMinusResult,
    bernoulli_measure,
    canonical_gap,
    mu_lambda_measure,
    passes_up_to,
    sphere_canonical_check,
    sphere_centered_term,
    sphere_moment,
    spin_measure,
    spin_second_moment,
    t_minus_squared_mu_lambda,
    t_minus_upper,
    tail_sign_ok,
    tc_bounds,
    wells_term,
)


class TestDiscreteMeasure:
    def test_rejects_uneven_measure(self):
        with pytest.raises(ValidationError, match="not even at value"):
            DiscreteMeasure.from_pairs([(1, "1/2"), (-1, "1/4"), (0, "1/4")])

    def test_rejects_bad_total(self):
        with pytest.raises(ValidationError, match="sum to"):
            DiscreteMeasure.from_pairs([(1, "1/4"), (-1, "1/4")])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure.from_pairs([(1, "3/2"), (-1, "3/2"), (0, -2)])

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure(((F(-1), F(1, 2)), (F(1), F(1, 4)), (F(1), F(1, 4))))

    def test_rejects_point_mass_at_zero(self):
        with pytest.raises(ValidationError, match="point mass"):
            DiscreteMeasure.from_pairs([(0, 1)])

    def test_json_round_trip(self):
        text = '{"atoms": [["-1", "3/10"], ["0", "2/5"], ["1", "3/10"]]}'
        assert DiscreteMeasure.from_json(text) == mu_lambda_measure("3/5")

    def test_rejects_malformed_json(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure.from_json("{\"values\": []}")

    def test_second_moment_and_max(self):
        mu = bernoulli_measure("3/2")
        assert mu.second_moment() == F(9, 4)
        assert mu.max_abs_value() == F(3, 2)


class TestMeasureFamilies:
    def test_bernoulli_second_moment_is_t_squared(self):
        for T in (F(1), F(1, 2), F(7, 3)):
            assert bernoulli_measure(T).second_moment() == T * T

    def test_bernoulli_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            bernoulli_measure(0)

    def test_spin_half_is_two_point(self):
        assert spin_measure(SpinValue.parse("1/2")) == bernoulli_measure(1)

    def test_spin_one_is_three_point(self):
        assert spin_measure(SpinValue.parse(1)) == mu_lambda_measure(F(2, 3))

    def test_spin_atoms_equally_spaced(self):
        mu = spin_measure(SpinValue.parse(2))
        assert [v for v, _ in mu.atoms] == [F(k, 2) for k in range(-2, 3)]
        assert all(w == F(1, 5) for _, w in mu.atoms)

    def test_mu_lambda_omits_zero_atom_at_one(self):
        assert mu_lambda_measure(1) == bernoulli_measure(1)

    def test_mu_lambda_domain(self):
        for bad in (0, "-1/2", "3/2"):
            with pytest.raises(DomainError):
                mu_lambda_measure(bad)

    def test_spin_second_moment_closed_form(self):
        assert spin_second_moment(SpinValue.parse(1)) == F(2, 3)
        assert spin_second_moment(SpinValue.parse(2)) == F(1, 2)
        values = [
            spin_second_moment(SpinValue(t)) for t in range(1, 21)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[0] == 1  # the two-point case
        assert all(v > F(1, 3) for v in values)


class TestWellsTerm:
    def test_two_point_collapses_to_power(self):
        T, s = F(3, 2), F(5, 4)
        mu = bernoulli_measure(T)
        for n in range(1, 8):
            assert wells_term(mu, s, n) == (T * T - s) ** n

    def test_two_point_vanishes_at_own_square(self):
        mu = bernoulli_measure(F(2, 3))
        for n in range(1, 6):
            assert wells_term(mu, F(4, 9), n) == 0

    def test_three_point_expansion(self):
        lam, s = F(3, 5), F(1, 3)
        mu = mu_lambda_measure(lam)
        for n in range(1, 8):
            expected = lam * (1 - s) ** n + (1 - lam) * (-s) ** n
            assert wells_term(mu, s, n) == expected

    def test_spin_one_matches_three_point_formula(self):
        mu = spin_measure(SpinValue.parse(1))
        lam = F(2, 3)
        for s in (F(1, 4), F(1, 2), F(2, 3)):
            for n in range(1, 6):
                assert wells_term(mu, s, n) == lam * (1 - s) ** n + (1 - lam) * (-s) ** n

    def test_requires_positive_order(self):
        with pytest.raises(PreconditionError):
            wells_term(bernoulli_measure(1), F(1, 2), 0)

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=1, max_value=5, max_denominator=4),
                st.integers(min_value=1, max_value=9),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda t: t[0],
        ),
        st.fractions(min_value=0, max_value=1, max_denominator=8),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=200)
    def test_nonnegative_when_support_outside_disk(self, magnitudes, s, n):
        # Every atom satisfies v^2 >= 1 >= s, so each summand is >= 0.
        total = 2 * sum(w for _, w in magnitudes)
        pairs = []
        for v, w in magnitudes:
            pairs.append((v, F(w, total)))
            pairs.append((-v, F(w, total)))
        mu = DiscreteMeasure.from_pairs(pairs)
        assert wells_term(mu, s, n) >= 0


class TestPassesUpTo:
    def test_two_point_threshold(self):
        mu = bernoulli_measure(1)
        assert passes_up_to(mu, F(1), 50)
        assert passes_up_to(mu, F(1, 2), 50)
        assert not passes_up_to(mu, F(9, 8), 1)

    def test_spin_one_fails_by_third_order(self):
        mu = spin_measure(SpinValue.parse(1))
        second = F(2, 3)
        assert wells_term(mu, second, 1) == 0
        assert passes_up_to(mu, second, 2)
        assert not passes_up_to(mu, second, 3)

    def test_spin_two_passes_at_half(self):
        assert passes_up_to(spin_measure(SpinValue.parse(2)), F(1, 2), 50)

    def test_monotone_in_s_on_two_point_family(self):
        mu = bernoulli_measure(F(3, 2))
        results = [passes_up_to(mu, F(k, 8), 10) for k in range(1, 25)]
        # Once the check fails it stays failed as s grows.
        assert results == sorted(results, reverse=True)


class TestTailSign:
    def test_negative_side_wins(self):
        mu = mu_lambda_measure(F(3, 5))
        assert not tail_sign_ok(mu, F(11, 20))  # |0 - s| beats |1 - s|

    def test_tie_decided_by_weight(self):
        mu = mu_lambda_measure(F(3, 5))
        assert tail_sign_ok(mu, F(1, 2))  # tie, 3/5 >= 2/5
        nu = mu_lambda_measure(F(2, 5))
        assert not tail_sign_ok(nu, F(1, 2))  # tie, 2/5 < 3/5

    def test_positive_side_wins(self):
        assert tail_sign_ok(mu_lambda_measure(F(3, 5)), F(2, 5))

    def test_agrees_with_deep_truncation(self):
        # Wherever the tail condition fails, a failing odd order exists.
        mu = mu_lambda_measure(F(7, 10))
        for k in range(1, 16):
            s = F(k, 16)
            if not tail_sign_ok(mu, s):
                assert not passes_up_to(mu, s, 400)


def tail_sign_reference(mu, s):
    """The large-n tail condition on the unscaled `Fraction` differences."""
    diffs = [(v * v - s, w) for v, w in mu.atoms]
    pos = max((d for d, _ in diffs if d > 0), default=F(0))
    neg = max((-d for d, _ in diffs if d < 0), default=F(0))
    if neg > pos:
        return False
    if neg == pos and neg > 0:
        w_pos = sum(w for d, w in diffs if d == pos)
        w_neg = sum(w for d, w in diffs if d == -neg)
        return w_pos >= w_neg
    return True


@st.composite
def even_measure_and_s(draw):
    """An even measure with 1-5 atom pairs +-p/q, maybe a zero atom, and a
    rational s: arbitrary, an atom's own v^2 (where a summand vanishes), or
    the midpoint of two squares (where the tail magnitudes tie)."""
    values = draw(
        st.lists(
            st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    weights = draw(st.lists(st.integers(1, 6), min_size=len(values), max_size=len(values)))
    zero_weight = draw(st.integers(0, 6))
    total = 2 * sum(weights) + zero_weight
    pairs = [(sign * v, F(w, total)) for v, w in zip(values, weights) for sign in (1, -1)]
    if zero_weight:
        pairs.append((0, F(zero_weight, total)))
    squares = sorted({v * v for v in values} | ({F(0)} if zero_weight else set()))
    s = draw(
        st.one_of(
            st.fractions(min_value=0, max_value=150, max_denominator=50),
            st.sampled_from(squares),
            st.tuples(st.sampled_from(squares), st.sampled_from(squares)).map(
                lambda ab: (ab[0] + ab[1]) / 2
            ),
        )
    )
    return DiscreteMeasure.from_pairs(pairs), s


@st.composite
def measure_and_points(draw):
    """An even measure as above and increasing rationals s: the drawn s,
    every v^2, every midpoint of two of them (where the tail magnitudes
    tie) and the second moment (where P_1 vanishes)."""
    mu, s = draw(even_measure_and_s())
    squares = sorted({v * v for v, _ in mu.atoms})
    midpoints = ((a + b) / 2 for a, b in combinations(squares, 2))
    return mu, sorted({s, mu.second_moment(), *squares, *midpoints})


class TestIntegerPredicate:
    """The integer moment sums against the `Fraction` definition."""

    @given(measure_and_points(), st.integers(min_value=1, max_value=14))
    @settings(max_examples=250, deadline=None)
    def test_matches_fraction_definitions(self, case, n_max):
        mu, points = case
        for s in points:
            expected = all(wells_term(mu, s, n) >= 0 for n in range(1, n_max + 1))
            assert passes_up_to(mu, s, n_max) == expected, s
            assert tail_sign_ok(mu, s) == tail_sign_reference(mu, s), s

    def test_tail_tie_at_midpoint_of_squares(self):
        # s = 1/2 puts the zero atom and the atoms at +-1 at distance 1/2;
        # the weights decide, as in the three-point family.
        assert tail_sign_ok(mu_lambda_measure(F(1, 2)), F(1, 2))
        assert not tail_sign_ok(mu_lambda_measure(F(1, 3)), F(1, 2))

    def test_cleared_squares_merge_each_pair(self):
        mu = DiscreteMeasure.from_pairs(
            [("1/2", "1/8"), ("-1/2", "1/8"), ("2/3", "1/4"), ("-2/3", "1/4"), (0, "1/4")]
        )
        D, squares = mu.cleared_squares
        assert D == 36
        assert [F(a, D) for a, _ in squares] == [0, F(1, 4), F(4, 9)]
        assert [c for _, c in squares] == [2, 2, 4]  # weights over W = 8

    def test_n_max_one_checks_only_the_mean(self):
        mu = spin_measure(SpinValue.parse(1))
        assert passes_up_to(mu, F(2, 3), 1)
        assert not passes_up_to(mu, F(2, 3) + F(1, 10**30), 1)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(PreconditionError):
            passes_up_to(spin_measure(SpinValue.parse(2)), F(1, 2), 0)


class TestTMinusUpper:
    def test_two_point_closed_form(self):
        res = t_minus_upper(bernoulli_measure(F(5, 7)))
        assert res == TMinusResult(F(5, 7), F(5, 7), 50, CLOSED_FORM)

    def test_bracket_is_certified_and_tight(self):
        res = t_minus_upper(mu_lambda_measure(F(1, 4)), n_max=60, tol=F(1, 10**6))
        assert res.status == CERTIFIED_UP_TO_N_MAX
        assert res.hi - res.lo <= F(1, 10**6)
        assert res.lo**2 <= F(1, 4) <= res.hi**2

    @pytest.mark.parametrize("k", range(1, 11))
    def test_three_point_family_brackets_closed_form(self, k):
        lam = F(k, 10)
        res = t_minus_upper(mu_lambda_measure(lam), n_max=60, tol=F(1, 10**6))
        closed_sq = t_minus_squared_mu_lambda(lam)
        assert res.lo**2 <= closed_sq <= res.hi**2

    def test_spin_one_threshold(self):
        res = t_minus_upper(spin_measure(SpinValue.parse(1)), n_max=60)
        assert res.lo**2 <= F(1, 2) <= res.hi**2

    def test_spin_two_bracket_contains_rms(self):
        # The spin-2 measure passes everything at its RMS value 1/sqrt(2),
        # so the bracket must contain it.
        res = t_minus_upper(spin_measure(SpinValue.parse(2)), tol=F(1, 10**6))
        assert res.lo**2 <= F(1, 2) <= res.hi**2
        assert (res.lo + F(1, 10**6)) ** 2 >= F(1, 2)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(PreconditionError):
            t_minus_upper(mu_lambda_measure(F(1, 4)), tol=0)

    @given(measure_and_points(), st.integers(min_value=1, max_value=40))
    @settings(max_examples=200, deadline=None)
    def test_predicate_is_a_down_set_in_s(self, case, n_max):
        # The bisection trusts this instead of sampling the predicate:
        # wherever it holds at s2, it holds at every s1 < s2.
        mu, points = case
        holds = [tail_sign_ok(mu, s) and passes_up_to(mu, s, n_max) for s in points]
        for s1, s2, at_s1, at_s2 in zip(points, points[1:], holds, holds[1:]):
            assert at_s1 or not at_s2, (s1, s2)

    @given(even_measure_and_s())
    @settings(max_examples=200, deadline=None)
    def test_top_of_range_never_passes(self, case):
        # Why the bisection never tries S = max|atom|: past two atoms,
        # both the first moment and the tail condition fail there.
        mu, _ = case
        assume(len(mu.atoms) > 2)
        top_squared = mu.max_abs_value() ** 2
        assert not passes_up_to(mu, top_squared, 1)
        assert not tail_sign_ok(mu, top_squared)

    @pytest.mark.parametrize("mu", [bernoulli_measure(1), spin_measure(SpinValue.parse(2))])
    def test_rejects_nonpositive_n_max(self, mu):
        # The two-point closed form needs no moment, but n_max is still checked.
        with pytest.raises(PreconditionError, match="n_max"):
            t_minus_upper(mu, n_max=0)


class TestClosedFormThreshold:
    def test_branches(self):
        assert t_minus_squared_mu_lambda(F(1, 4)) == F(1, 4)
        assert t_minus_squared_mu_lambda(F(1, 2)) == F(1, 2)
        assert t_minus_squared_mu_lambda(F(2, 3)) == F(1, 2)
        # lambda = 1 is the two-point measure at +-1, threshold 1.
        assert t_minus_squared_mu_lambda(1) == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            t_minus_squared_mu_lambda(0)
        with pytest.raises(DomainError):
            t_minus_squared_mu_lambda(F(3, 2))


class TestCanonicalGap:
    def test_small_lambda_is_canonical(self):
        gap = canonical_gap(mu_lambda_measure(F(1, 4)))
        assert gap.second_moment == F(1, 4)
        assert gap.canonical_up_to_n_max
        assert gap.bracket.lo**2 <= F(1, 4) <= gap.bracket.hi**2

    def test_spin_one_is_not_canonical(self):
        gap = canonical_gap(spin_measure(SpinValue.parse(1)))
        assert gap.second_moment == F(2, 3)
        assert not gap.canonical_up_to_n_max
        assert gap.bracket.hi**2 < F(2, 3)

    def test_spin_two_is_canonical(self):
        gap = canonical_gap(spin_measure(SpinValue.parse(2)))
        assert gap.second_moment == F(1, 2)
        assert gap.canonical_up_to_n_max

    @pytest.mark.parametrize(
        "mu", [bernoulli_measure(F(3, 2)), mu_lambda_measure(F(3, 5)), spin_measure(SpinValue.parse(3))]
    )
    def test_bracket_is_the_threshold_bracket(self, mu):
        gap = canonical_gap(mu, n_max=30)
        assert gap.bracket == t_minus_upper(mu, n_max=30)


class TestSphere:
    def test_three_dimensional_moments_are_uniform(self):
        # In R^3 the first sphere coordinate is uniform on [-1, 1].
        for k in range(0, 31):
            assert sphere_moment(3, k) == F(1, 2 * k + 1)

    def test_matches_beta_function_oracle(self):
        for D in range(2, 7):
            for k in range(0, 15):
                exact = float(sphere_moment(D, k))
                oracle = (
                    math.gamma(k + 0.5)
                    * math.gamma(D / 2)
                    / (math.gamma(0.5) * math.gamma(D / 2 + k))
                )
                assert math.isclose(exact, oracle, rel_tol=1e-12)

    def test_recurrence(self):
        for D in range(2, 7):
            for k in range(1, 31):
                assert sphere_moment(D, k) == sphere_moment(D, k - 1) * F(
                    2 * k - 1, D + 2 * k - 2
                )

    def test_circle_centered_terms(self):
        assert sphere_centered_term(2, 2) == F(1, 8)
        assert sphere_centered_term(2, 3) == 0

    def test_canonical_to_order_thirty(self):
        for D in range(2, 7):
            assert sphere_canonical_check(D, 30)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            sphere_moment(1, 2)
        with pytest.raises(PreconditionError):
            sphere_centered_term(3, 0)


class TestTcBounds:
    def test_spin_one(self):
        b = tc_bounds(SpinValue.parse(1))
        assert (b.griffiths, b.msw, b.improvement) == (F(1, 4), F(1, 2), F(2))

    def test_spin_two(self):
        assert tc_bounds(SpinValue.parse(2)).msw == F(1, 2)

    def test_spin_three_halves(self):
        assert tc_bounds(SpinValue.parse("3/2")).msw == F(5, 9)

    def test_improvement_exceeds_and_approaches_four_thirds(self):
        ratios = [
            tc_bounds(SpinValue(t)).improvement for t in range(2, 41)
        ]
        assert all(r > F(4, 3) for r in ratios)
        assert ratios[1:] == sorted(ratios[1:], reverse=True)
        assert ratios[-1] - F(4, 3) < F(1, 14)

    def test_requires_spin_at_least_one(self):
        with pytest.raises(PreconditionError):
            tc_bounds(SpinValue.parse("1/2"))
