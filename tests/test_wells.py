import json
import math
import random
from fractions import Fraction as F
from itertools import combinations, islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wells_majorize import cli, wells
from wells_majorize.errors import DomainError, PreconditionError, ValidationError
from wells_majorize.majorize import _odd_power_sums, _stop_loss_dominates
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

# The measure +-2/11, +-3/4, +-1 with weights 3/22, 3/11, 1/11 each. At
# s = 4847/10000, just below its squared threshold (about 0.48473), the
# stop-loss certificate fails while every odd moment to order 201 holds.
FALLBACK = DiscreteMeasure.from_pairs(
    [(sign * F(v), F(w)) for v, w in (("2/11", "3/22"), ("3/4", "3/11"), ("1", "1/11"))
     for sign in (1, -1)]
)
FALLBACK_S = F(4847, 10000)
# s* = min(second moment, (min v^2 + max v^2)/2) is the tail midpoint 1/2,
# where the weight condition fails: the tail rule decides s*.
TAIL_FAILS = DiscreteMeasure.from_pairs(
    [(1, "1/10"), (-1, "1/10"), ("9/10", "11/40"), ("-9/10", "11/40"), (0, "1/4")]
)

# The golden `t-minus` corpus: one JSON row per run, with its measure file.
CORPUS = Path(__file__).parent / "data" / "t_minus_corpus.jsonl"


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


def cleared_squares_reference(pairs):
    """`DiscreteMeasure.cleared_squares` by its definition, from
    (value, weight) pairs in any order: v^2 = a/D with D = V^2 and the
    weights c/W at each v^2 merged in a dict, then sorted by a."""
    V = math.lcm(*(v.denominator for v, _ in pairs))
    W = math.lcm(*(w.denominator for _, w in pairs))
    weights = {}
    for v, w in pairs:
        a = v * v * V * V
        weights[a] = weights.get(a, 0) + w * W
    return V * V, tuple(sorted(weights.items()))


def atoms(*pairs):
    """Atoms as given, unsorted, from (value, weight) literals."""
    return tuple((F(v), F(w)) for v, w in pairs)


class TestMalformedMeasures:
    """Each refusal's type and message; where one measure has several
    faults, the first check in the validation order reports it."""

    @pytest.mark.parametrize(
        "atoms, message",
        [
            ((), "measure needs at least one atom"),
            (atoms(("-1", "1/2"), ("1", "1/4"), ("1", "1/4")), "duplicate atom values"),
            (atoms(("-1", "3/2"), ("0", "-2"), ("1", "3/2")), "non-positive weight at 0"),
            (atoms(("-1/2", "0"), ("1/2", "0"), ("0", "1")), "non-positive weight at -1/2"),
            (atoms(("-1", "1/4"), ("0", "1/4"), ("1", "1/2")), "measure is not even at value -1"),
            (atoms(("-1/3", "1/4"), ("1/3", "1/4")), "weights sum to 1/2, not 1"),
            (atoms(("0", "1")), "point mass at 0 is excluded"),
            # Several faults at once: the order of the checks decides.
            (atoms(("0", "1/2")), "weights sum to 1/2, not 1"),
            (atoms(("-2/3", "1/2"), ("2/3", "1/2"), ("2/3", "1/3")), "duplicate atom values"),
            (atoms(("-1", "-1/2"), ("1", "3/2"), ("0", "1/7")), "non-positive weight at -1"),
            (
                atoms(("-2", "1/4"), ("2", "1/2"), ("1", "-1/4"), ("-1", "-1/4")),
                "measure is not even at value -2",
            ),
            (atoms(("-3/2", "1/4"), ("3/2", "1/3")), "measure is not even at value -3/2"),
            # Not exact rationals, or not pairs.
            (((0.5, 0.5), (-0.5, 0.5)), "atom (0.5, 0.5) is not a pair of exact rationals"),
            (
                ((True, F(1, 2)), (-1, F(1, 2))),
                "atom (True, Fraction(1, 2)) is not a pair of exact rationals",
            ),
            (((F(1),),), "atom (Fraction(1, 1),) is not a pair of exact rationals"),
            (
                ((F(1), F(1, 2), 0), (F(-1), F(1, 2))),
                "atom (Fraction(1, 1), Fraction(1, 2), 0) is not a pair of exact rationals",
            ),
            ((("1", "1/2"), ("-1", "1/2")), "atom ('1', '1/2') is not a pair of exact rationals"),
        ],
    )
    def test_refusal_and_message(self, atoms, message):
        with pytest.raises(ValidationError) as info:
            DiscreteMeasure(atoms)
        assert str(info.value) == message

    def test_integer_atoms_are_exact(self):
        mu = DiscreteMeasure(((-1, F(1, 2)), (1, F(1, 2))))
        assert mu.second_moment() == 1
        assert tail_sign_ok(mu, 1) and passes_up_to(mu, 1, 9)


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

    def test_presets_equal_their_parsed_atoms(self):
        # Built with no parsing, the atoms are tuple for tuple those of
        # from_pairs on the same (value, weight) pairs, and those of a
        # measure built from the pairs in any order: the measure puts its
        # atoms in increasing order of value, whatever order they come in.
        rng = random.Random(0)

        def same(mu, pairs):
            shuffled = tuple((F(v), F(w)) for v, w in rng.sample(pairs, len(pairs)))
            for other in (DiscreteMeasure.from_pairs(pairs), DiscreteMeasure.from_pairs(shuffled),
                          DiscreteMeasure(shuffled), DiscreteMeasure(shuffled[::-1])):
                assert other == mu and other.atoms == mu.atoms
                assert other.cleared_squares == cleared_squares_reference(shuffled)
            values = [v for v, _ in mu.atoms]
            assert values == sorted(values) and type(mu.atoms) is tuple
            assert all(type(atom) is tuple and type(atom[0]) is F and type(atom[1]) is F
                       for atom in mu.atoms)

        for s2 in range(1, 101):
            same(spin_measure(SpinValue(s2)),
                 [(F(s2 - 2 * k, s2), F(1, s2 + 1)) for k in range(s2 + 1)])
        for k in range(1, 21):
            lam = F(k, 20)
            same(mu_lambda_measure(lam),
                 [(1, lam / 2), (-1, lam / 2)] + ([(0, 1 - lam)] if lam < 1 else []))
        for T in (F(5, 7), F(3, 2), F(1), F(10**40 + 1, 3)):
            same(bernoulli_measure(T), [(T, F(1, 2)), (-T, F(1, 2))])

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

    def test_spin_second_moment_matches_the_atoms(self):
        for t in range(1, 201):
            S = SpinValue(t)
            assert spin_second_moment(S) == spin_measure(S).second_moment()


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


def tail_sign_dict_rule(mu, s):
    """The leading-term rule over every difference: the weight at the
    largest |d| against that at -|d|."""
    weights = dict(differences(mu, s))
    top = max(map(abs, weights))
    return weights.get(top, 0) >= weights.get(-top, 0)


class TestIntegerView:
    """Every question `wells` asks of a measure reads its cleared integers;
    these pin each answer to its `Fraction` definition."""

    @given(even_measure_and_s())
    @example((mu_lambda_measure(F(1, 2)), F(1, 2)))  # tied extremes, tied weights
    @example((mu_lambda_measure(F(1, 3)), F(1, 2)))  # tied extremes, heavier at 0
    @example((mu_lambda_measure(F(3, 5)), F(1, 2)))  # tied extremes, heavier at 1
    @example((bernoulli_measure(F(3, 2)), F(9, 4)))  # one distinct square, s on it
    @example((bernoulli_measure(F(3, 2)), F(2)))  # one distinct square, s below
    @example((bernoulli_measure(F(3, 2)), F(5, 2)))  # one distinct square, s above
    @example((spin_measure(SpinValue.parse(2)), F(1, 4)))  # s equal to a square
    @example((spin_measure(SpinValue.parse(2)), F(0)))  # s equal to the smallest square
    @example((spin_measure(SpinValue.parse(2)), F(1)))  # s equal to the largest square
    @settings(max_examples=300, deadline=None)
    def test_tail_rule_is_the_leading_term_rule(self, case):
        mu, s = case
        assert tail_sign_ok(mu, s) == tail_sign_dict_rule(mu, s)
        assert tail_sign_ok(mu, s) == tail_sign_reference(mu, s)

    @given(even_measure_and_s())
    @settings(max_examples=200, deadline=None)
    def test_second_moment_and_squares_match_fractions(self, case):
        mu, _ = case
        assert mu.second_moment() == sum((w * v * v for v, w in mu.atoms), F(0))
        weight_at = {}
        for v, w in mu.atoms:
            weight_at[v * v] = weight_at.get(v * v, 0) + w
        D, squares = mu.cleared_squares
        W = sum(c for _, c in squares)
        assert [(F(a, D), F(c, W)) for a, c in squares] == sorted(weight_at.items())


def differences(mu, s):
    """(d, c) per distinct v^2, with d = (v^2 - s) q D for s = p/q, read
    from `cleared_squares`: each d has the sign of v^2 - s."""
    D, squares = mu.cleared_squares
    return [(a * s.denominator - s.numerator * D, c) for a, c in squares]


def odd_power_loop(mu, s, n_max):
    """`passes_up_to` without the certificate: the odd moments one by one."""
    terms = [(d, c) for d, c in differences(mu, s) if d]
    return all(t >= 0 for t in islice(_odd_power_sums(terms, 1), (n_max + 1) // 2))


def certificate_holds(mu, s):
    return _stop_loss_dominates([(d, c) for d, c in differences(mu, s) if d])


@st.composite
def measure_and_certificate_point(draw):
    """An even measure as in `even_measure_and_s` and s drawn from 0, an
    atom's v^2, the second moment, the top v^2 or an arbitrary rational."""
    mu, s = draw(even_measure_and_s())
    squares = [v * v for v, _ in mu.atoms]
    s = draw(st.sampled_from([F(0), s, mu.second_moment(), max(squares), *squares]))
    return mu, s


class TestStopLossCertificate:
    """`passes_up_to` tries the certificate before the odd-moment loop."""

    @given(measure_and_certificate_point())
    @example((FALLBACK, FALLBACK_S))
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_as_the_loop_and_sound(self, case):
        mu, s = case
        for n_max in (1, 7, 51, 201):
            assert passes_up_to(mu, s, n_max) == odd_power_loop(mu, s, n_max), n_max
        if certificate_holds(mu, s):
            assert all(wells_term(mu, s, n) >= 0 for n in range(1, 62, 2))

    def test_fallback_example_runs_the_loop(self):
        # The explicit example above reaches the loop, and the loop passes.
        assert not certificate_holds(FALLBACK, FALLBACK_S)
        with mock.patch.object(wells, "_odd_power_sums", wraps=_odd_power_sums) as spy:
            assert passes_up_to(FALLBACK, FALLBACK_S, 201)
        spy.assert_called_once()

    def test_spin_four_is_certified_without_powers(self):
        # A bypassed certificate would raise 10^4 / 2 odd powers here.
        mu = spin_measure(SpinValue.parse(4))
        with mock.patch.object(wells, "_odd_power_sums", wraps=_odd_power_sums) as spy:
            assert passes_up_to(mu, mu.second_moment(), 10**4)
        spy.assert_not_called()

    @pytest.mark.parametrize(
        "terms, holds",
        [
            ([], True),
            ([(-1, 1), (1, 1)], True),
            ([(-1, 2), (1, 1)], False),
            ([(-3, 1), (1, 3)], False),  # equal means, but the far negative wins
            ([(-1, 3), (3, 1)], True),
            ([(-2, 1), (1, 1), (2, 1)], True),
            ([(-5, 1), (-1, 1), (2, 4)], False),
        ],
    )
    def test_small_cases(self, terms, holds):
        assert _stop_loss_dominates(terms) == holds


def first_negative_reference(terms, n_max):
    """The least odd n <= n_max with sum c d^n < 0, every order summed."""
    return next((n for n in range(1, n_max + 1, 2) if sum(c * d**n for d, c in terms) < 0), None)


@st.composite
def moment_terms(draw):
    """Distinct nonzero integer d in increasing order with positive weights,
    as `passes_up_to` builds them. Small magnitudes make the largest
    positive and negative |d| tie often, or the negative one win."""
    bound = draw(st.sampled_from([3, 12, 1000]))
    d = st.integers(-bound, bound).filter(bool)
    terms = draw(st.lists(st.tuples(d, st.integers(1, 50)), min_size=1, max_size=6,
                          unique_by=lambda term: term[0]))
    return sorted(terms)


class TestFirstNegativeOrder:
    """The odd-order scan stops where the largest positive difference
    outweighs every negative one, and answers as the full scan does."""

    @given(moment_terms(), st.integers(1, 150))
    @example([(-2, 1), (2, 1)], 150)  # tied extremes
    @example([(-3, 1), (1, 5), (2, 1)], 150)  # the negative side is the larger
    @example([(-100, 50), (101, 1)], 150)  # P > N, but N0 lies past n_max
    @example([(-100, 50), (101, 1)], 1)
    @example([(-5, 2), (1, 20), (6, 1)], 99)  # fails at order 3, below N0 = 5
    @example([(1, 3), (4, 1)], 5)  # no negative side
    @example([(-4, 1), (-1, 3)], 5)  # no positive side
    @settings(max_examples=400, deadline=None)
    def test_matches_the_full_scan(self, terms, n_max):
        assert wells._first_negative_order(terms, n_max) == first_negative_reference(terms, n_max)

    def test_stops_at_the_dominating_order(self, monkeypatch):
        # c_P P^n >= c_N N^n first holds at n = 5 for 3^n >= 4 * 2^n, so
        # the scan takes the sums of orders 1, 3 and 5 and no more.
        terms = [(-2, 4), (1, 8), (3, 1)]
        taken = []

        def counted(terms, first):
            for total in _odd_power_sums(terms, first):
                taken.append(total)
                assert len(taken) <= 3, "the scan went past the dominating order"
                yield total

        monkeypatch.setattr(wells, "_odd_power_sums", counted)
        assert wells._first_negative_order(terms, 10**6) is None
        assert len(taken) == 3
        assert first_negative_reference(terms, 201) is None


def fraction_bisection(mu, n_max, tol):
    """The bisection on `Fraction` endpoints, with its step count."""
    lo, hi, steps = F(0), mu.max_abs_value(), 0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        s = mid * mid
        steps += 1
        if tail_sign_ok(mu, s) and passes_up_to(mu, s, n_max):
            lo = mid
        else:
            hi = mid
    return lo, hi, steps


def predicate_passes_at_s_star(mu, n_max):
    """Whether the bisection's predicate holds at s* = min(second moment,
    (min v^2 + max v^2)/2), where t_minus_upper evaluates it first."""
    squares = sorted(v * v for v, _ in mu.atoms)
    s_star = min(mu.second_moment(), (squares[0] + squares[-1]) / 2)
    return tail_sign_ok(mu, s_star) and passes_up_to(mu, s_star, n_max)


class TestTMinusUpper:
    @given(
        even_measure_and_s(),
        st.integers(min_value=1, max_value=30),
        st.one_of(
            st.sampled_from([F(1, 10**6), F(1, 3), F(7, 10**9), F(1, 2**20)]),
            st.fractions(min_value=F(1, 10**4), max_value=20, max_denominator=10**4),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_integer_bisection_matches_fraction_reference(self, case, n_max, tol):
        mu, _ = case
        assume(tol > 0 and len(mu.atoms) > 2)
        with mock.patch.object(wells, "tail_sign_ok", wraps=tail_sign_ok) as spy:
            res = t_minus_upper(mu, n_max=n_max, tol=tol)
        lo, hi, _ = fraction_bisection(mu, n_max, tol)
        assert (res.lo, res.hi) == (lo, hi)
        # The tail rule is asked once, at s*, also when no step is due.
        assert spy.call_count == 1

    @pytest.mark.parametrize("mu, closed", [
        # s* = 1/4 = (1/2)^2 is a bracket point at every depth.
        (mu_lambda_measure(F(1, 4)), True),
        # s* is the tail midpoint 1/2, where the weight condition holds.
        (mu_lambda_measure(F(3, 4)), True),
        # s* is the tail midpoint 1/2, where the weight condition fails.
        (TAIL_FAILS, False),
        # An intermediate moment order binds below s*.
        (FALLBACK, False),
    ])
    @pytest.mark.parametrize("tol", [F(1, 3), F(1, 10**6), F(1, 2**20), F(1, 10**40)])
    def test_one_evaluation_at_s_star_decides_the_bracket(self, mu, closed, tol):
        # The tail rule is asked once, at s*, even where the bisection
        # falls back to steps: below s* it holds, and at s* and above it
        # the predicate fails, so the steps ask only the moments.
        # `_failing_order` sees every moment evaluation, at s* and per step.
        with (mock.patch.object(wells, "tail_sign_ok", wraps=tail_sign_ok) as tail,
              mock.patch.object(wells, "_failing_order", wraps=wells._failing_order) as moments):
            res = t_minus_upper(mu, tol=tol)
        lo, hi, _ = fraction_bisection(mu, wells.DEFAULT_N_MAX, tol)
        assert predicate_passes_at_s_star(mu, wells.DEFAULT_N_MAX) is closed
        assert (res.lo, res.hi, tail.call_count) == (lo, hi, 1)
        if closed:
            moments.assert_called_once()

    @pytest.mark.parametrize("scale", [1, F(3, 2)])
    def test_tolerance_at_or_above_top_takes_no_step(self, scale):
        # The bracket stays [0, top], but the predicate is still asked at s*.
        mu = spin_measure(SpinValue.parse(2))
        with mock.patch.object(wells, "tail_sign_ok", wraps=tail_sign_ok) as spy:
            res = t_minus_upper(mu, tol=scale * mu.max_abs_value())
        assert (res.lo, res.hi, spy.call_count) == (0, 1, 1)

    def test_two_point_closed_form(self):
        res = t_minus_upper(bernoulli_measure(F(5, 7)))
        assert res == TMinusResult(F(5, 7), F(5, 7))
        assert res.status == CLOSED_FORM

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


def moment_failure_reference(mu, s, n_max):
    """What fails the bisection's predicate at s, from the `Fraction`
    definitions: "tail", the least order n <= n_max with a negative
    moment, or None when nothing does."""
    if not tail_sign_reference(mu, s):
        return "tail"
    return next((n for n in range(1, n_max + 1) if wells_term(mu, s, n) < 0), None)


class TestSStarRecord:
    """The bracket's record of its one predicate evaluation at s*."""

    @pytest.mark.parametrize("mu, tol, s_star, failed_by", [
        (spin_measure(SpinValue.parse(3)), wells.DEFAULT_TOL, F(4, 9), None),
        (mu_lambda_measure(F(3, 10)), wells.DEFAULT_TOL, F(3, 10), None),
        # s* is the second moment, below the tail midpoint 1/2 + 2/121.
        (FALLBACK, wells.DEFAULT_TOL, F(5299, 10648), 3),
        (TAIL_FAILS, wells.DEFAULT_TOL, F(1, 2), "tail"),
        # No step to take, yet s* is still evaluated.
        (spin_measure(SpinValue.parse(2)), 1, F(1, 2), None),
        (spin_measure(SpinValue.parse(2)), F(3, 2), F(1, 2), None),
    ])
    def test_record(self, mu, tol, s_star, failed_by):
        res = t_minus_upper(mu, tol=tol)
        assert (res.s_star, res.failed_by) == (s_star, failed_by)
        assert moment_failure_reference(mu, s_star, wells.DEFAULT_N_MAX) == failed_by

    @given(even_measure_and_s(), st.integers(min_value=1, max_value=20),
           st.sampled_from([F(1, 10**6), F(1, 3), F(50)]))
    @settings(max_examples=150, deadline=None)
    def test_record_and_canonical_check_match_the_definitions(self, case, n_max, tol):
        # The record names what the definitions say fails at s*, and the
        # canonical check, whether read from it or run again, is the
        # moment check at the second moment.
        mu, _ = case
        assume(len(mu.atoms) > 2)
        gap = canonical_gap(mu, n_max=n_max, tol=tol)
        res = gap.bracket
        squares = sorted(v * v for v, _ in mu.atoms)
        assert res.s_star == min(mu.second_moment(), (squares[0] + squares[-1]) / 2)
        assert res.failed_by == moment_failure_reference(mu, res.s_star, n_max)
        second = mu.second_moment()
        expected = all(wells_term(mu, second, n) >= 0 for n in range(1, n_max + 1))
        assert gap.canonical_up_to_n_max is expected

    def test_corpus_closed_form_is_the_two_point_measure(self):
        # Over the t-minus corpus's measures, the closed-form status, a
        # point bracket, two atoms and no evaluation at s* coincide.
        for line in CORPUS.read_text().splitlines():
            row = json.loads(line)
            opts = dict(zip(row["argv"][1::2], row["argv"][2::2]))
            if row["measure"] is None:
                mu = cli.parse_measure(opts["--measure"])
            else:
                mu = DiscreteMeasure.from_json(json.dumps(row["measure"]))
            res = t_minus_upper(mu, n_max=int(opts.get("--n-max", wells.DEFAULT_N_MAX)),
                                tol=opts.get("--tol", wells.DEFAULT_TOL))
            status = json.loads(row["stdout"])["details"]["status"]
            assert (
                {status, res.status} == {CLOSED_FORM}
            ) == (res.lo == res.hi) == (len(mu.atoms) == 2) == (res.s_star is None), row["argv"]

    def test_tail_failure_at_the_second_moment_is_checked_again(self):
        # s* = 1/2 is both the second moment and the tail midpoint, where
        # the weight condition fails (1/4 at v^2 = 1 against 23/64 at 0).
        # The moments were never asked there, and to order 2 they hold.
        mu = DiscreteMeasure.from_pairs(
            [(sign * F(v), w) for v, w in ((1, "1/8"), ("4/5", "25/128")) for sign in (1, -1)]
            + [(0, "23/64")]
        )
        gap = canonical_gap(mu, n_max=2)
        assert (gap.bracket.s_star, gap.bracket.failed_by) == (mu.second_moment(), "tail")
        assert gap.canonical_up_to_n_max


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
        mu = mu_lambda_measure(F(1, 4))
        gap = canonical_gap(mu)
        assert mu.second_moment() == F(1, 4)
        assert gap.canonical_up_to_n_max
        assert gap.bracket.lo**2 <= F(1, 4) <= gap.bracket.hi**2

    def test_spin_one_is_not_canonical(self):
        mu = spin_measure(SpinValue.parse(1))
        gap = canonical_gap(mu)
        assert mu.second_moment() == F(2, 3)
        assert not gap.canonical_up_to_n_max
        assert gap.bracket.hi**2 < F(2, 3)

    def test_spin_two_is_canonical(self):
        mu = spin_measure(SpinValue.parse(2))
        gap = canonical_gap(mu)
        assert mu.second_moment() == F(1, 2)
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
