import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wells_majorize.errors import LengthMismatchError, PreconditionError, ValidationError
from wells_majorize.majorize import (
    KaramataResult,
    NonNegVector,
    OddConvexFunction,
    karamata_verify,
    majorizes,
    partial_sums,
    single_crossing_majorizes,
)

V = NonNegVector.of


small_fractions = st.fractions(min_value=0, max_value=10, max_denominator=6)
vectors = st.lists(small_fractions, min_size=1, max_size=12).map(
    lambda xs: NonNegVector(tuple(xs))
)


class TestNonNegVector:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            V(1, "-1/2")

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            NonNegVector(())

    def test_parses_rational_strings(self):
        assert V("1/3", 2).entries == (F(1, 3), F(2))


class TestRearrangement:
    def test_sorts_descending(self):
        assert V(1, 3, 2).decreasing == (F(3), F(2), F(1))

    def test_constant_vector_fixed_point(self):
        assert V(5, 5, 5).decreasing == (F(5),) * 3

    def test_example_vector(self):
        v = V(22, 22, 0, 11, 11, 2, 2)
        assert v.decreasing == tuple(map(F, (22, 22, 11, 11, 2, 2, 0)))

    @given(vectors)
    def test_idempotent_and_sum_preserving(self, v):
        once = NonNegVector(v.decreasing)
        assert NonNegVector(once.decreasing) == once
        assert once.total() == v.total()


class TestPartialSums:
    def test_two_entries(self):
        assert partial_sums(V(3, 1)) == [F(3), F(4)]

    def test_seven_entry_vectors(self):
        assert partial_sums(V(22, 22, 11, 11, 2, 2, 0)) == list(
            map(F, (22, 44, 55, 66, 68, 70, 70))
        )
        assert partial_sums(V(14, 13, 13, 10, 10, 5, 5)) == list(
            map(F, (14, 27, 40, 50, 60, 65, 70))
        )

    @given(vectors)
    def test_last_sum_is_total(self, v):
        assert partial_sums(v)[-1] == v.total()


class TestMajorizes:
    def test_extreme_point_majorizes_uniform(self):
        assert majorizes(V(2, 0), V(1, 1))

    def test_order_is_not_symmetric(self):
        assert not majorizes(V(1, 1), V(2, 0))

    def test_seven_entry_example(self):
        x = V(22, 22, 11, 11, 2, 2, 0)
        y = V(14, 13, 13, 10, 10, 5, 5)
        assert majorizes(x, y)

    def test_length_mismatch_raises(self):
        with pytest.raises(LengthMismatchError):
            majorizes(V(1, 1), V(2))

    @given(vectors)
    def test_reflexive(self, v):
        assert majorizes(v, v)

    @given(vectors, vectors)
    def test_antisymmetric_on_rearrangements(self, x, y):
        if len(x) != len(y):
            return
        if majorizes(x, y) and majorizes(y, x):
            assert x.decreasing == y.decreasing


class TestSingleCrossing:
    def test_simple_crossing(self):
        res = single_crossing_majorizes(V(3, 2, 1), V(2, 2, 2))
        assert res.applies and res.crossing_index == 2

    def test_two_entry_crossing(self):
        res = single_crossing_majorizes(V(2, 0), V(1, 1))
        assert res.applies and res.crossing_index == 2

    def test_triple_shift_does_not_apply(self):
        x = V(22, 22, 11, 11, 2, 2, 0)
        y = V(14, 13, 13, 10, 10, 5, 5)
        assert not single_crossing_majorizes(x, y).applies
        assert majorizes(x, y)  # the general test still sees the order

    def test_equal_vectors_do_not_apply(self):
        assert not single_crossing_majorizes(V(1, 2), V(2, 1)).applies

    def test_unequal_totals_raise(self):
        with pytest.raises(PreconditionError):
            single_crossing_majorizes(V(3, 1), V(1, 1))

    def test_soundness_bulk(self):
        # Whenever the criterion applies, the majorization order must hold.
        rng = random.Random(20260823)
        applied = 0
        for _ in range(10_000):
            n = rng.randint(2, 12)
            y = [F(rng.randint(0, 30), rng.randint(1, 6)) for _ in range(n)]
            x = list(y)
            for _ in range(rng.randint(0, 2 * n)):
                i, j = rng.randrange(n), rng.randrange(n)
                lo, hi = (i, j) if x[i] <= x[j] else (j, i)
                delta = x[lo] * F(rng.randint(0, 4), 4)
                x[lo] -= delta
                x[hi] += delta
            xv, yv = NonNegVector(tuple(x)), NonNegVector(tuple(y))
            res = single_crossing_majorizes(xv, yv)
            if res.applies:
                applied += 1
                assert majorizes(xv, yv), (x, y)
        assert applied > 100  # the generator must actually hit the pattern


class TestOddConvexFunction:
    def test_power_is_odd(self):
        cube = OddConvexFunction.power(1)
        assert cube.value(F(-3, 2)) == -F(27, 8)
        assert cube.value(0) == 0

    @pytest.mark.parametrize("exponent", [-1, 0, 2, 4])
    def test_rejects_exponent_that_is_not_positive_and_odd(self, exponent):
        with pytest.raises(ValidationError):
            OddConvexFunction(exponent)

    def test_rejects_negative_m(self):
        with pytest.raises(ValidationError):
            OddConvexFunction.power(-1)


ODD_POWERS = [OddConvexFunction.power(m) for m in range(10)]


class TestKaramata:
    def test_square_via_odd_power(self):
        res = karamata_verify(V(2, 0), V(1, 1), OddConvexFunction.power(1))
        assert res == KaramataResult(holds=True, lhs=F(8), rhs=F(2))

    def test_hinge(self):
        # One unit moved from the smallest entry to the largest: t**1 sees
        # no change, every higher odd power a strict gain.
        for phi in ODD_POWERS:
            res = karamata_verify(V(3, 2, 1), V(2, 2, 2), phi)
            e = phi.exponent
            assert res == KaramataResult(holds=True, lhs=3**e + 2**e + 1, rhs=3 * 2**e)
            assert (res.lhs == res.rhs) == (e == 1)

    def test_reflexive_equality(self):
        for phi in ODD_POWERS:
            res = karamata_verify(V(1, 2, 3), V(3, 1, 2), phi)
            assert res.holds and res.lhs == res.rhs

    def test_requires_majorization(self):
        with pytest.raises(PreconditionError):
            karamata_verify(V(1, 1), V(2, 0), OddConvexFunction.power(1))

    def test_bulk_random_pairs(self):
        # Pairs built by mass transfers toward larger entries always
        # satisfy the order, and the convex-sum inequality must hold for
        # every odd power t**(2m+1), m = 0..9: zero counterexamples.
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randint(2, 8)
            y = [F(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(n)]
            x = list(y)
            for _ in range(rng.randint(1, n)):
                i, j = rng.randrange(n), rng.randrange(n)
                lo, hi = (i, j) if x[i] <= x[j] else (j, i)
                delta = x[lo] * F(rng.randint(0, 4), 4)
                x[lo] -= delta
                x[hi] += delta
            xv, yv = NonNegVector(tuple(x)), NonNegVector(tuple(y))
            assert majorizes(xv, yv)
            for phi in ODD_POWERS:
                assert karamata_verify(xv, yv, phi).holds


@given(
    st.lists(small_fractions, min_size=2, max_size=10),
    st.data(),
)
@settings(max_examples=200)
def test_transfer_toward_larger_entry_majorizes(entries, data):
    y = NonNegVector(tuple(entries))
    n = len(entries)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    lo, hi = (i, j) if entries[i] <= entries[j] else (j, i)
    if lo == hi or entries[lo] == 0:
        return
    delta = entries[lo] * data.draw(
        st.fractions(min_value=F(1, 8), max_value=1, max_denominator=8)
    )
    moved = list(entries)
    moved[lo] -= delta
    moved[hi] += delta
    assert majorizes(NonNegVector(tuple(moved)), y)


def literal_majorizes(x, y):
    """The textbook definition: equal totals and every prefix sum of the
    decreasing rearrangement of x at least that of y."""
    xs, ys = sorted(x, reverse=True), sorted(y, reverse=True)
    prefixes = range(1, len(xs) + 1)
    return sum(xs) == sum(ys) and all(sum(xs[:k]) >= sum(ys[:k]) for k in prefixes)


@given(st.data())
@settings(max_examples=300)
def test_majorizes_matches_literal_definition(data):
    # Small integer entries make equal totals, ties and equal prefixes common;
    # unequal totals are drawn as well.
    n = data.draw(st.integers(1, 8))
    entries = st.lists(st.integers(0, 4).map(F), min_size=n, max_size=n)
    x, y = data.draw(entries), data.draw(entries)
    assert majorizes(NonNegVector(tuple(x)), NonNegVector(tuple(y))) == literal_majorizes(x, y)
