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


# The integer kernels against a literal Fraction reference: the textbook
# definitions, computed entry by entry in Fraction arithmetic. Entries mix
# small denominators with large coprime ones, so the common denominator of
# a vector, and of a pair, is often far from any one entry's.
DENOMINATORS = st.one_of(st.integers(1, 12), st.sampled_from([10**6 + 3, 10**9 + 7, 998244353]))
mixed_fractions = st.one_of(
    st.just(F(0)), st.builds(F, st.integers(0, 60), DENOMINATORS)
)


@st.composite
def mixed_pairs(draw, max_size=40):
    """(x, y) of one length 1..max_size. x is y reordered, then moved by
    transfers from a smaller entry to a larger one (x majorizes y) or the
    other way (x has y's total but mostly does not majorize it), or x is
    drawn on its own. Entries repeat from a small pool, so ties are common."""
    n = draw(st.integers(1, max_size))
    pool = draw(st.lists(mixed_fractions, min_size=1, max_size=5))
    entries = st.one_of(st.sampled_from(pool), mixed_fractions)
    y = draw(st.lists(entries, min_size=n, max_size=n))
    how = draw(st.sampled_from(["to larger", "to smaller", "independent"]))
    if how == "independent":
        return draw(st.lists(entries, min_size=n, max_size=n)), y
    x = list(draw(st.permutations(y)))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        lo, hi = (i, j) if x[i] <= x[j] else (j, i)
        if how == "to larger":
            delta = x[lo] * draw(st.fractions(0, 1, max_denominator=7))
            x[lo], x[hi] = x[lo] - delta, x[hi] + delta
        else:
            delta = (x[hi] - x[lo]) * draw(st.fractions(0, 1, max_denominator=7))
            x[lo], x[hi] = x[lo] + delta, x[hi] - delta
    return x, y


def literal_partial_sums(entries):
    running, out = F(0), []
    for e in sorted(entries, reverse=True):
        running += e
        out.append(running)
    return out


def literal_single_crossing(x, y):
    """(applies, crossing_index) by the definition on the decreasing
    rearrangements: strictly above before some l >= 2, at or below from l on."""
    xs, ys = sorted(x, reverse=True), sorted(y, reverse=True)
    first = next((i for i in range(len(xs)) if xs[i] <= ys[i]), len(xs))
    if first in (0, len(xs)) or any(xs[i] > ys[i] for i in range(first, len(xs))):
        return False, None
    return True, first + 1


def literal_power_sum(entries, n):
    return sum((e**n for e in entries), F(0))


class TestIntegerKernelsAgainstFractions:
    @given(mixed_pairs())
    @settings(max_examples=100, deadline=None)
    def test_partial_sums_and_rearrangement(self, pair):
        for entries in pair:
            v = NonNegVector(tuple(entries))
            sums = partial_sums(v)
            assert sums == literal_partial_sums(entries)
            assert all(type(s) is F for s in sums)
            assert v.total() == sum(entries, F(0))
            # Stable: ties keep their index order, as the same objects.
            expected = sorted(entries, reverse=True)
            assert all(a is b for a, b in zip(v.decreasing, expected, strict=True))

    @given(mixed_pairs(), st.integers(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_order_checks(self, pair, m):
        x, y = pair
        xv, yv = NonNegVector(tuple(x)), NonNegVector(tuple(y))
        holds = literal_majorizes(x, y)
        assert majorizes(xv, yv) == holds

        if sum(x, F(0)) != sum(y, F(0)):
            with pytest.raises(PreconditionError, match="requires equal totals"):
                single_crossing_majorizes(xv, yv)
        else:
            crossing = single_crossing_majorizes(xv, yv)
            assert (crossing.applies, crossing.crossing_index) == literal_single_crossing(x, y)
            assert holds or not crossing.applies

        phi = OddConvexFunction.power(m)
        if not holds:
            with pytest.raises(PreconditionError, match="not in majorization order"):
                karamata_verify(xv, yv, phi)
            return
        lhs, rhs = literal_power_sum(x, 2 * m + 1), literal_power_sum(y, 2 * m + 1)
        assert karamata_verify(xv, yv, phi) == KaramataResult(holds=lhs >= rhs, lhs=lhs, rhs=rhs)
