import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wells_majorize.errors import (
    NumericError,
    PreconditionError,
    ResourceLimitError,
    ValidationError,
)
from wells_majorize import oracle
from wells_majorize.oracle import (
    _CHUNK,
    _FLUSH_CHUNKS,
    _FSUM_MAX_SIZE,
    CouplingSet,
    Lattice,
    ProbeConfig,
    bernoulli_float_atoms,
    domination_check,
    float_atoms,
    gibbs_expectation,
    random_probe,
    violation_search,
    _binned_sum,
    _exact_sum,
)
from wells_majorize.report import FAIL, INCONCLUSIVE, PASS
from wells_majorize.spin_sums import SpinValue
from wells_majorize.wells import (
    bernoulli_measure,
    mu_lambda_measure,
    spin_measure,
    spin_second_moment,
)

PM_ONE = bernoulli_float_atoms(1.0)


def pair_coupling(J):
    return CouplingSet.from_dict({frozenset({0, 1}): J})


class TestValidation:
    def test_lattice_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            Lattice((0, 1, 1))

    def test_couplings_reject_empty_subset(self):
        with pytest.raises(ValidationError):
            CouplingSet.from_dict({frozenset(): 1.0})

    def test_couplings_reject_negative_strength(self):
        with pytest.raises(ValidationError):
            CouplingSet.from_dict({frozenset({0}): -0.5})

    def test_couplings_reject_duplicate_subsets(self):
        with pytest.raises(ValidationError):
            CouplingSet(((frozenset({0, 1}), 1.0), (frozenset({1, 0}), 2.0)))

    @pytest.mark.parametrize(
        "measure",
        [
            [(math.inf, 0.5), (-1.0, 0.5)],
            [(math.nan, 0.5), (-1.0, 0.5)],
            [(1.0, math.inf), (-1.0, 0.5)],
            bernoulli_measure(10**400),
        ],
    )
    def test_float_atoms_rejects_values_outside_the_float_range(self, measure):
        with pytest.raises(ValidationError, match="float range"):
            float_atoms(measure)

    def test_float_atoms_rejects_bad_weights(self):
        with pytest.raises(ValidationError):
            float_atoms([(1.0, 0.0), (-1.0, 1.0)])
        with pytest.raises(ValidationError):
            float_atoms([])

    def test_bernoulli_atoms_require_positive_magnitude(self):
        with pytest.raises(ValidationError):
            bernoulli_float_atoms(0.0)

    def test_probe_config_rejects_negative_trials(self):
        with pytest.raises(PreconditionError):
            ProbeConfig(seed=1, trials=-1, site_cap=2)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_probe_config_rejects_bad_tolerance(self, tol):
        with pytest.raises(PreconditionError, match="tol"):
            ProbeConfig(seed=1, trials=1, site_cap=2, tol=tol)

    def test_probe_config_accepts_zero_tolerance(self):
        assert ProbeConfig(seed=1, trials=1, site_cap=2, tol=0.0).tol == 0.0


class TestGibbsExpectation:
    def test_empty_observable_is_one(self):
        lattice = Lattice.of_size(3)
        assert gibbs_expectation(lattice, pair_coupling(1.0), PM_ONE, ()) == 1.0

    @pytest.mark.parametrize(
        "terms, B, message",
        [({frozenset({0, 5}): 1.0}, (0,), "coupling subset"), ({}, (0, 2), "observable subset")],
    )
    def test_rejects_subsets_outside_the_lattice(self, terms, B, message):
        with pytest.raises(ValidationError, match=message):
            gibbs_expectation(Lattice.of_size(2), CouplingSet.from_dict(terms), PM_ONE, B)

    def test_free_single_spin_vanishes(self):
        lattice = Lattice.of_size(2)
        value = gibbs_expectation(lattice, CouplingSet(()), PM_ONE, (0,))
        assert value == 0.0

    def test_even_interaction_keeps_odd_observables_zero(self):
        lattice = Lattice.of_size(3)
        J = CouplingSet.from_dict({frozenset({0, 1}): 1.2, frozenset({1, 2}): 0.7})
        for B in [(0,), (2,), (0, 1, 2)]:
            assert abs(gibbs_expectation(lattice, J, PM_ONE, B)) < 1e-12

    @pytest.mark.parametrize("J", [0.0, 0.1, 0.5, 1.0, 1.7, 2.0])
    def test_two_site_matches_tanh(self, J):
        # For two +-1 spins with a single pair coupling the correlation
        # has the closed form tanh(J).
        lattice = Lattice.of_size(2)
        value = gibbs_expectation(lattice, pair_coupling(J), PM_ONE, (0, 1))
        assert abs(value - math.tanh(J)) < 1e-12

    def test_monotone_in_coupling(self):
        lattice = Lattice.of_size(2)
        values = [
            gibbs_expectation(lattice, pair_coupling(J / 4), PM_ONE, (0, 1))
            for J in range(9)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_pointwise_bound(self):
        lattice = Lattice.of_size(3)
        mu = spin_measure(SpinValue.parse(2))
        J = CouplingSet.from_dict({frozenset({0, 1}): 1.0, frozenset({0, 1, 2}): 0.4})
        for B in [(0,), (0, 1), (0, 1, 2)]:
            value = gibbs_expectation(lattice, J, mu, B)
            assert abs(value) <= 1.0 + 1e-12  # atoms live in [-1, 1]

    def test_ferromagnetic_correlations_nonnegative(self):
        lattice = Lattice.of_size(4)
        J = CouplingSet.from_dict(
            {
                frozenset({0, 1}): 0.9,
                frozenset({1, 2}): 0.4,
                frozenset({2, 3}): 1.3,
                frozenset({0, 3}): 0.2,
            }
        )
        for B in [(0, 1), (0, 2), (1, 3), (0, 1, 2, 3)]:
            assert gibbs_expectation(lattice, J, PM_ONE, B) >= -1e-12

    def test_configuration_cap(self):
        # 2**20 configurations exceed the cap of 10**6.
        lattice = Lattice.of_size(20)
        with pytest.raises(ResourceLimitError):
            gibbs_expectation(lattice, CouplingSet(()), PM_ONE, (0,))

    def test_strong_couplings_do_not_overflow(self):
        # exp(800) overflows a double; the ground states s0 = s1 = s2
        # dominate completely, so the correlation of the ends is 1.
        lattice = Lattice.of_size(3)
        J = CouplingSet.from_dict({frozenset({0, 1}): 400.0, frozenset({1, 2}): 400.0})
        assert gibbs_expectation(lattice, J, PM_ONE, (0, 2)) == pytest.approx(1.0, abs=1e-12)
        assert abs(gibbs_expectation(lattice, J, PM_ONE, (0,))) < 1e-12

    def test_deterministic_to_the_bit(self):
        lattice = Lattice.of_size(3)
        mu = spin_measure(SpinValue.parse("3/2"))
        J = CouplingSet.from_dict({frozenset({0, 1}): 0.8, frozenset({1, 2}): 1.1})
        first = gibbs_expectation(lattice, J, mu, (0, 2))
        assert all(
            gibbs_expectation(lattice, J, mu, (0, 2)) == first for _ in range(3)
        )


class TestDominationCheck:
    def test_equal_measures_hold_with_equality(self):
        lattice = Lattice.of_size(2)
        mu = spin_measure(SpinValue.parse(1))
        res = domination_check(lattice, pair_coupling(1.0), mu, mu, (0, 1))
        assert res.holds and res.lhs == res.rhs

    def test_detects_clear_violation(self):
        # A two-point measure at magnitude 2 correlates more strongly than
        # one at magnitude 1, so domination in this direction must fail.
        lattice = Lattice.of_size(2)
        res = domination_check(
            lattice,
            pair_coupling(0.5),
            bernoulli_float_atoms(2.0),
            PM_ONE,
            (0, 1),
        )
        assert not res.holds and res.lhs > res.rhs


class TestRandomProbe:
    def test_deterministic_for_seed(self):
        config = ProbeConfig(seed=7, trials=40, site_cap=3)
        mu = bernoulli_float_atoms(math.sqrt(0.5))
        nu = spin_measure(SpinValue.parse(2))
        a = random_probe(config, mu, nu).to_dict()
        b = random_probe(config, mu, nu).to_dict()
        assert a == b

    def test_zero_trials_is_empty_pass(self):
        config = ProbeConfig(seed=1, trials=0, site_cap=2)
        report = random_probe(config, PM_ONE, PM_ONE)
        assert report.status == PASS and report.details["passes"] == 0

    def test_measures_converted_once(self, monkeypatch):
        seen = []

        def spy(lattice, couplings, measure, B):
            seen.append(measure)
            return gibbs_expectation(lattice, couplings, measure, B)

        monkeypatch.setattr(oracle, "gibbs_expectation", spy)
        mu, nu = mu_lambda_measure(Fraction(1, 4)), spin_measure(SpinValue.parse(1))
        random_probe(ProbeConfig(seed=3, trials=5, site_cap=3), mu, nu)
        assert len(seen) == 10 and len({id(m) for m in seen}) == 2
        assert seen[:2] == [float_atoms(mu), float_atoms(nu)]

    def test_rms_two_point_vs_spin_passes(self):
        # The canonical two-point comparison measure never beats the spin
        # measure on ferromagnetic instances.
        mu = bernoulli_float_atoms(math.sqrt(0.5))
        nu = spin_measure(SpinValue.parse(2))
        report = random_probe(ProbeConfig(seed=42, trials=200, site_cap=4), mu, nu)
        assert report.status == PASS
        assert report.details["passes"] == 200

    def test_adverse_direction_fails(self):
        # Swapping the measures makes the violation easy to hit.
        mu = bernoulli_float_atoms(2.0)
        report = random_probe(ProbeConfig(seed=5, trials=50, site_cap=3), mu, PM_ONE)
        assert report.status == FAIL
        assert report.witnesses


class TestViolationSearch:
    def test_finds_planted_violation(self):
        mu = bernoulli_float_atoms(2.0)
        report = violation_search(ProbeConfig(seed=5, trials=50, site_cap=3), mu, PM_ONE)
        assert report.status == PASS
        assert report.details["found_at_trial"] is not None
        assert report.witnesses

    def test_absence_is_inconclusive(self):
        mu = bernoulli_float_atoms(math.sqrt(0.5))
        nu = spin_measure(SpinValue.parse(2))
        report = violation_search(ProbeConfig(seed=3, trials=20, site_cap=3), mu, nu)
        assert report.status == INCONCLUSIVE
        assert report.exit_code == 3

    def test_spin_one_undominated_direction(self):
        # The spin-1 measure is not dominated by its RMS two-point
        # comparison at every volume; the bounded search may or may not
        # hit a witness, but must never report failure.
        mu = spin_measure(SpinValue.parse(1))
        nu = bernoulli_float_atoms(math.sqrt(2.0 / 3.0))
        report = violation_search(ProbeConfig(seed=9, trials=200, site_cap=4), nu, mu)
        assert report.status in (PASS, INCONCLUSIVE)


def grid_expectation(lattice, couplings, measure, B):
    """<sigma^B> by the earlier enumeration, kept as the bit-for-bit
    reference: spins gathered into a (k**n, n) matrix of index tuples in
    lexicographic order, row products, and math.fsum over numpy arrays."""
    B = tuple(B)
    if not B:
        return 1.0
    atoms = float_atoms(measure)
    k, n = len(atoms), len(lattice.sites)
    values = np.array([v for v, _ in atoms])
    weights = np.array([w for _, w in atoms])
    idx = np.indices((k,) * n).reshape(n, -1).T
    spins = values[idx]
    prior = weights[idx].prod(axis=1)
    col = {site: i for i, site in enumerate(lattice.sites)}
    energy = np.zeros(len(idx))
    for subset, strength in couplings.terms:
        energy -= strength * spins[:, [col[s] for s in subset]].prod(axis=1)
    energy -= energy.min()
    boltz = prior * np.exp(-energy)
    observable = spins[:, [col[s] for s in B]].prod(axis=1)
    return math.fsum(observable * boltz) / math.fsum(boltz)


SPINS = ["1/2", "1", "3/2", "2", "5/2", "3", "7/2", "4"]


@st.composite
def gibbs_instances(draw, max_configs=20_000):
    """An instance with 1-7 sites in shuffled lattice order, 1-3-body
    couplings in [0, 2], an observable of any size (repeats allowed) and
    an irrational two-point, a spin (2-9 atoms), a three-point measure
    with a zero atom or 2-4 arbitrary float atoms, whose products depend
    on the order of their factors."""
    family = draw(st.sampled_from(["bernoulli-rms", "spin", "mu-lambda", "float"]))
    if family == "float":
        values = draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4, unique=True))
        measure = [(v, draw(st.floats(0.01, 1.0))) for v in values]
    elif family == "bernoulli-rms":
        S = SpinValue.parse(draw(st.sampled_from(SPINS)))
        measure = bernoulli_float_atoms(math.sqrt(float(spin_second_moment(S))))
    elif family == "spin":
        measure = spin_measure(SpinValue.parse(draw(st.sampled_from(SPINS))))
    else:
        measure = mu_lambda_measure(Fraction(draw(st.integers(1, 19)), 20))
    k = len(float_atoms(measure))
    n = draw(st.integers(1, max(n for n in range(1, 8) if k**n <= max_configs)))
    sites = draw(st.permutations([3 * i + 1 for i in range(n)]))
    subsets = st.frozensets(st.sampled_from(sites), min_size=1, max_size=min(3, n))
    terms = draw(st.dictionaries(subsets, st.floats(0.0, 2.0), max_size=2 * n))
    B = draw(st.lists(st.sampled_from(sites), max_size=n + 1))
    return Lattice(tuple(sites)), CouplingSet.from_dict(terms), measure, B


def example_instance(sites, terms, measure, B):
    return Lattice(sites), CouplingSet.from_dict(terms), measure, B


class TestTensorEnumeration:
    """The tensor enumeration returns bit for bit what the index-grid
    enumeration with math.fsum returned."""

    @given(gibbs_instances())
    @settings(max_examples=300, deadline=None)
    # Sites 1 and 10 are never coupled.
    @example(example_instance((1, 4, 7, 10), {(4, 7): 1.3}, spin_measure(SpinValue.parse(4)), [1, 7]))
    @example(example_instance((7, 1, 4), {}, mu_lambda_measure(Fraction(3, 10)), [4, 4]))
    # The first terms cover one site, then two, then all of them.
    @example(example_instance(
        (10, 4, 1, 7),
        {(7,): 0.7, (1, 7): 1.1, (4, 1, 10): 0.4, (4,): 1.9},
        spin_measure(SpinValue.parse(4)),
        [4],
    ))
    @example(example_instance(
        (4, 1, 7),
        {(1, 4): 2.0, (7,): 0.3, (1,): 1.2},
        [(0.49, 0.25), (-1.83, 0.25), (-1.57, 0.5)],
        [7, 1],
    ))
    def test_matches_grid_enumeration_to_the_bit(self, instance):
        value = gibbs_expectation(*instance)
        assert repr(value) == repr(grid_expectation(*instance))

    @pytest.mark.parametrize(
        "measure, n",
        [
            (spin_measure(SpinValue.parse(4)), 6),  # 9**6, the probe's largest
            (spin_measure(SpinValue.parse(1)), 7),  # 3**7, just above the fsum size
            (bernoulli_float_atoms(math.sqrt(5 / 12)), 7),
        ],
    )
    def test_largest_enumerations(self, measure, n):
        rng = random.Random(n)
        sites = tuple(range(n))
        terms = {
            frozenset(rng.sample(sites, rng.randint(1, 3))): rng.uniform(0.0, 2.0)
            for _ in range(2 * n)
        }
        instance = (Lattice(sites), CouplingSet.from_dict(terms), measure, (0, 2, n - 1))
        assert repr(gibbs_expectation(*instance)) == repr(grid_expectation(*instance))

    def test_coupling_factors_in_frozenset_order(self):
        # frozenset({6, 24, 26}) iterates 24, 26, 6; multiplying these
        # atoms in sorted site order instead changes the last bit.
        sites = (6, 24, 26)
        assert list(frozenset(sites)) != sorted(sites)
        instance = (
            Lattice(sites),
            CouplingSet.from_dict({frozenset(sites): 1.1}),
            [(0.49, 0.25), (-1.83, 0.25), (-1.57, 0.5)],
            sites,
        )
        assert repr(gibbs_expectation(*instance)) == repr(grid_expectation(*instance))

    @pytest.mark.parametrize("B", [(0, 2), (0,), (1, 0, 2), (2, 2)])
    def test_strong_couplings_to_the_bit(self, B):
        lattice = Lattice.of_size(3)
        J = CouplingSet.from_dict({frozenset({0, 1}): 400.0, frozenset({1, 2}): 400.0})
        assert repr(gibbs_expectation(lattice, J, PM_ONE, B)) == repr(
            grid_expectation(lattice, J, PM_ONE, B)
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "terms, B",
        [
            ({frozenset({0, 1}): 1.0}, (0, 1)),  # energies overflow
            ({frozenset({0}): 1.0}, (0, 1)),  # only the observable overflows
        ],
    )
    def test_overflow_raises_numeric_error(self, terms, B):
        huge = bernoulli_float_atoms(1e200)
        with pytest.raises(NumericError, match="partition function degenerate|expectation not finite"):
            gibbs_expectation(Lattice.of_size(2), CouplingSet.from_dict(terms), huge, B)


def fraction_sum(values):
    return sum(map(Fraction, values), Fraction(0))


SCALES = {
    "subnormal": lambda rng, n: rng.integers(0, 2**52, n) * 5e-324,
    "unit": lambda rng, n: rng.standard_normal(n),
    "huge": lambda rng, n: rng.uniform(0.5, 1.0, n) * 2.0**1023,
    "spread": lambda rng, n: np.ldexp(rng.random(n), rng.integers(-1074, 1000, n)),
    "zero": lambda rng, n: np.zeros(n),
}


class TestExactSum:
    """_exact_sum equals math.fsum over a list, by repr, on both sides of
    the size at which it stops calling fsum."""

    @given(
        size=st.sampled_from([1, 2, _FSUM_MAX_SIZE, _FSUM_MAX_SIZE + 1, 6000])
        | st.integers(0, 6000),
        seed=st.integers(0, 2**32 - 1),
        scales=st.lists(st.sampled_from(sorted(SCALES)), min_size=1, unique=True),
        cancel=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    @example(size=_FSUM_MAX_SIZE + 1, seed=1, scales=["huge"], cancel=False)
    @example(size=_FSUM_MAX_SIZE + 1, seed=2, scales=["subnormal", "zero"], cancel=True)
    def test_matches_fsum(self, size, seed, scales, cancel):
        rng = np.random.default_rng(seed)
        parts = np.concatenate([SCALES[name](rng, size) for name in scales])
        x = rng.permutation(parts[:size] * rng.choice([-1.0, 1.0], size))
        if cancel:
            x = rng.permutation(np.concatenate([x, -x]))
        try:
            exact = float(fraction_sum(x.tolist()))
        except OverflowError:
            with pytest.raises(NumericError):
                _exact_sum(x, "sum")
            return
        assert repr(_exact_sum(x, "sum")) == repr(exact)
        try:
            expected = math.fsum(x.tolist())
        except OverflowError:  # a partial sum overflows; the exact sum fits
            return
        assert repr(_exact_sum(x, "sum")) == repr(expected)

    @pytest.mark.parametrize("size", [4, _FSUM_MAX_SIZE + 4])
    def test_cancellation_to_zero(self, size):
        x = np.tile([1e308, -1e308, 5e-324, -5e-324, -0.0, 1.5, -1.5, 0.0], size // 4)[:size]
        for values in (x, -x, np.full(size, -0.0)):
            assert repr(_exact_sum(values, "sum")) == repr(math.fsum(values.tolist())) == "0.0"

    @pytest.mark.parametrize("size", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 4 * _CHUNK + 7])
    def test_chunk_boundaries_match_fsum(self, size):
        rng = np.random.default_rng(size)
        x = SCALES["spread"](rng, size) * rng.choice([-1.0, 1.0], size)
        x[::3] = SCALES["subnormal"](rng, x[::3].size)
        assert repr(_exact_sum(x, "sum")) == repr(math.fsum(x.tolist()))

    def test_sums_past_the_flush_bound(self):
        # Between flushes at most _FLUSH_CHUNKS * _CHUNK addends reach a
        # bin, each adding below 2**27 units to either of its totals.
        assert _FLUSH_CHUNKS * _CHUNK * 2**27 <= 2**53
        # The largest mantissa, broadcast so that no addend takes memory,
        # into a second block of chunks that ends inside a chunk.
        count = _FLUSH_CHUNKS * _CHUNK + 3 * _CHUNK + 5
        x = np.broadcast_to(np.float64(1.0 - 2.0**-53), (count,))
        assert _binned_sum(x) == count * (2**53 - 1) << 1074

    @pytest.mark.parametrize("size", [3, _FSUM_MAX_SIZE + 3, 2 * _CHUNK + 3])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_addend_raises(self, size, bad):
        x = np.ones(size)
        x[size // 2] = bad
        with pytest.raises(NumericError, match="^total: "):
            _exact_sum(x, "total")

    @pytest.mark.parametrize("size", [2, _FSUM_MAX_SIZE + 2])
    def test_overflowing_sum_raises(self, size):
        with pytest.raises(NumericError):
            _exact_sum(np.full(size, 1.5e308), "sum")
