import math
import random
import re
import time
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
    _BATCH_MAX_SIZE,
    DEFAULT_TOL,
    CouplingSet,
    Lattice,
    ProbeConfig,
    bernoulli_float_atoms,
    domination_check,
    float_atoms,
    gibbs_expectation,
    random_probe,
    _exact_sum,
)
from wells_majorize.report import FAIL, PASS, VerificationReport
from wells_majorize.spin_sums import SpinValue
from wells_majorize.wells import (
    bernoulli_measure,
    mu_lambda_measure,
    spin_measure,
    spin_second_moment,
)

PM_ONE = bernoulli_float_atoms(1.0)
# Three atoms whose products depend on the order of their factors.
SKEW = [(0.49, 0.25), (-1.83, 0.25), (-1.57, 0.5)]


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12])
    def test_rejects_bad_tolerance(self, monkeypatch, tol):
        # Refused before any expectation, as ProbeConfig refuses it.
        monkeypatch.setattr(oracle, "gibbs_expectation", lambda *a: pytest.fail("evaluated"))
        with pytest.raises(PreconditionError, match="tol must be finite and >= 0"):
            domination_check(Lattice.of_size(2), pair_coupling(1.0), PM_ONE, PM_ONE, (0, 1), tol=tol)


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
        built, batched, summed = [], [], []
        prepared, batch_sums, gibbs_sums = oracle._PreparedMeasure, oracle._batch_sums, oracle._gibbs_sums

        class SpyMeasure(prepared):
            def __init__(self, measure):
                super().__init__(measure)
                built.append(self)

        def spy_batch(measure, *args):
            batched.append(measure)
            return batch_sums(measure, *args)

        def spy_sums(lattice, couplings, measure, *args):
            summed.append(measure)
            return gibbs_sums(lattice, couplings, measure, *args)

        monkeypatch.setattr(oracle, "_PreparedMeasure", SpyMeasure)
        monkeypatch.setattr(oracle, "_batch_sums", spy_batch)
        monkeypatch.setattr(oracle, "_gibbs_sums", spy_sums)
        monkeypatch.setattr(oracle, "domination_check", lambda *a, **k: pytest.fail("checked a trial"))
        mu, nu = mu_lambda_measure(Fraction(1, 4)), spin_measure(SpinValue.parse(1))
        # Seed 82 draws two trials on 7 sites, whose 3**7 cells are past
        # the batched size, among ten small ones, and every trial's
        # observed sites are coupled. Every trial passes, and the large
        # ones are each summed alone and proven, so no trial reaches
        # domination_check.
        random_probe(ProbeConfig(seed=82, trials=12, site_cap=7), mu, nu)
        # One prepared measure each, shared by the batches of small
        # trials and the float sums of the large ones.
        assert len(built) == 2 and batched and len(summed) == 4
        assert {id(m) for m in batched} == {id(m) for m in summed} == {id(m) for m in built}
        assert [built[0].atoms, built[1].atoms] == [float_atoms(mu), float_atoms(nu)]
        # Seed 10 draws trials on 5, 3 and 7 sites whose observables each
        # have a site no coupling touches: the exact zero rule proves
        # them with no float sum, batched or alone, and no exact sum.
        del batched[:], summed[:]
        random_probe(ProbeConfig(seed=10, trials=3, site_cap=7), mu, nu)
        assert not batched and not summed

    @pytest.mark.parametrize("trials", [0, 3])
    @pytest.mark.parametrize("spin_is_mu", [True, False])
    def test_site_cap_over_the_configuration_cap_is_refused(self, monkeypatch, trials, spin_is_mu):
        # 3**13 cells exceed the cap, 2**13 do not. Seed 18 draws 3, 3
        # and 6 sites, so this probe used to pass without ever meeting
        # the cap; now the cap is checked for either measure on the
        # largest instance, before any trial.
        monkeypatch.setattr(oracle, "domination_check", lambda *a, **k: pytest.fail("ran a trial"))
        spin = spin_measure(SpinValue.parse(1))
        pair = (spin, PM_ONE) if spin_is_mu else (PM_ONE, spin)
        config = ProbeConfig(seed=18, trials=trials, site_cap=13)
        with pytest.raises(ResourceLimitError, match=r"^3\*\*13 configurations exceed cap 1000000$"):
            random_probe(config, *pair)

    def test_site_cap_at_the_configuration_cap_is_accepted(self):
        # 10 atoms on 6 sites is exactly CONFIG_CAP configurations.
        ten = [(float(v), 0.1) for v in range(-5, 5)]
        report = random_probe(ProbeConfig(seed=1, trials=0, site_cap=6), ten, PM_ONE)
        assert report.status == PASS

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
def measures(draw, families=("bernoulli-rms", "spin", "mu-lambda", "float")):
    """A measure of one of `families`: an irrational two-point, a spin
    (2-9 atoms), a three-point measure with a zero atom, 2-4 arbitrary
    float atoms, whose products depend on the order of their factors, or
    1-3 float pairs +-v of equal weight, with or without a zero atom, in
    any order."""
    family = draw(st.sampled_from(families))
    if family == "pairs":
        atoms = []
        for v in draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3, unique=True)):
            w = draw(st.floats(0.01, 1.0))
            atoms += [(v, w), (-v, w)]
        if draw(st.booleans()):
            atoms.append((0.0, draw(st.floats(0.01, 1.0))))
        return draw(st.permutations(atoms))
    if family == "float":
        values = draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4, unique=True))
        return [(v, draw(st.floats(0.01, 1.0))) for v in values]
    if family == "bernoulli-rms":
        S = SpinValue.parse(draw(st.sampled_from(SPINS)))
        return bernoulli_float_atoms(math.sqrt(float(spin_second_moment(S))))
    if family == "spin":
        return spin_measure(SpinValue.parse(draw(st.sampled_from(SPINS))))
    return mu_lambda_measure(Fraction(draw(st.integers(1, 19)), 20))


@st.composite
def gibbs_instances(draw, max_configs=20_000):
    """An instance with 1-7 sites in shuffled lattice order, 1-3-body
    couplings in [0, 2], an observable of any size (repeats allowed) and
    a measure drawn by measures()."""
    measure = draw(measures())
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
        SKEW,
        [7, 1],
    ))
    def test_matches_grid_enumeration_to_the_bit(self, instance):
        value = gibbs_expectation(*instance)
        assert repr(value) == repr(grid_expectation(*instance))

    @pytest.mark.parametrize(
        "measure, n",
        [
            (spin_measure(SpinValue.parse(4)), 6),  # 9**6, the probe's largest
            (spin_measure(SpinValue.parse(1)), 7),  # 3**7, just above the batch size
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
            SKEW,
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


@st.composite
def shared_measure_instances(draw, max_configs=5_000):
    """One measure and a shuffled list of instances under it: 1-3
    coupling-and-observable patterns, each on 1-5 sites, each laid on
    1-3 lattices whose labels are drawn from 0-11 in any order, so site
    counts interleave and the same subsets recur under other labels."""
    measure = draw(measures())
    k = len(float_atoms(measure))
    n_max = max(n for n in range(1, 6) if k**n <= max_configs)
    instances = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, n_max))
        subsets = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=min(3, n))
        terms = draw(st.dictionaries(subsets, st.floats(0.0, 2.0), max_size=2 * n))
        B = draw(st.lists(st.integers(0, n - 1), max_size=n + 1))
        for _ in range(draw(st.integers(1, 3))):
            sites = draw(st.lists(st.integers(0, 11), min_size=n, max_size=n, unique=True))
            couplings = {frozenset(sites[i] for i in subset): J for subset, J in terms.items()}
            instances.append(example_instance(tuple(sites), couplings, measure, [sites[i] for i in B]))
    return measure, draw(st.permutations(instances))


class TestPreparedMeasure:
    """One prepared measure, reused by many expectations, gives bit for
    bit what a fresh one per expectation gives."""

    @given(shared_measure_instances())
    @settings(max_examples=150, deadline=None)
    # The three-site subset iterates its axes in another order on
    # (7, 3, 11) than on (0, 1, 2), and these atoms' products depend on
    # that order, so a monomial keyed by its set of axes alone fails here.
    @example((SKEW, [
        example_instance((0, 1, 2), {(0, 1, 2): 0.9, (1,): 0.4}, SKEW, [0, 1]),
        example_instance((4,), {(4,): 1.5}, SKEW, [4]),
        example_instance((7, 3, 11), {(7, 3, 11): 0.9, (3,): 0.4}, SKEW, [7, 3]),
        example_instance((11, 3, 7), {(11, 3, 7): 0.9}, SKEW, [3, 3, 7]),
    ]))
    def test_reuse_matches_a_fresh_measure_to_the_bit(self, case):
        measure, instances = case
        prepared = oracle._PreparedMeasure(measure)
        assert prepared.atoms == float_atoms(measure)
        for lattice, couplings, _, B in instances:
            shared = gibbs_expectation(lattice, couplings, prepared, B)
            assert repr(shared) == repr(gibbs_expectation(lattice, couplings, measure, B))

    @pytest.mark.parametrize(
        "measure",
        [spin_measure(SpinValue.parse(4)), PM_ONE, bernoulli_float_atoms(math.sqrt(5 / 12)),
         mu_lambda_measure(Fraction(2, 3)), SKEW],
        ids=["spin", "bernoulli", "bernoulli-rms", "mu-lambda-equal", "skew"],
    )
    def test_prior_has_the_bits_of_the_weight_tensor(self, measure):
        prepared = oracle._PreparedMeasure(measure)
        weights = np.array([w for _, w in prepared.atoms])
        for n in range(1, 6):
            k = len(weights)
            tensor = math.prod(weights.reshape((1,) * i + (k,) + (1,) * (n - 1 - i)) for i in range(n))
            prior = prepared.tables(n)[1]
            assert prior.shape == tensor.shape and not prior.flags.writeable
            assert prior.tobytes() == tensor.tobytes()
            # Equal weights store one product, broadcast to every cell.
            assert (max(prior.strides) == 0) == (len(set(weights)) == 1)


@st.composite
def probe_instances(draw, max_configs=20_000):
    """Two measures, each from measures() or with 2-5 equally weighted
    atoms up to 1e3 in magnitude, and an instance drawn as random_probe
    draws one: 1 to 2n terms on 1-3 sites with strengths in [0, 2], added
    up where a subset repeats, and a sorted observable of 1-n sites. The
    site count, half the time the largest one, reaches both sides of
    _BATCH_MAX_SIZE cells."""
    wide = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=5, unique=True).map(
        lambda values: [(v, 1 / len(values)) for v in values]
    )
    mu, nu = draw(measures() | wide), draw(measures() | wide)
    k = max(len(float_atoms(mu)), len(float_atoms(nu)))
    n_max = max(n for n in range(1, 8) if k**n <= max_configs)
    n = draw(st.just(n_max) | st.integers(1, n_max))
    sites = tuple(range(n))
    terms: dict[frozenset[int], float] = {}
    for _ in range(draw(st.integers(1, 2 * n))):
        subset = frozenset(draw(st.lists(st.sampled_from(sites), min_size=1, max_size=min(3, n), unique=True)))
        terms[subset] = terms.get(subset, 0.0) + draw(st.floats(0.0, 2.0))
    B = sorted(draw(st.lists(st.sampled_from(sites), min_size=1, max_size=n, unique=True)))
    return Lattice(sites), CouplingSet.from_dict(terms), mu, nu, B


def float_estimates(trial, measure):
    """(q, E) from _estimate on both float-sum routes of _proven_trials
    for one trial: the row sums of _batch_sums and the sums of one
    _gibbs_sums."""
    n, terms, B = trial
    prepared = oracle._PreparedMeasure(measure)
    Z, N = oracle._gibbs_sums(Lattice.of_size(n), CouplingSet.from_dict(terms), prepared, tuple(B), oracle._float_sum)
    estimates = []
    for Z, N in [oracle._batch_sums(prepared, n, [trial], oracle._row_sums), ([Z], [N])]:
        q, E = oracle._estimate(np.array(Z), np.array(N), prepared.observable_bound(len(B)), len(prepared.atoms) ** n)
        estimates.append((q.item(), E.item()))
    return estimates


def proven(trials, mu, nu, tol):
    """_proven_trials on one window, with the exact zero rule decided as
    random_probe decides it for a site cap of the window's largest trial."""
    mu, nu = oracle._PreparedMeasure(mu), oracle._PreparedMeasure(nu)
    cap = max(n for n, _, _ in trials)
    return oracle._proven_trials(trials, mu, nu, tol, mu.free_sites_vanish(cap) and nu.free_sites_vanish(cap))


# Trial 64 of `probe --pair bernoulli:1,mu-lambda:1/4 --trials 200
# --site-cap 6 --seed 1736812843`: one site in a weak field, whose +-J
# Boltzmann weights nearly cancel in the numerator.
WEAK_FIELD = (
    Lattice((0,)),
    CouplingSet.from_dict({frozenset({0}): 9.249907995556583e-06}),
    bernoulli_measure(1),
    mu_lambda_measure(Fraction(1, 4)),
    [0],
)
# Trial 9 of `probe --pair spin:4,bernoulli:1/2 --trials 12 --site-cap 5
# --seed 7`: 9**5 cells, so its float sums are taken one trial at a time.
NINE_FIVE = (
    {frozenset(s): j for s, j in {
        (0, 2, 4): 1.3809873142719558, (0, 1, 4): 1.7990660201159043,
        (1, 3, 4): 0.797957664640546, (3,): 1.593185506915613, (1,): 0.1346952316860497,
    }.items()},
    [0, 3, 4],
)


class TestProvenVerdicts:
    """A pass _proven_trials proves from float sums is the verdict the
    exact sums give, and domination_check gives the exact sums' values."""

    @given(instance=probe_instances(), tol=st.sampled_from([0.0, 1e-12, DEFAULT_TOL]))
    @settings(max_examples=200, deadline=None)
    @example(instance=WEAK_FIELD, tol=DEFAULT_TOL)
    def test_verdict_and_bound_match_the_exact_sums(self, instance, tol):
        lattice, couplings, mu, nu, B = instance
        trial = (len(lattice.sites), dict(couplings.terms), B)
        exact = [gibbs_expectation(lattice, couplings, m, B) for m in (mu, nu)]
        for measure, value in zip((mu, nu), exact):
            for q, bound in float_estimates(trial, measure):
                if bound < math.inf:
                    assert abs(q - value) <= bound
        res = domination_check(lattice, couplings, mu, nu, B, tol=tol)
        assert [res.holds, repr(res.lhs), repr(res.rhs)] == [exact[0] <= exact[1] + tol, *map(repr, exact)]
        if proven([trial], mu, nu, tol):
            assert res.holds

    @pytest.mark.parametrize(
        "nu, tol, holds",
        [
            (bernoulli_measure(Fraction(1, 2)), DEFAULT_TOL, False),  # fails
            (spin_measure(SpinValue.parse(4)), 0.0, True),  # an exact tie
            (spin_measure(SpinValue.parse(4)), 1e-12, True),  # a margin below the bound
        ],
    )
    def test_failing_and_undecided_verdicts_are_exact(self, nu, tol, holds):
        (terms, B), mu = NINE_FIVE, spin_measure(SpinValue.parse(4))
        assert proven([(5, terms, B)], mu, nu, tol) == set()
        lattice, couplings = Lattice.of_size(5), CouplingSet.from_dict(terms)
        res = domination_check(lattice, couplings, mu, nu, B, tol=tol)
        assert res.holds == holds
        assert repr(res.lhs) == repr(gibbs_expectation(lattice, couplings, mu, B))
        assert repr(res.rhs) == repr(gibbs_expectation(lattice, couplings, nu, B))

    def test_clear_pass_is_proven(self):
        # 9**5 cells, summed alone, and two sites in a window with it,
        # summed in a batch.
        terms = {frozenset({0, 1}): 0.7, frozenset({1, 2, 3}): 1.2}
        mu, nu = bernoulli_measure(Fraction(1, 2)), spin_measure(SpinValue.parse(4))
        assert proven([(5, terms, [0, 1]), (2, {frozenset({0, 1}): 0.7}, [0, 1])], mu, nu, DEFAULT_TOL) == {0, 1}
        exact = gibbs_expectation(Lattice.of_size(5), CouplingSet.from_dict(terms), nu, (0, 1))
        for q, bound in float_estimates((5, terms, [0, 1]), nu):
            assert 0.0 < bound < 1e-9 and abs(q - exact) <= bound

    def test_exact_ties_fall_back_and_pass(self, monkeypatch):
        # spin:2 against itself with tol 0: every trial is an exact tie,
        # which the bound cannot decide, and up to 5**6 cells per side.
        # Seed 5 draws no trial with an uncoupled observed site, so the
        # exact zero rule proves none of them.
        exact_cells, tried = [], []
        estimate = oracle._estimate

        def spy_gibbs(lattice, couplings, measure, B):
            exact_cells.append(len(measure.atoms) ** len(lattice.sites))
            return gibbs_expectation(lattice, couplings, measure, B)

        def spy_estimate(*args):
            tried.append(args)
            return estimate(*args)

        monkeypatch.setattr(oracle, "gibbs_expectation", spy_gibbs)
        monkeypatch.setattr(oracle, "_estimate", spy_estimate)
        spin = spin_measure(SpinValue.parse(2))
        report = random_probe(ProbeConfig(seed=5, trials=10, site_cap=6, tol=0.0), spin, spin)
        assert report.status == PASS and report.details["passes"] == 10
        assert len(exact_cells) == 20 and max(exact_cells) > _BATCH_MAX_SIZE
        assert tried

    @pytest.mark.parametrize(
        "terms, B",
        [
            ({frozenset({0, 1}): 1.0}, (0, 1)),  # energies overflow
            ({frozenset({0}): 1.0}, (0, 1)),  # only the observable overflows
        ],
    )
    def test_non_finite_sums_raise_as_the_exact_path_does(self, terms, B):
        # 2**12 cells, summed alone: the float sums prove nothing, and
        # domination_check raises what gibbs_expectation raises.
        huge = bernoulli_float_atoms(1e200)
        assert proven([(12, terms, list(B))], huge, PM_ONE, DEFAULT_TOL) == set()
        lattice, couplings = Lattice.of_size(12), CouplingSet.from_dict(terms)
        with pytest.raises(NumericError) as exact:
            gibbs_expectation(lattice, couplings, huge, B)
        with pytest.raises(NumericError, match=f"^{re.escape(str(exact.value))}$"):
            domination_check(lattice, couplings, huge, PM_ONE, B)


@st.composite
def batch_trials(draw):
    """A measure and 1-6 trials on the same n sites with at most
    _BATCH_MAX_SIZE cells, each with 1 to 2n terms whose subsets are
    inserted in any order and whose strengths may be 0, and a sorted
    observable: rows with fewer terms are padded, subsets recur across
    rows and some sites touch no coupling."""
    measure = draw(measures())
    k = len(float_atoms(measure))
    n = draw(st.integers(1, max(n for n in range(1, 12) if k**n <= _BATCH_MAX_SIZE)))
    subsets = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n), unique=True).map(frozenset)
    trials = []
    for _ in range(draw(st.integers(1, 6))):
        terms = draw(st.dictionaries(subsets, st.floats(0.0, 2.0), min_size=1, max_size=2 * n))
        B = sorted(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
        trials.append((n, terms, B))
    return measure, trials


def reference_draw(rng, site_cap):
    """One trial drawn with the plain random.Random methods: n sites, 1
    to 2n terms on 1-3 sites with strengths in [0, COUPLING_MAX], added
    up where a subset repeats, and a sorted observable of 1-n sites."""
    n = rng.randint(1, site_cap)
    sites = tuple(range(n))
    terms = {}
    for _ in range(rng.randint(1, 2 * n)):
        size = rng.randint(1, min(oracle.MAX_SUBSET_SIZE, n))
        subset = frozenset(rng.sample(sites, size))
        terms[subset] = terms.get(subset, 0.0) + rng.uniform(0.0, oracle.COUPLING_MAX)
    return n, terms, sorted(rng.sample(sites, rng.randint(1, n)))


def reference_probe(config, mu, nu):
    """The exact per-trial loop: trials drawn by reference_draw, and one
    domination_check, on exact sums, per trial in draw order. The
    reference for random_probe's reports, whose proofs without the exact
    sums must leave them unchanged."""
    rng = random.Random(config.seed)
    mu, nu = oracle._PreparedMeasure(mu), oracle._PreparedMeasure(nu)
    witnesses = []
    for trial in range(config.trials):
        n, terms, B = reference_draw(rng, config.site_cap)
        sites = tuple(range(n))
        couplings = CouplingSet.from_dict(terms)
        res = oracle.domination_check(Lattice(sites), couplings, mu, nu, B, tol=config.tol)
        if not res.holds:
            witnesses.append({
                "trial": trial, "lhs": res.lhs, "rhs": res.rhs, "sites": list(sites),
                "couplings": [[sorted(s), j] for s, j in couplings.terms], "B": B,
            })
    return VerificationReport(
        command="probe",
        status=PASS if not witnesses else FAIL,
        parameters={"seed": config.seed, "trials": config.trials, "site_cap": config.site_cap, "tol": config.tol},
        details={"passes": config.trials - len(witnesses)},
        witnesses=witnesses,
    )


def probe_outcome(probe, config, mu, nu):
    """probe(config, mu, nu) as a dict, or the NumericError it raised
    with the instance domination_check was given when it did."""
    check, instances = oracle.domination_check, []

    def spy(lattice, couplings, mu, nu, B, tol):
        instances.append((lattice.sites, couplings.terms, tuple(B)))
        return check(lattice, couplings, mu, nu, B, tol=tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "domination_check", spy)
        try:
            return probe(config, mu, nu).to_dict()
        except NumericError as exc:
            return str(exc), instances[-1]


# (mu, nu, largest site cap). The first cap past _BATCH_MAX_SIZE cells is
# 5 sites for 5 atoms, 7 for 3 and 12 for 2, so every pair mixes small
# and large trials. Atoms near 1e-200 put P below the bound's range;
# atoms near 1e200 overflow and raise.
RMS_VS_SPIN = (bernoulli_float_atoms(math.sqrt(0.5)), spin_measure(SpinValue.parse(2)), 6)
TIES = (spin_measure(SpinValue.parse(1)), spin_measure(SpinValue.parse(1)), 8)
FAILING = (bernoulli_measure(1), mu_lambda_measure(Fraction(1, 4)), 7)
TINY = (bernoulli_float_atoms(1e-200), PM_ONE, 12)
HUGE = (bernoulli_float_atoms(1e200), PM_ONE, 12)
# Weights of 1e-170 give a prior of 0 on two sites or more, so the float
# sums of a large trial raise, as its exact sums do at its turn.
UNDERFLOW = ([(1.0, 1e-170), (-1.0, 1e-170)], PM_ONE, 12)
PROBE_PAIRS = [RMS_VS_SPIN, TIES, FAILING, (SKEW, spin_measure(SpinValue.parse(1)), 8), TINY, HUGE, UNDERFLOW]


@st.composite
def probe_runs(draw):
    """A pair of PROBE_PAIRS in either order, a seed, 0-40 trials, a site
    cap up to the pair's largest, a tolerance, a cell budget per batch
    and a window."""
    mu, nu, cap = draw(st.sampled_from(PROBE_PAIRS))
    if draw(st.booleans()):
        mu, nu = nu, mu
    config = ProbeConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        trials=draw(st.integers(0, 40)),
        site_cap=draw(st.integers(1, cap)),
        tol=draw(st.sampled_from([0.0, 1e-12, DEFAULT_TOL])),
    )
    return config, mu, nu, draw(st.sampled_from([oracle._BATCH_CELLS, 256])), draw(st.sampled_from([oracle._WINDOW, 7]))


def probe_run(pair, tol, cells=oracle._BATCH_CELLS, window=oracle._WINDOW, trials=40, seed=1):
    mu, nu, cap = pair
    return ProbeConfig(seed=seed, trials=trials, site_cap=cap, tol=tol), mu, nu, cells, window


class TestBatchedTrials:
    """Trials proven from float sums, in batches or one at a time, leave
    every probe report as the exact per-trial loop gives it."""

    @given(batch_trials())
    @settings(max_examples=200, deadline=None)
    @example((SKEW, [
        # Sites 2 and 3 touch no coupling; {0, 1} recurs in the third
        # row; rows of 1, 3 and 2 terms, one of strength 0, are padded.
        (4, {frozenset({0, 1}): 0.9}, [0, 2]),
        (4, {frozenset({1}): 0.4, frozenset({2, 3, 0}): 1.7, frozenset({3}): 0.0}, [1, 2, 3]),
        (4, {frozenset({1, 0}): 1.1, frozenset({0}): 2.0}, [3]),
    ]))
    # frozenset({0, 2, 8}) iterates 0, 8, 2, and products of these atoms
    # depend on the order of their factors.
    @example((SKEW[:2], [(9, {frozenset({0, 2, 8}): 1.3, frozenset({5}): 0.2}, [2, 8])]))
    # Equal sets built in another order iterate (0, 1, 8) and (0, 8, 1),
    # and at this strength their different rounding reaches the
    # Boltzmann cells, so a monomial keyed by set equality fails here.
    @example((SKEW[:2], [
        (9, {frozenset([0, 1, 8]): 0.7}, [1, 8]),
        (9, {frozenset([0, 8, 1]): 0.7}, [1, 8]),
    ]))
    def test_rows_match_the_cells_to_the_bit(self, case):
        measure, trials = case
        prepared = oracle._PreparedMeasure(measure)
        batch = []

        def keep_rows(rows):
            batch.append(rows.copy())
            return rows.sum(axis=1)

        oracle._batch_sums(prepared, trials[0][0], trials, keep_rows)
        for row, (n, terms, B) in enumerate(trials):
            cells = []

            def keep_cells(weighted, what):
                cells.append(weighted.reshape(-1).copy())
                return float(weighted.sum())

            oracle._gibbs_sums(Lattice.of_size(n), CouplingSet.from_dict(terms), prepared, tuple(B), keep_cells)
            assert [sums[row].tobytes() for sums in batch] == [c.tobytes() for c in cells]

    @given(probe_runs())
    @settings(max_examples=60, deadline=None)
    # Exact ties at tol 0, which every small trial falls back on.
    @example(probe_run(TIES, 0.0))
    # A failing pair: its witnesses come from the fallback.
    @example(probe_run(FAILING, DEFAULT_TOL, trials=60))
    # Sums out of the bound's range fall back; overflow raises.
    @example(probe_run(TINY, DEFAULT_TOL))
    @example(probe_run(HUGE, DEFAULT_TOL))
    @example(probe_run((PM_ONE, HUGE[0], 3), 0.0))
    @example(probe_run(UNDERFLOW, DEFAULT_TOL))
    # Batches of 256 cells split each site count's trials.
    @example(probe_run(RMS_VS_SPIN, 1e-12, cells=256, window=7))
    # Trials whose observable has a site no coupling touches. SKEW is not
    # even: trial 2 of seed 3 is such a trial and a witness. Under TINY,
    # even and in range, 4 of seed 1's first 10 trials are, and their
    # float sums leave the bound's range. HUGE overflows and UNDERFLOW's
    # prior vanishes on 10 sites: both raise at trial 1 of seed 2, such
    # a trial, so the exact zero rule must not prove it.
    @example(probe_run((SKEW, spin_measure(SpinValue.parse(1)), 8), 0.0, trials=10, seed=3))
    @example(probe_run(TINY, 0.0, trials=10))
    @example(probe_run(HUGE, DEFAULT_TOL, trials=10, seed=2))
    @example(probe_run(UNDERFLOW, DEFAULT_TOL, trials=10, seed=2))
    def test_probe_matches_the_per_trial_loop(self, run):
        config, mu, nu, cells, window = run
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_BATCH_CELLS", cells)
            patch.setattr(oracle, "_WINDOW", window)
            assert probe_outcome(random_probe, config, mu, nu) == probe_outcome(reference_probe, config, mu, nu)


EVEN = ("bernoulli-rms", "spin", "mu-lambda", "pairs")


@st.composite
def free_site_trials(draw):
    """An even measure and a trial on n sites, with at most
    _BATCH_MAX_SIZE cells, whose sorted observable has a site no
    coupling touches: up to 2n terms on the other sites, with strengths
    in [0, 2], and the free site with any others in the observable."""
    measure = draw(measures(EVEN))
    k = len(float_atoms(measure))
    n = draw(st.integers(1, max(n for n in range(1, 12) if k**n <= _BATCH_MAX_SIZE)))
    free = draw(st.integers(0, n - 1))
    others = [site for site in range(n) if site != free]
    terms = {}
    if others:
        subsets = st.lists(st.sampled_from(others), min_size=1, max_size=min(3, len(others)), unique=True)
        terms = draw(st.dictionaries(subsets.map(frozenset), st.floats(0.0, 2.0), max_size=2 * n))
    B = sorted({free, *draw(st.lists(st.integers(0, n - 1), max_size=n))})
    return measure, (n, terms, B)


class TestExactZeroRule:
    """The exact zero rule's premise: under an even measure in range, an
    observable with a site no coupling touches has exact sums N = 0."""

    @given(free_site_trials())
    @settings(max_examples=200, deadline=None)
    # Sites 0 and 2 are free; the zero atom maps to itself.
    @example((mu_lambda_measure(Fraction(1, 4)), (3, {frozenset({1}): 1.5}, [0, 1, 2])))
    @example((bernoulli_float_atoms(math.sqrt(5 / 12)), (1, {}, [0])))
    def test_free_site_sums_vanish(self, case):
        measure, trial = case
        n, terms, B = trial
        prepared = oracle._PreparedMeasure(measure)
        assert prepared.free_sites_vanish(n)
        assert gibbs_expectation(Lattice.of_size(n), CouplingSet.from_dict(terms), prepared, B) == 0.0
        _, N = oracle._batch_sums(prepared, n, [trial], lambda rows: [math.fsum(row) for row in rows.tolist()])
        assert N == [0.0]
        assert proven([trial], measure, measure, 0.0) == {0}

    @pytest.mark.parametrize(
        "measure, site_cap, vanish",
        [
            (PM_ONE, 12, True),
            (TINY[0], 12, True),
            (mu_lambda_measure(Fraction(1, 4)), 12, True),
            (spin_measure(SpinValue.parse(4)), 6, True),
            # CONFIG_CAP * V**12 crosses _SAFE_MAX between V = 2**40 and 2**41.
            (bernoulli_float_atoms(2.0**40), 12, True),
            (bernoulli_float_atoms(2.0**41), 12, False),
            (SKEW, 1, False),  # not even
            ([(1.0, 0.5), (-1.0, 0.25)], 1, False),  # even values, uneven weights
            (HUGE[0], 1, False),  # energies out of range
            (UNDERFLOW[0], 1, False),  # a prior out of range
            ([(0.0, 1.0)], 20, True),
            ([(0.0, 1.0)], 21, False),  # past CONFIG_CAP's bit length
        ],
    )
    def test_range_check(self, measure, site_cap, vanish):
        assert oracle._PreparedMeasure(measure).free_sites_vanish(site_cap) is vanish


class TestDrawTrial:
    """_draw_trial draws what the plain random.Random methods draw, trial
    for trial, and leaves the stream where they leave it."""

    @pytest.mark.parametrize("site_cap", range(1, 31))
    def test_matches_the_stdlib_draw(self, site_cap):
        for seed in range(60):
            fast, plain = random.Random(seed), random.Random(seed)
            for _ in range(8):
                assert repr(oracle._draw_trial(fast, site_cap)) == repr(reference_draw(plain, site_cap))
            assert fast.getstate() == plain.getstate()

    @pytest.mark.parametrize("site_cap", [21, 22, 30])
    def test_probe_past_21_sites(self, site_cap):
        # One atom each keeps k**n = 1 under CONFIG_CAP at any cap. Every
        # trial is a witness, so the report carries each drawn instance.
        point, zero = [(1.0, 1.0)], [(0.0, 1.0)]
        config = ProbeConfig(seed=site_cap, trials=30, site_cap=site_cap)
        report = probe_outcome(random_probe, config, point, zero)
        assert report == probe_outcome(reference_probe, config, point, zero)
        assert report["details"]["passes"] == 0


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
    """_exact_sum equals the correctly rounded exact sum, and math.fsum
    over a list wherever fsum's partial sums stay in range, by repr."""

    @given(
        size=st.sampled_from([1, 2, 2048, 2049, 6000])
        | st.integers(0, 6000),
        seed=st.integers(0, 2**32 - 1),
        scales=st.lists(st.sampled_from(sorted(SCALES)), min_size=1, unique=True),
        cancel=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    @example(size=2049, seed=1, scales=["huge"], cancel=False)
    @example(size=2049, seed=2, scales=["subnormal", "zero"], cancel=True)
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

    @pytest.mark.parametrize("size", [4, 2052, 20004])
    def test_cancellation_to_zero(self, size):
        x = np.tile([1e308, -1e308, 5e-324, -5e-324, -0.0, 1.5, -1.5, 0.0], size // 4)[:size]
        for values in (x, -x, np.full(size, -0.0)):
            assert repr(_exact_sum(values, "sum")) == repr(math.fsum(values.tolist())) == "0.0"
        # Sorted, every -1e308 comes first, so from 2052 addends on a
        # partial sum overflows fsum and the sum is taken over Fractions.
        assert repr(_exact_sum(np.sort(x), "sum")) == "0.0"

    def test_sums_at_the_configuration_cap(self):
        # An expectation sums at most CONFIG_CAP addends, here each the
        # largest float below 1.
        x = np.broadcast_to(np.float64(1.0 - 2.0**-53), (oracle.CONFIG_CAP,))
        exact = oracle.CONFIG_CAP * Fraction(2**53 - 1, 2**53)
        assert repr(_exact_sum(x, "sum")) == repr(float(exact))

    @pytest.mark.parametrize("size", [3, 2051, 65539, 10**6])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_addend_raises(self, size, bad):
        # The bad addend comes last, and the check raises before any sum
        # over Fractions, which would take about 2 s on 10^6 addends.
        x = np.ones(size)
        x[-1] = bad
        start = time.perf_counter()
        with pytest.raises(NumericError, match="^total: "):
            _exact_sum(x, "total")
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("size", [2, 2050])
    def test_overflowing_sum_raises(self, size):
        with pytest.raises(NumericError):
            _exact_sum(np.full(size, 1.5e308), "sum")
