import math

import pytest

from wells_majorize.errors import (
    PreconditionError,
    ResourceLimitError,
    ValidationError,
)
from wells_majorize.oracle import (
    CouplingSet,
    Lattice,
    ProbeConfig,
    bernoulli_float_atoms,
    domination_check,
    float_atoms,
    gibbs_expectation,
    hamiltonian,
    random_probe,
    violation_search,
)
from wells_majorize.report import FAIL, INCONCLUSIVE, PASS
from wells_majorize.spin_sums import SpinValue
from wells_majorize.wells import bernoulli_measure, spin_measure

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


class TestHamiltonian:
    def test_no_couplings_gives_zero(self):
        lattice = Lattice.of_size(3)
        assert hamiltonian(lattice, CouplingSet(()), {0: 1, 1: -1, 2: 1}) == 0.0

    def test_two_site_pair(self):
        lattice = Lattice.of_size(2)
        assert hamiltonian(lattice, pair_coupling(1.5), {0: 1.0, 1: 1.0}) == -1.5
        assert hamiltonian(lattice, pair_coupling(1.5), {0: 1.0, 1: -1.0}) == 1.5

    def test_three_body_term(self):
        lattice = Lattice.of_size(3)
        J = CouplingSet.from_dict({frozenset({0, 1, 2}): 2.0})
        assert hamiltonian(lattice, J, {0: -1.0, 1: -1.0, 2: -1.0}) == 2.0

    def test_rejects_subset_outside_lattice(self):
        with pytest.raises(ValidationError):
            hamiltonian(
                Lattice.of_size(1),
                CouplingSet.from_dict({frozenset({0, 5}): 1.0}),
                {0: 1.0},
            )

    def test_rejects_unassigned_site(self):
        with pytest.raises(ValidationError):
            hamiltonian(Lattice.of_size(2), pair_coupling(1.0), {0: 1.0})


class TestGibbsExpectation:
    def test_empty_observable_is_one(self):
        lattice = Lattice.of_size(3)
        assert gibbs_expectation(lattice, pair_coupling(1.0), PM_ONE, ()) == 1.0

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
        lattice = Lattice.of_size(4)
        with pytest.raises(ResourceLimitError):
            gibbs_expectation(lattice, CouplingSet(()), PM_ONE, (0,), config_cap=8)

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
        a = random_probe(config, mu, nu).to_dict(include_timing=False)
        b = random_probe(config, mu, nu).to_dict(include_timing=False)
        assert a == b

    def test_zero_trials_is_empty_pass(self):
        config = ProbeConfig(seed=1, trials=0, site_cap=2)
        report = random_probe(config, PM_ONE, PM_ONE)
        assert report.status == PASS and report.details["passes"] == 0

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
