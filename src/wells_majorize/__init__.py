"""Exact-arithmetic verification of majorization machinery, centered
spin-sum positivity, the Wells moment criterion, and finite-volume Ising
domination."""

from .majorize import (
    KaramataResult,
    NonNegVector,
    OddConvexFunction,
    SingleCrossing,
    karamata_verify,
    majorizes,
    partial_sums,
    single_crossing_majorizes,
)
from .oracle import (
    CouplingSet,
    Lattice,
    ProbeConfig,
    bernoulli_float_atoms,
    domination_check,
    gibbs_expectation,
    random_probe,
)
from .report import VerificationReport
from .spin_sums import (
    HALF_ODD,
    INTEGER,
    ConstructionPair,
    PsiGrid,
    SpinValue,
    build_half_odd_pair,
    build_integer_triple,
    leading_block_bound_spin,
    leading_block_check,
    midpoint_bound_spin,
    odd_midpoint_check,
    spin_sum,
    verify_conjecture,
    verify_half_odd_theorem,
    verify_integer_theorem,
)
from .wells import (
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
    tc_bounds,
    wells_term,
)

__all__ = [
    # majorize
    "KaramataResult", "NonNegVector", "OddConvexFunction", "SingleCrossing",
    "karamata_verify", "majorizes", "partial_sums", "single_crossing_majorizes",
    # oracle
    "CouplingSet", "Lattice", "ProbeConfig", "bernoulli_float_atoms",
    "domination_check", "gibbs_expectation", "random_probe",
    # report
    "VerificationReport",
    # spin_sums
    "HALF_ODD", "INTEGER", "ConstructionPair", "PsiGrid", "SpinValue",
    "build_half_odd_pair", "build_integer_triple",
    "leading_block_bound_spin", "leading_block_check", "midpoint_bound_spin",
    "odd_midpoint_check", "spin_sum", "verify_conjecture",
    "verify_half_odd_theorem", "verify_integer_theorem",
    # wells
    "DiscreteMeasure", "TMinusResult", "bernoulli_measure", "canonical_gap",
    "mu_lambda_measure", "passes_up_to", "sphere_canonical_check",
    "sphere_centered_term", "sphere_moment", "spin_measure", "spin_second_moment",
    "t_minus_squared_mu_lambda", "t_minus_upper", "tc_bounds", "wells_term",
]
