"""Brute-force Gibbs expectations on tiny volumes and the empirical
domination probe.

Unlike the exact modules, expectations here use double precision: the
Boltzmann weight is transcendental, so the exactness lives in the
complete configuration enumeration, with exact, correctly rounded
summation and an explicit tolerance on every comparison. The inverse
temperature is absorbed into the couplings.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    NumericError,
    PreconditionError,
    ResourceLimitError,
    ValidationError,
)
from .report import FAIL, INCONCLUSIVE, PASS, VerificationReport
from .wells import DiscreteMeasure

DEFAULT_TOL = 1e-9
# Largest number of configurations one expectation enumerates.
CONFIG_CAP = 10**6
# Probe couplings stay in [0, COUPLING_MAX] over subsets of at most
# MAX_SUBSET_SIZE sites, so the exponentials remain well conditioned
# while multi-body terms beyond pairs are exercised.
COUPLING_MAX = 2.0
MAX_SUBSET_SIZE = 3

# Support given either exactly or as floats (needed when the two-point
# comparison magnitude is an irrational root).
FloatAtoms = Sequence[tuple[float, float]]
MeasureLike = Union[DiscreteMeasure, FloatAtoms]


def float_atoms(measure: MeasureLike) -> list[tuple[float, float]]:
    """Coerce a measure to (value, weight) floats, validating weights."""
    atoms = measure.atoms if isinstance(measure, DiscreteMeasure) else measure
    try:
        pairs = [(float(v), float(w)) for v, w in atoms]
    except OverflowError:
        raise ValidationError("atom outside the float range") from None
    if not pairs:
        raise ValidationError("empty support")
    if not all(math.isfinite(v) and math.isfinite(w) for v, w in pairs):
        raise ValidationError("atom outside the float range")
    if any(w <= 0 for _, w in pairs):
        raise ValidationError("weights must be positive")
    return pairs


def bernoulli_float_atoms(T: float) -> list[tuple[float, float]]:
    """Two-point support at +-T with weight 1/2 each, T possibly irrational."""
    if T <= 0:
        raise ValidationError("T must be > 0")
    return [(T, 0.5), (-T, 0.5)]


@dataclass(frozen=True)
class Lattice:
    """Ordered finite set of sites."""

    sites: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.sites)) != len(self.sites):
            raise ValidationError("duplicate site identifiers")

    @classmethod
    def of_size(cls, n: int) -> "Lattice":
        return cls(tuple(range(n)))


@dataclass(frozen=True)
class CouplingSet:
    """Ferromagnetic couplings: non-negative weights on site subsets."""

    terms: tuple[tuple[frozenset[int], float], ...]

    def __post_init__(self) -> None:
        seen = set()
        for subset, strength in self.terms:
            if not subset:
                raise ValidationError("empty coupling subset")
            if subset in seen:
                raise ValidationError(f"duplicate coupling subset {sorted(subset)}")
            seen.add(subset)
            if strength < 0:
                raise ValidationError(f"negative coupling on {sorted(subset)}")

    @classmethod
    def from_dict(cls, terms: dict[frozenset[int], float] | dict[tuple[int, ...], float]) -> "CouplingSet":
        return cls(tuple((frozenset(k), float(v)) for k, v in terms.items()))


# Up to this many addends math.fsum over a list is cheaper than binning.
_FSUM_MAX_SIZE = 2048
# Chunks of at most 2**21 addends, each part of a fraction below 2**32,
# keep every partial sum of a bin below 2**53, so the float64 bin totals
# are exact integers.
_BIN_CHUNK = 1 << 21


def _exact_sum(x: np.ndarray, what: str) -> float:
    """Correctly rounded sum of a float64 array, equal to math.fsum's.

    Large arrays are summed exactly without a Python loop over elements:
    each addend is +-(2**52 + fraction) * 2**(e - 1075) (normal) or
    +-fraction * 2**-1074 (subnormal), so binning the fraction's low 32
    and high 20 bits and the count of normals by sign and biased
    exponent e gives the sum as one integer times 2**-1074. CPython
    rounds integer true division correctly, as math.fsum rounds its
    exact sum. A non-finite addend or a sum beyond the float range
    raises NumericError; a sum that fits is returned even where
    math.fsum overflows in between.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    total = math.nan
    if x.size <= _FSUM_MAX_SIZE:
        # math.fsum raises OverflowError also when only a partial sum
        # leaves the float range; the binned sum has no such partials.
        with contextlib.suppress(OverflowError, ValueError):
            total = math.fsum(x.tolist())
    if not math.isfinite(total):
        try:
            total = _binned_sum(x.view(np.uint64)) / (1 << 1074)
        except (OverflowError, ValueError):
            raise NumericError(f"{what}: non-finite addend or overflowing sum") from None
    return total


def _binned_sum(bits: np.ndarray) -> int:
    """The sum of the float64 values with these bit patterns, times 2**1074.

    Raises ValueError on an infinity or NaN.
    """
    total = 0
    for start in range(0, bits.size, _BIN_CHUNK):
        chunk = bits[start:start + _BIN_CHUNK]
        key = (chunk >> np.uint64(52)).astype(np.intp)  # sign and exponent
        low = (chunk & np.uint64(0xFFFFFFFF)).astype(np.float64)
        high = ((chunk >> np.uint64(32)) & np.uint64(0xFFFFF)).astype(np.float64)
        low_sums = np.bincount(key, weights=low, minlength=4096)
        high_sums = np.bincount(key, weights=high, minlength=4096)
        counts = np.bincount(key, minlength=4096)
        for k in np.flatnonzero(counts).tolist():
            exponent = k & 0x7FF
            if exponent == 0x7FF:
                raise ValueError("non-finite addend")
            mantissas = (int(high_sums[k]) << 32) + int(low_sums[k])
            if exponent:
                mantissas += int(counts[k]) << 52
            mantissas <<= max(exponent, 1) - 1
            total += -mantissas if k >> 11 else mantissas
    return total


def gibbs_expectation(
    lattice: Lattice,
    couplings: CouplingSet,
    measure: MeasureLike,
    B: Iterable[int],
) -> float:
    """<sigma^B> by complete enumeration of the product measure.

    The k**n configurations are the cells of a (k,) * n tensor with one
    axis per site in lattice order. The prior, each coupling term and the
    observable are broadcast products of per-site vectors, multiplied in
    a fixed order (lattice order, the coupling subset's iteration order,
    B order), and both sums are exact and correctly rounded, so results
    are reproducible to the last bit for a given input. Raises
    NumericError when an expectation or the partition function is not a
    finite positive float.
    """
    B = tuple(B)
    site_set = set(lattice.sites)
    for subset, _ in couplings.terms:
        if not subset <= site_set:
            raise ValidationError(f"coupling subset {sorted(subset)} outside the lattice")
    if not set(B) <= site_set:
        raise ValidationError("observable subset outside the lattice")
    atoms = float_atoms(measure)
    k, n = len(atoms), len(lattice.sites)
    if k**n > CONFIG_CAP:
        raise ResourceLimitError(f"{k}**{n} configurations exceed cap {CONFIG_CAP}")
    if not B:
        return 1.0

    values = np.array([v for v, _ in atoms])
    weights = np.array([w for _, w in atoms])
    axis_shapes = [(1,) * i + (k,) + (1,) * (n - 1 - i) for i in range(n)]
    spin = {site: values.reshape(shape) for site, shape in zip(lattice.sites, axis_shapes)}

    # Overflow shows up as inf or NaN in the sums, which raise NumericError.
    with np.errstate(over="ignore", invalid="ignore"):
        energy = np.zeros((k,) * n)
        for subset, strength in couplings.terms:
            energy -= strength * math.prod(spin[site] for site in subset)
        # Shifting by the ground-state energy cancels in the ratio and
        # keeps every Boltzmann factor in (0, 1], so strong couplings
        # cannot overflow exp and the partition function stays finite.
        boltz = np.exp(np.subtract(energy.min(), energy, out=energy), out=energy)
        boltz *= math.prod(weights.reshape(shape) for shape in axis_shapes)
        Z = _exact_sum(boltz, "partition function degenerate")
        if Z <= 0.0:
            raise NumericError(f"partition function degenerate: {Z}")
        boltz *= math.prod(spin[site] for site in B)
        value = _exact_sum(boltz, "expectation not finite") / Z
    if not math.isfinite(value):
        raise NumericError(f"expectation not finite: {value}")
    return value


@dataclass(frozen=True)
class DominationResult:
    holds: bool
    lhs: float
    rhs: float


def domination_check(
    lattice: Lattice,
    couplings: CouplingSet,
    mu: MeasureLike,
    nu: MeasureLike,
    B: Iterable[int],
    tol: float = DEFAULT_TOL,
) -> DominationResult:
    """Check <sigma^B>_mu <= <sigma^B>_nu up to an absolute tolerance."""
    B = tuple(B)
    lhs = gibbs_expectation(lattice, couplings, mu, B)
    rhs = gibbs_expectation(lattice, couplings, nu, B)
    return DominationResult(holds=lhs <= rhs + tol, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class ProbeConfig:
    """Knobs of the randomized domination probe."""

    seed: int
    trials: int
    site_cap: int
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        if self.trials < 0 or self.site_cap < 1:
            raise PreconditionError("trials must be >= 0 and site_cap >= 1")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise PreconditionError(f"tol must be finite and >= 0, got {self.tol}")


@dataclass(frozen=True)
class ProbeInstance:
    lattice: Lattice
    couplings: CouplingSet
    B: tuple[int, ...]

    def describe(self) -> dict:
        return {
            "sites": list(self.lattice.sites),
            "couplings": [[sorted(s), j] for s, j in self.couplings.terms],
            "B": list(self.B),
        }


def _draw_instance(rng: random.Random, config: ProbeConfig) -> ProbeInstance:
    n = rng.randint(1, config.site_cap)
    sites = tuple(range(n))
    terms: dict[frozenset[int], float] = {}
    for _ in range(rng.randint(1, 2 * n)):
        size = rng.randint(1, min(MAX_SUBSET_SIZE, n))
        subset = frozenset(rng.sample(sites, size))
        terms[subset] = terms.get(subset, 0.0) + rng.uniform(0.0, COUPLING_MAX)
    B = tuple(sorted(rng.sample(sites, rng.randint(1, n))))
    return ProbeInstance(Lattice(sites), CouplingSet.from_dict(terms), B)


def _checked_instances(config: ProbeConfig, mu: MeasureLike, nu: MeasureLike):
    """Draw config.trials random instances from the seed, one after the
    other, and yield (trial, instance, domination result) for each."""
    rng = random.Random(config.seed)
    for trial in range(config.trials):
        inst = _draw_instance(rng, config)
        res = domination_check(inst.lattice, inst.couplings, mu, nu, inst.B, tol=config.tol)
        yield trial, inst, res


def _witness(trial: int, inst: ProbeInstance, res: DominationResult) -> dict:
    return {"trial": trial, "lhs": res.lhs, "rhs": res.rhs, **inst.describe()}


def random_probe(
    config: ProbeConfig, mu: MeasureLike, nu: MeasureLike
) -> VerificationReport:
    """Sample random ferromagnetic instances and check domination on each.

    Deterministic for a given seed: trials run sequentially in draw order.
    Violations are reported with the full serialized instance as witness;
    with zero violations and zero trials the result is an empty pass.
    """
    witnesses = []
    passes = 0
    for trial, inst, res in _checked_instances(config, mu, nu):
        if res.holds:
            passes += 1
        else:
            witnesses.append(_witness(trial, inst, res))
    return VerificationReport(
        command="probe",
        status=PASS if not witnesses else FAIL,
        parameters={
            "seed": config.seed,
            "trials": config.trials,
            "site_cap": config.site_cap,
            "tol": config.tol,
        },
        details={"passes": passes},
        witnesses=witnesses,
    )


def violation_search(
    config: ProbeConfig, mu: MeasureLike, nu: MeasureLike
) -> VerificationReport:
    """Search for a domination violation; finding one is the pass.

    Used when the theory predicts some instance must violate the
    inequality. Absence of a witness after the bounded search is reported
    inconclusive, not failed.
    """
    parameters = {"seed": config.seed, "trials": config.trials}
    for trial, inst, res in _checked_instances(config, mu, nu):
        if not res.holds:
            return VerificationReport(
                command="violation-search",
                status=PASS,
                parameters=parameters,
                details={"found_at_trial": trial},
                witnesses=[_witness(trial, inst, res)],
            )
    return VerificationReport(
        command="violation-search",
        status=INCONCLUSIVE,
        parameters=parameters,
        details={"found_at_trial": None},
    )
