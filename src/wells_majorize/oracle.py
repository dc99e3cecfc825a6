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
# Addends per chunk of the binned sum, so that its work buffers stay in
# the L2 cache.
_CHUNK = 1 << 15
# Each addend adds below 2**26 to its bin's integer part and below 2**27
# units of 2**-27 to its fraction part, so the float64 bin totals of at
# most 2**26 addends stay below 2**53 units and are exact. They are
# flushed to a Python int after this many chunks.
_FLUSH_CHUNKS = (1 << 26) // _CHUNK
# frexp exponents of the finite nonzero doubles.
_MIN_EXPONENT, _MAX_EXPONENT = -1073, 1024


def _exact_sum(x: np.ndarray, what: str) -> float:
    """Correctly rounded sum of a float64 array, equal to math.fsum's.

    Large arrays are summed exactly by _binned_sum, which returns the sum
    as one integer times 2**-1127 without a Python loop over elements.
    CPython rounds integer true division correctly, as math.fsum rounds
    its exact sum. A non-finite addend or a sum beyond the float range
    raises NumericError; a sum that fits is returned even where math.fsum
    overflows in between.
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
            total = _binned_sum(x) / (1 << 1127)
        except (OverflowError, ValueError):
            raise NumericError(f"{what}: non-finite addend or overflowing sum") from None
    return total


def _binned_sum(x: np.ndarray) -> int:
    """The sum of a one-dimensional float64 array times 2**1127, exactly.

    frexp writes each addend as m * 2**e with 1/2 <= |m| < 1, and
    m * 2**26 is split into high = trunc(m * 2**26), an integer below
    2**26 in magnitude, and low = m * 2**26 - high, a multiple of 2**-27
    in (-1, 1). Both parts keep the addend's sign, so two bincounts per
    chunk of _CHUNK addends, keyed by e alone, give the sum of every
    (high + low) * 2**(e - 26). Raises ValueError on an infinity or NaN.
    """
    bins = _MAX_EXPONENT - _MIN_EXPONENT + 1
    mantissa, high = np.empty(_CHUNK), np.empty(_CHUNK)
    exponent, key = np.empty(_CHUNK, dtype=np.intc), np.empty(_CHUNK, dtype=np.intp)
    total = 0
    # An infinity or NaN leaves a NaN bin total, which raises below.
    with np.errstate(invalid="ignore"):
        for block in range(0, x.size, _CHUNK * _FLUSH_CHUNKS):
            high_sums, low_sums = np.zeros(bins), np.zeros(bins)
            for start in range(block, min(block + _CHUNK * _FLUSH_CHUNKS, x.size), _CHUNK):
                chunk = x[start:start + _CHUNK]
                m, e, h, k = (buf[:chunk.size] for buf in (mantissa, exponent, high, key))
                np.frexp(chunk, out=(m, e))
                m *= 2.0**26
                np.trunc(m, out=h)
                m -= h
                np.subtract(e, _MIN_EXPONENT, out=k)
                high_sums += np.bincount(k, weights=h, minlength=bins)
                low_sums += np.bincount(k, weights=m, minlength=bins)
            sums = high_sums + low_sums  # zero exactly where a bin adds nothing
            if not np.isfinite(sums).all():
                raise ValueError("non-finite addend")
            low_sums *= 2.0**27
            # Bin i holds e = i + _MIN_EXPONENT, and 2**1127 times
            # (high + low) * 2**(e - 26) is (high + low) * 2**27 << (i + 1).
            for i in np.flatnonzero(sums).tolist():
                total += ((int(high_sums[i]) << 27) + int(low_sums[i])) << (i + 1)
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
    B order). The energy and its Boltzmann factors span only the axes of
    the sites some coupling touches, and multiply the prior tensor last.
    Both sums are exact and correctly rounded, so results are
    reproducible to the last bit for a given input. Raises NumericError
    when an expectation or the partition function is not a finite
    positive float.
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
        # Each cell sees the same subtractions in the same order whether
        # the energy grows by broadcasting or is updated in place.
        energy = np.zeros((1,) * n)
        for subset, strength in couplings.terms:
            term = strength * math.prod(spin[site] for site in subset)
            if energy.size == k**n:
                energy -= term
            else:
                energy = energy - term
        # Shifting by the ground-state energy cancels in the ratio and
        # keeps every Boltzmann factor in (0, 1], so strong couplings
        # cannot overflow exp and the partition function stays finite.
        boltz = np.exp(np.subtract(energy.min(), energy, out=energy), out=energy)
        # IEEE multiplication commutes, so prior * boltz is boltz * prior
        # in every cell.
        weighted = math.prod(weights.reshape(shape) for shape in axis_shapes)
        weighted *= boltz
        Z = _exact_sum(weighted, "partition function degenerate")
        if Z <= 0.0:
            raise NumericError(f"partition function degenerate: {Z}")
        weighted *= math.prod(spin[site] for site in B)
        value = _exact_sum(weighted, "expectation not finite") / Z
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
    mu, nu = float_atoms(mu), float_atoms(nu)
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
