"""Brute-force Gibbs expectations on tiny volumes and the empirical
domination probe.

Unlike the exact modules, expectations here use double precision: the
Boltzmann weight is transcendental, so the exactness lives in the
complete configuration enumeration, with exact, correctly rounded
summation and an explicit tolerance on every comparison. The inverse
temperature is absorbed into the couplings. A probe builds each
measure's enumeration tables (spin views, prior tensor, coupling
monomials) once and shares them across its trials; nothing is cached
beyond one probe.
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
from .report import FAIL, PASS, VerificationReport
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
# A measure's tables for n sites: the spin view of each axis of the
# (k,) * n tensor, the prior tensor, and coupling monomials by axes.
_Tables = tuple[list[np.ndarray], np.ndarray, dict[tuple[int, ...], np.ndarray]]


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
    (high + low) * 2**(e - 26). Each addend adds below 2**26 to its bin's
    high total and below 2**27 units of 2**-27 to its low total, so both
    float64 totals stay below 2**53 units, and exact, for up to 2**26
    addends; gibbs_expectation sums at most CONFIG_CAP. Raises ValueError
    on an infinity or NaN.
    """
    bins = _MAX_EXPONENT - _MIN_EXPONENT + 1
    mantissa, high = np.empty(_CHUNK), np.empty(_CHUNK)
    exponent, key = np.empty(_CHUNK, dtype=np.intc), np.empty(_CHUNK, dtype=np.intp)
    high_sums, low_sums = np.zeros(bins), np.zeros(bins)
    # An infinity or NaN leaves a NaN bin total, which raises below.
    with np.errstate(invalid="ignore"):
        for start in range(0, x.size, _CHUNK):
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
    return sum(((int(high_sums[i]) << 27) + int(low_sums[i])) << (i + 1)
               for i in np.flatnonzero(sums).tolist())


def _check_cap(k: int, n: int) -> None:
    if k**n > CONFIG_CAP:
        raise ResourceLimitError(f"{k}**{n} configurations exceed cap {CONFIG_CAP}")


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise PreconditionError(f"tol must be finite and >= 0, got {tol}")


class _PreparedMeasure:
    """The enumeration tables of one measure, built once and shared by
    every gibbs_expectation call it is passed to.

    `atoms` is the measure as float_atoms returns it, a list of
    (value, weight) float pairs validated once; a caller holding only
    the object reads k = len(atoms) from it. For each site count n the
    object keeps, from the first expectation over n sites on, the
    per-axis spin views of the (k,) * n tensor, the prior tensor and the
    coupling monomials. A monomial is keyed by its subset's axis
    positions in the subset's own iteration order and formed as
    math.prod over those views, so it has the same bits as the product
    gibbs_expectation would otherwise form. The tables live as long as
    the object and are never written.
    """

    def __init__(self, measure: MeasureLike) -> None:
        self.atoms = float_atoms(measure)
        self._values = np.array([v for v, _ in self.atoms])
        self._weights = np.array([w for _, w in self.atoms])
        self._tables: dict[int, _Tables] = {}

    def tables(self, n: int) -> _Tables:
        """The tables for n sites, built on first use."""
        tables = self._tables.get(n)
        if tables is None:
            k = len(self.atoms)
            shapes = [(1,) * i + (k,) + (1,) * (n - 1 - i) for i in range(n)]
            prior = math.prod(self._weights.reshape(shape) for shape in shapes)
            prior.flags.writeable = False
            tables = self._tables[n] = ([self._values.reshape(shape) for shape in shapes], prior, {})
        return tables


def gibbs_expectation(
    lattice: Lattice,
    couplings: CouplingSet,
    measure: MeasureLike | _PreparedMeasure,
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
    reproducible to the last bit for a given input. `measure` may be a
    _PreparedMeasure, whose tables are then reused; a bare measure gets
    a fresh one. Raises NumericError when an expectation or the partition
    function is not a finite positive float.
    """
    B = tuple(B)
    axis = {site: i for i, site in enumerate(lattice.sites)}
    for subset, _ in couplings.terms:
        if not subset <= axis.keys():
            raise ValidationError(f"coupling subset {sorted(subset)} outside the lattice")
    if not set(B) <= axis.keys():
        raise ValidationError("observable subset outside the lattice")
    if not isinstance(measure, _PreparedMeasure):
        measure = _PreparedMeasure(measure)
    n = len(lattice.sites)
    _check_cap(len(measure.atoms), n)
    if not B:
        return 1.0
    spin, prior, monomials = measure.tables(n)

    # Overflow shows up as inf or NaN in the sums, which raise NumericError.
    with np.errstate(over="ignore", invalid="ignore"):
        # Each cell sees the same subtractions in the same order whether
        # the energy grows by broadcasting or is updated in place.
        energy = np.zeros((1,) * n)
        for subset, strength in couplings.terms:
            axes = tuple(axis[site] for site in subset)
            monomial = monomials.get(axes)
            if monomial is None:
                monomial = monomials[axes] = math.prod(spin[i] for i in axes)
            term = strength * monomial
            if energy.size == prior.size:
                energy -= term
            else:
                energy = energy - term
        # Shifting by the ground-state energy cancels in the ratio and
        # keeps every Boltzmann factor in (0, 1], so strong couplings
        # cannot overflow exp and the partition function stays finite.
        boltz = np.exp(np.subtract(energy.min(), energy, out=energy), out=energy)
        # IEEE multiplication commutes, so boltz * prior is prior * boltz
        # in every cell; a Boltzmann tensor over every cell takes the
        # product in place.
        weighted = np.multiply(boltz, prior, out=boltz if boltz.size == prior.size else None)
        Z = _exact_sum(weighted, "partition function degenerate")
        if Z <= 0.0:
            raise NumericError(f"partition function degenerate: {Z}")
        weighted *= math.prod(spin[axis[site]] for site in B)
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
    """Check <sigma^B>_mu <= <sigma^B>_nu up to an absolute tolerance,
    which must be finite and >= 0."""
    _check_tol(tol)
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
        _check_tol(self.tol)


def random_probe(
    config: ProbeConfig, mu: MeasureLike, nu: MeasureLike
) -> VerificationReport:
    """Sample random ferromagnetic instances and check domination on each.

    Deterministic for a given seed: trials run sequentially in draw order.
    Violations are reported with the full serialized instance as witness;
    with zero violations and zero trials the result is an empty pass.
    Each measure's enumeration tables are built once and shared by every
    trial, and a site cap whose largest instance would exceed CONFIG_CAP
    for either measure is refused before any trial.
    """
    rng = random.Random(config.seed)
    mu, nu = _PreparedMeasure(mu), _PreparedMeasure(nu)
    for prepared in (mu, nu):
        _check_cap(len(prepared.atoms), config.site_cap)
    witnesses = []
    for trial in range(config.trials):
        n = rng.randint(1, config.site_cap)
        sites = tuple(range(n))
        terms: dict[frozenset[int], float] = {}
        for _ in range(rng.randint(1, 2 * n)):
            size = rng.randint(1, min(MAX_SUBSET_SIZE, n))
            subset = frozenset(rng.sample(sites, size))
            terms[subset] = terms.get(subset, 0.0) + rng.uniform(0.0, COUPLING_MAX)
        B = sorted(rng.sample(sites, rng.randint(1, n)))
        couplings = CouplingSet.from_dict(terms)
        res = domination_check(Lattice(sites), couplings, mu, nu, B, tol=config.tol)
        if not res.holds:
            witnesses.append({
                "trial": trial, "lhs": res.lhs, "rhs": res.rhs, "sites": list(sites),
                "couplings": [[sorted(s), j] for s, j in couplings.terms], "B": B,
            })
    return VerificationReport(
        command="probe",
        status=PASS if not witnesses else FAIL,
        parameters={
            "seed": config.seed,
            "trials": config.trials,
            "site_cap": config.site_cap,
            "tol": config.tol,
        },
        details={"passes": config.trials - len(witnesses)},
        witnesses=witnesses,
    )
