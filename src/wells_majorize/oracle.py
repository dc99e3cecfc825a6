"""Brute-force Gibbs expectations on tiny volumes and the empirical
domination probe.

Unlike the exact modules, expectations here use double precision: the
Boltzmann weight is transcendental, so the exactness lives in the
complete configuration enumeration, with compensated summation and an
explicit tolerance on every comparison. The inverse temperature is
absorbed into the couplings.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
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

DEFAULT_CONFIG_CAP = 10**6
DEFAULT_TOL = 1e-9

# Support given either exactly or as floats (needed when the two-point
# comparison magnitude is an irrational root).
FloatAtoms = Sequence[tuple[float, float]]
MeasureLike = Union[DiscreteMeasure, FloatAtoms]


def float_atoms(measure: MeasureLike) -> list[tuple[float, float]]:
    """Coerce a measure to (value, weight) floats, validating weights."""
    if isinstance(measure, DiscreteMeasure):
        pairs = [(float(v), float(w)) for v, w in measure.atoms]
    else:
        pairs = [(float(v), float(w)) for v, w in measure]
    if not pairs:
        raise ValidationError("empty support")
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


def _check_subsets(lattice: Lattice, couplings: CouplingSet, B: Iterable[int]) -> None:
    site_set = set(lattice.sites)
    for subset, _ in couplings.terms:
        if not subset <= site_set:
            raise ValidationError(f"coupling subset {sorted(subset)} outside the lattice")
    if not set(B) <= site_set:
        raise ValidationError("observable subset outside the lattice")


def hamiltonian(
    lattice: Lattice, couplings: CouplingSet, assignment: dict[int, float]
) -> float:
    """Energy -sum_A J(A) prod_{j in A} sigma_j of one spin configuration."""
    _check_subsets(lattice, couplings, ())
    for site in lattice.sites:
        if site not in assignment:
            raise ValidationError(f"site {site} unassigned")
    total = 0.0
    for subset, strength in couplings.terms:
        prod = 1.0
        for site in subset:
            prod *= assignment[site]
        total -= strength * prod
    return total


@lru_cache(maxsize=64)
def _index_grid(k: int, n: int) -> np.ndarray:
    """All k**n index tuples in lexicographic order, shape (k**n, n)."""
    grid = np.indices((k,) * n).reshape(n, -1).T
    grid.setflags(write=False)
    return grid


def gibbs_expectation(
    lattice: Lattice,
    couplings: CouplingSet,
    measure: MeasureLike,
    B: Iterable[int],
    config_cap: int = DEFAULT_CONFIG_CAP,
) -> float:
    """<sigma^B> by complete enumeration of the product measure.

    Deterministic: configurations are enumerated lexicographically and
    both sums use exact compensated summation, so results are reproducible
    to the last bit for a given input.
    """
    B = tuple(B)
    _check_subsets(lattice, couplings, B)
    atoms = float_atoms(measure)
    k, n = len(atoms), len(lattice.sites)
    if k**n > config_cap:
        raise ResourceLimitError(f"{k}**{n} configurations exceed cap {config_cap}")
    if not B:
        return 1.0

    values = np.array([v for v, _ in atoms])
    weights = np.array([w for _, w in atoms])
    idx = _index_grid(k, n)
    spins = values[idx]  # (configs, sites)
    prior = weights[idx].prod(axis=1)
    col = {site: i for i, site in enumerate(lattice.sites)}

    energy = np.zeros(len(idx))
    for subset, strength in couplings.terms:
        energy -= strength * spins[:, [col[s] for s in subset]].prod(axis=1)
    # Shifting by the ground-state energy cancels in the ratio and keeps
    # every Boltzmann factor in (0, 1], so strong couplings cannot
    # overflow exp and the partition function stays finite.
    energy -= energy.min()
    boltz = prior * np.exp(-energy)

    observable = spins[:, [col[s] for s in B]].prod(axis=1)
    Z = math.fsum(boltz)
    if not math.isfinite(Z) or Z <= 0.0:
        raise NumericError(f"partition function degenerate: {Z}")
    return math.fsum(observable * boltz) / Z


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
    config_cap: int = DEFAULT_CONFIG_CAP,
) -> DominationResult:
    """Check <sigma^B>_mu <= <sigma^B>_nu up to an absolute tolerance."""
    B = tuple(B)
    lhs = gibbs_expectation(lattice, couplings, mu, B, config_cap)
    rhs = gibbs_expectation(lattice, couplings, nu, B, config_cap)
    return DominationResult(holds=lhs <= rhs + tol, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class ProbeConfig:
    """Knobs of the randomized domination probe.

    Couplings stay in [0, coupling_max] over subsets of at most
    max_subset_size sites, so the exponentials remain well conditioned
    while multi-body terms beyond pairs are exercised.
    """

    seed: int
    trials: int
    site_cap: int
    coupling_max: float = 2.0
    max_subset_size: int = 3
    tol: float = DEFAULT_TOL
    config_cap: int = DEFAULT_CONFIG_CAP

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
        size = rng.randint(1, min(config.max_subset_size, n))
        subset = frozenset(rng.sample(sites, size))
        terms[subset] = terms.get(subset, 0.0) + rng.uniform(0.0, config.coupling_max)
    B = tuple(sorted(rng.sample(sites, rng.randint(1, n))))
    return ProbeInstance(Lattice(sites), CouplingSet.from_dict(terms), B)


def _checked_instances(config: ProbeConfig, mu: MeasureLike, nu: MeasureLike):
    """Draw config.trials random instances from the seed, one after the
    other, and yield (trial, instance, domination result) for each."""
    rng = random.Random(config.seed)
    for trial in range(config.trials):
        inst = _draw_instance(rng, config)
        res = domination_check(
            inst.lattice, inst.couplings, mu, nu, inst.B,
            tol=config.tol, config_cap=config.config_cap,
        )
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
