"""Brute-force Gibbs expectations on tiny volumes and the empirical
domination probe.

Unlike the exact modules, expectations here use double precision: the
Boltzmann weight is transcendental, so the exactness lives in the
complete configuration enumeration, with exact, correctly rounded
summation and an explicit tolerance on every comparison. A domination
verdict on a large enumeration is first tried from plain float sums: a
pass is proven when its margin exceeds a rigorous bound on their
distance from the exact sums, and witnesses and near-ties are decided
on the exact sums. The inverse temperature is absorbed into the
couplings. A probe builds each measure's enumeration tables (spin views,
prior tensor, coupling monomials) once and shares them across its
trials; nothing is cached beyond one probe.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

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
# Unit roundoff of float64, and the range of float partition functions
# and observable bounds inside which _bounded_expectation's bound holds.
_U = 2.0**-53
_SAFE_MIN, _SAFE_MAX = 2.0**-500, 2.0**500


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


def _gibbs_sums(
    lattice: Lattice,
    couplings: CouplingSet,
    measure: MeasureLike | _PreparedMeasure,
    B: tuple[int, ...],
    total: Callable[[np.ndarray, str], float],
) -> tuple[_PreparedMeasure, float, float]:
    """Validate and enumerate one instance: its prepared measure, the
    partition function Z and the numerator N, the sum over cells of
    sigma^B times the Gibbs weight, each summed by total(cells, what).

    The k**n configurations are the cells of a (k,) * n tensor with one
    axis per site in lattice order. The prior, each coupling term and the
    observable are broadcast products of per-site vectors, multiplied in
    a fixed order (lattice order, the coupling subset's iteration order,
    B order). The energy and its Boltzmann factors span only the axes of
    the sites some coupling touches, and multiply the prior tensor last,
    so every caller sums the same cells to the bit. Z is summed first,
    and a Z that is not positive raises NumericError before N is formed.
    `measure` may be a _PreparedMeasure, whose tables are then reused; a
    bare measure gets a fresh one. With B empty nothing is enumerated and
    Z = N = 1.0.
    """
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
        return measure, 1.0, 1.0
    spin, prior, monomials = measure.tables(n)

    # Overflow shows up as inf or NaN in the sums.
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
        Z = total(weighted, "partition function degenerate")
        if Z <= 0.0:
            raise NumericError(f"partition function degenerate: {Z}")
        weighted *= math.prod(spin[axis[site]] for site in B)
        return measure, Z, total(weighted, "expectation not finite")


def gibbs_expectation(
    lattice: Lattice,
    couplings: CouplingSet,
    measure: MeasureLike | _PreparedMeasure,
    B: Iterable[int],
) -> float:
    """<sigma^B> by complete enumeration of the product measure.

    The ratio N / Z of _gibbs_sums, whose two sums are exact and
    correctly rounded, so results are reproducible to the last bit for a
    given input. `measure` may be a _PreparedMeasure, whose tables are
    then reused. Raises NumericError when an expectation or the partition
    function is not a finite positive float.
    """
    _, Z, N = _gibbs_sums(lattice, couplings, measure, tuple(B), _exact_sum)
    value = N / Z
    if not math.isfinite(value):
        raise NumericError(f"expectation not finite: {value}")
    return value


def _float_sum(cells: np.ndarray, what: str) -> float:
    """numpy's float64 sum of the cells, added in numpy's own order."""
    return float(cells.sum())


def _bounded_expectation(
    lattice: Lattice,
    couplings: CouplingSet,
    measure: MeasureLike | _PreparedMeasure,
    B: tuple[int, ...],
) -> tuple[float, float] | None:
    """An estimate q of gibbs_expectation(lattice, couplings, measure, B)
    from plain float sums and a bound E >= |q - gibbs_expectation(...)|,
    or None where the sums leave the range the bound covers.

    Both take the same c = k**n cells from _gibbs_sums: weights w_i >= 0
    and products p_i = fl(w_i * o_i), where o_i is sigma^B in cell i.
    With Z = sum w_i and N = sum p_i exact, r = N / Z and u = 2**-53,
    gibbs_expectation returns v = fl(fl(N) / fl(Z)) from correctly
    rounded sums; this returns q = fl(N' / Z') from numpy's sums.
    - Summation, in any order of addition (Higham, Accuracy and Stability
      of Numerical Algorithms, 2nd ed., 2002, section 4.2):
      |Z' - Z| <= g * Z and |N' - N| <= g * sum |p_i|, g = gamma_c =
      c * u / (1 - c * u).
    - Observable: rounding to nearest is monotone, so |o_i| <= P, the
      float product of |B| copies of the largest |atom|, and
      |p_i| <= fl(w_i * P) <= (1 + u) * P * w_i + 2**-1075. Hence
      sum |p_i| <= M * Z and |r| <= M with M = (1 + u) * P +
      c * 2**-1075 / Z, and P, Z' in [2**-500, 2**500] give
      M <= (1 + 2u) * P.
    - Ratio: N'/Z' - r = ((N' - N) - r * (Z' - Z)) / Z' and
      Z' >= (1 - g) * Z, so |N'/Z' - r| <= 2 * g * M / (1 - g): g * M
      from the numerator and g * M from the partition function.
    - Roundings: q is within u * |N'/Z'| + 2**-1075 of N'/Z';
      fl(N) / fl(Z) is within 2u / (1 - u) * |r| of r, and v within
      u * |fl(N) / fl(Z)| + 2**-1075 of that.
    Summed, |q - v| <= (2 * g + 4 * u) * P times 1 + 1e-9 (c <=
    CONFIG_CAP keeps g below 2**-32), plus 2**-1074, which is below
    2.01 * (g + 2u) * P. E = 3 * (g + 2u) * P leaves room for the
    rounding of E itself and of the verdict in domination_check. In that
    range Z > 0 and every sum of gibbs_expectation is finite, so it
    returns v without raising. A float Z' of 0 means every weight is 0,
    so the NumericError _gibbs_sums raises for it is gibbs_expectation's.
    """
    measure, Z, N = _gibbs_sums(lattice, couplings, measure, B, _float_sum)
    P = 1.0
    largest = max(abs(v) for v, _ in measure.atoms)
    for _ in B:
        P *= largest
    if not (_SAFE_MIN <= Z <= _SAFE_MAX and _SAFE_MIN <= P <= _SAFE_MAX):
        return None
    cells = len(measure.atoms) ** len(lattice.sites)
    gamma = cells * _U / (1 - cells * _U)
    return N / Z, 3 * (gamma + 2 * _U) * P


@dataclass(frozen=True)
class DominationResult:
    """The verdict lhs <= rhs + tol on <sigma^B>_mu (lhs) and
    <sigma^B>_nu (rhs). Where `bound` is 0.0, lhs and rhs are
    gibbs_expectation's exact-sum values; on a pass proven from float
    sums they are estimates, each within `bound` of that value."""

    holds: bool
    lhs: float
    rhs: float
    bound: float = 0.0


def domination_check(
    lattice: Lattice,
    couplings: CouplingSet,
    mu: MeasureLike | _PreparedMeasure,
    nu: MeasureLike | _PreparedMeasure,
    B: Iterable[int],
    tol: float = DEFAULT_TOL,
) -> DominationResult:
    """Check <sigma^B>_mu <= <sigma^B>_nu up to an absolute tolerance,
    which must be finite and >= 0.

    Where the larger of the two enumerations has more than _FSUM_MAX_SIZE
    cells, _bounded_expectation first estimates each side as q +- E, and
    the pass is proven when
        fl(q_nu + tol) - q_mu > E_mu + E_nu + 5u * (|q_mu| + |q_nu| + tol),
    whose last term covers the rounding of this test and of rhs + tol in
    the exact verdict; the result then carries the estimates and the
    larger E. Every other verdict (undecided, failing, or with sums out
    of the bound's range) is decided on gibbs_expectation's values, with
    bound 0.0, and raises what gibbs_expectation raises.
    """
    _check_tol(tol)
    B = tuple(B)
    # The atom counts, read before gibbs_expectation validates the atoms.
    k = max(len(getattr(measure, "atoms", measure)) for measure in (mu, nu))
    if B and k ** len(lattice.sites) > _FSUM_MAX_SIZE:
        lhs = _bounded_expectation(lattice, couplings, mu, B)
        rhs = lhs and _bounded_expectation(lattice, couplings, nu, B)
        if rhs:
            (q_mu, e_mu), (q_nu, e_nu) = lhs, rhs
            if (q_nu + tol) - q_mu > e_mu + e_nu + 5 * _U * (abs(q_mu) + abs(q_nu) + tol):
                return DominationResult(holds=True, lhs=q_mu, rhs=q_nu, bound=max(e_mu, e_nu))
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
