"""Brute-force Gibbs expectations on tiny volumes and the empirical
domination probe.

Unlike the exact modules, expectations here use double precision: the
Boltzmann weight is transcendental, so the exactness lives in the
complete configuration enumeration, with exact, correctly rounded
summation (math.fsum) and an explicit tolerance on every comparison.
domination_check decides on those exact sums alone. The probe first
decides, once, whether both measures are even and in a range where no
exact sum can overflow or vanish; if so, a trial whose observable has a
site no coupling touches is proven with nothing enumerated, since both
its exact-sum expectations are zero (the exact zero rule). It tries
every other trial from plain float sums of the same cells, small trials
in batches of one site count and large ones one at a time: a pass is
proven when its margin exceeds a rigorous bound on their distance from
the exact sums, and only the trials it leaves unproven (witnesses,
near-ties, sums outside the bound's range) reach domination_check. The
small trials of one site count in a window of draws are described as
monomial keys, strengths and observable factors in plans of at most
_PLAN_CELLS cells per measure, one plan unless the trials pass that cap;
each measure builds a plan's monomial rows from its spin views and sums
all its trials as one array, and no batch table outlives the plan.
The inverse temperature is absorbed into the couplings. A probe builds
each measure's enumeration tables (spin views, prior) once per site
count and shares them across its trials; the tables of a site count
summed alone lay its last two sites on one axis, so that numpy's inner
loops are longer, and keep every cell's bits. Nothing is cached beyond
one probe.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import (
    NumericError,
    PreconditionError,
    ResourceLimitError,
    ValidationError,
)
from .report import FAIL, PASS, VerificationReport

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
MeasureLike = Union["DiscreteMeasure", FloatAtoms]
# A measure's tables for n sites: the spin view of each site over the
# cells of the (k,) * n tensor, and the prior (broadcast from one product
# when the weights are equal).
_Tables = tuple[list[np.ndarray], np.ndarray]


def float_atoms(measure: MeasureLike) -> list[tuple[float, float]]:
    """Coerce a measure to (value, weight) floats, validating weights."""
    atoms = list(getattr(measure, "atoms", measure))
    try:
        pairs = [(float(v), float(w)) for v, w in atoms]
    except OverflowError:
        raise ValidationError("atom outside the float range") from None
    if not pairs:
        raise ValidationError("empty support")
    if not all(math.isfinite(v) and math.isfinite(w) for v, w in pairs):
        raise ValidationError("atom outside the float range")
    if any(w <= 0 for _, w in atoms):
        raise ValidationError("weights must be positive")
    # A positive weight or a nonzero value too small for a float rounds to 0.0.
    if any(fw == 0.0 or (fv == 0.0 and v != 0) for (v, _), (fv, fw) in zip(atoms, pairs)):
        raise ValidationError("atom outside the float range")
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


# The largest enumeration random_probe proves in batches; larger ones
# are proven one trial at a time.
_BATCH_MAX_SIZE = 2048
# Trials random_probe draws before it proves the window's small ones
# together, and the most cells one plan's array holds under a measure.
_WINDOW = 2048
_PLAN_CELLS = 2**19
# Unit roundoff of float64, and the range of float partition functions
# and observable bounds inside which _estimate's bound holds.
_U = 2.0**-53
_SAFE_MIN, _SAFE_MAX = 2.0**-500, 2.0**500


def _exact_sum(x: np.ndarray, what: str) -> float:
    """Correctly rounded sum of a float64 array: math.fsum's, which adds
    Shewchuk's exact partials and rounds once. Both routes read the
    addends one at a time through a memoryview, never as a list.

    math.fsum raises OverflowError also when only a partial sum leaves
    the float range. Only when it fails, and every addend is finite, is
    the sum taken over Fractions and rounded once, by CPython's correctly
    rounded integer true division, so a sum that fits is returned even
    where a partial sum overflows. A non-finite addend or a sum beyond
    the float range raises NumericError.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    total = math.nan
    with contextlib.suppress(OverflowError, ValueError):
        total = math.fsum(memoryview(x))
    if not math.isfinite(total):
        if np.isfinite(x).all():
            with contextlib.suppress(OverflowError):
                total = float(sum(map(Fraction, memoryview(x))))
        if not math.isfinite(total):
            raise NumericError(f"{what}: non-finite addend or overflowing sum")
    return total


def _check_cap(k: int, n: int) -> None:
    # k**n >= 2**n exceeds CONFIG_CAP for n past its bit length, so a
    # large n is refused without forming the power.
    if k > 1 and (n > CONFIG_CAP.bit_length() or k**n > CONFIG_CAP):
        raise ResourceLimitError(f"{k}**{n} configurations exceed cap {CONFIG_CAP}")


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise PreconditionError(f"tol must be finite and >= 0, got {tol}")


class _PreparedMeasure:
    """The enumeration tables of one measure, built once and shared by
    every gibbs_expectation call and every batch of trials it is passed
    to.

    `atoms` is the measure as float_atoms returns it, a list of
    (value, weight) float pairs validated once; a caller holding only
    the object reads k = len(atoms) from it, and `largest` is the largest
    |value|. For each site count n the object keeps, from the first
    expectation over n sites on, the per-site spin views of the (k,) * n
    tensor and the prior. A site count summed alone (k**n past
    _BATCH_MAX_SIZE, n >= 3) lays its last two sites on one trailing axis
    of k * k cells, the last site counting fastest: numpy's innermost
    loop then runs over k * k cells, not k, and the cells keep their C
    order, so every cell and every sum has the bits of the (k,) * n
    layout. Batched site counts keep one axis per site, so a probe that
    builds small tables once per probe pays nothing for the merge. The
    prior holds in each cell the product of the cell's weights in lattice
    order; when all k weights are equal, that is one product with the
    same bits in every cell, broadcast to the tensor's shape without
    being stored. The tables live as long as the object and are never
    written; _gibbs_sums forms each coupling monomial from the spin views
    where it reads it, and batches of trials build their own rows from
    them (_batch_sums).
    """

    def __init__(self, measure: MeasureLike) -> None:
        self.atoms = float_atoms(measure)
        self._values = np.array([v for v, _ in self.atoms])
        self._weights = np.array([w for _, w in self.atoms])
        self.largest = max(abs(v) for v, _ in self.atoms)
        self._tables: dict[int, _Tables] = {}

    def tables(self, n: int) -> _Tables:
        """The tables for n sites, built on first use."""
        tables = self._tables.get(n)
        if tables is None:
            k = len(self.atoms)
            # n axes, or n - 1 for a site count summed alone; site i lies
            # on axis min(i, rank - 1).
            rank = n - (n >= 3 and k**n > _BATCH_MAX_SIZE)
            shape = (k,) * (rank - 1) + (k ** (n + 1 - rank),)

            def views(vector: np.ndarray) -> list[np.ndarray]:
                per_site = [vector] * n
                if rank < n:
                    # The merged axis counts the last site fastest.
                    per_site[-2:] = np.repeat(vector, k), np.tile(vector, k)
                return [v.reshape([-1 if a == min(i, rank - 1) else 1 for a in range(rank)])
                        for i, v in enumerate(per_site)]

            weight = self.atoms[0][1]
            if all(w == weight for _, w in self.atoms):
                # Every cell is the same product of n equal weights.
                prior = np.broadcast_to(math.prod([weight] * n), shape)
            else:
                prior = math.prod(views(self._weights))
                prior.flags.writeable = False
            tables = self._tables[n] = (views(self._values), prior)
        return tables

    def free_sites_vanish(self, site_cap: int) -> bool:
        """Whether the measure is even as float atoms and in range for
        every trial random_probe draws on at most site_cap sites, so that
        gibbs_expectation returns a zero, without raising, on each one
        whose observable has a site no coupling touches.

        Even: the multiset of (value, weight) pairs equals that of
        (-value, weight). In range: take V = max(1, largest |atom|) and
        weights in [w_lo, w_hi]. A trial has at most 2n term draws of at
        most COUPLING_MAX each, so every energy cell is at most
        2 * site_cap * COUPLING_MAX * V**MAX_SUBSET_SIZE in magnitude;
        every prior cell lies in
        [min(w_lo, 1)**site_cap, max(w_hi, 1)**site_cap]; every |sigma^B|
        is at most V**site_cap; and a sum has at most CONFIG_CAP cells.
        The check asks, in log2, that the energy bound and CONFIG_CAP
        times the largest prior times V**site_cap be at most _SAFE_MAX,
        and the smallest prior at least _SAFE_MIN. The ground-state shift
        at most doubles the energies' range, and the float roundings on
        the way to a cell change a bound by a factor below 1 + 2**-40, so
        every energy, Boltzmann factor (in [0, 1], and 1 in the
        ground-state cell), prior and sigma^B cell and every sum stays
        finite, and Z is at least the prior of the ground-state cell,
        which is positive. A cap past CONFIG_CAP's bit length, which only
        a one-atom measure passes _check_cap with, is left to the
        enumeration.
        """
        if site_cap > CONFIG_CAP.bit_length() or sorted(self.atoms) != sorted((-v, w) for v, w in self.atoms):
            return False
        largest = math.log2(max(self.largest, 1.0))
        lightest, heaviest = (math.log2(w) for w in (self._weights.min(), self._weights.max()))
        energy = math.log2(2 * site_cap * COUPLING_MAX) + MAX_SUBSET_SIZE * largest
        cells = math.log2(CONFIG_CAP) + site_cap * (max(heaviest, 0.0) + largest)
        return max(energy, cells, -site_cap * min(lightest, 0.0)) <= math.log2(_SAFE_MAX)


def _gibbs_sums(
    lattice: Lattice,
    couplings: CouplingSet,
    measure: MeasureLike | _PreparedMeasure,
    B: tuple[int, ...],
    total: Callable[[np.ndarray, str], float],
) -> tuple[float, float]:
    """Validate and enumerate one instance: the partition function Z and
    the numerator N, the sum over cells of sigma^B times the Gibbs
    weight, each summed by total(cells, what).

    The k**n configurations are the cells of the measure's tables for n
    sites, in the C order of a (k,) * n tensor with one axis per site in
    lattice order (the last two sites share an axis when n sites are
    summed alone). The prior, each coupling term and the observable are
    broadcast products of per-site views, multiplied in a fixed order
    (lattice order, the coupling subset's iteration order, B order). The
    energy and its Boltzmann factors span only the axes of the sites some
    coupling touches, and multiply the prior last, so every caller sums
    the same cells to the bit. Z is summed first, and a Z that is not
    positive raises NumericError before N is formed. On merged tables an
    observable that spans every cell is formed and multiplied in one
    leading slice at a time, so the enumeration holds one full-size array
    and slices, not two full-size arrays.
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
        return 1.0, 1.0
    spin, prior = measure.tables(n)

    # Overflow shows up as inf or NaN in the sums.
    with np.errstate(over="ignore", invalid="ignore"):
        # Each cell sees the same subtractions in the same order whether
        # the energy grows by broadcasting or is updated in place.
        energy = np.zeros((1,) * prior.ndim)
        # reduce(mul, ...), not math.prod, whose start value 1 costs one
        # more numpy multiplication per monomial and changes no bit.
        for subset, strength in couplings.terms:
            term = strength * reduce(mul, [spin[axis[site]] for site in subset])
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
        observable = [spin[axis[site]] for site in B]
        if prior.ndim == n or np.broadcast_shapes(*(view.shape for view in observable)) != prior.shape:
            weighted *= reduce(mul, observable)
        else:
            # An observable over every cell of a merged tensor is formed
            # one leading slice at a time, never as a whole.
            for i in range(len(weighted)):
                weighted[i:i + 1] *= reduce(mul, [view[i:i + 1] if len(view) > 1 else view for view in observable])
        return Z, total(weighted, "expectation not finite")


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
    Z, N = _gibbs_sums(lattice, couplings, measure, tuple(B), _exact_sum)
    value = N / Z
    if not math.isfinite(value):
        raise NumericError(f"expectation not finite: {value}")
    return value


def _float_sum(cells: np.ndarray, what: str) -> float:
    """numpy's float64 sum of the cells, added in numpy's own order."""
    return float(cells.sum())


def _estimate(Z, N, P, cells):
    """q = N / Z and a bound E >= |q - gibbs_expectation(...)|,
    elementwise on arrays of trials, where Z and N are a trial's float
    sums over its `cells` cells and P bounds its observable.

    Write Z' and N' for those float sums. Both run over the same c = k**n
    cells of _gibbs_sums: weights w_i >= 0 and products
    p_i = fl(w_i * o_i), where o_i is sigma^B in cell i. With
    Z = sum w_i and N = sum p_i exact, r = N / Z and u = 2**-53,
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
    rounding of E itself and of the verdict in _proven_pass. In that
    range Z > 0 and every sum of gibbs_expectation is finite, so it
    returns v without raising. E is inf where Z' or P leaves
    [_SAFE_MIN, _SAFE_MAX], so that _proven_pass never holds there.
    """
    gamma = cells * _U / (1 - cells * _U)
    in_range = (_SAFE_MIN <= Z) & (Z <= _SAFE_MAX) & (_SAFE_MIN <= P) & (P <= _SAFE_MAX)
    return N / Z, np.where(in_range, 3 * (gamma + 2 * _U) * P, np.inf)


def _proven_pass(q_mu, e_mu, q_nu, e_nu, tol: float):
    """Whether lhs <= rhs + tol is proven from the estimates q_mu +- e_mu
    and q_nu +- e_nu of _estimate, elementwise on arrays of trials:
        fl(q_nu + tol) - q_mu > E_mu + E_nu + 5u * (|q_mu| + |q_nu| + tol),
    whose last term covers the rounding of this test and of rhs + tol in
    the exact verdict."""
    return (q_nu + tol) - q_mu > e_mu + e_nu + 5 * _U * (abs(q_mu) + abs(q_nu) + tol)


@dataclass(frozen=True)
class DominationResult:
    """The verdict lhs <= rhs + tol on <sigma^B>_mu (lhs) and
    <sigma^B>_nu (rhs), gibbs_expectation's exact-sum values."""

    holds: bool
    lhs: float
    rhs: float


def domination_check(
    lattice: Lattice,
    couplings: CouplingSet,
    mu: MeasureLike | _PreparedMeasure,
    nu: MeasureLike | _PreparedMeasure,
    B: Iterable[int],
    tol: float = DEFAULT_TOL,
) -> DominationResult:
    """Check <sigma^B>_mu <= <sigma^B>_nu up to an absolute tolerance,
    which must be finite and >= 0, on gibbs_expectation's values; raises
    what gibbs_expectation raises."""
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


_Trial = tuple[int, dict[frozenset[int], float], list[int]]


def _randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """random.Random._randbelow(n) for n >= 1: a draw from range(n) by
    the same rejection loop on the same stream."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sample(rng: random.Random, n: int, size: int) -> list[int]:
    """rng.sample(range(n), size), drawn from the same stream. Up to 21
    items random.sample always takes its pool algorithm, written out
    here; past that it may switch algorithm, so rng.sample is called."""
    if n > 21:
        return rng.sample(range(n), size)
    getrandbits, pool, chosen = rng.getrandbits, list(range(n)), []
    for i in range(size):
        j = _randbelow(getrandbits, n - i)
        chosen.append(pool[j])
        pool[j] = pool[n - i - 1]
    return chosen


def _draw_trial(rng: random.Random, site_cap: int) -> _Trial:
    """One random ferromagnetic instance: n sites, 1 to 2n coupling
    terms on 1-3 sites with strengths in [0, COUPLING_MAX], added up
    where a subset repeats, and a sorted observable of 1-n sites.

    The draws are rng.randint(1, site_cap), rng.randint(1, 2n), per term
    rng.randint(1, min(MAX_SUBSET_SIZE, n)), rng.sample(range(n), size)
    and rng.uniform(0.0, COUPLING_MAX), then the observable's
    rng.sample(range(n), rng.randint(1, n)), made without those methods'
    call layers: randint(a, b) is a + _randbelow(b - a + 1), uniform(0.0,
    c) is 0.0 + (c - 0.0) * random(), the float c * random(), and a
    sample of one item is [_randbelow(n)], since random.sample's first
    pick, from either of its algorithms, is item _randbelow(n) of range(n).
    """
    getrandbits = rng.getrandbits
    n = 1 + _randbelow(getrandbits, site_cap)
    terms: dict[frozenset[int], float] = {}
    for _ in range(1 + _randbelow(getrandbits, 2 * n)):
        size = 1 + _randbelow(getrandbits, min(MAX_SUBSET_SIZE, n))
        subset = frozenset([_randbelow(getrandbits, n)] if size == 1 else _sample(rng, n, size))
        terms[subset] = terms.get(subset, 0.0) + COUPLING_MAX * rng.random()
    size = 1 + _randbelow(getrandbits, n)
    return n, terms, [_randbelow(getrandbits, n)] if size == 1 else sorted(_sample(rng, n, size))


@dataclass(frozen=True)
class _Plan:
    """Trials on n sites, described once for every measure that sums
    them.

    Trials are in descending order of term count, in window order among
    equal counts, and `positions` holds each one's position in the
    window. Row j of `keys` holds the axes of monomial j, padded with n,
    the axis of no site, to the longest key: () first, then (s,) for each
    site s, then each coupling key the trials read not listed yet, with
    axes in the subset's iteration order. Row i of `terms` holds the ids
    of trial i's couplings, in insertion order, and row i of `strengths`
    their strengths; both are 0 past counts[i], trial i's term count. Row
    i of `factors` holds the id 1 + s of (s,) for each observed site s in
    B order, then 0, the id of (), whose row of ones multiplies exactly.
    """

    n: int
    positions: list[int]
    keys: np.ndarray
    counts: np.ndarray
    terms: np.ndarray
    strengths: np.ndarray
    factors: np.ndarray


def _padded(lengths: np.ndarray, items: list, dtype) -> np.ndarray:
    """`items` as rows, row i holding the next lengths[i] of them, padded
    with zeros to the longest row."""
    rows = np.zeros((len(lengths), lengths.max(initial=0)), dtype)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = items
    return rows


def _plan(n: int, window: Sequence[_Trial], positions: Sequence[int]) -> _Plan:
    """The _Plan of the trials at `positions` in `window`, all on n
    sites."""
    positions = sorted(positions, key=lambda position: len(window[position][1]), reverse=True)
    trials = [window[position] for position in positions]
    ids = {key: i for i, key in enumerate([()] + [(site,) for site in range(n)])}
    terms = [ids.setdefault(tuple(subset), len(ids)) for _, couplings, _ in trials for subset in couplings]
    width = max(map(len, ids))
    counts = np.array([len(couplings) for _, couplings, _ in trials])
    return _Plan(
        n, positions, np.array([key + (n,) * (width - len(key)) for key in ids], np.intp),
        counts, _padded(counts, terms, np.intp),
        _padded(counts, [j for _, couplings, _ in trials for j in couplings.values()], np.float64),
        _padded(np.array([len(B) for _, _, B in trials]), [1 + site for _, _, B in trials for site in B], np.intp),
    )


def _batch_sums(
    measure: _PreparedMeasure, plan: _Plan, total: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """The partition functions (row 0) and numerators (row 1) of the
    plan's trials under `measure`, in plan order: one row of k**n cells
    per trial, all in one array, summed by total(rows). _proven_trials
    keeps that array within _PLAN_CELLS cells.

    The plan's monomial rows are built here, one row of k**n cells in C
    order per key, and dropped with the call: from a table whose row i
    holds axis i's spin view and row n ones, each key's row is the
    product of its axes' rows in key order, which has the bits of the
    monomial of _gibbs_sums, since a factor of one is exact.
    Row i holds the cells _gibbs_sums builds for trial i over all k**n
    configurations, to the bit: energy column t subtracts its term only
    from the rows whose trial has more than t terms (a prefix of the
    plan, whose term counts descend), so every cell sees the subtractions
    of _gibbs_sums in the same order and no other; then exp(min - e),
    * prior and * sigma^B, under the same np.errstate. Shorter
    observables are padded with a row of ones, by which multiplication is
    exact. Nothing is validated and nothing raises: an overflowing row
    shows inf or NaN in its sums.
    """
    n, terms, factors = plan.n, plan.terms, plan.factors
    spin, prior = measure.tables(n)
    shape, prior = prior.shape, prior.reshape(-1)
    size, count = prior.size, len(plan.positions)
    # live[t]: the number of trials with more than t terms.
    live = np.count_nonzero(plan.counts[:, None] > np.arange(terms.shape[1]), axis=0).tolist()
    sums = np.empty((2, count))
    with np.errstate(over="ignore", invalid="ignore"):
        # Row i: axis i's spin view over all cells; row n: ones.
        axes = np.ones((n + 1, size))
        for i in range(n):
            axes[i].reshape(shape)[...] = spin[i]
        rows = axes[plan.keys[:, 0]]
        for d in range(1, plan.keys.shape[1]):
            rows *= axes[plan.keys[:, d]]
        # Every id is a row, so mode="clip" changes nothing but lets
        # np.take write to `out` directly, where the default mode buffers
        # it.
        energy, term = np.zeros((count, size)), np.empty((count, size))
        for t, m in enumerate(live):
            # The first m trials have more than t terms.
            np.take(rows, terms[:m, t], axis=0, out=term[:m], mode="clip")
            term[:m] *= plan.strengths[:m, t, None]
            energy[:m] -= term[:m]
        weighted = np.exp(np.subtract(energy.min(axis=1, keepdims=True), energy, out=energy), out=energy)
        weighted *= prior
        sums[0] = total(weighted)
        observable = np.take(rows, factors[:, 0], axis=0, out=term, mode="clip")
        factor = np.empty_like(term) if factors.shape[1] > 1 else None
        for d in range(1, factors.shape[1]):
            observable *= np.take(rows, factors[:, d], axis=0, out=factor, mode="clip")
        weighted *= observable
        sums[1] = total(weighted)
    return sums


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """numpy's float64 sum of each row."""
    return rows.sum(axis=1)


def _proven_trials(
    window: Sequence[_Trial], mu: _PreparedMeasure, nu: _PreparedMeasure, tol: float, free_sites_vanish: bool
) -> set[int]:
    """The positions in `window` of the trials whose pass is proven
    without the exact sums: by the exact zero rule, or by _proven_pass
    from float sums of gibbs_expectation's cells, for which the bound of
    _estimate holds in any order of addition.

    The exact zero rule, applied only when `free_sites_vanish` holds
    (both measures pass _PreparedMeasure.free_sites_vanish for the
    probe's site cap), proves a trial whose observable has a site s that
    no coupling touches, and enumerates nothing. Why it is exact: an
    even measure pairs each atom with one of equal weight and negated
    value (a zero atom may be its own partner). Write c' for cell c with
    s's atom replaced by its partner; c -> c' is a bijection of the
    cells. In _gibbs_sums no coupling term reads s's spin view, so c and
    c' read the same Boltzmann factor; their prior cells multiply equal
    weights in the same order; and sigma^B at c' has one factor negated.
    Float rounding is sign-symmetric, so N's cell at c' is exactly the
    negative of N's cell at c. The cells of N thus cancel in pairs: their
    exact sum is 0, and math.fsum returns 0.0. In range, Z is finite and
    positive, so gibbs_expectation returns 0.0 (or -0.0) under each
    measure without raising, and 0.0 <= 0.0 + tol holds for any
    tol >= 0.

    Every other trial is summed under each measure. The trials of one
    site count are described by _Plans when either measure's enumeration
    on that many sites has at most _BATCH_MAX_SIZE cells: in window
    order, as many trials per plan as keep its array within _PLAN_CELLS
    cells under each such measure (2**19 cells: 256 trials of 2048
    cells, or more of fewer), so a site count takes several plans only
    when its trials pass that cap. Each such measure sums each plan by
    _batch_sums, as one array, and the plan's monomial rows are built
    for that call and dropped when it returns. Under a measure with a
    larger enumeration each trial is summed alone by _gibbs_sums. A trial whose float sums under either measure raise
    NumericError keeps NaN sums, which prove nothing, so the exact sums
    raise at its turn. The window's sums go through one _estimate, with
    each trial's P formed for the window from the measure's largest
    |atom|, and one _proven_pass.
    """
    free = set()
    if free_sites_vanish:
        free = {position for position, (_, terms, B) in enumerate(window) if not set(B) <= set().union(*terms)}
    groups: dict[int, list[int]] = {}
    for position, (n, _, _) in enumerate(window):
        if position not in free:
            groups.setdefault(n, []).append(position)
    # Z and N of each trial under mu (rows 0, 1) and nu (rows 2, 3).
    sums = np.full((4, len(window)), np.nan)
    sites = np.array([n for n, _, _ in window])
    sizes = np.array([len(B) for _, _, B in window])
    cells = np.stack([len(measure.atoms) ** sites for measure in (mu, nu)])
    # Overflowing monomials and sums out of the bound's range may divide
    # by zero or give inf - inf; _proven_pass holds on none of them.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # Each trial's P under each measure: the float product of |B|
        # copies of the largest |atom|, multiplied in sequence.
        P = np.stack([np.cumprod([1.0] + [measure.largest] * sizes.max())[sizes] for measure in (mu, nu)])
        for n, positions in groups.items():
            batched = {row: measure for row, measure in ((0, mu), (2, nu))
                       if len(measure.atoms) ** n <= _BATCH_MAX_SIZE}
            if batched:
                # Each plan's array holds at most _PLAN_CELLS cells under
                # each measure that sums it.
                step = _PLAN_CELLS // max(len(measure.atoms) ** n for measure in batched.values())
                for first in range(0, len(positions), step):
                    plan = _plan(n, window, positions[first:first + step])
                    for row, measure in batched.items():
                        sums[row:row + 2, plan.positions] = _batch_sums(measure, plan, _row_sums)
            for row, measure in ((0, mu), (2, nu)):
                if row in batched:
                    continue
                for position in positions:
                    _, terms, B = window[position]
                    lattice, couplings = Lattice.of_size(n), CouplingSet.from_dict(terms)
                    with contextlib.suppress(NumericError):
                        sums[row:row + 2, position] = _gibbs_sums(lattice, couplings, measure, tuple(B), _float_sum)
        (q_mu, q_nu), (e_mu, e_nu) = _estimate(sums[0::2], sums[1::2], P, cells)
        return free.union(np.flatnonzero(_proven_pass(q_mu, e_mu, q_nu, e_nu, tol)).tolist())


def random_probe(
    config: ProbeConfig, mu: MeasureLike, nu: MeasureLike
) -> VerificationReport:
    """Sample random ferromagnetic instances and check domination on each.

    Deterministic for a given seed: trials are drawn in sequence, _WINDOW
    (2048) at a time, and their verdicts are reported in trial order. In
    each window the passes that _proven_trials proves, by the exact zero
    rule or from float sums, are settled together; every other trial (a
    witness, a near-tie, or one whose sums leave the bound's range or
    raise) goes through domination_check, one at a time and in trial
    order, so a witness carries its exact-sum lhs and rhs and an error
    is raised at the trial that raises it. Violations are reported with
    the full serialized instance as witness; with zero violations and
    zero trials the result is an empty pass. Each measure's enumeration
    tables are built once and shared by every trial, the small trials of
    one site count in a window are described by _Plans of at most
    _PLAN_CELLS cells per measure, each plan read by both measures and
    summed as one array under each, and a site cap whose largest
    instance would exceed CONFIG_CAP for either measure is refused
    before any trial. Whether the exact zero rule applies is
    decided once, for both measures and the site cap.
    """
    rng = random.Random(config.seed)
    mu, nu = _PreparedMeasure(mu), _PreparedMeasure(nu)
    for prepared in (mu, nu):
        _check_cap(len(prepared.atoms), config.site_cap)
    free_sites_vanish = mu.free_sites_vanish(config.site_cap) and nu.free_sites_vanish(config.site_cap)
    witnesses = []
    for first in range(0, config.trials, _WINDOW):
        window = [_draw_trial(rng, config.site_cap) for _ in range(first, min(first + _WINDOW, config.trials))]
        proven = _proven_trials(window, mu, nu, config.tol, free_sites_vanish)
        for position, (n, terms, B) in enumerate(window):
            if position in proven:
                continue
            sites = tuple(range(n))
            couplings = CouplingSet.from_dict(terms)
            res = domination_check(Lattice(sites), couplings, mu, nu, B, tol=config.tol)
            if not res.holds:
                witnesses.append({
                    "trial": first + position, "lhs": res.lhs, "rhs": res.rhs, "sites": list(sites),
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
