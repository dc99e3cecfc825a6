"""Independent checks of every operation's output.

Each check recomputes the claim from its definition with this file's own
arithmetic (integers and `Fraction`, plain-Python enumeration for Gibbs
expectations) and never compares against stored output. A check returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import re
from fractions import Fraction
from typing import Any

from oplist import mu_lambda_atoms, spin_atoms

EXIT_CODES = {"pass": 0, "fail": 1, "inconclusive": 3, "hypothesis_not_met": 3}
PROBE_TOL = 1e-9
REL_TOL = 1e-12


# --- reading a report in any of the three formats --------------------------

_PATH_TOKEN = re.compile(r"([^.\[\]]+)|\[(\d+)\]")


def _unflatten(rows: list[tuple[str, str]]) -> dict[str, Any]:
    """Rebuild nested data from "a.b[0].c" keys (csv and text formats)."""
    root: dict[str, Any] = {}
    for key, value in rows:
        tokens = [name or int(index) for name, index in _PATH_TOKEN.findall(key)]
        node: Any = root
        for token, nxt in zip(tokens, tokens[1:]):
            empty = [] if isinstance(nxt, int) else {}
            if isinstance(token, int):
                node.extend([None] * (token + 1 - len(node)))
                if node[token] is None:
                    node[token] = empty
                node = node[token]
            else:
                node = node.setdefault(token, empty)
        if isinstance(tokens[-1], int):
            node.extend([None] * (tokens[-1] + 1 - len(node)))
        node[tokens[-1]] = value
    return root


def parse_report(text: str, fmt: str) -> dict[str, Any]:
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["key", "value"]:
            raise ValueError("csv report lacks its key,value header")
        return _unflatten([(k, v) for k, v in rows[1:]])
    rows = []
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"text report line without a key: {line!r}")
        rows.append((key, value))
    return _unflatten(rows)


def normalized(text: str, fmt: str) -> str:
    """Output with the timing stripped: equal outputs get equal verdicts."""
    if fmt == "json":
        data = json.loads(text)
        data.pop("timing_ms", None)
        return json.dumps(data, sort_keys=True)
    prefix = "timing_ms," if fmt == "csv" else "timing_ms: "
    return "\n".join(line for line in text.splitlines() if not line.startswith(prefix))


def frac(value: Any) -> Fraction:
    return Fraction(str(value))


def is_true(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if str(value) not in ("True", "False", "true", "false"):
        raise ValueError(f"not a boolean: {value!r}")
    return str(value) in ("True", "true")


def _status(report: dict, exit_code: int, problems: list[str]) -> str:
    status = report.get("status")
    if EXIT_CODES.get(status) != exit_code:
        problems.append(f"exit code {exit_code} does not match status {status!r}")
    return status


# --- t-minus -----------------------------------------------------------------

def _integer_terms(atoms, s: Fraction):
    """Integer form of the centered moments at s = p/q.

    With v^2 = a/D, w = c/W and s = p/q, (qD)^n W P_n(s) = sum c (a q - p D)^n,
    so each moment has the sign of an integer power sum. Returns the
    (c, a q - p D) pairs.
    """
    D = math.lcm(*((v * v).denominator for v, _ in atoms))
    W = math.lcm(*(w.denominator for _, w in atoms))
    p, q = s.numerator, s.denominator
    return [(int(w * W), int(v * v * D) * q - p * D) for v, w in atoms]


def moments_pass(atoms, s: Fraction, n_max: int) -> bool:
    """Every centered moment of order 1..n_max at s is >= 0."""
    terms = _integer_terms(atoms, s)
    powers = [c for c, _ in terms]
    for _ in range(n_max):
        powers = [pw * d for pw, (_, d) in zip(powers, terms)]
        if sum(powers) < 0:
            return False
    return True


def tail_passes(atoms, s: Fraction) -> bool:
    """Large odd n: the atoms farthest from s dominate; the negative side
    must not win by magnitude, nor tie with more weight."""
    terms = _integer_terms(atoms, s)
    top_pos = max((d for _, d in terms if d > 0), default=0)
    top_neg = max((-d for _, d in terms if d < 0), default=0)
    if top_neg > top_pos:
        return False
    if top_neg == top_pos and top_neg > 0:
        w_pos = sum(c for c, d in terms if d == top_pos)
        w_neg = sum(c for c, d in terms if d == -top_neg)
        return w_pos >= w_neg
    return True


def check_t_minus(info: dict, report: dict, exit_code: int) -> list[str]:
    problems: list[str] = []
    status = _status(report, exit_code, problems)
    if status != "pass":
        problems.append(f"status {status!r}, expected pass")
    d = report["details"]
    atoms, n_max, tol = info["atoms"], info["n_max"], info["tol"]
    lo, hi = frac(d["t_minus_lo"]), frac(d["t_minus_hi"])
    top = max(abs(v) for v, _ in atoms)
    closed_point = d["status"] == "closed_form"
    if lo > hi:
        problems.append("empty bracket")
    if closed_point and lo != hi:
        problems.append("closed-form bracket is not a point")
    if not closed_point and hi - lo > tol:
        problems.append(f"bracket width {hi - lo} exceeds tol {tol}")
    if not (moments_pass(atoms, lo * lo, n_max) and tail_passes(atoms, lo * lo)):
        problems.append("s = lo^2 fails a centered moment or the tail condition")
    if hi < top and moments_pass(atoms, hi * hi, n_max) and tail_passes(atoms, hi * hi):
        problems.append("s = hi^2 passes every condition although hi < max|atom|")
    closed = info.get("closed_sq")
    if closed is not None and not lo * lo <= closed <= hi * hi:
        problems.append(f"bracket [{lo}^2, {hi}^2] misses the closed form {closed}")
    second = sum((w * v * v for v, w in atoms), Fraction(0))
    if frac(d["second_moment"]) != second:
        problems.append(f"second_moment {d['second_moment']} != {second}")
    if is_true(d["canonical_up_to_n_max"]) != moments_pass(atoms, second, n_max):
        problems.append("canonical_up_to_n_max disagrees with the moment test at the second moment")
    return problems


# --- verify-conjecture ---------------------------------------------------------

def spin_sum_definition(S: Fraction, m: int) -> Fraction:
    """sum over j = -S, -S+1, ..., S of (3 j^2 - S(S+1))^(2m+1)."""
    steps = int(2 * S)
    c = S * (S + 1)
    return sum(((3 * (-S + t) ** 2 - c) ** (2 * m + 1) for t in range(steps + 1)), Fraction(0))


CONJECTURE_SAMPLE = 12


def check_verify_conjecture(info: dict, report: dict, exit_code: int) -> list[str]:
    problems: list[str] = []
    status = _status(report, exit_code, problems)
    if status != "pass":
        problems.append(f"status {status!r}, expected pass")
    table = report["details"]["table"]
    s_max, m_max = info["s_max"], info["m_max"]
    if len(table) != int(2 * s_max):
        problems.append(f"{len(table)} rows, expected {int(2 * s_max)}")
    cells = []
    for i, row in enumerate(table):
        S = frac(row["S"])
        if S != Fraction(i + 1, 2):
            problems.append(f"row {i} has S = {S}")
        values = row["values"]
        if len(values) != m_max:
            problems.append(f"row S = {S} has {len(values)} values, expected {m_max}")
        for m, raw in enumerate(values, start=1):
            value = frac(raw)
            if S == 1 and not value < 0:
                problems.append(f"S = 1, m = {m}: {value} is not negative")
            elif S != 1 and value < 0:
                problems.append(f"S = {S}, m = {m}: {value} is negative")
            cells.append((S, m, value))
    for S, m, value in random.Random(info["sample_seed"]).sample(cells, min(CONJECTURE_SAMPLE, len(cells))):
        if spin_sum_definition(S, m) != value:
            problems.append(f"S = {S}, m = {m}: {value} differs from the definition")
    return problems


# --- theorem -------------------------------------------------------------------

PSI = {
    "square": lambda N, t: (N * t) ** 2,
    "abs": lambda N, t: abs(N * t),
    "quartic": lambda N, t: (N * t) ** 4,
}


def grid_values(psi: str, N: int, variant: str) -> list[Fraction]:
    low = 0 if variant == "half-odd" else -N
    return [Fraction(PSI[psi](N, Fraction(j, N))) for j in range(low, N + 1)]


def integer_hypotheses(values: list[Fraction], N: int, mean: Fraction) -> tuple[bool, bool]:
    """Leading-block condition 2 psi(1) + psi(0) + 2 psi(1/N) >= 5 mean and,
    for odd N, the midpoint condition psi((N+1)/(2N)) <= mean."""
    at = lambda j: values[j + N]  # noqa: E731 - index j in -N..N
    block = 2 * at(N) + at(0) + 2 * at(1) >= 5 * mean
    midpoint = at((N + 1) // 2) <= mean if N % 2 == 1 else True
    return block, midpoint


def check_theorem(info: dict, report: dict, exit_code: int) -> list[str]:
    problems: list[str] = []
    status = _status(report, exit_code, problems)
    N, variant = info["N"], info["variant"]
    values = grid_values(info["psi"], N, variant)
    mean = sum(values, Fraction(0)) / len(values)
    d = report["details"]
    if variant == "integer":
        block, midpoint = integer_hypotheses(values, N, mean)
        expected = "pass" if block and midpoint else "hypothesis_not_met"
        if status != expected:
            problems.append(f"status {status!r}, expected {expected!r}")
        if status == "hypothesis_not_met":
            if is_true(d["leading_block"]) != block or is_true(d["odd_midpoint"]) != midpoint:
                problems.append("reported hypothesis flags disagree with the grid")
            return problems
    elif status != "pass":
        problems.append(f"status {status!r}, expected pass")
    exponent = 2 * info["phi_power"] + 1
    centered = sum(((v - mean) ** exponent for v in values), Fraction(0))
    reported = frac(d["centered_sum"])
    if reported != centered:
        problems.append(f"centered_sum {reported} != {centered}")
    if reported < 0:
        problems.append(f"centered_sum {reported} is negative")
    return problems


# --- majorize and tc-bounds ------------------------------------------------------

def majorizes(x: list[Fraction], y: list[Fraction]) -> bool:
    """Equal totals, and every partial sum of x sorted decreasingly is at
    least the matching partial sum of y sorted decreasingly."""
    xs, ys = sorted(x, reverse=True), sorted(y, reverse=True)
    if sum(xs) != sum(ys):
        return False
    px = py = Fraction(0)
    for a, b in zip(xs, ys):
        px, py = px + a, py + b
        if px < py:
            return False
    return True


def check_majorize(info: dict, report: dict, exit_code: int) -> list[str]:
    problems: list[str] = []
    status = _status(report, exit_code, problems)
    expected = majorizes(info["x"], info["y"])
    if is_true(report["details"]["majorizes"]) != expected or status != ("pass" if expected else "fail"):
        problems.append(f"verdict {status!r} but the partial-sum test says {expected}")
    return problems


def check_tc_bounds(info: dict, report: dict, exit_code: int) -> list[str]:
    problems: list[str] = []
    status = _status(report, exit_code, problems)
    S = info["S"]
    expected = Fraction(2) if S == 1 else 4 * (Fraction(1, 3) + 1 / (3 * S))
    if frac(report["details"]["improvement"]) != expected:
        problems.append(f"improvement {report['details']['improvement']} != {expected}")
    if status != "pass":
        problems.append(f"status {status!r}, expected pass")
    return problems


# --- probe -----------------------------------------------------------------------

def probe_atoms(token: str) -> list[tuple[float, float]]:
    """Float support of a probe measure token, from its definition."""
    family, _, param = token.partition(":")
    if family == "bernoulli-rms":
        S = Fraction(param)
        T = math.sqrt(float(Fraction(1, 3) + 1 / (3 * S)))
        return [(T, 0.5), (-T, 0.5)]
    if family == "bernoulli":
        T = float(Fraction(param))
        return [(T, 0.5), (-T, 0.5)]
    if family == "spin":
        return [(float(v), float(w)) for v, w in spin_atoms(Fraction(param))]
    if family == "mu-lambda":
        return [(float(v), float(w)) for v, w in mu_lambda_atoms(Fraction(param))]
    raise ValueError(f"unknown probe measure {token!r}")


def gibbs_reference(sites: int, couplings, atoms, B) -> float:
    """<sigma^B> by plain enumeration of every configuration."""
    numerator, partition = [], []
    for config in itertools.product(range(len(atoms)), repeat=sites):
        spins = [atoms[i][0] for i in config]
        prior = math.prod(atoms[i][1] for i in config)
        energy = -sum(J * math.prod(spins[s] for s in subset) for subset, J in couplings)
        weight = prior * math.exp(-energy)
        partition.append(weight)
        numerator.append(math.prod(spins[s] for s in B) * weight)
    return math.fsum(numerator) / math.fsum(partition)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_probe(info: dict, report: dict, exit_code: int) -> list[str]:
    problems: list[str] = []
    status = _status(report, exit_code, problems)
    passes = int(report["details"]["passes"])
    witnesses = report["witnesses"]
    trials = info["trials"]
    if info["expect"] == "pass":
        if status != "pass" or passes != trials or witnesses:
            problems.append(f"status {status!r} with {passes}/{trials} passes, expected a clean pass")
        return problems
    if status != "fail" or not witnesses:
        problems.append(f"status {status!r} with {len(witnesses)} witnesses, expected fail")
    if passes + len(witnesses) != trials:
        problems.append(f"{passes} passes + {len(witnesses)} witnesses != {trials} trials")
    mu, nu = (probe_atoms(t) for t in info["pair"].split(","))
    for wit in witnesses:
        couplings = [(tuple(subset), float(J)) for subset, J in wit["couplings"]]
        sites = len(wit["sites"])
        if wit["sites"] != list(range(sites)):
            problems.append(f"trial {wit['trial']}: sites {wit['sites']} are not 0..n-1")
            continue
        lhs = gibbs_reference(sites, couplings, mu, wit["B"])
        rhs = gibbs_reference(sites, couplings, nu, wit["B"])
        if not lhs > rhs + PROBE_TOL:
            problems.append(f"trial {wit['trial']}: recomputed {lhs} <= {rhs} + tol, no violation")
        if not (close(lhs, wit["lhs"]) and close(rhs, wit["rhs"])):
            problems.append(f"trial {wit['trial']}: reported lhs/rhs differ from the enumeration")
    return problems


CHECKS = {
    "t-minus": check_t_minus,
    "verify-conjecture": check_verify_conjecture,
    "theorem": check_theorem,
    "majorize": check_majorize,
    "tc-bounds": check_tc_bounds,
    "probe": check_probe,
}


def check(op, exit_code: int, text: str) -> list[str]:
    """Problems with one operation's output; any exception is a problem."""
    try:
        report = parse_report(text, op.fmt)
        return CHECKS[op.kind](op.info, report, exit_code)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]


# --- oracle cross-check -------------------------------------------------------------

def oracle_cross_check(seed: int, count: int = 24) -> list[str]:
    """Compare oracle.gibbs_expectation with the plain enumeration on
    seeded small instances, to 1e-12 relative."""
    from wells_majorize.oracle import CouplingSet, Lattice, gibbs_expectation
    rng = random.Random(f"oracle:{seed}")
    tokens = ["spin:1/2", "spin:1", "spin:3/2", "spin:2", "mu-lambda:1/4", "bernoulli-rms:3/2"]
    problems = []
    for i in range(count):
        sites = rng.randint(1, 4)
        atoms = probe_atoms(rng.choice(tokens))
        terms = {}
        for _ in range(rng.randint(1, 2 * sites)):
            subset = tuple(sorted(rng.sample(range(sites), rng.randint(1, min(3, sites)))))
            terms[subset] = terms.get(subset, 0.0) + rng.uniform(0.0, 2.0)
        B = sorted(rng.sample(range(sites), rng.randint(1, sites)))
        program = gibbs_expectation(Lattice(tuple(range(sites))), CouplingSet.from_dict(terms), atoms, B)
        reference = gibbs_reference(sites, list(terms.items()), atoms, B)
        if not close(program, reference):
            problems.append(f"instance {i}: gibbs_expectation {program} != enumeration {reference}")
    return problems
