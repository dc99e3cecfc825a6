"""The operation list of each workload, built from the benchmark seed.

An operation is one `wells-majorize` invocation: its argument vector plus
what the independent checks need to know about its inputs (the measure's
atoms, the grid preset, the probe pair). The same seed always yields the
same list, and every pass of a run executes the whole list.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

WORKLOADS = ("threshold", "sweep", "probe")

DEFAULT_TOL = "1/1000000"  # the CLI's default --tol
DEEP_N_MAX, DEEP_TOL = 200, "1/10000000000"
THRESHOLD_SPINS = ("1/2", "1", "3/2", "2", "5/2", "3", "7/2", "4")
DEEP_LAMBDAS = ("1/4", "1/10")
# The mu-lambda presets run at n-max 40, 50 and 60, so that the middle of
# the latency distribution is a dense band of fixed operations and
# op_ms_p50 does not hinge on which random measures a seed draws. (With
# n-max 50 and 60 only, the median sat at the top edge of the band.)
LAMBDA_N_MAX = (40, 50, 60)
# Random measures per count of atom pairs; half of each stratum carries a
# zero atom. Stratifying keeps the cost of the list nearly the same from
# seed to seed (t-minus cost grows with the number of atoms).
RANDOM_PER_STRATUM = 3
RANDOM_PAIR_COUNTS = (2, 3, 4, 5)
# A fixed measure whose threshold is not s* = min(second moment,
# (max v^2 + min v^2) / 2): an intermediate moment order binds, so a
# rational fast path at s* must fall back to root isolation. About 2% of
# the random measures are like this (11 of 600 over seeds 1..50), too few
# to count on in every list. (value, weight) of the positive atoms.
FALLBACK_ATOMS = (("2/11", "3/22"), ("3/4", "3/11"), ("1", "1/11"))

CONJECTURE_TABLES = (("10", 8, "json"), ("20", 10, "csv"), ("41/2", 15, "text"),
                     ("50", 20, "json"), ("100", 30, "json"))
PSI_PRESETS = ("square", "abs", "quartic")
# (base N, phi power); the seed adds 0..3 to N, which moves the parity of
# N and so whether the odd-N midpoint condition is exercised.
THEOREM_SIZES = ((40, 2), (100, 3), (200, 5))
TC_SPINS = ("1", "7/2")
# Twelve majorize calls of near-equal cost put a dense band of operations
# at the middle of the latency distribution, so that op_ms_p50 does not
# hinge on which side of a gap between other operations a seed's list
# puts its median.
MAJORIZE_PAIRS = 12
MAJORIZE_LENGTH = 120
SMALL_PROBES = (("1/2", 4, 60), ("3/2", 3, 60), ("2", 4, 40), ("5/2", 3, 60),
                ("3", 4, 30), ("4", 3, 40))

# Large enumerations. The probe seeds are fixed, not drawn from the
# benchmark seed: the cost of a probe is dominated by its site-cap-sized
# instances, whose count is binomial in the trial count, so seeded probe
# seeds made the volume of this list vary by about 12% between seeds.
# (pair spin, site cap, trials, probe seeds)
LARGE_PROBES = (("1/2", 7, 1200, (101, 102)), ("3/2", 7, 400, (103, 104)),
                ("2", 7, 100, (105, 106)), ("5/2", 7, 30, (107, 108)),
                ("3", 6, 80, (109, 110)), ("4", 6, 24, (111, 112)))
# T- of the mu-lambda:1/4 measure is 1/2 < 1, so the two-point measure at
# +-1 is not dominated: the correct verdict is fail, with witnesses.
FAIL_PAIR = ("bernoulli:1,mu-lambda:1/4", 6, 200)
FAIL_PAIR_RUNS = 2


@dataclass
class Op:
    """One CLI invocation and the facts its check needs."""

    kind: str
    argv: list[str]
    fmt: str
    info: dict[str, Any] = field(default_factory=dict)


def spin_atoms(S: Fraction) -> list[tuple[Fraction, Fraction]]:
    """2S+1 equally weighted atoms, equally spaced in [-1, 1]."""
    count = int(2 * S) + 1
    return [(Fraction(-1) + Fraction(2 * i, count - 1), Fraction(1, count)) for i in range(count)]


def mu_lambda_atoms(lam: Fraction) -> list[tuple[Fraction, Fraction]]:
    atoms = [(Fraction(1), lam / 2), (Fraction(-1), lam / 2)]
    if lam < 1:
        atoms.append((Fraction(0), 1 - lam))
    return atoms


def random_measure(rng: random.Random, pairs: int, zero: bool) -> list[tuple[Fraction, Fraction]]:
    """Even measure with `pairs` atom pairs +-p/q (p, q <= 12) and integer
    weights 1..6, normalized, plus an optional zero atom."""
    values: set[Fraction] = set()
    while len(values) < pairs:
        values.add(Fraction(rng.randint(1, 12), rng.randint(1, 12)))
    weights = [rng.randint(1, 6) for _ in range(pairs)]
    zero_weight = rng.randint(1, 6) if zero else 0
    total = 2 * sum(weights) + zero_weight
    atoms = []
    for v, w in zip(sorted(values), weights):
        atoms += [(v, Fraction(w, total)), (-v, Fraction(w, total))]
    if zero:
        atoms.append((Fraction(0), Fraction(zero_weight, total)))
    return atoms


def _t_minus(measure: str, atoms, n_max: int, closed_sq: Fraction | None,
             tol: str = DEFAULT_TOL) -> Op:
    argv = ["t-minus", "--measure", measure, "--n-max", str(n_max)]
    if tol != DEFAULT_TOL:
        argv += ["--tol", tol]
    return Op("t-minus", argv + ["--format", "json"], "json",
              {"atoms": atoms, "n_max": n_max, "tol": Fraction(tol), "closed_sq": closed_sq})


def threshold_ops(rng: random.Random, input_dir: Path) -> list[Op]:
    ops = []
    for s in THRESHOLD_SPINS:
        S = Fraction(s)
        closed = Fraction(1, 2) if S == 1 else Fraction(1, 3) + 1 / (3 * S)
        ops.append(_t_minus(f"preset:spin:{s}", spin_atoms(S), 50, closed))
    for n_max in LAMBDA_N_MAX:
        for k in range(1, 11):
            lam = Fraction(k, 10)
            closed = Fraction(1) if lam == 1 else min(lam, Fraction(1, 2))
            ops.append(_t_minus(f"preset:mu-lambda:{k}/10", mu_lambda_atoms(lam), n_max, closed))
    input_dir.mkdir(parents=True, exist_ok=True)
    index = 0
    for pairs in RANDOM_PAIR_COUNTS:
        for i in range(RANDOM_PER_STRATUM):
            atoms = random_measure(rng, pairs, zero=i % 2 == 0)
            path = input_dir / f"measure-{index:02d}.json"
            path.write_text(json.dumps({"atoms": [[str(v), str(w)] for v, w in atoms]}))
            ops.append(_t_minus(str(path), atoms, 50, None))
            index += 1
    atoms = [(sign * Fraction(v), Fraction(w)) for v, w in FALLBACK_ATOMS for sign in (1, -1)]
    path = input_dir / "measure-fallback.json"
    path.write_text(json.dumps({"atoms": [[str(v), str(w)] for v, w in atoms]}))
    ops.append(_t_minus(str(path), atoms, 50, None))
    for lam in DEEP_LAMBDAS:
        L = Fraction(lam)
        ops.append(_t_minus(f"preset:mu-lambda:{lam}", mu_lambda_atoms(L), DEEP_N_MAX,
                            min(L, Fraction(1, 2)), DEEP_TOL))
    return ops


def _vector_literal(values) -> str:
    return ",".join(str(v) for v in values)


def majorize_pair(rng: random.Random, length: int) -> tuple[list[Fraction], list[Fraction]]:
    """y is random; x is y after random transfers from a smaller entry to a
    larger one (so x majorizes y) or, for half the draws on average, after
    transfers in random directions (so it may not)."""
    y = [Fraction(rng.randint(0, 40), rng.randint(1, 6)) for _ in range(length)]
    x = list(y)
    towards_larger = rng.random() < 0.5
    for _ in range(length):
        i, j = rng.sample(range(length), 2)
        if towards_larger and x[i] < x[j]:
            i, j = j, i  # move mass from j (smaller) to i (larger)
        amount = x[j] * Fraction(rng.randint(1, 4), 4)
        x[i] += amount
        x[j] -= amount
    return x, y


def sweep_ops(rng: random.Random) -> list[Op]:
    ops = []
    for s_max, m_max, fmt in CONJECTURE_TABLES:
        ops.append(Op("verify-conjecture",
                      ["verify-conjecture", "--s-max", s_max, "--m-max", str(m_max), "--format", fmt],
                      fmt, {"s_max": Fraction(s_max), "m_max": m_max, "sample_seed": rng.randrange(2**31)}))
    formats = ("json", "csv", "text")
    for variant in ("integer", "half-odd"):
        for p_index, psi in enumerate(PSI_PRESETS):
            for s_index, (base, power) in enumerate(THEOREM_SIZES):
                N = base + rng.randint(0, 3)
                fmt = formats[(p_index + s_index) % 3] if base == THEOREM_SIZES[0][0] else "json"
                ops.append(Op("theorem",
                              ["theorem", variant, "--psi", psi, "--n", str(N),
                               "--phi-power", str(power), "--format", fmt],
                              fmt, {"variant": variant, "psi": psi, "N": N, "phi_power": power}))
    for _ in range(MAJORIZE_PAIRS):
        x, y = majorize_pair(rng, MAJORIZE_LENGTH)
        ops.append(Op("majorize",
                      ["majorize", "--x", _vector_literal(x), "--y", _vector_literal(y), "--format", "json"],
                      "json", {"x": x, "y": y}))
    for i, s in enumerate(TC_SPINS):
        fmt = "text" if i == 0 else "json"
        ops.append(Op("tc-bounds", ["tc-bounds", "--s", s, "--format", fmt], fmt, {"S": Fraction(s)}))
    for s, cap, trials in SMALL_PROBES:
        ops.append(_probe(f"bernoulli-rms:{s},spin:{s}", cap, trials, rng.randrange(2**31), "pass"))
    return ops


def _probe(pair: str, cap: int, trials: int, seed: int, expect: str) -> Op:
    argv = ["probe", "--pair", pair, "--trials", str(trials), "--site-cap", str(cap),
            "--seed", str(seed), "--format", "json"]
    return Op("probe", argv, "json", {"pair": pair, "trials": trials, "expect": expect})


def probe_ops(rng: random.Random) -> list[Op]:
    ops = []
    for s, cap, trials, seeds in LARGE_PROBES:
        for seed in seeds:
            ops.append(_probe(f"bernoulli-rms:{s},spin:{s}", cap, trials, seed, "pass"))
    pair, cap, trials = FAIL_PAIR
    for _ in range(FAIL_PAIR_RUNS):
        ops.append(_probe(pair, cap, trials, rng.randrange(2**31), "fail"))
    return ops


def build(workload: str, seed: int, input_dir: Path) -> list[Op]:
    """The full operation list of a workload; writes measure files."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "threshold":
        return threshold_ops(rng, input_dir)
    if workload == "sweep":
        return sweep_ops(rng)
    if workload == "probe":
        return probe_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


# One small call per subcommand a workload uses, run during set-up.
WARMUP = {
    "threshold": [["t-minus", "--measure", "preset:mu-lambda:1/2", "--n-max", "8", "--format", "json"]],
    "sweep": [
        ["verify-conjecture", "--s-max", "2", "--m-max", "2", "--format", "json"],
        ["theorem", "integer", "--n", "4", "--format", "json"],
        ["majorize", "--x", "2,0", "--y", "1,1", "--format", "json"],
        ["tc-bounds", "--s", "2", "--format", "json"],
        ["probe", "--pair", "bernoulli-rms:2,spin:2", "--trials", "2", "--site-cap", "2", "--format", "json"],
    ],
    "probe": [["probe", "--pair", "bernoulli-rms:2,spin:2", "--trials", "2", "--site-cap", "2", "--format", "json"]],
}
