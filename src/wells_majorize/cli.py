"""Command-line front end: every verifier as a subcommand with
machine-readable output.

Exit codes: 0 = pass, 1 = the checked inequality failed, 2 = usage or
validation error, 3 = inconclusive or hypotheses not met. Exact rationals
are always serialized as "p/q" strings, never floats.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import oracle, wells
from .errors import ResourceLimitError, VerificationError
from .majorize import NonNegVector, OddConvexFunction, majorizes, partial_sums, single_crossing_majorizes
from .oracle import MeasureLike, ProbeConfig, bernoulli_float_atoms, random_probe
from .rationals import parse_rational, parse_rational_vector
from .report import FAIL, PASS, VerificationReport
from .spin_sums import (
    HALF_ODD,
    INTEGER,
    PsiGrid,
    SpinValue,
    verify_conjecture,
    verify_half_odd_theorem,
    verify_integer_theorem,
)
from .wells import (
    DiscreteMeasure,
    bernoulli_measure,
    canonical_gap,
    mu_lambda_measure,
    spin_measure,
    spin_second_moment,
    t_minus_squared_mu_lambda,
    tc_bounds,
)

USAGE_EXIT = 2


def _capped_spin(param: str) -> SpinValue:
    """The spin of a spin or bernoulli-rms token, refused when its 2S+1
    atoms exceed oracle.CONFIG_CAP, before any atom is built."""
    S = SpinValue.parse(param)
    if S.twice + 1 > oracle.CONFIG_CAP:
        raise ResourceLimitError(f"spin measure has 2S+1 > {oracle.CONFIG_CAP} atoms")
    return S


def parse_measure(spec: str) -> DiscreteMeasure:
    """A measure literal: preset:<family>:<param> or a JSON file path."""
    if spec.startswith("preset:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise VerificationError(f"bad preset {spec!r}, expected preset:<family>:<param>")
        _, family, param = parts
        if family == "mu-lambda":
            return mu_lambda_measure(parse_rational(param))
        if family == "spin":
            return spin_measure(_capped_spin(param))
        if family == "bernoulli":
            return bernoulli_measure(parse_rational(param))
        raise VerificationError(f"unknown preset family {family!r}")
    path = Path(spec)
    if not path.exists():
        raise VerificationError(f"measure file not found: {spec}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise VerificationError(f"cannot read measure file {spec}: {exc}") from exc
    return DiscreteMeasure.from_json(text)


def parse_probe_measure(token: str) -> MeasureLike:
    """Probe-side measure token; also supports bernoulli-rms:<S>, the
    two-point measure at the RMS magnitude of the spin-S measure."""
    token = token.removeprefix("preset:")
    family, _, param = token.partition(":")
    if family not in ("spin", "bernoulli-rms"):
        return parse_measure(f"preset:{token}")
    S = _capped_spin(param)
    if family == "spin":
        return spin_measure(S)
    return bernoulli_float_atoms(math.sqrt(float(spin_second_moment(S))))


# Grid presets psi(t) = |N t|**p, by their power p.
PSI_POWERS = {"square": 2, "abs": 1, "quartic": 4}


def cmd_verify_conjecture(args: argparse.Namespace) -> VerificationReport:
    return verify_conjecture(SpinValue.parse(args.s_max), args.m_max)


def cmd_t_minus(args: argparse.Namespace) -> VerificationReport:
    mu = parse_measure(args.measure)
    tol = parse_rational(args.tol)
    gap = canonical_gap(mu, n_max=args.n_max, tol=tol)
    bracket = gap.bracket
    details = {
        "t_minus_lo": bracket.lo,
        "t_minus_hi": bracket.hi,
        "status": bracket.status,
        "n_max_checked": bracket.n_max_checked,
        "second_moment": gap.second_moment,
        "canonical_up_to_n_max": gap.canonical_up_to_n_max,
    }
    status = PASS
    witnesses = []
    if args.measure.startswith("preset:mu-lambda:"):
        lam = parse_rational(args.measure.split(":")[2])
        closed_sq = t_minus_squared_mu_lambda(lam)
        details["closed_form_t_minus_sq"] = closed_sq
        # The bracket must straddle the closed-form threshold.
        if not (bracket.lo**2 <= closed_sq <= bracket.hi**2):
            status = FAIL
            witnesses.append({"reason": "bracket misses closed form", "closed_sq": closed_sq})
    return VerificationReport(
        command="t-minus",
        status=status,
        parameters={"measure": args.measure, "n_max": args.n_max, "tol": tol},
        details=details,
        witnesses=witnesses,
    )


def cmd_majorize(args: argparse.Namespace) -> VerificationReport:
    x = NonNegVector(parse_rational_vector(args.x))
    y = NonNegVector(parse_rational_vector(args.y))
    holds = majorizes(x, y)
    details = {
        "majorizes": holds,
        "partial_sums_x": partial_sums(x),
        "partial_sums_y": partial_sums(y),
    }
    if x.total() == y.total():
        crossing = single_crossing_majorizes(x, y)
        details["single_crossing_applies"] = crossing.applies
        details["crossing_index"] = crossing.crossing_index
    return VerificationReport(
        command="majorize",
        status=PASS if holds else FAIL,
        parameters={"x": x, "y": y},
        details=details,
        witnesses=[] if holds else [{"reason": "partial sums do not dominate"}],
    )


def cmd_probe(args: argparse.Namespace) -> VerificationReport:
    tokens = args.pair.split(",")
    if len(tokens) != 2:
        raise VerificationError("--pair expects two comma-separated measure tokens")
    mu = parse_probe_measure(tokens[0])
    nu = parse_probe_measure(tokens[1])
    config = ProbeConfig(seed=args.seed, trials=args.trials, site_cap=args.site_cap, tol=args.tol)
    report = random_probe(config, mu, nu)
    report.parameters["pair"] = args.pair
    return report


def cmd_tc_bounds(args: argparse.Namespace) -> VerificationReport:
    S = SpinValue.parse(args.s)
    bounds = tc_bounds(S)
    ok = bounds.improvement > Fraction(4, 3)
    return VerificationReport(
        command="tc-bounds",
        status=PASS if ok else FAIL,
        parameters={"S": S.as_fraction},
        details={
            "griffiths": bounds.griffiths,
            "msw": bounds.msw,
            "improvement": bounds.improvement,
        },
        witnesses=[] if ok else [{"reason": "improvement ratio <= 4/3"}],
    )


def cmd_theorem(args: argparse.Namespace) -> VerificationReport:
    if args.psi not in PSI_POWERS:
        raise VerificationError(f"unknown psi preset {args.psi!r}")
    N, power = args.n, PSI_POWERS[args.psi]
    grid = PsiGrid.from_function(lambda t: abs(N * t) ** power, N, args.variant)
    phi = OddConvexFunction.power(args.phi_power)
    if args.variant == HALF_ODD:
        report = verify_half_odd_theorem(grid, phi)
    else:
        report = verify_integer_theorem(grid, phi)
    report.parameters.update({"psi": args.psi, "phi_power": args.phi_power})
    return report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="wells-majorize",
        description="Exact verification of majorization and spin-domination inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p = sub.add_parser("verify-conjecture", help="tabulate centered spin-sum signs")
    p.add_argument("--s-max", required=True, help="largest spin, e.g. 20 or 41/2")
    p.add_argument("--m-max", type=int, required=True)
    add_format(p)
    p.set_defaults(fn=cmd_verify_conjecture)

    p = sub.add_parser("t-minus", help="bracket the domination threshold of a measure")
    p.add_argument("--measure", required=True, help="JSON file or preset:<family>:<param>")
    p.add_argument("--n-max", type=int, default=wells.DEFAULT_N_MAX)
    p.add_argument("--tol", default=str(wells.DEFAULT_TOL))
    add_format(p)
    p.set_defaults(fn=cmd_t_minus)

    p = sub.add_parser("majorize", help="test the majorization order on two vectors")
    p.add_argument("--x", required=True, help="comma-separated rationals")
    p.add_argument("--y", required=True)
    add_format(p)
    p.set_defaults(fn=cmd_majorize)

    p = sub.add_parser("probe", help="randomized finite-volume domination probe")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--site-cap", type=int, default=4)
    p.add_argument("--tol", type=float, default=oracle.DEFAULT_TOL)
    p.add_argument("--pair", required=True, help="e.g. bernoulli-rms:2,spin:2")
    add_format(p)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("tc-bounds", help="transition-temperature bound ratios")
    p.add_argument("--s", required=True, help="spin, e.g. 1 or 3/2")
    add_format(p)
    p.set_defaults(fn=cmd_tc_bounds)

    p = sub.add_parser("theorem", help="run a grid-theorem verification pipeline")
    p.add_argument("variant", choices=[HALF_ODD, INTEGER])
    p.add_argument("--psi", default="square", help="grid preset: square, abs, quartic")
    p.add_argument("--n", type=int, required=True, help="number of subdivisions")
    p.add_argument("--phi-power", type=int, default=1, help="m in the odd power 2m+1")
    add_format(p)
    p.set_defaults(fn=cmd_theorem)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and print its report in the chosen format.
    timing_ms is the subcommand's wall time, before rendering."""
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.fn(args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    report.timing_ms = (time.perf_counter() - start) * 1000.0
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print(report.to_csv(), end="")
    else:
        print(report.to_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
