"""Command-line front end: every verifier as a subcommand with
machine-readable output.

Exit codes: 0 = pass, 1 = the checked inequality failed, 2 = usage or
validation error, 3 = inconclusive or hypotheses not met. Exact rationals
are always serialized as "p/q" strings, never floats.

A well-formed command line is read with no argparse pass: when the first
argument names a subcommand and the rest is a plain list of that
subcommand's exact option strings, each with one value, and its
positionals, `_read_args` converts and checks each value with the
subcommand's own argparse actions. Anything else (help, an abbreviation,
`--opt=value`, a repeated option, `--`, a value starting with "-", any
usage error) goes to the full parser, so every usage error and help text
is the one it prints.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
import time
from collections.abc import Callable
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import oracle, wells
from .errors import ResourceLimitError, VerificationError
from .majorize import NonNegVector, OddConvexFunction, majorizes, running_sums, single_crossing_majorizes
from .oracle import MeasureLike, ProbeConfig, bernoulli_float_atoms, random_probe
from .rationals import parse_rational, parse_scaled_vector
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


# The errors that Path.exists reads as "no such file"; reading the file
# once reports them as it would have.
_ABSENT_ERRNOS = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP})


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
    try:
        text = Path(spec).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise VerificationError(f"cannot read measure file {spec}: {exc}") from exc
    except ValueError:  # a path the OS cannot name, such as one with a NUL
        raise VerificationError(f"measure file not found: {spec}") from None
    except OSError as exc:
        if exc.errno in _ABSENT_ERRNOS:
            raise VerificationError(f"measure file not found: {spec}") from None
        raise VerificationError(f"cannot read measure file {spec}: {exc}") from exc
    return DiscreteMeasure.from_json(text)


def parse_probe_measure(token: str) -> MeasureLike:
    """Probe-side measure token; also supports bernoulli-rms:<S>, the
    two-point measure at the RMS magnitude of the spin-S measure."""
    token = token.removeprefix("preset:")
    family, _, param = token.partition(":")
    if family != "bernoulli-rms":
        return parse_measure(f"preset:{token}")
    return bernoulli_float_atoms(math.sqrt(float(spin_second_moment(_capped_spin(param)))))


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
        "n_max_checked": args.n_max,
        "second_moment": mu.second_moment(),
        "canonical_up_to_n_max": gap.canonical_up_to_n_max,
    }
    status = PASS
    witnesses = []
    if args.measure.startswith("preset:mu-lambda:"):
        # The preset's lambda, as parsed once: twice its weight at +1.
        closed_sq = t_minus_squared_mu_lambda(2 * mu.atoms[-1][1])
        details["closed_form_t_minus_sq"] = closed_sq
        # The bracket must straddle the closed-form threshold:
        # lo^2 <= closed_sq <= hi^2, by cross-multiplied integers.
        (lp, lq), (hp, hq) = bracket.lo.as_integer_ratio(), bracket.hi.as_integer_ratio()
        cp, cq = closed_sq.as_integer_ratio()
        if not (lp * lp * cq <= cp * lq * lq and cp * hq * hq <= hp * hp * cq):
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
    x = NonNegVector.from_scaled(*parse_scaled_vector(args.x))
    y = NonNegVector.from_scaled(*parse_scaled_vector(args.y))
    holds = majorizes(x, y)
    details = {
        "majorizes": holds,
        "partial_sums_x": running_sums(x),
        "partial_sums_y": running_sums(y),
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
    # t = j/N, so t.numerator * N // t.denominator is the integer j.
    grid = PsiGrid.from_function(lambda t: abs(t.numerator * N // t.denominator) ** power, N, args.variant)
    phi = OddConvexFunction.power(args.phi_power)
    if args.variant == HALF_ODD:
        report = verify_half_odd_theorem(grid, phi)
    else:
        report = verify_integer_theorem(grid, phi)
    report.parameters.update({"psi": args.psi, "phi_power": args.phi_power})
    return report


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    return _parsers()[0]


class _Subcommand(NamedTuple):
    """A subcommand's function and the actions its add_argument calls
    returned, in order; `options` maps each option string to its action."""

    fn: Callable[[argparse.Namespace], VerificationReport]
    actions: list[argparse.Action]
    options: dict[str, argparse.Action]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, _Subcommand]]:
    """The argument parser and, by name, each subcommand's option table."""
    parser = argparse.ArgumentParser(
        prog="wells-majorize",
        description="Exact verification of majorization and spin-domination inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subcommands: dict[str, _Subcommand] = {}

    def subcommand(name: str, fn: Callable, help: str) -> Callable[..., None]:
        """Add a subcommand; the function returned adds one of its
        arguments to its parser and its option table."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        command = subcommands[name] = _Subcommand(fn, [], {})

        def add(*flags: str, **kwargs) -> None:
            action = p.add_argument(*flags, **kwargs)
            command.actions.append(action)
            command.options.update(dict.fromkeys(action.option_strings, action))

        return add

    def add_format(add: Callable[..., None]) -> None:
        add("--format", choices=["text", "json", "csv"], default="text")

    add = subcommand("verify-conjecture", cmd_verify_conjecture, "tabulate centered spin-sum signs")
    add("--s-max", required=True, help="largest spin, e.g. 20 or 41/2")
    add("--m-max", type=int, required=True)
    add_format(add)

    add = subcommand(
        "t-minus", cmd_t_minus, "bracket the criterion's threshold T- (a lower bound on the domination threshold)"
    )
    add("--measure", required=True, help="JSON file or preset:<family>:<param>")
    add("--n-max", type=int, default=wells.DEFAULT_N_MAX)
    add("--tol", default=wells.DEFAULT_TOL)
    add_format(add)

    add = subcommand("majorize", cmd_majorize, "test the majorization order on two vectors")
    add("--x", required=True, help="comma-separated rationals")
    add("--y", required=True)
    add_format(add)

    add = subcommand("probe", cmd_probe, "randomized finite-volume domination probe")
    add("--seed", type=int, default=42)
    add("--trials", type=int, default=100)
    add("--site-cap", type=int, default=4)
    add("--tol", type=float, default=oracle.DEFAULT_TOL)
    add("--pair", required=True, help="e.g. bernoulli-rms:2,spin:2")
    add_format(add)

    add = subcommand("tc-bounds", cmd_tc_bounds, "transition-temperature bound ratios")
    add("--s", required=True, help="spin, e.g. 1 or 3/2")
    add_format(add)

    add = subcommand("theorem", cmd_theorem, "run a grid-theorem verification pipeline")
    add("variant", choices=[HALF_ODD, INTEGER])
    add("--psi", default="square", help="grid preset: square, abs, quartic")
    add("--n", type=int, required=True, help="number of subdivisions")
    add("--phi-power", type=int, default=1, help="m in the odd power 2m+1")
    add_format(add)

    return parser, subcommands


def _read_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the full parser would give argv, less `command`,
    which no subcommand reads; or None, declining, unless argv is a
    subcommand name and then only its exact option strings, each at most
    once and followed by one value not starting with "-", and exactly its
    positionals. Each value goes through its action's type, then its
    choices; every required action must be seen, and an unseen one takes
    its default as it stands, since no option pairs a str default with a
    type (argparse would convert it)."""
    command = _parsers()[1].get(argv[0]) if argv else None
    if command is None:
        return None
    values = {}
    positionals = (action for action in command.actions if not action.option_strings)
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            action = command.options.get(token)
            token = next(tokens, "-")
            if action is None or action.dest in values or token.startswith("-"):
                return None
        else:
            action = next(positionals, None)
            if action is None:
                return None
        try:
            value = token if action.type is None else action.type(token)
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    for action in command.actions:
        if action.dest not in values:
            if action.required:
                return None
            values[action.dest] = action.default
    return argparse.Namespace(**values, fn=command.fn)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The parsed arguments: `_read_args`'s namespace when it reads argv,
    else the full parser's, which prints every help text and usage
    error."""
    args = _read_args(argv)
    return args if args is not None else build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and print its report in the chosen format.
    A well-formed command line is read from the subcommand's own option
    table with no argparse pass; anything else, help and usage errors
    included, goes to the full parser (see `_parse_args`). timing_ms is
    the subcommand's wall time, before rendering. A reader that closes
    standard output early does not change the exit code."""
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    start = time.perf_counter()
    try:
        report = args.fn(args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    report.timing_ms = (time.perf_counter() - start) * 1000.0
    if args.format == "json":
        text = report.to_json() + "\n"
    elif args.format == "csv":
        text = report.to_csv()
    else:
        text = report.to_text() + "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output early, as `| head` does. The
        # unwritten rest goes to os.devnull, so the flush at interpreter
        # shutdown cannot fail again, and the verdict's code still stands.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
