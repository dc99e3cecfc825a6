#!/usr/bin/env python3
"""Scan the domination threshold over the three-point and spin families.

For each measure the script prints the certified rational bracket for
the threshold, the squared bracket, the second moment, and whether the
measure is canonical (threshold at the RMS value) up to the truncation
order.

Usage: python3 scripts/t_minus_scan.py [--n-max 60] [--tol 1/1000000]
"""

import argparse
from fractions import Fraction

from wells_majorize.rationals import format_rational, parse_rational
from wells_majorize.spin_sums import SpinValue
from wells_majorize.wells import canonical_gap, mu_lambda_measure, spin_measure


def scan(label, mu, n_max, tol):
    gap = canonical_gap(mu, n_max=n_max, tol=tol)
    bracket = gap.bracket
    print(
        f"{label:>16}  T- in [{float(bracket.lo):.7f}, {float(bracket.hi):.7f}]"
        f"  T-^2 in [{float(gap.t_minus_sq_lo):.7f}, {float(gap.t_minus_sq_hi):.7f}]"
        f"  second moment {format_rational(gap.second_moment)}"
        f"  canonical={gap.canonical_up_to_n_max}  ({bracket.status})"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=60)
    parser.add_argument("--tol", default="1/1000000")
    args = parser.parse_args()
    tol = parse_rational(args.tol)

    print("three-point family (weight lambda/2 at +-1, 1-lambda at 0):")
    for k in range(1, 11):
        lam = Fraction(k, 10)
        scan(f"lambda={lam}", mu_lambda_measure(lam), args.n_max, tol)

    print("\nspin measures:")
    for twice in range(1, 9):
        S = SpinValue(twice)
        scan(f"S={S}", spin_measure(S), args.n_max, tol)


if __name__ == "__main__":
    main()
