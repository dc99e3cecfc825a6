"""Each independent check accepts the program's real output and rejects a
corrupted copy of it.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oplist  # noqa: E402
import verify  # noqa: E402
from wells_majorize import cli  # noqa: E402


def run(op: oplist.Op) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(op.argv)
    return code, verify.parse_report(out.getvalue(), op.fmt)


def t_minus_op(lam: str) -> oplist.Op:
    L = Fraction(lam)
    return oplist._t_minus(f"preset:mu-lambda:{lam}", oplist.mu_lambda_atoms(L), 30,
                           min(L, Fraction(1, 2)))


def probe_op(pair: str, expect: str) -> oplist.Op:
    return oplist._probe(pair, 3, 30, 7, expect)


def conjecture_op(fmt: str = "json") -> oplist.Op:
    return oplist.Op("verify-conjecture",
                     ["verify-conjecture", "--s-max", "3", "--m-max", "3", "--format", fmt], fmt,
                     {"s_max": Fraction(3), "m_max": 3, "sample_seed": 1})


def theorem_op(variant: str, psi: str, N: int, fmt: str = "json") -> oplist.Op:
    return oplist.Op("theorem", ["theorem", variant, "--psi", psi, "--n", str(N),
                                 "--phi-power", "2", "--format", fmt], fmt,
                     {"variant": variant, "psi": psi, "N": N, "phi_power": 2})


def problems(op: oplist.Op, code: int, report: dict) -> list[str]:
    return verify.CHECKS[op.kind](op.info, report, code)


class TestTMinus:
    def test_accepts_real_bracket(self):
        op = t_minus_op("3/10")
        assert problems(op, *run(op)) == []

    def test_rejects_bracket_shifted_past_closed_form(self):
        op = t_minus_op("3/10")
        code, report = run(op)
        d = report["details"]
        shift = Fraction(1, 50)
        d["t_minus_lo"] = str(Fraction(d["t_minus_lo"]) + shift)
        d["t_minus_hi"] = str(Fraction(d["t_minus_hi"]) + shift)
        found = problems(op, code, report)
        assert any("misses the closed form" in p for p in found)
        assert any("lo^2 fails" in p for p in found)

    def test_rejects_a_loose_upper_end(self):
        op = t_minus_op("1/4")
        code, report = run(op)
        report["details"]["t_minus_lo"] = "0"
        report["details"]["t_minus_hi"] = "1/10"
        found = problems(op, code, report)
        assert any("hi^2 passes" in p for p in found)
        assert any("exceeds tol" in p for p in found)

    def test_rejects_a_wrong_second_moment_and_canonical_flag(self):
        op = t_minus_op("1/4")
        code, report = run(op)
        report["details"]["second_moment"] = "1/3"
        report["details"]["canonical_up_to_n_max"] = not report["details"]["canonical_up_to_n_max"]
        found = problems(op, code, report)
        assert any("second_moment" in p for p in found)
        assert any("canonical_up_to_n_max" in p for p in found)


class TestVerifyConjecture:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_accepts_real_table(self, fmt):
        op = conjecture_op(fmt)
        assert problems(op, *run(op)) == []

    def test_rejects_a_flipped_sign(self):
        op = conjecture_op()
        code, report = run(op)
        row = report["details"]["table"][3]  # S = 2
        row["values"][1] = "-" + row["values"][1]
        found = problems(op, code, report)
        assert any("S = 2, m = 2" in p and "negative" in p for p in found)

    def test_rejects_a_positive_spin_one_entry(self):
        op = conjecture_op()
        code, report = run(op)
        row = report["details"]["table"][1]  # S = 1
        row["values"][0] = row["values"][0].lstrip("-")
        assert any("S = 1, m = 1" in p for p in problems(op, code, report))

    def test_rejects_a_value_off_the_definition(self):
        op = conjecture_op()
        op.info["sample_seed"] = 3
        code, report = run(op)
        for row in report["details"]["table"]:
            row["values"] = [str(Fraction(v) * 2) if Fraction(v) else v for v in row["values"]]
        assert any("differs from the definition" in p for p in problems(op, code, report))

    def test_spin_sum_definition_matches_known_values(self):
        # S = 1/2: j = +-1/2, 3/4 - 3/4 = 0; S = 1: (-2)^3 + 1^3 + 1^3 = -6.
        assert verify.spin_sum_definition(Fraction(1, 2), 1) == 0
        assert verify.spin_sum_definition(Fraction(1), 1) == -6


class TestTheorem:
    @pytest.mark.parametrize("variant,psi,N,fmt", [
        ("half-odd", "quartic", 9, "json"),
        ("integer", "square", 11, "csv"),
        ("integer", "abs", 8, "text"),
    ])
    def test_accepts_real_report(self, variant, psi, N, fmt):
        op = theorem_op(variant, psi, N, fmt)
        assert problems(op, *run(op)) == []

    @pytest.mark.parametrize("variant", ["half-odd", "integer"])
    def test_rejects_an_altered_centered_sum(self, variant):
        op = theorem_op(variant, "square", 10)
        code, report = run(op)
        report["details"]["centered_sum"] = str(Fraction(report["details"]["centered_sum"]) + 1)
        assert any("centered_sum" in p for p in problems(op, code, report))

    def test_rejects_an_unconfirmed_hypothesis_failure(self):
        op = theorem_op("integer", "square", 10)
        code, report = run(op)
        report["status"] = "hypothesis_not_met"
        found = problems(op, 3, report)
        assert any("expected 'pass'" in p for p in found)


class TestMajorizeAndTcBounds:
    def test_rejects_a_flipped_majorize_verdict(self):
        x, y = [Fraction(3), Fraction(1)], [Fraction(2), Fraction(2)]
        op = oplist.Op("majorize", ["majorize", "--x", "3,1", "--y", "2,2", "--format", "json"],
                       "json", {"x": x, "y": y})
        code, report = run(op)
        assert problems(op, code, report) == []
        report["status"], report["details"]["majorizes"] = "fail", False
        assert problems(op, 1, report)

    def test_rejects_a_wrong_improvement(self):
        op = oplist.Op("tc-bounds", ["tc-bounds", "--s", "3/2", "--format", "json"], "json",
                       {"S": Fraction(3, 2)})
        code, report = run(op)
        assert problems(op, code, report) == []
        report["details"]["improvement"] = "2"
        assert any("improvement" in p for p in problems(op, code, report))


class TestProbe:
    def test_accepts_a_real_domination_pass(self):
        op = probe_op("bernoulli-rms:2,spin:2", "pass")
        assert problems(op, *run(op)) == []

    def test_rejects_a_pass_with_missing_trials(self):
        op = probe_op("bernoulli-rms:2,spin:2", "pass")
        code, report = run(op)
        report["details"]["passes"] -= 1
        assert problems(op, code, report)

    def test_accepts_real_witnesses(self):
        op = probe_op("bernoulli:1,mu-lambda:1/4", "fail")
        code, report = run(op)
        assert code == 1 and report["witnesses"]
        assert problems(op, code, report) == []

    def test_rejects_a_forged_witness(self):
        op = probe_op("bernoulli:1,mu-lambda:1/4", "fail")
        code, report = run(op)
        witness = report["witnesses"][0]
        # Zero couplings: both sides are 0, so there is no violation to show.
        witness["couplings"] = [[subset, 0.0] for subset, _ in witness["couplings"]]
        found = problems(op, code, report)
        assert any(f"trial {witness['trial']}" in p and "no violation" in p for p in found)

    def test_rejects_a_witness_with_altered_values(self):
        op = probe_op("bernoulli:1,mu-lambda:1/4", "fail")
        code, report = run(op)
        report["witnesses"][0]["lhs"] *= 1.001
        assert any("differ from the enumeration" in p for p in problems(op, code, report))

    def test_gibbs_reference_on_one_bond(self):
        # Two +-1 spins, one bond J: <s0 s1> = tanh(J).
        value = verify.gibbs_reference(2, [((0, 1), 0.7)], [(1.0, 0.5), (-1.0, 0.5)], [0, 1])
        assert value == pytest.approx(0.6043677771171636, rel=1e-14)

    def test_oracle_agrees_with_the_enumeration(self):
        assert verify.oracle_cross_check(seed=5, count=6) == []


def test_check_reports_an_unreadable_output():
    op = conjecture_op()
    assert verify.check(op, 0, "not json")


def test_csv_and_text_parse_to_the_json_structure():
    outputs = {}
    for fmt in ("json", "csv", "text"):
        op = theorem_op("half-odd", "square", 5, fmt)
        outputs[fmt] = run(op)[1]
    for fmt in ("csv", "text"):
        assert outputs[fmt]["details"]["centered_sum"] == outputs["json"]["details"]["centered_sum"]
        assert outputs[fmt]["details"]["x"] == outputs["json"]["details"]["x"]
    assert json.dumps(outputs["json"]["status"]) == '"pass"'


def test_a_usage_error_is_an_exit_code_not_a_crash():
    import run as bench_run
    code, out = bench_run.invoke(cli, ["t-minus", "--format", "json"])
    assert code == 2 and out == ""
