import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wells_majorize import cli, spin_sums, wells
from wells_majorize.cli import main
from wells_majorize.majorize import NonNegVector
from wells_majorize.rationals import parse_rational

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "t_minus_corpus.jsonl"
# The timing entry of any output format: the JSON key, the CSV row or the
# text line.
TIMING_LINE = re.compile(r',\n  "timing_ms": [^\n]*|^timing_ms[:,][^\n]*\n?', re.M)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv + ["--format", "json"])
    return code, json.loads(out)


class TestMajorizeCommand:
    X = "22,22,11,11,2,2,0"
    Y = "14,13,13,10,10,5,5"

    def test_seven_entry_example_passes(self, capsys):
        code, data = run_json(capsys, ["majorize", "--x", self.X, "--y", self.Y])
        assert code == 0
        assert data["status"] == "pass"
        assert data["details"]["majorizes"] is True
        assert data["details"]["single_crossing_applies"] is False
        assert data["details"]["partial_sums_x"][1] == "44"
        assert data["details"]["partial_sums_y"][2] == "40"

    def test_reversed_order_fails(self, capsys):
        code, data = run_json(capsys, ["majorize", "--x", self.Y, "--y", self.X])
        assert code == 1
        assert data["status"] == "fail"
        assert data["witnesses"]

    def test_rationals_round_trip(self, capsys):
        _, data = run_json(
            capsys, ["majorize", "--x", "3/2,1/2", "--y", "1,1"]
        )
        echoed = tuple(parse_rational(v) for v in data["parameters"]["x"])
        assert echoed == (F(3, 2), F(1, 2))

    def test_malformed_vector_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["majorize", "--x", "1,zebra", "--y", "1,1"])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("x", ["3,,1", "3,1,"])
    def test_empty_vector_entry_is_usage_error(self, capsys, x):
        code, out, err = run(capsys, ["majorize", "--x", x, "--y", "2,2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: not a rational literal: ") and err.count("\n") == 1


class TestTcBoundsCommand:
    def test_spin_one(self, capsys):
        code, data = run_json(capsys, ["tc-bounds", "--s", "1"])
        assert code == 0
        assert data["details"]["griffiths"] == "1/4"
        assert data["details"]["msw"] == "1/2"
        assert data["details"]["improvement"] == "2"

    def test_half_integer_spin(self, capsys):
        code, data = run_json(capsys, ["tc-bounds", "--s", "3/2"])
        assert code == 0
        assert data["details"]["msw"] == "5/9"

    def test_csv_holds_exact_values(self, capsys):
        code, out, _ = run(capsys, ["tc-bounds", "--s", "1", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert 'details.msw,"1/2"' in out


class TestLargeConjectureTables:
    """The benchmark's two largest `verify-conjecture` tables, 763 KB and
    162 KB of JSON, too large for the corpus: the sha256 of each output,
    timing aside, is pinned."""

    @pytest.mark.parametrize(
        "s_max, m_max, digest",
        [
            ("100", "30", "f27d9827962ed43d8303cd4eeff5f945a1691f66df319f6f5c236c92b339e014"),
            ("50", "20", "58c75a75a141d9ca869fe4c6d56b80706cec8f048dcb2458615e6b12159dd7c5"),
        ],
    )
    def test_output_digest(self, capsys, s_max, m_max, digest):
        argv = ["verify-conjecture", "--s-max", s_max, "--m-max", m_max, "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(TIMING_LINE.sub("", out).encode()).hexdigest() == digest


class TestLargeProbes:
    """Probes that span more than one window of draws, too large for the
    corpus: the sha256 of each output, timing aside, is pinned. The
    failing pair prints about 124 KB of witnesses from two windows; the
    passing one sums trials both in batches and alone."""

    @pytest.mark.parametrize(
        "pair, trials, site_cap, seed, exit_code, digest",
        [
            ("bernoulli:1,mu-lambda:1/4", "300", "6", "1", 1,
             "53b23f200819578060815cfcc046f64f21e894ea8e046218f7e066628c70b3c1"),
            ("bernoulli-rms:3/2,spin:3/2", "400", "7", "103", 0,
             "03cafe07850c391a411788eb0311631dbf6951f96f414015aafab1edc22923bc"),
        ],
    )
    def test_output_digest(self, capsys, pair, trials, site_cap, seed, exit_code, digest):
        argv = ["probe", "--pair", pair, "--trials", trials, "--site-cap", site_cap, "--seed", seed,
                "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == exit_code
        assert hashlib.sha256(TIMING_LINE.sub("", out).encode()).hexdigest() == digest


class TestVerifyConjectureCommand:
    def test_small_table(self, capsys):
        code, data = run_json(capsys, ["verify-conjecture", "--s-max", "1", "--m-max", "1"])
        assert code == 0
        assert data["details"]["negative_family"] == "S=1"
        values = {row["S"]: row["values"] for row in data["details"]["table"]}
        assert values["1"] == ["-6"]
        assert values["1/2"] == ["0"]

    def test_m_zero_degenerates(self, capsys):
        code, data = run_json(capsys, ["verify-conjecture", "--s-max", "2", "--m-max", "0"])
        assert code == 0
        assert all(v == "0" for row in data["details"]["table"] for v in row["values"])

    def test_bad_spin_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["verify-conjecture", "--s-max", "1/3", "--m-max", "1"])
        assert code == 2
        assert "error:" in err


class TestTMinusCommand:
    def test_three_point_closed_form_comparison(self, capsys):
        code, data = run_json(capsys, ["t-minus", "--measure", "preset:mu-lambda:1/4"])
        assert code == 0
        assert data["details"]["closed_form_t_minus_sq"] == "1/4"
        lo = parse_rational(data["details"]["t_minus_lo"])
        hi = parse_rational(data["details"]["t_minus_hi"])
        assert lo**2 <= F(1, 4) <= hi**2
        assert data["details"]["canonical_up_to_n_max"] is True

    def test_three_point_endpoint_is_two_point(self, capsys):
        # lambda = 1 is the two-point measure at +-1: same bracket, threshold 1.
        code, data = run_json(capsys, ["t-minus", "--measure", "preset:mu-lambda:1"])
        assert code == 0
        assert data["status"] == "pass"
        assert data["witnesses"] == []
        assert data["details"]["closed_form_t_minus_sq"] == "1"
        _, two_point = run_json(capsys, ["t-minus", "--measure", "preset:bernoulli:1"])
        for key in ("t_minus_lo", "t_minus_hi"):
            assert data["details"][key] == two_point["details"][key]

    def test_spin_one_not_canonical(self, capsys):
        code, data = run_json(capsys, ["t-minus", "--measure", "preset:spin:1"])
        assert code == 0
        assert data["details"]["canonical_up_to_n_max"] is False

    def test_two_point_closed_form(self, capsys):
        code, data = run_json(capsys, ["t-minus", "--measure", "preset:bernoulli:1"])
        assert code == 0
        assert data["details"]["t_minus_lo"] == "1"
        assert data["details"]["t_minus_hi"] == "1"
        assert data["details"]["status"] == "closed_form"

    def test_measure_file(self, capsys, tmp_path):
        path = tmp_path / "measure.json"
        path.write_text('{"atoms": [["1", "1/2"], ["-1", "1/2"]]}')
        code, data = run_json(capsys, ["t-minus", "--measure", str(path)])
        assert code == 0
        assert data["details"]["t_minus_hi"] == "1"

    def test_uneven_measure_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"atoms": [["1", "1/2"], ["-1", "1/4"], ["0", "1/4"]]}')
        code, _, err = run(capsys, ["t-minus", "--measure", str(path)])
        assert code == 2
        assert "not even" in err

    def test_missing_measure_file(self, capsys):
        code, _, err = run(capsys, ["t-minus", "--measure", "no/such/file.json"])
        assert code == 2
        assert "not found" in err

    def test_unreadable_measure_path_is_usage_error(self, capsys, monkeypatch, tmp_path):
        # What stat() raises under a directory the user may not search.
        def refused(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        path = tmp_path / "measure.json"
        monkeypatch.setattr(pathlib.Path, "stat", refused)
        code, out, err = run(capsys, ["t-minus", "--measure", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read measure file {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [None, b"\xff\xfe{", b'{"atoms": [[1.5, "1/2"], [-1.5, "1/2"]]}',
         b'{"atoms": [["1"], ["-1"]]}', b'{"atoms": 5}', b"[" * 100_000 + b"]" * 100_000,
         b'{"atoms": [[1' + b"0" * 4999 + b', "1/2"], ["-1", "1/2"]]}',
         b'{"atoms": [["1", "1/3%s"], ["-1", "1/3%s"], ["2", "1/7%s"], ["-2", "1/7%s"]]}'
         % ((b"1" * 2200,) * 2 + (b"3" * 2200,) * 2)],
        ids=["directory", "not-utf8", "float-atom", "one-element-atom", "atoms-not-a-list",
             "deeply-nested", "huge-integer-atom", "weight-total-over-the-digit-limit"],
    )
    def test_malformed_measure_file_is_usage_error(self, capsys, tmp_path, content):
        path = tmp_path / "measure.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code, out, err = run(capsys, ["t-minus", "--measure", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_preset_family(self, capsys):
        code, _, err = run(capsys, ["t-minus", "--measure", "preset:cauchy:1"])
        assert code == 2
        assert "unknown preset family" in err

    @pytest.mark.parametrize("spin", ["1e400", "2000000", "1000001/2"])
    def test_spin_over_the_configuration_cap_is_refused(self, capsys, monkeypatch, spin):
        # Refused before a single atom of the huge spin is built.
        monkeypatch.setattr(cli, "spin_measure", lambda S: pytest.fail("spin measure built"))
        code, out, err = run(capsys, ["t-minus", "--measure", f"preset:spin:{spin}"])
        assert (code, out, err) == (2, "", "error: spin measure has 2S+1 > 1000000 atoms\n")

    @pytest.mark.parametrize("measure", ["preset:bernoulli:1", "preset:spin:2"])
    @pytest.mark.parametrize(
        "flags", [["--n-max", "0"], ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"]]
    )
    def test_bad_n_max_or_tol_is_usage_error(self, capsys, measure, flags):
        code, out, err = run(capsys, ["t-minus", "--measure", measure, *flags])
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_bracket_is_computed_once(self, capsys, monkeypatch):
        original = wells.t_minus_upper
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (wells, cli):
            if getattr(module, "t_minus_upper", None) is original:
                monkeypatch.setattr(module, "t_minus_upper", spy)
        code, _ = run_json(capsys, ["t-minus", "--measure", "preset:spin:2", "--n-max", "60"])
        assert code == 0
        assert len(calls) == 1

    def test_deep_tolerance_is_decided_in_closed_form(self, capsys):
        # About 14 300 bisection steps, each a moment check on integers of
        # thousands of digits, unless the one check at s* = 1/2 decides them.
        start = time.perf_counter()
        code, data = run_json(capsys, ["t-minus", "--measure", "preset:spin:2", "--tol", "1e-4299"])
        assert time.perf_counter() - start < 1.0
        # Past 4300 digits, str() and int() refuse the integers; Decimal does not.
        lo, hi = (F(*(int(Decimal(n)) for n in data["details"][key].split("/")))
                  for key in ("t_minus_lo", "t_minus_hi"))
        assert code == 0
        assert lo**2 <= F(1, 2) < hi**2 and hi - lo <= F(1, 10**4299)

    def test_json_is_deterministic_modulo_timing(self, capsys):
        argv = ["t-minus", "--measure", "preset:mu-lambda:1/2"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        first.pop("timing_ms")
        second.pop("timing_ms")
        assert first == second


def corpus_records(path=CORPUS):
    with path.open() as lines:
        return [json.loads(line) for line in lines]


class TestTMinusCorpus:
    """`t-minus --format json` output, timing aside, is byte-identical to a
    committed corpus: spin presets, the three-point family at three
    truncation orders, two deep runs, the two-point measure and seventeen
    fixed even measures read from files (unsorted atoms, coprime value
    denominators, mixed weight denominators and zero atoms among them)."""

    @pytest.mark.parametrize(
        "record", corpus_records(), ids=lambda r: " ".join(r["argv"][2:])
    )
    def test_output_matches_corpus(self, capsys, monkeypatch, tmp_path, record):
        argv = record["argv"]
        if record["measure"] is not None:
            monkeypatch.chdir(tmp_path)
            Path(argv[2]).write_text(json.dumps(record["measure"]))
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == record["exit"]
        assert TIMING_LINE.sub("", out) == record["stdout"]


class TestCliCorpus:
    """Every other subcommand's output, timing aside, is byte-identical to
    a committed corpus: verify-conjecture in all three formats, majorize
    (holds, fails, unequal totals, single crossing), both theorem
    pipelines over every psi preset (odd N, hypotheses not met, the
    equal-vectors route, a failing grid), tc-bounds including a usage
    error, and probe pairs that pass and fail."""

    @pytest.mark.parametrize(
        "record", corpus_records(DATA / "cli_corpus.jsonl"), ids=lambda r: " ".join(r["argv"])
    )
    def test_output_matches_corpus(self, capsys, record):
        code, out, err = run(capsys, record["argv"])
        assert code == record["exit"]
        assert TIMING_LINE.sub("", out) == record["stdout"]
        assert err == record["stderr"]


class TestTheoremCommand:
    def test_integer_square_example(self, capsys):
        code, data = run_json(
            capsys,
            ["theorem", "integer", "--psi", "square", "--n", "6", "--phi-power", "1"],
        )
        assert code == 0
        assert data["status"] == "pass"
        assert data["details"]["x"] == ["22", "22", "11", "11", "2", "2", "0"]
        assert data["details"]["y"] == ["14", "13", "13", "10", "10", "5", "5"]
        assert data["details"]["w"] == ["22", "22", "0", "11", "11", "2", "2"]

    def test_half_odd_square(self, capsys):
        code, data = run_json(
            capsys, ["theorem", "half-odd", "--psi", "square", "--n", "10"]
        )
        assert code == 0
        assert parse_rational(data["details"]["centered_sum"]) > 0

    def test_hypothesis_not_met_exit_code(self, capsys):
        code, data = run_json(
            capsys, ["theorem", "integer", "--psi", "abs", "--n", "6"]
        )
        assert code == 3
        assert data["status"] == "hypothesis_not_met"

    @pytest.mark.parametrize("variant", ["integer", "half-odd"])
    def test_no_subdivisions_is_usage_error(self, capsys, variant):
        code, out, err = run(capsys, ["theorem", variant, "--n", "0"])
        assert (code, out, err) == (2, "", f"error: {variant} grid needs N >= 1\n")

    @pytest.mark.parametrize("variant, n", [("integer", 8), ("half-odd", 4)])
    def test_sum_over_the_digit_limit_prints(self, capsys, variant, n):
        code, data = run_json(capsys, ["theorem", variant, "--n", str(n), "--phi-power", "3000"])
        values = [j * j for j in range(-n if variant == "integer" else 0, n + 1)]
        mean = F(sum(values), len(values))
        expected = sum((v - mean) ** 6001 for v in values)
        assert code == 0
        assert len(str(Decimal(expected.numerator))) > 4300 and expected.denominator == 1
        assert Decimal(data["details"]["centered_sum"]) == expected.numerator

    def test_unknown_psi_preset(self, capsys):
        code, _, err = run(capsys, ["theorem", "integer", "--psi", "sine", "--n", "4"])
        assert code == 2
        assert "unknown psi preset" in err


def broken(builder, **vectors):
    """The construction `builder` makes, with the named vectors replaced."""
    return lambda grid: dataclasses.replace(
        builder(grid), **{k: NonNegVector.of(*v) for k, v in vectors.items()}
    )


# The square grids behind `theorem half-odd --n 4` (samples 0, 1, 4, 9, 16:
# x = 10,3,0 and y = 6,5,2) and `theorem integer --n 6` (x = 22,22,11,11,2,2,0,
# y = 14,13,13,10,10,5,5, w = 22,22,0,11,11,2,2).
HALF_ODD_ARGV = ["theorem", "half-odd", "--n", "4"]
INTEGER_ARGV = ["theorem", "integer", "--n", "6"]


class TestTheoremWitnesses:
    """Every failure witness of the theorem pipelines, reached by a broken
    construction, gives status fail and exit 1."""

    @pytest.mark.parametrize("argv, target, vectors, reason", [
        (HALF_ODD_ARGV, "build_half_odd_pair", {"x": (1, 1), "y": (2, 0)},
         "majorization cross-check failed"),
        (HALF_ODD_ARGV, "build_half_odd_pair",
         {"x": (22, 22, 11, 11, 2, 2, 0), "y": (14, 13, 13, 10, 10, 5, 5)},
         "single crossing does not apply"),
        (HALF_ODD_ARGV, "build_half_odd_pair", {"x": (11, 2, 0)},
         "karamata difference != centered sum"),
        (INTEGER_ARGV, "build_integer_triple", {"x": (23, 21, 11, 11, 2, 2, 0)},
         "karamata difference != centered sum"),
    ])
    def test_broken_construction_fails(self, capsys, monkeypatch, argv, target, vectors, reason):
        monkeypatch.setattr(spin_sums, target, broken(getattr(spin_sums, target), **vectors))
        code, data = run_json(capsys, argv)
        assert (code, data["status"]) == (1, "fail")
        assert reason in [w["reason"] for w in data["witnesses"]]

    def test_w_witness_names_the_first_failing_position(self, capsys, monkeypatch):
        # Running sums of w: 22, 22, 44, ...; of y: 14, 27, 40, ...
        fake = broken(spin_sums.build_integer_triple, w=(22, 0, 22, 11, 11, 2, 2))
        monkeypatch.setattr(spin_sums, "build_integer_triple", fake)
        code, data = run_json(capsys, INTEGER_ARGV)
        assert code == 1
        assert data["witnesses"] == [{"reason": "w running sums fail", "index": 2}]

    def test_x_against_w_is_the_only_witness(self, capsys, monkeypatch):
        # x out of order: still a rearrangement of the true x, so only its
        # running sums against w (33 < 44 at position 2) can catch it.
        fake = broken(spin_sums.build_integer_triple, x=(22, 11, 22, 11, 2, 2, 0))
        monkeypatch.setattr(spin_sums, "build_integer_triple", fake)
        code, data = run_json(capsys, INTEGER_ARGV)
        assert code == 1
        assert data["witnesses"] == [{"reason": "x running sums fail against w"}]

    def test_negative_centered_sum(self, capsys, monkeypatch):
        # A grid mean of 7 above the samples 0, 1, 4, 9, 16 (true mean 6)
        # makes the linear centered sum 30 - 5 * 7 = -5; the pair is the
        # one built from the true mean.
        grid = spin_sums.PsiGrid.from_function(lambda t: (4 * t) ** 2, 4, spin_sums.HALF_ODD)
        pair = spin_sums.build_half_odd_pair(grid)
        monkeypatch.setattr(spin_sums, "build_half_odd_pair", lambda grid: pair)
        monkeypatch.setattr(spin_sums.PsiGrid, "mean", lambda self: F(7))
        code, data = run_json(capsys, HALF_ODD_ARGV + ["--phi-power", "0"])
        assert (code, data["status"]) == (1, "fail")
        assert {"reason": "centered sum negative", "value": "-5"} in data["witnesses"]


class TestProbeCommand:
    ARGS = ["probe", "--pair", "bernoulli-rms:2,spin:2", "--trials", "25"]

    def test_canonical_pair_passes(self, capsys):
        code, data = run_json(capsys, self.ARGS + ["--seed", "42"])
        assert code == 0
        assert data["details"]["passes"] == 25
        assert data["parameters"]["pair"] == "bernoulli-rms:2,spin:2"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_usage_error(self, capsys, tol):
        code, out, err = run(capsys, self.ARGS + ["--tol", tol, "--format", "json"])
        assert code == 2
        assert out == ""
        assert "tol must be finite and >= 0" in err

    def test_pair_needs_two_tokens(self, capsys):
        code, _, err = run(capsys, ["probe", "--pair", "spin:2"])
        assert code == 2
        assert "two comma-separated" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", ["23", "175"])
    def test_overflow_is_usage_error(self, capsys, seed):
        # Spins of 1e200 overflow the observable: seed 23 used to crash
        # in fsum, seed 175 used to print "lhs": NaN.
        big = "1" + "0" * 200
        code, out, err = run(capsys, [
            "probe", "--pair", f"bernoulli:{big},bernoulli:1", "--trials", "1",
            "--site-cap", "2", "--seed", seed, "--format", "json",
        ])
        assert code == 2
        assert out == ""
        assert re.fullmatch(r"error: (partition function degenerate|expectation not finite)[^\n]*\n", err)

    def test_atom_beyond_float_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, [
            "probe", "--pair", f"bernoulli:1{'0' * 400},bernoulli:1", "--trials", "1",
            "--format", "json",
        ])
        assert (code, out, err) == (2, "", "error: atom outside the float range\n")

    def test_weight_below_float_range_is_usage_error(self, capsys):
        # Every weight is positive, but lambda / 2 rounds to 0.0.
        code, out, err = run(capsys, ["probe", "--pair", "mu-lambda:1e-400,spin:1", "--format", "json"])
        assert (code, out, err) == (2, "", "error: atom outside the float range\n")

    def test_atom_beyond_float_range_is_refused_without_trials(self, capsys):
        code, out, err = run(capsys, [
            "probe", "--pair", f"spin:1,bernoulli:1{'0' * 400}", "--trials", "0",
            "--format", "json",
        ])
        assert (code, out, err) == (2, "", "error: atom outside the float range\n")

    @pytest.mark.parametrize("pair", [
        "spin:1e9,spin:1", "spin:1,preset:spin:1000000", "bernoulli-rms:1e400,spin:1",
        "spin:1,bernoulli-rms:500000",
    ])
    def test_spin_over_the_configuration_cap_is_refused(self, capsys, monkeypatch, pair):
        # Refused before a single atom of the huge spin is built.
        for name in ("spin_measure", "spin_second_moment"):
            build = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda S, build=build: (
                build(S) if S.twice < 3 else pytest.fail(f"built spin {S.as_fraction}")))
        code, out, err = run(capsys, ["probe", "--pair", pair, "--trials", "1", "--format", "json"])
        assert (code, out, err) == (2, "", "error: spin measure has 2S+1 > 1000000 atoms\n")

    @pytest.mark.parametrize("trials", ["0", "3"])
    def test_site_cap_over_the_configuration_cap_is_refused(self, capsys, trials):
        # Refused up front, even with no trial or only small draws to run.
        code, out, err = run(capsys, [
            "probe", "--pair", "spin:1,spin:1", "--trials", trials, "--site-cap", "20",
            "--seed", "22", "--format", "json",
        ])
        assert (code, out, err) == (2, "", "error: 3**20 configurations exceed cap 1000000\n")

    def test_huge_site_cap_is_refused_without_forming_the_power(self, capsys):
        # 2**(10**9) would be a 125 MB integer, seconds in the making.
        start = time.perf_counter()
        code, out, err = run(capsys, [
            "probe", "--pair", "bernoulli:1,spin:1", "--trials", "1", "--site-cap", "1000000000",
        ])
        assert (code, out, err) == (2, "", "error: 2**1000000000 configurations exceed cap 1000000\n")
        assert time.perf_counter() - start < 1.0

    def test_rms_spin_under_the_cap_builds_no_atoms(self, capsys, monkeypatch):
        build = wells.spin_measure
        monkeypatch.setattr(wells, "spin_measure", lambda S: (
            build(S) if S.twice < 3 else pytest.fail(f"built spin {S.as_fraction}")))
        code, _, err = run(capsys, ["probe", "--pair", "bernoulli-rms:499999,spin:1", "--trials", "0"])
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("token, preset", [
        ("spin", "preset:spin"), ("spin:1:2", "preset:spin:1:2"),
        ("preset:spin:1:2", "preset:spin:1:2"), ("mu-lambda:1:2", "preset:mu-lambda:1:2"),
    ])
    def test_malformed_token_is_a_bad_preset(self, capsys, token, preset):
        code, out, err = run(capsys, ["probe", "--pair", f"{token},spin:1", "--trials", "1"])
        assert (code, out) == (2, "")
        assert err == f"error: bad preset {preset!r}, expected preset:<family>:<param>\n"

    def test_spin_at_the_configuration_cap_is_built(self, monkeypatch):
        # 2S+1 = CONFIG_CAP exactly is allowed; a smaller cap keeps it quick.
        monkeypatch.setattr(cli.oracle, "CONFIG_CAP", 7)
        assert len(cli.parse_probe_measure("spin:3").atoms) == 7
        assert len(cli.parse_probe_measure("bernoulli-rms:3")) == 2
        with pytest.raises(cli.ResourceLimitError):
            cli.parse_probe_measure("spin:7/2")


class TestArgumentErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["majorize", "--x", "1e100000,0", "--y", "1,0"],
        ["tc-bounds", "--s", "1e5000"],
        ["t-minus", "--measure", "preset:bernoulli:1e5000"],
        ["t-minus", "--measure", "preset:spin:1", "--tol", "1e5000"],
    ])
    def test_literal_over_the_digit_limit_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv + ["--format", "json"])
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: rational literal over 4300 digits: '1e\d+'\n", err)

    def test_huge_literal_is_quoted_by_prefix(self, capsys):
        code, out, err = run(capsys, ["majorize", "--x", "1" * 10**6 + ",0", "--y", "1,0"])
        assert (code, out) == (2, "")
        assert err.endswith("\n") and err.count("\n") == 1 and len(err) < 200

    def test_long_non_numeric_token_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["tc-bounds", "--s", "x" * 5000])
        assert (code, out) == (2, "")
        assert err.startswith("error: not a rational literal: ") and err.count("\n") == 1

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tc-bounds", "--spin", "1"])
        assert exc.value.code == 2

    def test_parser_reuse_matches_fresh_processes(self, capsys, monkeypatch):
        # main builds its parser once per process; a usage error, t-minus
        # and probe in one process print what three fresh processes print.
        monkeypatch.setenv("COLUMNS", "80")
        sequence = [
            ["tc-bounds", "--spin", "1"],
            ["t-minus", "--measure", "preset:mu-lambda:3/10", "--n-max", "50", "--format", "json"],
            ["probe", "--pair", "bernoulli-rms:2,spin:2", "--trials", "5", "--format", "json"],
        ]
        in_process = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            in_process.append((code, TIMING_LINE.sub("", out), err))
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        fresh = []
        for argv in sequence:
            proc = subprocess.run(
                [sys.executable, "-m", "wells_majorize.cli", *argv],
                capture_output=True, text=True, env=env, check=False, timeout=120,
            )
            fresh.append((proc.returncode, TIMING_LINE.sub("", proc.stdout), proc.stderr))
        assert in_process == fresh
        assert [code for code, _, _ in fresh] == [2, 0, 0]
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "fmt, pattern", [("text", r"timing_ms: \d+\.\d{3}"), ("csv", r'timing_ms,"[0-9.e-]+"')]
    )
    def test_timing_is_the_one_last_line(self, capsys, fmt, pattern):
        code, out, _ = run(capsys, ["tc-bounds", "--s", "2", "--format", fmt])
        lines = out.splitlines()
        assert code == 0
        assert [line for line in lines if line.startswith("timing_ms")] == lines[-1:]
        assert re.fullmatch(pattern, lines[-1])

    def test_text_format_default(self, capsys):
        code, out, _ = run(capsys, ["tc-bounds", "--s", "2"])
        assert code == 0
        assert "status: pass" in out
        assert "details.msw: 1/2" in out


class TestClosedStdout:
    def test_reader_closing_after_one_line_keeps_the_exit_code(self):
        # About 1.7 MB of JSON, far more than a pipe buffer holds, so the
        # report is still being written when the reader closes its end.
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        argv = ["verify-conjecture", "--s-max", "200", "--m-max", "30", "--format", "json"]
        with subprocess.Popen(
            [sys.executable, "-m", "wells_majorize.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert first == b"{\n"
        assert err == b""
        assert code == 0


# Value pools per flag for the fuzz test: valid and malformed tokens, all
# small enough that every run is quick.
SPINS = ["1/2", "1", "3/2", "7/2", "0", "-1", "2/3", "x", "", "1e5000"]
SMALL_INTS = ["-1", "0", "1", "2", "3", "5", "x"]
RATIONALS = ["1/100", "1/1000000", "0", "-1", "1/0", "0.25", "nan", "x", "1e5000"]
FLOATS = ["1e-9", "0", "0.5", "-1", "nan", "inf", "-inf", "x"]
MEASURES = [
    "preset:mu-lambda:3/10", "preset:mu-lambda:1", "preset:mu-lambda:0", "preset:spin:1",
    "preset:spin:5/2", "preset:bernoulli:2/3", "preset:bernoulli:-1", "preset:sine:1",
    "preset:spin", "no-such-measure.json", "preset:bernoulli:1e5000",
]
VECTORS = ["3,2,1", "2,2,2", "1/2,1/2,1", "6,0,0", "1,2", "0", "1,-1,2", "a,b", ",", "1e5000,1"]
PAIRS = [
    "bernoulli-rms:2,spin:2", "spin:1,bernoulli:1/2", "mu-lambda:1/4,spin:3/2",
    "bernoulli:3,spin:1", "spin:2", "bernoulli:0,spin:1", "bernoulli-rms:x,spin:1",
    "spin:1,spin:1,spin:1", f"bernoulli:1{'0' * 400},bernoulli:1", "sine:1,spin:1",
]
FORMATS = ["text", "json", "csv", "xml"]
SUBCOMMANDS = {
    "verify-conjecture": {"--s-max": SPINS, "--m-max": SMALL_INTS},
    "t-minus": {"--measure": MEASURES, "--n-max": SMALL_INTS + ["40"], "--tol": RATIONALS},
    "majorize": {"--x": VECTORS, "--y": VECTORS},
    "probe": {"--pair": PAIRS, "--seed": SMALL_INTS, "--tol": FLOATS},
    "tc-bounds": {"--s": SPINS},
    "theorem": {"--psi": ["square", "abs", "quartic", "sine"], "--n": SMALL_INTS + ["8"],
                "--phi-power": SMALL_INTS + ["3000"]},
}


@st.composite
def cli_argv(draw):
    """A subcommand with each of its flags absent or drawn from its pool.
    probe always gets small --trials and --site-cap, so no run computes
    more than six expectations of at most 5**3 configurations each."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    if command == "theorem":
        argv.append(draw(st.sampled_from(["integer", "half-odd", "other"])))
    if command == "probe":
        argv += ["--trials", draw(st.sampled_from(["-1", "0", "1", "3", "x"])),
                 "--site-cap", draw(st.sampled_from(["0", "1", "3", "x"]))]
    for flag, pool in {**SUBCOMMANDS[command], "--format": FORMATS}.items():
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(pool))]
    return argv


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestCliFuzz:
    """Any argument list ends in a defined exit code, raises nothing else,
    and a --format json run prints strict JSON."""

    @given(cli_argv())
    @settings(max_examples=200, deadline=None)
    def test_every_run_has_a_defined_outcome(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
        if code == 2:
            assert out.getvalue() == "" and "error:" in err.getvalue()
        elif fmt == "json":
            json.loads(out.getvalue(), parse_constant=reject_constant)
