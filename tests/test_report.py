import dataclasses
import json
import math
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wells_majorize import cli
from wells_majorize.majorize import NonNegVector
from wells_majorize.rationals import format_rational
from wells_majorize.report import VerificationReport
from wells_majorize.spin_sums import HALF_ODD, PsiGrid, SplitDomination


@pytest.mark.parametrize(
    "status, code",
    [("pass", 0), ("fail", 1), ("inconclusive", 3), ("hypothesis_not_met", 3)],
)
def test_exit_code_of_each_status(status, code):
    assert VerificationReport(command="c", status=status).exit_code == code


def test_unknown_status_has_no_exit_code():
    # A mistyped status must not read as "inequality failed".
    with pytest.raises(KeyError):
        VerificationReport(command="c", status="passed").exit_code


@dataclass
class Holder:
    vector: NonNegVector
    extra: list


@dataclass(frozen=True)
class Sampled:
    """Not a vector, though it has a `_scaled` attribute."""

    variant: str
    subdivisions: int
    values: tuple
    _scaled = (4, (0, 1, 4))


fractions = st.fractions() | st.builds(
    # Numerators over 4300 digits, which format_rational writes through Decimal.
    lambda n, d: F(10**4301 + n, d), st.integers(), st.integers(1, 10**6)
)
# Over 4300 digits, which format_rational writes through Decimal.
huge = st.integers(0, 10**6).map(lambda n: 10**4301 + n)
# Half from Fractions, half from integers over a common denominator k * D
# (each a multiple of k), so numerators and denominators may be huge.
vectors = st.lists(st.fractions(min_value=0), min_size=1, max_size=4).map(
    lambda xs: NonNegVector(tuple(xs))
) | st.builds(
    lambda D, ints, k: NonNegVector.from_scaled(k * D, [k * a for a in ints]),
    st.integers(1, 10**6) | huge,
    st.lists(st.integers(0, 10**9) | huge, min_size=1, max_size=4),
    st.integers(1, 12),
)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats().map(np.float64)
    | fractions
    | st.text()
    # No JSON form: the writer writes the JSON string of str(obj).
    | st.decimals()
    | vectors
    | st.builds(Holder, vectors, st.lists(st.fractions(), max_size=2))
    | st.builds(SplitDomination, st.booleans(), st.booleans(), st.booleans(), st.booleans(),
                st.none() | st.integers(0, 9))
)
keys = st.text(max_size=4) | st.integers(-3, 3) | st.booleans() | st.none() | st.floats() | st.fractions()
contents = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(keys, children, max_size=4),
    max_leaves=12,
)
reports = st.builds(
    VerificationReport,
    command=st.text(),
    status=st.sampled_from(["pass", "fail", "inconclusive", "hypothesis_not_met"]),
    parameters=st.dictionaries(keys, contents, max_size=4),
    details=st.dictionaries(keys, contents, max_size=4),
    witnesses=st.lists(contents, max_size=3),
    timing_ms=st.floats(),
)
# Keys whose str is equal merge: first place, last value.
MERGED_KEYS = VerificationReport("c", "pass", {1: "a", "x": [], "1": "b", 1.5: {}, "1.5": None})
EVERY_KIND = VerificationReport(
    "t-minusé\x00",
    "fail",
    {"v": NonNegVector.of(1, "1/3"), "nan": math.nan, "inf": [math.inf, -math.inf, -0.0]},
    {"holder": Holder(NonNegVector.of(2), [F(1, 2)]), "f": np.float64(0.1)},
    [NonNegVector.of(0), SplitDomination(True, True, False, True, 4), {}, ()],
    math.nan,
)


class TestToJson:
    """to_json writes, in one pass, the bytes json.dumps gives to_dict."""

    @given(reports)
    @settings(max_examples=300, deadline=None)
    @example(MERGED_KEYS)
    @example(EVERY_KIND)
    def test_matches_json_dumps_of_to_dict(self, report):
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)

    @given(reports)
    @settings(max_examples=300, deadline=None)
    @example(MERGED_KEYS)
    @example(EVERY_KIND)
    def test_a_report_rebuilt_from_its_dict_writes_the_same(self, report):
        # json, csv and text all read the one JSON form, so a report of
        # that form's plain data writes every format as the original.
        rebuilt = VerificationReport(**report.to_dict())
        assert rebuilt.to_json() == report.to_json()
        assert rebuilt.to_csv() == report.to_csv()
        assert rebuilt.to_text() == report.to_text()

    @given(vectors)
    @settings(max_examples=200, deadline=None)
    def test_vectors_write_the_text_of_their_entries(self, v):
        # A vector reads as the list of its entries, each Fraction written
        # by format_rational, in every format.
        as_vector, as_list = (VerificationReport("c", "pass", {"v": value}, witnesses=[{"x": value}])
                              for value in (v, list(v.entries)))
        assert as_vector.to_dict()["parameters"]["v"] == [format_rational(e) for e in v.entries]
        assert as_vector.to_json() == as_list.to_json() == json.dumps(as_vector.to_dict(), indent=2)
        assert as_vector.to_csv() == as_list.to_csv()
        assert as_vector.to_text() == as_list.to_text()

    def test_writes_fractions_over_the_digit_limit(self):
        # Outside @example: Hypothesis would print the value with repr(),
        # which refuses integers over 4300 digits.
        big = VerificationReport("c", "pass", {"big": [F(7**6000, 3), F(-1, 7**6000)]})
        assert big.to_json() == json.dumps(big.to_dict(), indent=2)
        vector = NonNegVector.from_scaled(3 * 7**6000, [3, 7**6001, 0])
        report = VerificationReport("c", "pass", {"v": vector})
        assert report.to_dict()["parameters"]["v"] == [format_rational(F(1, 7**6000)), "7/3", "0"]
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)


@pytest.mark.parametrize(
    "held",
    [PsiGrid(HALF_ODD, 2, (F(0), F(1, 4), F(1))), Sampled(HALF_ODD, 2, (F(0), F(1, 4), F(1)))],
    ids=["grid", "look-alike"],
)
def test_only_a_vector_is_written_as_a_list(held):
    # Any other dataclass is written as its fields, whatever attributes
    # it has.
    report = VerificationReport("c", "pass", {"grid": held})
    fields = {"variant": "half-odd", "subdivisions": 2, "values": ["0", "1/4", "1"]}
    assert report.to_dict()["parameters"]["grid"] == fields
    assert report.to_json() == json.dumps(report.to_dict(), indent=2)
    rows = [("variant", "half-odd"), ("subdivisions", "2"),
            ("values[0]", "0"), ("values[1]", "1/4"), ("values[2]", "1")]
    assert all(f'parameters.grid.{key},"{value}"' in report.to_csv().splitlines() for key, value in rows)
    assert all(f"parameters.grid.{key}: {value}" in report.to_text().splitlines() for key, value in rows)


def test_only_to_json_calls_to_json(monkeypatch, capsys):
    # The benchmark times to_json, to_csv and to_text as rendered output,
    # so to_dict and the csv and text forms must not render through
    # to_json. A report's fields are written from vars, which holds them
    # in field order, also once the CLI has set timing_ms.
    rendered = []
    to_json = VerificationReport.to_json

    def counted(report):
        rendered.append(report)
        return to_json(report)

    monkeypatch.setattr(VerificationReport, "to_json", counted)
    assert cli.main(["theorem", "integer", "--psi", "square", "--n", "7", "--format", "json"]) == 0
    (from_cli,) = rendered
    assert from_cli.timing_ms > 0
    assert list(vars(from_cli)) == [f.name for f in dataclasses.fields(from_cli)]
    assert json.loads(capsys.readouterr().out) == from_cli.to_dict()
    rendered.clear()
    report = VerificationReport("c", "pass", {"v": NonNegVector.of(1, "1/3")},
                                {"holder": Holder(NonNegVector.of(2), [F(1, 2)]), "f": 0.1})
    report.to_csv()
    report.to_text()
    report.to_dict()
    assert rendered == []
