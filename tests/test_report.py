import json
import math
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wells_majorize.majorize import NonNegVector
from wells_majorize.report import VerificationReport
from wells_majorize.spin_sums import SplitDomination


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


fractions = st.fractions() | st.builds(
    # Numerators over 4300 digits, which format_rational writes through Decimal.
    lambda n, d: F(10**4301 + n, d), st.integers(), st.integers(1, 10**6)
)
vectors = st.lists(st.fractions(min_value=0), min_size=1, max_size=4).map(lambda xs: NonNegVector(tuple(xs)))
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats().map(np.float64)
    | fractions
    | st.text()
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


class TestToJson:
    """to_json writes, in one pass, the bytes json.dumps gives to_dict."""

    @given(
        st.builds(
            VerificationReport,
            command=st.text(),
            status=st.sampled_from(["pass", "fail", "inconclusive", "hypothesis_not_met"]),
            parameters=st.dictionaries(keys, contents, max_size=4),
            details=st.dictionaries(keys, contents, max_size=4),
            witnesses=st.lists(contents, max_size=3),
            timing_ms=st.floats(),
        )
    )
    @settings(max_examples=300, deadline=None)
    # Keys whose str is equal merge: first place, last value.
    @example(VerificationReport("c", "pass", {1: "a", "x": [], "1": "b", 1.5: {}, "1.5": None}))
    @example(VerificationReport(
        "t-minusé\x00",
        "fail",
        {"v": NonNegVector.of(1, "1/3"), "nan": math.nan, "inf": [math.inf, -math.inf, -0.0]},
        {"holder": Holder(NonNegVector.of(2), [F(1, 2)]), "f": np.float64(0.1)},
        [NonNegVector.of(0), SplitDomination(True, True, False, True, 4), {}, ()],
        math.nan,
    ))
    def test_matches_json_dumps_of_to_dict(self, report):
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)

    def test_writes_fractions_over_the_digit_limit(self):
        # Outside @example: Hypothesis would print the value with repr(),
        # which refuses integers over 4300 digits.
        big = VerificationReport("c", "pass", {"big": [F(7**6000, 3), F(-1, 7**6000)]})
        assert big.to_json() == json.dumps(big.to_dict(), indent=2)
