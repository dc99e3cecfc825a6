import pytest

from wells_majorize.report import VerificationReport


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
