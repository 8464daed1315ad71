"""The argument checkers in bisymrr.errors, and the distribution checker that
lives with the array checks in bisymrr.estimator: one parametrized table per
domain.

Each table feeds NaN, both infinities, -1, 2.5 and the domain's boundary
values; ``None`` in the expected column means the value is accepted and
returned unchanged (or, for counts, as the equal int).
"""

import numpy as np
import pytest

from bisymrr.errors import (
    BisymrrError,
    CorpusFormatError,
    DegenerateDistributionError,
    InfiniteDisclosureError,
    SingularChannelError,
    WidthCapError,
    check_budget,
    check_count,
    check_finite,
    check_invertible,
    check_probability,
    check_squared_mass,
    check_width,
)
from bisymrr.estimator import check_distribution

NAN = float("nan")
INF = float("inf")


def outcome(check, value, *args):
    try:
        got = check(value, *args)
    except Exception as exc:  # the table names the expected type
        return type(exc)
    assert got == value
    return None


@pytest.mark.parametrize(
    "value,expected",
    [
        (NAN, ValueError),
        (INF, ValueError),
        (-INF, ValueError),
        (-1.0, ValueError),
        (2.5, ValueError),
        (-1e-300, ValueError),
        (1.0 + 2.0**-52, ValueError),
        (0.0, None),
        (0.5, None),
        (1.0, None),
        (np.float64(0.75), None),
    ],
)
def test_probability(value, expected):
    assert outcome(check_probability, value, "p") is expected


@pytest.mark.parametrize(
    "value,expected",
    [
        (NAN, ValueError),
        (INF, ValueError),
        (-INF, ValueError),
        (-1.0, None),
        (2.5, None),
        (0.0, None),
        (1e308, None),
        (-1e308, None),
        (np.float64(1.5), None),
    ],
)
def test_finite(value, expected):
    assert outcome(check_finite, value, "x") is expected


@pytest.mark.parametrize(
    "value,expected",
    [
        (NAN, ValueError),
        (INF, ValueError),
        (-INF, ValueError),
        (-1.0, ValueError),
        (0.0, ValueError),
        (-0.0, ValueError),
        (2.5, None),
        (5e-324, None),
        (1e308, None),
    ],
)
def test_budget(value, expected):
    assert outcome(check_budget, value) is expected


@pytest.mark.parametrize(
    "value,minimum,expected",
    [
        (NAN, 0, ValueError),
        (INF, 0, ValueError),
        (-INF, 0, ValueError),
        (-1, 0, ValueError),
        (2.5, 0, ValueError),
        (0, 1, ValueError),
        (2, 3, ValueError),
        ("2", 0, ValueError),
        (None, 0, ValueError),
        (0, 0, None),
        (1, 1, None),
        (3, 3, None),
        (2.0, 0, None),
        (np.int64(7), 1, None),
        (np.float64(4.0), 1, None),
        (2**70, 0, None),
        (True, 0, ValueError),
        (False, 0, ValueError),
        (np.True_, 0, ValueError),
        (np.False_, 0, ValueError),
    ],
)
def test_count(value, minimum, expected):
    assert outcome(check_count, value, "count", minimum) is expected


@pytest.mark.parametrize(
    "value,expected",
    [
        (NAN, ValueError),
        (INF, ValueError),
        (-1, ValueError),
        (2.5, ValueError),
        (0, ValueError),
        (1024, OverflowError),
        (10**9, OverflowError),
        (2**70, OverflowError),
        (1, None),
        (1023.0, None),
        (np.int64(1023), None),
    ],
)
def test_width(value, expected):
    assert outcome(check_width, value) is expected


def test_count_returns_python_int():
    for value in (2.0, np.int64(2), np.float64(2.0), np.uint8(2)):
        got = check_count(value, "count")
        assert type(got) is int and got == 2


@pytest.mark.parametrize(
    "value,expected",
    [
        (NAN, ValueError),
        (INF, ValueError),
        (-INF, ValueError),
        (0.5, SingularChannelError),
        (-1.0, None),
        (2.5, None),
        (0.0, None),
        (1.0, None),
        (0.5 + 2.0**-53, None),
        (0.5 - 2.0**-54, None),
    ],
)
def test_invertible(value, expected):
    assert outcome(check_invertible, value) is expected


@pytest.mark.parametrize(
    "value,expected",
    [
        (NAN, ValueError),
        (INF, ValueError),
        (-INF, ValueError),
        (-1.0, ValueError),
        (2.5, ValueError),
        (0.0, ValueError),
        (1.0, DegenerateDistributionError),
        (1.0 + 2e-9, DegenerateDistributionError),
        (1.0 + 4e-9, ValueError),
        (5e-324, None),
        (0.5, None),
        (1.0 - 2.0**-53, None),
    ],
)
def test_squared_mass(value, expected):
    assert outcome(check_squared_mass, value) is expected


@pytest.mark.parametrize(
    "value,n,expected",
    [
        (0.25, 2, None),
        (0.25 * (1.0 - 2e-9), 2, None),
        (0.25 * (1.0 - 4e-9), 2, ValueError),
        (0.01, 3, ValueError),
        (2.0**-1023, 1023, None),
        (2.0**-1024, 1023, ValueError),
        (NAN, 2, ValueError),
        (1.0, 0, DegenerateDistributionError),
    ],
)
def test_squared_mass_at_width(value, n, expected):
    """At width n, s is at least 2^-n, less the slack a distribution summing
    to 1 within its tolerance needs."""
    assert outcome(check_squared_mass, value, n) is expected


@pytest.mark.parametrize(
    "value,expected",
    [
        ([NAN, 1.0], ValueError),
        ([INF, 0.0], ValueError),
        ([-INF, 1.0], ValueError),
        ([-1.0, 1.0, 1.0], ValueError),
        ([2.5, -1.5], ValueError),
        ([0.1] * 4, ValueError),
        ([0.5, 0.5 + 2e-9], ValueError),
        ([], ValueError),
        ([1.0], None),
        ([0.0, 1.0], None),
        ([0.5, 0.5 + 5e-10], None),
        ([0.05, 0.15, 0.3, 0.5], None),
    ],
)
def test_distribution(value, expected):
    try:
        got = check_distribution(value)
    except ValueError as exc:
        assert str(exc).startswith("pi must be a probability distribution")
        got = ValueError
    else:
        assert got.dtype == np.float64 and got.tolist() == value
        got = None
    assert got is expected


def test_messages_name_the_argument_and_value():
    with pytest.raises(ValueError, match=r"^q must lie in \[0, 1\], got nan$"):
        check_probability(NAN, "q")
    with pytest.raises(ValueError, match=r"^trials must be an integer >= 1, got 2.5$"):
        check_count(2.5, "trials", 1)
    # a string is quoted, so "3" does not read as the number 3 refused
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got '3'$"):
        check_count("3", "seed")
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got 3.5$"):
        check_count(3.5, "seed")
    with pytest.raises(SingularChannelError, match="^p = 1/2"):
        check_invertible(0.5, "p")


@pytest.mark.parametrize(
    "error,code",
    [
        (BisymrrError("x"), 2),
        (DegenerateDistributionError("x"), 2),
        (InfiniteDisclosureError("x"), 2),
        (SingularChannelError("x"), 3),
        (CorpusFormatError("x", line=3), 4),
        (WidthCapError("x"), 5),
    ],
)
def test_exit_codes(error, code):
    assert error.exit_code == code

