"""Domain errors, each with its CLI exit code, and one checker per argument domain.

Exit codes: 2 usage or domain error, 3 singular channel, 4 unparsable input
file, 5 bit-width or block-size cap exceeded.  The ``check_*`` functions are
the package's range checks on scalar arguments and return the argument; every
comparison in them fails on NaN, and NaN is always a plain ValueError.

The size caps live here too (:data:`MAX_WIDTH`, :data:`CELL_CAP`,
:data:`DENSE_CAP`, :data:`FIGURE_1A_CAP`), so the argument parser can quote
them in its help.  This module imports no numpy: the package namespace, the
parser and :mod:`~bisymrr.surveys` load only it, which keeps ``--help`` and
usage errors from ever loading numpy.
"""

import math


class BisymrrError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 2


class SingularChannelError(BisymrrError):
    """The channel parameter is 1/2: the flip matrix is singular and nothing
    about the input survives randomization, so no estimate can be recovered."""

    exit_code = 3


class WidthCapError(BisymrrError):
    """A 2^n-entry array was requested above its fixed bit-width cap
    (:data:`DENSE_CAP` for ``materialize``, :data:`FIGURE_1A_CAP` for
    figure 1a), or a marginal or figure 1a's block of trials above
    :data:`CELL_CAP` cells."""

    exit_code = 5


class DegenerateDistributionError(BisymrrError):
    """The distribution is a point mass (sum of squared cell probabilities is 1),
    where the relative-efficiency quantities are undefined."""


class InfiniteDisclosureError(BisymrrError):
    """The channel parameter is 0 or 1: some output reveals its input with
    certainty, so the likelihood ratio and privacy budget are unbounded."""


class CorpusFormatError(BisymrrError):
    """A corpus, vector or config file failed to parse.

    Carries the 1-based line number when one is known.
    """

    exit_code = 4

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def check_probability(value: float, name: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_finite(value: float, name: str) -> float:
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be a finite number, got {value}")
    return value


def check_budget(eps: float) -> float:
    if not 0.0 < eps < math.inf:
        raise ValueError(f"budget must be positive and finite, got {eps}")
    return eps


def check_count(value, name: str, minimum: int = 0) -> int:
    """An integer >= ``minimum``, returned as an int: integral floats (JSON
    ``2.0``) pass, while 2.5, NaN, inf and booleans (JSON ``true``) are refused
    rather than truncated or read as 1 and 0."""
    try:
        count = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or not count >= minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")
    return count


# Widest record the closed forms take: 2.0 ** 1024 is not a finite float, so
# beyond it no cell count, flat mass or loss exists.
MAX_WIDTH = 1023


def check_width(n, minimum: int = 0) -> int:
    """A bit width for the closed forms.  Above :data:`MAX_WIDTH` it raises
    the OverflowError that ``float(1 << n)`` would, but before anything
    builds ``1 << n``."""
    n = check_count(n, "bit width", minimum)
    if n > MAX_WIDTH:
        raise OverflowError(f"2^n is not a finite float for bit width {n} (at most {MAX_WIDTH})")
    return n


# Most cells one array of counts or estimates may hold: 128 MB as int64, some
# 0.5 GB once its values exist as Python floats.  It bounds a marginal's 2^k
# cells and figure 1a's 3 x trials x 2^n block of counts.
CELL_CAP = 1 << 24

# Widest matrix materialize builds; 2^12 x 2^12 is 16.8M float64 entries, ~134 MB.
DENSE_CAP = 12

# Widest record figure 1a simulates: each of its 3 x trials rows then holds at
# most 2^16 cells (512 kB as float64, over 1 MB once written as text).
FIGURE_1A_CAP = 16


def check_invertible(a: float, name: str = "a") -> float:
    """A finite channel parameter other than 1/2, where the channel is singular."""
    check_finite(a, name)
    if a == 0.5:
        raise SingularChannelError(
            f"{name} = 1/2 destroys all information; the channel has no inverse"
        )
    return a


def check_squared_mass(s: float) -> float:
    """s = sum of squared cell probabilities, strictly inside (0, 1)."""
    if not s > 0.0:
        raise ValueError(f"sum of squared probabilities must be positive, got {s}")
    if s >= 1.0:
        raise DegenerateDistributionError(
            f"sum of squared probabilities is {s}; a point mass leaves nothing "
            "to estimate and the loss is undefined"
        )
    return s
