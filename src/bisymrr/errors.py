"""Domain errors shared across the package.

Each error marks a distinct way a computation can be undefined, so the CLI can
map them to stable exit codes and library callers can catch them selectively.
"""


class BisymrrError(Exception):
    """Base class for all domain errors raised by this package."""


class SingularChannelError(BisymrrError):
    """The channel parameter is 1/2: the flip matrix is singular and nothing
    about the input survives randomization, so no estimate can be recovered."""


class WidthCapError(BisymrrError):
    """A dense matrix was requested above its fixed bit-width cap
    (:data:`~bisymrr.channel.DENSE_CAP` for ``materialize``)."""


class DegenerateDistributionError(BisymrrError):
    """The distribution is a point mass (sum of squared cell probabilities is 1),
    where the relative-efficiency quantities are undefined."""


class InfiniteDisclosureError(BisymrrError):
    """The channel parameter is 0 or 1: some output reveals its input with
    certainty, so the likelihood ratio and privacy budget are unbounded."""


class CorpusFormatError(BisymrrError):
    """A corpus or matrix file failed to parse.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
