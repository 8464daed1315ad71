"""Bitwise randomized response: randomize binary records with per-bit flips,
recover unbiased marginal estimates, and price the privacy/accuracy trade.

Warner's coin flip, Simmons' unrelated question and Rappor's one-time and
full modes are dials of one family: each :class:`Mechanism` fixes a per-bit
truth probability ``a`` (:func:`effective_a`), the only thing the channel
sees.

The flip channel factorizes over bits, so every matrix this package touches
is an iterated Kronecker power of one 2x2 kernel; entries, inverses, traces,
and privacy budgets all have closed forms.  Every channel application is one
per-axis kernel pass; the dense matrices exist only for the ``matrix`` command,
which refuses widths above ``DENSE_CAP``.
"""

from .channel import (
    DENSE_CAP,
    BisymmetricChannel,
    apply_kernel,
    distinct_entries,
    entry_at,
    inverse_entry_at,
    inverse_parameter,
    materialize,
)
from .corpus_io import (
    format_float,
    read_corpus,
    read_matrix,
    read_vector,
    write_corpus,
    write_matrix,
)
from .errors import (
    BisymrrError,
    CorpusFormatError,
    DegenerateDistributionError,
    InfiniteDisclosureError,
    SingularChannelError,
    WidthCapError,
)
from .estimator import (
    Histogram,
    LossReport,
    cov_trace_closed_form,
    efficiency_loss,
    estimate,
    estimate_variance,
    greenwood_moments,
    loss,
    loss_approx_quality,
    marginal_histogram,
    project_to_simplex,
    trace_constant,
)
from .figures import (
    FIGURE_DEFAULTS,
    FIGURES,
    ExperimentConfig,
    build_figure,
    sample_flat_dirichlet,
)
from .privacy import (
    PrivacyBudget,
    PrivacyReport,
    a_for_epsilon,
    c_at_alpha,
    epsilon_of,
    likelihood_ratio,
    loss_at_alpha,
    report_for_a,
    report_for_epsilon,
)
from .randomizer import (
    Mechanism,
    RandomSeed,
    ResponseCorpus,
    effective_a,
    parse_mechanism,
    randomize,
    randomize_corpus,
)
from .surveys import MechanismComparison, compare, unrelated_c, warner_c

__version__ = "0.1.0"

__all__ = [
    "BisymmetricChannel",
    "BisymrrError",
    "CorpusFormatError",
    "DENSE_CAP",
    "DegenerateDistributionError",
    "ExperimentConfig",
    "FIGURES",
    "FIGURE_DEFAULTS",
    "Histogram",
    "InfiniteDisclosureError",
    "LossReport",
    "Mechanism",
    "MechanismComparison",
    "PrivacyBudget",
    "PrivacyReport",
    "RandomSeed",
    "ResponseCorpus",
    "SingularChannelError",
    "WidthCapError",
    "a_for_epsilon",
    "apply_kernel",
    "build_figure",
    "c_at_alpha",
    "compare",
    "cov_trace_closed_form",
    "distinct_entries",
    "effective_a",
    "efficiency_loss",
    "entry_at",
    "epsilon_of",
    "estimate",
    "estimate_variance",
    "format_float",
    "greenwood_moments",
    "inverse_entry_at",
    "inverse_parameter",
    "likelihood_ratio",
    "loss",
    "loss_approx_quality",
    "loss_at_alpha",
    "marginal_histogram",
    "materialize",
    "parse_mechanism",
    "project_to_simplex",
    "randomize",
    "randomize_corpus",
    "read_corpus",
    "read_matrix",
    "read_vector",
    "report_for_a",
    "report_for_epsilon",
    "sample_flat_dirichlet",
    "trace_constant",
    "unrelated_c",
    "warner_c",
    "write_corpus",
    "write_matrix",
]
