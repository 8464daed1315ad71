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

Importing the package loads none of its modules: each name below is imported
from its module on first access, so ``import bisymrr`` and the command line's
``--help`` never load numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_MODULE_OF = {
    name: module
    for module, names in {
        "channel": "apply_kernel distinct_entries entry_at inverse_entry_at "
        "inverse_parameter materialize",
        "corpus_io": "format_float read_corpus read_vector write_corpus write_matrix",
        "errors": "DENSE_CAP BisymrrError CorpusFormatError DegenerateDistributionError "
        "InfiniteDisclosureError SingularChannelError WidthCapError",
        "estimator": "Histogram LossReport cov_trace_closed_form efficiency_loss estimate "
        "estimate_variance greenwood_moments loss loss_approx_quality marginal_histogram "
        "project_to_simplex trace_constant",
        "figures": "FIGURES ExperimentConfig build_figure sample_flat_dirichlet",
        "parser": "FIGURE_DEFAULTS",
        "privacy": "PrivacyReport a_for_epsilon c_at_alpha epsilon_of likelihood_ratio "
        "report_for_a",
        "randomizer": "RandomSeed ResponseCorpus randomize randomize_corpus",
        "surveys": "Mechanism effective_a parse_mechanism unrelated_c warner_c",
    }.items()
    for name in names.split()
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
