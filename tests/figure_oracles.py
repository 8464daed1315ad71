"""Per-trial figure 1a and per-cell CSV writing, kept as test oracles.

``figure_1a_per_trial`` is figure 1a as it was before all trials went through
one batched estimate per estimator: one ``estimate`` call per trial and
estimator.  ``format_rows_per_cell`` is the row writer the CLI used before
:func:`bisymrr.corpus_io.write_table`: one ``_format_value`` call per cell.
The batched figure 1a and the block writer must match them byte for byte.
"""

import math

from bisymrr.channel import apply_kernel
from bisymrr.corpus_io import _cell_labels, _format_value
from bisymrr.estimator import efficiency_loss, estimate, trace_constant
from bisymrr.figures import ExperimentConfig, _trial_seed, sample_flat_dirichlet
from bisymrr.surveys import effective_a


def figure_1a_per_trial(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Direct vs randomized vs loss-scaled randomized estimates, per trial."""
    cells = 1 << cfg.n
    if isinstance(cfg.pi, str):
        pi = sample_flat_dirichlet(cells, cfg.seed)
    else:
        pi = cfg.pi
    a = effective_a(cfg.mechanism)
    c = trace_constant(a, cfg.n)
    loss_flat = efficiency_loss(2.0 / (cells + 1), c)
    m_scaled = math.ceil(loss_flat * cfg.m)
    mixed = apply_kernel(pi, a, 1.0 - a)

    columns = ["trial", "estimator", "m"] + [f"cell_{p}" for p in _cell_labels(cfg.n)]
    rows: list[list] = []
    for trial in range(cfg.trials):
        gen = _trial_seed(cfg, trial).generator()
        direct = gen.multinomial(cfg.m, pi) / cfg.m
        plain = estimate(gen.multinomial(cfg.m, mixed), a)
        scaled = estimate(gen.multinomial(m_scaled, mixed), a)
        rows.append([trial, "direct", cfg.m, *direct.tolist()])
        rows.append([trial, "randomized", cfg.m, *plain.tolist()])
        rows.append([trial, "randomized_scaled", m_scaled, *scaled.tolist()])
    return columns, rows


def format_rows_per_cell(rows, columns=None) -> str:
    """The CSV text of ``rows``, one ``_format_value`` call per cell."""
    lines = [] if columns is None else [",".join(columns) + "\n"]
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row) + "\n")
    return "".join(lines)
