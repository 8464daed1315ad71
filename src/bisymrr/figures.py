"""Seeded experiment harness emitting CSV datasets.

Five canned datasets demonstrate the library end to end:

- ``1a``: per-trial estimates comparing a direct survey at m responses with
  randomized response at m and at ceil(L*m) responses, L being the
  flat-average loss; the scaled run should match the direct run's accuracy.
- ``1b``: the flat-average loss across bit widths for three settings of the
  unrelated-question dial, on a log scale.
- ``1c``: how far the flat-average loss sits from the exact loss for random
  π, per bit width; the ratio concentrates at 1 as width grows.
- ``2a``: cost constants of the two classic survey designs on a common dial
  grid, exposing the apparent crossover at p = 2/3.
- ``2b``: the same constants indexed by privacy budget instead, where the
  two designs coincide identically.

Every trial derives its own randomness stream from (seed, stream-id), so
results are independent of execution order and safe to parallelize; rows are
always emitted in trial order.  ``1a`` batches its work the way the channel
allows: the kernel pass costs the same per vector on a ``trials x 2^n`` block
as on one histogram, so all trials go through
:func:`~bisymrr.estimator.estimate` as one block per estimator, its width is
capped at :data:`~bisymrr.errors.FIGURE_1A_CAP` and its block at
:data:`~bisymrr.errors.CELL_CAP` cells, and its rows are made one trial at a
time as they are written.  Figure functions return a column list and rows of
plain Python values (``1a`` an iterator of them), which the CLI writes with
:func:`~bisymrr.corpus_io.write_table`.  The settings each figure reads, and
their defaults, are :data:`~bisymrr.parser.FIGURE_DEFAULTS`, beside the
argument parser that offers them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .channel import apply_kernel
from .corpus_io import _cell_labels
from .errors import CELL_CAP, FIGURE_1A_CAP, WidthCapError, check_count
from .estimator import check_distribution, estimate, flat_average_loss, loss
from .randomizer import RandomSeed
from .surveys import Mechanism, effective_a, parse_mechanism, unrelated_c, warner_c

FLAT_DIRICHLET = "dirichlet-flat"


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RandomSeed):
        return seed.generator()
    return RandomSeed(seed).generator()


def sample_flat_dirichlet(cells: int, seed) -> np.ndarray:
    """One uniform draw from the probability simplex on ``cells`` cells.

    Normalized unit-rate exponentials; deterministic for a given seed.
    """
    draws = _as_generator(seed).standard_exponential(check_count(cells, "cells", 2))
    return draws / draws.sum()


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a figure run depends on.

    ``pi`` is either an explicit distribution over 2^n cells or the string
    ``"dirichlet-flat"`` asking the harness to draw π itself.  ``k`` is the
    bounded Hamming distance for budget-indexed figures (per-bit budgets at
    the default 1), at most ``n``.
    """

    n: int = 2
    m: int = 1000
    trials: int = 100
    pi: "np.ndarray | str" = FLAT_DIRICHLET
    mechanism: Mechanism = Mechanism("unrelated", (0.5,))
    seed: RandomSeed = field(default_factory=lambda: RandomSeed(0))
    k: int = 1

    def __post_init__(self):
        for name in ("n", "m", "trials", "k"):
            object.__setattr__(self, name, check_count(getattr(self, name), name, 1))
        if self.k > self.n:
            raise ValueError(
                f"k {self.k} exceeds n {self.n}: two {self.n}-bit records differ in at most {self.n} bits"
            )
        if not isinstance(self.pi, str):
            try:
                arr = np.asarray(self.pi, dtype=np.float64).reshape(-1)
            except (TypeError, ValueError):
                raise ValueError(f"pi must be numbers or {FLAT_DIRICHLET!r}, got {self.pi!r}") from None
            if arr.size != 1 << self.n:
                raise ValueError(
                    f"pi has {arr.size} cells, width {self.n} needs {1 << self.n}"
                )
            object.__setattr__(self, "pi", check_distribution(arr))
        elif self.pi != FLAT_DIRICHLET:
            raise ValueError(
                f"pi must be a vector or {FLAT_DIRICHLET!r}, got {self.pi!r}"
            )

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        """Build from a flat mapping (config file or collected CLI flags);
        settings it leaves out or sets to None keep their defaults."""
        known = {key: value for key, value in raw.items() if value is not None}
        unknown = set(known) - {"n", "m", "trials", "k", "pi", "mechanism", "seed", "stream"}
        if unknown:
            raise ValueError(f"unknown experiment setting {min(unknown)!r}")
        if "mechanism" in known and not isinstance(known["mechanism"], Mechanism):
            known["mechanism"] = parse_mechanism(known["mechanism"])
        seed = RandomSeed(known.pop("seed", 0), known.pop("stream", 0))
        return cls(**known, seed=seed)


def _trial_seed(cfg: ExperimentConfig, trial: int) -> RandomSeed:
    # streams base+1, base+2, ... belong to trials; base itself stays free
    # for one-off draws such as sampling a shared pi
    return RandomSeed(cfg.seed.seed, cfg.seed.stream + 1 + trial)


def figure_1a(cfg: ExperimentConfig) -> tuple[list[str], Iterable[list]]:
    """Direct vs randomized vs loss-scaled randomized estimates, per trial.

    Each trial draws its three samples from its own stream, in trial order;
    the randomized counts of all trials are then estimated as one block per
    estimator, which gives every row the bits a per-trial estimate would.
    Widths above :data:`FIGURE_1A_CAP`, and blocks of more than
    :data:`~bisymrr.errors.CELL_CAP` cells, are refused before any 2^n-cell
    array exists.  The rows are made from the three estimate blocks one
    trial at a time, as they are written.
    """
    if cfg.n > FIGURE_1A_CAP:
        raise WidthCapError(
            f"figure 1a at width {cfg.n} exceeds the cap of {FIGURE_1A_CAP}"
        )
    cells = 1 << cfg.n
    if 3 * cfg.trials * cells > CELL_CAP:
        raise WidthCapError(
            f"figure 1a with {cfg.trials} trials at width {cfg.n} needs "
            f"3 x {cfg.trials} x 2^{cfg.n} cells, above the cap of {CELL_CAP}"
        )
    if isinstance(cfg.pi, str):
        pi = sample_flat_dirichlet(cells, cfg.seed)
    else:
        pi = cfg.pi
    a = effective_a(cfg.mechanism)
    m_scaled = math.ceil(flat_average_loss(a, cfg.n) * cfg.m)
    mixed = apply_kernel(pi, a, 1.0 - a)

    columns = ["trial", "estimator", "m"] + [f"cell_{p}" for p in _cell_labels(cfg.n)]
    counts = np.empty((3, cfg.trials, cells), dtype=np.int64)
    for trial in range(cfg.trials):
        gen = _trial_seed(cfg, trial).generator()
        counts[0, trial] = gen.multinomial(cfg.m, pi)
        counts[1, trial] = gen.multinomial(cfg.m, mixed)
        counts[2, trial] = gen.multinomial(m_scaled, mixed)
    blocks = [
        ("direct", cfg.m, counts[0] / cfg.m),
        ("randomized", cfg.m, estimate(counts[1], a)),
        ("randomized_scaled", m_scaled, estimate(counts[2], a)),
    ]
    del counts
    rows = (
        [trial, estimator, m, *block[trial].tolist()]
        for trial in range(cfg.trials)
        for estimator, m, block in blocks
    )
    return columns, rows


def figure_1b(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Flat-average loss by bit width for three unrelated-question dials."""
    columns = ["n", "p", "a", "loss_flat", "log10_loss_flat"]
    rows: list[list] = []
    for n in range(1, 13):
        for p in (0.0001, 0.5, 0.9999):
            a = effective_a(Mechanism("unrelated", (p,)))
            value = flat_average_loss(a, n)
            rows.append([n, p, a, value, math.log10(value)])
    return columns, rows


def figure_1c(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Exact-to-flat-average loss ratio for random π, per bit width."""
    a = effective_a(cfg.mechanism)
    columns = ["n", "trial", "s", "loss_exact", "loss_flat", "ratio"]
    rows: list[list] = []
    for n in range(2, 13):
        for trial in range(cfg.trials):
            # separate stream per (width, trial) so any subset reproduces
            stream_seed = RandomSeed(cfg.seed.seed, cfg.seed.stream + (n << 32) + trial + 1)
            pi = sample_flat_dirichlet(1 << n, stream_seed)
            s = float(pi @ pi)
            report = loss(s, a, n)
            exact, flat = report.loss_L, report.loss_approx
            rows.append([n, trial, s, exact, flat, exact / flat])
    return columns, rows


def figure_2a(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Both survey designs' cost constants over a common dial grid, and their
    ratio.

    The grid steps by 0.005 over (0, 0.8) and skips p = 0.5, where the
    coin-flip design is singular.  The ratio crosses 1 at p = 2/3: below it
    the unrelated-question design looks cheaper, above it the coin-flip design
    does.  Raising n just raises the ratio to the n-th power, sharpening
    whichever preference the dial already picked.
    """
    columns = ["p", "c_unrelated", "c_warner", "ratio"]
    rows: list[list] = []
    for i in range(1, 160):
        p = i * 0.005
        if p == 0.5:
            continue
        c_u, c_w = unrelated_c(p, cfg.n), warner_c(p, cfg.n)
        rows.append([p, c_u, c_w, c_u / c_w])
    return columns, rows


def figure_2b(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Both designs' cost constants at equal privacy budget.

    Each column goes through its own dial: the budget is converted to the
    channel parameter, then inverted through that design's parameterization
    and fed to that design's own closed form.  The two columns coincide.
    """
    from .privacy import a_for_epsilon  # here, so the other figures never load it

    columns = ["alpha", "a", "c_unrelated", "c_warner"]
    rows: list[list] = []
    for alpha in np.linspace(0.2, 2.0, 145):
        a = a_for_epsilon(float(alpha), cfg.k)
        c_u = unrelated_c(2.0 - 2.0 * a, cfg.n)
        c_w = warner_c(a, cfg.n)
        rows.append([float(alpha), a, c_u, c_w])
    return columns, rows


FIGURES = {
    "1a": figure_1a,
    "1b": figure_1b,
    "1c": figure_1c,
    "2a": figure_2a,
    "2b": figure_2b,
}

def build_figure(which: str, cfg: ExperimentConfig) -> tuple[list[str], Iterable[list]]:
    try:
        builder = FIGURES[which]
    except KeyError:
        known = ", ".join(sorted(FIGURES))
        raise ValueError(f"unknown figure {which!r}; expected one of: {known}") from None
    return builder(cfg)
