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
always emitted in trial order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import apply_kernel
from .estimator import efficiency_loss, estimate, trace_constant
from .privacy import a_for_epsilon
from .randomizer import (
    RandomizerSpec,
    RandomSeed,
    UnrelatedUniform,
    effective_a,
    parse_mechanism,
)
from .surveys import unrelated_c, warner_c

FLAT_DIRICHLET = "dirichlet-flat"


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RandomSeed):
        return seed.generator()
    return RandomSeed(int(seed)).generator()


def sample_flat_dirichlet(cells: int, seed) -> np.ndarray:
    """One uniform draw from the probability simplex on ``cells`` cells.

    Normalized unit-rate exponentials; deterministic for a given seed.
    """
    if cells < 2:
        raise ValueError(f"need at least 2 cells, got {cells}")
    gen = _as_generator(seed)
    draws = gen.standard_exponential(cells)
    return draws / draws.sum()


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a figure run depends on.

    ``pi`` is either an explicit distribution over 2^n cells or the string
    ``"dirichlet-flat"`` asking the harness to draw π itself.  ``k`` is the
    bounded Hamming distance for budget-indexed figures (per-bit budgets at
    the default 1).
    """

    n: int = 2
    m: int = 1000
    trials: int = 100
    pi: "np.ndarray | str" = FLAT_DIRICHLET
    mechanism: RandomizerSpec = field(default_factory=lambda: UnrelatedUniform(0.5))
    seed: RandomSeed = field(default_factory=lambda: RandomSeed(0))
    k: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"bit width must be positive, got {self.n}")
        if self.m < 1:
            raise ValueError(f"sample count must be positive, got {self.m}")
        if self.trials < 1:
            raise ValueError(f"trial count must be positive, got {self.trials}")
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if not isinstance(self.pi, str):
            arr = np.asarray(self.pi, dtype=np.float64).reshape(-1)
            if arr.size != 1 << self.n:
                raise ValueError(
                    f"pi has {arr.size} cells, width {self.n} needs {1 << self.n}"
                )
            if (arr < 0).any() or abs(float(arr.sum()) - 1.0) > 1e-9:
                raise ValueError("pi must be a probability distribution")
            object.__setattr__(self, "pi", arr)
        elif self.pi != FLAT_DIRICHLET:
            raise ValueError(
                f"pi must be a vector or {FLAT_DIRICHLET!r}, got {self.pi!r}"
            )

    @classmethod
    def from_mapping(cls, raw: dict, base: "ExperimentConfig | None" = None) -> "ExperimentConfig":
        """Build from a flat mapping (config file or collected CLI flags)."""
        cfg = base or cls()
        known = {}
        seed = cfg.seed.seed
        stream = cfg.seed.stream
        for key, value in raw.items():
            if value is None:
                continue
            if key in ("n", "m", "trials", "k"):
                known[key] = int(value)
            elif key == "pi":
                known["pi"] = value if isinstance(value, str) else np.asarray(value, dtype=np.float64)
            elif key == "mechanism":
                known["mechanism"] = (
                    parse_mechanism(value) if isinstance(value, str) else value
                )
            elif key == "seed":
                seed = int(value)
            elif key == "stream":
                stream = int(value)
            else:
                raise ValueError(f"unknown experiment setting {key!r}")
        known["seed"] = RandomSeed(seed, stream)
        return replace(cfg, **known)


def _trial_seed(cfg: ExperimentConfig, trial: int) -> RandomSeed:
    # streams base+1, base+2, ... belong to trials; base itself stays free
    # for one-off draws such as sampling a shared pi
    return RandomSeed(cfg.seed.seed, cfg.seed.stream + 1 + trial)


def _cell_labels(n: int) -> list[str]:
    return ["".join(str((i >> t) & 1) for t in range(n)) for i in range(1 << n)]


def figure_1a(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
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


def figure_1b(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Flat-average loss by bit width for three unrelated-question dials."""
    columns = ["n", "p", "a", "loss_flat", "log10_loss_flat"]
    rows: list[list] = []
    for n in range(1, 13):
        cells = 1 << n
        for p in (0.0001, 0.5, 0.9999):
            a = (2.0 - p) / 2.0
            value = efficiency_loss(2.0 / (cells + 1), trace_constant(a, n))
            rows.append([n, p, a, value, math.log10(value)])
    return columns, rows


def figure_1c(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Exact-to-flat-average loss ratio for random π, per bit width."""
    a = effective_a(cfg.mechanism)
    columns = ["n", "trial", "s", "loss_exact", "loss_flat", "ratio"]
    rows: list[list] = []
    for n in range(2, 13):
        cells = 1 << n
        c = trace_constant(a, n)
        flat = efficiency_loss(2.0 / (cells + 1), c)
        for trial in range(cfg.trials):
            # separate stream per (width, trial) so any subset reproduces
            stream_seed = RandomSeed(cfg.seed.seed, cfg.seed.stream + (n << 32) + trial + 1)
            pi = sample_flat_dirichlet(cells, stream_seed)
            s = float(pi @ pi)
            exact = efficiency_loss(s, c)
            rows.append([n, trial, s, exact, flat, exact / flat])
    return columns, rows


def figure_2a(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Both survey designs' cost constants over a common dial grid.

    The grid steps by 0.005 over (0, 0.8) and skips p = 0.5, where the
    coin-flip design is singular.
    """
    columns = ["p", "c_unrelated", "c_warner", "ratio"]
    rows: list[list] = []
    for i in range(1, 160):
        p = i * 0.005
        if p == 0.5:
            continue
        c_u = unrelated_c(p, cfg.n)
        c_w = warner_c(p, cfg.n)
        rows.append([p, c_u, c_w, c_u / c_w])
    return columns, rows


def figure_2b(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Both designs' cost constants at equal privacy budget.

    Each column goes through its own dial: the budget is converted to the
    channel parameter, then inverted through that design's parameterization
    and fed to that design's own closed form.  The two columns coincide.
    """
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

# Settings each dataset was designed around; flags and config files override.
FIGURE_DEFAULTS: dict[str, dict] = {
    "1a": {"n": 2, "m": 1000, "trials": 100, "pi": (0.05, 0.15, 0.3, 0.5)},
    "1b": {},
    "1c": {"trials": 100},
    "2a": {"n": 1},
    "2b": {"n": 1, "k": 1},
}


def build_figure(which: str, cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    try:
        builder = FIGURES[which]
    except KeyError:
        known = ", ".join(sorted(FIGURES))
        raise ValueError(f"unknown figure {which!r}; expected one of: {known}") from None
    return builder(cfg)
