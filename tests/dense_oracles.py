"""Brute-force oracles: dense matrices and literal sums, for cross-checks only.

Each function here computes something the package computes in closed form or
by a structured kernel pass, the long way, so tests can compare the two
routes.  They build 2^n x 2^n matrices and stay small on purpose; none of
them belongs in the shipped package.
"""

from math import comb

import numpy as np

from bisymrr.channel import inverse_parameter, materialize
from bisymrr.errors import (
    DegenerateDistributionError,
    WidthCapError,
    check_probability,
)

# The covariance is a dense triple product; 2^8 keeps it a 256x256 affair.
COVARIANCE_CAP = 8


def direct_covariance(pi: np.ndarray, m: int) -> np.ndarray:
    """Covariance of the plain frequency estimator on an un-randomized survey:
    m^-1 (diag(pi) - pi pi^T)."""
    pi = _check_distribution(pi)
    if m < 1:
        raise ValueError(f"sample count must be positive, got {m}")
    return (np.diag(pi) - np.outer(pi, pi)) / m


def covariance(pi: np.ndarray, a: float, n: int, m: int) -> np.ndarray:
    """Exact covariance of the randomized-response estimate, brute force.

    Builds C and its inverse densely and evaluates
    m^-1 (C^-1 diag(C pi) C^-T - pi pi^T).  This is the independent check the
    closed-form trace is tested against, so it stays deliberately literal.
    """
    pi = _check_distribution(pi)
    if m < 1:
        raise ValueError(f"sample count must be positive, got {m}")
    if n > COVARIANCE_CAP:
        raise WidthCapError(
            f"dense covariance of width {n} exceeds the cap of {COVARIANCE_CAP}"
        )
    if pi.size != 1 << n:
        raise ValueError(f"pi has {pi.size} cells, width {n} needs {1 << n}")
    chan = materialize(a, n)
    inv = materialize(inverse_parameter(a), n)
    return (inv @ np.diag(chan @ pi) @ inv.T - np.outer(pi, pi)) / m


def loss_ratio_empirical(pi: np.ndarray, a: float, n: int, m: int) -> float:
    """Trace ratio of the two full covariance matrices, no closed forms.

    Matches ``loss(...).loss_L`` and is independent of m (both traces scale
    as 1/m); kept as the brute-force oracle for the loss formula.
    """
    randomized = np.trace(covariance(pi, a, n, m))
    direct = np.trace(direct_covariance(pi, m))
    if direct == 0.0:
        raise DegenerateDistributionError(
            "pi is a point mass; the direct estimator has zero variance and "
            "the loss ratio is undefined"
        )
    return float(randomized / direct)


def unrelated_channel_entry(p: float, n: int, r: int, x: int) -> float:
    """Transition probability of the unrelated-question design, the long way.

    Each of the d disagreeing bits (d = Hamming distance of r and x) must have
    drawn the coin and disagreed (probability p/2); each agreeing bit either
    answered truthfully (1 - p) or drew an agreeing coin (p/2), and the sum
    expands that binomially over how many agreeing bits used the coin.  Equal
    to ``entry_at((2 - p) / 2, n, r, x)``; kept as an independent route for
    cross-checking that reduction.
    """
    check_probability(p, "p")
    if n < 0:
        raise ValueError(f"bit width must be non-negative, got {n}")
    dim = 1 << n
    if not (0 <= r < dim and 0 <= x < dim):
        raise ValueError(f"indices must lie in [0, {dim}), got r={r}, x={x}")
    d = (r ^ x).bit_count()
    total = 0.0
    for i in range(n - d + 1):
        total += comb(n - d, i) * (p / 2.0) ** (i + d) * (1.0 - p) ** (n - i - d)
    return total


def _check_distribution(pi: np.ndarray) -> np.ndarray:
    pi = np.asarray(pi, dtype=np.float64).reshape(-1)
    if (pi < 0.0).any():
        raise ValueError("probabilities must be non-negative")
    total = float(pi.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {total}")
    return pi
