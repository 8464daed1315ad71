"""Unbiased marginal estimation from randomized corpora, and its cost.

Pipeline: count the observed k-bit patterns over the queried positions, then
apply the inverse flip matrix to the frequency vector.  Because the channel
factorizes per bit, the same inverse kernel applies to any subset of bits, so
a k-way marginal only ever needs the width-k inverse, never the width-n one,
and :func:`estimate` always applies it as the structured per-axis pass of
:func:`~bisymrr.channel.apply_kernel` in O(k 2^k), at every width.  The dense
width cap governs only :func:`~bisymrr.channel.materialize` (the ``matrix``
command) and the brute-force :func:`covariance`.

The estimate is exactly unbiased but costs variance.  The closed forms below
quantify that cost: the covariance trace of the estimator is (c - s) / m with
c = ((a^2 + (1-a)^2) / (2a - 1)^2)^n and s the sum of squared cell
probabilities, so the sample-size inflation relative to an un-randomized
survey is L = (c - s) / (1 - s).  ``loss`` reports L alongside two
π-free stand-ins for the unknown s: the floor at s = 2^-n and the mean of s
under a uniformly random π (flat Dirichlet), s = 2/(2^n + 1).  The per-cell
variances behind that trace come from one more kernel pass, in
:func:`estimate_variance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import apply_kernel, inverse_parameter, materialize
from .errors import DegenerateDistributionError, SingularChannelError, WidthCapError
from .randomizer import ResponseCorpus

# The covariance is a dense triple product; 2^8 keeps it a 256x256 affair.
COVARIANCE_CAP = 8


@dataclass(frozen=True)
class Histogram:
    """Pattern counts over k queried bits: counts[i] is the number of records
    whose queried bits, read with bit t at weight 2^t, form the integer i."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0 or arr.size & (arr.size - 1):
            raise ValueError(
                f"counts length must be a power of two, got shape {arr.shape}"
            )
        if (arr < 0).any():
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", arr)

    @property
    def k(self) -> int:
        return int(self.counts.size).bit_length() - 1

    @property
    def m(self) -> int:
        return int(self.counts.sum())


def marginal_histogram(corpus: ResponseCorpus, positions: Sequence[int]) -> Histogram:
    """Count k-bit patterns at the given strictly increasing bit positions.

    The t-th listed position contributes weight 2^t to the cell index, the
    same little-endian convention the channel matrices use for whole records.
    """
    pos = [int(p) for p in positions]
    if not pos:
        raise ValueError("at least one bit position is required")
    if any(q <= p for p, q in zip(pos, pos[1:])):
        raise ValueError(f"positions must be strictly increasing, got {pos}")
    if pos[0] < 0 or pos[-1] >= corpus.width:
        raise ValueError(
            f"positions must lie in [0, {corpus.width}), got {pos}"
        )
    k = len(pos)
    if corpus.m == 0:
        return Histogram(np.zeros(1 << k, dtype=np.int64))
    weights = (np.int64(1) << np.arange(k, dtype=np.int64))
    cells = corpus.bits[:, pos].astype(np.int64) @ weights
    return Histogram(np.bincount(cells, minlength=1 << k))


def _inverse_kernel_pass(v: np.ndarray, a: float, k: int) -> np.ndarray:
    """Apply the width-k inverse flip matrix to v (k = log2 of v.size).

    Kept as a named step of :func:`estimate` so ``bench/launcher.py`` can time
    the kernel pass on its own; it reads k from the third argument.
    """
    ai = inverse_parameter(a)
    return apply_kernel(v, ai, 1.0 - ai)


def estimate(h: Histogram | np.ndarray, a: float) -> np.ndarray:
    """Unbiased estimate of the queried marginal from randomized counts.

    Returns m^-1 times the inverse flip matrix applied to the counts.  Cells
    may come out negative; that is the price of exact unbiasedness, and
    :func:`project_to_simplex` exists for callers who need a distribution.
    """
    counts = h.counts if isinstance(h, Histogram) else Histogram(h).counts
    m = int(counts.sum())
    if m == 0:
        raise ValueError("empty corpus: cannot estimate from zero records")
    k = int(counts.size).bit_length() - 1
    return _inverse_kernel_pass(counts / m, a, k)


def estimate_variance(q: np.ndarray, pi: np.ndarray, a: float, m: int) -> np.ndarray:
    """Per-cell variances of :func:`estimate` over m randomized records.

    ``q`` is the distribution of randomized responses (C pi; the observed
    frequencies serve as a plug-in) and ``pi`` the marginal being estimated
    (or its estimate).  The variances are the diagonal of the covariance,
    m^-1 ((C^-1 ∘ C^-1) q - pi^2), and the element-wise square of the inverse
    is the Kronecker power of the squared kernel [[ai^2, bi^2], [bi^2, ai^2]],
    so this is one more kernel pass.  They sum to :func:`cov_trace_closed_form`.
    """
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    pi = np.asarray(pi, dtype=np.float64).reshape(-1)
    if q.shape != pi.shape:
        raise ValueError(f"q has {q.size} cells but pi has {pi.size}")
    if m < 1:
        raise ValueError(f"sample count must be positive, got {m}")
    ai = inverse_parameter(a)
    bi = 1.0 - ai
    return (apply_kernel(q, ai * ai, bi * bi) - pi * pi) / m


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


def trace_constant(a: float, n: int) -> float:
    """The constant c = ((a^2 + (1-a)^2) / (2a - 1)^2)^n.

    This is m times the covariance trace at s = 0, and the whole dependence of
    the estimator's cost on the channel; c = 1 means no randomization.
    """
    if a == 0.5:
        raise SingularChannelError(
            "a = 1/2 destroys all information; the covariance diverges"
        )
    if n < 0:
        raise ValueError(f"bit width must be non-negative, got {n}")
    ratio = (a * a + (1.0 - a) ** 2) / (2.0 * a - 1.0) ** 2
    return ratio**n


def cov_trace_closed_form(s: float, a: float, n: int, m: int) -> float:
    """Trace of the estimate's covariance: (c - s) / m, with s = sum(pi^2)."""
    if m < 1:
        raise ValueError(f"sample count must be positive, got {m}")
    return (trace_constant(a, n) - s) / m


@dataclass(frozen=True)
class LossReport:
    """Sample-size inflation of randomized response over a direct survey.

    ``trace_cov`` is the covariance trace for a single response (divide by m
    for a corpus).  ``loss_L`` uses the exact s supplied by the caller;
    ``loss_floor`` evaluates the same formula at the smallest possible
    s = 2^-n (uniform π), and ``loss_approx`` at s = 2/(2^n + 1), the mean of
    s when π is uniformly random on the simplex.
    """

    c: float
    s: float
    trace_cov: float
    loss_L: float
    loss_floor: float
    loss_approx: float


def efficiency_loss(s: float, c: float) -> float:
    """L = (c - s) / (1 - s): how many times more samples randomization costs."""
    if s >= 1.0:
        raise DegenerateDistributionError(
            f"sum of squared probabilities is {s}; a point mass leaves nothing "
            "to estimate and the loss is undefined"
        )
    return (c - s) / (1.0 - s)


def loss(s: float, a: float, n: int) -> LossReport:
    """Full loss report at bit width n: exact L for this s, plus the π-free
    floor and flat-average stand-ins."""
    if n < 1:
        raise ValueError(f"bit width must be positive, got {n}")
    if s <= 0.0:
        raise ValueError(f"sum of squared probabilities must be positive, got {s}")
    c = trace_constant(a, n)
    cells = 1 << n
    return LossReport(
        c=c,
        s=s,
        trace_cov=c - s,
        loss_L=efficiency_loss(s, c),
        loss_floor=efficiency_loss(1.0 / cells, c),
        loss_approx=efficiency_loss(2.0 / (cells + 1), c),
    )


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


def greenwood_moments(n: int) -> tuple[float, float]:
    """Mean and variance of s = sum(pi^2) under a uniformly random π on the
    2^n-cell simplex: 2/(N+1) and 4(N-1)/((N+1)^2 (N+2)(N+3)) with N = 2^n."""
    if n < 1:
        raise ValueError(f"bit width must be positive, got {n}")
    cells = float(1 << n)
    mean = 2.0 / (cells + 1.0)
    variance = 4.0 * (cells - 1.0) / ((cells + 1.0) ** 2 * (cells + 2.0) * (cells + 3.0))
    return mean, variance


def loss_approx_quality(n: int) -> float:
    """Worst-case relative error of the flat-average loss stand-in.

    Bounds |L(s) - L(E s)| / L(E s) over random π via a second-order expansion
    of L in s, maximized over the channel parameter (the bound grows with c
    and this takes the c -> infinity limit).  Meaningful for n > 2, where the
    ten-standard-deviation point s* stays safely below 1.
    """
    if n <= 2:
        raise ValueError(f"the bound is only valid for widths above 2, got {n}")
    mean, variance = greenwood_moments(n)
    s_star = mean + 10.0 * math.sqrt(variance)
    if s_star >= 1.0:
        raise ValueError(f"width {n} puts the expansion point past 1")
    return variance * (1.0 - mean) / (1.0 - s_star) ** 3


def project_to_simplex(e: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Optional post-processing for raw estimates; never applied implicitly,
    because it trades the unbiasedness guarantee for feasibility.
    """
    v = np.asarray(e, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    ranks = np.arange(1, v.size + 1)
    rho = np.nonzero(u * ranks > cumulative - 1.0)[0][-1]
    threshold = (cumulative[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - threshold, 0.0)


def _check_distribution(pi: np.ndarray) -> np.ndarray:
    pi = np.asarray(pi, dtype=np.float64).reshape(-1)
    if (pi < 0.0).any():
        raise ValueError("probabilities must be non-negative")
    total = float(pi.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {total}")
    return pi
