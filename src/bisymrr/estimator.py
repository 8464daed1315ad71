"""Unbiased marginal estimation from randomized corpora, and its cost.

Pipeline: count the observed k-bit patterns over the queried positions, then
apply the inverse flip matrix to the frequency vector.  Because the channel
factorizes per bit, the same inverse kernel applies to any subset of bits, so
a k-way marginal only ever needs the width-k inverse, never the width-n one,
and :func:`estimate` always applies it as the structured per-axis pass of
:func:`~bisymrr.channel.apply_kernel` in O(k 2^k), at every width, and never
builds a dense matrix.

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

from .channel import apply_kernel, inverse_parameter
from .errors import (
    CELL_CAP,
    SUM_TOLERANCE,
    WidthCapError,
    check_count,
    check_invertible,
    check_probability,
    check_squared_mass,
    check_width,
)
from .randomizer import ResponseCorpus, _blocks


def _check_counts(raw, ndims: tuple[int, ...]) -> np.ndarray:
    """Pattern counts as int64, with ``ndims`` the allowed numbers of axes;
    along the last axis every row must be a power-of-two number of
    non-negative integer counts."""
    raw = np.asarray(raw)
    if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == raw.round())):
        raise ValueError("counts must be integers")
    arr = raw.astype(np.int64, copy=False)
    if arr.ndim not in ndims or arr.shape[-1] == 0 or arr.shape[-1] & (arr.shape[-1] - 1):
        raise ValueError(
            f"counts length must be a power of two, got shape {arr.shape}"
        )
    if (arr < 0).any():
        raise ValueError("counts must be non-negative")
    return arr


def check_distribution(pi) -> np.ndarray:
    """A probability vector, returned flat as float64: finite, non-negative
    cells summing to 1 within :data:`~bisymrr.errors.SUM_TOLERANCE`."""
    arr = np.asarray(pi, dtype=np.float64).reshape(-1)
    total = float(arr.sum())
    if not (np.isfinite(arr).all() and (arr >= 0).all() and abs(total - 1.0) <= SUM_TOLERANCE):
        raise ValueError(
            "pi must be a probability distribution: finite, non-negative "
            "cells summing to 1"
        )
    return arr


@dataclass(frozen=True)
class Histogram:
    """Pattern counts over k queried bits: counts[i] is the number of records
    whose queried bits, read with bit t at weight 2^t, form the integer i."""

    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", _check_counts(self.counts, (1,)))


def marginal_histogram(corpus: ResponseCorpus, positions: Sequence[int]) -> Histogram:
    """Count k-bit patterns at the given strictly increasing bit positions.

    The t-th listed position contributes weight 2^t to the cell index, the
    same little-endian convention the channel matrices use for whole records.
    A marginal of more than :data:`~bisymrr.errors.CELL_CAP` cells is refused
    before ``positions`` is read, so a lazy ``range`` over a wide corpus costs
    nothing.  Counts are summed over blocks of rows, so no m x k array exists.
    """
    k = len(positions)
    if k > CELL_CAP.bit_length() - 1:
        raise WidthCapError(
            f"a marginal on {k} bits has 2^{k} cells, above the cap of {CELL_CAP}"
        )
    pos = [check_count(p, "bit position") for p in positions]
    if not pos:
        raise ValueError("at least one bit position is required")
    if any(q <= p for p, q in zip(pos, pos[1:])):
        raise ValueError(f"positions must be strictly increasing, got {pos}")
    if pos[-1] >= corpus.width:
        raise ValueError(
            f"positions must lie in [0, {corpus.width}), got {pos}"
        )
    counts = np.zeros(1 << k, dtype=np.int64)
    weights = np.int64(1) << np.arange(k, dtype=np.int64)
    # one 2^k-cell bincount per span of at least 2^k rows, not per block; the
    # span's cell indices, filled a block at a time, take no more room than
    # counts (or one block's indices, when a block has more rows)
    for span in _blocks(corpus.m, corpus.width, rows=counts.size):
        bits = corpus.bits[span]
        cells = np.empty(len(bits), dtype=np.int64)
        for b in _blocks(len(bits), corpus.width):
            cells[b] = bits[b, pos].astype(np.int64) @ weights
        counts += np.bincount(cells, minlength=counts.size)
    return Histogram(counts)


def _inverse_kernel_pass(v: np.ndarray, a: float, k: int) -> np.ndarray:
    """Apply the width-k inverse flip matrix to v along its last axis
    (k = log2 of ``v.shape[-1]``).

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

    ``h`` may also be a ``(rows, 2^k)`` block of count vectors, such as one
    histogram per Monte-Carlo trial: every row must pass the
    :class:`Histogram` checks, is divided by its own m and gets the same
    estimate, bit for bit, as it would alone, and an all-zero row raises.
    A cell past the float range (a so near 1/2 that |a / (2a - 1)|^k
    overflows) raises OverflowError rather than come back as inf or NaN.
    """
    check_probability(a, "a")
    counts = h.counts if isinstance(h, Histogram) else _check_counts(h, (1, 2))
    m = counts.sum(axis=-1, keepdims=True)
    if (m == 0).any():
        raise ValueError("empty corpus: cannot estimate from zero records")
    k = counts.shape[-1].bit_length() - 1
    with np.errstate(over="ignore", invalid="ignore"):
        result = _inverse_kernel_pass(counts / m, a, k)
    if not np.isfinite(result).all():
        raise OverflowError(f"the estimate at a={a} over {k} bits exceeds the float range")
    return result


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
    m = check_count(m, "sample count", 1)
    ai = inverse_parameter(check_probability(a, "a"))
    bi = 1.0 - ai
    return (apply_kernel(q, ai * ai, bi * bi) - pi * pi) / m


def trace_constant(a: float, n: int) -> float:
    """The constant c = ((a^2 + (1-a)^2) / (2a - 1)^2)^n.

    This is m times the covariance trace at s = 0, and the whole dependence of
    the estimator's cost on the channel; c = 1 means no randomization.
    """
    check_invertible(a)
    n = check_count(n, "bit width")
    ratio = (a * a + (1.0 - a) ** 2) / (2.0 * a - 1.0) ** 2
    return ratio**n


def cov_trace_closed_form(s: float, a: float, n: int, m: int) -> float:
    """Trace of the estimate's covariance: (c - s) / m, with s = sum(pi^2)."""
    return (trace_constant(a, n) - s) / check_count(m, "sample count", 1)


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
    check_squared_mass(s)
    return (c - s) / (1.0 - s)


def loss(s: float, a: float, n: int) -> LossReport:
    """Full loss report at bit width n: exact L for this s, plus the π-free
    floor and flat-average stand-ins."""
    n = check_width(n, 1)
    c = trace_constant(a, n)
    return LossReport(
        c=c,
        s=s,
        trace_cov=c - s,
        loss_L=efficiency_loss(check_squared_mass(s, n), c),
        loss_floor=efficiency_loss(1.0 / (1 << n), c),
        loss_approx=flat_average_loss(a, n),
    )


def flat_average_loss(a: float, n: int) -> float:
    """L at s = 2/(2^n + 1), the mean of s under a uniformly random π: the
    π-free stand-in :func:`loss` reports as ``loss_approx``."""
    return efficiency_loss(2.0 / ((1 << check_width(n, 1)) + 1), trace_constant(a, n))


def greenwood_moments(n: int) -> tuple[float, float]:
    """Mean and variance of s = sum(pi^2) under a uniformly random π on the
    2^n-cell simplex: 2/(N+1) and 4(N-1)/((N+1)^2 (N+2)(N+3)) with N = 2^n."""
    cells = float(1 << check_width(n, 1))
    mean = 2.0 / (cells + 1.0)
    # products, not **, so the denominator goes to inf (n >= 256) rather than
    # raising, and the 4 last, so the numerator stays finite up to n = 1023
    variance = (cells - 1.0) / ((cells + 1.0) * (cells + 1.0) * (cells + 2.0) * (cells + 3.0)) * 4.0
    return mean, variance


def loss_approx_quality(n: int) -> float:
    """Worst-case relative error of the flat-average loss stand-in.

    Bounds |L(s) - L(E s)| / L(E s) over random π via a second-order expansion
    of L in s, maximized over the channel parameter (the bound grows with c
    and this takes the c -> infinity limit).  Meaningful for n > 2, where the
    ten-standard-deviation point s* stays safely below 1.
    """
    mean, variance = greenwood_moments(check_count(n, "bit width", 3))
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
    if not np.isfinite(v).all():
        raise ValueError("cannot project a vector with NaN or infinite entries")
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    ranks = np.arange(1, v.size + 1)
    rho = np.nonzero(u * ranks > cumulative - 1.0)[0][-1]
    threshold = (cumulative[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - threshold, 0.0)
