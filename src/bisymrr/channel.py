"""Bit-flip channel matrices and their closed-form entries and inverses.

The channel randomizing an n-bit record, where each bit is reported truthfully
with probability ``a`` and flipped with probability ``1 - a`` independently, is
the n-fold Kronecker power of the 2x2 kernel [[a, 1-a], [1-a, a]].  Everything
here exploits that structure: any entry is ``a**(n-d) * (1-a)**d`` where d is
the Hamming distance between the row and column indices read as bit strings,
so the full 2^n x 2^n matrix never needs to exist to evaluate one entry, and
the matrix inverse is the same construction at parameter ``a / (2a - 1)``.
Applying the matrix to a vector is :func:`apply_kernel`, one 2x2 pass per bit
axis; the dense :func:`materialize` serves only the ``matrix`` command, the
brute-force covariance and test oracles.

Index convention: bit i of a record carries index weight 2**i (the record
(1, 0, 1) is cell 5).  Entries depend only on Hamming distance, so this choice
only fixes the labelling of cells, not any numeric value.

The module-level functions accept any real kernel parameter, not just
probabilities: the inverse parameter ``a / (2a - 1)`` lies outside [0, 1] and
its "matrix" is not a channel, but the same recursion produces it.  The
:class:`BisymmetricChannel` dataclass is the validated probability-channel
view for callers that want the invariants enforced.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SingularChannelError, WidthCapError

# Dense materialization above this width is refused unless the caller (or the
# environment) raises the cap; 2^12 x 2^12 is 16.8M float64 entries, ~134 MB.
DEFAULT_DENSE_CAP = 12
DENSE_CAP_ENV = "BISYMRR_DENSE_CAP"

# Below this distance from 1/2 the inverse-entry denominator (2a-1)^n loses
# enough precision that we switch to log-space and warn.
NEAR_SINGULAR = 1e-3


def dense_cap() -> int:
    """Effective dense-width cap: the environment override or the default."""
    raw = os.environ.get(DENSE_CAP_ENV)
    if raw is None:
        return DEFAULT_DENSE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{DENSE_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ValueError(f"{DENSE_CAP_ENV} must be non-negative, got {cap}")
    return cap


def _check_width(n: int, cap: int | None) -> None:
    if n < 0:
        raise ValueError(f"bit width must be non-negative, got {n}")
    limit = dense_cap() if cap is None else cap
    if n > limit:
        raise WidthCapError(
            f"dense materialization of width {n} exceeds the cap of {limit} "
            f"(set {DENSE_CAP_ENV} to raise it)"
        )


def materialize(a: float, n: int, cap: int | None = None) -> np.ndarray:
    """Build the full 2^n x 2^n flip matrix for kernel parameter ``a``.

    The doubling recursion writes each output entry exactly once, so the cost
    is linear in the 4^n entries produced.  Kept in pure Python on purpose:
    the per-entry cost is uniform across widths, which makes the linear
    scaling directly measurable.
    """
    _check_width(n, cap)
    b = 1.0 - a
    rows = [[1.0]]
    for _ in range(n):
        grown: list[list[float] | None] = [None] * (2 * len(rows))
        for i, row in enumerate(rows):
            keep = [a * v for v in row]
            flip = [b * v for v in row]
            grown[i] = keep + flip
            grown[i + len(rows)] = flip + keep
        rows = grown
    return np.array(rows, dtype=np.float64)


def apply_kernel(v: np.ndarray, same: float, other: float) -> np.ndarray:
    """Apply the k-fold Kronecker power of [[same, other], [other, same]] to v.

    k is read from ``v.size``, which must be a power of two.  The kernel is
    applied one bit axis at a time, O(k 2^k) work with no 2^k x 2^k matrix:
    (a, 1-a) is the forward channel, (ai, 1-ai) with ai the inverse parameter
    its exact inverse, and any other pair of reals is accepted.
    """
    t = np.array(v, dtype=np.float64).reshape(-1)
    if t.size == 0 or t.size & (t.size - 1):
        raise ValueError(f"vector length must be a power of two, got {t.size}")
    for axis in range(t.size.bit_length() - 1):
        # the middle index of this view is bit `axis` (weight 2**axis)
        pairs = t.reshape(-1, 2, 1 << axis)
        lo, hi = pairs[:, 0], pairs[:, 1]
        t = np.stack((same * lo + other * hi, other * lo + same * hi), axis=1)
    return t.reshape(-1)


def entry_at(a: float, n: int, r: int, x: int) -> float:
    """Entry (r, x) of the width-n flip matrix without materializing it."""
    if n < 0:
        raise ValueError(f"bit width must be non-negative, got {n}")
    dim = 1 << n
    if not (0 <= r < dim and 0 <= x < dim):
        raise ValueError(f"indices must lie in [0, {dim}), got r={r}, x={x}")
    d = (r ^ x).bit_count()
    return a ** (n - d) * (1.0 - a) ** d


def inverse_parameter(a: float) -> float:
    """Kernel parameter of the inverse matrix: a / (2a - 1).

    The width-n matrix at this parameter is the exact matrix inverse of the
    width-n matrix at ``a``.  Undefined at a = 1/2, where the channel maps
    every input to the uniform distribution.
    """
    if a == 0.5:
        raise SingularChannelError(
            "a = 1/2 destroys all information; the channel has no inverse"
        )
    if abs(2.0 * a - 1.0) < NEAR_SINGULAR:
        warnings.warn(
            f"a = {a} is within {NEAR_SINGULAR} of 1/2; the inverse exists but "
            "is astronomically ill-conditioned and estimates from it will be "
            "statistically useless",
            RuntimeWarning,
            stacklevel=2,
        )
    return a / (2.0 * a - 1.0)


def inverse_entry_at(a: float, n: int, x: int, r: int) -> float:
    """Entry (x, r) of the inverse matrix: a^(n-d) (a-1)^d / (2a-1)^n.

    Equal to ``entry_at(inverse_parameter(a), n, x, r)`` but avoids forming
    the quotient parameter, and switches to log-space when a is near 1/2 so
    the power of the tiny denominator does not underflow prematurely.
    """
    if a == 0.5:
        raise SingularChannelError(
            "a = 1/2 destroys all information; the channel has no inverse"
        )
    if n < 0:
        raise ValueError(f"bit width must be non-negative, got {n}")
    dim = 1 << n
    if not (0 <= r < dim and 0 <= x < dim):
        raise ValueError(f"indices must lie in [0, {dim}), got x={x}, r={r}")
    d = (x ^ r).bit_count()
    two_a_1 = 2.0 * a - 1.0
    if abs(two_a_1) >= NEAR_SINGULAR:
        return a ** (n - d) * (a - 1.0) ** d / two_a_1**n
    warnings.warn(
        f"a = {a} is within {NEAR_SINGULAR} of 1/2; inverse entries are "
        "astronomically large and statistically useless",
        RuntimeWarning,
        stacklevel=2,
    )
    # sign: (a-1)^d is negative for odd d when a < 1, and (2a-1)^n flips for
    # odd n when a < 1/2
    sign = (-1.0) ** d if a < 1.0 else 1.0
    if two_a_1 < 0.0 and n % 2:
        sign = -sign
    log_mag = (
        (n - d) * math.log(abs(a))
        + d * math.log(abs(a - 1.0))
        - n * math.log(abs(two_a_1))
    )
    return sign * math.exp(log_mag)


def distinct_entries(a: float, n: int) -> np.ndarray:
    """The n+1 entry values by Hamming distance d = 0..n.

    These are all the values the width-n matrix contains; for a not in
    {0, 1/2, 1} they are pairwise distinct.  Returned as the full length-(n+1)
    list even when values coincide (a = 1/2 collapses them all).
    """
    if n < 0:
        raise ValueError(f"bit width must be non-negative, got {n}")
    return np.array([a ** (n - d) * (1.0 - a) ** d for d in range(n + 1)])


@dataclass(frozen=True)
class BisymmetricChannel:
    """A validated probability channel: truth probability ``a``, width ``n``.

    Parameters outside [0, 1] (such as inverse parameters) are deliberately
    rejected here; use the module-level functions for raw kernel algebra.
    """

    a: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"truth probability must lie in [0, 1], got {self.a}")
        if self.n < 0 or self.n != int(self.n):
            raise ValueError(f"bit width must be a non-negative integer, got {self.n}")

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def invertible(self) -> bool:
        return self.a != 0.5

    def materialize(self, cap: int | None = None) -> np.ndarray:
        return materialize(self.a, self.n, cap=cap)

    def entry(self, r: int, x: int) -> float:
        return entry_at(self.a, self.n, r, x)

    def inverse_parameter(self) -> float:
        return inverse_parameter(self.a)

    def inverse_entry(self, x: int, r: int) -> float:
        return inverse_entry_at(self.a, self.n, x, r)

    def distinct_entries(self) -> np.ndarray:
        return distinct_entries(self.a, self.n)
