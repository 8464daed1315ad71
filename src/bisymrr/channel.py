"""Bit-flip channel matrices and their closed-form entries and inverses.

The channel randomizing an n-bit record, where each bit is reported truthfully
with probability ``a`` and flipped with probability ``1 - a`` independently, is
the n-fold Kronecker power of the 2x2 kernel [[a, 1-a], [1-a, a]].  Everything
here exploits that structure: any entry is ``a**(n-d) * (1-a)**d`` where d is
the Hamming distance between the row and column indices read as bit strings,
so the full 2^n x 2^n matrix never needs to exist to evaluate one entry, and
the matrix inverse is the same construction at parameter ``a / (2a - 1)``.
Applying the matrix to a vector, or to each row of a block of vectors, is
:func:`apply_kernel`, one 2x2 pass per bit axis; the dense :func:`materialize`
serves only the ``matrix`` command and the test oracles, and refuses widths
above :data:`~bisymrr.errors.DENSE_CAP`.

Index convention: bit i of a record carries index weight 2**i (the record
(1, 0, 1) is cell 5).  Entries depend only on Hamming distance, so this choice
only fixes the labelling of cells, not any numeric value.

These functions accept any real kernel parameter, not just probabilities: the
inverse parameter ``a / (2a - 1)`` lies outside [0, 1] and its "matrix" is
not a channel, but the same recursion produces it.  Callers that need a
probability channel check ``a`` first, as the ``matrix`` command does with
:func:`~bisymrr.errors.check_probability`.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    DENSE_CAP,
    WidthCapError,
    check_count,
    check_finite,
    check_invertible,
)

# Below this distance from 1/2 the inverse parameter a / (2a - 1) is so large
# that estimates through it are statistically useless; inverse_parameter warns.
NEAR_SINGULAR = 1e-3


def materialize(a: float, n: int) -> np.ndarray:
    """Build the full 2^n x 2^n flip matrix for kernel parameter ``a``.

    The doubling recursion writes each output entry exactly once, so the cost
    is linear in the 4^n entries produced.  Kept in pure Python on purpose:
    the per-entry cost is uniform across widths, which makes the linear
    scaling directly measurable.  Widths above :data:`DENSE_CAP` are refused.
    """
    check_finite(a, "a")
    n = check_count(n, "bit width")
    if n > DENSE_CAP:
        raise WidthCapError(
            f"dense materialization of width {n} exceeds the cap of {DENSE_CAP}"
        )
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

    The kernel acts along the last axis, whose length 2^k must be a power of
    two; a 1-D ``v`` is one vector and a ``(rows, 2^k)`` block is ``rows``
    vectors, each given exactly the bits the 1-D call would give it, since the
    pass is elementwise arithmetic with no reduction.  It runs one bit axis at
    a time, O(k 2^k) work per vector with no 2^k x 2^k matrix: (a, 1-a) is the
    forward channel, (ai, 1-ai) with ai the inverse parameter its exact
    inverse, and any other pair of reals is accepted.  Always returns a fresh
    array of ``v``'s shape (a scalar counts as a length-1 vector).
    """
    t = np.array(v, dtype=np.float64, ndmin=1)
    shape, size = t.shape, t.shape[-1]
    if size == 0 or size & (size - 1):
        raise ValueError(f"vector length must be a power of two, got {size}")
    rows = t.size // size
    for axis in range(size.bit_length() - 1):
        # the third index of this view is bit `axis` (weight 2**axis)
        pairs = t.reshape(rows, size >> (axis + 1), 2, 1 << axis)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        t = np.stack((same * lo + other * hi, other * lo + same * hi), axis=2)
    return t.reshape(shape)


def entry_at(a: float, n: int, r: int, x: int) -> float:
    """Entry (r, x) of the width-n flip matrix without materializing it."""
    n = check_count(n, "bit width")
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
    check_invertible(a)
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

    This is the forward entry at the inverse parameter; near a = 1/2 that
    parameter is huge, and the entry overflows only where its true value
    exceeds the float range.
    """
    return entry_at(inverse_parameter(a), n, x, r)


def distinct_entries(a: float, n: int) -> np.ndarray:
    """The n+1 entry values by Hamming distance d = 0..n.

    These are all the values the width-n matrix contains; for a not in
    {0, 1/2, 1} they are pairwise distinct.  Returned as the full length-(n+1)
    list even when values coincide (a = 1/2 collapses them all).
    """
    n = check_count(n, "bit width")
    return np.array([a ** (n - d) * (1.0 - a) ** d for d in range(n + 1)])
