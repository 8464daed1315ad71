"""Randomize binary records bit by bit, reproducibly.

All the survey and telemetry mechanisms handled here do the same thing once
you squint: each bit of the record is reported truthfully with some effective
probability ``a`` and flipped otherwise, independently across bits.  Each
classic parameterization is a dial of that one family, named in
:data:`~bisymrr.surveys._MECHANISMS`; this module sees only the effective
``a``.  The actual randomization is a single XOR with a vector of
Bernoulli(1 - a) draws: a draw is 1 when the generator's raw 64-bit word w
satisfies w >= ceil(a 2^53) 2^11, which is exactly ``Generator.random() >= a``
for the uniform (w >> 11) 2^-53 that ``random`` would make of the same word.

Reproducibility contract: randomness comes from a counter-based generator
(numpy's Philox) keyed by (seed, stream).  Record j of a corpus consumes the
counter block starting at draw j * width, so the j-th output depends only on
(seed, stream, j, width) -- never on how many records were processed, in what
order, or in how many parallel chunks.  Batch and per-record paths are
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_count, check_probability

# Cells per block of each whole-corpus pass.  A pass holds its input, its
# output and one block, and a flipping pass one block of float64 uniforms:
# 512 KiB at 2^16 cells.
BLOCK_CELLS = 1 << 16


def _blocks(n: int, width: int, cells: int | None = None, rows: int = 1):
    """Slices cutting ``n`` rows of ``width`` cells into blocks of about
    ``cells`` cells (:data:`BLOCK_CELLS` by default), at least ``rows`` rows
    each."""
    step = max(rows, (cells or BLOCK_CELLS) // max(width, 1))
    return (slice(start, start + step) for start in range(0, n, step))


@dataclass(frozen=True)
class RandomSeed:
    """Key for a reproducible randomness stream.

    Same (seed, stream) always yields the same bits.  Distinct streams under
    one seed are independent; use them to separate purposes (per-trial,
    per-corpus) without coordinating counter offsets.  Both must lie in
    [0, 2^64), so that distinct pairs are distinct keys.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            value = check_count(getattr(self, name), name)
            if value >= 2**64:
                raise ValueError(f"{name} must be below 2^64, got {value}")
            object.__setattr__(self, name, value)

    def _key(self) -> int:
        # Philox takes a 128-bit key; pack seed and stream into the two halves.
        return self.seed | (self.stream << 64)

    def generator(self) -> np.random.Generator:
        """Fresh generator at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=self._key()))

    def record_uniforms(self, index: int, width: int) -> np.ndarray:
        """The ``width`` uniforms record ``index`` consumes, computed directly."""
        return self._generator_at(index, width).random(width)

    def _generator_at(self, index: int, width: int) -> np.random.Generator:
        """A generator at the first draw of record ``index`` of ``width`` bits.

        Philox advances in 4-draw blocks, so position index*width is reached
        by advancing whole blocks and discarding the remainder.
        """
        index = check_count(index, "record index")
        width = check_count(width, "width")
        q, r = divmod(index * width, 4)
        bits = np.random.Philox(key=self._key())
        bits.advance(q)
        gen = np.random.Generator(bits)
        if r:
            gen.random(r)
        return gen


def _all_bits(arr: np.ndarray) -> bool:
    """Every entry is 0 or 1, checked in the array's own dtype so that nothing
    is wrapped or truncated first (256, -255, 1.5 and NaN all fail)."""
    kind = arr.dtype.kind
    if kind == "b":
        return True
    if kind in "ui":
        return bool(arr.max() <= 1 and (kind == "u" or arr.min() >= 0))
    return bool(((arr == 0) | (arr == 1)).all())


@dataclass(frozen=True)
class ResponseCorpus:
    """An ordered batch of same-width binary records, one record per row."""

    bits: np.ndarray  # shape (m, width), values in {0, 1}

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.ndim != 2:
            raise ValueError(f"corpus must be 2-dimensional, got shape {arr.shape}")
        if arr.shape[0] and not arr.shape[1]:
            raise ValueError(f"corpus records must have at least one bit, got shape {arr.shape}")
        if arr.size and not _all_bits(arr):
            raise ValueError("corpus entries must all be 0 or 1")
        object.__setattr__(self, "bits", arr.astype(np.uint8, copy=False))

    @property
    def m(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResponseCorpus):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(
            (self.bits == other.bits).all()
        )


def _flip(bits: np.ndarray, a: float, gen: np.random.Generator) -> np.ndarray:
    """``bits`` with each entry flipped with probability 1 - a, drawing one
    uniform per entry from ``gen`` in row order: the only flipping code.  One
    generator advanced block by block gives the flips of one batched draw.

    An entry flips when its uniform u satisfies u >= a, so P(flip) = 1 - a,
    exactly at a = 0 (u >= 0 always) and a = 1 (u < 1 always).  The test is
    made on the raw words, by the integer threshold in the module docstring,
    so no word is turned into a float.
    """
    # w > bound - 1, so a = 1's bound is 2^64 - 1, a uint64 no word exceeds;
    # the raw words stay an unnamed temporary, freed as the compare ends
    return bits ^ (gen.bit_generator.random_raw(bits.shape) > (math.ceil(a * 2.0**53) << 11) - 1)


def randomize(
    x: np.ndarray, a: float, seed: RandomSeed, index: int = 0
) -> np.ndarray:
    """Flip each bit of record ``x`` independently with probability 1 - a.

    ``index`` selects the record's counter block, so
    ``randomize(c.bits[j], a, seed, index=j)`` reproduces record j of
    ``randomize_corpus(c, a, seed)`` exactly.
    """
    check_probability(a, "a")
    x = np.asarray(x, dtype=np.uint8)
    return _flip(x, a, seed._generator_at(index, x.shape[-1]))


def randomize_corpus(c: ResponseCorpus, a: float, seed: RandomSeed) -> ResponseCorpus:
    """Randomize every record of a corpus, order preserved.

    One generator flips each block of rows in turn, so record j gets exactly
    the uniforms of its counter block: the result matches per-record
    :func:`randomize` calls and one batched draw, whatever the block size.
    """
    check_probability(a, "a")
    gen, out = seed.generator(), np.empty_like(c.bits)
    for b in _blocks(c.m, c.width):
        out[b] = _flip(c.bits[b], a, gen)
    return ResponseCorpus(out)
