"""Randomize binary records bit by bit, reproducibly.

All the survey and telemetry mechanisms handled here do the same thing once
you squint: each bit of the record is reported truthfully with some effective
probability ``a`` and flipped otherwise, independently across bits.  The
mechanism variants below capture the classic parameterizations and reduce
each to its effective ``a``; the actual randomization is a single XOR with a
vector of Bernoulli(1 - a) draws.

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
from typing import Union

import numpy as np

from .errors import check_count, check_probability


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
        """The ``width`` uniforms record ``index`` consumes, computed directly.

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
        return gen.random(width)


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
        if arr.size and not _all_bits(arr):
            raise ValueError("corpus entries must all be 0 or 1")
        object.__setattr__(self, "bits", arr.astype(np.uint8, copy=False))

    @property
    def m(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def __len__(self) -> int:
        return self.m

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResponseCorpus):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(
            (self.bits == other.bits).all()
        )


@dataclass(frozen=True)
class Direct:
    """Report each bit truthfully with probability a, flipped otherwise."""

    a: float

    def __post_init__(self):
        check_probability(self.a, "a")

    def effective_a(self) -> float:
        return self.a


@dataclass(frozen=True)
class Warner:
    """Classic coin-flip design: answer the real question truthfully with
    probability p, otherwise answer its negation."""

    p: float

    def __post_init__(self):
        check_probability(self.p, "p")

    def effective_a(self) -> float:
        return self.p


@dataclass(frozen=True)
class UnrelatedUniform:
    """With probability p answer an unrelated fair-coin question instead of
    the real one; with probability 1 - p answer truthfully."""

    p: float

    def __post_init__(self):
        check_probability(self.p, "p")

    def effective_a(self) -> float:
        # truthful unless the unrelated coin both fires and disagrees
        return (2.0 - self.p) / 2.0


@dataclass(frozen=True)
class RapporOneTime:
    """Rappor's permanent stage alone: each bit is kept with probability
    1 - f, else replaced by a fair coin."""

    f: float

    def __post_init__(self):
        check_probability(self.f, "f")

    def effective_a(self) -> float:
        return (2.0 - self.f) / 2.0


@dataclass(frozen=True)
class RapporFull:
    """Rappor's permanent stage (noise f) followed by the symmetric
    instantaneous stage: report 1 with probability q when the memoized bit is
    1, and with probability p = 1 - q when it is 0.

    Only the symmetric mode p = 1 - q composes into a single bit-flip channel,
    so an explicit p disagreeing with 1 - q (beyond float rounding) is
    rejected outright.
    """

    f: float
    q: float
    p: float | None = None

    def __post_init__(self):
        check_probability(self.f, "f")
        check_probability(self.q, "q")
        # absolute tolerance: 0.3 and 1 - 0.7 differ by one ulp
        if self.p is not None and not math.isclose(
            self.p, 1.0 - self.q, rel_tol=0.0, abs_tol=1e-12
        ):
            raise ValueError(
                f"asymmetric instantaneous stage (p={self.p}, q={self.q}) is not "
                "a bit-flip channel; only the symmetric mode p = 1 - q is supported"
            )

    def effective_a(self) -> float:
        # composition of two symmetric flips: a = q - (q - 1/2) f
        return self.q - (self.q - 0.5) * self.f


RandomizerSpec = Union[Direct, Warner, UnrelatedUniform, RapporOneTime, RapporFull]

_MECHANISMS = {
    "direct": (Direct, ("a",)),
    "warner": (Warner, ("p",)),
    "unrelated": (UnrelatedUniform, ("p",)),
    "rappor1": (RapporOneTime, ("f",)),
    "rappor": (RapporFull, ("f", "q")),
}


def effective_a(spec: RandomizerSpec) -> float:
    """Truth probability per bit of the equivalent single-flip channel."""
    return spec.effective_a()


def parse_mechanism(text: str) -> RandomizerSpec:
    """Parse compact CLI syntax: ``name:value`` or ``name:key=value,...``.

    Examples: ``direct:0.75``, ``warner:0.7``, ``unrelated:0.5``,
    ``rappor1:0.5``, ``rappor:f=0.5,q=0.75``.
    """
    name, sep, rest = text.partition(":")
    name = name.strip().lower()
    if name not in _MECHANISMS:
        known = ", ".join(sorted(_MECHANISMS))
        raise ValueError(f"unknown mechanism {name!r}; expected one of: {known}")
    cls, fields = _MECHANISMS[name]
    if not sep or not rest.strip():
        raise ValueError(f"mechanism {name!r} needs parameters, e.g. {name}:<value>")
    parts = [p.strip() for p in rest.split(",") if p.strip()]
    try:
        if all("=" in p for p in parts):
            kwargs = {}
            for p in parts:
                key, _, value = p.partition("=")
                kwargs[key.strip()] = float(value)
            return cls(**kwargs)
        if len(parts) == len(fields) and not any("=" in p for p in parts):
            return cls(*(float(p) for p in parts))
    except TypeError as exc:
        raise ValueError(f"bad parameters for mechanism {name!r}: {exc}") from exc
    raise ValueError(
        f"could not parse parameters {rest!r} for mechanism {name!r}; "
        f"expected {len(fields)} value(s) or key=value pairs for {fields}"
    )


def randomize(
    x: np.ndarray, a: float, seed: RandomSeed, index: int = 0
) -> np.ndarray:
    """Flip each bit of ``x`` independently with probability 1 - a.

    ``index`` selects the record's counter block, so
    ``randomize(c.bits[j], a, seed, index=j)`` reproduces record j of
    ``randomize_corpus(c, a, seed)`` exactly.
    """
    check_probability(a, "a")
    x = np.asarray(x, dtype=np.uint8)
    u = seed.record_uniforms(index, x.shape[-1])
    # P(u >= a) = 1 - a, with exact behavior at a = 0 (always flip, since
    # u >= 0 always) and a = 1 (never flip, since u < 1 always)
    flips = (u >= a).astype(np.uint8)
    return x ^ flips


def randomize_corpus(c: ResponseCorpus, a: float, seed: RandomSeed) -> ResponseCorpus:
    """Randomize every record of a corpus, order preserved.

    One vectorized draw; record j gets exactly the uniforms of its counter
    block, so the result matches per-record :func:`randomize` calls and is
    independent of chunking.
    """
    check_probability(a, "a")
    u = seed.generator().random((c.m, c.width))
    flips = (u >= a).astype(np.uint8)
    return ResponseCorpus(c.bits ^ flips)


__all__ = [
    "RandomSeed",
    "ResponseCorpus",
    "Direct",
    "Warner",
    "UnrelatedUniform",
    "RapporOneTime",
    "RapporFull",
    "RandomizerSpec",
    "effective_a",
    "parse_mechanism",
    "randomize",
    "randomize_corpus",
]
