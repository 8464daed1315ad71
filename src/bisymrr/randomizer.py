"""Randomize binary records bit by bit, reproducibly.

All the survey and telemetry mechanisms handled here do the same thing once
you squint: each bit of the record is reported truthfully with some effective
probability ``a`` and flipped otherwise, independently across bits.  Each
classic parameterization is a dial of that one family: :data:`_MECHANISMS`
names its fields and the effective ``a`` they fix, and a :class:`Mechanism`
is one name from that table with its parameters.  The actual randomization is
a single XOR with a vector of Bernoulli(1 - a) draws.

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


def _symmetric_p(f: float, q: float, p: float) -> None:
    # absolute tolerance: 0.3 and 1 - 0.7 differ by one ulp
    if not math.isclose(p, 1.0 - q, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError(
            f"asymmetric instantaneous stage (p={p}, q={q}) is not "
            "a bit-flip channel; only the symmetric mode p = 1 - q is supported"
        )


# The family's dials, the one table of them: each name maps to its fields in
# spec order, the effective a they fix, and the keys a spec may give besides
# its fields, each with the check its value must pass.
_MECHANISMS = {
    # report each bit truthfully with probability a, flipped otherwise
    "direct": (("a",), lambda a: a, {}),
    # Warner's coin flip: answer the real question truthfully with
    # probability p, otherwise answer its negation
    "warner": (("p",), lambda p: p, {}),
    # Simmons' unrelated question: with probability p answer a fair coin
    # instead; truthful unless the coin both fires and disagrees
    "unrelated": (("p",), lambda p: (2.0 - p) / 2.0, {}),
    # Rappor's permanent stage alone: each bit is kept with probability 1 - f,
    # else replaced by a fair coin
    "rappor1": (("f",), lambda f: (2.0 - f) / 2.0, {}),
    # Rappor's permanent stage (noise f), then the instantaneous stage: report
    # 1 with probability q for a memoized 1 and p for a 0.  Only the symmetric
    # mode p = 1 - q composes into one bit-flip channel, so p is no field; a
    # spec may give it, and it is refused unless it equals 1 - q.  The two
    # symmetric flips compose to a = q - (q - 1/2) f.
    "rappor": (("f", "q"), lambda f, q: q - (q - 0.5) * f, {"p": _symmetric_p}),
}


def _entry(name: str) -> tuple:
    if name not in _MECHANISMS:
        known = ", ".join(sorted(_MECHANISMS))
        raise ValueError(f"unknown mechanism {name!r}; expected one of: {known}")
    return _MECHANISMS[name]


@dataclass(frozen=True)
class Mechanism:
    """One dial of the family: a mechanism of :data:`_MECHANISMS` and its
    parameters, floats in [0, 1] in the table's field order."""

    name: str
    params: tuple[float, ...]

    def __post_init__(self):
        fields, params = _entry(self.name)[0], tuple(self.params)
        if len(params) != len(fields):
            raise ValueError(
                f"mechanism {self.name!r} takes {len(fields)} parameter(s) "
                f"({', '.join(fields)}), got {len(params)}"
            )
        checked = tuple(float(check_probability(v, f)) for f, v in zip(fields, params))
        object.__setattr__(self, "params", checked)


def effective_a(spec: Mechanism) -> float:
    """Truth probability per bit of the equivalent single-flip channel."""
    return _MECHANISMS[spec.name][1](*spec.params)


def parse_mechanism(text: str) -> Mechanism:
    """Parse ``name:value,...`` (the values in field order) or
    ``name:key=value,...`` for a mechanism of :data:`_MECHANISMS`;
    :func:`~bisymrr.corpus_io.mechanism_text` writes this form.
    """
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    fields, _, extra = _entry(name)
    parts = [p.strip() for p in rest.split(",") if p.strip()]
    if not any("=" in p for p in parts):
        return Mechanism(name, tuple(float(p) for p in parts))
    values = {}
    for part in parts:
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or (key not in fields and key not in extra):
            raise ValueError(
                f"mechanism {name!r} takes {', '.join(fields)}, in that order or as "
                f"key=value pairs; got {part!r}"
            )
        if key in values:
            raise ValueError(f"mechanism {name!r} got key {key!r} twice")
        values[key] = float(value)
    spec = Mechanism(name, tuple(values[f] for f in fields if f in values))
    for key, check in extra.items():
        if key in values:
            check(*spec.params, values[key])
    return spec


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
    "Mechanism",
    "effective_a",
    "parse_mechanism",
    "randomize",
    "randomize_corpus",
]
