"""Seeded benchmark inputs, written and read by the benchmark's own code.

The corpus format is the CLI's: one ``# width=.. m=..`` header line, then one
row of comma-separated bits per record.  Writing and parsing it here, with
numpy instead of the package's ``corpus_io``, keeps the inputs and the output
checks fixed when the program's I/O layer changes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

LATENT_CLASSES = 4


def latent_class_corpus(seed: int, m: int, width: int) -> np.ndarray:
    """m records drawn from a mixture of independent-bit classes.

    Mixing makes the bits correlated, so marginals are far from uniform and
    from the product of their one-bit marginals.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = rng.dirichlet(np.ones(LATENT_CLASSES))
    bit_p = np.clip(rng.beta(0.5, 0.5, (LATENT_CLASSES, width)), 0.02, 0.98)
    cls = rng.choice(LATENT_CLASSES, size=m, p=weights)
    return (rng.random((m, width)) < bit_p[cls]).astype(np.uint8)


def philox_flips(bits: np.ndarray, a: float, seed: int, stream: int) -> np.ndarray:
    """The flip mask the CLI's randomizer draws: Philox uniforms >= a.

    The key packs seed and stream into the two 64-bit halves, and record j
    uses draws j*width .. j*width + width - 1.
    """
    key = (seed % 2**64) | ((stream % 2**64) << 64)
    u = np.random.Generator(np.random.Philox(key=key)).random(bits.shape)
    return (u >= a).astype(np.uint8)


def write_corpus(path: Path, bits: np.ndarray, meta: dict | None = None) -> None:
    """Write a corpus file in one buffer: '0'/'1' at even columns, ',' between,
    a newline at the end of each row."""
    m, width = bits.shape
    header = " ".join(f"{k}={v}" for k, v in {"width": width, "m": m, **(meta or {})}.items())
    rows = np.full((m, 2 * width), ord(","), dtype=np.uint8)
    rows[:, 0::2] = bits + ord("0")
    rows[:, -1] = ord("\n")
    with open(path, "wb") as out:
        out.write(f"# {header}\n".encode())
        out.write(rows.tobytes())


def read_corpus(path: Path) -> tuple[np.ndarray, dict[str, str]]:
    """Parse a corpus file strictly; any deviation from the format raises."""
    data = Path(path).read_bytes()
    head, sep, body = data.partition(b"\n")
    if not sep or not head.startswith(b"# "):
        raise ValueError(f"{path}: missing header line")
    meta = dict(token.split("=", 1) for token in head[2:].decode().split())
    width, m = int(meta["width"]), int(meta["m"])
    if len(body) != m * 2 * width:
        raise ValueError(f"{path}: {len(body)} data bytes, expected {m * 2 * width}")
    rows = np.frombuffer(body, dtype=np.uint8).reshape(m, 2 * width)
    if not (rows[:, 1:-1:2] == ord(",")).all() or not (rows[:, -1] == ord("\n")).all():
        raise ValueError(f"{path}: bad separators")
    bits = rows[:, 0::2] - ord("0")
    if (bits > 1).any():
        raise ValueError(f"{path}: field is not 0 or 1")
    return bits, meta


def file_record(path: Path) -> dict:
    """Byte size and SHA-256 of an input file, for the results."""
    data = Path(path).read_bytes()
    return {"file": Path(path).name, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
