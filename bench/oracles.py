"""Checks of the CLI's outputs against the benchmark's own computations.

Each ``check_*`` function raises ``OracleError`` on the first mismatch and
returns nothing otherwise.  They run outside the timed interval.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path

import numpy as np

from inputs import read_corpus

TOLERANCE = 1e-9


class OracleError(Exception):
    """An output disagrees with the benchmark's expectation."""


def histogram(bits: np.ndarray, positions: list[int]) -> np.ndarray:
    """Counts of the k-bit patterns; listed position t has cell weight 2^t."""
    weights = np.int64(1) << np.arange(len(positions), dtype=np.int64)
    cells = bits[:, positions].astype(np.int64) @ weights
    return np.bincount(cells, minlength=1 << len(positions))


def inverse_kernel_estimate(counts: np.ndarray, a: float) -> np.ndarray:
    """Unbiased marginal estimate: the 2x2 inverse kernel applied on each axis
    of the frequency vector viewed as a 2x...x2 tensor."""
    ai = a / (2.0 * a - 1.0)
    kernel = np.array([[ai, 1.0 - ai], [1.0 - ai, ai]])
    k = counts.size.bit_length() - 1
    t = (counts / counts.sum()).reshape([2] * k)
    for axis in range(k):
        t = np.moveaxis(np.tensordot(kernel, t, axes=([1], [axis])), 0, axis)
    return t.reshape(-1)


def simplex_projection(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort and threshold)."""
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    ranks = np.arange(1, v.size + 1)
    rho = np.nonzero(u * ranks > cumulative - 1.0)[0][-1]
    return np.maximum(v - (cumulative[rho] - 1.0) / (rho + 1.0), 0.0)


@cache
def cell_labels(k: int) -> tuple[str, ...]:
    """Pattern labels in cell order, bit t of the cell index as character t."""
    return tuple("".join("1" if (i >> t) & 1 else "0" for t in range(k)) for i in range(1 << k))


def _header(line: str) -> dict[str, str]:
    if not line.startswith("# "):
        raise OracleError(f"missing header, got {line[:60]!r}")
    return dict(token.split("=", 1) for token in line[2:].split() if "=" in token)


def _floats(fields: list[str]) -> np.ndarray:
    try:
        return np.array([float(x) for x in fields])
    except ValueError as exc:
        raise OracleError(str(exc)) from exc


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def check_randomized(path: Path, expected_bits: np.ndarray, a: float, seed: int, stream: int) -> None:
    """The randomize output equals truth XOR flips, with an echoing header."""
    try:
        bits, meta = read_corpus(path)
    except (ValueError, KeyError) as exc:
        raise OracleError(f"unparseable randomized corpus: {exc}") from exc
    _expect(float(meta.get("a", "nan")) == a, f"header a={meta.get('a')}, expected {a}")
    _expect(meta.get("seed") == str(seed) and meta.get("stream") == str(stream),
            f"header seed/stream {meta.get('seed')}/{meta.get('stream')}, expected {seed}/{stream}")
    _expect(bits.shape == expected_bits.shape, f"shape {bits.shape}, expected {expected_bits.shape}")
    wrong = int((bits != expected_bits).sum())
    _expect(wrong == 0, f"{wrong} bits differ from truth XOR Philox flips")


def check_estimate(path: Path, noisy_bits: np.ndarray, positions: list[int], a: float, project: bool) -> None:
    """Every cell matches the kernel-pass estimate of the noisy histogram.

    Columns are found by name, so added columns (such as per-cell standard
    errors) leave the check intact."""
    lines = Path(path).read_text().splitlines()
    _expect(len(lines) >= 2, "estimate output has no rows")
    meta = _header(lines[0])
    _expect(meta.get("m") == str(noisy_bits.shape[0]), f"header m={meta.get('m')}")
    _expect(meta.get("bits") == ",".join(map(str, positions)), f"header bits={meta.get('bits')}")
    _expect(meta.get("projected") == str(int(project)), f"header projected={meta.get('projected')}")
    columns = lines[1].split(",")
    _expect("pattern" in columns and "estimate" in columns, f"column header {lines[1]!r}")
    label_at, value_at = columns.index("pattern"), columns.index("estimate")
    k = len(positions)
    rows = [line.split(",") for line in lines[2:]]
    _expect(len(rows) == 1 << k and all(len(r) == len(columns) for r in rows),
            f"{len(rows)} rows, expected {1 << k} rows of {len(columns)} fields")
    _expect(tuple(r[label_at] for r in rows) == cell_labels(k), "pattern labels out of order")
    got = _floats([r[value_at] for r in rows])
    expected = inverse_kernel_estimate(histogram(noisy_bits, positions), a)
    if project:
        expected = simplex_projection(expected)
        _expect(bool((got >= 0.0).all()), "projected estimate has a negative cell")
    worst = float(np.max(np.abs(got - expected)))
    _expect(worst <= TOLERANCE, f"cell off by {worst:.3g} from the kernel-pass oracle")
    _expect(abs(float(got.sum()) - 1.0) <= TOLERANCE, f"estimate sums to {got.sum()!r}")


def check_figure_1a(path: Path, n: int, trials: int, seed: int) -> None:
    """Shape, seed echo and per-row normalisation of a figure 1a dataset."""
    lines = Path(path).read_text().splitlines()
    _expect(len(lines) >= 2, "figure output has no rows")
    meta = _header(lines[0])
    _expect(meta.get("seed") == str(seed), f"header seed={meta.get('seed')}, expected {seed}")
    columns = 3 + (1 << n)
    rows = [line.split(",") for line in lines[2:]]
    _expect(len(lines[1].split(",")) == columns, f"column header is not {columns} wide")
    _expect(len(rows) == 3 * trials and all(len(r) == columns for r in rows),
            f"expected {3 * trials} rows of {columns} columns")
    for row in rows:
        if row[1] in ("direct", "randomized", "randomized_scaled"):
            total = float(_floats(row[3:]).sum())
            _expect(abs(total - 1.0) <= TOLERANCE, f"trial {row[0]} {row[1]} row sums to {total!r}")
        else:
            raise OracleError(f"unknown estimator {row[1]!r}")
    _expect([r[1] for r in rows[:3]] == ["direct", "randomized", "randomized_scaled"],
            "rows are not in trial order")
