"""Direct two-stage protocol simulators, independent of effective_a.

Each function acts out a mechanism's actual respondent-side procedure with
vectorized draws, so the tests can compare protocol behavior against the
single-flip channel the library reduces it to.  Nothing here may call
effective_a; that would collapse the two routes being compared.
"""

import numpy as np


def _spread(x: int, n: int, m: int) -> np.ndarray:
    bits = np.array([(x >> t) & 1 for t in range(n)], dtype=np.uint8)
    return np.broadcast_to(bits, (m, n))


def simulate(spec, n: int, x: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Histogram of m protocol outputs for fixed input x (little-endian cells)."""
    truth = _spread(x, n, m)
    if spec.name == "direct":
        (a,) = spec.params
        flips = rng.random((m, n)) >= a
        out = truth ^ flips.astype(np.uint8)
    elif spec.name == "warner":
        (p,) = spec.params
        truthful = rng.random((m, n)) < p
        out = np.where(truthful, truth, 1 - truth).astype(np.uint8)
    elif spec.name == "unrelated":
        (p,) = spec.params
        ask_coin = rng.random((m, n)) < p
        coin = rng.integers(0, 2, (m, n), dtype=np.uint8)
        out = np.where(ask_coin, coin, truth).astype(np.uint8)
    elif spec.name == "rappor1":
        (f,) = spec.params
        replaced = rng.random((m, n)) < f
        coin = rng.integers(0, 2, (m, n), dtype=np.uint8)
        out = np.where(replaced, coin, truth).astype(np.uint8)
    elif spec.name == "rappor":
        f, q = spec.params
        replaced = rng.random((m, n)) < f
        coin = rng.integers(0, 2, (m, n), dtype=np.uint8)
        memo = np.where(replaced, coin, truth)
        prob_one = np.where(memo == 1, q, 1.0 - q)
        out = (rng.random((m, n)) < prob_one).astype(np.uint8)
    else:
        raise TypeError(f"no simulator for {spec.name}")
    weights = 1 << np.arange(n)
    cells = (out.astype(np.int64) * weights).sum(axis=1)
    return np.bincount(cells, minlength=1 << n)
