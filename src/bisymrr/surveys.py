"""Closed-form cost constants for the two classic survey designs.

Both designs reduce to bit-flip channels, so each has a cost constant c in
its own dial p; comparing them parameter-by-parameter is what practitioners
historically did, and the ratio below reproduces that comparison.  The
punchline lives in the privacy module: at equal privacy budget the two
constants coincide, so the parameter-indexed preference order is an artifact
of the dials, not a real difference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SingularChannelError, check_count, check_invertible, check_probability


def unrelated_c(p: float, n: int) -> float:
    """Cost constant of the unrelated-question design at dial p:
    ((p^2 - 2p + 2) / (2 (p - 1)^2))^n, the channel constant at a = (2-p)/2."""
    check_probability(p, "p")
    if p == 1.0:
        raise SingularChannelError(
            "p = 1 always answers the coin (a = 1/2); the cost diverges"
        )
    n = check_count(n, "bit width")
    return ((p * p - 2.0 * p + 2.0) / (2.0 * (p - 1.0) ** 2)) ** n


def warner_c(p: float, n: int) -> float:
    """Cost constant of the coin-flip design at dial p:
    ((2p^2 - 2p + 1) / (2p - 1)^2)^n, the channel constant at a = p."""
    check_probability(p, "p")
    check_invertible(p, "p")
    n = check_count(n, "bit width")
    return ((2.0 * p * p - 2.0 * p + 1.0) / (2.0 * p - 1.0) ** 2) ** n


@dataclass(frozen=True)
class MechanismComparison:
    """Both cost constants at a common dial value, and their ratio."""

    p: float
    n: int
    c_unrelated: float
    c_warner: float
    ratio: float


def compare(p: float, n: int) -> MechanismComparison:
    """Evaluate both designs at the same dial p.

    The ratio crosses 1 at p = 2/3: below it the unrelated-question design
    looks cheaper, above it the coin-flip design does.  Raising n just powers
    the ratio, sharpening whichever preference the dial already picked.
    """
    c_u = unrelated_c(p, n)
    c_w = warner_c(p, n)
    return MechanismComparison(
        p=p, n=n, c_unrelated=c_u, c_warner=c_w, ratio=c_u / c_w
    )
