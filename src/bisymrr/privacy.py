"""Convert between the channel parameter and a differential-privacy budget.

A single randomized bit leaks at most a factor r(a) = max((1-a)/a, a/(1-a))
between any two inputs; over records differing in at most k bits the leakage
compounds to r(a)^k, so the mechanism is eps-differentially private at
eps = k ln r(a).  These conversions are exact in both directions, and the
estimation cost c can therefore be written as a function of the budget alone:
two mechanisms tuned to the same eps always pay the same c, regardless of how
their dial maps to a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    InfiniteDisclosureError,
    SingularChannelError,
    check_budget,
    check_count,
    check_probability,
    check_squared_mass,
)
from .estimator import efficiency_loss


def likelihood_ratio(a: float) -> float:
    """Worst-case single-bit likelihood ratio r(a) = max((1-a)/a, a/(1-a))."""
    check_probability(a, "a")
    if a == 0.0 or a == 1.0:
        raise InfiniteDisclosureError(
            f"a = {a} reports some bit deterministically; the likelihood "
            "ratio is unbounded and no finite budget describes it"
        )
    return max((1.0 - a) / a, a / (1.0 - a))


def epsilon_of(a: float, k: int) -> float:
    """Budget spent by one response when inputs differ in at most k bits."""
    return check_count(k, "k", 1) * math.log(likelihood_ratio(a))


def a_for_epsilon(eps: float, k: int) -> float:
    """Channel parameter realizing exactly budget eps over k differing bits.

    Returns the truthful branch a = e^(eps/k) / (1 + e^(eps/k)) > 1/2; its
    mirror image 1 - a (respondents inverting more often than not) spends the
    same budget.  A budget whose a would round to 1 is refused.
    """
    # a rounds to 1 before eps/k reaches 37, long before e^(eps/k) overflows
    t = math.exp(min(check_budget(eps) / check_count(k, "k", 1), 40.0))
    if (a := t / (1.0 + t)) == 1.0:
        raise ValueError(f"no float channel realizes budget {eps} at k = {k}: its a rounds to 1")
    return a


def c_at_alpha(eps: float, k: int, n: int) -> float:
    """Estimation cost constant as a function of the budget alone:
    ((e^(2 eps/k) + 1) / (e^(eps/k) - 1)^2)^n.

    Equals ``trace_constant(a_for_epsilon(eps, k), n)``; the budget pins the
    cost no matter which mechanism dial produced it.
    """
    k = check_count(k, "k", 1)
    n = check_count(n, "bit width")
    if eps == 0.0:
        raise SingularChannelError(
            "a zero budget allows only a = 1/2: perfectly private, perfectly useless"
        )
    t = check_budget(eps) / k
    square = math.expm1(t) ** 2
    base = (math.exp(2.0 * t) + 1.0) / square if square else math.inf
    if base == math.inf and n:
        raise OverflowError(f"c at budget {eps} over {k} bits exceeds the float range")
    return base ** n


@dataclass(frozen=True)
class PrivacyReport:
    """Both directions of the budget conversion plus the cost it implies, for
    inputs differing in at most k of n bits and a distribution whose squared
    cell masses sum to s; fields in the order ``bisymrr privacy`` prints them."""

    a: float
    ratio: float
    epsilon_per_bit: float
    epsilon_total: float
    k: int
    n: int
    s: float
    c_at_alpha: float
    loss_at_alpha: float


def report_for_a(a: float, k: int, n: int, s: float) -> PrivacyReport:
    """Privacy report starting from the channel parameter (a = 1/2, budget 0,
    is singular in :func:`c_at_alpha`)."""
    ratio = likelihood_ratio(a)
    per_bit = math.log(ratio)
    total = k * per_bit
    c = c_at_alpha(total, k, n)
    return PrivacyReport(
        a=a,
        ratio=ratio,
        epsilon_per_bit=per_bit,
        epsilon_total=total,
        k=k,
        n=n,
        s=s,
        c_at_alpha=c,
        loss_at_alpha=efficiency_loss(check_squared_mass(s, n), c),
    )
