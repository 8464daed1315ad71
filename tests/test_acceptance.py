"""End-to-end acceptance gate.

One test per shipping criterion; each prints a single [PASS]/[FAIL] line with
the measured quantity so a bare ``pytest`` run doubles as a checklist.
Statistical checks run on fixed seeds.
"""

import math
import time
import timeit
import zlib

import numpy as np
import pytest
import scipy.stats

from bisymrr import (
    Mechanism,
    RandomSeed,
    a_for_epsilon,
    c_at_alpha,
    cov_trace_closed_form,
    effective_a,
    entry_at,
    epsilon_of,
    estimate,
    inverse_parameter,
    loss,
    loss_approx_quality,
    materialize,
    randomize_corpus,
    ResponseCorpus,
    trace_constant,
)
from bisymrr.figures import ExperimentConfig, figure_2a, figure_2b

from dense_oracles import covariance
from twostage import simulate


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{tag}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def test_criterion_01_inverse_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for a in (0.3, 0.6, 0.75, 0.9, 0.99):
        for n in range(1, 7):
            forward = materialize(a, n)
            backward = materialize(inverse_parameter(a), n)
            dev = np.abs(forward @ backward - np.eye(1 << n)).max()
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "flip matrix times closed-form inverse is the identity",
        worst <= 1e-9 and elapsed < 5.0,
        f"max dev {worst:.3g}, {elapsed:.2f}s",
    )


def test_criterion_02_covariance_trace_closed_form():
    rng = np.random.default_rng(1202)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(1, 6))
        # keep the channel decently conditioned; near a = 1/2 the brute-force
        # triple product loses digits faster than the tolerance allows
        a = 0.5 + rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.5)
        pi = rng.dirichlet(np.ones(1 << n))
        m = int(rng.integers(1, 1000))
        brute = float(np.trace(covariance(pi, a, n, m)))
        closed = cov_trace_closed_form(float(pi @ pi), a, n, m)
        worst = max(worst, abs(brute - closed))
    _report(
        2,
        "closed-form covariance trace matches the brute-force matrix",
        worst <= 1e-9,
        f"60 configs, max dev {worst:.3g}",
    )


def test_criterion_03_headline_loss():
    got = loss(0.4, 0.75, 2).loss_L
    _report(
        3,
        "loss at a=0.75, n=2, s=0.4 is 9.75",
        abs(got - 9.75) <= 1e-12,
        f"got {got!r}",
    )


def test_criterion_04_scaled_run_matches_direct_accuracy():
    t0 = time.perf_counter()
    pi = np.array([0.05, 0.15, 0.3, 0.5])
    a, n, trials = effective_a(Mechanism("unrelated", (0.5,))), 2, 10_000
    m_direct, m_scaled = 1_000, 9_750
    mixed = materialize(a, n) @ pi
    rng = RandomSeed(404).generator()
    direct = rng.multinomial(m_direct, pi, size=trials) / m_direct
    mse_direct = float(((direct - pi) ** 2).sum(axis=1).mean())
    noisy_counts = rng.multinomial(m_scaled, mixed, size=trials)
    mse_scaled = float(
        np.mean([((estimate(row, a) - pi) ** 2).sum() for row in noisy_counts])
    )
    elapsed = time.perf_counter() - t0
    ratio = mse_scaled / mse_direct
    _report(
        4,
        "randomized estimator at m=9750 keeps up with direct sampling at m=1000",
        ratio <= 1.10 and elapsed < 120.0,
        f"MSE ratio {ratio:.4f} over {trials} trials, {elapsed:.1f}s",
    )


def test_criterion_05_approximation_bound_magnitudes():
    d3, d4 = loss_approx_quality(3), loss_approx_quality(4)
    scaled = [loss_approx_quality(n) * 2 ** (3 * n) for n in range(3, 13)]
    ok = d3 <= 0.2386 and d4 <= 0.0029 and max(scaled) < 130
    _report(
        5,
        "flat-average quality bound: stated magnitudes and cubic decay",
        ok,
        f"bound(3)={d3:.6f}, bound(4)={d4:.6f}, max scaled {max(scaled):.1f}",
    )


def test_criterion_06_two_stage_mechanisms_match_channel():
    # each label seeds its mechanism's draws
    specs = [
        ("Warner", Mechanism("warner", (0.7,))),
        ("UnrelatedUniform", Mechanism("unrelated", (0.5,))),
        ("RapporOneTime", Mechanism("rappor1", (0.5,))),
        ("RapporFull", Mechanism("rappor", (0.5, 0.75))),
    ]
    n, per_input = 2, 25_000
    worst_p = 1.0
    for label, spec in specs:
        a = effective_a(spec)
        for x in range(1 << n):
            seed = zlib.crc32(f"acc6|{label}|{x}".encode())
            rng = np.random.default_rng(seed)
            counts = simulate(spec, n, x, per_input, rng)
            expected = per_input * np.array(
                [entry_at(a, n, r, x) for r in range(1 << n)]
            )
            p_value = scipy.stats.chisquare(counts, expected).pvalue
            worst_p = min(worst_p, p_value)
    _report(
        6,
        "acted-out survey mechanisms reproduce the channel columns",
        worst_p >= 1e-3,
        f"4 mechanisms x 4 inputs x {per_input} samples, min p {worst_p:.4f}",
    )


def test_criterion_07_budget_roundtrips_and_observed_ratio():
    worst_round = 0.0
    worst_c = 0.0
    for eps in (0.05, 0.2, math.log(3), 1.0, 2.0, 5.0):
        for k in (1, 2, 5):
            back = epsilon_of(a_for_epsilon(eps, k), k)
            worst_round = max(worst_round, abs(back - eps))
    for a in (0.55, 0.6, 0.75, 0.9, 0.99):
        for k in (1, 3):
            for n in (1, 3, 6):
                via_budget = c_at_alpha(epsilon_of(a, k), k, n)
                direct = trace_constant(a, n)
                worst_c = max(worst_c, abs(via_budget - direct) / direct)

    m = 1_000_000
    zeros = ResponseCorpus(np.zeros((m, 1), dtype=np.uint8))
    ones = ResponseCorpus(np.ones((m, 1), dtype=np.uint8))
    p_zero = randomize_corpus(zeros, 0.75, RandomSeed(7, 1)).bits.mean()
    p_one = randomize_corpus(ones, 0.75, RandomSeed(7, 2)).bits.mean()
    observed = max(
        (1 - p_zero) / (1 - p_one), p_one / p_zero
    )
    ok = worst_round <= 1e-12 and worst_c <= 1e-10 and 2.9 <= observed <= 3.1
    _report(
        7,
        "budget conversions invert and the observed disclosure ratio is 3",
        ok,
        f"roundtrip {worst_round:.2g}, c dev {worst_c:.2g}, ratio {observed:.4f}",
    )


def test_criterion_08_design_comparison_crossing_and_coincidence():
    _, rows_a = figure_2a(ExperimentConfig(n=1))
    crossings = [
        (lo[0] + hi[0]) / 2
        for lo, hi in zip(rows_a, rows_a[1:])
        if (lo[3] - 1.0) * (hi[3] - 1.0) < 0
    ]
    crossing_ok = len(crossings) == 1 and abs(crossings[0] - 2.0 / 3.0) <= 0.005

    _, rows_b = figure_2b(ExperimentConfig(n=1, k=1))
    worst_gap = max(abs(r[2] - r[3]) for r in rows_b)
    _report(
        8,
        "cost curves cross at p=2/3 and coincide at equal budget",
        crossing_ok and worst_gap <= 1e-10,
        f"crossing {crossings[0]:.4f}, max |c_u - c_w| {worst_gap:.2g}",
    )


def test_criterion_09_materialize_cost_per_added_bit():
    widths = range(6, 12)

    def per_call(n: int, number: int) -> float:
        return timeit.timeit(lambda: materialize(0.75, n), number=number) / number

    # Each width's call count follows from its entry count, 4^(10-n) calls of
    # 4^n entries, so no single slow call can set it.
    numbers = {n: 4 ** max(0, 10 - n) for n in widths}
    times = dict.fromkeys(widths, math.inf)
    # Each repeat times every width once, so a host slowdown lasting seconds
    # spreads over all widths instead of landing on whichever was being timed.
    for _ in range(15):
        for n in widths:
            times[n] = min(times[n], per_call(n, numbers[n]))
    ratios = [times[n + 1] / times[n] for n in range(6, 11)]
    ok = all(3.0 <= r <= 6.0 for r in ratios)
    _report(
        9,
        "materialize wall time scales with the entry count, x4 per bit",
        ok,
        "ratios " + ", ".join(f"{r:.2f}" for r in ratios),
    )


def test_criterion_10_flat_simplex_moments():
    draws = RandomSeed(1010).generator().standard_exponential((1_000_000, 4))
    pi = draws / draws.sum(axis=1, keepdims=True)
    s = (pi**2).sum(axis=1)
    mean, var = float(s.mean()), float(s.var())
    mean_err = abs(mean - 0.4) / 0.4
    var_err = abs(var - 12 / 1050) / (12 / 1050)
    _report(
        10,
        "simulated squared-mass moments match the closed forms",
        mean_err <= 0.01 and var_err <= 0.05,
        f"mean {mean:.5f} (err {mean_err:.2%}), var {var:.6f} (err {var_err:.2%})",
    )
