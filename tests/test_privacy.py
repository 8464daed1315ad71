import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisymrr import (
    InfiniteDisclosureError,
    SingularChannelError,
    a_for_epsilon,
    c_at_alpha,
    efficiency_loss,
    epsilon_of,
    likelihood_ratio,
    report_for_a,
    trace_constant,
    unrelated_c,
    warner_c,
)

A_GRID = [0.01, 0.1, 0.3, 0.45, 0.55, 0.6, 0.75, 0.9, 0.99]
EPS_GRID = [0.05, 0.2, math.log(3), 1.0, 2.0, 5.0]


class TestLikelihoodRatio:
    def test_three_quarters(self):
        assert likelihood_ratio(0.75) == 3.0

    def test_lying_mirror(self):
        assert likelihood_ratio(0.25) == 3.0

    def test_coin_flip_reveals_nothing(self):
        assert likelihood_ratio(0.5) == 1.0

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_deterministic_channel_rejected(self, a):
        with pytest.raises(InfiniteDisclosureError):
            likelihood_ratio(a)

    @given(a=st.floats(0.001, 0.999, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_symmetric_around_half_and_at_least_one(self, a):
        assert likelihood_ratio(a) == pytest.approx(likelihood_ratio(1.0 - a), rel=1e-12)
        assert likelihood_ratio(a) >= 1.0


class TestEpsilonOf:
    def test_single_question_three_quarters(self):
        assert epsilon_of(0.75, 1) == pytest.approx(math.log(3), abs=1e-15)

    def test_linear_in_question_count(self):
        base = epsilon_of(0.8, 1)
        for k in (2, 3, 7):
            assert epsilon_of(0.8, k) == pytest.approx(k * base, rel=1e-15)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            epsilon_of(0.75, 0)


class TestAForEpsilon:
    def test_log_three_inverts_to_three_quarters(self):
        assert a_for_epsilon(math.log(3), 1) == pytest.approx(0.75, abs=1e-15)

    def test_lying_branch(self):
        a = 1.0 - a_for_epsilon(math.log(3), 1)
        assert a == pytest.approx(0.25, abs=1e-15)
        assert epsilon_of(a, 1) == pytest.approx(math.log(3), abs=1e-15)

    @pytest.mark.parametrize("eps", EPS_GRID)
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_roundtrip_epsilon_first(self, eps, k):
        assert epsilon_of(a_for_epsilon(eps, k), k) == pytest.approx(eps, abs=1e-12)

    @pytest.mark.parametrize("a", [a for a in A_GRID if a > 0.5])
    def test_roundtrip_a_first(self, a):
        for k in (1, 3):
            assert a_for_epsilon(epsilon_of(a, k), k) == pytest.approx(a, abs=1e-12)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            a_for_epsilon(0.0, 1)
        with pytest.raises(ValueError):
            a_for_epsilon(-1.0, 2)

    def test_realizable_budgets_keep_their_a(self):
        """Up to the largest budget a float channel realizes, a is exactly
        e^eps / (1 + e^eps), as it was before larger budgets were refused."""
        for eps in np.linspace(0.01, 36.8, 200).tolist():
            t = math.exp(eps)
            assert a_for_epsilon(eps, 1) == t / (1.0 + t)

    def test_always_honest_side_unless_asked(self):
        for eps in EPS_GRID:
            assert a_for_epsilon(eps, 2) > 0.5
            assert 1.0 - a_for_epsilon(eps, 2) < 0.5


class TestCAtAlpha:
    def test_single_bit_log_three(self):
        assert c_at_alpha(math.log(3), 1, 1) == pytest.approx(2.5, abs=1e-12)

    @pytest.mark.parametrize("eps", EPS_GRID)
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_agrees_with_trace_constant_route(self, eps, k, n):
        via_a = trace_constant(a_for_epsilon(eps, k), n)
        assert c_at_alpha(eps, k, n) == pytest.approx(via_a, rel=1e-10)

    def test_monotone_decreasing_in_budget(self):
        values = [c_at_alpha(eps, 1, 3) for eps in np.linspace(0.1, 4, 40)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_grows_exponentially_in_width(self):
        base = c_at_alpha(1.0, 1, 1)
        for n in (2, 5, 9):
            assert c_at_alpha(1.0, 1, n) == pytest.approx(base**n, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-200, 1e-160])
    def test_tiny_budget_overflows(self, eps):
        # (e^t - 1)^2 underflows to 0 (1e-200) or the ratio to inf (1e-160)
        with pytest.raises(OverflowError):
            c_at_alpha(eps, 1, 1)

    def test_tiny_budget_at_width_zero(self):
        assert c_at_alpha(1e-200, 1, 0) == 1.0

    def test_zero_budget_rejected(self):
        with pytest.raises(SingularChannelError):
            c_at_alpha(0.0, 1, 2)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
    def test_non_budget_is_a_value_error(self, eps):
        with pytest.raises(ValueError):
            c_at_alpha(eps, 1, 2)

    def test_nan_s_rejected(self):
        with pytest.raises(ValueError, match="squared probabilities"):
            efficiency_loss(float("nan"), c_at_alpha(1.0, 1, 2))

    def test_loss_at_alpha_composes(self):
        eps, k, n, s = 1.0, 2, 3, 0.2
        c = c_at_alpha(eps, k, n)
        assert efficiency_loss(s, c) == pytest.approx((c - s) / (1 - s), rel=1e-12)
        rep = report_for_a(a_for_epsilon(eps, k), k, n, s)
        assert rep.loss_at_alpha == pytest.approx(efficiency_loss(s, c), rel=1e-12)


class TestEqualBudgetCoincidence:
    @pytest.mark.parametrize("alpha", np.linspace(0.2, 2.0, 19))
    def test_two_designs_same_budget_same_cost(self, alpha):
        # spending alpha on a direct question or on an unrelated one gives
        # the same variance constant once both are expressed through a
        a = a_for_epsilon(alpha, 1)
        for n in (1, 2, 4):
            assert warner_c(a, n) == pytest.approx(unrelated_c(2 - 2 * a, n), rel=1e-10)


class TestReports:
    def test_report_for_a_fields(self):
        rep = report_for_a(0.75, k=1, n=1, s=0.5)
        assert rep.ratio == 3.0
        assert rep.epsilon_per_bit == pytest.approx(math.log(3), abs=1e-15)
        assert rep.epsilon_total == pytest.approx(math.log(3), abs=1e-15)
        assert rep.c_at_alpha == pytest.approx(2.5, abs=1e-12)
        assert rep.a == 0.75
        assert (rep.k, rep.n, rep.s) == (1, 1, 0.5)

    def test_report_totals_scale_with_k(self):
        rep = report_for_a(0.8, k=4, n=2, s=0.25)
        assert rep.epsilon_total == pytest.approx(4 * rep.epsilon_per_bit, rel=1e-15)

    def test_report_for_a_rejects_s_below_the_uniform_distributions(self):
        assert report_for_a(0.75, k=3, n=3, s=0.125).s == 0.125
        with pytest.raises(ValueError, match="below 0.125 = 2\\^-3"):
            report_for_a(0.75, k=3, n=3, s=0.01)

    def test_report_for_a_rejects_coin_flip(self):
        with pytest.raises(SingularChannelError, match="useless"):
            report_for_a(0.5, k=1, n=1, s=0.5)

    def test_report_roundtrip(self):
        for eps in (0.3, 1.0, 2.5):
            rep = report_for_a(a_for_epsilon(eps, 2), k=2, n=3, s=0.125)
            assert rep.epsilon_total == pytest.approx(eps, abs=1e-12)
            back = report_for_a(rep.a, k=2, n=3, s=0.125)
            assert back.c_at_alpha == pytest.approx(rep.c_at_alpha, rel=1e-12)

    @pytest.mark.parametrize("a", [float("nan"), 1.5, -0.25])
    def test_report_for_a_rejects_non_probability(self, a):
        with pytest.raises(ValueError, match="a must lie in"):
            report_for_a(a, k=1, n=1, s=0.5)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="budget must be positive"):
            a_for_epsilon(-0.5, 1)
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            a_for_epsilon(1.0, 0)
        assert epsilon_of(a_for_epsilon(1.5, 3), 3) == pytest.approx(1.5, rel=1e-12)
