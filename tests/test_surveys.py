import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisymrr import (
    Mechanism,
    SingularChannelError,
    effective_a,
    trace_constant,
    unrelated_c,
    warner_c,
)


class TestUnrelatedC:
    def test_uniform_coin_single_bit(self):
        assert unrelated_c(0.5, 1) == pytest.approx(2.5, rel=1e-15)

    def test_uniform_coin_two_bits(self):
        assert unrelated_c(0.5, 2) == pytest.approx(6.25, rel=1e-15)

    def test_never_deflects_no_cost(self):
        for n in (1, 3, 6):
            assert unrelated_c(0.0, n) == 1.0

    def test_always_deflecting_rejected(self):
        with pytest.raises(SingularChannelError):
            unrelated_c(1.0, 2)

    @pytest.mark.parametrize("p", np.linspace(0.05, 0.95, 10))
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_is_trace_constant_of_effective_channel(self, p, n):
        a = effective_a(Mechanism("unrelated", (p,)))
        assert unrelated_c(p, n) == pytest.approx(trace_constant(a, n), rel=1e-12)

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            unrelated_c(-0.1, 1)
        with pytest.raises(ValueError):
            unrelated_c(1.5, 1)


class TestWarnerC:
    def test_quarter_single_bit(self):
        assert warner_c(0.25, 1) == pytest.approx(2.5, rel=1e-15)

    def test_three_quarters_single_bit(self):
        # truth-telling at p and at 1-p are the same channel up to relabeling
        assert warner_c(0.75, 1) == pytest.approx(2.5, rel=1e-15)

    def test_deterministic_no_cost(self):
        for n in (1, 3, 6):
            assert warner_c(1.0, n) == 1.0
            assert warner_c(0.0, n) == 1.0

    def test_coin_flip_rejected(self):
        with pytest.raises(SingularChannelError):
            warner_c(0.5, 3)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.66, 0.8, 0.97])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_is_trace_constant_of_effective_channel(self, p, n):
        a = effective_a(Mechanism("warner", (p,)))
        assert warner_c(p, n) == pytest.approx(trace_constant(a, n), rel=1e-12)


def ratio(p, n):
    """The two designs' cost constants at a common dial p, as figure 2a
    tabulates them."""
    return unrelated_c(p, n) / warner_c(p, n)


class TestCompare:
    def test_hand_value_at_quarter(self):
        assert unrelated_c(0.25, 1) == pytest.approx(1.3888888888888888, rel=1e-15)
        assert warner_c(0.25, 1) == pytest.approx(2.5, rel=1e-15)
        assert ratio(0.25, 1) == pytest.approx(0.5555555555555556, rel=1e-15)

    def test_warner_wins_below_two_thirds(self):
        for p in np.linspace(0.01, 0.66, 20):
            assert ratio(p, 1) < 1.0
            assert ratio(p, 3) < 1.0

    def test_unrelated_wins_above_two_thirds(self):
        for p in np.linspace(0.67, 0.95, 20):
            assert ratio(p, 1) > 1.0
            assert ratio(p, 3) > 1.0

    def test_crossing_is_exactly_two_thirds(self):
        assert ratio(2.0 / 3.0, 1) == pytest.approx(1.0, rel=1e-12)

    @given(
        p=st.floats(0.05, 0.95, allow_nan=False).filter(lambda p: abs(p - 0.5) > 1e-3),
        n=st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_ratio_is_single_bit_ratio_to_the_nth(self, p, n):
        single = ratio(p, 1)
        assert ratio(p, n) == pytest.approx(single**n, rel=1e-9)

    def test_log_ratio_grows_linearly_with_width(self):
        # widening the record amplifies whichever design is better
        logs = [math.log(ratio(0.8, n)) for n in range(1, 8)]
        steps = np.diff(logs)
        assert np.ptp(steps) <= 1e-9
        assert steps[0] > 0

    def test_coin_flip_rejected(self):
        with pytest.raises(SingularChannelError):
            ratio(0.5, 2)
