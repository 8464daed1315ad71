import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisymrr import (
    DegenerateDistributionError,
    Histogram,
    ResponseCorpus,
    SingularChannelError,
    WidthCapError,
    apply_kernel,
    cov_trace_closed_form,
    covariance,
    direct_covariance,
    efficiency_loss,
    estimate,
    estimate_variance,
    greenwood_moments,
    inverse_parameter,
    loss,
    loss_approx_quality,
    loss_ratio_empirical,
    marginal_histogram,
    materialize,
    project_to_simplex,
    trace_constant,
)

CORPUS = ResponseCorpus(np.array([[0, 1], [1, 1], [0, 1]], dtype=np.uint8))


def seeded_pi(cells: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).dirichlet(np.ones(cells))


class TestHistogram:
    def test_hand_counted_two_bits(self):
        h = marginal_histogram(CORPUS, [0, 1])
        assert np.array_equal(h.counts, [0, 0, 2, 1])
        assert h.m == 3 and h.k == 2

    def test_single_position(self):
        assert np.array_equal(marginal_histogram(CORPUS, [1]).counts, [0, 3])

    def test_empty_corpus(self):
        empty = ResponseCorpus(np.zeros((0, 3), dtype=np.uint8))
        assert np.array_equal(marginal_histogram(empty, [0, 2]).counts, [0, 0, 0, 0])

    def test_out_of_range_position(self):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            marginal_histogram(CORPUS, [0, 2])

    def test_positions_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            marginal_histogram(CORPUS, [1, 0])
        with pytest.raises(ValueError, match="increasing"):
            marginal_histogram(CORPUS, [1, 1])

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            Histogram(np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            Histogram(np.array([1, -1]))


class TestEstimate:
    def test_identity_channel(self):
        assert np.array_equal(estimate(Histogram(np.array([10, 0, 0, 0])), 1.0), [1, 0, 0, 0])

    def test_single_bit_hand_value(self):
        got = estimate(Histogram(np.array([25, 75])), 0.75)
        assert got == pytest.approx([0.0, 1.0], abs=1e-15)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate(Histogram(np.array([0, 0])), 0.75)

    def test_singular_channel_rejected(self):
        with pytest.raises(SingularChannelError):
            estimate(Histogram(np.array([5, 5])), 0.5)

    @given(
        counts=st.lists(st.integers(0, 10_000), min_size=2, max_size=64).filter(
            lambda c: sum(c) > 0 and (len(c) & (len(c) - 1)) == 0
        ),
        a=st.floats(0.0, 1.0, allow_nan=False).filter(lambda a: abs(a - 0.5) >= 0.05),
    )
    @settings(max_examples=80, deadline=None)
    def test_always_sums_to_one(self, counts, a):
        got = estimate(Histogram(np.array(counts)), a)
        assert abs(got.sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize("a", [0.3, 0.75, 0.9])
    @pytest.mark.parametrize("k", [4, 7, 10, 12])
    def test_lazy_path_matches_dense(self, a, k):
        counts = np.random.default_rng(k).integers(0, 500, 1 << k)
        counts[0] += 1  # ensure non-empty
        dense = materialize(inverse_parameter(a), k) @ (counts / counts.sum())
        lazy = estimate(Histogram(counts), a)
        assert np.abs(dense - lazy).max() <= 1e-12

    @pytest.mark.parametrize("a", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unbiased_over_simulated_corpora(self, a, n):
        pi = seeded_pi(1 << n, 100 + n)
        trials, m = 10_000, 1_000
        rng = np.random.default_rng(2_000 + 10 * n + int(a * 100))
        counts = rng.multinomial(m, materialize(a, n) @ pi, size=trials)
        inv = materialize(a / (2 * a - 1), n)
        estimates = counts @ inv.T / m
        mc_se = estimates.std(axis=0, ddof=1) / np.sqrt(trials)
        assert (np.abs(estimates.mean(axis=0) - pi) <= 4 * mc_se + 1e-12).all()

    def test_marginal_consistency(self):
        # estimating on K then summing out one bit == estimating on K minus it
        rng = np.random.default_rng(17)
        corpus = ResponseCorpus(rng.integers(0, 2, (500, 4), dtype=np.uint8))
        a, full = 0.75, [0, 2, 3]
        est_full = estimate(marginal_histogram(corpus, full), a)
        for drop_t, remaining in [(0, [2, 3]), (1, [0, 3]), (2, [0, 2])]:
            tensor = est_full.reshape([2] * len(full))
            # axis len(full)-1-t corresponds to weight-2^t position
            summed = tensor.sum(axis=len(full) - 1 - drop_t).reshape(-1)
            est_rest = estimate(marginal_histogram(corpus, remaining), a)
            assert np.abs(summed - est_rest).max() <= 1e-12


class TestCovariance:
    def test_identity_channel_reduces_to_multinomial(self):
        pi = np.array([0.1, 0.2, 0.3, 0.4])
        got = covariance(pi, 1.0, 2, 10)
        want = (np.diag(pi) - np.outer(pi, pi)) / 10
        assert np.abs(got - want).max() <= 1e-15

    def test_point_mass_identity_channel_is_zero(self):
        pi = np.array([0.0, 1.0])
        assert np.abs(covariance(pi, 1.0, 1, 5)).max() <= 1e-15

    def test_symmetry(self):
        pi = seeded_pi(8, 3)
        got = covariance(pi, 0.7, 3, 2)
        assert np.abs(got - got.T).max() <= 1e-15

    def test_width_cap(self):
        with pytest.raises(WidthCapError, match="covariance"):
            covariance(np.ones(512) / 512, 0.75, 9, 1)

    def test_cell_count_must_match_width(self):
        with pytest.raises(ValueError, match="cells"):
            covariance(np.array([0.5, 0.5]), 0.75, 2, 1)

    @pytest.mark.parametrize("a", [0.3, 0.65, 0.75, 0.9, 0.99])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_trace_matches_closed_form(self, a, n):
        pi = seeded_pi(1 << n, 50 + n)
        for m in (1, 100):
            brute = float(np.trace(covariance(pi, a, n, m)))
            closed = cov_trace_closed_form(float(pi @ pi), a, n, m)
            assert abs(brute - closed) <= 1e-9


class TestEstimateVariance:
    @pytest.mark.parametrize("a", [0.3, 0.65, 0.75, 0.9, 0.99])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dense_covariance_diagonal(self, a, n):
        pi = seeded_pi(1 << n, 70 + n)
        q = materialize(a, n) @ pi
        for m in (1, 100):
            diag = np.diag(covariance(pi, a, n, m))
            got = estimate_variance(q, pi, a, m)
            assert np.abs(got - diag).max() <= 1e-12 * np.abs(diag).max()

    @pytest.mark.parametrize("a", [0.3, 0.75, 0.9])
    @pytest.mark.parametrize("n", [1, 4, 8, 12])
    def test_sums_to_closed_form_trace(self, a, n):
        pi = seeded_pi(1 << n, 90 + n)
        got = estimate_variance(apply_kernel(pi, a, 1.0 - a), pi, a, 50).sum()
        assert got == pytest.approx(cov_trace_closed_form(float(pi @ pi), a, n, 50), rel=1e-12)

    def test_rejects_mismatched_cells_and_empty_sample(self):
        with pytest.raises(ValueError, match="cells"):
            estimate_variance(np.ones(4) / 4, np.ones(2) / 2, 0.75, 1)
        with pytest.raises(ValueError, match="sample count"):
            estimate_variance(np.ones(4) / 4, np.ones(4) / 4, 0.75, 0)

    def test_singular_channel_rejected(self):
        with pytest.raises(SingularChannelError):
            estimate_variance(np.ones(2) / 2, np.ones(2) / 2, 0.5, 1)


class TestTraceConstant:
    def test_width_two_three_quarters(self):
        assert trace_constant(0.75, 2) == 6.25

    def test_width_one_three_quarters(self):
        assert trace_constant(0.75, 1) == 2.5

    def test_no_randomization(self):
        assert trace_constant(1.0, 5) == 1.0

    def test_singular(self):
        with pytest.raises(SingularChannelError):
            trace_constant(0.5, 2)

    def test_closed_form_trace_values(self):
        assert cov_trace_closed_form(0.4, 0.75, 2, 1) == pytest.approx(5.85, abs=1e-12)
        assert cov_trace_closed_form(0.4, 1.0, 2, 10) == pytest.approx(0.06, abs=1e-15)


class TestLoss:
    def test_headline_value(self):
        report = loss(0.4, 0.75, 2)
        assert report.c == 6.25
        assert abs(report.loss_L - 9.75) <= 1e-12
        # 0.4 happens to be the flat-average s at width 2
        assert abs(report.loss_approx - 9.75) <= 1e-12
        assert report.loss_floor == pytest.approx(8.0, abs=1e-12)
        assert report.trace_cov == pytest.approx(5.85, abs=1e-12)

    def test_exact_s_for_skewed_distribution(self):
        pi = np.array([0.05, 0.15, 0.3, 0.5])
        s = float(pi @ pi)
        report = loss(s, 0.75, 2)
        assert report.loss_L == pytest.approx(9.267716535433071, abs=1e-12)
        assert abs(report.loss_L - loss_ratio_empirical(pi, 0.75, 2, 10)) <= 1e-9

    @pytest.mark.parametrize("s", [0.05, 0.3, 0.6, 0.99])
    def test_no_randomization_no_loss(self, s):
        assert loss(s, 1.0, 3).loss_L == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            loss(1.0, 0.75, 2)

    def test_nonpositive_s_rejected(self):
        with pytest.raises(ValueError):
            loss(0.0, 0.75, 2)

    @pytest.mark.parametrize("a", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_floor_is_a_floor(self, a, n):
        for seed in range(5):
            s = float((pi := seeded_pi(1 << n, seed)) @ pi)
            report = loss(s, a, n)
            assert report.loss_L >= report.loss_floor - 1e-12

    def test_increasing_and_convex_in_s(self):
        c = trace_constant(0.75, 3)
        grid = np.linspace(0.01, 0.95, 200)
        values = np.array([efficiency_loss(s, c) for s in grid])
        first = np.diff(values)
        assert (first > 0).all()
        assert (np.diff(first) > 0).all()


class TestLossRatioEmpirical:
    def test_independent_of_m(self):
        pi = seeded_pi(4, 8)
        assert abs(
            loss_ratio_empirical(pi, 0.75, 2, 10) - loss_ratio_empirical(pi, 0.75, 2, 10**6)
        ) <= 1e-12

    @pytest.mark.parametrize("a", [0.3, 0.7, 0.9])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_closed_form(self, a, n):
        pi = seeded_pi(1 << n, 30 + n)
        ratio = loss_ratio_empirical(pi, a, n, 100)
        assert abs(ratio - loss(float(pi @ pi), a, n).loss_L) <= 1e-9

    def test_identity_channel(self):
        assert loss_ratio_empirical(seeded_pi(4, 2), 1.0, 2, 7) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            loss_ratio_empirical(np.array([1.0, 0.0]), 0.75, 1, 3)


class TestGreenwoodMoments:
    def test_width_two(self):
        mean, variance = greenwood_moments(2)
        assert mean == 0.4
        assert variance == pytest.approx(12 / 1050, abs=1e-15)

    def test_mean_decreases_to_zero(self):
        means = [greenwood_moments(n)[0] for n in range(1, 17)]
        assert all(a > b for a, b in zip(means, means[1:]))
        assert means[-1] < 1e-4

    def test_width_validated(self):
        with pytest.raises(ValueError):
            greenwood_moments(0)


class TestLossApproxQuality:
    def second_order_bound(self, n: int, c: float) -> float:
        """Independent oracle: Taylor-remainder bound assembled from finite
        differences of the loss curve, never from the closed form."""
        mean, variance = greenwood_moments(n)
        s_star = mean + 10.0 * np.sqrt(variance)
        h = 1e-5
        second = (
            efficiency_loss(s_star + h, c)
            - 2 * efficiency_loss(s_star, c)
            + efficiency_loss(s_star - h, c)
        ) / h**2
        return variance * second / (2.0 * efficiency_loss(mean, c))

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_matches_finite_difference_oracle_at_large_c(self, n):
        got = loss_approx_quality(n)
        oracle = self.second_order_bound(n, 1e9)
        assert got == pytest.approx(oracle, rel=1e-4)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_is_the_supremum_over_c(self, n):
        bounds = [self.second_order_bound(n, c) for c in (10.0, 1e3, 1e6, 1e9)]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] <= loss_approx_quality(n) * (1 + 1e-6)

    def test_published_magnitudes(self):
        assert loss_approx_quality(3) < 0.2386
        assert loss_approx_quality(4) < 0.0029

    def test_small_width_rejected(self):
        with pytest.raises(ValueError):
            loss_approx_quality(2)

    def test_decays_like_cube_of_cell_count(self):
        scaled = {n: loss_approx_quality(n) * 2 ** (3 * n) for n in range(3, 13)}
        assert max(scaled.values()) == scaled[3] < 130
        # settles near the limiting constant 4 (not monotonically: it dips
        # below 4 around n=9 and climbs back)
        assert all(abs(scaled[n] - 4.0) < 0.25 for n in range(6, 13))


class TestProjectToSimplex:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.abs(project_to_simplex(v) - v).max() <= 1e-15

    def test_clips_negative_cell(self):
        assert np.array_equal(project_to_simplex(np.array([1.2, -0.2])), [1.0, 0.0])

    @given(
        v=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=16)
    )
    @settings(max_examples=100, deadline=None)
    def test_output_is_a_distribution(self, v):
        got = project_to_simplex(np.array(v))
        assert (got >= 0).all()
        assert abs(got.sum() - 1.0) <= 1e-9

    @given(
        v0=st.floats(-3, 3, allow_nan=False), v1=st.floats(-3, 3, allow_nan=False)
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_two_cell_quadratic_program(self, v0, v1):
        # on 2 cells the projection is clip((v0 - v1 + 1)/2, 0, 1) by hand
        t = min(max((v0 - v1 + 1.0) / 2.0, 0.0), 1.0)
        got = project_to_simplex(np.array([v0, v1]))
        assert got == pytest.approx([t, 1.0 - t], abs=1e-12)

    def test_idempotent(self):
        v = np.array([0.9, -0.4, 0.5])
        once = project_to_simplex(v)
        assert np.abs(project_to_simplex(once) - once).max() <= 1e-12


class TestDirectCovariance:
    def test_validates_distribution(self):
        with pytest.raises(ValueError):
            direct_covariance(np.array([0.5, 0.6]), 10)

    def test_trace_is_one_minus_s_over_m(self):
        pi = seeded_pi(8, 4)
        got = float(np.trace(direct_covariance(pi, 50)))
        assert got == pytest.approx((1 - float(pi @ pi)) / 50, abs=1e-15)
