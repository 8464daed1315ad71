import importlib
import pkgutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bisymrr
from bisymrr import (
    DENSE_CAP,
    ExperimentConfig,
    ResponseCorpus,
    SingularChannelError,
    WidthCapError,
    apply_kernel,
    distinct_entries,
    entry_at,
    estimate,
    inverse_entry_at,
    inverse_parameter,
    marginal_histogram,
    materialize,
    write_corpus,
)
from bisymrr.cli import main
from bisymrr.figures import figure_1a

# grid of kernel parameters covering the endpoints, the singular point, and
# both truthful/lying branches
A_GRID = [0.0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0]
INVERTIBLE_GRID = [0.3, 0.6, 0.75, 0.9, 0.99]


def naive_kron_power(a: float, n: int) -> np.ndarray:
    """Independent oracle: literal repeated np.kron of the 2x2 kernel."""
    kernel = np.array([[a, 1.0 - a], [1.0 - a, a]])
    out = np.array([[1.0]])
    for _ in range(n):
        out = np.kron(kernel, out)
    return out


class TestMaterialize:
    def test_zero_width_is_scalar_one(self):
        assert np.array_equal(materialize(0.9, 0), [[1.0]])

    def test_base_case(self):
        assert np.array_equal(materialize(0.75, 1), [[0.75, 0.25], [0.25, 0.75]])

    def test_hand_computed_width_two_row(self):
        assert np.array_equal(materialize(0.75, 2)[0], [0.5625, 0.1875, 0.1875, 0.0625])

    @pytest.mark.parametrize("a", A_GRID)
    @pytest.mark.parametrize("n", range(7))
    def test_matches_naive_kronecker_oracle(self, a, n):
        got = materialize(a, n)
        want = naive_kron_power(a, n)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("a", A_GRID)
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_bisymmetric(self, a, n):
        got = materialize(a, n)
        assert np.array_equal(got, got.T)
        assert np.array_equal(got, got[::-1, ::-1].T)

    @pytest.mark.parametrize("a", A_GRID)
    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_columns_sum_to_one(self, a, n):
        sums = materialize(a, n).sum(axis=0)
        assert np.abs(sums - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("a", INVERTIBLE_GRID)
    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_inverse_columns_sum_to_one(self, a, n):
        sums = materialize(inverse_parameter(a), n).sum(axis=0)
        assert np.abs(sums - 1.0).max() <= 1e-12

    def test_constant_diagonal_and_antidiagonal(self):
        got = materialize(0.8, 4)
        assert np.ptp(np.diag(got)) == 0.0
        assert np.ptp(np.diag(got[::-1])) == 0.0

    @pytest.mark.parametrize("a", A_GRID)
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_product_rule(self, a, n):
        product = materialize(a, n) @ materialize(a, n)
        folded = materialize(a * a + (1.0 - a) ** 2, n)
        assert np.abs(product - folded).max() <= 1e-12

    def test_width_cap_default(self):
        assert DENSE_CAP == 12
        with pytest.raises(WidthCapError, match="cap of 12"):
            materialize(0.75, 13)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            materialize(0.75, -1)


class TestEntryAt:
    def test_diagonal_is_a_to_the_n(self):
        assert entry_at(0.75, 1, 0, 0) == 0.75

    def test_identity_channel_off_diagonal(self):
        assert entry_at(1.0, 3, 5, 2) == 0.0

    def test_matches_materialized_entry(self):
        assert entry_at(0.75, 2, 1, 2) == 0.0625

    @pytest.mark.parametrize("a", A_GRID)
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_matches_every_materialized_entry(self, a, n):
        got = materialize(a, n)
        dim = 1 << n
        lazy = np.array([[entry_at(a, n, r, x) for x in range(dim)] for r in range(dim)])
        assert np.abs(got - lazy).max() <= 1e-12

    @given(
        n=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_depends_only_on_hamming_distance(self, n, data):
        r = data.draw(st.integers(0, (1 << n) - 1))
        x = data.draw(st.integers(0, (1 << n) - 1))
        perm = data.draw(st.permutations(range(n)))
        a = data.draw(st.floats(0.0, 1.0, allow_nan=False))

        def apply(value):
            return sum(((value >> i) & 1) << perm[i] for i in range(n))

        assert entry_at(a, n, r, x) == entry_at(a, n, apply(r), apply(x))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            entry_at(0.75, 2, 4, 0)


class TestInverse:
    def test_parameter_three_quarters(self):
        assert inverse_parameter(0.75) == 1.5

    def test_identity_is_self_inverse(self):
        assert inverse_parameter(1.0) == 1.0

    def test_singular_at_half(self):
        with pytest.raises(SingularChannelError):
            inverse_parameter(0.5)

    def test_warns_near_half(self):
        with pytest.warns(RuntimeWarning, match="statistically useless"):
            inverse_parameter(0.5 + 1e-4)

    @pytest.mark.parametrize("a", INVERTIBLE_GRID)
    @pytest.mark.parametrize("n", range(7))
    def test_inverse_identity(self, a, n):
        got = materialize(a, n) @ materialize(inverse_parameter(a), n)
        assert np.abs(got - np.eye(1 << n)).max() <= 1e-9

    def test_entry_values_width_one(self):
        assert inverse_entry_at(0.75, 1, 0, 0) == 1.5
        assert inverse_entry_at(0.75, 1, 0, 1) == -0.5

    def test_identity_entries(self):
        assert inverse_entry_at(1.0, 2, 0, 0) == 1.0

    @pytest.mark.parametrize("a", INVERTIBLE_GRID)
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_entries_match_inverse_materialization(self, a, n):
        dim = 1 << n
        lazy = np.array(
            [[inverse_entry_at(a, n, x, r) for r in range(dim)] for x in range(dim)]
        )
        dense = materialize(inverse_parameter(a), n)
        scale = np.abs(dense).max()
        assert np.abs(lazy - dense).max() <= 1e-12 * max(scale, 1.0)

    def test_entries_singular_at_half(self):
        with pytest.raises(SingularChannelError):
            inverse_entry_at(0.5, 2, 0, 0)

    def test_log_space_branch_matches_direct_formula(self):
        a = 0.5 + 2e-4
        with pytest.warns(RuntimeWarning):
            got = inverse_entry_at(a, 3, 1, 6)
        # same closed form evaluated without the log detour
        want = a ** 0 * (a - 1.0) ** 3 / (2.0 * a - 1.0) ** 3
        assert got == pytest.approx(want, rel=1e-9)

    def test_log_space_branch_keeps_signs(self):
        a = 0.5 - 2e-4  # lying branch, odd width flips the denominator sign
        with pytest.warns(RuntimeWarning):
            values = [inverse_entry_at(a, 1, x, r) for x in (0, 1) for r in (0, 1)]
        direct = [
            a ** (1 - d) * (a - 1.0) ** d / (2.0 * a - 1.0)
            for d in (0, 1, 1, 0)
        ]
        assert values == pytest.approx(direct, rel=1e-9)


class TestApplyKernel:
    @pytest.mark.parametrize(
        "a", [0.0, 0.3, 0.75, 1.0, inverse_parameter(0.3), inverse_parameter(0.9)]
    )
    @pytest.mark.parametrize("k", range(9))
    def test_matches_materialized_product(self, a, k):
        v = np.random.default_rng(k).standard_normal(1 << k)
        want = materialize(a, k) @ v
        got = apply_kernel(v, a, 1.0 - a)
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)

    @given(
        v=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=256).filter(
            lambda v: (len(v) & (len(v) - 1)) == 0
        ),
        a=st.floats(0.0, 1.0).filter(lambda a: abs(a - 0.5) >= 0.05),
    )
    @settings(max_examples=80, deadline=None)
    def test_inverse_parameter_undoes_forward_pass(self, v, a):
        ai = inverse_parameter(a)
        back = apply_kernel(apply_kernel(v, a, 1.0 - a), ai, 1.0 - ai)
        assert np.abs(back - v).max() <= 1e-9 * max(np.abs(v).max(), 1.0)

    @pytest.mark.parametrize("rows", [0, 1, 5])
    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("same, other", [(0.75, 0.25), (2.5, -1.5)])
    def test_block_equals_per_row_calls(self, rows, k, same, other):
        block = np.random.default_rng(k).standard_normal((rows, 1 << k))
        want = np.array([apply_kernel(v, same, other) for v in block]).reshape(block.shape)
        got = apply_kernel(block, same, other)
        assert got.shape == block.shape
        assert np.array_equal(got, want)

    def test_block_input_untouched(self):
        block = np.ones((2, 4))
        apply_kernel(block, 2.0, -1.0)[0, 0] = 9.0
        assert np.array_equal(block, np.ones((2, 4)))

    def test_leaves_input_untouched(self):
        v = np.array([0.25])
        out = apply_kernel(v, 2.0, -1.0)
        out[0] = 9.0
        assert v[0] == 0.25

    @pytest.mark.parametrize("shape", [0, 3, 6, (2, 3), (4, 0)])
    def test_rejects_non_power_of_two_length(self, shape):
        with pytest.raises(ValueError, match="power of two"):
            apply_kernel(np.ones(shape), 0.75, 0.25)


@pytest.fixture
def no_dense(monkeypatch):
    """Make materialize raise in every loaded bisymrr module that binds it, so a
    hot path that imports it under its own name is caught as well."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense materialize called on a kernel-pass path")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "bisymrr" and hasattr(module, "materialize"):
            monkeypatch.setattr(module, "materialize", refuse)


class TestNoDenseMatrixOnHotPath:
    """Estimation and figure 1a must succeed with materialize refusing every call."""

    def test_only_channel_and_cli_bind_materialize(self):
        for info in pkgutil.iter_modules(bisymrr.__path__, "bisymrr."):
            importlib.import_module(info.name)
        binders = {
            name
            for name, module in sys.modules.items()
            if name.startswith("bisymrr.") and hasattr(module, "materialize")
        }
        assert binders == {"bisymrr.channel", "bisymrr.cli"}

    def test_guard_covers_every_binding(self, no_dense):
        from bisymrr.channel import materialize as rebound

        for fn in (bisymrr.materialize, bisymrr.cli.materialize, rebound):
            with pytest.raises(AssertionError, match="dense"):
                fn(0.75, 1)

    def test_wide_cli_estimate(self, tmp_path, no_dense):
        bits = np.random.default_rng(5).integers(0, 2, (2_000, 12), dtype=np.uint8)
        corpus = tmp_path / "corpus.csv"
        write_corpus(corpus, ResponseCorpus(bits))
        positions = list(range(12))
        out = tmp_path / "estimate.csv"
        argv = ["estimate", str(corpus), "--a", "0.75", "--bits", ",".join(map(str, positions))]
        assert main([*argv, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        cells = np.array([float(row.split(",")[1]) for row in rows])
        want = estimate(marginal_histogram(ResponseCorpus(bits), positions), 0.75)
        assert cells.size == 1 << 12
        assert np.abs(cells - want).max() <= 1e-12

    def test_figure_1a_width_eight(self, no_dense):
        cfg = ExperimentConfig(n=8, m=1_000, trials=3)
        columns, rows = figure_1a(cfg)
        rows = list(rows)
        assert len(columns) == 3 + 256
        assert [row[:2] for row in rows[:3]] == [
            [0, "direct"], [0, "randomized"], [0, "randomized_scaled"]
        ]
        sums = np.array([row[3:] for row in rows]).sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-9


class TestDistinctEntries:
    def test_width_one(self):
        assert np.array_equal(distinct_entries(0.75, 1), [0.75, 0.25])

    def test_width_two(self):
        assert np.array_equal(distinct_entries(0.75, 2), [0.5625, 0.1875, 0.0625])

    def test_uniform_channel_collapses(self):
        assert np.array_equal(distinct_entries(0.5, 2), [0.25, 0.25, 0.25])

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.75, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_exactly_the_materialized_value_set(self, a, n):
        # the closed-form values are pairwise distinct away from {0, 1/2, 1},
        # and every materialized entry is one of them (up to reassociation ulps)
        values = distinct_entries(a, n)
        assert len(np.unique(values)) == n + 1
        gaps = np.abs(materialize(a, n)[..., None] - values).min(axis=-1)
        assert gaps.max() <= 1e-12

