import importlib.util
import math
import pathlib

import numpy as np
import pytest

from bisymrr import Mechanism, RandomSeed, WidthCapError, figures
from bisymrr.cli import main
from bisymrr.corpus_io import _cell_labels
from bisymrr.estimator import efficiency_loss, loss, trace_constant
from bisymrr.errors import CELL_CAP, FIGURE_1A_CAP
from bisymrr.figures import (
    FIGURES,
    ExperimentConfig,
    build_figure,
    figure_1a,
    figure_1b,
    figure_1c,
    figure_2a,
    figure_2b,
    sample_flat_dirichlet,
)
from bisymrr.parser import FIGURE_DEFAULTS
from figure_oracles import figure_1a_per_trial, format_rows_per_cell


def default_cfg(which: str, **overrides) -> ExperimentConfig:
    return ExperimentConfig.from_mapping({**FIGURE_DEFAULTS[which], **overrides})


@pytest.mark.parametrize("n", range(17))
def test_cell_labels_match_bit_by_bit_expression(n):
    expected = ["".join(str((i >> t) & 1) for t in range(n)) for i in range(1 << n)]
    assert _cell_labels(n) == expected


class TestFlatDirichlet:
    def test_is_a_distribution(self):
        for cells in (2, 4, 32):
            pi = sample_flat_dirichlet(cells, 7)
            assert pi.shape == (cells,)
            assert (pi > 0).all()
            assert abs(pi.sum() - 1.0) <= 1e-12

    def test_deterministic_per_seed(self):
        assert np.array_equal(sample_flat_dirichlet(8, 3), sample_flat_dirichlet(8, 3))
        assert not np.array_equal(sample_flat_dirichlet(8, 3), sample_flat_dirichlet(8, 4))

    def test_accepts_random_seed_and_generator(self):
        via_seed = sample_flat_dirichlet(4, RandomSeed(11, 2))
        via_gen = sample_flat_dirichlet(4, RandomSeed(11, 2).generator())
        assert np.array_equal(via_seed, via_gen)

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            sample_flat_dirichlet(1, 0)

    def test_moments_match_flat_dirichlet(self):
        # mean 1/k per cell, variance (k-1)/(k^2 (k+1))
        k, draws = 4, 20_000
        gen = RandomSeed(99).generator()
        sample = np.array([sample_flat_dirichlet(k, gen) for _ in range(draws)])
        assert np.abs(sample.mean(axis=0) - 1 / k).max() < 0.002
        want_var = (k - 1) / (k**2 * (k + 1))
        assert np.abs(sample.var(axis=0) - want_var).max() < 0.002


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n == 2 and cfg.m == 1000 and cfg.trials == 100
        assert cfg.pi == "dirichlet-flat"
        assert cfg.mechanism == Mechanism("unrelated", (0.5,))

    def test_pi_vector_validated(self):
        cfg = ExperimentConfig(n=1, pi=[0.3, 0.7])
        assert np.array_equal(cfg.pi, [0.3, 0.7])
        with pytest.raises(ValueError, match="cells"):
            ExperimentConfig(n=2, pi=[0.5, 0.5])
        with pytest.raises(ValueError, match="distribution"):
            ExperimentConfig(n=1, pi=[0.5, 0.6])
        with pytest.raises(ValueError, match="dirichlet-flat"):
            ExperimentConfig(pi="uniformish")

    def test_count_validation(self):
        for bad in ({"n": 0}, {"m": 0}, {"trials": 0}, {"k": 0}):
            with pytest.raises(ValueError):
                ExperimentConfig(**bad)

    def test_k_above_n_refused(self):
        with pytest.raises(ValueError, match="^k 3 exceeds n 2: two 2-bit records differ in at most 2 bits$"):
            ExperimentConfig(n=2, k=3)
        assert ExperimentConfig(n=2, k=2).k == 2

    def test_from_mapping_overrides_defaults(self):
        cfg = ExperimentConfig.from_mapping(
            {"n": 3, "mechanism": "warner:0.7", "seed": 5, "stream": 2}
        )
        assert cfg.n == 3
        assert cfg.mechanism == Mechanism("warner", (0.7,))
        assert cfg.seed == RandomSeed(5, 2)
        assert cfg.m == ExperimentConfig().m  # unset settings keep their defaults
        assert ExperimentConfig.from_mapping({"stream": 4}).seed == RandomSeed(0, 4)

    @pytest.mark.parametrize("key", ["n", "m", "trials", "k", "seed", "stream"])
    def test_from_mapping_rejects_fractional_counts(self, key):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            ExperimentConfig.from_mapping({key: 2.5})

    def test_from_mapping_accepts_integral_floats(self):
        cfg = ExperimentConfig.from_mapping({"n": 2.0, "m": 7.0, "seed": 3.0})
        assert (cfg.n, cfg.m, cfg.seed.seed) == (2, 7, 3)
        assert type(cfg.n) is int and type(cfg.seed.seed) is int

    def test_nan_pi_rejected(self):
        with pytest.raises(ValueError, match="distribution"):
            ExperimentConfig(n=1, pi=[float("nan"), 1.0])

    def test_from_mapping_ignores_none(self):
        cfg = ExperimentConfig.from_mapping({"n": None, "m": 50})
        assert cfg.n == 2 and cfg.m == 50

    def test_from_mapping_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_mapping({"width": 3})


class TestFigure1a:
    def test_shape_and_labels(self):
        cols, rows = figure_1a(default_cfg("1a", trials=5))
        rows = list(rows)
        assert cols == ["trial", "estimator", "m", "cell_00", "cell_10", "cell_01", "cell_11"]
        assert len(rows) == 15
        assert [r[1] for r in rows[:3]] == ["direct", "randomized", "randomized_scaled"]

    def test_scaled_sample_count(self):
        _, rows = figure_1a(default_cfg("1a", trials=1))
        by_kind = {r[1]: r[2] for r in rows}
        assert by_kind["direct"] == 1000
        assert by_kind["randomized"] == 1000
        # ceil(flat-average loss 9.75 * 1000)
        assert by_kind["randomized_scaled"] == 9750

    def test_deterministic(self):
        first = figure_1a(default_cfg("1a", trials=3))
        second = figure_1a(default_cfg("1a", trials=3))
        assert first[0] == second[0] and list(first[1]) == list(second[1])

    def test_rows_are_distributions(self):
        _, rows = figure_1a(default_cfg("1a", trials=4))
        for row in rows:
            cells = np.array(row[3:])
            assert abs(cells.sum() - 1.0) <= 1e-9

    def test_draws_pi_when_asked(self):
        cols, rows = figure_1a(default_cfg("1a", pi="dirichlet-flat", trials=1, n=1))
        assert cols[3:] == ["cell_0", "cell_1"]
        assert len(list(rows)) == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            {"trials": 5},
            {"n": 8, "pi": "dirichlet-flat", "trials": 7},
            {"n": 1, "m": 1, "trials": 3, "pi": [0.3, 0.7]},
        ],
    )
    def test_batched_estimates_equal_per_trial_loop(self, overrides):
        cfg = default_cfg("1a", **overrides)
        columns, rows = figure_1a(cfg)
        assert (columns, list(rows)) == figure_1a_per_trial(cfg)

    def test_estimates_all_trials_in_two_calls(self, monkeypatch):
        calls = []
        real = figures.estimate
        monkeypatch.setattr(figures, "estimate", lambda h, a: calls.append(h.shape) or real(h, a))
        figure_1a(default_cfg("1a", trials=6))
        assert calls == [(6, 4), (6, 4)]

    def test_cli_output_equals_per_trial_loop(self, capsys):
        argv = ["figures", "1a", "--n", "8", "--pi", "dirichlet-flat", "--trials", "7"]
        assert main(argv) == 0
        header, body = capsys.readouterr().out.split("\n", 1)
        columns, rows = figure_1a_per_trial(default_cfg("1a", n=8, pi="dirichlet-flat", trials=7))
        assert header.startswith("# figure=1a n=8 m=1000 trials=7 ")
        assert body == format_rows_per_cell(rows, columns)

    def test_widest_allowed_width_runs(self):
        cfg = default_cfg("1a", n=FIGURE_1A_CAP, pi="dirichlet-flat", m=10, trials=1)
        cols, rows = figure_1a(cfg)
        assert len(cols) == 3 + (1 << FIGURE_1A_CAP) and len(list(rows)) == 3

    def test_width_above_cap_refused_before_any_allocation(self, monkeypatch):
        def no_allocation(*args):
            raise AssertionError("2^n cells requested before the width check")

        monkeypatch.setattr(figures, "sample_flat_dirichlet", no_allocation)
        monkeypatch.setattr(figures, "apply_kernel", no_allocation)
        with pytest.raises(WidthCapError, match="figure 1a at width 17 exceeds the cap of 16"):
            figure_1a(default_cfg("1a", n=FIGURE_1A_CAP + 1, pi="dirichlet-flat"))

    def test_block_above_cell_cap_refused_before_any_allocation(self, monkeypatch):
        def no_allocation(*args):
            raise AssertionError("2^n cells requested before the block check")

        monkeypatch.setattr(figures, "sample_flat_dirichlet", no_allocation)
        monkeypatch.setattr(figures, "apply_kernel", no_allocation)
        trials = CELL_CAP // (3 << 8) + 1
        with pytest.raises(WidthCapError, match=f"above the cap of {CELL_CAP}"):
            figure_1a(default_cfg("1a", n=8, pi="dirichlet-flat", trials=trials))


class TestFigure1b:
    def test_grid_shape(self):
        cols, rows = figure_1b(default_cfg("1b"))
        assert cols == ["n", "p", "a", "loss_flat", "log10_loss_flat"]
        assert len(rows) == 36
        assert sorted({r[0] for r in rows}) == list(range(1, 13))
        assert sorted({r[1] for r in rows}) == [0.0001, 0.5, 0.9999]

    def test_spot_values(self):
        _, rows = figure_1b(default_cfg("1b"))
        picked = {(r[0], r[1]): r for r in rows}
        n2_half = picked[(2, 0.5)]
        assert n2_half[2] == 0.75
        assert n2_half[3] == pytest.approx(loss(0.4, 0.75, 2).loss_L, rel=1e-12)
        assert n2_half[4] == pytest.approx(math.log10(n2_half[3]), abs=1e-12)

    def test_loss_grows_with_width_and_dial(self):
        _, rows = figure_1b(default_cfg("1b"))
        for p in (0.0001, 0.5, 0.9999):
            series = [r[3] for r in rows if r[1] == p]
            assert all(x < y for x, y in zip(series, series[1:]))
        by_n12 = sorted((r[1], r[3]) for r in rows if r[0] == 12)
        assert by_n12[0][1] < by_n12[1][1] < by_n12[2][1]


class TestFigure1c:
    def test_grid_and_floor(self):
        cfg = default_cfg("1c", trials=20)
        cols, rows = figure_1c(cfg)
        assert cols == ["n", "trial", "s", "loss_exact", "loss_flat", "ratio"]
        assert len(rows) == 11 * 20
        a = 0.75
        for n, _, s, exact, flat, ratio in rows:
            cells = 1 << n
            floor = efficiency_loss(1.0 / cells, trace_constant(a, n))
            assert exact >= floor - 1e-12
            assert ratio == pytest.approx(exact / flat, rel=1e-12)

    def test_ratio_concentrates_at_one(self):
        _, rows = figure_1c(default_cfg("1c", trials=30))
        spread = {
            n: max(abs(r[5] - 1.0) for r in rows if r[0] == n) for n in (2, 12)
        }
        assert spread[12] < spread[2]
        assert spread[12] < 0.01

    def test_subset_reproducible(self):
        # trial rows depend only on (seed, n, trial), not on trial count
        _, few = figure_1c(default_cfg("1c", trials=3))
        _, many = figure_1c(default_cfg("1c", trials=10))
        few_keyed = {(r[0], r[1]): r for r in few}
        for key, row in few_keyed.items():
            assert row == [r for r in many if (r[0], r[1]) == key][0]


class TestFigure2a:
    def test_grid_skips_singular_point(self):
        cols, rows = figure_2a(default_cfg("2a"))
        assert cols == ["p", "c_unrelated", "c_warner", "ratio"]
        ps = [r[0] for r in rows]
        assert len(rows) == 158
        assert min(ps) == pytest.approx(0.005) and max(ps) == pytest.approx(0.795)
        assert all(abs(p - 0.5) > 1e-9 for p in ps)

    def test_sign_regions_and_crossing(self):
        _, rows = figure_2a(default_cfg("2a"))
        for p, _, _, ratio in rows:
            if p < 0.66:
                assert ratio < 1.0
            elif p > 0.67:
                assert ratio > 1.0
        crossings = [
            (lo[0] + hi[0]) / 2
            for lo, hi in zip(rows, rows[1:])
            if (lo[3] - 1.0) * (hi[3] - 1.0) < 0
        ]
        assert len(crossings) == 1
        assert abs(crossings[0] - 2.0 / 3.0) <= 0.005


class TestFigure2b:
    def test_columns_coincide(self):
        cols, rows = figure_2b(default_cfg("2b"))
        assert cols == ["alpha", "a", "c_unrelated", "c_warner"]
        assert len(rows) == 145
        for _, _, c_u, c_w in rows:
            assert abs(c_u - c_w) <= 1e-10 * max(c_u, 1.0)

    def test_budget_endpoints(self):
        _, rows = figure_2b(default_cfg("2b"))
        assert rows[0][0] == pytest.approx(0.2)
        assert rows[-1][0] == pytest.approx(2.0)
        assert all(x[0] < y[0] for x, y in zip(rows, rows[1:]))

    def test_k_shifts_the_dial(self):
        _, loose = figure_2b(default_cfg("2b", n=4, k=1))
        _, tight = figure_2b(default_cfg("2b", n=4, k=4))
        # splitting the budget over more questions forces a closer to 1/2
        assert all(t[1] < l[1] for t, l in zip(tight, loose))
        assert all(t[2] > l[2] for t, l in zip(tight, loose))


class TestBuildFigure:
    def test_dispatch(self):
        for which in FIGURES:
            cols, rows = build_figure(which, default_cfg(which, trials=2))
            assert cols and rows

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown figure"):
            build_figure("3z", ExperimentConfig())


def test_reproduction_script_matches_committed_datasets(tmp_path, capsys):
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures", root / "scripts" / "reproduce_figures.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.run(str(tmp_path)) == 0
    capsys.readouterr()
    for which in sorted(FIGURES):
        name = f"figure_{which}.csv"
        assert (tmp_path / name).read_bytes() == (root / "out" / name).read_bytes(), name
