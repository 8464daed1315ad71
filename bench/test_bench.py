"""Self-test of the benchmark.

Runs every workload at toy size, traced and untraced, and checks that outputs
corrupted by a deliberately broken copy of the program count as failed ops.
Run from the repository root with ``python -m pytest bench/test_bench.py``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from inputs import latent_class_corpus, philox_flips, write_corpus
from oracles import (
    OracleError,
    check_estimate,
    check_figure_1a,
    check_randomized,
    histogram,
    inverse_kernel_estimate,
)
from run import Spawner

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def copy_checkout(tmp_path: Path, with_src: bool = True) -> Path:
    root = tmp_path / "checkout"
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(BENCH, root / "bench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_src:
        shutil.copytree(ROOT / "src", root / "src", ignore=skip)
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_is_correct_at_toy_size(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed_op(tmp_path, workload):
    root = copy_checkout(tmp_path)
    io = root / "src" / "bisymrr" / "corpus_io.py"
    text = io.read_text()
    assert 'f"{x:.17g}"' in text
    io.write_text(text.replace('f"{x:.17g}"', 'f"{x:.3g}"'))  # every float output loses digits
    done = run_bench(root, workload, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    ballast = np.ones(100_000_000 // 8)  # 100 MB resident in this process
    spawner = Spawner(dict(os.environ))
    try:
        child = spawner.run(["-c", "pass"], tmp_path)
    finally:
        spawner.close()
    assert child.error is None
    assert child.maxrss_mb < 60, child.maxrss_mb
    assert ballast.sum() == ballast.size


def test_exits_nonzero_without_program_sources(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    done = run_bench(root, "pipeline", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_randomize_oracle_rejects_one_flipped_bit(tmp_path):
    truth = latent_class_corpus(5, 40, 16)
    noisy = truth ^ philox_flips(truth, 0.75, 9, 1)
    path = tmp_path / "noisy.csv"
    meta = {"a": 0.75, "seed": 9, "stream": 1}
    write_corpus(path, noisy, meta)
    check_randomized(path, noisy, 0.75, 9, 1)
    noisy[7, 3] ^= 1
    write_corpus(path, noisy, meta)
    with pytest.raises(OracleError):
        check_randomized(path, truth ^ philox_flips(truth, 0.75, 9, 1), 0.75, 9, 1)


def test_estimate_oracle_rejects_a_perturbed_cell(tmp_path):
    noisy = latent_class_corpus(6, 500, 16)
    path = tmp_path / "estimate.csv"
    # the exact estimate of this 2-bit marginal, written in the CLI's format
    values = inverse_kernel_estimate(histogram(noisy, [1, 4]), 0.75)
    rows = [f"{label},{float(v)!r}" for label, v in zip(["00", "10", "01", "11"], values)]
    header = "# width=16 m=500 a=0.75 bits=1,4 projected=0\npattern,estimate\n"
    path.write_text(header + "\n".join(rows) + "\n")
    check_estimate(path, noisy, [1, 4], 0.75, project=False)
    rows[2] = f"01,{float(values[2]) + 1e-6!r}"
    path.write_text(header + "\n".join(rows) + "\n")
    with pytest.raises(OracleError):
        check_estimate(path, noisy, [1, 4], 0.75, project=False)


def test_figure_oracle_rejects_a_wrong_seed_and_a_missing_row(tmp_path):
    path = tmp_path / "figure.csv"
    columns = "trial,estimator,m,cell_0,cell_1"
    rows = [f"0,{name},10,0.25,0.75" for name in ("direct", "randomized", "randomized_scaled")]
    path.write_text(f"# figure=1a n=1 seed=4 stream=0\n{columns}\n" + "\n".join(rows) + "\n")
    check_figure_1a(path, 1, 1, 4)
    with pytest.raises(OracleError):
        check_figure_1a(path, 1, 1, 5)
    path.write_text(f"# figure=1a n=1 seed=4 stream=0\n{columns}\n" + "\n".join(rows[:2]) + "\n")
    with pytest.raises(OracleError):
        check_figure_1a(path, 1, 1, 4)
