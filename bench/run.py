"""Benchmark of the bisymrr command-line program.

Usage::

    python3 bench/run.py --workload {pipeline,marginals,montecarlo,all} \
        --seed N --seconds S --trace {0,1} [--size {full,toy}]

Load model: closed loop, one client.  Each CLI call is one child process
(``python -m bisymrr ...`` with PYTHONPATH set to this checkout's ``src``),
started by ``spawn.py`` and waited for with ``os.wait4`` before the next
starts, so at most one program process runs at a time.  The environment is otherwise passed through.  The
seed drives input generation and the program's ``--seed`` flags; the program
sees only the generated files and flags.

Workloads (one op each):

- pipeline: ``randomize --mechanism unrelated:0.5`` on a 200,000 x 16 truth
  corpus, then ``estimate --project`` on its output over all 16 bits.  The
  collector's real path; dominated by text I/O, and it takes the kernel pass
  because k = 16 is above the dense cap.
- marginals: 8 ``estimate --bits`` calls with k = 12, 10, 10, 8, 8, 6, 4, 2
  on one noisy 20,000 x 16 corpus.  Dense ``materialize`` near the cap and
  8 process starts per op; every query re-reads the same corpus.
- montecarlo: ``figures 1a --n 8 --trials 100 --pi dirichlet-flat``, 200
  small same-width estimates and no corpus I/O.

Host speed: this benchmark was built on a shared 2-vCPU VM whose speed moves
by 30-50% for minutes at a time.  Every measured op and ``--help`` call is
therefore bracketed by runs of a fixed reference child (``REFERENCE``), and
the end-to-end times are reported in reference-calibrated seconds: raw time x
REF_SECONDS / mean of the two bracketing reference times.  Raw wall-clock medians and the reference time
are printed in the details line next to them.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced ops with ops run through ``launcher.py``, which times
each layer from outside, and reports per-layer medians.  Every op's outputs
are checked by ``oracles.py`` outside the timed interval.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from inputs import file_record, latent_class_corpus, philox_flips, write_corpus

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WIDTH = 16
MECHANISM = "unrelated:0.5"
A = 0.75  # effective per-bit truth probability of unrelated:0.5
SETUP_REPS = 7
# A fixed pure-Python child (integer loop, list and string building, like the
# program's own hot loops) run before and after every measured call.  This shared 2-vCPU
# host changes speed by 30-50% for minutes at a time; dividing each call's time
# by the adjacent reference time cancels that, and multiplying by REF_SECONDS
# states the result in seconds on a host where the reference takes 0.2 s.
REFERENCE = """s = 0
for i in range(500_000):
    s += i * i % 7
rows = [[0.5 * j for j in range(256)] for _ in range(200)]
text = ",".join(str(i & 1) for i in range(100_000)).split(",")
"""
REF_SECONDS = 0.2
MIN_OPS = 3
CHILD_TIMEOUT_S = 45
RUN_GUARD_S = 120  # start no op after this much wall time, whatever --seconds says
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SIZES = {
    "full": {"pipeline_m": 200_000, "marginals_m": 20_000, "marginals_k": (12, 10, 10, 8, 8, 6, 4, 2),
             "mc_n": 8, "mc_trials": 100},
    "toy": {"pipeline_m": 2_000, "marginals_m": 2_000, "marginals_k": (6, 4, 4, 2),
            "mc_n": 3, "mc_trials": 5},
}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    error: str | None


@dataclass
class Op:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0
    error: str | None = None
    traced: bool = False
    ref_s: float = 0.0
    spans: list = field(default_factory=list)


class Spawner:
    """Runs children one at a time through ``spawn.py``, so that each child's
    peak RSS is its own and not this process's."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, argv: list[str], cwd: Path) -> Child:
        request = {"argv": [sys.executable, *argv], "cwd": str(cwd), "stdout": str(cwd / "child.stdout"),
                   "stderr": str(cwd / "child.stderr"), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit(f"bench: the spawner exited with code {self.proc.wait()}")
        done = json.loads(reply)
        stderr = (cwd / "child.stderr").read_text(errors="replace")
        error = None
        if done["timed_out"]:
            error = f"timed out after {CHILD_TIMEOUT_S} s"
        elif done["exit"] != 0:
            error = f"exit {done['exit']}: {stderr.strip()[-300:]}"
        elif "Traceback" in stderr:
            error = f"traceback on stderr: {stderr.strip()[-300:]}"
        return Child(done["wall_s"], done["cpu_s"], done["maxrss_kb"] / 1024.0, error)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def reference_s(spawner: Spawner, cwd: Path) -> float:
    """Wall time of one run of the fixed reference child."""
    child = spawner.run(["-c", REFERENCE], cwd)
    if child.error:
        raise SystemExit(f"bench: the reference child failed: {child.error}")
    return child.wall_s


def _op_seed(seed: int, i: int) -> int:
    return int(np.random.default_rng([seed, i]).integers(2**31))


class Pipeline:
    item = "records"

    def __init__(self, seed: int, size: dict, work: Path):
        self.seed = seed
        self.truth = latent_class_corpus(seed, size["pipeline_m"], WIDTH)
        write_corpus(work / "truth.csv", self.truth)
        self.inputs = [file_record(work / "truth.csv")]
        self.items_per_op = size["pipeline_m"]

    def op(self, i: int):
        s = _op_seed(self.seed, i)
        commands = [
            ["randomize", "../truth.csv", "--mechanism", MECHANISM, "--seed", str(s),
             "--stream", "1", "--out", "noisy.csv"],
            ["estimate", "noisy.csv", "--project", "--out", "estimate.csv"],
        ]

        def check(d: Path):
            noisy = self.truth ^ philox_flips(self.truth, A, s, 1)
            oracles.check_randomized(d / "noisy.csv", noisy, A, s, 1)
            oracles.check_estimate(d / "estimate.csv", noisy, list(range(WIDTH)), A, project=True)

        return commands, check


class Marginals:
    item = "queries"

    def __init__(self, seed: int, size: dict, work: Path):
        truth = latent_class_corpus(seed, size["marginals_m"], WIDTH)
        self.noisy = truth ^ philox_flips(truth, A, seed, 0)
        meta = {"a": A, "mechanism": MECHANISM, "seed": seed, "stream": 0}
        write_corpus(work / "noisy.csv", self.noisy, meta)
        self.inputs = [file_record(work / "noisy.csv")]
        rng = np.random.default_rng([seed, 2])
        self.queries: list[list[int]] = []
        for k in size["marginals_k"]:
            q = sorted(int(p) for p in rng.choice(WIDTH, k, replace=False))
            while q in self.queries:
                q = sorted(int(p) for p in rng.choice(WIDTH, k, replace=False))
            self.queries.append(q)
        self.items_per_op = len(self.queries)

    def op(self, i: int):
        commands = [["estimate", "../noisy.csv", "--bits", ",".join(map(str, q)), "--out", f"q{j}.csv"]
                    for j, q in enumerate(self.queries)]

        def check(d: Path):
            for j, q in enumerate(self.queries):
                oracles.check_estimate(d / f"q{j}.csv", self.noisy, q, A, project=False)

        return commands, check


class MonteCarlo:
    item = "trials"

    def __init__(self, seed: int, size: dict, work: Path):
        self.seed = seed
        self.n, self.trials = size["mc_n"], size["mc_trials"]
        self.inputs = []
        self.items_per_op = self.trials

    def op(self, i: int):
        s = _op_seed(self.seed, i)
        commands = [["figures", "1a", "--n", str(self.n), "--trials", str(self.trials),
                     "--pi", "dirichlet-flat", "--seed", str(s), "--out", "figure.csv"]]
        return commands, lambda d: oracles.check_figure_1a(d / "figure.csv", self.n, self.trials, s)


WORKLOADS = {"pipeline": Pipeline, "marginals": Marginals, "montecarlo": MonteCarlo}


def run_op(spawner: Spawner, workload, i: int, work: Path, traced: bool) -> Op:
    commands, check = workload.op(i)
    d = work / f"op{i}"
    d.mkdir()
    op = Op(traced=traced)
    start = time.perf_counter()
    for j, argv in enumerate(commands):
        if traced:
            argv = [str(BENCH / "launcher.py"), f"spans{j}.json", f"{i}.{j}", repr(time.monotonic()), "--", *argv]
        else:
            argv = ["-m", "bisymrr", *argv]
        child = spawner.run(argv, d)
        op.cpu_s += child.cpu_s
        op.maxrss_mb = max(op.maxrss_mb, child.maxrss_mb)
        if child.error:
            op.error = f"{commands[j][0]}: {child.error}"
            break
    op.wall_s = time.perf_counter() - start
    if op.error is None:
        try:
            check(d)
        except (oracles.OracleError, OSError, ValueError) as exc:
            op.error = f"oracle: {exc}"
    if traced:
        for j in range(len(commands)):
            path = d / f"spans{j}.json"
            if path.exists():
                op.spans.append(json.loads(path.read_text()))
    shutil.rmtree(d)
    return op


def measure(spawner: Spawner, workload, work: Path, seconds: float, trace: bool) -> list[Op]:
    """Run ops until the next one would overrun ``seconds`` of measured time.

    With tracing, ops alternate untraced and traced, so both medians come from
    the same stretch of machine time.
    """
    ops: list[Op] = []
    started = time.perf_counter()
    measured = 0.0
    ref_before = reference_s(spawner, work)
    while True:
        if len(ops) >= MIN_OPS:
            typical = statistics.median(op.wall_s for op in ops)
            if measured + typical > seconds or time.perf_counter() - started > RUN_GUARD_S:
                break
        op = run_op(spawner, workload, len(ops), work, traced=trace and len(ops) % 2 == 1)
        ref_after = reference_s(spawner, work)
        op.ref_s = (ref_before + ref_after) / 2  # the references bracket the op
        ref_before = ref_after
        measured += op.wall_s
        ops.append(op)
    return ops


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile, p90 or above, with at least ten samples beyond
    it; the maximum when a run has too few ops (under 100) for one.  Below
    100 samples the ten-beyond rule would drift down towards the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 100:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"


def end_to_end(ops: list[Op], workload, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics in reference-calibrated seconds (see REFERENCE);
    the raw wall-clock figures go to the notes."""
    scale = [REF_SECONDS / op.ref_s for op in ops]
    walls = [op.wall_s * k for op, k in zip(ops, scale)]
    ok_walls = [w for w, op in zip(walls, ops) if op.error is None]
    tail_value, tail_rank = tail(walls)
    metrics = {
        "setup_s": (statistics.median(help_s * REF_SECONDS / ref for help_s, ref in setup), "s"),
        "op_s_p50": (statistics.median(walls), "s"),
        "op_s_tail": (tail_value, "s"),
        "cpu_s_p50": (statistics.median(op.cpu_s * k for op, k in zip(ops, scale)), "s"),
        "throughput": (workload.items_per_op * len(ok_walls) / sum(ok_walls) if ok_walls else 0.0, "items/s"),
        "peak_rss_mb": (max(op.maxrss_mb for op in ops), "MB"),
    }
    notes = {"op_s_tail_rank": tail_rank, "throughput_unit": f"{workload.item}/s",
             "raw_setup_s_p50": statistics.median(help_s for help_s, _ in setup),
             "raw_op_s_p50": statistics.median(op.wall_s for op in ops),
             "raw_cpu_s_p50": statistics.median(op.cpu_s for op in ops),
             "reference_s_p50": statistics.median(op.ref_s for op in ops)}
    return metrics, notes


# per-layer name -> unit; the spans named by the prefix up to the last '.'
LAYER_UNITS = {
    "process.import_s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "corpus_io.read_corpus.s": "s",
    "corpus_io.read_corpus.bytes": "bytes-computed",
    "corpus_io.read_corpus.MB_per_s": "MB/s",
    "corpus_io.write_corpus.s": "s",
    "corpus_io.write_corpus.bytes": "bytes-computed",
    "corpus_io.write_corpus.MB_per_s": "MB/s",
    "randomizer.ResponseCorpus.s": "s",
    "randomizer.randomize_corpus.s": "s",
    "randomizer.randomize_corpus.uniforms": "count-computed",
    "estimator.marginal_histogram.s": "s",
    "estimator.marginal_histogram.records": "count-computed",
    "estimator.marginal_histogram.cells": "count-computed",
    "estimator.estimate.s": "s",
    "estimator.estimate.self_s": "s",
    "estimator.estimate.calls": "count",
    "estimator.estimate.cells": "count-computed",
    "estimator.kernel_pass.s": "s",
    "estimator.kernel_pass.ops": "count-computed",
    "estimator.project_to_simplex.s": "s",
    "channel.materialize.s": "s",
    "channel.materialize.calls": "count",
    "channel.materialize.entries": "count-computed",
    "figures.build_figure.s": "s",
    "figures.build_figure.self_s": "s",
}

# (metric, numerator metrics, denominator metric, workload the prediction is about)
PREDICTIONS = [
    ("share.corpus_io_of_cli_main", ("corpus_io.read_corpus.self_s", "corpus_io.write_corpus.self_s"),
     "cli.main.s", "pipeline"),
    ("share.materialize_of_estimate", ("channel.materialize.s",), "estimator.estimate.s", "marginals"),
    ("share.materialize_of_build_figure", ("channel.materialize.s",), "figures.build_figure.s", "montecarlo"),
]
PREDICTED_SHARE = 0.8


def op_layers(op: Op) -> dict[str, float]:
    """Sum each layer's time, self time, calls and counts over an op's children."""
    totals: dict[str, float] = defaultdict(float)
    for spans in op.spans:
        child_time = defaultdict(float)
        for name, start, end, parent, _op_id, counts in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _op_id, counts) in enumerate(spans):
            if name == "process.import":
                totals["process.import_s"] += end - start
                continue
            totals[f"{name}.s"] += end - start
            totals[f"{name}.self_s"] += end - start - child_time[index]
            totals[f"{name}.calls"] += 1
            for key, value in counts.items():
                totals[f"{name}.{key}"] += value
    for layer in ("corpus_io.read_corpus", "corpus_io.write_corpus"):
        seconds = totals[f"{layer}.s"]
        totals[f"{layer}.MB_per_s"] = totals[f"{layer}.bytes"] / seconds / 1e6 if seconds else 0.0
    for metric, parts, whole, _ in PREDICTIONS:
        totals[metric] = sum(totals[p] for p in parts) / totals[whole] if totals[whole] else 0.0
    return totals


def per_layer(ops: list[Op]) -> tuple[dict, dict]:
    traced = [op_layers(op) for op in ops if op.traced]
    untraced = [op.wall_s for op in ops if not op.traced]
    traced_walls = [op.wall_s for op in ops if op.traced]
    metrics = {name: (statistics.median(t[name] for t in traced), unit) for name, unit in LAYER_UNITS.items()}
    for metric, *_ in PREDICTIONS:
        metrics[metric] = (statistics.median(t[metric] for t in traced), "ratio")
    metrics["trace.op_s_p50_traced"] = (statistics.median(traced_walls), "s")
    metrics["trace.op_s_p50_untraced"] = (statistics.median(untraced), "s")
    metrics["trace.overhead_s"] = (metrics["trace.op_s_p50_traced"][0] - metrics["trace.op_s_p50_untraced"][0], "s")
    self_names = sorted({name for t in traced for name in t if name.endswith(".self_s")})
    notes = {"traced_ops": len(traced), "untraced_ops": len(untraced),
             "self_s_per_layer": {name[: -len(".self_s")]: statistics.median(t[name] for t in traced)
                                  for name in self_names}}
    return metrics, notes


def machine_identity() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env_as_found": {v: os.environ[v] for v in BLAS_VARS if v in os.environ},
        "page_cache": "inputs are read warm from the page cache; caches are not dropped",
    }


def code_identity(spawner: Spawner, work: Path) -> dict:
    """Where the measured package resolves from; it must be this checkout."""
    probe = work / "probe"
    probe.mkdir()
    child = spawner.run(["-c", "import bisymrr; print(bisymrr.__file__)"], probe)
    resolved = (probe / "child.stdout").read_text().strip()
    shutil.rmtree(probe)
    if child.error or not Path(resolved).resolve().is_relative_to(ROOT):
        raise SystemExit(f"bench: bisymrr does not resolve inside {ROOT}: {child.error or resolved}")
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bisymrr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = got.stdout.strip() or None
        except OSError:
            pass
    return {"git_commit": commit, "bisymrr_file": resolved, "src_sha256": digest.hexdigest()}


def run_workload(name: str, args, spawner: Spawner) -> dict:
    """Set up, measure and check one workload; print its report and return
    its result object."""
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        code = code_identity(spawner, work)
        setup = []
        ref_before = reference_s(spawner, work)
        for rep in range(1 + (0 if args.trace else SETUP_REPS)):
            child = spawner.run(["-m", "bisymrr", "--help"], work)
            if child.error:
                raise SystemExit(f"bench: bisymrr --help failed: {child.error}")
            ref_after = reference_s(spawner, work)
            if rep:  # the first call compiles bytecode; users pay that once
                setup.append((child.wall_s, (ref_before + ref_after) / 2))
            ref_before = ref_after
        workload = WORKLOADS[name](args.seed, SIZES[args.size], work)
        ops = measure(spawner, workload, work, args.seconds, bool(args.trace))
        if args.trace:
            metrics, notes = per_layer(ops)
        else:
            metrics, notes = end_to_end(ops, workload, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    failed = [op.error for op in ops if op.error is not None]
    print(f"== {name}")
    shown = {"throughput": f"({notes.get('throughput_unit')})", "op_s_tail": f"({notes.get('op_s_tail_rank')})"}
    for metric, (value, unit) in metrics.items():
        print(f"{metric:40s} {value:14.6g} {unit} {shown.get(metric, '')}".rstrip())
    print(f"{'failed_ratio':40s} {len(failed) / len(ops):14.6g} ops failed / ops attempted ({len(ops)})")
    if args.trace:
        for layer, seconds in sorted(notes["self_s_per_layer"].items(), key=lambda item: -item[1]):
            print(f"self time {layer:30s} {seconds:14.6g} s")
        for metric, _, _, about in PREDICTIONS:
            if about == name:
                share = metrics[metric][0]
                verdict = "confirmed" if share >= PREDICTED_SHARE else "refuted"
                print(f"prediction {metric} >= {PREDICTED_SHARE} on {about}: {share:.3f} ({verdict})")
    details = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "load": "closed loop, 1 client, 1 child process at a time",
        "inputs": workload.inputs, "machine": machine_identity(), "code": code, **notes,
        "op_walls_s": [op.wall_s for op in ops], "failures": failed[:5],
    }
    print(json.dumps({"details": details}))
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="'all' runs each workload in turn; metric names then carry the workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'toy' is for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bisymrr" / "__init__.py").is_file():
        print(f"bench: no bisymrr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    spawner = Spawner(dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    try:
        results = {name: run_workload(name, args, spawner) for name in names}
    finally:
        spawner.close()
    if len(results) == 1:
        [result] = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
