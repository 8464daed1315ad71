"""The package's lazy namespace, its numpy-free start, how a command process
exits, the names the bench wraps to trace each layer, and what earns a name
its place in the namespace."""

import ast
import atexit
import gc
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bisymrr
from bisymrr import cli, figures, parser

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# The modules that parsing a command line may load; none imports numpy.
NUMPY_FREE = {"bisymrr", "bisymrr.__main__", "bisymrr.parser", "bisymrr.errors", "bisymrr.surveys"}


def imported_modules(*args: str) -> tuple[int, set[str]]:
    """Exit code and every module a fresh ``python -X importtime ARGS``
    imports, read off the import-time lines on its stderr."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=120,
    )
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return proc.returncode, {line.rpartition("|")[2].strip() for line in lines[1:]}


@pytest.mark.parametrize(
    "args, code",
    [
        (("-c", "import bisymrr"), 0),
        (("-m", "bisymrr", "--help"), 0),
        (("-m", "bisymrr", "figures", "--help"), 0),
        (("-m", "bisymrr", "estimate"), 2),
        (("-m", "bisymrr", "loss", "--n", "2"), 2),
        (("-m", "bisymrr", "randomize", "c.csv", "--a", "0.7", "--mechanism", "direct:0.7"), 2),
    ],
    ids=["import", "help", "figures-help", "usage-error", "flag-pair-neither", "flag-pair-both"],
)
def test_start_imports_no_numpy(args, code):
    got, modules = imported_modules(*args)
    assert got == code
    assert "bisymrr" in modules
    assert not {m for m in modules if m.partition(".")[0] == "numpy"}
    # dataclasses loads inspect, ast, dis and tokenize: half of --help's import time
    assert not {"dataclasses", "inspect"} & modules
    assert {m for m in modules if m.partition(".")[0] == "bisymrr"} <= NUMPY_FREE


# The modules only ``figures`` and ``privacy`` need: figure 2b alone reads
# privacy budgets, and only a ``--config`` file is JSON.
LAZY = {"bisymrr.figures", "bisymrr.privacy", "json"}


def loaded_modules(*argv: str) -> tuple[int, set[str]]:
    """Exit code of ``bisymrr ARGV`` in a fresh process, and every module in
    its ``sys.modules`` at the end."""
    probe = (
        "import sys; from bisymrr.parser import main; code = main(sys.argv[1:]); "
        "print(*sys.modules, file=sys.stderr); sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=120,
    )
    return proc.returncode, set(proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize(
    "args, loads",
    [
        (("randomize", "{corpus}", "--a", "0.75"), set()),
        (("estimate", "{corpus}"), set()),
        (("matrix", "0.75", "1"), set()),
        (("loss", "--a", "0.75", "--n", "1", "--s", "0.5"), set()),
        (("privacy", "--a", "0.75", "--n", "2"), {"bisymrr.privacy"}),
        (("figures", "1a", "--trials", "2"), {"bisymrr.figures"}),
        (("figures", "2b"), {"bisymrr.figures", "bisymrr.privacy"}),
        (("figures", "2b", "--config", "{config}"), LAZY),
    ],
    ids=["randomize", "estimate", "matrix", "loss", "privacy", "figures-1a", "figures",
         "figures-config"],
)
def test_each_command_loads_only_what_it_uses(tmp_path, args, loads):
    corpus, config = tmp_path / "c.csv", tmp_path / "2b.json"
    corpus.write_text("# width=2 m=3 a=0.75\n0,1\n1,1\n0,0\n")
    config.write_text('{"n": 2}')
    code, modules = loaded_modules(*(arg.format(corpus=corpus, config=config) for arg in args))
    assert code == 0 and "bisymrr.cli" in modules
    assert modules & LAZY == loads


def test_cli_binds_build_figure_without_loading_the_figures_layer():
    probe = "import sys, bisymrr.cli; bisymrr.cli.build_figure; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=120, check=True,
    )
    loaded = set(proc.stdout.split())
    assert "bisymrr.cli" in loaded and not {"bisymrr.figures", "bisymrr.privacy"} & loaded


def test_figures_calls_the_build_figure_bound_in_cli(monkeypatch, capsys):
    """The bench times the figures layer by rebinding ``cli.build_figure``, so
    the command must call that binding, once, and print the same bytes."""
    assert cli.main(["figures", "2a"]) == 0
    plain = capsys.readouterr()
    calls = []
    build_figure = cli.build_figure

    def recording(*args):
        calls.append(args[0])
        return build_figure(*args)

    monkeypatch.setattr(cli, "build_figure", recording)
    assert cli.main(["figures", "2a"]) == 0
    assert capsys.readouterr() == plain
    assert calls == ["2a"]


def test_running_a_command_imports_numpy():
    """The check above can tell: a real command does load numpy."""
    code, modules = imported_modules("-m", "bisymrr", "loss", "--a", "0.75", "--n", "1", "--s", "0.5")
    assert code == 0 and "numpy" in modules and "bisymrr.cli" in modules


# A command process as the console script runs it: ``main()`` reads sys.argv.
# The reporter runs at exit, once the command has returned its code.
FREEZE_PROBE = (
    "import atexit, gc, sys; from bisymrr.parser import main; "
    "atexit.register(lambda: print('freeze_count', gc.get_freeze_count(), file=sys.stderr)); "
    "sys.argv = ['bisymrr', *sys.argv[1:]]; sys.exit(main())"
)


@pytest.mark.parametrize(
    "args, code",
    [
        (("estimate", "{corpus}"), 0),
        (("figures", "1a", "--trials", "2"), 0),
        (("--help",), 0),
        (("estimate",), 2),
        (("estimate", "{bad}"), 4),
    ],
    ids=["estimate", "figures", "help", "usage-error", "parse-error"],
)
def test_command_process_freezes_the_collector_at_exit(tmp_path, args, code):
    """The heap frozen once loading ends is still frozen at exit, so
    shutdown's collections skip it, on every way out of the parse, and the
    exit code is the command's."""
    (tmp_path / "c.csv").write_text("# width=2 m=3 a=0.75\n0,1\n1,1\n0,0\n")
    (tmp_path / "bad.csv").write_text("# width=2 m=3 a=0.75\n0,1\n1,2\n0,0\n")
    argv = [arg.format(corpus=tmp_path / "c.csv", bad=tmp_path / "bad.csv") for arg in args]
    proc = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE, *argv],
        capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == code
    name, count = proc.stderr.splitlines()[-1].split()
    assert name == "freeze_count" and int(count) > 0


# ``main()`` on the process's own command line, with the collector watched.
# LOAD_PROBE counts the passes that start before ``cli.run`` is bound, while
# the parser is built and numpy and the layers load; RUN_PROBE, which binds
# it first, reports the collector's state as ``cli.run`` is entered.
LOAD_PROBE = (
    "import gc, sys; from bisymrr import parser; early = []; "
    "gc.callbacks.append(lambda phase, info: phase == 'start' "
    "and not hasattr(sys.modules.get('bisymrr.cli'), 'run') and early.append(info)); "
    "sys.argv = ['bisymrr', *sys.argv[1:]]; code = parser.main(); "
    "print('early', len(early), file=sys.stderr); sys.exit(code)"
)
RUN_PROBE = (
    "import gc, sys; from bisymrr import cli, parser; run = cli.run; "
    "cli.run = lambda args: print('run', gc.isenabled(), gc.get_freeze_count() > 0, "
    "file=sys.stderr) or run(args); "
    "sys.argv = ['bisymrr', *sys.argv[1:]]; sys.exit(parser.main())"
)


@pytest.mark.parametrize(
    "args", [("estimate", "{corpus}"), ("figures", "1a", "--trials", "2")], ids=["estimate", "figures"]
)
def test_command_process_collects_nothing_while_it_loads(tmp_path, args):
    """No collection walks the objects the parser, numpy and the layers make
    while they load; the command then runs with the collector on and them
    frozen, so only its own cycles are collected."""
    (tmp_path / "c.csv").write_text("# width=2 m=3 a=0.75\n0,1\n1,1\n0,0\n")
    argv = [arg.format(corpus=tmp_path / "c.csv") for arg in args]
    for probe, report in [(LOAD_PROBE, "early 0"), (RUN_PROBE, "run True True")]:
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv, "--out", str(tmp_path / "out.csv")],
            capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=120,
        )
        assert (proc.returncode, proc.stderr.splitlines()[-1]) == (0, report)


def test_in_process_main_freezes_nothing(monkeypatch, tmp_path, capsys):
    """A caller passing ``argv`` (tests, library users, the bench launcher)
    keeps the interpreter's own shutdown and collector: no exit handler, no
    freeze, and the collector on or off as it found it."""
    registered = []
    monkeypatch.setattr(atexit, "register", lambda *args, **kwargs: registered.append(args))
    corpus = tmp_path / "c.csv"
    corpus.write_text("# width=2 m=3 a=0.75\n0,1\n1,1\n0,0\n")
    try:
        for collecting in (True, False):
            (gc.enable if collecting else gc.disable)()
            for argv, code in [(["estimate", str(corpus)], 0), (["--help"], 0), (["estimate"], 2)]:
                assert parser.main(argv) == code
                assert gc.isenabled() is collecting
    finally:
        gc.enable()
    capsys.readouterr()
    assert registered == []
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_own_command_line_leaves_the_collector_as_found(monkeypatch, capsys, collecting):
    """Parsing the process's own command line turns the collector off while
    it loads and back to the state it found, on every way out of the parse."""
    (gc.enable if collecting else gc.disable)()
    try:
        for argv, code in [(["bisymrr", "--help"], 0), (["bisymrr", "estimate"], 2)]:
            monkeypatch.setattr(sys, "argv", argv)
            assert parser.main() == code
            assert gc.isenabled() is collecting
    finally:
        gc.unfreeze()
        gc.enable()
    capsys.readouterr()


def test_shutdown_delivers_all_output(tmp_path, capsys):
    """A command process's stdout through a pipe and its ``--out`` file hold
    every byte the in-process command writes: nothing is lost at exit."""
    corpus = tmp_path / "c.csv"
    bits = np.random.default_rng(5).integers(0, 2, (2000, 16), dtype=np.uint8)
    bisymrr.write_corpus(corpus, bisymrr.ResponseCorpus(bits), {"a": 0.75})
    proc = subprocess.run(
        [sys.executable, "-m", "bisymrr", "estimate", str(corpus)],
        capture_output=True, env=ENV, cwd=ROOT, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert parser.main(["estimate", str(corpus)]) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 1_000_000 and proc.stdout == expected
    randomize = ["randomize", str(corpus), "--a", "0.75", "--seed", "3", "--out"]
    subprocess.run(
        [sys.executable, "-m", "bisymrr", *randomize, str(tmp_path / "spawned.csv")],
        env=ENV, cwd=ROOT, timeout=120, check=True,
    )
    assert parser.main([*randomize, str(tmp_path / "in-process.csv")]) == 0
    assert (tmp_path / "spawned.csv").read_bytes() == (tmp_path / "in-process.csv").read_bytes()


class TestLazyNamespace:
    @pytest.mark.parametrize("name", bisymrr.__all__)
    def test_name_is_its_defining_module_object(self, name):
        module = importlib.import_module(f"bisymrr.{bisymrr._MODULE_OF[name]}")
        assert getattr(bisymrr, name) is getattr(module, name)

    def test_dir_lists_every_name(self):
        assert set(bisymrr.__all__) <= set(dir(bisymrr))

    def test_star_import_binds_every_name(self):
        scope: dict = {}
        exec("from bisymrr import *", scope)
        assert set(bisymrr.__all__) <= set(scope)

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bisymrr.no_such_name

    def test_figure_defaults_name_every_figure(self):
        assert parser.FIGURE_DEFAULTS.keys() == figures.FIGURES.keys()


# Public names no command uses, kept because each is a closed form or contract
# of the paper: single entries of the channel and its inverse, the distinct
# entry values, the budget of a response, the cost at a budget, the covariance
# trace and its per-cell variances, and per-record randomization.
PAPER_CLAIMS = {
    "entry_at", "inverse_entry_at", "distinct_entries", "epsilon_of", "c_at_alpha",
    "cov_trace_closed_form", "estimate_variance", "randomize",
}


def names_used(source: str) -> set[str]:
    """Every name ``source`` reads, looks up as an attribute or imports."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_is_used_or_a_paper_claim():
    """A public name must be used by the package's own code (its listing in
    ``__init__`` aside) or by the README's python example, or be one of
    :data:`PAPER_CLAIMS`, so a wrapper only tests call cannot come back
    unnoticed."""
    used = set().union(
        *(names_used(path.read_text()) for path in (ROOT / "src" / "bisymrr").glob("*.py")
          if path.name != "__init__.py")
    )
    (example,) = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    used |= names_used(example)
    assert PAPER_CLAIMS <= set(bisymrr.__all__)
    assert set(bisymrr.__all__) - used - PAPER_CLAIMS == set()


def test_every_name_the_bench_wraps_exists():
    """The bench traces each layer by replacing these attributes from outside,
    and skips any it does not find, so a renamed or lazily bound one would
    silence its spans without failing the bench."""
    spec = importlib.util.spec_from_file_location("bench_launcher", ROOT / "bench" / "launcher.py")
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    missing = {
        (module, attr)
        for module, attr, *_ in launcher.WRAPPED
        if not hasattr(importlib.import_module(module), attr)
    }
    # materialize is wrapped wherever a hot path could bind it again; only
    # channel and cli bind it (test_channel pins that), so these find nothing
    assert missing == {("bisymrr.estimator", "materialize"), ("bisymrr.figures", "materialize")}
    assert callable(importlib.import_module("bisymrr.cli").main)
