"""The package's lazy namespace, its numpy-free start, the names the bench
wraps to trace each layer, and what earns a name its place in the namespace."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

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
    ],
    ids=["import", "help", "figures-help", "usage-error"],
)
def test_start_imports_no_numpy(args, code):
    got, modules = imported_modules(*args)
    assert got == code
    assert "bisymrr" in modules
    assert not {m for m in modules if m.partition(".")[0] == "numpy"}
    assert {m for m in modules if m.partition(".")[0] == "bisymrr"} <= NUMPY_FREE


# The modules only ``figures`` and ``privacy`` need.
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
        (("figures", "2b"), LAZY),
    ],
    ids=["randomize", "estimate", "matrix", "loss", "privacy", "figures"],
)
def test_each_command_loads_only_what_it_uses(tmp_path, args, loads):
    corpus = tmp_path / "c.csv"
    corpus.write_text("# width=2 m=3 a=0.75\n0,1\n1,1\n0,0\n")
    code, modules = loaded_modules(*(arg.format(corpus=corpus) for arg in args))
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
