"""The README's examples must run as written against the package."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_python_example_runs():
    python = blocks("python")
    assert len(python) == 1
    proc = subprocess.run(
        [sys.executable, "-c", python[0]], capture_output=True, text=True, env=ENV, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["9.75", "1.0986122886681098"]


def test_command_line_example_runs(tmp_path):
    """Every command of the README's ``bisymrr`` block exits 0, in order, in a
    directory holding the two input files it names."""
    (script,) = [block for block in blocks("sh") if "bisymrr " in block]
    (tmp_path / "truth.csv").write_text("# width=2 m=4\n0,1\n1,1\n0,0\n0,1\n")
    (tmp_path / "settings.json").write_text(json.dumps({"n": 2, "k": 2}))
    commands = [shlex.split(line) for line in script.splitlines() if line and not line.startswith("#")]
    assert len(commands) == 8
    for argv in commands:
        assert argv[0] == "bisymrr", argv
        proc = subprocess.run(
            [sys.executable, "-m", "bisymrr", *argv[1:]],
            capture_output=True, text=True, env=ENV, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
