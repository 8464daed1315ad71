"""The command line's argument parser, which imports no numpy.

:func:`main` parses first and imports :mod:`bisymrr.cli`, and with it numpy
and the layers that command needs, only to run a command, so ``--help``, each
subcommand's ``--help`` and every usage error, flag pairs included, load no
more than this module, :mod:`argparse`, :mod:`~bisymrr.errors` and
:mod:`~bisymrr.surveys`.  So every table the help quotes lives in one of these:
the size caps in ``errors``, the mechanism specs in ``surveys``, and the
settings each figure reads in :data:`FIGURE_DEFAULTS`, here.  Each pair of
flags naming one setting two ways (``--a``/``--mechanism``, ``--s``/``--pi``,
``--a``/``--epsilon``) is a mutually exclusive group.
"""

from __future__ import annotations

import argparse
import gc

from .errors import CELL_CAP, DENSE_CAP, FIGURE_1A_CAP
from .surveys import mechanism_forms

# The settings each dataset reads, at the values it was designed around: flags
# and config files may set only these, and its header records exactly these.
FIGURE_DEFAULTS: dict[str, dict] = {
    "1a": {"n": 2, "m": 1000, "trials": 100, "mechanism": "unrelated:0.5",
           "pi": (0.05, 0.15, 0.3, 0.5), "seed": 0, "stream": 0},
    "1b": {},
    "1c": {"trials": 100, "mechanism": "unrelated:0.5", "seed": 0, "stream": 0},
    "2a": {"n": 1},
    "2b": {"n": 1, "k": 1},
}


def _matrix(p: argparse.ArgumentParser) -> None:
    p.add_argument("a", type=float, help="per-bit truth probability")
    p.add_argument("n", type=int, help="bit width")
    p.add_argument("--inverse", action="store_true", help="emit the matrix inverse")


def _randomize(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="corpus file ('# width=.. m=..' header + bit rows)")
    dial = p.add_mutually_exclusive_group(required=True)
    dial.add_argument("--a", type=float, help="per-bit truth probability")
    dial.add_argument("--mechanism", help=f"mechanism spec: one of {mechanism_forms()}")
    p.add_argument("--seed", type=int, default=0, help="randomness seed")
    p.add_argument("--stream", type=int, default=0, help="substream id")


def _estimate(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="randomized corpus file")
    dial = p.add_mutually_exclusive_group()
    dial.add_argument("--a", type=float, help="channel parameter (default: corpus header)")
    dial.add_argument("--mechanism", help="mechanism spec instead of --a")
    p.add_argument(
        "--bits", help="comma-separated bit positions, increasing (default: all)"
    )
    p.add_argument(
        "--project",
        action="store_true",
        help="project the raw estimate onto the probability simplex",
    )


def _loss(p: argparse.ArgumentParser) -> None:
    dial = p.add_mutually_exclusive_group(required=True)
    dial.add_argument("--a", type=float, help="per-bit truth probability")
    dial.add_argument("--mechanism", help="mechanism spec instead of --a")
    p.add_argument("--n", type=int, required=True, help="bit width")
    mass = p.add_mutually_exclusive_group(required=True)
    mass.add_argument("--s", type=float, help="sum of squared cell probabilities")
    mass.add_argument("--pi", help="file with the distribution (s computed from it)")


def _privacy(p: argparse.ArgumentParser) -> None:
    dial = p.add_mutually_exclusive_group(required=True)
    dial.add_argument("--a", type=float, help="per-bit truth probability")
    dial.add_argument("--epsilon", type=float, help="total budget to invert")
    p.add_argument("--k", type=int, help="max differing bits (default: n)")
    p.add_argument("--n", type=int, required=True, help="bit width")
    p.add_argument(
        "--s",
        type=float,
        help="sum of squared cell probabilities for the loss row (default 2^-n)",
    )


def _figures(p: argparse.ArgumentParser) -> None:
    p.epilog = (
        "Each dataset reads only these settings, refuses any other flag or config key "
        "(exit 2) and records them in its header: "
        + "; ".join(f"{w} {', '.join(keys) or 'none'}" for w, keys in FIGURE_DEFAULTS.items())
    )
    p.add_argument("which", choices=sorted(FIGURE_DEFAULTS), help="dataset id")
    p.add_argument("--config", help="JSON file of settings the dataset reads")
    p.add_argument("--n", type=int, help="bit width")
    p.add_argument("--m", type=int, help="responses per trial")
    p.add_argument("--trials", type=int, help="number of trials")
    p.add_argument("--pi", help="comma-separated distribution or 'dirichlet-flat'")
    dial = p.add_mutually_exclusive_group()
    dial.add_argument(
        "--mechanism", help=f"mechanism spec (default {FIGURE_DEFAULTS['1a']['mechanism']})"
    )
    dial.add_argument("--a", type=float, help="shortcut for --mechanism direct:<a>")
    p.add_argument("--seed", type=int, help="randomness seed")
    p.add_argument("--stream", type=int, help="substream id")
    p.add_argument("--k", type=int, help="max differing bits for budget-indexed data")


# Each command's line in the top-level help and the function adding its arguments.
_COMMANDS = {
    "matrix": ("print a flip matrix or its inverse as CSV", _matrix),
    "randomize": ("randomize a corpus file", _randomize),
    "estimate": ("estimate a marginal from a randomized corpus", _estimate),
    "loss": ("closed-form efficiency-loss report", _loss),
    "privacy": ("privacy-budget report (both directions)", _privacy),
    "figures": (
        "emit a canned experiment dataset as CSV; settings it does not read are refused",
        _figures,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    """The parser of all six commands."""
    parser = argparse.ArgumentParser(
        prog="bisymrr",
        description=(
            "Bitwise randomized response: flip matrices, unbiased marginal "
            "estimates, efficiency-loss and privacy-budget calculators, and "
            "seeded experiment datasets."
        ),
        epilog=(
            f"estimate always applies the channel inverse as a per-axis "
            f"kernel pass and refuses a marginal of more than {CELL_CAP} "
            f"cells (exit 5); matrix builds the dense matrix and refuses "
            f"widths above {DENSE_CAP} (exit 5); figures 1a refuses --n above "
            f"{FIGURE_1A_CAP} and 3 x trials x 2^n above {CELL_CAP} cells "
            f"(exit 5); figures refuses any setting its dataset does not "
            f"read (exit 2)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.add_argument("--out", help="output path (default stdout)")
    return parser


def main(argv=None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``), run its command and return
    the exit code; a run that ends in argparse exits 0 or 2 without loading
    numpy.

    Parsing the process's own command line (``argv`` None) also keeps the
    cyclic collector off what loading makes, which lives until exit: it is off
    while the parser is built and numpy and the layers load, then freezes that
    heap and is back on for the command's own cycles.  A call with ``argv``
    leaves the collector alone."""
    own = argv is None
    if own:
        collecting = gc.isenabled()
        gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        from .cli import run
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else (code if isinstance(code, int) else 2)
    finally:
        if own:
            gc.freeze()
            if collecting:
                gc.enable()
    return run(args)
