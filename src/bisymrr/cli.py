"""Command-line front end.

Subcommands: matrix | randomize | estimate | loss | privacy | figures.
Everything reads and writes flat CSV (stdout by default), all floats carry 17
significant digits, and every randomized path takes an explicit seed.

Exit codes: 0 success, 2 usage or domain error (a result overflowing a float
included), 3 singular channel (a = 1/2), 4 parse error in an input file, 5
bit-width or block-size cap exceeded (``matrix`` above ``DENSE_CAP``,
``estimate`` on a marginal of more than ``CELL_CAP`` cells, ``figures 1a``
above ``FIGURE_1A_CAP`` or with more than ``CELL_CAP`` cells in its
3 x trials x 2^n block); each domain error carries its own ``exit_code``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .channel import DENSE_CAP, inverse_parameter, materialize
from .corpus_io import (
    _format_value,
    _writing,
    mechanism_forms,
    read_corpus,
    read_vector,
    write_corpus,
    write_header,
    write_matrix,
    write_table,
)
from .errors import (
    CELL_CAP,
    BisymrrError,
    CorpusFormatError,
    check_distribution,
    check_probability,
    check_width,
)
from .estimator import (
    estimate,
    loss,
    loss_approx_quality,
    marginal_histogram,
    project_to_simplex,
)
from .figures import (
    ExperimentConfig,
    FIGURE_1A_CAP,
    FIGURE_DEFAULTS,
    FLAT_DIRICHLET,
    FIGURES,
    _cell_labels,
    build_figure,
)
from .privacy import a_for_epsilon, report_for_a
from .randomizer import Mechanism, RandomSeed, effective_a, parse_mechanism, randomize_corpus


def _mechanism_from_args(args, required: bool = True):
    """One mechanism from --a / --mechanism; both at once is ambiguous."""
    has_a = getattr(args, "a", None) is not None
    has_mech = getattr(args, "mechanism", None) is not None
    if has_a and has_mech:
        raise ValueError("give either --a or --mechanism, not both")
    if has_a:
        return Mechanism("direct", (args.a,))
    if has_mech:
        return parse_mechanism(args.mechanism)
    if required:
        raise ValueError("one of --a or --mechanism is required")
    return None


def _write_keyvals(args, fields: dict) -> int:
    """The ``key,value`` CSV the loss and privacy reports print."""
    with _writing(args.out or sys.stdout) as out:
        write_table(out, ([k, _format_value(v)] for k, v in fields.items()), ["key", "value"])
    return 0


def cmd_matrix(args) -> int:
    a = check_probability(args.a, "a")
    if args.inverse:
        a = inverse_parameter(a)
    with _writing(args.out if args.out else sys.stdout) as out:
        write_matrix(out, materialize(a, args.n))
    return 0


def cmd_randomize(args) -> int:
    corpus, meta = read_corpus(args.input)
    spec = _mechanism_from_args(args)
    a = effective_a(spec)
    seed = RandomSeed(args.seed, args.stream)
    result = randomize_corpus(corpus, a, seed)
    meta.update(a=a, mechanism=spec, seed=args.seed, stream=args.stream)
    with _writing(args.out if args.out else sys.stdout) as out:
        write_corpus(out, result, meta)
    return 0


def cmd_estimate(args) -> int:
    corpus, meta = read_corpus(args.input)
    spec = _mechanism_from_args(args, required=False)
    if spec is not None:
        a = effective_a(spec)
    elif "a" in meta:
        try:
            a = float(meta["a"])
        except ValueError:
            raise CorpusFormatError(f"header value a={meta['a']} is not a number", line=1) from None
    else:
        raise ValueError(
            "no channel parameter: give --a or --mechanism, or estimate from "
            "a corpus whose header records a="
        )
    if args.bits is None:
        positions = range(corpus.width)
    else:
        try:
            positions = [int(b) for b in args.bits.split(",")]
        except ValueError:
            raise ValueError(f"--bits must be comma-separated bit positions, got {args.bits!r}") from None
    hist = marginal_histogram(corpus, positions)
    result = estimate(hist, a)
    if args.project:
        result = project_to_simplex(result)
    with _writing(args.out if args.out else sys.stdout) as out:
        header = dict(width=corpus.width, m=corpus.m, a=a, bits=positions, projected=args.project)
        write_header(out, header)
        write_table(
            out, zip(_cell_labels(len(positions)), result.tolist()), ["pattern", "estimate"]
        )
    return 0


def cmd_loss(args) -> int:
    a = effective_a(_mechanism_from_args(args))
    n = check_width(args.n, 1)
    if (args.s is None) == (args.pi is None):
        raise ValueError("give exactly one of --s or --pi")
    if args.pi is not None:
        pi = check_distribution(read_vector(args.pi))
        if pi.size != 1 << n:
            raise ValueError(f"pi file has {pi.size} cells, width {n} needs {1 << n}")
        s = float(pi @ pi)
    else:
        s = args.s
    fields = {"a": a, **vars(loss(s, a, n))}
    if n > 2:
        fields["approx_quality"] = loss_approx_quality(n)
    return _write_keyvals(args, fields)


def cmd_privacy(args) -> int:
    if (args.a is None) == (args.epsilon is None):
        raise ValueError("give exactly one of --a or --epsilon")
    n = check_width(args.n, 1)
    k = args.k if args.k is not None else n
    s = args.s if args.s is not None else 1.0 / (1 << n)
    a = args.a if args.epsilon is None else a_for_epsilon(args.epsilon, k)
    return _write_keyvals(args, vars(report_for_a(a, k, n, s)))


def cmd_figures(args) -> int:
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                config = json.load(handle)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"bad config file: {exc}") from exc
        if not isinstance(config, dict):
            raise CorpusFormatError(
                f"bad config file: expected a JSON object, got {type(config).__name__}"
            )
    flags = {key: getattr(args, key) for key in ("n", "m", "trials", "pi", "seed", "stream", "k")}
    flags["mechanism"] = _mechanism_from_args(args, required=False)
    # flags override the config file; a null value, like an absent flag, sets nothing
    given = (item for source in (config, flags) for item in source.items())
    settings = {key: value for key, value in given if value is not None}
    reads = FIGURE_DEFAULTS[args.which]
    for key in settings:
        if key not in reads:
            raise ValueError(f"figure {args.which} reads no setting {key}")
    if args.pi is not None:
        text = args.pi.strip()
        settings["pi"] = (
            text if text == FLAT_DIRICHLET else [float(t) for t in text.replace(",", " ").split()]
        )
    cfg = ExperimentConfig.from_mapping({**reads, **settings})
    columns, rows = build_figure(args.which, cfg)
    header = {"figure": args.which}
    for key in reads:
        header[key] = getattr(cfg.seed if key in ("seed", "stream") else cfg, key)
    with _writing(args.out if args.out else sys.stdout) as out:
        write_header(out, header)
        write_table(out, rows, columns)
    return 0


def _build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("matrix", help="print a flip matrix or its inverse as CSV")
    p.add_argument("a", type=float, help="per-bit truth probability")
    p.add_argument("n", type=int, help="bit width")
    p.add_argument("--inverse", action="store_true", help="emit the matrix inverse")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("randomize", help="randomize a corpus file")
    p.add_argument("input", help="corpus file ('# width=.. m=..' header + bit rows)")
    p.add_argument("--a", type=float, help="per-bit truth probability")
    p.add_argument("--mechanism", help=f"mechanism spec: one of {mechanism_forms()}")
    p.add_argument("--seed", type=int, default=0, help="randomness seed")
    p.add_argument("--stream", type=int, default=0, help="substream id")
    p.set_defaults(func=cmd_randomize)

    p = sub.add_parser("estimate", help="estimate a marginal from a randomized corpus")
    p.add_argument("input", help="randomized corpus file")
    p.add_argument("--a", type=float, help="channel parameter (default: corpus header)")
    p.add_argument("--mechanism", help="mechanism spec instead of --a")
    p.add_argument(
        "--bits", help="comma-separated bit positions, increasing (default: all)"
    )
    p.add_argument(
        "--project",
        action="store_true",
        help="project the raw estimate onto the probability simplex",
    )
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("loss", help="closed-form efficiency-loss report")
    p.add_argument("--a", type=float, help="per-bit truth probability")
    p.add_argument("--mechanism", help="mechanism spec instead of --a")
    p.add_argument("--n", type=int, required=True, help="bit width")
    p.add_argument("--s", type=float, help="sum of squared cell probabilities")
    p.add_argument("--pi", help="file with the distribution (s computed from it)")
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("privacy", help="privacy-budget report (both directions)")
    p.add_argument("--a", type=float, help="per-bit truth probability")
    p.add_argument("--epsilon", type=float, help="total budget to invert")
    p.add_argument("--k", type=int, help="max differing bits (default: n)")
    p.add_argument("--n", type=int, required=True, help="bit width")
    p.add_argument(
        "--s",
        type=float,
        help="sum of squared cell probabilities for the loss row (default 2^-n)",
    )
    p.set_defaults(func=cmd_privacy)

    p = sub.add_parser(
        "figures",
        help="emit a canned experiment dataset as CSV; settings it does not read are refused",
        epilog="Each dataset reads only these settings, refuses any other flag or config key "
        "(exit 2) and records them in its header: "
        + "; ".join(f"{w} {', '.join(keys) or 'none'}" for w, keys in FIGURE_DEFAULTS.items()),
    )
    p.add_argument("which", choices=sorted(FIGURES), help="dataset id")
    p.add_argument("--config", help="JSON file of settings the dataset reads")
    p.add_argument("--n", type=int, help="bit width")
    p.add_argument("--m", type=int, help="responses per trial")
    p.add_argument("--trials", type=int, help="number of trials")
    p.add_argument("--pi", help="comma-separated distribution or 'dirichlet-flat'")
    p.add_argument(
        "--mechanism", help=f"mechanism spec (default {FIGURE_DEFAULTS['1a']['mechanism']})"
    )
    p.add_argument("--a", type=float, help="shortcut for --mechanism direct:<a>")
    p.add_argument("--seed", type=int, help="randomness seed")
    p.add_argument("--stream", type=int, help="substream id")
    p.add_argument("--k", type=int, help="max differing bits for budget-indexed data")
    p.set_defaults(func=cmd_figures)

    for p in sub.choices.values():
        p.add_argument("--out", help="output path (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else (code if isinstance(code, int) else 2)
    try:
        code = args.func(args)
        # surface a closed-pipe stdout here, not in the shutdown flush where
        # it can no longer be handled
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # reader went away (e.g. piped into head); silence the shutdown flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (BisymrrError, ValueError, OverflowError, OSError) as exc:
        # an errno OverflowError carries (errno, reason): print the reason
        detail = f"numerical overflow: {exc.args[-1]}" if isinstance(exc, OverflowError) else exc
        print(f"error: {detail}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
