"""Command-line front end.

Subcommands: matrix | randomize | estimate | loss | privacy | figures.
Everything reads and writes flat CSV (stdout by default), all floats carry 17
significant digits, and every randomized path takes an explicit seed.

Exit codes: 0 success, 2 usage or domain error, 3 singular channel (a = 1/2),
4 parse error in an input file, 5 dense-width cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .channel import dense_cap, DENSE_CAP_ENV, inverse_parameter, materialize
from .corpus_io import (
    format_float,
    read_corpus,
    read_vector,
    write_corpus,
    write_matrix,
    _writing,
)
from .errors import (
    CorpusFormatError,
    DegenerateDistributionError,
    InfiniteDisclosureError,
    SingularChannelError,
    WidthCapError,
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
    FIGURE_DEFAULTS,
    FIGURES,
    _cell_labels,
    build_figure,
)
from .privacy import a_for_epsilon, report_for_a
from .randomizer import (
    Direct,
    RandomSeed,
    effective_a,
    parse_mechanism,
    randomize_corpus,
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _mechanism_from_args(args, required: bool = True):
    """One mechanism from --a / --mechanism; both at once is ambiguous."""
    has_a = getattr(args, "a", None) is not None
    has_mech = getattr(args, "mechanism", None) is not None
    if has_a and has_mech:
        raise ValueError("give either --a or --mechanism, not both")
    if has_a:
        return Direct(args.a)
    if has_mech:
        return parse_mechanism(args.mechanism)
    if required:
        raise ValueError("one of --a or --mechanism is required")
    return None


def _mechanism_text(spec) -> str:
    name = {
        "Direct": "direct",
        "Warner": "warner",
        "UnrelatedUniform": "unrelated",
        "RapporOneTime": "rappor1",
        "RapporFull": "rappor",
    }[type(spec).__name__]
    if name == "rappor":
        return f"rappor:f={format_float(spec.f)},q={format_float(spec.q)}"
    value = next(iter(vars(spec).values()))
    return f"{name}:{format_float(value)}"


def cmd_matrix(args) -> int:
    a = inverse_parameter(args.a) if args.inverse else args.a
    with _writing(args.out if args.out else sys.stdout) as out:
        write_matrix(out, materialize(a, args.n))
    return 0


def cmd_randomize(args) -> int:
    corpus, meta = read_corpus(args.input)
    spec = _mechanism_from_args(args)
    a = effective_a(spec)
    seed = RandomSeed(args.seed, args.stream)
    result = randomize_corpus(corpus, a, seed)
    meta.update(
        {
            "a": a,
            "mechanism": _mechanism_text(spec),
            "seed": args.seed,
            "stream": args.stream,
        }
    )
    with _writing(args.out if args.out else sys.stdout) as out:
        write_corpus(out, result, meta)
    return 0


def cmd_estimate(args) -> int:
    corpus, meta = read_corpus(args.input)
    spec = _mechanism_from_args(args, required=False)
    if spec is not None:
        a = effective_a(spec)
    elif "a" in meta:
        a = float(meta["a"])
    else:
        raise ValueError(
            "no channel parameter: give --a or --mechanism, or estimate from "
            "a corpus whose header records a="
        )
    if args.bits:
        positions = [int(b) for b in args.bits.split(",")]
    else:
        positions = list(range(corpus.width))
    hist = marginal_histogram(corpus, positions)
    result = estimate(hist, a)
    if args.project:
        result = project_to_simplex(result)
    with _writing(args.out if args.out else sys.stdout) as out:
        bits_text = ",".join(str(p) for p in positions)
        out.write(
            f"# width={corpus.width} m={corpus.m} a={format_float(a)} "
            f"bits={bits_text} projected={int(args.project)}\n"
        )
        out.write("pattern,estimate\n")
        for label, value in zip(_cell_labels(len(positions)), result):
            out.write(f"{label},{format_float(float(value))}\n")
    return 0


def cmd_loss(args) -> int:
    spec = _mechanism_from_args(args)
    a = effective_a(spec)
    if (args.s is None) == (args.pi is None):
        raise ValueError("give exactly one of --s or --pi")
    if args.pi is not None:
        pi = read_vector(args.pi)
        if pi.size != 1 << args.n:
            raise ValueError(
                f"pi file has {pi.size} cells, width {args.n} needs {1 << args.n}"
            )
        s = float(pi @ pi)
    else:
        s = args.s
    report = loss(s, a, args.n)
    rows = [
        ("a", a),
        ("c", report.c),
        ("s", report.s),
        ("trace_cov", report.trace_cov),
        ("loss_L", report.loss_L),
        ("loss_floor", report.loss_floor),
        ("loss_approx", report.loss_approx),
    ]
    if args.n > 2:
        rows.append(("approx_quality", loss_approx_quality(args.n)))
    with _writing(args.out if args.out else sys.stdout) as out:
        out.write("key,value\n")
        for key, value in rows:
            out.write(f"{key},{_fmt(value)}\n")
    return 0


def cmd_privacy(args) -> int:
    if (args.a is None) == (args.epsilon is None):
        raise ValueError("give exactly one of --a or --epsilon")
    k = args.k if args.k is not None else args.n
    s = args.s if args.s is not None else 1.0 / (1 << args.n)
    if args.epsilon is not None:
        a = a_for_epsilon(args.epsilon, k)
    else:
        a = args.a
    report = report_for_a(a, k, args.n, s)
    rows = [
        ("a", report.a),
        ("ratio", report.ratio),
        ("epsilon_per_bit", report.epsilon_per_bit),
        ("epsilon_total", report.epsilon_total),
        ("k", k),
        ("n", args.n),
        ("s", s),
        ("c_at_alpha", report.c_at_alpha),
        ("loss_at_alpha", report.loss_at_alpha),
    ]
    with _writing(args.out if args.out else sys.stdout) as out:
        out.write("key,value\n")
        for key, value in rows:
            out.write(f"{key},{_fmt(value)}\n")
    return 0


def cmd_figures(args) -> int:
    overrides = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                overrides.update(json.load(handle))
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"bad config file: {exc}") from exc
    for key in ("n", "m", "trials", "k", "seed", "stream"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if args.a is not None and args.mechanism is not None:
        raise ValueError("give either --a or --mechanism, not both")
    if args.mechanism is not None:
        overrides["mechanism"] = args.mechanism
    elif args.a is not None:
        overrides["mechanism"] = Direct(args.a)
    if args.pi is not None:
        text = args.pi.strip()
        overrides["pi"] = (
            text
            if text == "dirichlet-flat"
            else [float(t) for t in text.replace(",", " ").split()]
        )

    base = ExperimentConfig.from_mapping(FIGURE_DEFAULTS[args.which])
    cfg = ExperimentConfig.from_mapping(overrides, base=base)
    columns, rows = build_figure(args.which, cfg)
    pi_text = cfg.pi if isinstance(cfg.pi, str) else ",".join(map(format_float, cfg.pi))
    with _writing(args.out if args.out else sys.stdout) as out:
        out.write(
            f"# figure={args.which} n={cfg.n} m={cfg.m} trials={cfg.trials} "
            f"mechanism={_mechanism_text(cfg.mechanism)} pi={pi_text} "
            f"seed={cfg.seed.seed} stream={cfg.seed.stream} k={cfg.k}\n"
        )
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
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
            f"kernel pass and has no width cap; the dense-matrix width cap "
            f"(default {dense_cap()}, overridden via {DENSE_CAP_ENV}) governs "
            f"only matrix and the library's dense covariance."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="print a flip matrix or its inverse as CSV")
    p.add_argument("a", type=float, help="per-bit truth probability")
    p.add_argument("n", type=int, help="bit width")
    p.add_argument("--inverse", action="store_true", help="emit the matrix inverse")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("randomize", help="randomize a corpus file")
    p.add_argument("input", help="corpus file ('# width=.. m=..' header + bit rows)")
    p.add_argument("--a", type=float, help="per-bit truth probability")
    p.add_argument(
        "--mechanism",
        help="mechanism spec, e.g. direct:0.75, warner:0.7, unrelated:0.5, "
        "rappor1:0.5, rappor:f=0.5,q=0.75",
    )
    p.add_argument("--seed", type=int, default=0, help="randomness seed")
    p.add_argument("--stream", type=int, default=0, help="substream id")
    p.add_argument("--out", help="output path (default stdout)")
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
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("loss", help="closed-form efficiency-loss report")
    p.add_argument("--a", type=float, help="per-bit truth probability")
    p.add_argument("--mechanism", help="mechanism spec instead of --a")
    p.add_argument("--n", type=int, required=True, help="bit width")
    p.add_argument("--s", type=float, help="sum of squared cell probabilities")
    p.add_argument("--pi", help="file with the distribution (s computed from it)")
    p.add_argument("--out", help="output path (default stdout)")
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
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_privacy)

    p = sub.add_parser("figures", help="emit a canned experiment dataset as CSV")
    p.add_argument("which", choices=sorted(FIGURES), help="dataset id")
    p.add_argument("--config", help="JSON file of experiment settings")
    p.add_argument("--n", type=int, help="bit width")
    p.add_argument("--m", type=int, help="responses per trial")
    p.add_argument("--trials", type=int, help="number of trials")
    p.add_argument("--pi", help="comma-separated distribution or 'dirichlet-flat'")
    p.add_argument("--mechanism", help="mechanism spec (default unrelated:0.5)")
    p.add_argument("--a", type=float, help="shortcut for --mechanism direct:<a>")
    p.add_argument("--seed", type=int, help="randomness seed")
    p.add_argument("--stream", type=int, help="substream id")
    p.add_argument("--k", type=int, help="max differing bits for budget-indexed data")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_figures)

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
    except SingularChannelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CorpusFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except WidthCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (
        DegenerateDistributionError,
        InfiniteDisclosureError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
