"""Command-line front end: the six commands, run on parsed arguments.

Subcommands: matrix | randomize | estimate | loss | privacy | figures.
:mod:`bisymrr.parser` parses the command line without numpy and imports this
module only to :func:`run` a command; :func:`main` is the parser's,
re-exported here.  This module loads numpy and the layers every command
shares (channel, corpus I/O, estimator, randomizer); the ``privacy`` and
``figures`` commands import their own layers when they run (``figures 2b``
also :mod:`~bisymrr.privacy`, and ``figures --config`` :mod:`json`), so no
other command loads them.  Before numpy loads, importing
this module sets ``OPENBLAS_NUM_THREADS=1`` unless the environment sets it,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``.
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

import os
import sys
import warnings
from contextlib import nullcontext

# numpy's OpenBLAS starts a worker per extra CPU that spins while idle, and no
# command gives it work: run one BLAS thread unless the environment names a count.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .channel import inverse_parameter, materialize
from .corpus_io import (
    _corpus_source,
    _format_value,
    _write_rows,
    _writing,
    read_corpus,
    read_vector,
    write_corpus,  # unused: bench/launcher.py still wraps it, though no command calls it
    write_header,
    write_matrix,
    write_table,
)
from .errors import BisymrrError, CorpusFormatError, check_probability, check_width
from .estimator import (
    check_distribution,
    estimate,
    loss,
    loss_approx_quality,
    marginal_histogram,
    project_to_simplex,
)
from .parser import FIGURE_DEFAULTS, main
from .randomizer import RandomSeed, _flip, randomize_corpus  # unused; see write_corpus
from .surveys import Mechanism, effective_a, parse_mechanism


def build_figure(which: str, cfg):
    """:func:`bisymrr.figures.build_figure`, bound here so that the bench can
    time it by rebinding this name."""
    from . import figures

    return figures.build_figure(which, cfg)


def _mechanism_from_args(args):
    """The mechanism ``--a`` or ``--mechanism`` names (the parser takes at
    most one of them), or None."""
    if args.a is not None:
        return Mechanism("direct", (args.a,))
    if args.mechanism is not None:
        return parse_mechanism(args.mechanism)
    return None


def _header_a(meta) -> float | None:
    """The ``a=`` a corpus header records, checked, or None if it has none."""
    if "a" not in meta:
        return None
    try:
        a = float(meta["a"])
    except ValueError:
        raise CorpusFormatError(f"header value a={meta['a']} is not a number", line=1) from None
    return check_probability(a, "a")


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
    """Two passes over the input, held in memory if ``--out`` names it (opening
    the output empties it): the first checks every block, so nothing is written
    unless all of it is valid; the second decodes, flips and writes each block."""
    in_place = args.out and os.path.exists(args.out) and os.path.samefile(args.input, args.out)
    with open(args.input, "rb") if in_place else nullcontext(args.input) as source:
        meta, width, m, rows = _corpus_source(source)
    for _ in rows():
        pass
    spec = _mechanism_from_args(args)
    a = effective_a(spec)
    seed = RandomSeed(args.seed, args.stream)
    check_probability(a, "a")
    # a flip of a flipped corpus is one flip: its a is the whole channel from the originals
    before = _header_a(meta)
    whole = a if before is None else before * a + (1 - before) * (1 - a)
    meta.update(a=whole, mechanism=spec, seed=args.seed, stream=args.stream)
    gen = seed.generator()
    with _writing(args.out if args.out else sys.stdout) as out:
        _write_rows(out, width, m, meta, (_flip(block, a, gen) for block in rows()))
    return 0


def cmd_estimate(args) -> int:
    corpus, meta = read_corpus(args.input)
    spec = _mechanism_from_args(args)
    a = effective_a(spec) if spec is not None else _header_a(meta)
    if a is None:
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
    width, m = corpus.width, corpus.m
    del corpus  # the histogram is all the rest reads
    result = estimate(hist, a)
    if args.project:
        result = project_to_simplex(result)
    with _writing(args.out if args.out else sys.stdout) as out:
        header = dict(width=width, m=m, a=a, bits=positions, projected=args.project)
        write_header(out, header)
        write_table(out, result[:, None], ["pattern", "estimate"], patterns=len(positions))
    return 0


def cmd_loss(args) -> int:
    a = effective_a(_mechanism_from_args(args))
    n = check_width(args.n, 1)
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
    n = check_width(args.n, 1)
    k = args.k if args.k is not None else n
    if k > n:
        raise ValueError(f"--k {k} exceeds --n {n}: two {n}-bit records differ in at most {n} bits")
    s = args.s if args.s is not None else 1.0 / (1 << n)
    from .privacy import a_for_epsilon, report_for_a

    a = args.a if args.epsilon is None else a_for_epsilon(args.epsilon, k)
    return _write_keyvals(args, vars(report_for_a(a, k, n, s)))


def cmd_figures(args) -> int:
    from .figures import FLAT_DIRICHLET, ExperimentConfig  # here, so no other command loads it

    config = {}
    if args.config:
        import json  # only a config file needs it

        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                config = json.load(handle)
            except ValueError as exc:  # not JSON, or not UTF-8 text
                raise CorpusFormatError(f"bad config file: {exc}") from exc
        if not isinstance(config, dict):
            raise CorpusFormatError(
                f"bad config file: expected a JSON object, got {type(config).__name__}"
            )
    flags = {key: getattr(args, key) for key in ("n", "m", "trials", "pi", "seed", "stream", "k")}
    flags["mechanism"] = _mechanism_from_args(args)
    # flags override the config file; a null value, like an absent flag, sets nothing
    given = (item for source in (config, flags) for item in source.items())
    settings = {key: value for key, value in given if value is not None}
    reads = FIGURE_DEFAULTS[args.which]
    for key in settings:
        if key not in reads:
            raise ValueError(f"figure {args.which} reads no setting {key}")
    if args.pi is not None:
        text = args.pi.strip()
        try:
            settings["pi"] = (
                text
                if text == FLAT_DIRICHLET
                else [float(t) for t in text.replace(",", " ").split()]
            )
        except ValueError:
            raise ValueError(
                f"--pi must be comma-separated numbers or {FLAT_DIRICHLET!r}, "
                f"got {args.pi!r}"
            ) from None
    if "pi" in reads and "pi" not in settings:
        # the default pi fits the default width alone: check the other settings first
        n = ExperimentConfig.from_mapping({**reads, **settings, "pi": FLAT_DIRICHLET}).n
        if n != reads["n"]:
            raise ValueError(
                f"figure {args.which}'s default pi is for n = {reads['n']}, not n = {n}: "
                f"give --pi with {1 << n} cells, or --pi {FLAT_DIRICHLET}"
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


COMMANDS = {
    "matrix": cmd_matrix,
    "randomize": cmd_randomize,
    "estimate": cmd_estimate,
    "loss": cmd_loss,
    "privacy": cmd_privacy,
    "figures": cmd_figures,
}


def run(args) -> int:
    """Run the command :func:`~bisymrr.parser.main` parsed; returns the exit code.

    A library warning prints as one ``warning:`` line on stderr, not with the
    source line that raised it; one raised as an error (``-W error``) ends the
    command like any other domain error."""
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        code = COMMANDS[args.command](args)
        # surface a closed-pipe stdout here, not in the shutdown flush where
        # it can no longer be handled
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # reader went away (e.g. piped into head); silence the shutdown flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (BisymrrError, ValueError, OverflowError, OSError, Warning) as exc:
        # an errno OverflowError carries (errno, reason): print the reason
        detail = f"numerical overflow: {exc.args[-1]}" if isinstance(exc, OverflowError) else exc
        print(f"error: {detail}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
