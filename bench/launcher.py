"""Run one bisymrr CLI call with timing wrappers on its layer functions.

Usage: python launcher.py SPANS_OUT OP_ID SPAWN_T -- CLI_ARGS...

The wrappers replace, from outside, the names that ``bisymrr.cli``,
``bisymrr.estimator`` and ``bisymrr.figures`` import, plus the validation
hook of ``ResponseCorpus``; no source file changes.  Each call records a span
(name, start, end, parent span, op id, computed counts).  Spans stay in memory
and are written as JSON when the call ends.  SPAWN_T is the parent's
``time.monotonic()`` just before it started this process (a system-wide clock
on Linux), so ``process.import_s`` covers interpreter start and imports.
"""

import functools
import importlib
import json
import os
import sys
import time

# (module, attribute, span name, counts(args, result) -> dict)
WRAPPED = [
    ("bisymrr.cli", "read_corpus", "corpus_io.read_corpus",
     lambda args, r: {"bytes": os.path.getsize(args[0]), "records": r[0].m}),
    ("bisymrr.cli", "write_corpus", "corpus_io.write_corpus",
     lambda args, r: {"bytes": args[1].m * 2 * args[1].width, "records": args[1].m}),
    ("bisymrr.cli", "randomize_corpus", "randomizer.randomize_corpus",
     lambda args, r: {"uniforms": args[0].m * args[0].width}),
    ("bisymrr.cli", "marginal_histogram", "estimator.marginal_histogram",
     lambda args, r: {"records": args[0].m, "cells": r.counts.size}),
    ("bisymrr.cli", "estimate", "estimator.estimate", lambda args, r: {"cells": r.size}),
    ("bisymrr.figures", "estimate", "estimator.estimate", lambda args, r: {"cells": r.size}),
    ("bisymrr.cli", "project_to_simplex", "estimator.project_to_simplex",
     lambda args, r: {"cells": r.size}),
    ("bisymrr.cli", "build_figure", "figures.build_figure", None),
    ("bisymrr.estimator", "materialize", "channel.materialize", lambda args, r: {"entries": r.size}),
    ("bisymrr.figures", "materialize", "channel.materialize", lambda args, r: {"entries": r.size}),
    ("bisymrr.estimator", "_inverse_kernel_pass", "estimator.kernel_pass",
     lambda args, r: {"ops": args[2] * r.size}),
]


class Tracer:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            start = time.monotonic()
            extra = {}
            try:
                result = fn(*args, **kwargs)
                if counts:
                    extra = counts(args, result)
                return result
            finally:
                end = time.monotonic()
                self.stack.pop()
                self.spans[index] = [name, start, end, parent, self.op_id, extra]
        return timed

    def install(self):
        """Wrap every listed name the program still has; a name a later version
        drops simply reports no spans."""
        for module_name, attr, name, counts in WRAPPED:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(name, getattr(module, attr), counts))
        corpus = getattr(importlib.import_module("bisymrr.randomizer"), "ResponseCorpus", None)
        if hasattr(corpus, "__post_init__"):
            corpus.__post_init__ = self.wrap("randomizer.ResponseCorpus", corpus.__post_init__)


def main() -> int:
    spans_out, op_id, spawn_t, dashes, *argv = sys.argv[1:]
    if dashes != "--":
        raise SystemExit("usage: launcher.py SPANS_OUT OP_ID SPAWN_T -- CLI_ARGS...")
    tracer = Tracer(op_id)
    try:
        tracer.install()
        import bisymrr.cli as cli

        entered = time.monotonic()
        tracer.spans.append(["process.import", float(spawn_t), entered, -1, op_id, {}])
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as out:
            json.dump([s for s in tracer.spans if s is not None], out)


if __name__ == "__main__":
    sys.exit(main())
