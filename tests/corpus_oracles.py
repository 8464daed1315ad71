"""Line-at-a-time corpus reader and writer, for cross-checks only.

These are the package's original pure-Python corpus routines: the writer
joins each row with ``","`` and the reader splits the file into lines and
checks every field.  The package now decodes and encodes rows a block at a
time with numpy, whatever the file's layout; tests hold it to the same bytes,
the same corpora and the same ``CorpusFormatError`` messages and line numbers
as these.  A path is read as bytes, and the first line holding a byte that is
not UTF-8 is refused as not UTF-8 text, in file order with every other fault.
"""

import re
from pathlib import Path
from typing import Mapping

import numpy as np

from bisymrr import CorpusFormatError, ResponseCorpus
from bisymrr.corpus_io import _format_value, _writing

NOT_UTF8 = re.compile("[\udc80-\udcff]")


def write_corpus_rows(f, corpus: ResponseCorpus, meta: Mapping[str, object] | None = None) -> None:
    fields = {"width": corpus.width, "m": corpus.m}
    for key, value in (meta or {}).items():
        if key in ("width", "m"):
            continue
        fields[key] = value
    header = " ".join(f"{k}={_format_value(v)}" for k, v in fields.items())
    with _writing(f) as out:
        out.write(f"# {header}\n")
        for row in corpus.bits:
            out.write(",".join(str(int(b)) for b in row) + "\n")


def read_corpus_lines(f) -> tuple[ResponseCorpus, dict[str, str]]:
    # a path's bytes that are not UTF-8 decode to escapes in U+DC80-U+DCFF,
    # and the first line holding one is a parse error in its own right
    if hasattr(f, "read"):
        text = f.read()
    else:
        text = Path(f).read_bytes().decode("utf-8", "surrogateescape")
    lines = text.splitlines()
    if lines and NOT_UTF8.search(lines[0]):
        raise CorpusFormatError("header is not UTF-8 text", line=1)
    if not lines or not lines[0].lstrip().startswith("#"):
        raise CorpusFormatError("missing '# width=... m=...' header", line=1)
    meta: dict[str, str] = {}
    for token in lines[0].lstrip()[1:].split():
        key, sep, value = token.partition("=")
        if not sep:
            raise CorpusFormatError(f"header token {token!r} is not key=value", line=1)
        if key in meta:
            raise CorpusFormatError(f"header repeats key {key!r}", line=1)
        meta[key] = value
    try:
        width = int(meta["width"])
        m = int(meta["m"])
    except KeyError as exc:
        raise CorpusFormatError(f"header lacks required key {exc}", line=1) from exc
    except ValueError as exc:
        raise CorpusFormatError(f"bad header integer: {exc}", line=1) from exc
    if width < 1:
        raise CorpusFormatError(f"width must be positive, got {width}", line=1)
    if m < 0:
        raise CorpusFormatError(f"record count must be non-negative, got {m}", line=1)

    rows = np.zeros((m, width), dtype=np.uint8)
    seen = 0
    for line_no, raw in enumerate(lines[1:], start=2):
        if NOT_UTF8.search(raw):
            raise CorpusFormatError("row is not UTF-8 text", line=line_no)
        text = raw.strip()
        if not text:
            continue
        if seen >= m:
            raise CorpusFormatError(
                f"more data rows than the declared m={m}", line=line_no
            )
        parts = text.split(",")
        if len(parts) != width:
            raise CorpusFormatError(
                f"expected {width} comma-separated bits, got {len(parts)}",
                line=line_no,
            )
        for j, part in enumerate(parts):
            bit = part.strip()
            if bit == "0":
                continue
            if bit == "1":
                rows[seen, j] = 1
            else:
                raise CorpusFormatError(
                    f"field {j} is {part!r}, expected 0 or 1", line=line_no
                )
        seen += 1
    if seen != m:
        raise CorpusFormatError(
            f"header declared m={m} but found {seen} data rows",
            line=len(lines) + 1,
        )
    return ResponseCorpus(rows), meta


def on_disk(reader, path):
    """What a reader makes of a file on disk: the corpus and header, or the
    error with its message and line number."""
    try:
        corpus, meta = reader(path)
    except CorpusFormatError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None))
    return ("ok", corpus.bits.shape, corpus.bits.tobytes(), meta)
