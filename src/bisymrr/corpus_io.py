"""Flat-file formats: corpora and matrices as CSV, auditable by eye.

A corpus file is one metadata header line and one comma-separated row of bits
per record::

    # width=2 m=3 a=0.75 seed=42
    0,1
    1,1
    0,1

``width`` and ``m`` are mandatory and checked against the data, no key may
appear twice, and other header keys ride along untouched, which lets the
randomize command record the channel parameter and seed next to the data they
produced.  Numbers are always written with 17 significant digits so
parse(emit(x)) recovers every float bit-exactly.

Every data row of a corpus is ``2·width`` bytes, so both directions run as
numpy passes over blocks of about :data:`~bisymrr.randomizer.BLOCK_CELLS`
cells: the writer adds each block of bits to a row template of ``0,`` pairs
ending in ``0`` and a newline, and the reader reads a regular file laid out
exactly that way one block at a time and subtracts the template from each, so
it never holds the file's bytes.  That decoder is the only code that turns row
text into bits.  A pipe or an open file is read whole and
decoded by the same pass.  A body the pass refuses (CRLF endings, blank lines,
spaces around bits, or a real malformation) is read whole as text, laid out
again as the writer lays it out and decoded by the same pass; only if that
fails too is it walked line by line, to name the first error and its line
number.  A header claiming a huge ``m`` or ``width`` is refused before
anything is allocated, since the body's length must match it.

This module is the only one that turns values into text.  Every ``#
key=value`` line (corpora, estimates, figure datasets) comes from
:func:`write_header`, every header field and report value from
:func:`_format_value`, and every other CSV (estimates, figure datasets,
matrices and key,value reports) from :func:`write_table`, which formats
column-uniform rows of ``str``, ``int`` and ``float`` cells in blocks of about
:data:`TABLE_BLOCK_CELLS` cells with one ``%`` template per table, byte for
byte as :func:`_format_value` renders each cell.
"""

from __future__ import annotations

import os
import stat
from contextlib import nullcontext, suppress
from functools import partial
from itertools import chain, islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CorpusFormatError
from .randomizer import ResponseCorpus, _blocks
from .surveys import Mechanism, _spec_text


def format_float(x: float) -> str:
    """17 significant digits: the shortest form guaranteed to round-trip."""
    return f"{x:.17g}"


def _reading(f):
    """Accept an open file or a path; close only what we opened."""
    if hasattr(f, "read"):
        return nullcontext(f)
    return open(f, "r", encoding="utf-8")


def _writing(f):
    if hasattr(f, "write"):
        return nullcontext(f)
    return open(f, "w", encoding="utf-8")


def mechanism_text(spec: Mechanism) -> str:
    """``name:value``, or ``name:key=value,...`` for several fields, as
    :func:`~bisymrr.surveys.parse_mechanism` reads it back."""
    return _spec_text(spec.name, [format_float(x) for x in spec.params])


def _format_value(value) -> str:
    """A header value or report cell: booleans as 0/1, floats at 17 digits,
    arrays and lists comma-joined, mechanism specs by :func:`mechanism_text`."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, range, np.ndarray)):
        return ",".join(map(_format_value, value))
    if isinstance(value, Mechanism):
        return mechanism_text(value)
    return str(value)


def write_header(out, fields: Mapping[str, object]) -> None:
    """The ``# key=value ...`` line heading a corpus, an estimate or a figure."""
    out.write("# " + " ".join(f"{k}={_format_value(v)}" for k, v in fields.items()) + "\n")


def write_corpus(f, corpus: ResponseCorpus, meta: Mapping[str, object] | None = None) -> None:
    """Write a corpus with its header; extra metadata keys follow width and m."""
    blocks = (corpus.bits[b] for b in _blocks(corpus.m, corpus.width))
    with _writing(f) as out:
        _write_rows(out, corpus.width, corpus.m, meta, blocks)


def _write_rows(out, width: int, m: int, meta: Mapping[str, object] | None, blocks) -> None:
    """The header, then each block of 0/1 rows added to the row template: the
    only code that turns bits into row text."""
    fields = {"width": width, "m": m}
    for key, value in (meta or {}).items():
        fields.setdefault(key, value)
    write_header(out, fields)
    if m:  # no template for an empty corpus, whatever its width
        template = _row_template(width)
        for bits in blocks:
            out.write((template + bits).astype("<u2", copy=False).tobytes().decode("ascii"))


def read_corpus(f) -> tuple[ResponseCorpus, dict[str, str]]:
    """Parse a corpus file; returns the corpus and the raw header mapping.

    The array is filled block by block from :func:`_corpus_source`, so a
    regular file in the writer's layout is never held as bytes; every
    malformation is reported with its 1-based line number.
    """
    meta, width, m, rows = _corpus_source(f)
    bits = np.empty((m, width), dtype=np.uint8)
    for b, block in zip(_blocks(m, width), rows(), strict=True):
        bits[b] = block
    return ResponseCorpus(bits), meta


def _corpus_source(f):
    """A corpus file as a block source: its raw header mapping, width, m, and
    a function returning one pass over its rows in the blocks of
    :func:`~bisymrr.randomizer._blocks`, each a 0/1 array checked as it is
    decoded.

    A regular file whose body has the length its header implies is decoded
    from read buffers on every pass.  Anything else (a pipe, an open file, a
    lenient layout, a malformation) is decoded whole and at once by
    :func:`_decode_whole`, which raises any error here.
    """
    if hasattr(f, "read"):
        meta, bits = _decode_whole(f.read())
    else:
        with open(f, "rb") as src:
            status = os.fstat(src.fileno())
            if stat.S_ISREG(status.st_mode):
                line = src.readline()
                header = _writer_header(line)
                if header is not None and status.st_size - len(line) == _body_size(*header[1:]):
                    return (*header, partial(_stream_rows, f, len(line), *header[1:]))
                src.seek(0)
            meta, bits = _decode_whole(src.read())
    m, width = bits.shape
    return meta, width, m, lambda: (bits[b] for b in _blocks(m, width))


def _body_size(width: int, m: int) -> int:
    """Bytes in ``m`` rows of ``width`` bits as the writer lays them out."""
    return m * 2 * width


def _writer_header(line: bytes) -> tuple[dict[str, str], int, int] | None:
    """Line 1, up to and with its newline, as a header; None if it is not one
    line or not a valid header, which the whole-text pass then reports after
    any decoding error elsewhere in the file.  A line 1 that fails to decode
    fails as the whole file would."""
    first = line.decode("utf-8").splitlines()
    if len(first) == 1:  # not so when the file is empty or \r, \f, ... split line 1
        with suppress(CorpusFormatError):
            return _parse_header(first[0])
    return None


def _stream_rows(path, offset: int, width: int, m: int):
    """One pass over the body of a file in the writer's layout, read one block
    at a time.  A block in any other layout hands the rest of the pass to
    :func:`_decode_whole`, which decodes the same leading rows."""
    if not m:  # before the template, which a header's width alone sizes
        return
    template, rows = _row_template(width), range(m)
    with open(path, "rb") as src:
        src.seek(offset)
        for b in _blocks(m, width):
            size = _body_size(width, len(rows[b]))
            chunk = src.read(size)
            block = _check_rows(chunk, template) if len(chunk) == size else None
            if block is None:
                src.seek(0)
                _, bits = _decode_whole(src.read())
                yield from (bits[c] for c in _blocks(m, width) if c.start >= b.start)
                return
            yield block


def _decode_whole(data: bytes | str) -> tuple[dict[str, str], np.ndarray]:
    """The header mapping and bits of a whole file's bytes (or an open text
    file's text); raises the first error with its line number."""
    if isinstance(data, str):  # an open text file
        data = data.encode("utf-8")
    end = data.find(b"\n") + 1 or len(data)
    if (header := _writer_header(data[:end])) is not None:
        meta, width, m = header
        if (bits := _decode_rows(memoryview(data)[end:], width, m)) is not None:
            return meta, bits
    text = data.decode("utf-8")
    del data  # hold the text alone, not the file's bytes beside it
    lines = text.splitlines()
    meta, width, m = _parse_header(lines[0] if lines else "")
    # the same rows as the writer lays them out: blank lines dropped, fields stripped
    rows = (",".join(map(str.strip, line.split(","))) + "\n" for line in lines[1:] if line.strip())
    bits = _decode_rows("".join(rows).encode("ascii", "replace"), width, m)
    if bits is None:
        raise _row_error(lines, width, m)
    return meta, bits


def _parse_header(line: str) -> tuple[dict[str, str], int, int]:
    """The ``# width=.. m=..`` line: raw key/value mapping, width and m."""
    if not line.lstrip().startswith("#"):
        raise CorpusFormatError("missing '# width=... m=...' header", line=1)
    meta: dict[str, str] = {}
    for token in line.lstrip()[1:].split():
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
    return meta, width, m


def _row_template(width: int) -> np.ndarray:
    """An all-zero data row as little-endian byte pairs: ``0,`` for each bit
    but the last, ``0`` and a newline for the last.  Adding a row of bits to
    it gives the row's text; a valid row minus it gives back the bits."""
    template = np.full(width, ord(",") << 8 | ord("0"), dtype="<u2")
    template[-1] = ord("\n") << 8 | ord("0")
    return template


def _check_rows(chunk, template: np.ndarray) -> np.ndarray | None:
    """The rows of a buffer laid out exactly as the writer lays them out, as
    0/1 values; None for any other layout.

    Subtracting the template maps each valid byte pair to 0 or 1 and any wrong
    digit, separator, line end or non-ASCII byte to a larger value, so one
    comparison checks them all."""
    block = np.frombuffer(chunk, dtype="<u2").reshape(-1, template.size) - template
    return block if block.max() <= 1 else None


def _decode_rows(body, width: int, m: int) -> np.ndarray | None:
    """The rows of an in-memory body in the writer's layout, decoded a block
    at a time into one array; None for any other body."""
    if len(body) != _body_size(width, m):
        return None
    bits = np.empty((m, width), dtype=np.uint8)
    if m:  # before the template, which a header's width alone sizes
        template = _row_template(width)
        for b in _blocks(m, width):
            block = _check_rows(body[_body_size(width, b.start) : _body_size(width, b.stop)], template)
            if block is None:
                return None
            bits[b] = block
    return bits


def _row_error(lines: list[str], width: int, m: int) -> CorpusFormatError:
    """The first malformation among the data rows after the header, with its
    line number; called only on a body that :func:`_decode_rows` refused even
    in the writer's layout, so there always is one."""
    seen = 0
    for line_no, raw in enumerate(lines[1:], start=2):
        if not (text := raw.strip()):
            continue
        if seen == m:
            return CorpusFormatError(f"more data rows than the declared m={m}", line=line_no)
        parts = text.split(",")
        if len(parts) != width:
            return CorpusFormatError(
                f"expected {width} comma-separated bits, got {len(parts)}", line=line_no
            )
        for j, part in enumerate(parts):
            if part.strip() not in ("0", "1"):
                return CorpusFormatError(f"field {j} is {part!r}, expected 0 or 1", line=line_no)
        seen += 1
    return CorpusFormatError(
        f"header declared m={m} but found {seen} data rows", line=len(lines) + 1
    )


def write_matrix(f, matrix: np.ndarray) -> None:
    """Row-major CSV, 17 significant digits per entry."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    with _writing(f) as out:
        write_table(out, (row.tolist() for row in matrix))


# Cells formatted by one % call: enough to amortize the call, few enough that
# a block's text (some 20 bytes a cell) stays well below the 128 KiB at which
# the C allocator switches to mmap; 4096-cell blocks raised the peak RSS of a
# 300 x 259 figure by 0.6 MB, 2048-cell blocks by nothing measurable.
TABLE_BLOCK_CELLS = 2048


class _Conversion:
    """Formats as ``%`` and the spec it is given: ``format_float(_Conversion())``
    reads the one float format off :func:`format_float` for table templates."""

    def __format__(self, spec: str) -> str:
        return "%" + spec


# The % conversion of each type a table cell may have; subclasses such as
# bool and np.float64 are not among them.
_CONVERSIONS = {str: "%s", int: "%d", float: format_float(_Conversion())}


def write_table(out, rows: Iterable[Sequence], columns: Sequence[str] | None = None) -> None:
    """Write ``rows`` as CSV lines after an optional line of column names.

    Every cell is a ``str``, an ``int`` or a ``float``, and every row has the
    first row's length and cell types, which fix one ``%`` template for the
    table; each block of about :data:`TABLE_BLOCK_CELLS` cells is formatted by
    one ``%`` call, byte for byte as :func:`_format_value` renders each cell.
    A row that breaks this is a caller's error and raises TypeError (blocks
    before it are already written).  ``rows`` is consumed one block at a time.
    """
    if columns is not None:
        out.write(",".join(columns) + "\n")
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return
    kinds = list(map(type, first))
    if not set(kinds) <= _CONVERSIONS.keys():
        raise TypeError(f"table cells must be str, int or float, got {kinds}")
    template = ",".join(_CONVERSIONS[kind] for kind in kinds) + "\n"
    per_block = max(1, TABLE_BLOCK_CELLS // max(len(kinds), 1))
    rows = chain([first], rows)
    while block := list(islice(rows, per_block)):
        cells = list(chain.from_iterable(block))
        if set(map(len, block)) != {len(kinds)} or list(map(type, cells)) != kinds * len(block):
            raise TypeError(f"every table row must have the first row's cell types {kinds}")
        out.write(template * len(block) % tuple(cells))


def read_vector(f) -> np.ndarray:
    """Parse a flat list of numbers (commas and/or whitespace, '#' comments)."""
    with _reading(f) as src:
        text = src.read()
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.replace(",", " ").split())
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise CorpusFormatError(f"bad number: {exc}") from exc
    if not values:
        raise CorpusFormatError("no numbers found")
    return np.array(values, dtype=np.float64)
