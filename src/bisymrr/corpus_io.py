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
ending in ``0`` and a newline, and the reader, :func:`_rows`, reads the body
forward only, ``2·BLOCK_CELLS`` bytes at a time, cuts each chunk after its
last whole line end, carries the rest into the next chunk, and subtracts the
template from each chunk in that layout.  Any other chunk (CRLF or CR-only
endings, blank lines, spaces around bits) has its lines laid out again as the
writer lays them out and is checked the same way, so a file in any layout is
held one chunk at a time, and :func:`_rows` is the only code that walks a
corpus body.  It counts lines as it goes, so the first chunk it refuses names
the file's first fault and its line number, and the pass reads no further; a
byte that is not UTF-8 is such a fault.
A regular file is read from disk on every pass; a pipe or an open file is
read once, into memory, and so is the input of a ``randomize`` whose
``--out`` is that input, which opening the output would empty.  A header
claiming a huge ``m`` or ``width`` is refused before anything is allocated,
since the body must be long enough to hold its rows.

This module is the only one that turns values into text.  Every ``#
key=value`` line (corpora, estimates, figure datasets) comes from
:func:`write_header`, every header field and report value from
:func:`_format_value`, and every other CSV (estimates, figure datasets,
matrices and key,value reports) from :func:`write_table`, which formats
column-uniform rows of ``str``, ``int`` and ``float`` cells in blocks of about
:data:`TABLE_BLOCK_CELLS` cells with one ``%`` template per table, byte for
byte as :func:`_format_value` renders each cell.  The bit pattern labelling
each cell of a marginal comes from :func:`_cell_digits`: as a ``str`` from
:func:`_cell_labels`, or as bytes baked into a table's template.
"""

from __future__ import annotations

import io
import os
import stat
from contextlib import nullcontext
from functools import partial
from itertools import chain, islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import randomizer
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

    The array is filled block by block from :func:`_corpus_source`, so a file
    on disk is read one chunk at a time whatever its layout; every
    malformation is reported with its 1-based line number.
    """
    meta, width, m, rows = _corpus_source(f)
    bits = np.empty((m, width), dtype=np.uint8)
    start = 0
    for block in rows():
        bits[start : start + len(block)] = block
        start += len(block)
    return ResponseCorpus(bits), meta


def _corpus_source(f):
    """A corpus file as a block source: its raw header mapping, width, m, and
    a function returning one pass of :func:`_rows` over its body.

    A regular file is opened again on each pass; a pipe or an open file is
    read once, into memory.  Line 1, the header, comes off the first chunk
    of :func:`_chunks`, and its length in bytes is the body's offset.  A bad
    header, or a body too short to hold m rows (so a header claiming a huge
    m or width allocates nothing), raises here.
    """
    if hasattr(f, "read"):
        data = f.read()
        opener = partial(io.BytesIO, data.encode("utf-8") if isinstance(data, str) else data)
    else:
        with open(f, "rb") as src:
            regular = stat.S_ISREG(os.fstat(src.fileno()).st_mode)
            opener = partial(open, f, "rb") if regular else partial(io.BytesIO, src.read())
    with opener() as src:
        # line 1 ends by the chunk's first \n; a \r, \x85, \x0c, ... may end it earlier
        head, newline, _ = next(_chunks(src), b"").partition(b"\n")
        size = src.seek(0, os.SEEK_END)
    line = "".join(_text(head + newline).splitlines(keepends=True)[:1])
    meta, width, m = _parse_header(line)
    offset = len(line.encode("utf-8", "surrogateescape"))
    rows = partial(_rows, opener, offset, width, m)
    if size - offset < _body_size(width, m) - 1:  # m rows, the last without its newline
        for _ in rows():  # raises the body's first fault
            pass
    return meta, width, m, rows


def _body_size(width: int, m: int) -> int:
    """Bytes in ``m`` rows of ``width`` bits as the writer lays them out."""
    return m * 2 * width


def _text(raw: bytes) -> str:
    """UTF-8 bytes as text, each byte that is not UTF-8 as its escape in
    U+DC80-U+DCFF (``"surrogateescape"``), which :func:`_not_utf8` finds."""
    return raw.decode("utf-8", "surrogateescape")


def _not_utf8(line: str) -> bool:
    """Whether a line of :func:`_text` holds an escaped byte; a loop, as a
    regular expression's class of these characters compiles to a 64 KiB
    table, some 130 kB at peak, in every process that reads a corpus."""
    return not line.isascii() and any("\udc80" <= c <= "\udcff" for c in line)


def _rows(opener, offset: int, width: int, m: int):
    """One pass over the body from byte ``offset``: its m rows as 0/1 blocks
    of about :data:`~bisymrr.randomizer.BLOCK_CELLS` cells.

    This is the only code that walks a corpus body, and so the only code that
    turns row bytes into bits.  Each read is ``2·BLOCK_CELLS`` bytes, whatever
    the width, so no read is sized by the header, and :func:`_chunks` ends
    each chunk at a line end, carrying an unfinished line into the next.  A
    chunk in the writer's layout is decoded straight from its bytes; any
    other is split into lines, laid out again by :func:`_relaid` and checked
    the same way.  No UTF-8 character straddles the line end that ends a
    chunk, so a chunk's lines are the file's own, and counting them numbers
    every line.  A chunk that still fails raises its first fault
    (:func:`_row_error`), so the pass reads no further; a body that ends
    short raises at its end.
    """
    seen = 0
    line = 1  # the header
    with opener() as src:
        src.seek(offset)
        for chunk in _chunks(src):
            block = _check_rows(chunk, width, m - seen)
            if block is None:
                lines = _text(chunk).splitlines()
                block = _check_rows(_relaid(lines), width, m - seen)
                if block is None:
                    raise _row_error(lines, width, m, seen, line + 1)
                line += len(lines)
            else:
                line += len(block)
            seen += len(block)
            yield block
    if seen < m:
        raise CorpusFormatError(f"header declared m={m} but found {seen} data rows", line=line + 1)


def _chunks(src):
    """A binary stream from its position to its end, in reads of
    ``2·BLOCK_CELLS`` bytes, each chunk cut after the last line end its bytes
    show whole (a \\n, or a \\r with a byte after it, so a \\r\\n pair is
    kept whole) and the rest carried into the next; every chunk but the last
    ends a line.  A read that ends a line with nothing carried into it is
    yielded as it is, and a line longer than one read is joined once."""
    carried = []
    while read := src.read(_body_size(1, randomizer.BLOCK_CELLS)):
        # after the last \n, or after a later \r that a byte of this read follows
        end = read.rfind(b"\n") + 1
        end = max(end, read.rfind(b"\r", end, -1) + 1)
        if end or (carried and carried[-1].endswith(b"\r")):  # a carried \r is whole now
            yield b"".join([*carried, read[:end]])
            carried = []
        if end < len(read):
            carried.append(read[end:])
    if carried:
        yield b"".join(carried)


def _parse_header(line: str) -> tuple[dict[str, str], int, int]:
    """The ``# width=.. m=..`` line: raw key/value mapping, width and m."""
    if _not_utf8(line):
        raise CorpusFormatError("header is not UTF-8 text", line=1)
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


def _check_rows(chunk: bytes, width: int, room: int) -> np.ndarray | None:
    """The rows of a buffer laid out exactly as the writer lays them out, as
    0/1 values; None for any other layout or for more than ``room`` rows.

    Subtracting the template maps each valid byte pair to 0 or 1 and any wrong
    digit, separator, line end or non-ASCII byte to a larger value, so one
    comparison checks them all."""
    rows, rest = divmod(len(chunk), _body_size(width, 1))
    if rest or rows > room:
        return None
    if not rows:  # blank lines only: no template, which a header's width alone sizes
        return np.empty((0, width), dtype=np.uint8)
    block = np.frombuffer(chunk, dtype="<u2").reshape(rows, width) - _row_template(width)
    return block if block.max() <= 1 else None


def _relaid(lines: list[str]) -> bytes:
    """Lines of a body laid out as the writer lays rows out: each line's
    whitespace taken out (a field is then 0 or 1 exactly when it is so
    stripped), blank lines dropped, non-ASCII characters as ``?``, so no row
    holding one, or an escaped byte that is not UTF-8, passes."""
    rows = ("".join(line.split()) for line in lines)
    return "".join(row + "\n" for row in rows if row).encode("ascii", "replace")


def _row_error(lines: list[str], width: int, m: int, seen: int, line_no: int) -> CorpusFormatError:
    """The first fault among the lines of a chunk that :func:`_rows` refused,
    line ``line_no`` the first of them and ``seen`` data rows before them:
    in each line, in turn, a byte that is not UTF-8, a row past the m-th, the
    field count and the field values.  A refused chunk always holds one."""
    for line_no, raw in enumerate(lines, start=line_no):
        if _not_utf8(raw):
            return CorpusFormatError("row is not UTF-8 text", line=line_no)
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


def write_matrix(f, matrix: np.ndarray) -> None:
    """Row-major CSV, 17 significant digits per entry."""
    with _writing(f) as out:
        write_table(out, np.atleast_2d(np.asarray(matrix, dtype=np.float64)))


def _cell_digits(n: int, cells: slice = slice(None)) -> np.ndarray:
    """The bit pattern of each of the 2^n cells of a marginal (or of a slice
    of them), lowest bit first, as one row of ASCII ``0``/``1`` codes each."""
    # each index's four little-endian bytes, unpacked lowest bit first
    index = np.arange(*cells.indices(1 << n), dtype="<u4").view(np.uint8).reshape(-1, 4)
    digits = np.unpackbits(index, axis=1, count=n, bitorder="little")
    digits += ord("0")
    return digits


def _cell_labels(n: int) -> list[str]:
    """Bit pattern of each of the 2^n cells, lowest bit first."""
    if n == 0:
        return [""]
    return _cell_digits(n).view(f"S{n}").ravel().astype(str).tolist()


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


def write_table(
    out,
    rows: Iterable[Sequence] | np.ndarray,
    columns: Sequence[str] | None = None,
    patterns: int | None = None,
) -> None:
    """Write ``rows`` as CSV lines after an optional line of column names.

    Every cell is a ``str``, an ``int`` or a ``float``, and every row has the
    first row's length and cell types, which fix one ``%`` template for the
    table; each block of about :data:`TABLE_BLOCK_CELLS` cells is formatted by
    one ``%`` call, byte for byte as :func:`_format_value` renders each cell.
    A row that breaks this is a caller's error and raises TypeError (blocks
    before it are already written).  ``rows`` is consumed one block at a time;
    a 2-D float64 array is turned into cells a block at a time.

    With ``patterns`` set to n, each row is led by one more cell, the label
    :func:`_cell_labels` gives the row's index in a 2^n-cell marginal.  Each
    block's labels are made by numpy as ASCII bytes and baked into its
    template, so only the other cells go through ``%``.
    """
    if columns is not None:
        out.write(",".join(columns) + "\n")
    label = [] if patterns is None else [""]  # the label column, baked in a block at a time
    if isinstance(rows, np.ndarray):
        kinds = [float] * rows.shape[1]
        slices = _blocks(len(rows), len(label) + len(kinds), TABLE_BLOCK_CELLS)
        blocks = ((len(rows[b]), rows[b].ravel().tolist()) for b in slices)
    else:
        rows = iter(rows)
        first = next(rows, None)
        if first is None:
            return
        kinds = list(map(type, first))
        if not set(kinds) <= _CONVERSIONS.keys():
            raise TypeError(f"table cells must be str, int or float, got {kinds}")
        per_block = max(1, TABLE_BLOCK_CELLS // max(len(label) + len(kinds), 1))
        blocks = _row_blocks(chain([first], rows), kinds, per_block)
    template = ",".join(label + [_CONVERSIONS[kind] for kind in kinds]) + "\n"
    start = 0
    for count, cells in blocks:
        if patterns is None:
            text = template * count
        else:
            text = _labelled(template, patterns, slice(start, start + count))
        start += count
        out.write(text % tuple(cells))


def _row_blocks(rows, kinds: list[type], per_block: int):
    """Blocks of ``per_block`` rows as (row count, their cells in one list),
    each checked to hold only rows of the cell types ``kinds``."""
    while block := list(islice(rows, per_block)):
        cells = list(chain.from_iterable(block))
        if set(map(len, block)) != {len(kinds)} or list(map(type, cells)) != kinds * len(block):
            raise TypeError(f"every table row must have the first row's cell types {kinds}")
        yield len(block), cells


def _labelled(template: str, n: int, cells: slice) -> str:
    """``template`` once for each of a slice of the 2^n cells of a marginal,
    each time led by the cell's label, built as one array of ASCII codes."""
    digits = _cell_digits(n, cells)
    tail = np.frombuffer(template.encode("ascii"), dtype=np.uint8)
    text = np.hstack([digits, np.broadcast_to(tail, (len(digits), tail.size))])
    return text.tobytes().decode("ascii")


def read_vector(f) -> np.ndarray:
    """Parse a flat list of numbers (commas and/or whitespace, '#' comments);
    a byte that is not UTF-8 is a parse error like a bad number."""
    try:
        with _reading(f) as src:
            text = src.read()
        lines = (line.split("#", 1)[0] for line in text.splitlines())
        values = [float(t) for line in lines for t in line.replace(",", " ").split()]
    except ValueError as exc:  # UnicodeDecodeError among them
        raise CorpusFormatError(f"bad number: {exc}") from exc
    if not values:
        raise CorpusFormatError("no numbers found")
    return np.array(values, dtype=np.float64)
