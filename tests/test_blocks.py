"""Whole-corpus passes in row blocks: the same bits, bytes, counts and errors
at every block size, and memory bounded per corpus bit."""

import io
import os
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bisymrr import (
    Mechanism,
    RandomSeed,
    ResponseCorpus,
    estimate,
    marginal_histogram,
    randomize,
    randomize_corpus,
    read_corpus,
    write_corpus,
)
from bisymrr import corpus_io, randomizer
from bisymrr.cli import main
from corpus_oracles import on_disk, read_corpus_lines, write_corpus_rows
from figure_oracles import format_rows_per_cell

# 53 is prime, so no block of 2 to 7 rows divides it and the last block is short.
M, WIDTH = 53, 5
BITS = np.random.default_rng(13).integers(0, 2, (M, WIDTH), dtype=np.uint8)
CORPUS = ResponseCorpus(BITS)
A, SEED = 0.7, RandomSeed(5, 2)
ROWS = range(1, 8)
DEFAULT_CELLS = randomizer.BLOCK_CELLS, corpus_io.TABLE_BLOCK_CELLS
# A written file's bytes in the writer's layout and in four others the
# reader takes, each holding the same rows.
LAYOUTS = {
    "writer": lambda raw: raw,
    "crlf": lambda raw: raw.replace(b"\n", b"\r\n"),
    "cr": lambda raw: raw.replace(b"\n", b"\r"),
    "blank-lines": lambda raw: raw.replace(b"\n", b"\n\n"),
    "spaced": lambda raw: raw.replace(b",", b" , "),
}


@pytest.fixture(params=ROWS, ids=[f"{rows}-rows" for rows in ROWS])
def rows(request, monkeypatch):
    """Blocks of 1 to 7 rows of a WIDTH-bit corpus."""
    monkeypatch.setattr(randomizer, "BLOCK_CELLS", request.param * WIDTH)
    assert next(randomizer._blocks(M, WIDTH)) == slice(0, request.param)
    return request.param


def written(corpus) -> str:
    buf = io.StringIO()
    write_corpus(buf, corpus)
    return buf.getvalue()


class TestBlockBoundaries:
    def test_read_gives_the_same_bits(self, rows, tmp_path):
        path = tmp_path / "c.csv"
        write_corpus_rows(path, CORPUS, {"a": 0.75})
        got, meta = read_corpus(path)
        assert got == CORPUS and meta["a"] == "0.75"
        assert read_corpus(io.StringIO(path.read_text()))[0] == CORPUS

    def test_randomize_matches_one_draw_and_per_record_calls(self, rows):
        got = randomize_corpus(CORPUS, A, SEED).bits
        flips = SEED.generator().random((M, WIDTH)) >= A
        assert np.array_equal(got, BITS ^ flips)
        for j in range(M):
            assert np.array_equal(got[j], randomize(BITS[j], A, SEED, index=j))

    def test_write_gives_the_same_bytes(self, rows, tmp_path):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_corpus(new, CORPUS, {"seed": 3})
        write_corpus_rows(old, CORPUS, {"seed": 3})
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("positions", [[0], [1, 3], [0, 2, 4], range(WIDTH)])
    def test_histogram_gives_the_same_counts(self, rows, positions):
        cells = BITS[:, list(positions)] @ (1 << np.arange(len(positions)))
        want = np.bincount(cells, minlength=1 << len(positions))
        assert np.array_equal(marginal_histogram(CORPUS, positions).counts, want)

    @pytest.mark.parametrize("m", [3, M, 8 * 7], ids=["below-one-block", "ragged", "whole-blocks"])
    @pytest.mark.parametrize("positions", [[3], [0, 2, 4], range(WIDTH)], ids=["k1", "k3", "k5"])
    def test_histogram_counts_what_a_counter_counts(self, rows, m, positions):
        """Counted a span of at least 2^k rows at a time: spans of one block
        (2^k at most one block's rows) and of several (2^k above it), with
        corpora shorter than a block and ending mid-block or mid-span."""
        pos = list(positions)
        tally = Counter(sum(int(bit) << t for t, bit in enumerate(row[pos])) for row in BITS[:m])
        want = [tally[cell] for cell in range(1 << len(pos))]
        assert marginal_histogram(ResponseCorpus(BITS[:m]), positions).counts.tolist() == want

    def test_estimate_output_is_the_same(self, rows, tmp_path, monkeypatch, capsys):
        path = tmp_path / "noisy.csv"
        write_corpus(path, randomize_corpus(CORPUS, A, SEED), {"a": A})
        runs = []
        # blocks of `rows` corpus rows and of `rows` two-cell table rows, then the defaults
        for block_cells, table_cells in ((rows * WIDTH, rows * 2), DEFAULT_CELLS):
            monkeypatch.setattr(randomizer, "BLOCK_CELLS", block_cells)
            monkeypatch.setattr(corpus_io, "TABLE_BLOCK_CELLS", table_cells)
            for flags in ((), ("--project",), ("--bits", "1,2,4")):
                code = main(["estimate", str(path), *flags])
                runs.append((code, *capsys.readouterr()))
        assert runs[:3] == runs[3:]
        assert all(code == 0 for code, *_ in runs)

    @pytest.mark.parametrize("row", [0, M - 1], ids=["first-block", "last-block"])
    def test_malformed_row_keeps_its_message_and_line(self, rows, tmp_path, row):
        lines = written(CORPUS).splitlines(keepends=True)
        lines[1 + row] = "0,1,2,0,1\n"
        path = tmp_path / "bad.csv"
        path.write_text("".join(lines))
        got = on_disk(read_corpus, path)
        assert got == on_disk(read_corpus_lines, path)
        assert got[0] == "CorpusFormatError" and got[2] == row + 2

    @pytest.mark.parametrize("row", [1, 4], ids=["first-chunk", "third-chunk"])
    @pytest.mark.parametrize("layout", ["writer", "crlf"])
    def test_refused_chunk_is_the_last_one_read(self, tmp_path, monkeypatch, layout, row):
        """The pass that refuses a chunk names its first fault itself: it
        reads less than one read past the refused line, and the file is not
        walked again."""
        monkeypatch.setattr(randomizer, "BLOCK_CELLS", 2 * WIDTH)  # reads of 20 bytes
        lines = written(CORPUS).splitlines(keepends=True)
        lines[1 + row] = "0,1,2,0,1\n"
        raw = LAYOUTS[layout]("".join(lines).encode())
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        passes = []
        chunks = corpus_io._chunks

        def recorded(*args):
            passes.append([])
            for chunk in chunks(*args):
                passes[-1].append(chunk)
                yield chunk

        monkeypatch.setattr(corpus_io, "_chunks", recorded)
        message = f"line {row + 2}: field 2 is '2', expected 0 or 1"
        assert on_disk(read_corpus, path) == ("CorpusFormatError", message, row + 2)
        # line 1 from the first chunk of one reader, then one pass over the body
        assert len(passes) == 2
        header, *rows = raw.splitlines(keepends=True)
        body, text = raw[len(header) :], b"".join(passes[1])
        assert all(chunk.endswith((b"\n", b"\r")) for chunk in passes[1])
        refused_end = len(b"".join(rows[: row + 1]))
        assert body.startswith(text) and refused_end <= len(text)
        assert len(text) - refused_end < 2 * randomizer.BLOCK_CELLS

    @pytest.mark.parametrize(
        "relay",
        [
            lambda text: text.replace("\n", "\r\n"),
            lambda text: text.replace("\n", "\n\n"),
            lambda text: text.replace(",", " , "),
            lambda text: (text.rsplit("\n", 2)[0] + "\n0,1\n").replace("\n", "\r\n"),
            lambda text: text.replace("\n", "\r"),
        ],
        ids=["crlf", "blank-lines", "spaced", "crlf-short-last-row", "cr"],
    )
    def test_lenient_layouts_read_as_the_line_parser_reads_them(self, rows, tmp_path, relay):
        path = tmp_path / "lenient.csv"
        path.write_bytes(relay(written(CORPUS)).encode())
        assert on_disk(read_corpus, path) == on_disk(read_corpus_lines, path)


@pytest.mark.parametrize("table_cells", [2, 6, corpus_io.TABLE_BLOCK_CELLS])
def test_estimate_table_is_the_per_cell_writers_at_every_width(
    tmp_path, monkeypatch, capsys, table_cells
):
    """The pattern column is baked into each block's template as bytes; the
    table must read as one ``_cell_labels`` string and one ``_format_value``
    per cell would write it, for marginals of 1 to 16 bits."""
    corpus = ResponseCorpus(np.random.default_rng(7).integers(0, 2, (300, 16), dtype=np.uint8))
    path = tmp_path / "c.csv"
    write_corpus(path, corpus, {"a": A})
    monkeypatch.setattr(corpus_io, "TABLE_BLOCK_CELLS", table_cells)
    for k in range(1, 17):
        assert main(["estimate", str(path), "--bits", ",".join(map(str, range(k)))]) == 0
        table = capsys.readouterr().out.split("\n", 1)[1]
        values = estimate(marginal_histogram(corpus, range(k)), A).tolist()
        rows = zip(corpus_io._cell_labels(k), values)
        assert table == format_rows_per_cell(rows, ["pattern", "estimate"]), k


def padded(where: str, length: int, end: str) -> bytes:
    """The test corpus with line 1, or the body's first line, padded to
    ``length`` bytes before its line end, and every line ended by ``end``."""
    header, first, rest = written(CORPUS).split("\n", 2)
    if where == "line-1":
        header += " pad=" + "x" * (length - len(header) - len(" pad="))
    else:  # spaces around bits are lenient
        first = " " * (length - len(first)) + first
    return "\n".join([header, first, rest]).replace("\n", end).encode()


def reads_as_the_line_parser(path, raw: bytes, reader=read_corpus) -> None:
    """``reader`` reads ``raw`` at ``path`` as :func:`read_corpus_lines` reads
    it, and so does a copy whose last ``1`` is a ``2``: a fault whose line
    number counts every line before it."""
    head, _, tail = raw.rpartition(b"1")
    for data in (raw, head + b"2" + tail):
        path.write_bytes(data)
        assert on_disk(reader, path) == on_disk(read_corpus_lines, path)
    path.write_bytes(raw)


# Each line end, with as many of its bytes before a read's last byte; a case
# in line 1 is named by its end alone.
READ_ENDS = {"lf": ("\n", 0), "cr": ("\r", 0), "crlf": ("\r\n", 0), "cr-run": ("\r\r\r", 0)}
READ_ENDS["cr-run-ending"] = ("\r\r\r", 2)
READ_CASES = {name: ("line-1", *end) for name, end in READ_ENDS.items()}
READ_CASES.update({f"body-{name}": ("body", *end) for name, end in READ_ENDS.items()})


@pytest.mark.parametrize("where, end, before", READ_CASES.values(), ids=list(READ_CASES))
def test_line_end_on_the_last_byte_of_a_read_piece(tmp_path, where, end, before):
    """Line 1 and the body are read in reads of 2·BLOCK_CELLS bytes; a line
    whose end reaches a read's last byte reads as the line parser reads it,
    a \\r\\n split across two reads included, and the lines after it are
    numbered from its whole line end."""
    path = tmp_path / "long-line.csv"
    reads_as_the_line_parser(path, padded(where, 2 * randomizer.BLOCK_CELLS - 1 - before, end))
    assert read_corpus(path)[0] == CORPUS


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("block_cells", [1, 2])
def test_reads_shorter_than_a_row(tmp_path, monkeypatch, layout, block_cells):
    """Reads of 2 or 4 bytes carry every row across several reads."""
    monkeypatch.setattr(randomizer, "BLOCK_CELLS", block_cells)
    path = tmp_path / "c.csv"
    reads_as_the_line_parser(path, LAYOUTS[layout](written(CORPUS).encode()))
    assert read_corpus(path)[0] == CORPUS


@pytest.mark.parametrize("where", ["line-1", "body"])
def test_long_line_in_short_reads(tmp_path, monkeypatch, where):
    """A 200,000-byte line read 2 bytes at a time is joined once."""
    monkeypatch.setattr(randomizer, "BLOCK_CELLS", 1)
    path = tmp_path / "long-line.csv"
    reads_as_the_line_parser(path, padded(where, 200_000, "\r\n"))
    assert read_corpus(path)[0] == CORPUS


class ForwardOnly(io.BytesIO):
    """A byte stream that keeps each read and refuses to seek back."""

    def __init__(self, data: bytes = b""):
        super().__init__(data)
        self.reads = []

    def read(self, size: int = -1) -> bytes:
        self.reads.append(super().read(size))
        return self.reads[-1]

    def seek(self, pos: int, whence: int = os.SEEK_SET) -> int:
        before = self.tell()
        after = super().seek(pos, whence)
        assert after >= before, f"seek back from byte {before} to {after}"
        return after


@pytest.mark.parametrize("layout", LAYOUTS)
def test_one_pass_reads_forward_only(tmp_path, monkeypatch, layout):
    """A pass seeks only forward: an open file is read into a byte stream,
    here one that refuses to seek back, and reads as the line parser reads
    its bytes on disk."""
    monkeypatch.setattr(randomizer, "BLOCK_CELLS", 3)  # reads of 6 bytes
    monkeypatch.setattr(io, "BytesIO", ForwardOnly)

    def opened(path):
        return read_corpus(ForwardOnly(path.read_bytes()))

    reads_as_the_line_parser(tmp_path / "c.csv", LAYOUTS[layout](written(CORPUS).encode()), opened)


def test_a_read_that_ends_a_line_is_the_chunk(monkeypatch):
    """A read that ends a line, with nothing carried into it, is yielded as
    the same bytes object: no copy of it is made."""
    monkeypatch.setattr(randomizer, "BLOCK_CELLS", 2 * WIDTH)  # reads of 2 rows
    src = ForwardOnly(written(CORPUS).split("\n", 1)[1].encode())
    chunks = list(corpus_io._chunks(src))
    assert len(chunks) == len(src.reads) - 1 == (M + 1) // 2  # the last read is empty
    assert all(chunk is read for chunk, read in zip(chunks, src.reads))


def test_a_cr_on_a_reads_last_byte_ends_its_chunk_at_the_next_read(monkeypatch):
    """A \\r on a read's last byte is seen whole once the next read begins,
    so a CR-only body whose every read ends on its \\r is still cut a read
    at a time, not carried to its end."""
    monkeypatch.setattr(randomizer, "BLOCK_CELLS", WIDTH)  # reads of one row
    body = written(CORPUS).split("\n", 1)[1].replace("\n", "\r").encode()
    chunks = list(corpus_io._chunks(ForwardOnly(body)))
    assert b"".join(chunks) == body and set(map(len, chunks)) == {2 * WIDTH}


class TestStreamedRandomize:
    """``randomize`` checks every block of its input, then decodes, flips and
    writes one block at a time: the bytes of the whole-corpus path, and
    nothing written for a malformed input."""

    @pytest.fixture
    def truth(self, tmp_path):
        path = tmp_path / "truth.csv"
        write_corpus(path, CORPUS, {"source": "test"})
        return path

    @pytest.fixture
    def want(self, tmp_path):
        """What the whole-corpus path writes, from one batched draw."""
        path = tmp_path / "want.csv"
        noisy = ResponseCorpus(BITS ^ (SEED.generator().random((M, WIDTH)) >= A))
        meta = {"source": "test", "a": A, "mechanism": Mechanism("direct", (A,)), "seed": 5, "stream": 2}
        write_corpus_rows(path, noisy, meta)
        return path.read_bytes()

    @staticmethod
    def randomize(source, *out):
        flags = ["--a", str(A), "--seed", str(SEED.seed), "--stream", str(SEED.stream)]
        return main(["randomize", str(source), *flags, *(["--out", str(*out)] if out else [])])

    def test_output_is_the_same_at_every_block_size(self, rows, truth, want, tmp_path):
        got = tmp_path / "got.csv"
        assert self.randomize(truth, got) == 0
        assert got.read_bytes() == want

    def test_in_place_output_is_the_output_to_another_file(self, rows, truth, want, tmp_path):
        for name, relay in LAYOUTS.items():
            source, other = tmp_path / f"{name}.csv", tmp_path / f"{name}-other.csv"
            source.write_bytes(relay(truth.read_bytes()))
            assert self.randomize(source, other) == 0
            assert self.randomize(source, source) == 0
            assert source.read_bytes() == other.read_bytes() == want, name

    @pytest.mark.parametrize("to", ["out-file", "stdout", "in-place"])
    def test_malformed_last_row_writes_nothing(self, rows, truth, tmp_path, capsys, to):
        lines = truth.read_text().splitlines(keepends=True)
        lines[-1] = "0,1,2,0,1\n"
        truth.write_text("".join(lines))
        out = tmp_path / "out.csv"
        out.write_text("kept\n")
        before = {path: path.read_bytes() for path in (truth, out)}
        assert self.randomize(truth, *{"out-file": [out], "stdout": [], "in-place": [truth]}[to]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and f"line {M + 1}" in captured.err
        assert {path: path.read_bytes() for path in before} == before

    def test_crlf_input_gives_the_same_bytes(self, rows, truth, want, tmp_path):
        crlf, got = tmp_path / "crlf.csv", tmp_path / "got.csv"
        crlf.write_bytes(truth.read_bytes().replace(b"\n", b"\r\n"))
        assert self.randomize(crlf, got) == 0
        assert got.read_bytes() == want

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_input_gives_the_same_bytes(self, rows, truth, want, tmp_path):
        for name in ("writer", "crlf"):
            fifo, got = tmp_path / f"{name}.fifo", tmp_path / f"{name}.csv"
            os.mkfifo(fifo)
            data = LAYOUTS[name](truth.read_bytes())
            feeder = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
            feeder.start()
            assert self.randomize(fifo, got) == 0
            feeder.join(timeout=10)
            assert not feeder.is_alive()
            assert got.read_bytes() == want, name


# Peak traced bytes per corpus bit of each pass on a 200,000 x 16 corpus.  A
# pass that held a whole-corpus float, int64 or text array would need at least
# 8, 8 or 2 bytes per bit on top of its input and output.
BIG_M, BIG_WIDTH = 200_000, 16
BYTES_PER_BIT = 4


def peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_per_bit(fn, *args) -> float:
    return peak_bytes(fn, *args) / (BIG_M * BIG_WIDTH)


def big_corpus(m: int) -> ResponseCorpus:
    return ResponseCorpus(np.random.default_rng(41).integers(0, 2, (m, BIG_WIDTH), dtype=np.uint8))


def test_passes_hold_at_most_four_bytes_per_corpus_bit(tmp_path):
    corpus = big_corpus(BIG_M)
    path = tmp_path / "big.csv"
    peaks = {"write": peak_per_bit(write_corpus, path, corpus, {"a": 0.75})}
    peaks["read"] = peak_per_bit(read_corpus, path)
    peaks["randomize"] = peak_per_bit(randomize_corpus, corpus, 0.75, RandomSeed(41))
    peaks["histogram"] = peak_per_bit(marginal_histogram, corpus, range(BIG_WIDTH))
    assert read_corpus(path)[0] == corpus
    for name, relay in LAYOUTS.items():
        if name != "writer":  # a file in another layout is read a chunk at a time too
            relaid = tmp_path / f"{name}.csv"
            relaid.write_bytes(relay(path.read_bytes()))
            peaks[f"read-{name}"] = peak_per_bit(read_corpus, relaid)
            assert read_corpus(relaid)[0] == corpus, name
    assert max(peaks.values()) <= BYTES_PER_BIT, peaks


def test_read_holds_the_corpus_and_little_more(tmp_path):
    """A file in the writer's layout is decoded from one read buffer into the
    corpus array, so no copy of the file's bytes is held."""
    path = tmp_path / "big.csv"
    write_corpus(path, big_corpus(BIG_M))
    assert peak_per_bit(read_corpus, path) <= 1.25


def test_randomize_command_holds_one_block_whatever_the_corpus_size(tmp_path):
    """File to file, ``randomize`` holds neither its input nor its output,
    whatever the input's layout."""
    for name, relay in LAYOUTS.items():
        peaks = {}
        for m in (BIG_M, 2 * BIG_M):
            path, out = tmp_path / f"{m}.csv", tmp_path / "out.csv"
            write_corpus(path, big_corpus(m))
            path.write_bytes(relay(path.read_bytes()))
            args = ["randomize", str(path), "--a", "0.75", "--seed", "41", "--out", str(out)]
            peaks[m] = peak_bytes(main, args)
        assert peaks[BIG_M] / (BIG_M * BIG_WIDTH) <= 0.5, (name, peaks)
        assert peaks[2 * BIG_M] <= 1.2 * peaks[BIG_M], (name, peaks)


def test_malformed_last_row_is_named_a_chunk_at_a_time(tmp_path, capsys):
    """The error walk of a refused file holds one chunk of its text, not the
    whole of it: a read holds the corpus array and little more, and
    ``randomize``, which holds no corpus, one block."""
    path = tmp_path / "bad.csv"
    write_corpus(path, big_corpus(BIG_M))
    with open(path, "r+b") as f:  # the last row's last bit becomes a 2
        f.seek(-2, os.SEEK_END)
        f.write(b"2")
    assert on_disk(read_corpus, path) == on_disk(read_corpus_lines, path)
    assert on_disk(read_corpus, path)[2] == BIG_M + 1
    assert peak_per_bit(on_disk, read_corpus, path) <= 2
    args = ["randomize", str(path), "--a", "0.75", "--out", str(tmp_path / "out.csv")]
    assert peak_per_bit(main, args) <= 0.5
    message = f"error: line {BIG_M + 1}: field 15 is '2', expected 0 or 1\n"
    assert capsys.readouterr().err == message
