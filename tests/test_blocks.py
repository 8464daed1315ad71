"""Whole-corpus passes in row blocks: the same bits, bytes, counts and errors
at every block size, and memory bounded per corpus bit."""

import io
import tracemalloc

import numpy as np
import pytest

from bisymrr import (
    RandomSeed,
    ResponseCorpus,
    marginal_histogram,
    randomize,
    randomize_corpus,
    read_corpus,
    write_corpus,
)
from bisymrr import cli, corpus_io, randomizer
from bisymrr.cli import main
from corpus_oracles import on_disk, read_corpus_lines, write_corpus_rows

# 53 is prime, so no block of 2 to 7 rows divides it and the last block is short.
M, WIDTH = 53, 5
BITS = np.random.default_rng(13).integers(0, 2, (M, WIDTH), dtype=np.uint8)
CORPUS = ResponseCorpus(BITS)
A, SEED = 0.7, RandomSeed(5, 2)
ROWS = range(1, 8)
DEFAULT_CELLS = randomizer.BLOCK_CELLS, corpus_io.TABLE_BLOCK_CELLS


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

    def test_estimate_output_is_the_same(self, rows, tmp_path, monkeypatch, capsys):
        path = tmp_path / "noisy.csv"
        write_corpus(path, randomize_corpus(CORPUS, A, SEED), {"a": A})
        runs = []
        # blocks of `rows` corpus rows and of `rows` two-cell table rows, then the defaults
        for block_cells, table_cells in ((rows * WIDTH, rows * 2), DEFAULT_CELLS):
            monkeypatch.setattr(randomizer, "BLOCK_CELLS", block_cells)
            monkeypatch.setattr(corpus_io, "TABLE_BLOCK_CELLS", table_cells)
            monkeypatch.setattr(cli, "TABLE_BLOCK_CELLS", table_cells)
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

    @pytest.mark.parametrize(
        "relay",
        [
            lambda text: text.replace("\n", "\r\n"),
            lambda text: text.replace("\n", "\n\n"),
            lambda text: text.replace(",", " , "),
            lambda text: (text.rsplit("\n", 2)[0] + "\n0,1\n").replace("\n", "\r\n"),
        ],
        ids=["crlf", "blank-lines", "spaced", "crlf-short-last-row"],
    )
    def test_lenient_layouts_read_as_the_line_parser_reads_them(self, rows, tmp_path, relay):
        path = tmp_path / "lenient.csv"
        path.write_bytes(relay(written(CORPUS)).encode())
        assert on_disk(read_corpus, path) == on_disk(read_corpus_lines, path)


# Peak traced bytes per corpus bit of each pass on a 200,000 x 16 corpus.  A
# pass that held a whole-corpus float, int64 or text array would need at least
# 8, 8 or 2 bytes per bit on top of its input and output.
BIG_M, BIG_WIDTH = 200_000, 16
BYTES_PER_BIT = 4


def peak_per_bit(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / (BIG_M * BIG_WIDTH)
    finally:
        tracemalloc.stop()


def test_passes_hold_at_most_four_bytes_per_corpus_bit(tmp_path):
    corpus = ResponseCorpus(
        np.random.default_rng(41).integers(0, 2, (BIG_M, BIG_WIDTH), dtype=np.uint8)
    )
    path = tmp_path / "big.csv"
    peaks = {"write": peak_per_bit(write_corpus, path, corpus, {"a": 0.75})}
    peaks["read"] = peak_per_bit(read_corpus, path)
    peaks["randomize"] = peak_per_bit(randomize_corpus, corpus, 0.75, RandomSeed(41))
    peaks["histogram"] = peak_per_bit(marginal_histogram, corpus, range(BIG_WIDTH))
    assert read_corpus(path)[0] == corpus
    assert max(peaks.values()) <= BYTES_PER_BIT, peaks
