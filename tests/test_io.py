import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisymrr import (
    CorpusFormatError,
    ResponseCorpus,
    corpus_io,
    format_float,
    materialize,
    randomizer,
    read_corpus,
    read_vector,
    write_corpus,
    write_matrix,
)
from bisymrr.corpus_io import _format_value, write_header, write_table
from bisymrr.surveys import Mechanism
from corpus_oracles import on_disk, read_corpus_lines, write_corpus_rows
from figure_oracles import format_rows_per_cell

CORPUS = ResponseCorpus(np.array([[0, 1, 1], [1, 0, 0], [1, 1, 1], [0, 0, 0]], dtype=np.uint8))


def roundtrip(corpus, **meta):
    buf = io.StringIO()
    write_corpus(buf, corpus, meta or None)
    buf.seek(0)
    return read_corpus(buf)


class TestCorpusRoundtrip:
    def test_bits_survive(self):
        got, _ = roundtrip(CORPUS)
        assert got == CORPUS

    def test_meta_survives(self):
        _, meta = roundtrip(CORPUS, a=0.75, mechanism="warner:0.7", seed=9)
        assert meta["a"] == "0.75"
        assert meta["mechanism"] == "warner:0.7"
        assert meta["seed"] == "9"

    def test_header_counts(self):
        buf = io.StringIO()
        write_corpus(buf, CORPUS)
        header = buf.getvalue().splitlines()[0]
        assert header.startswith("# width=3 m=4")

    def test_empty_corpus(self):
        got, _ = roundtrip(ResponseCorpus(np.zeros((0, 2), dtype=np.uint8)))
        assert got.m == 0 and got.width == 2

    def test_empty_corpus_of_huge_width_builds_no_row_template(self, monkeypatch, tmp_path):
        def no_allocation(*args):
            raise AssertionError("row template built for an empty corpus")

        monkeypatch.setattr(corpus_io, "_row_template", no_allocation)
        wide = ResponseCorpus(np.zeros((0, 10**11), dtype=np.uint8))
        buf = io.StringIO()
        write_corpus(buf, wide)
        assert buf.getvalue() == "# width=100000000000 m=0\n"
        got, _ = read_corpus(io.StringIO(buf.getvalue()))
        assert got.bits.shape == (0, 10**11)
        # blank lines after the header: a read sized by the width alone would not fit in memory
        path = tmp_path / "wide.csv"
        for body in ("\n", "\r\n\n"):
            path.write_bytes((buf.getvalue() + body).encode())
            for source in (path, io.StringIO(buf.getvalue() + body)):
                got, _ = read_corpus(source)
                assert got.bits.shape == (0, 10**11)

    def test_zero_width_corpus_with_rows_is_refused_before_any_byte(self):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="at least one bit"):
            write_corpus(buf, ResponseCorpus(np.zeros((3, 0), dtype=np.uint8)))
        assert buf.getvalue() == ""

    def test_file_paths(self, tmp_path):
        path = tmp_path / "corpus.csv"
        write_corpus(path, CORPUS, {"seed": 1})
        got, meta = read_corpus(path)
        assert got == CORPUS and meta["seed"] == "1"


class TestCorpusErrors:
    def parse(self, text):
        return read_corpus(io.StringIO(text))

    def test_missing_header(self):
        with pytest.raises(CorpusFormatError, match="line 1"):
            self.parse("0,1\n1,0\n")

    def test_header_missing_width(self):
        with pytest.raises(CorpusFormatError, match="width"):
            self.parse("# m=2\n0,1\n1,0\n")

    def test_width_not_integer(self):
        with pytest.raises(CorpusFormatError, match="header"):
            self.parse("# width=two m=1\n0,1\n")

    def test_row_width_mismatch(self):
        with pytest.raises(CorpusFormatError, match="line 3"):
            self.parse("# width=2 m=2\n0,1\n0,1,1\n")

    def test_non_bit_field(self):
        with pytest.raises(CorpusFormatError, match="expected 0 or 1"):
            self.parse("# width=2 m=1\n0,2\n")

    def test_non_bit_field_line_number(self):
        with pytest.raises(CorpusFormatError, match="line 3"):
            self.parse("# width=1 m=2\n0\nx\n")

    def test_row_count_mismatch(self):
        with pytest.raises(CorpusFormatError, match="m=3"):
            self.parse("# width=1 m=3\n0\n1\n")

    def test_extra_rows(self):
        with pytest.raises(CorpusFormatError):
            self.parse("# width=1 m=1\n0\n1\n")

    def test_empty_stream(self):
        with pytest.raises(CorpusFormatError):
            self.parse("")

    def test_repeated_header_key(self):
        with pytest.raises(CorpusFormatError, match="line 1: header repeats key 'm'"):
            self.parse("# width=2 m=2 m=3\n0,1\n1,0\n")


def corpora(max_m: int = 60, max_width: int = 20):
    return st.builds(
        lambda m, width, seed: ResponseCorpus(
            np.random.default_rng(seed).integers(0, 2, (m, width), dtype=np.uint8)
        ),
        st.integers(0, max_m),
        st.integers(1, max_width),
        st.integers(0, 2**32 - 1),
    )


# Header tokens are split on whitespace and the line ends at any line break,
# so keys and values may hold any character but those (and keys no '=').
_TOKEN_CHARS = st.characters(blacklist_categories=("Z", "C"))
extra_meta = st.dictionaries(
    st.text(_TOKEN_CHARS, min_size=1, max_size=6).filter(
        lambda k: "=" not in k and k not in ("width", "m")
    ),
    st.text(_TOKEN_CHARS, max_size=6)
    | st.integers()
    | st.floats(allow_nan=False)
    | st.booleans(),
    max_size=4,
)


def written(corpus, meta=None, writer=write_corpus) -> str:
    buf = io.StringIO()
    writer(buf, corpus, meta)
    return buf.getvalue()


def outcome(reader, text: str):
    """What a reader makes of a file: the corpus and header, or the error
    message and line number."""
    try:
        corpus, meta = reader(io.StringIO(text))
    except CorpusFormatError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", corpus.bits.shape, corpus.bits.tobytes(), meta)


# One two-row corpus in each layout the reader accepts besides the writer's.
LENIENT = [
    "# width=3 m=2\r\n0,1,1\r\n1,0,0\r\n",
    "# width=3 m=2\n\n0,1,1\n\n1,0,0\n",
    "# width=3 m=2\n0,1,1\n1,0,0\n\n\n",
    "# width=3 m=2\n 0 , 1,1 \n1,\t0,0\n",
    "# width=3 m=2\n0,1,1\n1,0,0",
    "# width=3 m=2\r0,1,1\r1,0,0\r",
]
LENIENT_IDS = ["crlf", "blank-lines", "trailing-blank-lines", "spaces", "no-final-newline", "cr"]


class TestVectorizedCorpusIO:
    @given(corpus=corpora(), meta=extra_meta)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, corpus, meta):
        got, header = read_corpus(io.StringIO(written(corpus, meta)))
        assert got == corpus
        expected = {"width": str(corpus.width), "m": str(corpus.m)}
        expected.update({k: _format_value(v) for k, v in meta.items()})
        assert header == expected

    @given(corpus=corpora(), meta=extra_meta)
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_row_join_writer(self, corpus, meta):
        assert written(corpus, meta) == written(corpus, meta, write_corpus_rows)

    def test_file_bytes_match_row_join_writer(self, tmp_path):
        corpus = ResponseCorpus(np.random.default_rng(4).integers(0, 2, (300, 7)))
        write_corpus(tmp_path / "new.csv", corpus, {"a": 0.75, "seed": 3})
        write_corpus_rows(tmp_path / "old.csv", corpus, {"a": 0.75, "seed": 3})
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @given(corpus=corpora(max_m=8, max_width=6), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_one_byte_mutation_matches_line_parser(self, corpus, data):
        text = written(corpus, {"a": 0.75})
        op = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        i = data.draw(st.integers(0, len(text) - (op != "insert")))
        # \x1c and \x85 end a line for str.splitlines, \xa0 is str.strip whitespace
        char = data.draw(st.sampled_from("01,\n\r \t2x#=-\x0c\u2028\xe9\x1c\x85\xa0"))
        if op == "replace":
            text = text[:i] + char + text[i + 1:]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + char + text[i:]
        assert outcome(read_corpus, text) == outcome(read_corpus_lines, text)

    @given(corpus=corpora(max_m=8, max_width=6), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_file_with_a_byte_mutation_reads_as_a_text_mode_line_parser(
        self, tmp_path_factory, corpus, data
    ):
        # a path is read as bytes, yet must read, and fail, as the line parser
        # reads its text (universal newlines, the first line holding a byte
        # that is not UTF-8 refused in file order)
        raw = written(corpus, {"a": 0.75}).encode()
        if data.draw(st.booleans()):  # rows longer than the writer's: chunks end inside rows
            raw = raw.replace(b"\n", b"\r\n")
        op = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        i = data.draw(st.integers(0, len(raw) - (op != "insert")))
        piece = data.draw(st.sampled_from(
            [b"0", b"1", b",", b"\n", b"\r", b"\r\n", b" ", b"\x0c", b"\xff", b"\xc3",
             b"\xc3\xa9", b"\xc2\x85", b"\xe2\x80\xa8", b"\xed\xa0\x80"]
        ))
        raw = raw[:i] + piece * (op != "delete") + raw[i + (op != "insert"):]
        path = tmp_path_factory.mktemp("mutated") / "c.csv"
        path.write_bytes(raw)
        # blocks of 1 to 8 rows, so that a file is read in several chunks
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(randomizer, "BLOCK_CELLS", data.draw(st.integers(1, 8)) * corpus.width)
            assert on_disk(read_corpus, path) == on_disk(read_corpus_lines, path)

    @pytest.mark.parametrize(
        "raw",
        [
            b"# width=2 m=1 note=\xc3\n0,1\n",
            b"# width=2 m=1 note=\xc3\xa9\n0,1\n",
            b"# width=2 m=1\n0,\xff\n",
            b"# width=2 m=1\n0,\xc3\xa9\n",
            b"0,1\n\xff\n",
            b"# width=2 m=1 m=1\n0,1\n\xc3\n",
            b"# width=2 m=1\r0,1\n",
            b"# width=2 m=1\xc2\x850,1\n",
            b"\xef\xbb\xbf# width=2 m=1\n0,1\n",
        ],
        ids=["truncated-char-ends-header", "header-char", "undecodable-row", "non-ascii-row",
             "no-header-then-undecodable", "bad-header-then-undecodable", "cr-ends-header",
             "nel-ends-header", "bom"],
    )
    def test_file_reads_as_a_text_mode_line_parser(self, tmp_path, raw):
        path = tmp_path / "c.csv"
        path.write_bytes(raw)
        assert on_disk(read_corpus, path) == on_disk(read_corpus_lines, path)

    @pytest.mark.parametrize("text", LENIENT, ids=LENIENT_IDS)
    def test_lenient_forms_parse_to_the_same_corpus(self, text):
        got, _ = read_corpus(io.StringIO(text))
        assert got == ResponseCorpus(np.array([[0, 1, 1], [1, 0, 0]]))
        assert outcome(read_corpus, text) == outcome(read_corpus_lines, text)

    def test_line_parser_keeps_the_width_of_an_empty_corpus(self):
        got, _ = read_corpus(io.StringIO("# width=5 m=0\n\n"))
        assert got.bits.shape == (0, 5)

    def test_crlf_file_on_disk(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"# width=2 m=2\r\n0,1\r\n1,1\r\n")
        got, _ = read_corpus(path)
        assert got == ResponseCorpus(np.array([[0, 1], [1, 1]]))

    def test_well_formed_file_skips_the_line_parser(self, monkeypatch):
        # the line walk only names errors: no file that reads runs it
        def refuse(*args):
            raise AssertionError("error walk ran on a readable file")

        monkeypatch.setattr(corpus_io, "_row_error", refuse)
        got, meta = read_corpus(io.StringIO(written(CORPUS, {"note": "\xe9t\xe9"})))
        assert got == CORPUS and meta["note"] == "\xe9t\xe9"
        for text in LENIENT:
            got, _ = read_corpus(io.StringIO(text))
            assert got == ResponseCorpus(np.array([[0, 1, 1], [1, 0, 0]]))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("# width=2 m=2\n0,1\n1;1\n", 3),
            ("# width=2 m=2\n0,1\n1,1,\n", 3),
            ("# width=2 m=1\n0,1\n1,1\n", 3),
            ("# width=2 m=3\n0,1\n1,1\n", 4),
        ],
    )
    def test_malformed_body_keeps_its_line_number(self, text, line):
        with pytest.raises(CorpusFormatError) as info:
            read_corpus(io.StringIO(text))
        assert info.value.line == line
        assert outcome(read_corpus, text) == outcome(read_corpus_lines, text)


class TestMatrix:
    def test_roundtrip_bit_exact(self, tmp_path):
        mat = materialize(0.7354421, 4)
        path = tmp_path / "mat.csv"
        write_matrix(path, mat)
        got = np.loadtxt(path, delimiter=",", ndmin=2)
        assert got.shape == mat.shape
        assert (got == mat).all()

    def test_stream_roundtrip(self):
        mat = materialize(0.9, 2)
        buf = io.StringIO()
        write_matrix(buf, mat)
        buf.seek(0)
        assert (np.loadtxt(buf, delimiter=",", ndmin=2) == mat).all()

    def test_bytes_match_per_cell_writer(self):
        mat = materialize(0.7354421, 5)
        buf = io.StringIO()
        write_matrix(buf, mat)
        assert buf.getvalue() == format_rows_per_cell(mat.tolist())


# One strategy per cell type a table may hold; the ints reach past 1e17,
# where %.17g would stop being exact, and the floats include nan, ±inf, -0.0.
CELLS = {
    "int": st.integers(-(10**20), 10**20) | st.sampled_from([10**17, -(10**17), 2**63]),
    "float": st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")]),
    "str": st.text(max_size=4),
}


class Percent(float):
    """A float subclass that formats itself: %.17g would bypass this."""

    def __format__(self, spec):
        return f"{float(self) * 100:g}%"


@st.composite
def tables(draw):
    """Rows of one length whose columns each keep one cell type."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), max_size=5))
    row = st.tuples(*(CELLS[kind] for kind in kinds)).map(list)
    return draw(st.lists(row, max_size=40))


class TestWriteTable:
    @given(rows=tables(), block_cells=st.integers(1, 12), columns=st.none() | st.just(["x", "y"]))
    @settings(max_examples=400, deadline=None)
    def test_matches_per_cell_format_value(self, rows, block_cells, columns):
        buf = io.StringIO()
        with mock.patch.object(corpus_io, "TABLE_BLOCK_CELLS", block_cells):
            write_table(buf, iter(rows), columns)
        assert buf.getvalue() == format_rows_per_cell(rows, columns)

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2049])
    def test_row_counts_around_the_real_block_size(self, extra):
        per_block = corpus_io.TABLE_BLOCK_CELLS // 2
        values = np.random.default_rng(extra + 2).standard_normal(per_block + extra)
        rows = [[f"r{i}", v] for i, v in enumerate(values.tolist())]
        rows[-1][1] = True  # the last block no longer matches the first row
        buf = io.StringIO()
        with pytest.raises(TypeError, match="cell types"):
            write_table(buf, rows, ["pattern", "estimate"])
        # every block before the one holding the bad row is written whole
        written_rows = (len(rows) - 1) // per_block * per_block
        assert buf.getvalue() == format_rows_per_cell(rows[:written_rows], ["pattern", "estimate"])

    @pytest.mark.parametrize(
        "rows, text",
        [
            ([[True], [1.5]], "1\n1.5\n"),
            ([[1.5], [True]], "1.5\n1\n"),
            ([[False, 2], [0.25, 3]], "0,2\n0.25,3\n"),
            ([[10**17], [1.0]], "100000000000000000\n1\n"),
            ([[1.0], [10**17 + 1]], "1\n100000000000000001\n"),
            ([[np.bool_(True)], [np.float32(0.5)]], "True\n0.5\n"),
            ([["a", "b"], ["c"], ["d", "e", "f"]], "a,b\nc\nd,e,f\n"),
            ([[Percent(0.25), 1.0]], "25%,1\n"),
        ],
    )
    def test_rows_the_template_cannot_take_go_cell_by_cell(self, rows, text):
        """Bools, mixed or ragged columns and float subclasses are a caller's
        error; such values are rendered one by one with ``_format_value``, as
        the key,value reports render theirs before they reach the table."""
        with pytest.raises(TypeError):
            write_table(io.StringIO(), rows)
        assert format_rows_per_cell(rows) == text

    def test_empty_table_writes_only_the_column_names(self):
        buf = io.StringIO()
        write_table(buf, [], ["a", "b"])
        assert buf.getvalue() == "a,b\n"


def shift_table_digits(n: int, cells: slice) -> np.ndarray:
    """Each cell's bits, lowest first, as ASCII codes: one int64 shift per bit."""
    index = np.arange(*cells.indices(1 << n))
    return (index[:, None] >> np.arange(n) & 1).astype(np.uint8) + ord("0")


@pytest.mark.parametrize("n", [1, 8, 16, 24])
def test_cell_digits_match_the_shift_table(n):
    last = 1 << n
    slices = [slice(0, min(last, 1000)), slice(max(last - 1000, 0), last), slice(last - 1, last),
              slice(last // 2 - 3, last // 2 + 3)]
    if n <= 16:
        slices.append(slice(None))
    for cells in slices:
        got = corpus_io._cell_digits(n, cells)
        want = shift_table_digits(n, cells)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want), (n, cells)
    assert corpus_io._cell_digits(n, slice(last - 1, last)).tobytes() == b"1" * n


class TestFormatValue:
    @pytest.mark.parametrize(
        "value, text",
        [
            (True, "1"),
            (0.1, "0.10000000000000001"),
            (np.float64(0.25), "0.25"),
            (7, "7"),
            ("dirichlet-flat", "dirichlet-flat"),
            (np.array([0.1, 0.9]), "0.10000000000000001,0.90000000000000002"),
            (range(3), "0,1,2"),
            (Mechanism("warner", (0.7,)), "warner:0.69999999999999996"),
            (Mechanism("rappor", (0.5, 0.75)), "rappor:f=0.5,q=0.75"),
        ],
    )
    def test_renders(self, value, text):
        assert _format_value(value) == text

    def test_header_line(self):
        buf = io.StringIO()
        write_header(buf, {"figure": "1a", "pi": [0.5, 0.5], "projected": False})
        assert buf.getvalue() == "# figure=1a pi=0.5,0.5 projected=0\n"


class TestReadVector:
    def test_commas(self):
        assert np.array_equal(read_vector(io.StringIO("0.1, 0.2,0.7\n")), [0.1, 0.2, 0.7])

    def test_whitespace_and_newlines(self):
        assert np.array_equal(read_vector(io.StringIO("1 2\n3\n")), [1.0, 2.0, 3.0])

    def test_comments_skipped(self):
        got = read_vector(io.StringIO("# a distribution\n0.5,0.5\n"))
        assert np.array_equal(got, [0.5, 0.5])


class TestFormatFloat:
    @given(
        x=st.floats(allow_nan=False, allow_infinity=False, width=64)
    )
    @settings(max_examples=300, deadline=None)
    def test_reparses_exactly(self, x):
        assert float(format_float(x)) == x

    def test_compact_for_simple_values(self):
        assert format_float(0.75) == "0.75"
        assert format_float(8.0) == "8"
