"""Generated command lines for all six subcommands, run through ``cli.main``.

Whatever the arguments, main must return one of the documented exit codes
without letting an exception escape, explain every failure on stderr with an
``error:`` line, and never print a NaN or infinity on success.  Sizes are
capped (width <= 6, m <= 50, trials <= 2) so no example allocates more than a
few MB.
"""

import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisymrr import RandomSeed, ResponseCorpus, randomize_corpus, write_corpus
from bisymrr.cli import main

FLOATS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.5", "1", "1.5", "1e308"]),
    st.floats(0.01, 0.99).map(repr),
)
WIDTHS = st.integers(-2, 6)
MECHANISMS = st.sampled_from(
    [
        "direct:0.75",
        "warner:0.3",
        "unrelated:0.5",
        "rappor1:0.25",
        "rappor:f=0.5,q=0.75",
        "direct:nan",
        "warner:0.5",
        "unrelated:1",
        "rappor:f=2,q=0.5",
        "bogus:1",
        "direct:",
        "direct:a=0.7,a=0.8",
        "warner:p=0.7,q=0.3",
        "rappor:f=0.5",
        "rappor:f=0.5,q=0.7,p=0.3",
        "rappor:f=0.5,q=0.75,p=0.3",
    ]
)
BITS = st.sampled_from(["0", "2", "0,1", "1,0", "0,1,2", "5", "-1", "0.5"])
PIS = st.sampled_from(["dirichlet-flat", "0.5,0.5", "nan,1", "x"])
NON_FINITE = re.compile(r"(?<![\w.])[-+]?(nan|inf)(?![\w])", re.IGNORECASE)


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def command(*parts):
    return st.tuples(*parts).map(lambda groups: [a for g in groups for a in g])


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """A plain 3-bit corpus, its randomized copy (header a=0.75), a corpus
    with a bad row, and a pi file."""
    root = tmp_path_factory.mktemp("fuzz")
    bits = (np.arange(12)[:, None] >> np.arange(3)) & 1
    plain = ResponseCorpus(bits.astype(np.uint8))
    write_corpus(root / "plain.csv", plain)
    noisy = randomize_corpus(plain, 0.75, RandomSeed(1))
    write_corpus(root / "noisy.csv", noisy, {"a": 0.75})
    (root / "bad.csv").write_text("# width=2 m=1\n0,2\n")
    (root / "pi.txt").write_text("0.1 0.2 0.3 0.4\n")
    return {p.name: str(p) for p in root.iterdir()}


def argv_strategy(files):
    corpus = st.sampled_from(
        [files["plain.csv"], files["noisy.csv"], files["bad.csv"]]
    ).map(lambda f: [f])
    mech = optional("--a", FLOATS), optional("--mechanism", MECHANISMS)
    return st.one_of(
        command(
            st.just(["matrix"]),
            st.tuples(FLOATS, (WIDTHS | st.just(13)).map(str)).map(list),
            st.sampled_from([[], ["--inverse"]]),
        ),
        command(
            st.just(["randomize"]),
            corpus,
            *mech,
            optional("--seed", st.integers(-2, 5)),
            optional("--stream", st.integers(-2, 5)),
        ),
        command(
            st.just(["estimate"]),
            corpus,
            *mech,
            optional("--bits", BITS),
            st.sampled_from([[], ["--project"]]),
        ),
        command(
            st.just(["loss"]),
            *mech,
            WIDTHS.map(lambda n: ["--n", str(n)]),
            optional("--s", FLOATS),
            optional("--pi", st.just(files["pi.txt"])),
        ),
        command(
            st.just(["privacy"]),
            optional("--a", FLOATS),
            optional("--epsilon", FLOATS),
            optional("--k", st.integers(-2, 6)),
            WIDTHS.map(lambda n: ["--n", str(n)]),
            optional("--s", FLOATS),
        ),
        command(
            st.just(["figures"]),
            st.sampled_from(["1a", "1b", "1c", "2a", "2b"]).map(lambda w: [w]),
            *mech,
            optional("--n", WIDTHS),
            optional("--m", st.integers(-2, 50)),
            optional("--trials", st.integers(-1, 2)),
            optional("--k", st.integers(-2, 6)),
            optional("--seed", st.integers(-2, 5)),
            optional("--stream", st.integers(-2, 5)),
            optional("--pi", PIS),
        ),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_main_contract(corpora, data):
    argv = data.draw(argv_strategy(corpora), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in {0, 2, 3, 4, 5}
    if code:
        assert "error:" in err.getvalue()
    else:
        assert not NON_FINITE.search(out.getvalue()), out.getvalue()
