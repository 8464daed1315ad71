import copy
import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from bisymrr import (
    Mechanism,
    RandomSeed,
    ResponseCorpus,
    effective_a,
    entry_at,
    materialize,
    parse_mechanism,
    randomize,
    randomize_corpus,
    read_corpus,
    write_corpus,
)
from bisymrr import randomizer
from bisymrr.parser import main
from bisymrr.randomizer import _flip
from dense_oracles import unrelated_channel_entry
from twostage import simulate


class TestEffectiveA:
    def test_direct_is_identity(self):
        assert effective_a(Mechanism("direct", (0.62,))) == 0.62

    def test_warner_is_identity(self):
        assert effective_a(Mechanism("warner", (0.7,))) == 0.7

    def test_unrelated_uniform(self):
        assert effective_a(Mechanism("unrelated", (0.5,))) == 0.75

    def test_rappor_one_time(self):
        assert effective_a(Mechanism("rappor1", (0.5,))) == 0.75

    def test_rappor_full(self):
        assert effective_a(Mechanism("rappor", (0.5, 0.75))) == 0.625

    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_unrelated_never_below_half(self, p):
        assert 0.5 <= effective_a(Mechanism("unrelated", (p,))) <= 1.0

    def test_parameters_validated(self):
        with pytest.raises(ValueError, match=r"^a must lie in \[0, 1\], got 1.2$"):
            Mechanism("direct", (1.2,))
        with pytest.raises(ValueError, match=r"^p must lie"):
            Mechanism("warner", (-0.1,))
        with pytest.raises(ValueError, match=r"^q must lie"):
            Mechanism("rappor", (0.5, float("nan")))

    @pytest.mark.parametrize(
        "name,params,match",
        [
            ("bogus", (0.5,), "unknown mechanism 'bogus'"),
            ("Direct", (0.5,), "unknown mechanism 'Direct'"),
            ("direct", (), r"'direct' takes 1 parameter\(s\) \(a\), got 0"),
            ("rappor", (0.5,), r"'rappor' takes 2 parameter\(s\) \(f, q\), got 1"),
        ],
    )
    def test_name_and_parameter_count_validated(self, name, params, match):
        with pytest.raises(ValueError, match=match):
            Mechanism(name, params)

    def test_params_stored_as_float_tuple(self):
        spec = Mechanism("rappor", [1, np.float64(0.75)])
        assert spec == Mechanism("rappor", (1.0, 0.75))
        assert type(spec.params) is tuple
        assert all(type(x) is float for x in spec.params)

    def test_spec_is_an_immutable_hashable_record(self):
        spec = Mechanism("direct", (0.7,))
        with pytest.raises(AttributeError):
            spec.name = "warner"
        assert hash(spec) == hash(Mechanism("direct", [np.float64(0.7)]))
        assert repr(spec) == "Mechanism(name='direct', params=(0.7,))"

    # copy and pickle rebuild a spec from its fields; tuple.__new__ alone can
    # build one that skips the checks, to show that they run again
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Mechanism("direct", (0.7,))._replace(params=(1.2,)),
            lambda: Mechanism._make(["direct", (1.2,)]),
            lambda: copy.copy(tuple.__new__(Mechanism, ("direct", (1.2,)))),
            lambda: pickle.loads(pickle.dumps(tuple.__new__(Mechanism, ("direct", (1.2,))))),
        ],
        ids=["replace", "make", "copy", "pickle"],
    )
    def test_every_way_to_build_a_spec_checks_it(self, build):
        with pytest.raises(ValueError, match=r"^a must lie in \[0, 1\], got 1.2$"):
            build()

    def test_rappor_full_accepts_matching_p(self):
        assert parse_mechanism("rappor:f=0.5,q=0.75,p=0.25") == Mechanism("rappor", (0.5, 0.75))

    def test_rappor_full_rejects_asymmetric_p(self):
        with pytest.raises(ValueError, match="symmetric"):
            parse_mechanism("rappor:f=0.5,q=0.75,p=0.3")

    def test_rappor_full_accepts_p_one_rounding_off(self):
        # 1 - 0.7 is 0.30000000000000004 in binary floating point
        spec = parse_mechanism("rappor:f=0.5,q=0.7,p=0.3")
        assert effective_a(spec) == effective_a(Mechanism("rappor", (0.5, 0.7)))

    @pytest.mark.parametrize("p", [float("nan"), 0.25 + 1e-9])
    def test_rappor_full_rejects_nan_and_near_miss_p(self, p):
        with pytest.raises(
            ValueError,
            match=r"^asymmetric instantaneous stage \(p=.*, q=0.75\) is not a bit-flip channel; "
            "only the symmetric mode p = 1 - q is supported$",
        ):
            parse_mechanism(f"rappor:f=0.5,q=0.75,p={p!r}")


class TestParseMechanism:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("direct:0.75", Mechanism("direct", (0.75,))),
            ("warner:0.7", Mechanism("warner", (0.7,))),
            ("unrelated:0.5", Mechanism("unrelated", (0.5,))),
            ("rappor1:0.5", Mechanism("rappor1", (0.5,))),
            ("rappor:f=0.5,q=0.75", Mechanism("rappor", (0.5, 0.75))),
            ("rappor:0.5,0.75", Mechanism("rappor", (0.5, 0.75))),
            ("Direct:a=0.6", Mechanism("direct", (0.6,))),
            ("rappor: q = 0.75 , f = 0.5 ", Mechanism("rappor", (0.5, 0.75))),
        ],
    )
    def test_roundtrips(self, text, expected):
        assert parse_mechanism(text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "bogus:0.5",
            "direct",
            "direct:",
            "rappor:f=0.5,z=1",
            "direct:a=0.7,a=0.8",
            "warner:p=0.7,q=0.3",
            "rappor:f=0.5",
            "rappor:0.5",
            "rappor:0.5,q=0.75",
            "rappor:f=0.5,q=0.75,p=0.25,p=0.25",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_mechanism(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("direct:a=0.7,a=0.8", "mechanism 'direct' got key 'a' twice"),
            (
                "warner:p=0.7,q=0.3",
                "mechanism 'warner' takes p, in that order or as key=value pairs; got 'q=0.3'",
            ),
            (
                "rappor:f=0.5,z=1",
                "mechanism 'rappor' takes f, q, in that order or as key=value pairs; got 'z=1'",
            ),
            (
                "rappor:0.5,q=0.75",
                "mechanism 'rappor' takes f, q, in that order or as key=value pairs; got '0.5'",
            ),
            ("rappor:f=0.5", "mechanism 'rappor' takes 2 parameter(s) (f, q), got 1"),
            ("rappor:q=0.5", "mechanism 'rappor' takes 2 parameter(s) (f, q), got 1"),
            ("rappor:0.5", "mechanism 'rappor' takes 2 parameter(s) (f, q), got 1"),
            ("direct:", "mechanism 'direct' takes 1 parameter(s) (a), got 0"),
            ("unrelated", "mechanism 'unrelated' takes 1 parameter(s) (p), got 0"),
            ("rappor:0.5,x", "mechanism 'rappor' field q must be a number, got 'x'"),
            ("rappor:f=0.5,q=", "mechanism 'rappor' field q must be a number, got ''"),
            ("warner:0.7,zz", "mechanism 'warner' takes 1 parameter(s) (p), got 2"),
        ],
    )
    def test_error_names_mechanism_and_fields(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_mechanism(text)
        assert str(info.value) == message


class TestCorpus:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            ResponseCorpus(np.array([[0, 2]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            ResponseCorpus(np.array([0, 1]))

    @pytest.mark.parametrize(
        "bits",
        [[[256, 1]], [[1.5, 0.0]], [[-255, 1]], [[np.nan, 1.0]], [[-1, 0]], [[0.5, 1.0]], [[2, 3]]],
        ids=["wraps-to-0", "truncates-to-1", "wraps-to-1", "nan", "negative", "half", "above-one"],
    )
    def test_checks_values_before_casting(self, bits):
        """A corpus and a single record are refused alike, before the uint8
        cast could wrap, truncate or zero an entry."""
        message = "^corpus entries must all be 0 or 1$"
        with pytest.raises(ValueError, match=message):
            ResponseCorpus(np.array(bits))
        with pytest.raises(ValueError, match=message):
            randomize(np.array(bits[0]), 0.7, RandomSeed(0))

    @pytest.mark.parametrize(
        "dtype", [bool, np.uint8, np.uint16, np.int8, np.int64, np.float32, np.float64]
    )
    def test_accepts_zero_one_in_any_numeric_dtype(self, dtype):
        bits = np.array([[0, 1], [1, 1]], dtype=dtype)
        c = ResponseCorpus(bits)
        assert c.bits.dtype == np.uint8
        assert c.bits.tolist() == [[0, 1], [1, 1]]
        batch = randomize_corpus(c, 0.6, RandomSeed(3)).bits
        for j, record in enumerate(bits):
            assert np.array_equal(randomize(record, 0.6, RandomSeed(3), index=j), batch[j])

    def test_shape_properties(self):
        c = ResponseCorpus(np.zeros((3, 2), dtype=np.uint8))
        assert (c.m, c.width) == (3, 2)


class TestRandomize:
    def test_never_flips_at_one(self):
        x = np.array([0, 1, 1, 0], dtype=np.uint8)
        for seed in (0, 1, 99):
            assert np.array_equal(randomize(x, 1.0, RandomSeed(seed)), x)

    def test_always_flips_at_zero(self):
        x = np.array([0, 1, 1, 0], dtype=np.uint8)
        for seed in (0, 1, 99):
            assert np.array_equal(randomize(x, 0.0, RandomSeed(seed)), 1 - x)

    def test_deterministic(self):
        x = np.array([0, 1, 1], dtype=np.uint8)
        seed = RandomSeed(123, 4)
        assert np.array_equal(randomize(x, 0.7, seed), randomize(x, 0.7, seed))

    def test_streams_are_distinct(self):
        x = np.zeros(64, dtype=np.uint8)
        one = randomize(x, 0.5, RandomSeed(123, 0))
        other = randomize(x, 0.5, RandomSeed(123, 1))
        assert not np.array_equal(one, other)

    def test_empirical_frequencies_match_channel_column(self):
        # fixed input, a = 0.75, n = 2: output cells follow the x-th column
        a, n, x, m = 0.75, 2, 2, 100_000
        corpus = ResponseCorpus(np.broadcast_to(np.array([0, 1], dtype=np.uint8), (m, n)))
        out = randomize_corpus(corpus, a, RandomSeed(2024))
        cells = out.bits @ (1 << np.arange(n))
        counts = np.bincount(cells, minlength=1 << n)
        expected = m * np.array([entry_at(a, n, r, x) for r in range(1 << n)])
        assert stats.chisquare(counts, expected).pvalue >= 1e-3
        assert counts[x] / m == pytest.approx(0.5625, abs=0.01)

    def test_output_bits_are_independent(self):
        # chi-square independence of the n output bits under a fixed input
        for n in (2, 3):
            m = 60_000
            x = np.zeros((m, n), dtype=np.uint8)
            x[:, 0] = 1
            out = randomize_corpus(ResponseCorpus(x), 0.7, RandomSeed(55, n))
            cells = out.bits @ (1 << np.arange(n))
            counts = np.bincount(cells, minlength=1 << n).astype(float)
            marginals = out.bits.mean(axis=0)
            expected = np.ones(1 << n) * m
            for t in range(n):
                bit = (np.arange(1 << n) >> t) & 1
                expected *= np.where(bit, marginals[t], 1.0 - marginals[t])
            dof = (1 << n) - 1 - n
            statistic = ((counts - expected) ** 2 / expected).sum()
            assert stats.chi2.sf(statistic, dof) >= 1e-3


# The ends, the smallest step above 0, one half, and 0.75 with each of its
# float neighbours: where an integer threshold could be one off.
EDGE_A = [
    0.0, 2.0**-53, 0.5, 0.75, float(np.nextafter(0.75, 0)), float(np.nextafter(0.75, 1)),
    1.0 - 2.0**-53, 1.0,
]


class FixedWords:
    """A generator stand-in whose bit generator hands out given raw words."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, shape):
        return self.words.reshape(shape)


class TestFlipOracle:
    """Every path flips exactly where ``Generator.random(shape) >= a`` does."""

    CORPUS = ResponseCorpus(np.random.default_rng(3).integers(0, 2, (300, 7), dtype=np.uint8))
    SEED = RandomSeed(8, 1)

    def expected(self, a):
        return self.CORPUS.bits ^ (self.SEED.generator().random(self.CORPUS.bits.shape) >= a)

    def test_random_is_the_raw_words_top_53_bits(self):
        words = self.SEED.generator().bit_generator.random_raw(1000)
        assert np.array_equal(self.SEED.generator().random(1000), (words >> 11) * 2.0**-53)

    @pytest.mark.parametrize("a", [*EDGE_A, 1 / 3])  # a 2^53 is no integer at 1/3
    def test_words_beside_the_threshold(self, a):
        """Words at and beside a's cut, and at both ends of the range, flip
        exactly when the uniform ``random`` makes of them reaches a."""
        cut = int(a * 2.0**53) << 11
        near = [cut + d for d in (-2049, -2048, -1, 0, 1, 2047, 2048)]
        words = [w for w in near + [0, 1, 2047, 2048, 2**64 - 2049, 2**64 - 2048, 2**64 - 1]
                 if 0 <= w < 2**64]
        uniforms = (np.array(words, dtype=np.uint64) >> 11) * 2.0**-53
        got = _flip(np.zeros(len(words), dtype=np.uint8), a, FixedWords(words))
        assert np.array_equal(got, uniforms >= a)

    @pytest.mark.parametrize("a", EDGE_A)
    def test_batch_and_per_record(self, a):
        want = self.expected(a)
        assert np.array_equal(randomize_corpus(self.CORPUS, a, self.SEED).bits, want)
        for j in range(0, self.CORPUS.m, 7):
            assert np.array_equal(randomize(self.CORPUS.bits[j], a, self.SEED, index=j), want[j])

    @pytest.mark.parametrize("a", EDGE_A)
    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_chunked(self, monkeypatch, tmp_path, a, rows):
        """Blocks of ``rows`` rows, in the library and in the streaming command."""
        monkeypatch.setattr(randomizer, "BLOCK_CELLS", rows * self.CORPUS.width)
        want = self.expected(a)
        assert np.array_equal(randomize_corpus(self.CORPUS, a, self.SEED).bits, want)
        path, out = tmp_path / "c.csv", tmp_path / "out.csv"
        write_corpus(path, self.CORPUS)
        argv = ["randomize", str(path), "--a", repr(a), "--seed", "8", "--stream", "1"]
        assert main([*argv, "--out", str(out)]) == 0
        assert np.array_equal(read_corpus(out)[0].bits, want)


class TestRandomizeCorpus:
    def test_empty_corpus(self):
        c = ResponseCorpus(np.zeros((0, 3), dtype=np.uint8))
        assert randomize_corpus(c, 0.8, RandomSeed(1)) == c

    def test_identity_at_one(self):
        c = ResponseCorpus((np.arange(12).reshape(4, 3) % 2).astype(np.uint8))
        assert randomize_corpus(c, 1.0, RandomSeed(9)) == c

    def test_batch_equals_per_record(self):
        rng = np.random.default_rng(7)
        c = ResponseCorpus(rng.integers(0, 2, (50, 5), dtype=np.uint8))
        seed = RandomSeed(42, 3)
        batch = randomize_corpus(c, 0.6, seed)
        for j in range(c.m):
            assert np.array_equal(randomize(c.bits[j], 0.6, seed, index=j), batch.bits[j])

    def test_record_randomness_is_order_independent(self):
        # record j's uniforms depend on (seed, stream, j, width) alone
        seed = RandomSeed(11, 2)
        batch = seed.generator().random((20, 3))
        assert np.array_equal(seed._generator_at(17, 3).random(3), batch[17])
        flips = randomize(np.zeros(3, dtype=np.uint8), 0.6, seed, index=17)
        assert np.array_equal(flips, batch[17] >= 0.6)

    def test_recovers_distribution_end_to_end(self):
        # uniform-ish corpus through the channel: joint histogram ~ C @ pi
        rng = np.random.default_rng(31)
        m, n, a = 100_000, 2, 0.75
        cells_in = rng.integers(0, 4, m)
        bits = ((cells_in[:, None] >> np.arange(n)) & 1).astype(np.uint8)
        pi_emp = np.bincount(cells_in, minlength=4) / m
        out = randomize_corpus(ResponseCorpus(bits), a, RandomSeed(77))
        counts = np.bincount(out.bits @ (1 << np.arange(n)), minlength=4)
        expected = m * (materialize(a, n) @ pi_emp)
        assert stats.chisquare(counts, expected).pvalue >= 1e-3


class TestMechanismReduction:
    """The two-stage protocols land on the same conditional distribution as
    the single-flip channel at their effective parameter."""

    # each label seeds the draws, so it is part of the test's data
    @pytest.mark.parametrize(
        "label,spec",
        [
            pytest.param("Direct", Mechanism("direct", (0.8,)), id="Direct"),
            pytest.param("Warner", Mechanism("warner", (0.7,)), id="Warner"),
            pytest.param("UnrelatedUniform", Mechanism("unrelated", (0.5,)), id="UnrelatedUniform"),
            pytest.param("RapporOneTime", Mechanism("rappor1", (0.5,)), id="RapporOneTime"),
            pytest.param("RapporFull", Mechanism("rappor", (0.5, 0.75)), id="RapporFull"),
        ],
    )
    @pytest.mark.parametrize("n,x", [(1, 1), (2, 2), (4, 5)])
    def test_two_stage_matches_flip_channel(self, label, spec, n, x):
        m = 100_000
        rng = np.random.default_rng(zlib.crc32(f"{label}|{n}|{x}".encode()))
        counts = simulate(spec, n, x, m, rng)
        a = effective_a(spec)
        expected = m * np.array([entry_at(a, n, r, x) for r in range(1 << n)])
        assert stats.chisquare(counts, expected).pvalue >= 1e-3


class TestUnrelatedChannelEntry:
    def test_single_bit_disagreement(self):
        assert unrelated_channel_entry(0.5, 1, 0, 1) == 0.25

    def test_never_asks_coin(self):
        for n in (1, 3):
            assert unrelated_channel_entry(0.0, n, 5 % (1 << n), 5 % (1 << n)) == 1.0

    def test_width_two_diagonal(self):
        assert unrelated_channel_entry(0.5, 2, 0, 0) == 0.5625

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 11))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_binomial_sum_equals_flip_entry(self, p, n):
        a = (2.0 - p) / 2.0
        dim = 1 << n
        worst = max(
            abs(unrelated_channel_entry(p, n, r, x) - entry_at(a, n, r, x))
            for r in range(dim)
            for x in range(dim)
        )
        assert worst <= 1e-12


class TestRandomSeed:
    def test_same_key_same_bits(self):
        assert np.array_equal(
            RandomSeed(5, 6).generator().random(8), RandomSeed(5, 6).generator().random(8)
        )

    @pytest.mark.parametrize(
        "seed,stream", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64), (1.5, 0), (0, 0.5)]
    )
    def test_seed_and_stream_lie_in_64_bits(self, seed, stream):
        with pytest.raises(ValueError):
            RandomSeed(seed, stream)

    def test_largest_seed_and_stream_accepted(self):
        top = RandomSeed(2**64 - 1, 2**64 - 1)
        assert top.generator().random() != RandomSeed(0, 0).generator().random()

    def test_integral_float_seed_is_an_int(self):
        assert RandomSeed(5.0, np.int64(2)) == RandomSeed(5, 2)
        assert type(RandomSeed(5.0).seed) is int

    def test_randomize_rejects_nan_channel(self):
        corpus = ResponseCorpus(np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="a must lie in"):
            randomize_corpus(corpus, float("nan"), RandomSeed(0))
        with pytest.raises(ValueError, match="a must lie in"):
            randomize(corpus.bits[0], float("nan"), RandomSeed(0))

    def test_record_uniform_bounds_checked(self):
        with pytest.raises(ValueError, match="record index"):
            RandomSeed(1)._generator_at(-1, 2)
        with pytest.raises(ValueError, match="record index"):
            randomize(np.zeros(2, dtype=np.uint8), 0.7, RandomSeed(1), index=-1)
