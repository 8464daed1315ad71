import errno
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bisymrr import (
    Mechanism,
    ResponseCorpus,
    materialize,
    parse_mechanism,
    write_corpus,
)
from bisymrr import corpus_io, estimator, parser, surveys
from bisymrr.cli import main
from bisymrr.corpus_io import format_float, mechanism_text
from bisymrr.parser import FIGURE_DEFAULTS
from bisymrr.surveys import _MECHANISMS

PI = np.array([0.05, 0.15, 0.3, 0.5])
COMMANDS = ["matrix", "randomize", "estimate", "loss", "privacy", "figures"]

# The settings each figure reads, in header order, and one valid value of
# every setting that ``figures`` takes (as a flag and as a config-file key).
READS = {
    "1a": ["n", "m", "trials", "mechanism", "pi", "seed", "stream"],
    "1b": [],
    "1c": ["trials", "mechanism", "seed", "stream"],
    "2a": ["n"],
    "2b": ["n", "k"],
}
SETTINGS = {
    "n": 2, "m": 10, "trials": 2, "mechanism": "warner:0.7",
    "pi": "dirichlet-flat", "seed": 1, "stream": 1, "k": 2,
}
UNREAD = [(which, key) for which, keys in READS.items() for key in SETTINGS if key not in keys]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def truthful_corpus_file(tmp_path, pi, m, n):
    """Corpus with exact cell counts m*pi, patterns little-endian."""
    counts = np.round(np.asarray(pi) * m).astype(int)
    values = np.repeat(np.arange(counts.size), counts)
    bits = (values[:, None] >> np.arange(n)) & 1
    path = tmp_path / "truth.csv"
    write_corpus(path, ResponseCorpus(bits.astype(np.uint8)))
    return path


def parse_estimate(text):
    lines = text.splitlines()
    assert lines[1] == "pattern,estimate"
    return lines[0], {
        label: float(v) for label, v in (line.split(",") for line in lines[2:])
    }


def parse_keyvals(text):
    lines = text.splitlines()
    assert lines[0] == "key,value"
    return dict(line.split(",") for line in lines[1:])


def usage_error_flags(err):
    """The flags named on the error line that ends an argparse usage error."""
    line = err.splitlines()[-1]
    assert re.match(r"bisymrr \w+: error: ", line)
    return set(re.findall(r"--\w+", line))


class TestMatrix:
    def test_forward_lines(self, capsys):
        code, out, _ = run(capsys, "matrix", "0.75", "1")
        assert code == 0
        assert out.splitlines() == ["0.75,0.25", "0.25,0.75"]

    def test_inverse_lines(self, capsys):
        code, out, _ = run(capsys, "matrix", "0.75", "1", "--inverse")
        assert code == 0
        assert out.splitlines() == ["1.5,-0.5", "-0.5,1.5"]

    def test_roundtrip_through_file(self, tmp_path, capsys):
        path = tmp_path / "mat.csv"
        code, _, _ = run(capsys, "matrix", "0.62", "3", "--out", str(path))
        assert code == 0
        assert (np.loadtxt(path, delimiter=",", ndmin=2) == materialize(0.62, 3)).all()

    def test_singular_inverse_exits_3(self, capsys):
        code, _, err = run(capsys, "matrix", "0.5", "2", "--inverse")
        assert code == 3
        assert "error" in err

    def test_width_cap_exits_5(self, capsys):
        code, _, err = run(capsys, "matrix", "0.75", "13")
        assert code == 5
        assert "cap" in err.lower()


class TestRandomize:
    def test_deterministic_output(self, tmp_path, capsys):
        path = truthful_corpus_file(tmp_path, PI, 40, 2)
        first = run(capsys, "randomize", str(path), "--a", "0.75", "--seed", "5")
        second = run(capsys, "randomize", str(path), "--a", "0.75", "--seed", "5")
        assert first == second
        assert first[0] == 0

    def test_identity_channel_preserves_rows(self, tmp_path, capsys):
        path = truthful_corpus_file(tmp_path, PI, 40, 2)
        code, out, _ = run(capsys, "randomize", str(path), "--a", "1", "--seed", "0")
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body == [l for l in path.read_text().splitlines() if not l.startswith("#")]

    def test_header_records_channel(self, tmp_path, capsys):
        path = truthful_corpus_file(tmp_path, PI, 20, 2)
        _, out, _ = run(
            capsys, "randomize", str(path), "--mechanism", "unrelated:0.5", "--seed", "7"
        )
        header = out.splitlines()[0]
        assert "a=0.75" in header
        assert "mechanism=unrelated:0.5" in header
        assert "seed=7" in header and "stream=0" in header

    def test_mechanism_and_a_conflict(self, tmp_path, capsys):
        path = truthful_corpus_file(tmp_path, PI, 20, 2)
        code, _, err = run(
            capsys, "randomize", str(path), "--a", "0.75", "--mechanism", "warner:0.7"
        )
        assert code == 2
        assert usage_error_flags(err) == {"--a", "--mechanism"}

    def test_rerandomizing_records_the_whole_channel(self, tmp_path, capsys):
        """Two flips compose into one, at ``a_in·a + (1 − a_in)(1 − a)``; the
        header records that, and this run's own mechanism, seed and stream."""
        path = tmp_path / "flipped.csv"
        path.write_text("# width=2 m=2 a=0.80000000000000004 seed=3\n0,1\n1,1\n")
        code, out, _ = run(capsys, "randomize", str(path), "--a", "0.9", "--seed", "5")
        assert code == 0
        whole = format_float(0.8 * 0.9 + (1 - 0.8) * (1 - 0.9))
        mechanism = f"direct:{format_float(0.9)}"
        assert out.splitlines()[0] == (
            f"# width=2 m=2 a={whole} seed=5 mechanism={mechanism} stream=0"
        )

    def test_twice_randomized_corpus_estimates_the_truth(self, tmp_path, capsys):
        """Estimating at the second run's ``a`` alone would put the ones near
        0.32 here, some 17 standard errors from the truth."""
        m, pi = 20000, np.array([0.8, 0.2])
        path = truthful_corpus_file(tmp_path, pi, m, 1)
        for a, seed in (("0.8", "1"), ("0.9", "2")):
            flipped = tmp_path / f"flipped-{a}.csv"
            code, _, _ = run(
                capsys, "randomize", str(path), "--a", a, "--seed", seed, "--out", str(flipped)
            )
            assert code == 0
            path = flipped
        code, out, _ = run(capsys, "estimate", str(path))
        assert code == 0
        _, got = parse_estimate(out)
        a = 0.8 * 0.9 + 0.2 * 0.1
        q = a * pi[1] + (1 - a) * pi[0]  # chance a record reads 1
        se = math.sqrt(q * (1 - q) / m) / (2 * a - 1)
        assert abs(got["1"] - pi[1]) < 5 * se and abs(got["0"] - pi[0]) < 5 * se

    @pytest.mark.parametrize(
        "value, code, message",
        [("1.5", 2, "a must lie in [0, 1], got 1.5"),
         ("x", 4, "line 1: header value a=x is not a number")],
        ids=["outside", "no-number"],
    )
    def test_bad_header_a_is_refused_not_composed(self, tmp_path, capsys, value, code, message):
        path = tmp_path / "bad-a.csv"
        path.write_text(f"# width=1 m=2 a={value}\n0\n1\n")
        got = run(capsys, "randomize", str(path), "--a", "0.9")
        assert got == (code, "", f"error: {message}\n")

    def test_parse_error_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# width=2 m=1\n0,2\n")
        code, _, err = run(capsys, "randomize", str(bad), "--a", "0.75")
        assert code == 4
        assert "line 2" in err


class TestEstimate:
    def test_identity_on_constant_corpus(self, tmp_path, capsys):
        path = truthful_corpus_file(tmp_path, [1, 0, 0, 0], 8, 2)
        code, out, _ = run(capsys, "estimate", str(path), "--a", "1")
        assert code == 0
        header, cells = parse_estimate(out)
        assert header == "# width=2 m=8 a=1 bits=0,1 projected=0"
        assert cells == {"00": 1.0, "10": 0.0, "01": 0.0, "11": 0.0}

    def test_header_a_fallback(self, tmp_path, capsys):
        truth = truthful_corpus_file(tmp_path, PI, 200, 2)
        noisy = tmp_path / "noisy.csv"
        run(capsys, "randomize", str(truth), "--a", "0.9", "--seed", "3", "--out", str(noisy))
        code, out, _ = run(capsys, "estimate", str(noisy))
        assert code == 0
        assert "a=0.9" in out.splitlines()[0]

    def test_no_a_anywhere_exits_2(self, tmp_path, capsys):
        path = truthful_corpus_file(tmp_path, PI, 20, 2)
        code, _, err = run(capsys, "estimate", str(path))
        assert code == 2
        assert "--a" in err

    @pytest.mark.parametrize(
        "header_a,extra", [("nan", []), ("nan", ["--project"]), ("1.5", [])]
    )
    def test_bad_header_a_exits_2(self, tmp_path, capsys, header_a, extra):
        path = tmp_path / "noisy.csv"
        path.write_text(f"# width=2 m=3 a={header_a}\n0,1\n1,1\n0,0\n")
        code, out, err = run(capsys, "estimate", str(path), *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: a must lie in [0, 1]")

    @pytest.mark.parametrize(
        "header, message",
        [
            ("# width=2 m=3 a=foo", "header value a=foo is not a number"),
            ("# width=2 m=3 m=3", "header repeats key 'm'"),
        ],
    )
    def test_bad_header_value_exits_4(self, tmp_path, capsys, header, message):
        path = tmp_path / "noisy.csv"
        path.write_text(f"{header}\n0,1\n1,1\n0,0\n")
        assert run(capsys, "estimate", str(path)) == (4, "", f"error: line 1: {message}\n")

    def test_overflowing_estimate_exits_2(self, tmp_path, capsys):
        # |a / (2a - 1)|^21 is past the float range: no inf or NaN cell is written
        path = tmp_path / "noisy.csv"
        path.write_text(f"# width=21 m=1 a={float(np.nextafter(0.5, 1))!r}\n" + ",".join("0" * 21) + "\n")
        with pytest.warns(RuntimeWarning, match="statistically useless"):
            code, out, err = run(capsys, "estimate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: numerical overflow: the estimate at a=")

    def test_project_gives_distribution(self, tmp_path, capsys):
        path = truthful_corpus_file(tmp_path, [0, 0, 0, 1], 3, 2)
        _, raw_out, _ = run(capsys, "estimate", str(path), "--a", "0.75")
        _, proj_out, _ = run(capsys, "estimate", str(path), "--a", "0.75", "--project")
        _, raw = parse_estimate(raw_out)
        header, proj = parse_estimate(proj_out)
        assert "projected=1" in header
        assert min(raw.values()) < 0  # the unprojected estimate leaves the simplex
        assert min(proj.values()) >= 0
        assert sum(proj.values()) == pytest.approx(1.0, abs=1e-9)

    def test_bits_subset(self, tmp_path, capsys):
        path = truthful_corpus_file(tmp_path, PI, 100, 2)
        code, out, _ = run(capsys, "estimate", str(path), "--a", "1", "--bits", "1")
        assert code == 0
        _, cells = parse_estimate(out)
        assert set(cells) == {"0", "1"}
        assert cells["1"] == pytest.approx(0.8)  # cells 01 and 11

    def test_closes_the_loop(self, tmp_path, capsys):
        truth = truthful_corpus_file(tmp_path, PI, 20_000, 2)
        noisy = tmp_path / "noisy.csv"
        run(
            capsys,
            "randomize", str(truth),
            "--mechanism", "unrelated:0.5",
            "--seed", "20260814",
            "--out", str(noisy),
        )
        code, out, _ = run(capsys, "estimate", str(noisy), "--project")
        assert code == 0
        _, cells = parse_estimate(out)
        got = np.array([cells["00"], cells["10"], cells["01"], cells["11"]])
        assert np.abs(got - PI).max() < 0.03


class TestLoss:
    @pytest.mark.parametrize(
        "text", ["0.1 0.1 0.1 0.1", "-0.5 0.5 0.5 0.5", "nan 0.5 0.25 0.25", "inf 0 0 0"]
    )
    def test_pi_file_that_is_no_distribution_exits_2(self, tmp_path, capsys, text):
        pi_file = tmp_path / "pi.csv"
        pi_file.write_text(text + "\n")
        code, out, err = run(capsys, "loss", "--a", "0.75", "--n", "2", "--pi", str(pi_file))
        assert (code, out) == (2, "")
        assert err.startswith("error: pi must be a probability distribution")

    def test_headline_row(self, capsys):
        code, out, _ = run(capsys, "loss", "--a", "0.75", "--n", "2", "--s", "0.4")
        assert code == 0
        got = parse_keyvals(out)
        assert got["loss_L"] == "9.75"
        assert got["loss_floor"] == "8"
        assert got["c"] == "6.25"
        assert "approx_quality" not in got

    def test_pi_file_route(self, tmp_path, capsys):
        pi_file = tmp_path / "pi.csv"
        pi_file.write_text("0.05, 0.15, 0.3, 0.5\n")
        code, out, _ = run(capsys, "loss", "--a", "0.75", "--n", "2", "--pi", str(pi_file))
        assert code == 0
        got = parse_keyvals(out)
        assert float(got["s"]) == pytest.approx(0.365)
        assert float(got["loss_L"]) == pytest.approx(9.267716535433071, abs=1e-12)

    def test_approx_quality_row_for_wide_records(self, capsys):
        _, out, _ = run(capsys, "loss", "--a", "0.75", "--n", "4", "--s", "0.1")
        got = parse_keyvals(out)
        assert float(got["approx_quality"]) < 0.0029

    def test_pi_file_that_is_not_utf8_exits_4(self, tmp_path, capsys):
        pi_file = tmp_path / "pi.csv"
        pi_file.write_bytes(b"0.25 0.25\n0.25 0.\xff25\n")
        code, out, err = run(capsys, "loss", "--a", "0.75", "--n", "2", "--pi", str(pi_file))
        assert (code, out) == (4, "")
        assert err.startswith("error: bad number: 'utf-8' codec can't decode byte 0xff")

    def test_s_and_pi_conflict(self, tmp_path, capsys):
        pi_file = tmp_path / "pi.csv"
        pi_file.write_text("0.5,0.5\n")
        code, _, err = run(
            capsys, "loss", "--a", "0.75", "--n", "1", "--s", "0.5", "--pi", str(pi_file)
        )
        assert code == 2
        assert usage_error_flags(err) == {"--s", "--pi"}

    def test_singular_exits_3(self, capsys):
        code, _, _ = run(capsys, "loss", "--a", "0.5", "--n", "2", "--s", "0.4")
        assert code == 3

    @pytest.mark.parametrize("command", ["loss", "privacy"])
    def test_s_below_the_uniform_distributions_exits_2(self, capsys, command):
        """No distribution on 2^n cells has s < 2^-n; such an s once printed a
        loss below the report's own floor."""
        code, out, err = run(capsys, command, "--a", "0.75", "--n", "3", "--s", "0.01")
        assert (code, out) == (2, "")
        assert err == (
            "error: sum of squared probabilities is 0.01, below 0.125 = 2^-3, "
            "the least a distribution on 2^3 cells has\n"
        )

    @pytest.mark.parametrize("command", ["loss", "privacy"])
    @pytest.mark.parametrize(
        "s, message",
        [
            ("2", "is 2.0, above 1, the most any distribution has"),
            ("inf", "is inf, above 1, the most any distribution has"),
            ("nan", "must be a number, got nan"),
            ("1", "is 1.0; a point mass leaves nothing to estimate and the loss is undefined"),
        ],
        ids=["above-1", "inf", "nan", "point-mass"],
    )
    def test_s_no_distribution_has_exits_2(self, capsys, command, s, message):
        """An s above 1 or NaN is no distribution's, not a point mass or a
        sign error; an s of 1 is a point mass."""
        code, out, err = run(capsys, command, "--a", "0.75", "--n", "3", "--s", s)
        assert (code, out, err) == (2, "", f"error: sum of squared probabilities {message}\n")

    @pytest.mark.parametrize("cell", ["0.125", "0.1249999999"], ids=["uniform", "near-uniform"])
    def test_pi_file_at_the_floor_passes(self, tmp_path, capsys, cell):
        """Cells summing to 1 within the distribution check's tolerance can put
        s a little below 2^-n; the floor gives way by that much."""
        pi_file = tmp_path / "pi.csv"
        pi_file.write_text(" ".join([cell] * 8) + "\n")
        code, out, _ = run(capsys, "loss", "--a", "0.75", "--n", "3", "--pi", str(pi_file))
        got = parse_keyvals(out)
        assert code == 0 and float(got["s"]) <= 0.125
        assert float(got["loss_L"]) == pytest.approx(float(got["loss_floor"]), rel=1e-8)


class TestPrivacy:
    def test_epsilon_inverts_to_a(self, capsys):
        code, out, _ = run(
            capsys, "privacy", "--epsilon", str(math.log(3)), "--n", "1", "--k", "1"
        )
        assert code == 0
        got = parse_keyvals(out)
        assert float(got["a"]) == pytest.approx(0.75, abs=1e-15)
        assert float(got["ratio"]) == pytest.approx(3.0, rel=1e-14)
        assert float(got["c_at_alpha"]) == pytest.approx(2.5, rel=1e-12)

    def test_defaults_k_to_n_and_s_to_uniform(self, capsys):
        _, out, _ = run(capsys, "privacy", "--a", "0.8", "--n", "3")
        got = parse_keyvals(out)
        assert got["k"] == "3" and got["n"] == "3"
        assert float(got["s"]) == pytest.approx(0.125)
        assert float(got["epsilon_total"]) == pytest.approx(3 * float(got["epsilon_per_bit"]))

    def test_both_dials_conflict(self, capsys):
        code, _, err = run(capsys, "privacy", "--a", "0.75", "--epsilon", "1", "--n", "1")
        assert code == 2
        assert usage_error_flags(err) == {"--a", "--epsilon"}

    def test_coin_flip_exits_3(self, capsys):
        code, _, _ = run(capsys, "privacy", "--a", "0.5", "--n", "1")
        assert code == 3

    @pytest.mark.parametrize("dial", [("--a", "0.75"), ("--epsilon", "1")], ids=["a", "epsilon"])
    def test_k_above_n_exits_2(self, capsys, dial):
        """Two n-bit records differ in at most n bits, so no report covers more."""
        code, out, err = run(capsys, "privacy", *dial, "--n", "3", "--k", "5")
        assert (code, out) == (2, "")
        assert err == "error: --k 5 exceeds --n 3: two 3-bit records differ in at most 3 bits\n"
        assert run(capsys, "privacy", *dial, "--n", "3", "--k", "3")[0] == 0


class TestFigures:
    def test_header_reflects_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2, "seed": 9}))
        code, out, _ = run(capsys, "figures", "1c", "--config", str(cfg))
        assert code == 0
        header = out.splitlines()[0]
        assert "trials=2" in header and "seed=9" in header

    def test_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2}))
        _, out, _ = run(capsys, "figures", "1c", "--config", str(cfg), "--trials", "3")
        assert "trials=3" in out.splitlines()[0]

    def test_defaults_in_header(self, capsys):
        _, out, _ = run(capsys, "figures", "2a")
        assert out.splitlines()[0] == "# figure=2a n=1"
        _, out, _ = run(capsys, "figures", "1c")
        assert out.splitlines()[0] == "# figure=1c trials=100 mechanism=unrelated:0.5 seed=0 stream=0"

    def test_row_content_matches_library(self, capsys):
        _, out, _ = run(capsys, "figures", "2b")
        lines = out.splitlines()
        assert lines[1] == "alpha,a,c_unrelated,c_warner"
        first = lines[2].split(",")
        assert float(first[0]) == pytest.approx(0.2)
        assert first[2] == first[3]  # equal-budget coincidence, byte for byte

    def test_figure_defaults_name_the_settings_read(self):
        assert {which: list(entry) for which, entry in FIGURE_DEFAULTS.items()} == READS
        assert len(UNREAD) == 26

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("which, key", UNREAD)
    def test_unread_setting_exits_2(self, tmp_path, capsys, which, key, via):
        if via == "flag":
            given = [f"--{key}", str(SETTINGS[key])]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: SETTINGS[key]}))
            given = ["--config", str(cfg)]
        path = tmp_path / "fig.csv"
        code, out, err = run(capsys, "figures", which, *given, "--out", str(path))
        assert (code, out, err) == (2, "", f"error: figure {which} reads no setting {key}\n")
        assert not path.exists()

    @pytest.mark.parametrize(
        "flags, config, n, k",
        [
            (["--n", "1", "--k", "2"], None, 1, 2),
            ([], {"n": 2, "k": 3}, 2, 3),
            (["--k", "4"], {"n": 3}, 3, 4),
        ],
        ids=["flags", "config", "config-and-flag"],
    )
    def test_2b_k_above_n_exits_2(self, tmp_path, capsys, flags, config, n, k):
        """Two n-bit records differ in at most n bits, as ``privacy`` says too."""
        given = list(flags)
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            given += ["--config", str(cfg)]
        path = tmp_path / "fig.csv"
        code, out, err = run(capsys, "figures", "2b", *given, "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: k {k} exceeds n {n}: two {n}-bit records differ in at most {n} bits\n"
        assert not path.exists()
        assert run(capsys, "figures", "2b", "--n", str(n), "--k", str(n))[0] == 0

    @pytest.mark.parametrize("which", ["1b", "2a", "2b"])
    def test_a_shortcut_is_the_mechanism_setting(self, capsys, which):
        code, out, err = run(capsys, "figures", which, "--a", "0.75")
        assert (code, out, err) == (2, "", f"error: figure {which} reads no setting mechanism\n")

    @pytest.mark.parametrize("which", sorted(READS))
    def test_header_is_exactly_the_settings_read(self, capsys, which):
        headers = {
            "1a": "# figure=1a n=2 m=1000 trials=100 mechanism=unrelated:0.5 "
                  "pi=0.050000000000000003,0.14999999999999999,0.29999999999999999,0.5 "
                  "seed=0 stream=0",
            "1b": "# figure=1b",
            "1c": "# figure=1c trials=100 mechanism=unrelated:0.5 seed=0 stream=0",
            "2a": "# figure=2a n=1",
            "2b": "# figure=2b n=1 k=1",
        }
        code, out, _ = run(capsys, "figures", which)
        assert code == 0
        assert out.split("\n", 1)[0] == headers[which]

    def test_null_config_value_sets_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pi": None, "k": None}))
        _, default, _ = run(capsys, "figures", "1a", "--trials", "2")
        assert run(capsys, "figures", "1a", "--trials", "2", "--config", str(cfg)) == (0, default, "")

    def test_header_records_config_keys_and_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1, "m": 10, "pi": [0.25, 0.75], "stream": 4, "seed": 8}))
        code, out, _ = run(
            capsys, "figures", "1a", "--config", str(cfg),
            "--trials", "2", "--a", "0.8", "--seed", "3",
        )
        assert code == 0
        assert out.split("\n", 1)[0] == (
            "# figure=1a n=1 m=10 trials=2 mechanism=direct:0.80000000000000004 "
            "pi=0.25,0.75 seed=3 stream=4"
        )

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "fig.csv"
        code, out, _ = run(capsys, "figures", "1b", "--out", str(path))
        assert code == 0 and out == ""
        assert len(path.read_text().splitlines()) == 38  # header + columns + 36 rows

    def test_unknown_id_exits_2(self, capsys):
        code, _, _ = run(capsys, "figures", "9q")
        assert code == 2

    def test_bad_config_json_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "figures", "1b", "--config", str(cfg))
        assert code == 4
        assert "config" in err

    def test_config_that_is_not_utf8_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"trials": 2, "note": "\xff"}')
        code, out, err = run(capsys, "figures", "1b", "--config", str(cfg))
        assert (code, out) == (4, "")
        assert err.startswith("error: bad config file: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("text", ["[1, 2]", "5", '"n"', "null"])
    def test_non_object_config_exits_4(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, _, err = run(capsys, "figures", "1b", "--config", str(cfg))
        assert code == 4
        assert err.startswith("error: bad config file: expected a JSON object")

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"mechanism": 5}, f"mechanism must be a spec, one of {surveys.mechanism_forms()}, got 5"),
            (
                {"mechanism": ["unrelated", 0.5]},
                f"mechanism must be a spec, one of {surveys.mechanism_forms()}, "
                "got ['unrelated', 0.5]",
            ),
            ({"pi": {"a": 1}}, "pi must be numbers or 'dirichlet-flat', got {'a': 1}"),
        ],
        ids=["mechanism-int", "mechanism-list", "pi-object"],
    )
    def test_config_value_of_the_wrong_type_exits_2(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(capsys, "figures", "1a", "--config", str(cfg)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_default_pi_at_another_width_names_the_default(self, tmp_path, capsys, source):
        """1a's default pi has four cells; a width other than 2 without a pi of
        its own is refused with a message about the default, not about a pi
        the user never gave."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3}))
        width = ["--n", "3"] if source == "flag" else ["--config", str(cfg)]
        assert run(capsys, "figures", "1a", *width, "--trials", "2") == (
            2, "", "error: figure 1a's default pi is for n = 2, not n = 3: "
                   "give --pi with 8 cells, or --pi dirichlet-flat\n",
        )
        code, out, _ = run(capsys, "figures", "1a", *width, "--trials", "2", "--pi", "dirichlet-flat")
        assert code == 0 and out.startswith("# figure=1a n=3 ")
        # an invalid setting is still named first, as with a pi given
        assert run(capsys, "figures", "1a", "--n", "3", "--m", "0") == (
            2, "", "error: m must be an integer >= 1, got 0\n",
        )

    @pytest.mark.parametrize("pi", ["abc", "0.5,x,0.25,0.25"])
    def test_pi_flag_that_is_no_numbers_names_the_flag(self, capsys, pi):
        assert run(capsys, "figures", "1a", "--pi", pi) == (
            2, "", f"error: --pi must be comma-separated numbers or 'dirichlet-flat', got {pi!r}\n"
        )


PROBABILITY = st.floats(0.0, 1.0, allow_nan=False)


class TestMechanismText:
    @given(st.data())
    def test_parse_round_trip(self, data):
        # every example runs every entry of the table, so none goes untested
        for name, (fields, *_) in _MECHANISMS.items():
            spec = Mechanism(name, data.draw(st.tuples(*[PROBABILITY] * len(fields))))
            assert parse_mechanism(mechanism_text(spec)) == spec

    def test_single_and_keyed_forms(self):
        assert mechanism_text(Mechanism("warner", (0.7,))) == "warner:0.69999999999999996"
        rappor = parse_mechanism("rappor:f=0.5,q=0.75,p=0.25")
        assert mechanism_text(rappor) == "rappor:f=0.5,q=0.75"

    def test_help_lists_every_form(self, capsys):
        forms = "direct:<a>, warner:<p>, unrelated:<p>, rappor1:<f>, rappor:f=<f>,q=<q>"
        assert surveys.mechanism_forms() == forms
        code, out, _ = run(capsys, "randomize", "--help")
        assert code == 0 and f"one of {forms} " in " ".join(out.split())
        code, out, _ = run(capsys, "figures", "--help")
        assert code == 0 and "mechanism spec (default unrelated:0.5)" in " ".join(out.split())


class TestTopLevel:
    def test_no_arguments_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_input_file_exits_2(self, capsys):
        code, _, err = run(capsys, "estimate", "/no/such/file.csv", "--a", "0.75")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["randomize", "c.csv"], {"--a", "--mechanism"}),
            (["loss", "--n", "2"], {"--a", "--mechanism"}),
            (["loss", "--a", "0.75", "--n", "1"], {"--s", "--pi"}),
            (["privacy", "--n", "1"], {"--a", "--epsilon"}),
        ],
        ids=["randomize", "loss-a-mechanism", "loss-s-pi", "privacy"],
    )
    def test_flag_pair_given_neither_way_exits_2(self, capsys, argv, flags):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert usage_error_flags(err) == flags

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["frobnicate"], [], ["-h", "estimate"], ["estimate", "x", "--bogus"]]
        + [["loss", "--n", "2"], ["randomize", "x", "--a", "1", "--mechanism", "direct:1"]]
        + [[command, "--help"] for command in COMMANDS]
        + [[command] for command in COMMANDS],
        ids=lambda argv: " ".join(argv) or "nothing",
    )
    def test_help_and_usage_errors_are_the_full_parsers(self, capsys, argv):
        """``main`` parses with the one full parser, so every usage error,
        flag pairs given both or neither included, is argparse's own and
        ends before numpy loads: what it prints and returns is the parser's."""
        got = (main(argv), *capsys.readouterr())
        with pytest.raises(SystemExit) as end:
            parser._build_parser().parse_args(argv)
        assert got == (end.value.code or 0, *capsys.readouterr())


class TestClosedHoles:
    """Inputs that once printed NaN or inf with exit 0, escaped as a
    traceback, or failed with an unrelated message."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("privacy", "--a", "nan", "--n", "2"),
            ("privacy", "--a", "0.75", "--n", "1", "--s", "nan"),
            ("privacy", "--epsilon", "nan", "--n", "1"),
            ("privacy", "--epsilon", "inf", "--n", "1"),
            ("loss", "--a", "0.75", "--n", "2", "--s", "nan"),
            ("matrix", "nan", "1"),
            ("matrix", "1e200", "2"),
            ("matrix", "-0.5", "1", "--inverse"),
        ],
    )
    def test_non_finite_or_out_of_range_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("direct:abc", "mechanism 'direct' field a must be a number, got 'abc'"),
            ("rappor:f=0.5,q=0.75,p=x", "mechanism 'rappor' field p must be a number, got 'x'"),
        ],
    )
    def test_mechanism_value_that_is_no_number_exits_2(self, capsys, spec, message):
        code, out, err = run(capsys, "loss", "--mechanism", spec, "--n", "1", "--s", "0.5")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("privacy", "--epsilon", "1000", "--n", "1"),
            ("loss", "--a", "0.6", "--n", "2000", "--s", "0.5"),
            ("loss", "--a", "0.5000000001", "--n", "40", "--s", "0.5"),
            ("figures", "2a", "--n", "1000"),
        ],
    )
    def test_overflow_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: numerical overflow")

    @pytest.mark.parametrize(
        "argv",
        [
            ("loss", "--a", "0.75", "--n", "1000", "--s", "0.5"),
            ("privacy", "--a", "0.75", "--n", "1000"),
            ("figures", "2a", "--n", "1000"),
        ],
    )
    def test_overflow_names_its_reason_not_an_errno_tuple(self, capsys, argv):
        reason = os.strerror(errno.ERANGE)  # "Numerical result out of range" on Linux
        assert run(capsys, *argv) == (2, "", f"error: numerical overflow: {reason}\n")

    @pytest.mark.parametrize("n", ["600", "1022", "1023"])
    def test_wide_loss_with_finite_values_prints_them(self, capsys, n):
        code, out, err = run(capsys, "loss", "--a", "1", "--n", n, "--s", "0.5")
        assert (code, err) == (0, "")
        got = parse_keyvals(out)
        assert got["approx_quality"] == "0"
        assert all(math.isfinite(float(v)) for v in got.values())

    @pytest.mark.parametrize(
        "argv",
        [
            ("privacy", "--a", "0.75", "--n", "-1"),
            ("loss", "--a", "0.75", "--n", "-1", "--s", "0.5"),
            ("privacy", "--a", "0.8", "--n", "0"),
            ("privacy", "--epsilon", "1", "--n", "0"),
            ("privacy", "--a", "0.8", "--n", "0", "--k", "1", "--s", "0.5"),
            ("loss", "--a", "0.8", "--n", "0", "--s", "0.5"),
        ],
    )
    def test_negative_width_named(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: bit width must be an integer >= ")

    @pytest.mark.parametrize("n", ["1024", "1000000000"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("loss", "--a", "1", "--s", "0.5"),
            ("loss", "--a", "0.75", "--s", "0.5"),
            ("privacy", "--a", "0.75"),
            ("privacy", "--a", "0.75", "--k", "1", "--s", "0.5"),
        ],
    )
    def test_width_beyond_float_range_exits_2(self, capsys, argv, n):
        code, out, err = run(capsys, *argv, "--n", n)
        assert code == 2
        assert out == ""
        assert err.startswith("error: numerical overflow: 2^n is not a finite float")

    def test_negative_width_with_pi_file(self, tmp_path, capsys):
        pi = tmp_path / "pi.txt"
        pi.write_text("0.5 0.5\n")
        code, _, err = run(capsys, "loss", "--a", "0.75", "--n", "-1", "--pi", str(pi))
        assert code == 2
        assert err.startswith("error: bit width must be an integer >= 1")

    @pytest.mark.parametrize("flag", ["--seed", "--stream"])
    def test_negative_seed_exits_2(self, capsys, flag):
        code, _, err = run(capsys, "figures", "1c", flag, "-1")
        assert code == 2
        assert err.startswith(f"error: {flag[2:]} must be an integer >= 0")

    def test_fractional_config_count_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 1.5}))
        code, _, err = run(capsys, "figures", "1c", "--config", str(cfg))
        assert code == 2
        assert "trials must be an integer" in err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"trials": True}, "trials must be an integer >= 1, got True"),
            ({"seed": False}, "seed must be an integer >= 0, got False"),
        ],
        ids=["trials", "seed"],
    )
    def test_boolean_config_count_exits_2(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(capsys, "figures", "1c", "--config", str(cfg)) == (2, "", f"error: {message}\n")

    def test_integral_float_config_count_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2.0, "seed": 9.0}))
        code, out, _ = run(capsys, "figures", "1c", "--config", str(cfg))
        assert code == 0
        assert "trials=2 " in out and "seed=9 " in out

    @pytest.mark.parametrize(
        "header, body, message",
        [
            ("# width=16 m=100000000000", ",".join("01" * 8),
             "line 3: header declared m=100000000000 but found 1 data rows"),
            ("# width=100000000000 m=1", "0,1",
             "line 2: expected 100000000000 comma-separated bits, got 2"),
        ],
    )
    def test_header_sizes_no_array_before_the_rows(self, tmp_path, capsys, header, body, message):
        path = tmp_path / "huge.csv"
        path.write_text(f"{header}\n{body}\n")
        code, out, err = run(capsys, "estimate", str(path), "--a", "0.75")
        assert (code, out, err) == (4, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"# width=2 m=3\n0,1\n1,\xff\n0,0\n", "line 3: row is not UTF-8 text"),
            (b"# width=2 m=3 note=\xff\n0,1\n1,1\n0,0\n", "line 1: header is not UTF-8 text"),
            # the first fault in file order, though a later line is not UTF-8
            (b"# width=2 m=4\n0,1\n1,2\n0,0\n\xff,1\n",
             "line 3: field 1 is '2', expected 0 or 1"),
        ],
        ids=["row", "header", "malformed-row-first"],
    )
    def test_corpus_that_is_not_utf8_exits_4_with_a_line(self, tmp_path, capsys, raw, message):
        path = tmp_path / "c.csv"
        for layout in (raw, raw.replace(b"\n", b"\r\n")):
            path.write_bytes(layout)
            for command in ("estimate", "randomize"):
                got = run(capsys, command, str(path), "--a", "0.75")
                assert got == (4, "", f"error: {message}\n"), command

    def test_wide_marginal_exits_5_before_any_allocation(self, tmp_path, monkeypatch, capsys):
        def no_allocation(*args, **kwargs):
            raise AssertionError("2^40 cells requested before the cell check")

        path = tmp_path / "wide.csv"
        write_corpus(path, ResponseCorpus(np.zeros((2, 40), dtype=np.uint8)))
        monkeypatch.setattr(estimator.np, "bincount", no_allocation)
        monkeypatch.setattr("bisymrr.corpus_io._cell_digits", no_allocation)
        code, out, err = run(capsys, "estimate", str(path), "--a", "0.75")
        assert (code, out, err) == (
            5, "", "error: a marginal on 40 bits has 2^40 cells, above the cap of 16777216\n"
        )

    @pytest.mark.parametrize(
        "extra, code, message",
        [
            ([], 5, "a marginal on 100000000000 bits has 2^100000000000 cells, "
                    "above the cap of 16777216"),
            (["--bits", "0"], 2, "empty corpus: cannot estimate from zero records"),
        ],
    )
    def test_empty_corpus_of_huge_width_builds_no_row_template(
        self, tmp_path, monkeypatch, capsys, extra, code, message
    ):
        def no_allocation(*args):
            raise AssertionError("row template built for an empty corpus")

        path = tmp_path / "wide.csv"
        monkeypatch.setattr(corpus_io, "_row_template", no_allocation)
        # blank lines after the header: a read sized by the width alone would not fit in memory
        for body in (b"", b"\n", b"\r\n\n"):
            path.write_bytes(b"# width=100000000000 m=0\n" + body)
            assert run(capsys, "estimate", str(path), "--a", "0.75", *extra) == (
                code, "", f"error: {message}\n"
            )
            assert run(capsys, "randomize", str(path), "--a", "0.75") == (
                0, "# width=100000000000 m=0 a=0.75 mechanism=direct:0.75 seed=0 stream=0\n", ""
            )

    @pytest.mark.parametrize("bits", ["", ",", "0,,1", "x"])
    def test_bits_that_name_no_positions_exit_2(self, tmp_path, monkeypatch, capsys, bits):
        def no_histogram(*args):
            raise AssertionError("histogram built from an unreadable --bits")

        path = truthful_corpus_file(tmp_path, PI, 20, 2)
        monkeypatch.setattr("bisymrr.cli.marginal_histogram", no_histogram)
        code, out, err = run(capsys, "estimate", str(path), "--a", "0.75", "--bits", bits)
        assert (code, out) == (2, "")
        assert err == f"error: --bits must be comma-separated bit positions, got {bits!r}\n"

    def test_figure_1a_width_cap_exits_5(self, monkeypatch, capsys):
        from bisymrr import figures

        def no_allocation(*args):
            raise AssertionError("2^n cells requested before the width check")

        monkeypatch.setattr(figures, "sample_flat_dirichlet", no_allocation)
        monkeypatch.setattr(figures, "apply_kernel", no_allocation)
        code, out, err = run(capsys, "figures", "1a", "--n", "40", "--pi", "dirichlet-flat")
        assert (code, out) == (5, "")
        assert err == "error: figure 1a at width 40 exceeds the cap of 16\n"

    def test_figure_1a_block_cap_exits_5(self, monkeypatch, capsys):
        from bisymrr import figures

        def no_allocation(*args, **kwargs):
            raise AssertionError("trial block allocated before the block check")

        monkeypatch.setattr(figures.np, "empty", no_allocation)
        code, out, err = run(capsys, "figures", "1a", "--trials", "10000000000")
        assert (code, out) == (5, "")
        assert err == (
            "error: figure 1a with 10000000000 trials at width 2 needs "
            "3 x 10000000000 x 2^2 cells, above the cap of 16777216\n"
        )

    def test_figures_a_and_mechanism_conflict(self, capsys):
        code, _, err = run(
            capsys, "figures", "2a", "--a", "0.75", "--mechanism", "warner:0.7"
        )
        assert code == 2
        assert usage_error_flags(err) == {"--a", "--mechanism"}


class TestBrokenPipe:
    def test_piped_reader_exiting_early_is_quiet(self):
        # a real process writing into a real pipe; head closes it after a line
        import shlex
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            f"{shlex.quote(sys.executable)} -m bisymrr figures 2a | head -n 1",
            shell=True,
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout == "# figure=2a n=1\n"
        assert "Exception ignored" not in proc.stderr
        assert "Traceback" not in proc.stderr


class TestBlasThreads:
    """A command process runs OpenBLAS on one thread unless its environment
    names a thread count, which it then leaves as it found it."""

    NAMES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    def child(self, argv, **names):
        """Run ``main(argv)`` in a fresh process whose environment sets only
        ``names`` of the three; return its exit code, its thread count, whether
        it loaded numpy and the three variables as it ends."""
        import subprocess
        import sys
        from pathlib import Path

        probe = (
            "import json, os, sys; from bisymrr.parser import main; code = main(sys.argv[1:]); "
            "status = open('/proc/self/status').read().split('Threads:')[1].split()[0]; "
            f"names = {self.NAMES!r}; "
            "print(json.dumps([code, int(status), 'numpy' in sys.modules, "
            "{n: os.environ.get(n) for n in names}]))"
        )
        env = {k: v for k, v in os.environ.items() if k not in self.NAMES}
        env.update(names, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        return json.loads(proc.stdout.splitlines()[-1])

    @pytest.fixture(autouse=True)
    def needs_proc(self):
        if not os.path.exists("/proc/self/status"):
            pytest.skip("no /proc/self/status to count threads in")

    @pytest.fixture
    def corpus(self, tmp_path):
        path = tmp_path / "lf.csv"
        path.write_text("# width=2 m=3 a=0.75\n0,1\n1,1\n0,0\n")
        return path

    def test_a_command_holds_one_thread(self, corpus, tmp_path):
        out = str(tmp_path / "estimate.csv")
        code, threads, numpy_loaded, names = self.child(["estimate", str(corpus), "--out", out])
        assert (code, threads, numpy_loaded) == (0, 1, True)
        assert names == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_count_the_user_sets_is_kept(self, corpus, tmp_path, name):
        out = str(tmp_path / "estimate.csv")
        code, _, _, names = self.child(["estimate", str(corpus), "--out", out], **{name: "2"})
        assert code == 0
        assert names == {n: "2" if n == name else None for n in self.NAMES}

    def test_help_loads_no_numpy_and_sets_nothing(self):
        code, _, numpy_loaded, names = self.child(["--help"])
        assert (code, numpy_loaded) == (0, False)
        assert names == dict.fromkeys(self.NAMES)


# Layouts the writer never produces but the reader accepts, each applied to a
# whole corpus file (header lines carry no commas).  Text mode already reads a
# CRLF file on disk as LF; the other two reach the reader's normalising step.
LAYOUTS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "blank-lines": lambda text: text.replace("\n", "\n\n"),
    "spaces": lambda text: text.replace(",", " ,\t").replace("\n", " \n  "),
}


class TestLenientInput:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_randomize_then_estimate_match_the_writers_layout(self, tmp_path, capsys, layout):
        def relaid(path):
            copy = tmp_path / f"{layout}-{path.name}"
            copy.write_bytes(LAYOUTS[layout](path.read_text()).encode())
            return copy

        def same_stdout(command, path, *flags):
            original = run(capsys, command, str(path), *flags)
            assert original[0] == 0
            assert run(capsys, command, str(relaid(path)), *flags) == original
            return original[1]

        plain, noisy = tmp_path / "plain.csv", tmp_path / "noisy.csv"
        write_corpus(plain, ResponseCorpus(np.random.default_rng(8).integers(0, 2, (500, 4))))
        noisy.write_text(same_stdout("randomize", plain, "--a", "0.75", "--seed", "3"))
        same_stdout("estimate", noisy)
        same_stdout("estimate", noisy, "--project")


class TestWarnings:
    def test_near_singular_estimate_warns_in_one_line(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        path = tmp_path / "near.csv"
        path.write_text("# width=2 m=3 a=0.5004\n0,1\n1,1\n0,0\n")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "bisymrr", "estimate", str(path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("# width=2 m=3 a=0.50039999999999996 bits=0,1 projected=0\n")
        assert proc.stderr == (
            "warning: a = 0.5004 is within 0.001 of 1/2; the inverse exists but is "
            "astronomically ill-conditioned and estimates from it will be statistically useless\n"
        )


    def test_warning_raised_as_an_error_exits_2_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "near.csv"
        path.write_text("# width=2 m=3 a=0.5004\n0,1\n1,1\n0,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "estimate", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: a = 0.5004 is within 0.001 of 1/2; the inverse exists but is "
            "astronomically ill-conditioned and estimates from it will be statistically useless\n"
        )


# Output of the non-figure commands, byte for byte; figure datasets are pinned
# by the committed files under out/.
PINNED = [
    (("matrix", "0.75", "1", "--inverse"), "1.5,-0.5\n-0.5,1.5\n"),
    (
        ("loss", "--a", "0.75", "--n", "4", "--s", "0.1"),
        "key,value\n"
        "a,0.75\n"
        "c,39.0625\n"
        "s,0.10000000000000001\n"
        "trace_cov,38.962499999999999\n"
        "loss_L,43.291666666666664\n"
        "loss_floor,41.600000000000001\n"
        "loss_approx,44.137500000000003\n"
        "approx_quality,0.0020823956854546829\n",
    ),
    (
        ("privacy", "--a", "0.8", "--n", "3"),
        "key,value\n"
        "a,0.80000000000000004\n"
        "ratio,4.0000000000000009\n"
        "epsilon_per_bit,1.3862943611198908\n"
        "epsilon_total,4.1588830833596724\n"
        "k,3\n"
        "n,3\n"
        "s,0.125\n"
        "c_at_alpha,6.7393689986282546\n"
        "loss_at_alpha,7.5592788555751484\n",
    ),
    (
        ("estimate", "--a", "0.75", "--bits", "0,1", "CORPUS"),
        "# width=2 m=3 a=0.75 bits=0,1 projected=0\n"
        "pattern,estimate\n"
        "00,-0.41666666666666669\n"
        "10,-0.083333333333333343\n"
        "01,1.25\n"
        "11,0.25\n",
    ),
]


class TestPinnedBytes:
    @pytest.fixture
    def corpus(self, tmp_path):
        path = tmp_path / "c3.csv"
        path.write_text("# width=2 m=3\n0,1\n1,1\n0,1\n")
        return str(path)

    @pytest.mark.parametrize("argv, text", PINNED, ids=[argv[0] for argv, _ in PINNED])
    def test_stdout(self, capsys, corpus, argv, text):
        argv = [corpus if arg == "CORPUS" else arg for arg in argv]
        assert run(capsys, *argv) == (0, text, "")

    def test_randomize_header(self, capsys, corpus):
        code, out, _ = run(capsys, "randomize", corpus, "--mechanism", "rappor:f=0.5,q=0.75")
        assert code == 0
        assert out.splitlines()[0] == (
            "# width=2 m=3 a=0.625 mechanism=rappor:f=0.5,q=0.75 seed=0 stream=0"
        )

    @pytest.mark.parametrize(
        "flags, header",
        [
            (("--mechanism", "direct:0.75"), "a=0.75 mechanism=direct:0.75"),
            (
                ("--mechanism", "warner:0.7"),
                "a=0.69999999999999996 mechanism=warner:0.69999999999999996",
            ),
            (
                ("--mechanism", "unrelated:0.3"),
                "a=0.84999999999999998 mechanism=unrelated:0.29999999999999999",
            ),
            (
                ("--mechanism", "rappor1:0.45"),
                "a=0.77500000000000002 mechanism=rappor1:0.45000000000000001",
            ),
            (("--mechanism", "rappor:f=0.5,q=0.75"), "a=0.625 mechanism=rappor:f=0.5,q=0.75"),
            (
                ("--mechanism", "rappor:f=0.5,q=0.7,p=0.3"),
                "a=0.59999999999999998 mechanism=rappor:f=0.5,q=0.69999999999999996",
            ),
            (
                ("--mechanism", "Rappor: q=0.7 , f=0.25"),
                "a=0.64999999999999991 mechanism=rappor:f=0.25,q=0.69999999999999996",
            ),
            (("--a", "0.8"), "a=0.80000000000000004 mechanism=direct:0.80000000000000004"),
        ],
    )
    def test_randomize_mechanism_header(self, capsys, corpus, flags, header):
        code, out, _ = run(capsys, "randomize", corpus, *flags, "--seed", "3")
        assert code == 0
        assert out.splitlines()[0] == f"# width=2 m=3 {header} seed=3 stream=0"
