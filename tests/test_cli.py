"""Command-line pipeline: count -> fit -> eval, plus the demo subcommand."""

import numpy as np
import pytest

from cakit import ca, tables
from cakit.cli import FIT_OPTIONS, main, parse_method_config


@pytest.fixture
def fisher_tsv(tmp_path):
    from cakit.datasets import fisher_table

    path = tmp_path / "fisher.tsv"
    tables.write_tsv(fisher_table(), path)
    return str(path)


class TestCount:
    def test_tiny_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b a\n")
        out = tmp_path / "table.tsv"
        rc = main(["count", str(corpus), "--window", "1", "--out", str(out)])
        assert rc == 0
        t = tables.read_tsv(out)
        assert t.row_labels == ("a", "b")
        np.testing.assert_array_equal(t.counts, [[0, 2], [2, 0]])
        assert capsys.readouterr().out.strip() == str(out)

    def test_slice_uses_token_prefix(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text(" ".join(["a", "b"] * 5))  # 10 tokens
        out = tmp_path / "table.tsv"
        rc = main(["count", str(corpus), "--window", "1", "--slice", "20", "--out", str(out)])
        assert rc == 0
        t = tables.read_tsv(out)  # first 2 tokens: a b
        assert t.n == 2

    def test_missing_file_fails_with_message(self, tmp_path, capsys):
        rc = main(["count", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "t.tsv")])
        assert rc != 0
        assert "error" in capsys.readouterr().err

    def test_min_count_filters(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a a a a b a a rare a b b b\n")
        out = tmp_path / "table.tsv"
        rc = main(["count", str(corpus), "--min-count", "2", "--out", str(out)])
        assert rc == 0
        assert "rare" not in tables.read_tsv(out).row_labels


class TestFit:
    def test_linear_fit_writes_embeddings(self, fisher_tsv, tmp_path, capsys):
        out = tmp_path / "emb.tsv"
        rc = main(["fit", fisher_tsv, "--method", "linear", "--dim", "2", "--out", str(out)])
        assert rc == 0
        emb = ca.read_embeddings(out)
        assert emb.k == 2
        assert emb.method_tag == "linear_ca"
        assert len(emb.row_labels) == 4 and len(emb.col_labels) == 5
        err = capsys.readouterr().err
        assert "config: method=linear" in err

    def test_sgns_fit(self, fisher_tsv, tmp_path):
        out = tmp_path / "emb.tsv"
        rc = main([
            "fit", fisher_tsv, "--method", "sgns", "--shift-k", "5",
            "--dim", "2", "--out", str(out),
        ])
        assert rc == 0
        assert ca.read_embeddings(out).method_tag == "sgns(k=5)"

    def test_invalid_method_is_usage_error(self, fisher_tsv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fit", fisher_tsv, "--method", "nope", "--out", str(tmp_path / "e.tsv")])
        assert exc.value.code == 2

    def test_config_file_with_flag_override(self, fisher_tsv, tmp_path, capsys):
        cfg = tmp_path / "method.cfg"
        cfg.write_text("method=sgns\nshift_k=2\ndim=3\n")
        out = tmp_path / "emb.tsv"
        rc = main([
            "fit", fisher_tsv, "--config", str(cfg), "--shift-k", "7", "--out", str(out),
        ])
        assert rc == 0
        emb = ca.read_embeddings(out)
        assert emb.method_tag == "sgns(k=7)"  # flag wins over config file
        assert emb.k == 3  # config file survives where no flag given
        assert "config: shift_k=7.0" in capsys.readouterr().err

    def test_stopword_kernel_fit(self, fisher_tsv, tmp_path):
        sw = tmp_path / "sw.txt"
        sw.write_text("blue\nfair\n")
        out = tmp_path / "emb.tsv"
        rc = main([
            "fit", fisher_tsv, "--method", "linear", "--dim", "2",
            "--sw-alpha-row", "-0.5", "--sw-alpha-col", "-0.5",
            "--stopwords", str(sw), "--out", str(out),
        ])
        assert rc == 0
        assert ca.read_embeddings(out).method_tag == "linear+sw"

    def test_stopword_alpha_without_list_fails(self, fisher_tsv, tmp_path, capsys):
        rc = main([
            "fit", fisher_tsv, "--method", "linear", "--dim", "2",
            "--sw-alpha-row", "-0.5", "--out", str(tmp_path / "e.tsv"),
        ])
        assert rc == 1
        assert "stop-word list" in capsys.readouterr().err

    def test_ws_fit_requires_scores(self, fisher_tsv, tmp_path, capsys):
        rc = main([
            "fit", fisher_tsv, "--method", "ws", "--dim", "2",
            "--out", str(tmp_path / "e.tsv"),
        ])
        assert rc == 1
        assert "pair-score" in capsys.readouterr().err

    def test_ws_fit_with_scores(self, fisher_tsv, tmp_path):
        scores = tmp_path / "scores.txt"
        scores.write_text("blue light 8.0\nmedium dark 6.5\n")
        out = tmp_path / "emb.tsv"
        rc = main([
            "fit", fisher_tsv, "--method", "ws", "--dim", "2",
            "--ws-scores", str(scores), "--ws-alpha", "-0.01", "--out", str(out),
        ])
        assert rc == 0
        assert ca.read_embeddings(out).method_tag == "ws"

    def test_ws_fit_applies_stopword_kernel(self, fisher_tsv, tmp_path):
        scores = tmp_path / "scores.txt"
        scores.write_text("blue light 8.0\nmedium dark 6.5\n")
        sw = tmp_path / "sw.txt"
        sw.write_text("blue\nfair\n")
        base = ["fit", fisher_tsv, "--method", "ws", "--dim", "2", "--ws-scores", str(scores)]
        fits = {}
        for alpha in (None, "0", "-0.5"):
            out = tmp_path / f"emb{alpha}.tsv"
            flags = [] if alpha is None else [
                "--sw-alpha-row", alpha, "--sw-alpha-col", alpha, "--stopwords", str(sw)]
            assert main(base + flags + ["--out", str(out)]) == 0
            fits[alpha] = ca.read_embeddings(out)
        assert fits[None].method_tag == "ws"
        assert fits["0"].method_tag == fits["-0.5"].method_tag == "ws+sw"
        scale = np.abs(fits[None].F).max()
        np.testing.assert_allclose(fits["0"].F, fits[None].F, atol=1e-10 * scale)
        assert np.abs(fits["-0.5"].F - fits[None].F).max() > 1e-3 * scale

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("exponent", ["nan", "-1000"])  # S**-1000 overflows
    def test_non_finite_fit_writes_no_file(self, fisher_tsv, tmp_path, capsys, exponent):
        out = tmp_path / "e.tsv"
        rc = main(["fit", fisher_tsv, "--dim", "2", "--exponent", exponent, "--out", str(out)])
        assert rc == 1
        assert "NaN or infinite" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_is_byte_deterministic(self, fisher_tsv, tmp_path):
        out1 = tmp_path / "e1.tsv"
        out2 = tmp_path / "e2.tsv"
        for out in (out1, out2):
            assert main([
                "fit", fisher_tsv, "--method", "gtest", "--dim", "3",
                "--exponent", "0.5", "--out", str(out),
            ]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestEval:
    @pytest.fixture
    def embeddings(self, fisher_tsv, tmp_path):
        out = tmp_path / "emb.tsv"
        main(["fit", fisher_tsv, "--method", "linear", "--dim", "2", "--out", str(out)])
        return str(out)

    def test_three_datasets_three_rows(self, embeddings, tmp_path, capsys):
        paths = []
        for i, text in enumerate([
            "blue light 8\nmedium dark 6\nblue dark 2\n",
            "light medium 5\nblue medium 4\nlight dark 1\n",
            "blue blue 10\nblue light 6\nmedium dark 5\nlight dark 2\n",
        ]):
            p = tmp_path / f"ws{i}.txt"
            p.write_text(text)
            paths.append(str(p))
        args = ["eval", embeddings]
        for p in paths:
            args += ["--wordsim", p]
        rc = main(args)
        assert rc == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert out_lines[0] == "method\tdataset\trho\tused\tskipped"
        assert len(out_lines) == 4
        for line in out_lines[1:]:
            cells = line.split("\t")
            assert cells[0] == "linear_ca"
            assert -1.0 <= float(cells[2]) <= 1.0

    def test_oov_dataset_marked_error_others_survive(self, embeddings, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text("blue light 8\nmedium dark 6\nblue dark 2\n")
        bad = tmp_path / "bad.txt"
        bad.write_text("zebra yak 5\nyak emu 2\n")
        rc = main([
            "eval", embeddings, "--wordsim", str(good), "--wordsim", str(bad),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 3
        assert lines[2].split("\t")[2] == "error"
        assert "zero usable pairs" in captured.err
        assert float(lines[1].split("\t")[2]) is not None  # good row stays numeric

    def test_non_finite_score_marked_error(self, embeddings, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("blue light 8\nmedium dark nan\nblue dark 2\n")
        rc = main(["eval", embeddings, "--wordsim", str(bad)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].split("\t")[2:] == ["error", "0", "0"]
        assert "bad.txt:2: score 'nan' is not finite" in captured.err

    def test_deterministic_output(self, embeddings, tmp_path):
        ws = tmp_path / "ws.txt"
        ws.write_text("blue light 8\nmedium dark 6\nblue dark 2\n")
        out1 = tmp_path / "r1.tsv"
        out2 = tmp_path / "r2.tsv"
        assert main(["eval", embeddings, "--wordsim", str(ws), "--out", str(out1)]) == 0
        assert main(["eval", embeddings, "--wordsim", str(ws), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("header", ["4\t5", "4\t5\t2\tlinear_ca\t0.5", "4\t5\t2\tx\tnan\t0.1"])
    def test_malformed_embeddings_exit_1_with_error(self, embeddings, tmp_path, capsys, header):
        lines = open(embeddings, encoding="utf-8").read().splitlines()
        bad = tmp_path / "bad_emb.tsv"
        bad.write_text("\n".join([header] + lines[1:]) + "\n")
        ws = tmp_path / "ws.txt"
        ws.write_text("blue light 8\nmedium dark 6\nblue dark 2\n")
        rc = main(["eval", str(bad), "--wordsim", str(ws)])
        assert rc == 1
        assert "error: " in capsys.readouterr().err

    def test_g_side(self, embeddings, tmp_path, capsys):
        ws = tmp_path / "ws.txt"
        ws.write_text("fair red 8\nmedium dark 6\nfair black 2\n")
        rc = main(["eval", embeddings, "--which", "G", "--wordsim", str(ws)])
        assert rc == 0


class TestDemo:
    def test_demo_prints_summary_and_exports(self, tmp_path, capsys):
        out = tmp_path / "coords.csv"
        rc = main(["demo-fisher", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "n\t5387" in stdout
        assert "r\t718\t1580\t1774\t1315" in stdout
        assert "c\t1455\t286\t2137\t1391\t118" in stdout
        assert "gini_row\t0.364089" in stdout
        assert "rotated_covariance" in stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4 + 5


class TestMethodConfig:
    def test_parse_round_trip(self):
        text = """
        # fit configuration
        method=sgns
        shift_k=5
        dim=100
        exponent=0.5
        """
        config = parse_method_config(text)
        assert config == {"method": "sgns", "shift_k": 5.0, "dim": 100, "exponent": 0.5}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration key"):
            parse_method_config("methd=linear")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_method_config("method linear")

    def test_string_keys_preserved(self):
        config = parse_method_config("stopwords=sw.txt\nws_scores=men.tsv")
        assert config == {"stopwords": "sw.txt", "ws_scores": "men.tsv"}


# option -> (value, flags that make the value take effect); {sw} and {scores}
# name the stop-word list and pair-score file of the test directory
OPTION_CASES = {
    "method": ("gini", []),
    "dim": ("2", []),
    "shift_k": ("3", ["--method", "sgns"]),
    "sw_alpha_row": ("-0.5", ["--stopwords", "{sw}"]),
    "sw_alpha_col": ("-0.5", ["--stopwords", "{sw}"]),
    "ws_alpha": ("-0.01", ["--method", "ws", "--ws-scores", "{scores}"]),
    "ws_beta": ("0.5", ["--method", "ws", "--ws-scores", "{scores}"]),
    "exponent": ("0.5", ["--method", "gtest"]),
    "kpca_alpha": ("-0.3", ["--method", "kpca_cd"]),
    "stopwords": ("{sw}", ["--sw-alpha-row", "-0.5"]),
    "ws_scores": ("{scores}", ["--method", "ws"]),
}


class TestFitOptions:
    def test_cases_cover_every_option(self):
        assert set(OPTION_CASES) == set(FIT_OPTIONS)

    @pytest.mark.parametrize("key", list(OPTION_CASES))
    def test_flag_and_config_entry_fit_alike(self, fisher_tsv, tmp_path, capsys, key):
        files = {"sw": tmp_path / "sw.txt", "scores": tmp_path / "scores.txt"}
        files["sw"].write_text("blue\nfair\n")
        files["scores"].write_text("blue light 8.0\nmedium dark 6.5\n")
        value, flags = OPTION_CASES[key]
        value = value.format(**files)
        base = ["fit", fisher_tsv, *(f.format(**files) for f in flags)]
        cfg = tmp_path / "m.cfg"
        cfg.write_text(f"# one option\n{key}={value}\n")
        runs = []
        for name, extra in (("flag", ["--" + key.replace("_", "-"), value]),
                            ("cfg", ["--config", str(cfg)])):
            out = tmp_path / f"{name}.tsv"
            assert main(base + extra + ["--out", str(out)]) == 0
            err = capsys.readouterr().err
            runs.append(([ln for ln in err.splitlines() if ln.startswith("config:")],
                         out.read_bytes()))
        (flag_echo, flag_bytes), (cfg_echo, cfg_bytes) = runs
        assert f"config: {key}=" in "\n".join(flag_echo)
        assert flag_echo == cfg_echo
        assert flag_bytes == cfg_bytes

    @pytest.mark.parametrize("line, message", [
        ("method linear", "expected key=value"),
        ("methd=linear", "unknown configuration key 'methd'"),
        ("dim=abc", "dim: invalid int value 'abc'"),
        ("shift_k=x", "shift_k: invalid float value 'x'"),
        ("method=nope", "method: invalid choice 'nope'"),
    ])
    def test_config_errors_name_file_and_line(self, fisher_tsv, tmp_path, capsys,
                                              line, message):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(f"# fit options\nexponent=0.5\n{line}\n")
        out = tmp_path / "e.tsv"
        assert main(["fit", fisher_tsv, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:3: {message}")
        assert "config:" not in err  # rejected before the configuration echo
        assert not out.exists()
