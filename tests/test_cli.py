"""Command-line pipeline: count -> fit -> eval, plus the demo subcommand."""

import dataclasses
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cakit
from cakit import ca, evaluation, kca, tables
from cakit.cli import FIT_OPTIONS, _read_method_config, build_parser, main, parse_method_config

README = Path(__file__).resolve().parents[1] / "README.md"


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

    def test_leading_byte_order_mark_is_not_part_of_the_first_word(self, tmp_path):
        outs = []
        for encoding in ("utf-8", "utf-8-sig"):
            corpus = tmp_path / f"{encoding}.txt"
            corpus.write_text("cat dog cat sun\n", encoding=encoding)
            outs.append(tmp_path / f"{encoding}.tsv")
            assert main(["count", str(corpus), "--window", "1", "--out", str(outs[-1])]) == 0
        assert tables.read_tsv(outs[1]).row_labels == ("cat", "dog", "sun")
        assert outs[0].read_bytes() == outs[1].read_bytes()

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

    def test_ws_fit_builds_one_pair_score_matrix_for_shared_labels(
            self, fisher_tsv, tmp_path, monkeypatch):
        corpus, table = tmp_path / "c.txt", tmp_path / "table.tsv"
        corpus.write_text("a b c a d b c a b d c a " * 5)
        assert main(["count", str(corpus), "--window", "2", "--out", str(table)]) == 0
        scores = tmp_path / "scores.txt"
        scores.write_text("a b 8.0\nc d 6.5\nblue light 3\nfair red 2\n")
        methods = []

        def fit_kca(t, m, k):
            methods.append(m)
            return fit(t, m, k)

        fit = kca.fit_kca
        monkeypatch.setattr(kca, "fit_kca", fit_kca)
        for path in (str(table), fisher_tsv):
            assert main(["fit", path, "--method", "ws", "--dim", "2", "--ws-scores", str(scores),
                         "--out", str(tmp_path / "emb.tsv")]) == 0
        shared, fisher = methods
        assert shared.gamma_row is shared.gamma_col
        assert fisher.gamma_row is not fisher.gamma_col
        assert (fisher.gamma_row.shape, fisher.gamma_col.shape) == ((4, 4), (5, 5))
        # the one array fits as two equal arrays do, byte for byte
        t = tables.read_tsv(table)
        two = dataclasses.replace(shared, gamma_col=shared.gamma_row.copy())
        for m, out in ((shared, "one.tsv"), (two, "two.tsv")):
            ca.write_embeddings(fit(t, m, 2), tmp_path / out)
        assert (tmp_path / "one.tsv").read_bytes() == (tmp_path / "two.tsv").read_bytes()

    @pytest.mark.parametrize("text", ["blue light 8.0\nmedium dark -12.5\n",
                                      "blue\tlight\t8.0\nmedium\tdark\t-12.5\n"],
                             ids=["space", "tab"])
    def test_ws_alpha_default_is_a_tenth_over_the_largest_absolute_score(
            self, fisher_tsv, tmp_path, capsys, text):
        scores = tmp_path / "scores.txt"
        scores.write_text(text)
        out = tmp_path / "emb.tsv"
        assert main(["fit", fisher_tsv, "--method", "ws", "--dim", "2",
                     "--ws-scores", str(scores), "--out", str(out)]) == 0
        max_score = max(abs(s) for _, _, s in evaluation.load_wordsim(scores).triples)
        assert f"config: ws_alpha defaulted to {0.1 / max_score:g}\n" in capsys.readouterr().err
        assert f"{0.1 / max_score:g}" == "0.008"

    @pytest.mark.parametrize("method", ["ws", "gini"])
    def test_fit_applies_stopword_kernel(self, fisher_tsv, tmp_path, method):
        scores = tmp_path / "scores.txt"
        scores.write_text("blue light 8.0\nmedium dark 6.5\n")
        sw = tmp_path / "sw.txt"
        sw.write_text("blue\nfair\n")
        base = ["fit", fisher_tsv, "--method", method, "--dim", "2"]
        if method == "ws":
            base += ["--ws-scores", str(scores)]
        fits = {}
        for alpha in (None, "0", "-0.5"):
            out = tmp_path / f"emb{alpha}.tsv"
            flags = [] if alpha is None else [
                "--sw-alpha-row", alpha, "--sw-alpha-col", alpha, "--stopwords", str(sw)]
            assert main(base + flags + ["--out", str(out)]) == 0
            fits[alpha] = ca.read_embeddings(out)
        assert fits[None].method_tag == method
        assert fits["0"].method_tag == fits["-0.5"].method_tag == f"{method}+sw"
        scale = np.abs(fits[None].F).max()
        np.testing.assert_allclose(fits["0"].F, fits[None].F, atol=1e-10 * scale)
        assert np.abs(fits["-0.5"].F - fits[None].F).max() > 1e-3 * scale

    @pytest.mark.parametrize("flag, words", [
        ("--sw-alpha-row", "BLUE\nFAIR\n"),  # the table's labels are lowercase
        ("--sw-alpha-col", "blue\n"),  # a row label only
    ], ids=["row", "column"])
    def test_stopword_list_matching_no_label_fails(self, fisher_tsv, tmp_path, capsys,
                                                   flag, words):
        sw = tmp_path / "sw.txt"
        sw.write_text(words)
        out = tmp_path / "e.tsv"
        rc = main(["fit", fisher_tsv, flag, "-0.9", "--stopwords", str(sw), "--out", str(out)])
        assert rc == 1
        assert f"error: {sw}: no stop word is a " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pairs", [
        "cat dog 8.0\nfoo bar 2.0\n",
        "blue fair 8.0\n",  # a row label with a column label
    ], ids=["unknown-words", "across-axes"])
    def test_pair_file_matching_no_labels_fails(self, fisher_tsv, tmp_path, capsys, pairs):
        scores = tmp_path / "scores.txt"
        scores.write_text(pairs)
        out = tmp_path / "e.tsv"
        rc = main(["fit", fisher_tsv, "--method", "ws", "--ws-scores", str(scores),
                   "--out", str(out)])
        assert rc == 1
        assert f"error: {scores}: no pair has both words among the row labels" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--exponent", "nan"], "exponent must be finite, got nan"),
        (["--exponent=inf"], "exponent must be finite, got inf"),
        (["--exponent=-inf"], "exponent must be finite, got -inf"),
        (["--exponent", "-1000"],  # S**-1000 overflows
         "singular values to the power exponent=-1000.0 are not finite"),
        (["--method", "sgns", "--shift-k", "1000", "--exponent", "-1"],  # S is 0
         "singular values to the power exponent=-1.0 are not finite"),
        (["--method", "sgns", "--shift-k", "inf"], "sgns shift_k must be finite and > 0, got inf"),
        (["--method", "sgns", "--shift-k", "nan"], "sgns shift_k must be finite and > 0, got nan"),
        (["--method", "gini", "--sw-alpha-row", "nan", "--stopwords", "{sw}"],
         "stop-word alpha must be finite, got nan"),
        (["--sw-alpha-row", "inf", "--stopwords", "{sw}"],
         "stop-word alpha must be finite, got inf"),
        (["--sw-alpha-col", "nan", "--stopwords", "{sw}"],
         "stop-word alpha must be finite, got nan"),
        (["--method", "ws", "--ws-scores", "{scores}", "--ws-alpha", "nan"],
         "pair-score alpha must be finite, got nan"),
        (["--method", "ws", "--ws-scores", "{scores}", "--ws-alpha", "inf"],
         "pair-score alpha must be finite, got inf"),
    ], ids=["nan", "inf", "-inf", "-1000", "sgns zero S", "shift_k inf", "shift_k nan",
            "sw_alpha_row nan", "sw_alpha_row inf", "sw_alpha_col nan", "ws_alpha nan",
            "ws_alpha inf"])
    def test_non_finite_fit_writes_no_file(self, fisher_tsv, tmp_path, capsys, flags, message):
        sw, scores = tmp_path / "sw.txt", tmp_path / "scores.txt"
        sw.write_text("blue\nfair\n")
        scores.write_text("blue light 8.0\n")
        out = tmp_path / "e.tsv"
        argv = ["fit", fisher_tsv, "--dim", "2", *flags, "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([arg.format(sw=sw, scores=scores) for arg in argv])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if not line.startswith("config: ")] == [f"error: {message}"]
        assert not out.exists()
        # a parameter is checked before any arithmetic, and S**p before F and G
        assert not caught

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
        assert f"{bad}: zero usable pairs" in captured.err
        assert float(lines[1].split("\t")[2]) is not None  # good row stays numeric

    def test_non_finite_score_marked_error(self, embeddings, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("blue light 8\nmedium dark nan\nblue dark 2\n")
        rc = main(["eval", embeddings, "--wordsim", str(bad)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].split("\t")[2:] == ["error", "0", "0"]
        assert "bad.txt:2: score 'nan' is not finite" in captured.err

    @pytest.mark.parametrize("text, message", [
        (None, "No such file or directory"),
        ("blue light 5\nmedium dark 5\nblue dark 5\n", "rank correlation is undefined"),
    ], ids=["missing-file", "constant-scores"])
    def test_a_failed_dataset_is_named_once(self, embeddings, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.txt"
        if text is not None:
            bad.write_text(text)
        assert main(["eval", embeddings, "--wordsim", str(bad)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert err.count(str(bad)) == 1

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
        lines = Path(embeddings).read_text(encoding="utf-8").splitlines()
        bad = tmp_path / "bad_emb.tsv"
        bad.write_text("\n".join([header] + lines[1:]) + "\n")
        ws = tmp_path / "ws.txt"
        ws.write_text("blue light 8\nmedium dark 6\nblue dark 2\n")
        rc = main(["eval", str(bad), "--wordsim", str(ws)])
        assert rc == 1
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["F", "G"])
    def test_a_col_row_file_reports_the_bytes_of_its_column_points(self, tmp_path, which):
        corpus = tmp_path / "c.txt"
        corpus.write_text("the cat sat on the mat and the dog sat on a log by the cat\n" * 3
                          + "a dog and a cat on the mat\n")
        table, emb_path = tmp_path / "t.tsv", tmp_path / "emb.tsv"
        assert main(["count", str(corpus), "--window", "2", "--out", str(table)]) == 0
        assert main(["fit", str(table), "--dim", "3", "--out", str(emb_path)]) == 0
        lines = emb_path.read_text(encoding="utf-8").splitlines()
        assert lines[-1].startswith("col=row\t")
        # the same set with its column points, as every file was written before
        emb = ca.read_embeddings(emb_path)
        points = tmp_path / "points.tsv"
        points.write_text("".join(line + "\n" for line in lines[:-1]) + "".join(
            "\t".join(["col", label, *map(repr, row)]) + "\n"
            for label, row in zip(emb.col_labels, emb.G.tolist())), encoding="utf-8")
        ws = tmp_path / "ws.txt"
        ws.write_text("cat dog 8\nmat log 6\ncat mat 2\nthe a 5\nsat on 3\n")
        reports = []
        for path in (emb_path, points):
            reports.append(tmp_path / f"{path.stem}.report")
            assert main(["eval", str(path), "--which", which, "--wordsim", str(ws),
                         "--out", str(reports[-1])]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()

    def test_zero_vector_warning_is_one_plain_stderr_line(self, tmp_path, capsys):
        F = np.array([[1.0, 0.0], [0.0, 0.0], [0.6, 0.8]])
        emb = ca.EmbeddingSet(F=F, G=F, row_labels=("a", "b", "c"), col_labels=("a", "b", "c"),
                              singular_values=np.array([2.0, 1.0]), method_tag="sgns(k=5)")
        path = tmp_path / "emb.tsv"
        ca.write_embeddings(emb, path)
        ws = tmp_path / "ws.txt"
        ws.write_text("a b 1\na c 2\nb c 3\n")
        assert main(["eval", str(path), "--wordsim", str(ws)]) == 0
        assert capsys.readouterr().err == (
            "warning: 2 of 3 pairs involve a zero vector; their cosine is 0\n")

    def test_unexpected_error_writes_no_report(self, embeddings, tmp_path, monkeypatch):
        ws = tmp_path / "ws.txt"
        ws.write_text("blue light 8\nmedium dark 6\nblue dark 2\n")
        real = evaluation.evaluate
        calls = []

        def evaluate_once(*args):
            calls.append(args)
            if len(calls) > 1:
                raise RuntimeError("interrupted")
            return real(*args)

        monkeypatch.setattr(evaluation, "evaluate", evaluate_once)
        out = tmp_path / "r.tsv"
        with pytest.raises(RuntimeError):
            main(["eval", embeddings, "--wordsim", str(ws), "--wordsim", str(ws),
                  "--out", str(out)])
        assert not out.exists()  # not a header and one row of two

    def test_failed_report_write_keeps_the_earlier_report(self, embeddings, tmp_path,
                                                           monkeypatch, capsys):
        ws = tmp_path / "ws.txt"
        ws.write_text("blue light 8\nmedium dark 6\nblue dark 2\n")
        out = tmp_path / "r.tsv"
        assert main(["eval", embeddings, "--wordsim", str(ws), "--out", str(out)]) == 0
        before, files = out.read_bytes(), sorted(tmp_path.iterdir())

        def refuse(src, dst):
            raise OSError(5, "rename refused", str(dst))

        monkeypatch.setattr(os, "replace", refuse)
        rc = main(["eval", embeddings, "--wordsim", str(ws), "--wordsim", str(ws),
                   "--out", str(out)])
        assert rc == 1
        assert "rename refused" in capsys.readouterr().err
        assert out.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == files

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


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf", b"\xef", b"\xef\xbb"],
                         ids=["no BOM", "BOM", "EF", "EF BB"])
@pytest.mark.parametrize("kind", ["table", "corpus", "stopwords", "embeddings", "pairs", "config"])
def test_a_byte_that_is_not_utf8_names_path_and_line(fisher_tsv, tmp_path, capsys, kind, bom):
    emb, pairs, out = tmp_path / "emb.tsv", tmp_path / "pairs.txt", str(tmp_path / "out.tsv")
    assert main(["fit", fisher_tsv, "--dim", "2", "--out", str(emb)]) == 0
    pairs.write_text("blue light 8\nmedium dark 6\nblue dark 2\n")
    good = {"table": Path(fisher_tsv).read_bytes(), "corpus": b"the cat\nsat on\nthe mat\n",
            "stopwords": b"the\nof\nblue\n", "embeddings": emb.read_bytes(),
            "pairs": pairs.read_bytes(), "config": b"# gini\nmethod=gini\ndim=2\n"}[kind]
    bad = tmp_path / f"{kind}.txt"
    if 0 < len(bom) < 3:  # the start of a BOM alone, which a UTF-8-sig decoder would drop
        bad.write_bytes(bom)
        where = f"{bad}:1: byte 0xef"
    else:
        # the Latin-1 e-acute opens line 3; line 1 ends in CR LF and line 2 in a lone CR
        first, second, rest = good.split(b"\n", 2)
        bad.write_bytes(bom + first + b"\r\n" + second + b"\r\xe9" + rest)
        where = f"{bad}:3: byte 0xe9"
    argv = {"table": ["fit", bad, "--out", out],
            "corpus": ["count", bad, "--out", out],
            "stopwords": ["fit", fisher_tsv, "--sw-alpha-row", "1", "--stopwords", bad,
                          "--out", out],
            "embeddings": ["eval", bad, "--wordsim", pairs],
            "pairs": ["eval", emb, "--wordsim", bad],
            "config": ["fit", fisher_tsv, "--config", bad, "--out", out]}[kind]
    capsys.readouterr()
    assert main(list(map(str, argv))) == 1
    err = capsys.readouterr().err
    assert f"{where} is not UTF-8\n" in err
    if kind == "pairs":  # the reader's error names the file; eval adds no second path
        assert err.count(str(bad)) == 1
    assert not os.path.exists(out)


def test_text_drops_a_byte_order_mark_and_ends_lines_as_text_mode_does(tmp_path):
    # CR LF and a lone CR become LF; a form feed or U+0085 is no line break
    path = tmp_path / "breaks.txt"
    path.write_bytes("\ufeffa\r\nb\rc\n\x0cd\x85e\r\r\n".encode())
    assert tables._read_text(path) == "a\nb\nc\n\x0cd\x85e\n\n"
    path.write_bytes(b"\xef\xbb\xbf")
    assert tables._read_text(path) == "" and cakit.load_stopwords(path) == set()


def test_module_runs_count_fit_eval_in_a_fresh_interpreter(tmp_path, monkeypatch):
    # `python -m cakit.cli` from a directory outside the checkout: it imports
    # src/ when the suite does, the installed copy when that is what the suite
    # imports; each file equals the one `main` writes in this process
    src = str(Path(cakit.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    rng = np.random.default_rng(1)
    words = [f"w{i:02d}" for i in range(30)]
    corpus = " ".join(rng.choice(words, size=3000)) + "\n"
    pairs = "".join(f"{a} {b} {s:.2f}\n"
                    for a, b, s in zip(words, words[3:], rng.uniform(0, 10, size=27)))
    steps = [["count", "corpus.txt", "--window", "2", "--out", "table.tsv"],
             ["fit", "table.tsv", "--method", "ws", "--ws-scores", "pairs.txt", "--dim", "5",
              "--out", "ws.tsv"],
             ["eval", "ws.tsv", "--wordsim", "pairs.txt", "--out", "report.tsv"]]
    for where in ("module", "main"):
        (tmp_path / where).mkdir()
        (tmp_path / where / "corpus.txt").write_text(corpus)
        (tmp_path / where / "pairs.txt").write_text(pairs)
    for argv in steps:
        subprocess.run([sys.executable, "-m", "cakit.cli", *argv], cwd=tmp_path / "module",
                       env=env, check=True, capture_output=True, timeout=120)
    monkeypatch.chdir(tmp_path / "main")
    for argv in steps:
        assert main(argv) == 0
    for name in ("table.tsv", "ws.tsv", "report.tsv"):
        assert (tmp_path / "module" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()
    assert int((tmp_path / "main" / "report.tsv").read_text().split("\t")[-2]) == 27


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

    def test_lines_end_at_lf_only(self, fisher_tsv, tmp_path, capsys):
        # a form feed, say, is no line break: the second line is still line 2
        cfg = tmp_path / "cfg.txt"
        for text, message in (
                ("# note\x0c\nbogus=1\n", "2: unknown configuration key 'bogus'"),
                ("method=gini\x0cdim=2\nbogus=1\n",
                 "1: method: invalid choice 'gini\\x0cdim=2' (choose from "
                 + ", ".join(FIT_OPTIONS["method"][3]["choices"]) + ")")):
            cfg.write_text(text)
            assert main(["fit", fisher_tsv, "--config", str(cfg), "--out",
                         str(tmp_path / "out.tsv")]) == 1
            assert capsys.readouterr().err == f"error: {cfg}:{message}\n"

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
    "exponent": ("0.5", ["--method", "gtest"]),
    "stopwords": ("{sw}", ["--sw-alpha-row", "-0.5"]),
    "ws_scores": ("{scores}", ["--method", "ws"]),
}

# option -> (value, flags of a fit that does not read it, the error)
UNREAD_CASES = {
    "shift_k": ("3", ["--method", "linear"], "method linear does not read shift_k"),
    "ws_alpha": ("-0.01", ["--method", "kpca_cd"], "method kpca_cd does not read ws_alpha"),
    "ws_scores": ("{scores}", ["--method", "gini"], "method gini does not read ws_scores"),
    "sw_alpha_row": ("-0.5", ["--method", "kpca_cd", "--stopwords", "{sw}"],
                     "method kpca_cd does not read sw_alpha_row"),
    "stopwords": ("{sw}", ["--method", "ws", "--ws-scores", "{scores}"],
                  "without sw_alpha_row or sw_alpha_col the fit does not read stopwords"),
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

    def test_config_file_behind_a_byte_order_mark_fits_like_the_flag(self, fisher_tsv,
                                                                      tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("method=linear\n", encoding="utf-8-sig")
        assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
        runs = []
        for name, extra in (("flag", ["--method", "linear"]), ("cfg", ["--config", str(cfg)])):
            out = tmp_path / f"{name}.tsv"
            assert main(["fit", fisher_tsv, *extra, "--out", str(out)]) == 0
            runs.append((capsys.readouterr().err, out.read_bytes()))
        assert runs[0] == runs[1]
        assert "config: method=linear\n" in runs[1][0]

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

    @pytest.mark.parametrize("route", ["flag", "cfg"])
    @pytest.mark.parametrize("key", list(UNREAD_CASES))
    def test_option_the_fit_does_not_read_stops_the_run(self, fisher_tsv, tmp_path, capsys,
                                                        key, route):
        value, flags, why = UNREAD_CASES[key]
        files = {"sw": tmp_path / "sw.txt", "scores": tmp_path / "scores.txt"}
        files["sw"].write_text("blue\nfair\n")
        files["scores"].write_text("blue light 8.0\nmedium dark 6.5\n")
        value = value.format(**files)
        argv = ["fit", fisher_tsv, *(f.format(**files) for f in flags)]
        if route == "flag":
            argv += ["--" + key.replace("_", "-"), value]
        else:
            cfg = tmp_path / "m.cfg"
            cfg.write_text(f"{key}={value}\n")
            argv += ["--config", str(cfg)]
        out = tmp_path / "e.tsv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {why}\n"  # before the configuration echo
        assert not out.exists()

    def test_sw_alpha_row_is_read_by_every_fit_but_kpca_cd(self):
        # a stop-word alpha weights an identity or inverse-marginal kernel,
        # never kpca_cd's row kernel
        assert FIT_OPTIONS["sw_alpha_row"][2] == ("linear", "gini", "gtest", "sgns", "ws")
        assert FIT_OPTIONS["sw_alpha_col"][2] == kca.ASSOCIATIONS

    def test_read_by_sets_are_kcas(self):
        # a method-specific option is read by the methods kca.READ_BY names,
        # a pair-score option by those that read the pair-score matrices
        every_fit = ("method", "dim", "exponent")
        pair_scores = ("ws_alpha", "ws_scores")
        for key, (_, _, read_by, _) in FIT_OPTIONS.items():
            if key in every_fit:
                assert read_by == kca.ASSOCIATIONS
            elif key == "stopwords":
                assert read_by == ("sw_alpha_row", "sw_alpha_col")
            else:
                assert read_by == kca.READ_BY["gamma_row" if key in pair_scores else key]

    def test_kpca_cd_fits_with_a_column_stopword_alpha(self, fisher_tsv, tmp_path, capsys):
        sw = tmp_path / "sw.txt"
        sw.write_text("fair\ndark\n")
        embs = {}
        for method in ("kpca_cd", "gini"):
            out = tmp_path / f"{method}.tsv"
            assert main(["fit", fisher_tsv, "--method", method, "--sw-alpha-col", "0.5",
                         "--stopwords", str(sw), "--dim", "2", "--out", str(out)]) == 0
            embs[method] = ca.read_embeddings(out)
        assert "config: sw_alpha_row" not in capsys.readouterr().err
        assert embs["kpca_cd"].method_tag == "kpca_cd+sw"
        # the kpca_cd row kernel stays: the fit is the gini one rescaled
        np.testing.assert_allclose(embs["kpca_cd"].singular_values,
                                   np.sqrt(1.0 - np.exp(-1.0)) * embs["gini"].singular_values,
                                   rtol=1e-12)

    def test_kpca_cd_and_gini_give_the_same_eval_report(self, tmp_path, capsys):
        # on the centred residual the kpca_cd kernel only rescales the gini
        # fit, so every cosine, and every eval column, is gini's
        rng = np.random.default_rng(41)
        words = [f"w{i:02d}" for i in range(40)]
        corpus, pairs, table = tmp_path / "c.txt", tmp_path / "pairs.txt", tmp_path / "t.tsv"
        corpus.write_text(" ".join(rng.choice(words, size=4000)) + "\n")
        scores = rng.uniform(0, 10, size=len(words) - 3)
        pairs.write_text("".join(f"{a} {b} {s:.2f}\n"
                                 for a, b, s in zip(words, words[3:], scores)))
        assert main(["count", str(corpus), "--out", str(table)]) == 0
        reports = {}
        for method in ("kpca_cd", "gini"):
            emb = tmp_path / f"{method}.tsv"
            assert main(["fit", str(table), "--method", method, "--dim", "5",
                         "--out", str(emb)]) == 0
            capsys.readouterr()
            for which in ("F", "G"):
                assert main(["eval", str(emb), "--which", which, "--wordsim", str(pairs)]) == 0
                (row,) = capsys.readouterr().out.splitlines()[1:]
                reports[method, which] = row.split("\t")[2:]  # rho, used, skipped
        for which in ("F", "G"):
            assert reports["kpca_cd", which] == reports["gini", which]
            assert int(reports["gini", which][1]) == len(scores)

    @pytest.mark.parametrize("how", ["flag", "cfg"])
    @pytest.mark.parametrize("key, flags", [
        ("kpca_alpha", ["--method", "kpca_cd"]),
        ("ws_beta", ["--method", "ws", "--ws-scores", "{scores}"]),
    ], ids=["kpca_alpha", "ws_beta"])
    def test_kpca_alpha_and_ws_beta_are_not_options(self, fisher_tsv, tmp_path, capsys,
                                                    key, flags, how):
        # the kpca_cd alpha and a constant pair score are no options: a flag
        # is a usage error, a configuration key an unknown one
        scores = tmp_path / "scores.txt"
        scores.write_text("blue light 8.0\n")
        argv = ["fit", fisher_tsv, *(f.format(scores=scores) for f in flags)]
        out = tmp_path / "e.tsv"
        if how == "flag":
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--" + key.replace("_", "-"), "2", "--out", str(out)])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        else:
            cfg = tmp_path / "m.cfg"
            cfg.write_text(f"{key}=-0.3\n")
            assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: {cfg}:1: unknown configuration key '{key}'\n")
        assert not out.exists()

    def test_every_unread_option_is_named(self, fisher_tsv, tmp_path, capsys):
        out = tmp_path / "e.tsv"
        rc = main(["fit", fisher_tsv, "--ws-alpha", "5", "--shift-k", "9", "--ws-scores", "s.txt",
                   "--stopwords", str(tmp_path / "missing.txt"), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: method linear does not read shift_k, ws_alpha, ws_scores; "
            "without sw_alpha_row or sw_alpha_col the fit does not read stopwords\n")
        assert not out.exists()

    @pytest.mark.parametrize("method, echo", [
        ("linear", ["dim=2", "exponent=1.0", "method=linear"]),
        ("sgns", ["dim=2", "exponent=1.0", "method=sgns", "shift_k=1.0"]),
        ("kpca_cd", ["dim=2", "exponent=1.0", "method=kpca_cd"]),
    ], ids=["linear", "sgns", "kpca_cd"])
    def test_echo_lists_the_options_the_fit_reads(self, fisher_tsv, tmp_path, capsys,
                                                  method, echo):
        out = tmp_path / "e.tsv"
        assert main(["fit", fisher_tsv, "--method", method, "--dim", "2", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert [ln for ln in err.splitlines() if ln.startswith("config:")] == [
            f"config: {line}" for line in echo]


def readme_commands():
    """Every ``cakit ...`` command of the README's "Command line" block, continuations joined."""
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```", 2)[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("cakit ")]


class TestReadme:
    def test_command_lines_parse_and_pass_the_option_check(self, capsys):
        commands = readme_commands()
        assert len(commands) == 7
        for argv in commands:
            args = build_parser().parse_args(argv)
            if argv[0] == "fit":
                assert args.config is None
                _read_method_config(args)  # raises on an option the fit does not read

    def test_library_quick_start_runs_and_gives_its_stated_variance(self):
        text = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
        block = text.split("```python\n", 1)[1].split("```", 1)[0]
        stated = re.search(r'^gini_variance\(t, "row"\) +# (0\.\d{6}) ', block, re.M).group(1)
        namespace = {}
        exec(block, namespace)
        variance = namespace["gini_variance"](namespace["t"], "row")
        assert f"{variance:.6f}" == stated == "0.364089"
