"""Dataset parsing, cosine similarity, and rank correlation."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cakit.ca import EmbeddingSet
from cakit.evaluation import (
    EvalReport,
    WordSimDataset,
    _ranks,
    cosine,
    evaluate,
    load_wordsim,
    spearman,
)
from cakit.kca import fit_kca, method_from_name
from cakit.tables import ContingencyTable


# The per-pair loop and sort-based ranking that evaluate and spearman
# replaced, kept as the exact reference for the vectorised code.
def reference_average_ranks(xs) -> list[float]:
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0  # ranks are 1-based
        for idx in order[i : j + 1]:
            ranks[idx] = avg
        i = j + 1
    return ranks


def reference_spearman(xs, ys) -> float:
    rx = reference_average_ranks(xs)
    ry = reference_average_ranks(ys)
    mean = (len(xs) + 1) / 2.0
    dx = [r - mean for r in rx]
    dy = [r - mean for r in ry]
    num = math.fsum(a * b for a, b in zip(dx, dy))
    den = math.sqrt(math.fsum(a * a for a in dx) * math.fsum(b * b for b in dy))
    return num / den


def reference_evaluate(e, which, d) -> EvalReport:
    labels, coords = e.coordinates(which)
    index = {lbl: i for i, lbl in enumerate(labels)}
    sims, human, skipped = [], [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # one zero-vector warning per pair
        for a, b, score in d.triples:
            if a not in index or b not in index:
                skipped += 1
                continue
            sims.append(cosine(coords[index[a]], coords[index[b]]))
            human.append(score)
    return EvalReport(reference_spearman(sims, human), len(sims), skipped)


class TestLoadWordsim:
    def test_space_separated(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("movie theater 7.92\n")
        d = load_wordsim(path)
        assert d.triples == (("movie", "theater", 7.92),)

    def test_tab_and_comma(self, tmp_path):
        for sep in ("\t", ","):
            path = tmp_path / "ws.txt"
            path.write_text(f"cat{sep}dog{sep}5.0\nsun{sep}moon{sep}3.5\n")
            d = load_wordsim(path)
            assert len(d) == 2
            assert d.triples[0] == ("cat", "dog", 5.0)

    def test_duplicate_unordered_pairs_averaged(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("cat dog 4\ndog cat 6\n")
        d = load_wordsim(path)
        assert d.triples == (("cat", "dog", 5.0),)

    def test_words_lowercased(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("Cat DOG 4\n")
        assert d0(load_wordsim(path)) == ("cat", "dog")

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "ws.csv"
        path.write_text("Word 1,Word 2,Human (mean)\ncat,dog,5\n")
        d = load_wordsim(path)
        assert d.triples == (("cat", "dog", 5.0),)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("cat dog 5\nbird fish notanumber\n")
        with pytest.raises(ValueError, match=":2"):
            load_wordsim(path)

    def test_short_line_rejected(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("cat 5\n")
        with pytest.raises(ValueError, match="word_a word_b score"):
            load_wordsim(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_score_rejected_naming_line(self, tmp_path, bad):
        path = tmp_path / "ws.txt"
        path.write_text(f"cat dog 5\nbird fish {bad}\n")
        with pytest.raises(ValueError, match=rf"ws\.txt:2: score '{bad}' is not finite"):
            load_wordsim(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="no usable lines"):
            load_wordsim(path)


def d0(dataset):
    a, b, _ = dataset.triples[0]
    return (a, b)


class TestCosine:
    def test_parallel(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_45_degrees(self):
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_zero_vector_warns_and_returns_zero(self):
        with pytest.warns(UserWarning, match="zero vector"):
            assert cosine([0.0, 0.0], [1.0, 0.0]) == 0.0


class TestSpearman:
    def test_identical_rankings(self):
        assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == pytest.approx(1.0, abs=1e-15)

    def test_reversed_rankings(self):
        assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0, abs=1e-15)

    def test_hand_value(self):
        # d = (0, 1, 1, 0): 1 - 6*2/(4*15) = 0.8
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)

    def test_matches_rank_difference_formula_exhaustively(self):
        # tie-free permutations of length <= 5, all of them, bit-for-bit
        for m in range(2, 6):
            xs = list(range(1, m + 1))
            denom = m * (m * m - 1)
            for perm in itertools.permutations(xs):
                d2 = sum((a - b) ** 2 for a, b in zip(xs, perm))
                expected = float(1 - Fraction(6 * d2, denom))
                assert spearman(xs, list(perm)) == expected

    def test_matches_formula_on_sampled_longer_permutations(self):
        rng = np.random.default_rng(157)
        for m in (6, 7, 8):
            xs = list(range(1, m + 1))
            denom = m * (m * m - 1)
            for _ in range(200):
                perm = list(rng.permutation(xs))
                d2 = sum((a - b) ** 2 for a, b in zip(xs, perm))
                expected = float(1 - Fraction(int(6 * d2), denom))
                assert spearman(xs, perm) == expected

    def test_ties_use_average_ranks(self):
        # ys ties at positions 1 and 2 share rank 2.5
        rho = spearman([1.0, 2.0, 3.0, 4.0], [1.0, 5.0, 5.0, 8.0])
        assert rho == pytest.approx(0.9486832980505138, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(163)
        xs = list(rng.normal(size=12))
        ys = list(rng.normal(size=12))
        base = spearman(xs, ys)
        assert spearman([np.exp(x) for x in xs], ys) == base
        assert spearman(xs, [y**3 for y in ys]) == base

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_constant_list_is_an_error(self):
        with pytest.raises(ValueError, match="constant"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ValueError, match="two"):
            spearman([1.0], [2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_an_error(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            spearman([1, 2, 3, 4], [bad, 1, 2, 3])
        with pytest.raises(ValueError, match="non-finite"):
            spearman([1, bad, 3, 4], [4, 1, 2, 3])

    def test_ranks_match_reference_on_heavy_ties(self):
        rng = np.random.default_rng(179)
        for m in (2, 3, 10, 57, 400):
            for levels in (1, 2, 5, m):
                steps = rng.integers(levels, size=m)
                for xs in (steps * 0.5 - 1.0, 1.0 + steps * 2.0**-52):  # adjacent floats
                    assert _ranks(xs).tolist() == reference_average_ranks(list(xs))

    def test_matches_reference_bit_for_bit_on_heavy_ties(self):
        rng = np.random.default_rng(181)
        for m in (2, 5, 30, 500):
            for _ in range(20):
                xs = list(rng.integers(4, size=m) / 3.0)
                ys = list(rng.integers(max(2, m // 3), size=m) - 7.25)
                if min(xs) == max(xs) or min(ys) == max(ys):
                    continue
                assert spearman(xs, ys) == reference_spearman(xs, ys)


def one_hot_embeddings(labels):
    m = len(labels)
    return EmbeddingSet(
        F=np.eye(m),
        G=np.eye(m),
        row_labels=tuple(labels),
        col_labels=tuple(labels),
        singular_values=np.ones(m),
        method_tag="onehot",
    )


class TestEvaluate:
    def test_one_hot_rows_rank_perfectly(self, tmp_path):
        # identical words -> cosine 1, distinct -> 0; scores ordered the same way
        emb = one_hot_embeddings(["a", "b", "c"])
        path = tmp_path / "ws.txt"
        path.write_text("a a 10\nb b 10\na b 1\nb c 1\n")
        report = evaluate(emb, "F", load_wordsim(path))
        assert report.spearman_rho == pytest.approx(1.0, abs=1e-12)
        assert report.pairs_used == 4
        assert report.pairs_skipped == 0

    def test_oov_pairs_skipped_and_counted(self, tmp_path):
        emb = one_hot_embeddings(["a", "b"])
        path = tmp_path / "ws.txt"
        path.write_text("a a 10\na b 2\na zebra 5\nyak b 3\n")
        report = evaluate(emb, "F", load_wordsim(path))
        assert report.pairs_used == 2
        assert report.pairs_skipped == 2

    def test_used_plus_skipped_is_dataset_size(self, tmp_path):
        emb = one_hot_embeddings(["a", "b", "c"])
        path = tmp_path / "ws.txt"
        path.write_text("a b 3\nb c 1\na zebra 5\na a 9\n")
        d = load_wordsim(path)
        report = evaluate(emb, "F", d)
        assert report.pairs_used + report.pairs_skipped == len(d)

    def test_all_oov_is_an_error(self, tmp_path):
        emb = one_hot_embeddings(["a", "b"])
        path = tmp_path / "ws.txt"
        path.write_text("x y 3\ny z 1\n")
        with pytest.raises(ValueError, match="zero usable pairs"):
            evaluate(emb, "F", load_wordsim(path))

    def test_invariant_to_uniform_rescaling(self, tmp_path):
        rng = np.random.default_rng(167)
        labels = tuple("abcdef")
        F = rng.normal(size=(6, 3))
        emb = EmbeddingSet(
            F=F, G=F.copy(), row_labels=labels, col_labels=labels,
            singular_values=np.ones(3), method_tag="x",
        )
        scaled = EmbeddingSet(
            F=7.0 * F, G=F.copy(), row_labels=labels, col_labels=labels,
            singular_values=np.ones(3), method_tag="x",
        )
        path = tmp_path / "ws.txt"
        path.write_text("a b 3\nb c 9\nc d 1\nd e 5\ne f 2\n")
        d = load_wordsim(path)
        assert evaluate(emb, "F", d) == evaluate(scaled, "F", d)

    def test_matches_reference_with_oov_and_zero_rows(self):
        # Pairs of distinct words with distinct rows: a self pair or two equal
        # rows has cosine 1 only up to rounding, and the two implementations
        # round differently, so such near-ties may rank in another order.
        rng = np.random.default_rng(191)
        labels = tuple(f"w{i}" for i in range(60))
        for _ in range(5):
            F = rng.normal(size=(60, 4))
            F[rng.choice(60, size=6, replace=False)] = 0.0
            emb = EmbeddingSet(F=F, G=-F, row_labels=labels, col_labels=labels,
                               singular_values=np.ones(4), method_tag="x")
            words = list(labels) + ["oov1", "oov2", "oov3"]
            triples = tuple(
                (words[a], words[b], float(rng.integers(5)))
                for a, b in (rng.choice(len(words), size=2, replace=False) for _ in range(300))
            )
            d = WordSimDataset(triples)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = evaluate(emb, "F", d)
            want = reference_evaluate(emb, "F", d)
            assert (got.pairs_used, got.pairs_skipped) == (want.pairs_used, want.pairs_skipped)
            assert got.pairs_skipped > 0
            assert abs(got.spearman_rho - want.spearman_rho) <= 1e-12

    def test_identical_rows_tie_at_cosine_one(self):
        # 60 seeded rows, 12 of them copies of others, and zero rows: every
        # self pair and copy pair ties at exactly 1, a zero pair stays 0
        rng = np.random.default_rng(211)
        labels = tuple(f"w{i}" for i in range(60))
        F = rng.normal(size=(60, 5)) * rng.uniform(0.1, 10.0, size=(60, 1))
        F[48:] = F[:12]
        F[[20, 21]] = 0.0
        emb = EmbeddingSet(F=F, G=F, row_labels=labels, col_labels=labels,
                           singular_values=np.ones(5), method_tag="x")
        idx = np.r_[np.arange(60), rng.integers(60, size=(200,))]
        jdx = np.r_[np.arange(60), rng.integers(60, size=(200,))]
        idx[60:72], jdx[60:72] = np.arange(12), np.arange(48, 60)  # copy pairs
        triples = tuple((labels[a], labels[b], float(rng.integers(10)))
                        for a, b in zip(idx, jdx))
        d = WordSimDataset(triples)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want_sims = [cosine(F[a], F[b]) for a, b in zip(idx, jdx)]
            got = evaluate(emb, "F", d)
        same = (F[idx] == F[jdx]).all(axis=1) & F[idx].any(axis=1)
        assert same.sum() >= 58 + 12
        want_sims = np.where(same, 1.0, want_sims)
        assert got.spearman_rho == reference_spearman(want_sims.tolist(),
                                                       [s for _, _, s in triples])

    def test_sgns_zero_rows_warn_once_with_count(self, tmp_path):
        # SGNS with shift_k=5 zeroes every row but the first of this 3x3 table
        t = ContingencyTable.from_counts(
            np.array([[1.0, 0, 0], [0, 20, 20], [0, 20, 20]]), list("abc"), list("abc")
        )
        emb = fit_kca(t, method_from_name("sgns", shift_k=5.0), None)
        assert not emb.F[1:].any() and emb.F[0].any()
        path = tmp_path / "ws.txt"
        path.write_text("a a 10\na b 2\nb c 4\nc c 1\n")
        d = load_wordsim(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = evaluate(emb, "F", d)
        assert [str(w.message) for w in caught] == [
            "3 of 4 pairs involve a zero vector; their cosine is 0"
        ]
        assert report == reference_evaluate(emb, "F", d)

    def test_g_side_selects_column_coordinates(self, tmp_path):
        rng = np.random.default_rng(173)
        labels = tuple("abcd")
        emb = EmbeddingSet(
            F=rng.normal(size=(4, 2)),
            G=rng.normal(size=(4, 2)),
            row_labels=labels,
            col_labels=labels,
            singular_values=np.ones(2),
            method_tag="x",
        )
        path = tmp_path / "ws.txt"
        path.write_text("a b 3\nb c 9\nc d 1\n")
        d = load_wordsim(path)
        f_report = evaluate(emb, "F", d)
        g_report = evaluate(emb, "G", d)
        assert isinstance(f_report, EvalReport)
        assert f_report != g_report


def test_dataset_must_not_be_empty():
    with pytest.raises(ValueError, match="empty"):
        WordSimDataset(())
