"""Acceptance suite: every shipped guarantee, one test per criterion.

Each criterion pins its tolerance here; the conftest hook prints a
per-criterion pass/fail line at the end of the run.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cakit.ca import read_embeddings
from cakit.cli import main
from cakit.corpus import CooccurrenceConfig, count_cooccurrences
from cakit.datasets import fisher_table
from cakit.evaluation import cosine, evaluate, load_wordsim, spearman
from cakit.gini import brute_force_covariance, gini_variance, rotated_covariance
from cakit.kca import KcaMethod, association_matrix, fit_kca, method_from_name
from cakit.linalg import nuclear_norm
from cakit.tables import ContingencyTable, contingency_from_observations, residual_matrix


# --- shared generators -------------------------------------------------------


def random_integer_table(rng, max_dim=6, hi=12):
    counts = rng.integers(0, hi, size=(rng.integers(2, max_dim + 1), rng.integers(2, max_dim + 1)))
    counts = counts + 0.0
    counts[0, 0] += 1
    return ContingencyTable.from_counts(counts)


def planted_corpus(rng, n_tokens=50000, block=20, cluster_size=10, leak=0.0,
                   n_noise=0, noise_rate=0.0, attach_p=0.35):
    """Two word clusters emitted in topic blocks, optionally interleaved with
    high-frequency noise words attached to random content words."""
    clusters = [
        [f"a{i:02d}" for i in range(cluster_size)],
        [f"b{i:02d}" for i in range(cluster_size)],
    ]
    noise = [f"n{i:02d}" for i in range(n_noise)]
    content = clusters[0] + clusters[1]
    attach = {w: [nw for nw in noise if rng.random() < attach_p] for w in content}
    tokens = []
    topic = 0
    while len(tokens) < n_tokens:
        words = clusters[topic]
        for _ in range(block):
            source = clusters[1 - topic] if rng.random() < leak else words
            w = source[rng.integers(cluster_size)]
            tokens.append(w)
            if attach[w] and rng.random() < noise_rate:
                tokens.append(attach[w][rng.integers(len(attach[w]))])
        topic = 1 - topic
    return tokens[:n_tokens], clusters, noise


def planted_pairs(clusters):
    """Within-cluster pairs score 10, cross-cluster pairs score 1."""
    pairs = []
    for cluster in clusters:
        for a, b in itertools.combinations(cluster, 2):
            pairs.append((a, b, 10.0))
    for a in clusters[0]:
        for b in clusters[1]:
            pairs.append((a, b, 1.0))
    return pairs


def pair_cosines(emb, pairs):
    index = {lbl: i for i, lbl in enumerate(emb.row_labels)}
    return [cosine(emb.F[index[a]], emb.F[index[b]]) for a, b, _ in pairs]


# --- criteria ----------------------------------------------------------------


def test_criterion_01_survey_marginals_exact(capsys):
    start = time.monotonic()
    assert main(["demo-fisher", "--out", "/tmp/cakit_fisher_coords.csv"]) == 0
    out = capsys.readouterr().out
    assert "n\t5387" in out
    assert "r\t718\t1580\t1774\t1315" in out
    assert "c\t1455\t286\t2137\t1391\t118" in out
    assert time.monotonic() - start < 1.0


def test_criterion_02_gini_variance_closed_form_and_pairwise():
    t = fisher_table()
    value = gini_variance(t, "row")
    assert value == pytest.approx(0.364089, abs=1e-5)
    # closed form equals the pairwise disagreement count, bit for bit
    n = int(t.n)
    disagree = n * n - sum(int(m) ** 2 for m in t.r)
    assert value == float(Fraction(disagree, 2 * n * n))


def test_criterion_03_rotated_covariance_identities():
    start = time.monotonic()
    rng = np.random.default_rng(307)
    for _ in range(100):
        nr = int(rng.integers(2, 7))
        nc = int(rng.integers(2, 7))
        n_obs = int(rng.integers(20, 201))
        obs = [
            (f"r{rng.integers(nr)}", f"c{rng.integers(nc)}") for _ in range(n_obs)
        ]
        t = contingency_from_observations(obs)
        rot = rotated_covariance(t)
        assert rot.value == pytest.approx(
            0.5 * nuclear_norm(residual_matrix(t)), abs=1e-10
        )
        assert rot.value == pytest.approx(
            brute_force_covariance(obs, rot.rotation), abs=1e-12
        )
    assert time.monotonic() - start < 10.0


def test_criterion_04_ca_metric_constraints_on_survey_table():
    t = fisher_table()
    dec = fit_kca(t, KcaMethod("linear"), 2).decomposition
    k = dec.S.shape[0]
    np.testing.assert_allclose(
        dec.U.T @ np.diag(1.0 / t.r) @ dec.U, np.eye(k), atol=1e-8
    )
    np.testing.assert_allclose(
        dec.V.T @ np.diag(1.0 / t.c) @ dec.V, np.eye(k), atol=1e-8
    )
    np.testing.assert_allclose(dec.reconstruct(), residual_matrix(t), atol=1e-8)


def test_criterion_05_independence_null_case():
    rng = np.random.default_rng(311)
    for _ in range(10):
        row = rng.integers(1, 9, size=rng.integers(2, 6))
        col = rng.integers(1, 9, size=rng.integers(2, 6))
        t = ContingencyTable.from_counts(np.outer(row, col) + 0.0)
        emb = fit_kca(t, KcaMethod("linear"), min(t.shape))
        assert np.all(emb.singular_values < 1e-12)
        assert abs(rotated_covariance(t).value) < 1e-12


def test_criterion_06_kernel_reductions():
    rng = np.random.default_rng(313)
    tables = [fisher_table()] + [
        ContingencyTable.from_counts(rng.integers(1, 15, size=(5, 4)) + 0.0)
        for _ in range(5)
    ]
    for t in tables:
        k = min(t.shape) - 1
        base = fit_kca(t, KcaMethod("linear"), k)
        # stop-word kernel at alpha 0 is exactly the linear CA kernel
        sw = method_from_name(
            "linear",
            stopwords=set(t.row_labels[:1]) | set(t.col_labels[:1]),
            sw_alpha_row=0.0,
            sw_alpha_col=0.0,
        )
        emb_sw = fit_kca(t, sw, k)
        np.testing.assert_allclose(emb_sw.F, base.F, atol=1e-10)
        np.testing.assert_allclose(emb_sw.G, base.G, atol=1e-10)
        # flat pair scores reproduce the linear CA geometry up to global scale
        nr, nc = t.shape
        emb_ws = fit_kca(t, method_from_name("ws", gamma_row=np.ones((nr, nr)),
                                             gamma_col=np.ones((nc, nc))), k)
        for ws_coords, base_coords in ((emb_ws.F, base.F), (emb_ws.G, base.G)):
            cw = np.array([[cosine(u, v) for v in ws_coords] for u in ws_coords])
            cb = np.array([[cosine(u, v) for v in base_coords] for u in base_coords])
            np.testing.assert_allclose(cw, cb, atol=1e-8)


def test_criterion_07_sgns_association_oracle():
    rng = np.random.default_rng(317)
    for _ in range(100):
        t = random_integer_table(rng)
        N, r, c, n = t.counts, t.r, t.c, t.n
        previous = None
        for k in (1.0, 2.0, 5.0):
            A = association_matrix(t, KcaMethod("sgns", shift_k=k)).values
            expected = np.zeros_like(N)
            for i in range(N.shape[0]):
                for j in range(N.shape[1]):
                    if N[i, j] > 0:
                        pmi = math.log((N[i, j] * n) / (r[i] * c[j]))
                        expected[i, j] = max(pmi - math.log(k), 0.0)
            np.testing.assert_allclose(A, expected, atol=1e-12)
            if previous is not None:
                assert np.all(A <= previous + 1e-15)  # monotone in the shift
            previous = A


def test_criterion_08_gtest_statistic_oracle():
    rng = np.random.default_rng(331)
    for _ in range(100):
        t = random_integer_table(rng)  # zero cells occur routinely
        A = association_matrix(t, KcaMethod("gtest")).values
        g_from_association = 2.0 * t.n * float(A.sum())
        N, r, c, n = t.counts, t.r, t.c, t.n
        g_classical = 2.0 * math.fsum(
            N[i, j] * math.log(N[i, j] / (r[i] * c[j] / n))
            for i in range(N.shape[0])
            for j in range(N.shape[1])
            if N[i, j] > 0
        )
        assert g_from_association == pytest.approx(g_classical, abs=1e-9)
        assert g_from_association >= -1e-9


def test_criterion_09_spearman_closed_form_oracle():
    # exhaustive over every permutation up to length 5, sampled to length 8
    for m in range(2, 6):
        xs = list(range(1, m + 1))
        denominator = m * (m * m - 1)
        for perm in itertools.permutations(xs):
            d2 = sum((a - b) ** 2 for a, b in zip(xs, perm))
            assert spearman(xs, list(perm)) == float(1 - Fraction(6 * d2, denominator))
    rng = np.random.default_rng(337)
    for m in (6, 7, 8):
        xs = list(range(1, m + 1))
        denominator = m * (m * m - 1)
        for _ in range(300):
            perm = list(rng.permutation(xs))
            d2 = sum((a - b) ** 2 for a, b in zip(xs, perm))
            assert spearman(xs, perm) == float(1 - Fraction(int(6 * d2), denominator))


def test_criterion_10_planted_structure_end_to_end(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(211)
    tokens, clusters, _ = planted_corpus(rng)

    corpus_path = tmp_path / "planted.txt"
    corpus_path.write_text(" ".join(tokens))
    table_path = tmp_path / "planted.tsv"
    emb_path = tmp_path / "planted_emb.tsv"
    assert main(["count", str(corpus_path), "--window", "2", "--out", str(table_path)]) == 0
    assert main(["fit", str(table_path), "--method", "linear", "--dim", "10",
                 "--out", str(emb_path)]) == 0
    emb = read_embeddings(emb_path)

    pairs = planted_pairs(clusters)
    dataset_path = tmp_path / "planted_pairs.tsv"
    dataset_path.write_text("".join(f"{a}\t{b}\t{s}\n" for a, b, s in pairs))
    report = evaluate(emb, "F", load_wordsim(dataset_path))
    assert report.pairs_skipped == 0
    assert report.spearman_rho > 0.8

    sims = pair_cosines(emb, pairs)
    within = np.array([s for s, (_, _, h) in zip(sims, pairs) if h == 10.0])
    cross = np.array([s for s, (_, _, h) in zip(sims, pairs) if h == 1.0])
    exceed_fraction = float((within[:, None] > cross[None, :]).mean())
    assert exceed_fraction >= 0.9
    assert time.monotonic() - start < 30.0


def test_criterion_11_corpus_scale_pipeline_and_stopword_tuning(tmp_path):
    # Part 1: the corpus-scale configuration (20% slice, 100-dim fits, the
    # stop-word kernel, multi-dataset evaluation) runs end to end.
    rng = np.random.default_rng(401)
    vocab = [f"w{i:03d}" for i in range(140)]
    topics = [vocab[20 * t : 20 * (t + 1)] for t in range(7)]
    tokens = []
    while len(tokens) < 60000:
        topic = topics[rng.integers(7)]
        tokens.extend(topic[i] for i in rng.integers(20, size=15))
    corpus_path = tmp_path / "big.txt"
    corpus_path.write_text(" ".join(tokens[:60000]))

    table_path = tmp_path / "big.tsv"
    assert main(["count", str(corpus_path), "--window", "2", "--slice", "20",
                 "--out", str(table_path)]) == 0

    sw_path = tmp_path / "sw.txt"
    sw_path.write_text("".join(f"{w}\n" for w in vocab[:10]))

    dataset_paths = []
    for d in range(3):
        lines = []
        for _ in range(30):
            a, b = rng.choice(140, size=2, replace=False)
            lines.append(f"{vocab[a]}\t{vocab[b]}\t{rng.uniform(0, 10):.2f}\n")
        path = tmp_path / f"ws{d}.tsv"
        path.write_text("".join(lines))
        dataset_paths.append(str(path))

    for fit_args, tag in [
        (["--method", "linear"], "linear_ca"),
        (["--method", "sgns", "--shift-k", "5"], "sgns(k=5)"),
        (["--method", "linear", "--sw-alpha-row", "-0.5", "--sw-alpha-col", "-0.5",
          "--stopwords", str(sw_path)], "linear+sw"),
        (["--method", "gtest"], "gtest"),
    ]:
        emb_path = tmp_path / f"emb_{tag.replace('(', '').replace(')', '')}.tsv"
        assert main(["fit", str(table_path), "--dim", "100", "--out", str(emb_path)]
                    + fit_args) == 0
        emb = read_embeddings(emb_path)
        assert emb.k == 100
        assert emb.method_tag == tag
        report_path = tmp_path / f"report_{tag[:6]}.tsv"
        eval_args = ["eval", str(emb_path), "--which", "G", "--out", str(report_path)]
        for p in dataset_paths:
            eval_args += ["--wordsim", p]
        assert main(eval_args) == 0
        rows = report_path.read_text().strip().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            assert -1.0 <= float(row.split("\t")[2]) <= 1.0

    # Part 2: on the planted corpus with injected high-frequency noise words,
    # a stop-word alpha tuned on a held-out split does not score below the
    # alpha = 0 baseline on the evaluation split.
    rng = np.random.default_rng(701)
    tokens, clusters, noise = planted_corpus(
        rng, block=4, leak=0.3, n_noise=6, noise_rate=0.8
    )
    table = count_cooccurrences(tokens, CooccurrenceConfig(window=2))
    pairs = planted_pairs(clusters)
    tune_split = pairs[0::2]
    eval_split = pairs[1::2]

    def rho_for(alpha, split):
        if alpha == 0.0:
            emb = fit_kca(table, KcaMethod("linear"), 10)
        else:
            m = method_from_name(
                "linear", stopwords=set(noise), sw_alpha_row=alpha, sw_alpha_col=alpha
            )
            emb = fit_kca(table, m, 10)
        sims = pair_cosines(emb, split)
        return spearman(sims, [s for _, _, s in split])

    grid = (0.0, -0.5, -0.9, 1.0, 4.0)
    tuned_alpha = max(grid, key=lambda a: rho_for(a, tune_split))
    assert rho_for(tuned_alpha, eval_split) >= rho_for(0.0, eval_split)
