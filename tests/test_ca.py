"""Linear correspondence analysis: constraints, coordinates, file formats,
and the metamorphic invariants of every kernel-CA method."""

import dataclasses
import itertools
import math
import re
import struct

import numpy as np
import pytest

from cakit import ca, kca, linalg
from cakit.ca import (
    EmbeddingSet,
    default_dimension,
    export_coordinates,
    fit_linear_ca,
    read_embeddings,
    write_embeddings,
)
from cakit.datasets import fisher_table
from cakit.evaluation import WordSimDataset
from cakit.kca import (
    KcaMethod,
    KernelSpec,
    association_matrix,
    build_gamma,
    fit_kca,
    kernel_root,
)
from cakit.tables import ContingencyTable, read_tsv, residual_matrix, write_tsv


def read_coordinates(path):
    """Read back an exported coordinate CSV as (point_set, label, vector) rows."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append((cells[0], cells[1], np.array([float(x) for x in cells[2:]])))
    return rows


def random_table(rng, nr=None, nc=None, hi=20):
    nr = nr or int(rng.integers(2, 6))
    nc = nc or int(rng.integers(2, 6))
    counts = rng.integers(0, hi, size=(nr, nc)) + 0.0
    counts[0, 0] += 1
    return ContingencyTable.from_counts(counts)


# The metamorphic cases: every method and kernel kind.  Each kernel and pair
# score is built from its axis labels, so it follows the table's labels
# through a permutation or a transposition.
STOPWORDS = frozenset({"r1", "r4", "c0", "c3"})
PAIR_SCORES = WordSimDataset(
    (("r0", "r3", 9.0), ("r2", "r5", 4.0), ("c1", "c4", 7.0), ("c0", "c5", 2.5)))
_FEATURES = dict(zip([f"r{i}" for i in range(7)] + [f"c{j}" for j in range(6)],
                     np.random.default_rng(5).normal(size=(13, 3))))


def _kernel(kind, **fields):
    return lambda labels: KernelSpec(kind, **fields)


def _explicit_kernel(labels):
    """X X^T + I over per-label feature vectors: SPD."""
    X = np.array([_FEATURES[lbl] for lbl in labels])
    return KernelSpec("explicit", matrix=X @ X.T + np.eye(len(labels)))


IM, ID = _kernel("inverse_marginal"), _kernel("identity")
# stop-word weights 1 + alpha on each axis's own kernel
SW_ROW = _kernel("inverse_marginal", alpha=-0.5, words=STOPWORDS)
SW_COL = _kernel("inverse_marginal", alpha=0.7, words=STOPWORDS)
ID_SW_ROW = _kernel("identity", alpha=-0.5, words=STOPWORDS)
ID_SW_COL = _kernel("identity", alpha=0.7, words=STOPWORDS)
# name -> (association, row kernel, column kernel, KcaMethod keywords,
#          powers of s that S and the coordinates take when the counts are scaled by s)
METHOD_CASES = {
    # A = N/n - r c^T/n^2 is scale-free and D(r)^{-1/2} scales by s^{-1/2},
    # so the sandwich scales by 1/s and F = K^{1/2} U S by s^{-3/2}
    "linear": ("linear", IM, IM, {}, (-1.0, -1.5)),
    "gini": ("gini", ID, ID, {}, (0.0, 0.0)),
    "gini+sw": ("gini", ID_SW_ROW, ID_SW_COL, {}, (0.0, 0.0)),
    "gtest": ("gtest", ID, ID, {}, (0.0, 0.0)),
    "sgns": ("sgns", ID, ID, {"shift_k": 0.5}, (0.0, 0.0)),
    "sgns_unclamped": ("sgns", ID, ID, {"shift_k": 2.0, "sgns_floor": -1.0}, (0.0, 0.0)),
    "kpca_cd": ("kpca_cd", _kernel("kpca_cd", alpha=-0.4), ID, {}, (0.0, 0.0)),
    "linear+sw": ("linear", SW_ROW, SW_COL, {}, (-1.0, -1.5)),
    # the ws association is scale-free, its modified marginals scale by s^2
    "ws": ("ws", IM, IM, {}, (-2.0, -3.0)),
    "ws+sw": ("ws", SW_ROW, SW_COL, {}, (-2.0, -3.0)),
    "explicit": ("linear", _explicit_kernel, _explicit_kernel, {}, (0.0, 0.0)),
}
K = 3  # compared dimensions


def case_method(name, t, transpose=False):
    """The case's method on table ``t``; ``transpose`` swaps its row and column kernels."""
    association, row, col, fields, _ = METHOD_CASES[name]
    if transpose:
        row, col = col, row
    return build_method(association, row, col, fields, t)


def build_method(association, row, col, fields, t):
    """The method whose kernels and pair scores are built from the labels of table ``t``."""
    if association == "ws":
        fields = dict(fields, gamma_row=build_gamma(t.row_labels, PAIR_SCORES, 0.1),
                      gamma_col=build_gamma(t.col_labels, PAIR_SCORES, 0.1))
    return KcaMethod(association, row(t.row_labels), col(t.col_labels), **fields)


def metamorphic_counts():
    """A seeded 7x6 count table with empty cells and no empty row or column."""
    counts = np.random.default_rng(83).integers(0, 20, size=(7, 6)) + 0.0
    counts[counts < 4] = 0.0
    assert counts.sum(axis=1).all() and counts.sum(axis=0).all()
    return counts


def symmetric_counts():
    """A seeded symmetric 7x7 count table, as `cakit count` writes, with empty cells."""
    upper = np.triu(np.random.default_rng(0).integers(0, 20, size=(7, 7)) + 0.0)
    upper[upper < 4] = 0.0
    counts = upper + np.triu(upper, 1).T
    assert counts.sum(axis=1).all()
    return counts


# one vocabulary on both axes, so every kernel and pair score is the same on
# both, except the stop-word weights, whose alphas differ
WORDS = [f"r{i}" for i in range(7)]
SYMMETRIC_SANDWICH = set(METHOD_CASES) - {"linear+sw", "gini+sw", "ws+sw"}


def build_sandwich(t, m):
    """The association, both kernel roots (K^{1/2}, K^{-1/2}) and the sandwich
    ``K_r^{1/2} A K_c^{1/2}`` as a fit builds it, before it is symmetrised."""
    assoc = association_matrix(t, m)
    Lr = kernel_root(m.row_kernel, assoc.r, t.row_labels)
    Lc = kernel_root(m.col_kernel, assoc.c, t.col_labels)
    return assoc, Lr, Lc, (Lc[0] @ (Lr[0] @ assoc.values).T).T


def symmetric_to_roundoff(M):
    """The numeric test: square and ``||M - M^T||_F <= 2 n eps max(max|M|, ||M||_F / sqrt(n))``.

    Both terms of the max are lower bounds of S_1, so by Weyl's inequality
    symmetrising M moves no singular value by more than ``n eps S_1``.
    """
    n = M.shape[0]
    if M.shape[1] != n:
        return False
    floor = max(np.abs(M).max(), np.linalg.norm(M) / math.sqrt(n))
    return bool(np.linalg.norm(M - M.T) <= 2 * n * np.finfo(float).eps * floor)


def fit_case(name, counts, row_labels=None, col_labels=None, transpose=False):
    t = ContingencyTable.from_counts(counts, row_labels, col_labels)
    emb = fit_kca(t, case_method(name, t, transpose), K)
    S = emb.decomposition.S[:K + 1]
    # the top K+1 singular values are pairwise apart, so each compared
    # dimension is determined up to sign and no tie needs F F^T instead
    assert np.all(-np.diff(S) > 1e-3 * S[0]), (name, S)
    return emb


def assert_same_coordinates(actual, expected, name):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-10 * np.abs(expected).max(),
                               err_msg=name)


def assert_same_spectrum(actual, expected, name):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12 * expected[0], err_msg=name)


class TestFitLinearCa:
    def test_independence_table_collapses(self):
        t = ContingencyTable.from_counts([[2.0, 4.0], [1.0, 2.0]])
        emb = fit_linear_ca(t, 1)
        assert emb.singular_values[0] < 1e-12
        np.testing.assert_allclose(emb.F, 0.0, atol=1e-10)
        np.testing.assert_allclose(emb.G, 0.0, atol=1e-10)

    def test_survey_table_metric_constraints(self):
        t = fisher_table()
        emb = fit_linear_ca(t, 2)
        dec = emb.decomposition
        k = dec.S.shape[0]
        np.testing.assert_allclose(
            dec.U.T @ np.diag(1.0 / t.r) @ dec.U, np.eye(k), atol=1e-8
        )
        np.testing.assert_allclose(
            dec.V.T @ np.diag(1.0 / t.c) @ dec.V, np.eye(k), atol=1e-8
        )
        np.testing.assert_allclose(dec.reconstruct(), residual_matrix(t), atol=1e-8)

    def test_survey_map_pairs_dark_with_dark(self):
        # the two "dark" categories sit nearest each other across point sets
        emb = fit_linear_ca(fisher_table(), 2)
        f_dark = emb.F[emb.row_labels.index("dark")]
        g_dark = emb.G[emb.col_labels.index("dark")]
        dists_to_cols = np.linalg.norm(emb.G - f_dark, axis=1)
        assert emb.col_labels[int(np.argmin(dists_to_cols))] == "dark"
        dists_to_rows = np.linalg.norm(emb.F - g_dark, axis=1)
        assert emb.row_labels[int(np.argmin(dists_to_rows))] == "dark"

    def test_two_by_two_diagonal_hand_case(self):
        # standardized residual is 0.125 * [[1,-1],[-1,1]]: one nonzero
        # singular value 0.25, antisymmetric first axis
        t = ContingencyTable.from_counts([[2.0, 0.0], [0.0, 2.0]])
        emb = fit_linear_ca(t, 1)
        assert emb.singular_values[0] == pytest.approx(0.25, abs=1e-12)
        assert emb.F[0, 0] == pytest.approx(-emb.F[1, 0], abs=1e-12)
        assert abs(emb.F[0, 0]) == pytest.approx(0.125, abs=1e-12)

    def test_coordinates_derive_from_decomposition(self):
        t = fisher_table()
        emb = fit_linear_ca(t, 3)
        dec = emb.decomposition
        F = (dec.U[:, :3] / t.r[:, None]) * dec.S[:3]
        G = (dec.V[:, :3] / t.c[:, None]) * dec.S[:3]
        np.testing.assert_allclose(emb.F, F, atol=1e-10)
        np.testing.assert_allclose(emb.G, G, atol=1e-10)

    def test_full_rank_reconstruction_random(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            t = random_table(rng)
            dec = fit_linear_ca(t, min(t.shape)).decomposition
            np.testing.assert_allclose(dec.reconstruct(), residual_matrix(t), atol=1e-8)

    def test_scale_invariance_on_normalized_tables(self):
        # N/n and (10N)/(10n) are the same normalized table; the fit must agree
        rng = np.random.default_rng(71)
        counts = rng.integers(1, 15, size=(4, 5)) + 0.0
        a = ContingencyTable.from_counts(counts / counts.sum())
        b = ContingencyTable.from_counts(10.0 * counts / (10.0 * counts).sum())
        fa = fit_linear_ca(a, 3)
        fb = fit_linear_ca(b, 3)
        np.testing.assert_allclose(fa.F, fb.F, atol=1e-9)
        np.testing.assert_allclose(fa.G, fb.G, atol=1e-9)

    def test_row_permutation_equivariance(self):
        # permuting rows and columns, with their labels and so with every
        # kernel and pair score, permutes F and G alike, signs included
        counts = metamorphic_counts()
        rows, cols = [f"r{i}" for i in range(7)], [f"c{j}" for j in range(6)]
        pr, pc = np.array([3, 0, 6, 4, 1, 5, 2]), np.array([2, 5, 0, 4, 1, 3])
        for name in METHOD_CASES:
            base = fit_case(name, counts, rows, cols)
            permuted = fit_case(name, counts[np.ix_(pr, pc)], [rows[i] for i in pr],
                                [cols[j] for j in pc])
            assert permuted.row_labels == tuple(base.row_labels[i] for i in pr)
            assert_same_spectrum(permuted.singular_values, base.singular_values, name)
            assert_same_coordinates(permuted.F, base.F[pr], name)
            assert_same_coordinates(permuted.G, base.G[pc], name)

    def test_k_out_of_range(self):
        t = fisher_table()
        with pytest.raises(ValueError, match="out of range"):
            fit_linear_ca(t, 0)
        with pytest.raises(ValueError, match="out of range"):
            fit_linear_ca(t, 5)

    def test_default_dimension(self):
        assert default_dimension(fisher_table()) == 3
        one = ContingencyTable.from_counts([[1.0]])
        assert default_dimension(one) == 1


class TestMetamorphic:
    @pytest.mark.parametrize("name", list(METHOD_CASES))
    def test_transpose_swaps_F_and_G(self, name):
        counts = metamorphic_counts()
        base = fit_case(name, counts)
        flipped = fit_case(name, counts.T, [f"c{j}" for j in range(6)],
                           [f"r{i}" for i in range(7)], transpose=True)
        assert_same_spectrum(flipped.singular_values, base.singular_values, name)
        # one sign per dimension: the sign convention looks at the left vectors
        signs = np.sign(np.sum(flipped.F * base.G, axis=0))
        assert_same_coordinates(flipped.F * signs, base.G, name)
        assert_same_coordinates(flipped.G * signs, base.F, name)

    @pytest.mark.parametrize("name", list(METHOD_CASES))
    def test_scaling_the_counts(self, name):
        s = 3.0
        s_power, coord_power = METHOD_CASES[name][4]
        counts = metamorphic_counts()
        base = fit_case(name, counts)
        scaled = fit_case(name, s * counts)
        assert_same_spectrum(scaled.singular_values, base.singular_values * s**s_power, name)
        assert_same_coordinates(scaled.F, base.F * s**coord_power, name)
        assert_same_coordinates(scaled.G, base.G * s**coord_power, name)

    @pytest.mark.parametrize("name", list(METHOD_CASES))
    def test_two_fits_are_bit_identical(self, name):
        counts = metamorphic_counts()
        first, second = fit_case(name, counts), fit_case(name, counts)
        for a, b in ((first.F, second.F), (first.G, second.G),
                     (first.singular_values, second.singular_values)):
            assert a.tobytes() == b.tobytes(), name


class TestSymmetricTable:
    """A symmetric table makes a symmetric sandwich, which svd decomposes by eigh."""

    @pytest.mark.parametrize("name", list(METHOD_CASES))
    def test_fit_matches_the_general_svd(self, name, record_calls):
        general_svd_calls = record_calls(np.linalg, "svd")
        t = ContingencyTable.from_counts(symmetric_counts(), WORDS, WORDS)
        m = case_method(name, t)
        fast, again = (fit_kca(t, m, 6) for _ in range(2))
        assert (not general_svd_calls) == (name in SYMMETRIC_SANDWICH), general_svd_calls
        for a, b in ((fast.F, again.F), (fast.G, again.G),
                     (fast.decomposition.S, again.decomposition.S)):
            assert a.tobytes() == b.tobytes(), name
        # the oracle: the general SVD of the sandwich as built, not symmetrised
        _, (Lr, _), (Lc, _), sandwich = build_sandwich(t, m)
        U, S, Vt = np.linalg.svd(sandwich)
        signs = linalg._sign_convention(U)
        U, V = U * signs, Vt.T * signs
        assert_same_spectrum(fast.decomposition.S, S, name)
        # compare the dimensions that the spectral gap determines, signs included
        gaps = -np.diff(S)
        determined = np.minimum(np.r_[np.inf, gaps[:5]], gaps[:6]) > 1e-4 * S[0]
        assert determined.sum() >= 3, (name, S)
        power = S[:6] ** m.exponent
        oracle_F, oracle_G = (Lr @ U[:, :6]) * power, (Lc @ V[:, :6]) * power
        scale = max(np.abs(oracle_F).max(), np.abs(oracle_G).max())
        for fast_X, oracle_X in ((fast.F, oracle_F), (fast.G, oracle_G)):
            np.testing.assert_allclose(fast_X[:, determined], oracle_X[:, determined], rtol=0,
                                       atol=1e-9 * scale, err_msg=name)

    @pytest.mark.parametrize("name", sorted(set(METHOD_CASES) - {"kpca_cd"}))
    def test_equal_kernels_give_g_equal_to_f_times_column_signs(self, name):
        # ws included: its row and column kernels divide by one shared marginal;
        # a +sw case weights both axes by its row alpha
        t = ContingencyTable.from_counts(symmetric_counts(), WORDS, WORDS)
        m = case_method(name, t)
        emb = fit_kca(t, dataclasses.replace(m, col_kernel=m.row_kernel), 6)
        top = np.abs(emb.F).argmax(axis=0), np.arange(6)
        signs = np.sign(emb.G[top] / emb.F[top])
        assert set(signs) <= {-1.0, 1.0}, (name, signs)
        assert (emb.F * signs).tobytes() == emb.G.tobytes(), name

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_SANDWICH))
    def test_permutation_equivariance(self, name):
        # one permutation of the shared vocabulary keeps the table symmetric
        counts, p = symmetric_counts(), np.array([3, 0, 6, 4, 1, 5, 2])
        base = fit_case(name, counts, WORDS, WORDS)
        words = [WORDS[i] for i in p]
        permuted = fit_case(name, counts[np.ix_(p, p)], words, words)
        assert_same_spectrum(permuted.singular_values, base.singular_values, name)
        assert_same_coordinates(permuted.F, base.F[p], name)
        assert_same_coordinates(permuted.G, base.G[p], name)


class TestSandwichInPlace:
    """The fit builds the sandwich in the association's buffer where the roots are
    diagonal; every output is the bytes of the sandwich built as a product."""

    @pytest.mark.parametrize("name", list(METHOD_CASES))
    def test_fit_is_bit_identical_to_the_product_sandwich(self, name):
        for counts, labels in ((metamorphic_counts(), None), (symmetric_counts(), WORDS)):
            t = ContingencyTable.from_counts(counts, labels, labels)
            m = case_method(name, t)
            assoc, (Lr, _), (Lc, _), sandwich = build_sandwich(t, m)
            if kca._symmetric_sandwich(assoc, m):
                sandwich = 0.5 * (sandwich + sandwich.T)
            dec = linalg.svd(sandwich)
            power = dec.S[:K] ** m.exponent
            emb = fit_kca(t, m, K)
            for got, want in ((emb.F, (Lr @ dec.U[:, :K]) * power),
                              (emb.G, (Lc @ dec.V[:, :K]) * power),
                              (emb.singular_values, dec.S[:K])):
                assert got.tobytes() == want.tobytes(), name


# one case per kernel kind, and per kind that takes stop words one with them,
# the same on both axes
KIND_CASES = {"identity": ID, "identity+sw": ID_SW_ROW, "inverse_marginal": IM,
              "inverse_marginal+sw": SW_ROW, "kpca_cd": _kernel("kpca_cd", alpha=-0.4),
              "explicit": _explicit_kernel}


class TestSymmetryRule:
    """The structural rule that decides a symmetric sandwich, against the
    numeric test on the sandwich as built."""

    @pytest.mark.parametrize("association", kca.ASSOCIATIONS)
    def test_rule_agrees_with_the_numbers_on_every_kernel_pair(self, association):
        for counts, labels in ((symmetric_counts(), WORDS), (metamorphic_counts(), None)):
            t = ContingencyTable.from_counts(counts, labels, labels)
            for (row_kind, row), (col_kind, col) in itertools.product(KIND_CASES.items(), repeat=2):
                m = build_method(association, row, col, {}, t)
                assoc, _, _, sandwich = build_sandwich(t, m)
                case = (association, row_kind, col_kind)
                # sound and complete: ws under a kpca_cd kernel facing an identity
                # one included, whose symmetric association sums to zero too
                assert kca._symmetric_sandwich(assoc, m) == symmetric_to_roundoff(sandwich), case

    @pytest.mark.parametrize("name", list(METHOD_CASES))
    def test_rule_oracle_and_cases_agree(self, name):
        t = ContingencyTable.from_counts(symmetric_counts(), WORDS, WORDS)
        m = case_method(name, t)
        assoc, _, _, sandwich = build_sandwich(t, m)
        rule = kca._symmetric_sandwich(assoc, m)
        assert rule == symmetric_to_roundoff(sandwich) == (name in SYMMETRIC_SANDWICH), name


def dense_log_ratio_association(t, m):
    """gtest and sgns as they were computed over every cell: the log of a
    placeholder 1 in each empty cell, masked out afterwards."""
    N, n = t.counts, t.n
    expected = np.outer(t.r, t.c) / n
    positive = N > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(positive, np.log(np.where(positive, N, 1.0) / expected), 0.0)
    if m.association == "gtest":
        return np.where(positive, (N / n) * log_ratio, 0.0)
    shifted = log_ratio - math.log(m.shift_k)
    if m.sgns_floor is None:
        return np.where(positive, np.maximum(shifted, 0.0), 0.0)
    return np.where(positive, shifted, m.sgns_floor)


def support_tables():
    """The tables the METHOD_CASES fits run on, a fractional one, and seeded ones;
    each has empty cells."""
    counts = metamorphic_counts()
    pr, pc = np.array([3, 0, 6, 4, 1, 5, 2]), np.array([2, 5, 0, 4, 1, 3])
    tables = {
        "metamorphic": ContingencyTable.from_counts(counts),
        "transposed": ContingencyTable.from_counts(counts.T),
        "scaled": ContingencyTable.from_counts(3.0 * counts),
        "permuted": ContingencyTable.from_counts(counts[np.ix_(pr, pc)]),
        "symmetric": ContingencyTable.from_counts(symmetric_counts(), WORDS, WORDS),
        "fractional": ContingencyTable.from_counts(counts / 7.0),
    }
    rng = np.random.default_rng(97)
    for i in range(6):
        seeded = rng.integers(0, 9, size=rng.integers(3, 12, size=2)) * rng.uniform(0.5, 40.0)
        seeded[seeded < 3] = 0.0
        seeded[0, 0] += 1.0
        tables[f"seeded {i}"] = ContingencyTable.from_counts(seeded)
    assert all((t.counts == 0).any() for t in tables.values())
    return tables


class TestLogRatioOnTheSupport:
    """gtest and sgns, taken on the nonzero cells only, against the dense computation."""

    @pytest.mark.parametrize("table", list(support_tables()))
    @pytest.mark.parametrize("name", ["gtest", "sgns", "sgns_unclamped"])
    def test_bit_equal_to_the_dense_association(self, name, table):
        t = support_tables()[table]
        m = case_method(name, t)
        got = association_matrix(t, m)
        assert got.values.tobytes() == dense_log_ratio_association(t, m).tobytes()
        assert got.r is t.r and got.c is t.c


class TestCoordinateExport:
    def test_survey_export_has_nine_points(self, tmp_path):
        emb = fit_linear_ca(fisher_table(), 2)
        path = tmp_path / "coords.csv"
        export_coordinates(emb, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "point_set,label,dim_1,dim_2"
        assert len(lines) == 1 + 4 + 5

    def test_empty_set_writes_header_only(self, tmp_path):
        empty = EmbeddingSet(
            F=np.zeros((0, 0)),
            G=np.zeros((0, 0)),
            row_labels=(),
            col_labels=(),
            singular_values=np.zeros(0),
            method_tag="none",
        )
        path = tmp_path / "empty.csv"
        export_coordinates(empty, path)
        assert path.read_text() == "point_set,label\n"

    def test_round_trip_bit_exact(self, tmp_path):
        emb = fit_linear_ca(fisher_table(), 2)
        path = tmp_path / "coords.csv"
        export_coordinates(emb, path)
        rows = read_coordinates(path)
        stacked = np.vstack([vec for _, _, vec in rows])
        np.testing.assert_array_equal(stacked, np.vstack([emb.F, emb.G]))
        assert [r[1] for r in rows] == list(emb.row_labels) + list(emb.col_labels)


class TestEmbeddingsFile:
    def test_round_trip(self, tmp_path):
        emb = fit_linear_ca(fisher_table(), 2)
        path = tmp_path / "emb.tsv"
        write_embeddings(emb, path)
        back = read_embeddings(path)
        assert back.row_labels == emb.row_labels
        assert back.col_labels == emb.col_labels
        assert back.method_tag == emb.method_tag
        np.testing.assert_array_equal(back.F, emb.F)
        np.testing.assert_array_equal(back.G, emb.G)
        np.testing.assert_array_equal(back.singular_values, emb.singular_values)

    def test_rejects_truncated_file(self, tmp_path):
        emb = fit_linear_ca(fisher_table(), 2)
        path = tmp_path / "emb.tsv"
        write_embeddings(emb, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="point lines"):
            read_embeddings(path)

    @pytest.fixture
    def emb_lines(self, tmp_path):
        path = tmp_path / "emb.tsv"
        write_embeddings(fit_linear_ca(fisher_table(), 2), path)
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_coordinate(self, emb_lines, bad):
        path, lines = emb_lines
        cells = lines[3].split("\t")
        cells[2] = bad
        lines[3] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"emb\.tsv:4: non-finite"):
            read_embeddings(path)

    def test_rejects_non_finite_singular_value(self, emb_lines):
        path, lines = emb_lines
        head = lines[0].split("\t")
        head[4] = "nan"
        path.write_text("\n".join(["\t".join(head)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"emb\.tsv:1: non-finite"):
            read_embeddings(path)

    def test_rejects_header_with_fewer_singular_values_than_k(self, emb_lines):
        path, lines = emb_lines
        head = lines[0].split("\t")
        path.write_text("\n".join(["\t".join(head[:-1])] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"emb\.tsv:1: header lists 1 singular values, expected k=2"):
            read_embeddings(path)

    def test_rejects_short_header(self, emb_lines):
        path, lines = emb_lines
        path.write_text("\n".join(["4\t5"] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"emb\.tsv:1: header needs"):
            read_embeddings(path)

    def test_rejects_non_integer_header_counts(self, emb_lines):
        path, lines = emb_lines
        head = lines[0].split("\t")
        head[2] = "two"
        path.write_text("\n".join(["\t".join(head)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"emb\.tsv:1: header counts"):
            read_embeddings(path)

    def test_rejects_non_numeric_coordinate_naming_line(self, emb_lines):
        path, lines = emb_lines
        lines[5] = lines[5].rsplit("\t", 1)[0] + "\tx"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"emb\.tsv:6: could not convert"):
            read_embeddings(path)

    def test_rejects_duplicate_label_within_a_point_set(self, emb_lines):
        path, lines = emb_lines
        label = lines[1].split("\t")[1]
        cells = lines[2].split("\t")
        cells[1] = label
        lines[2] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"emb\.tsv:3: duplicate row label '{label}'"):
            read_embeddings(path)

    @pytest.mark.parametrize("writer, bad", [
        (write_embeddings, "a\tb"), (write_embeddings, "a\nb"), (write_embeddings, "a\rb"),
        (export_coordinates, "a,b"), (export_coordinates, "a\nb"), (export_coordinates, "a\rb"),
        (export_coordinates, '"quoted" word'),
    ], ids=lambda x: getattr(x, "__name__", repr(x)))
    def test_writers_reject_labels_their_reader_would_split(self, tmp_path, writer, bad):
        emb = fit_linear_ca(fisher_table(), 2)
        path = tmp_path / "out"
        for rows, cols in ((emb.row_labels[:-1] + (bad,), emb.col_labels),
                           (emb.row_labels, (bad,) + emb.col_labels[1:])):
            split = EmbeddingSet(F=emb.F, G=emb.G, row_labels=rows, col_labels=cols,
                                 singular_values=emb.singular_values, method_tag=emb.method_tag)
            with pytest.raises(ValueError, match="label .* contains"):
                writer(split, path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb"])
    def test_writer_rejects_a_method_tag_its_reader_would_split(self, tmp_path, bad):
        emb = dataclasses.replace(fit_linear_ca(fisher_table(), 2), method_tag=bad)
        path = tmp_path / "emb.tsv"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: method label .* contains"):
            write_embeddings(emb, path)
        assert not path.exists()

    @pytest.mark.parametrize("row_labels, message", [
        (("blue", "blue", "medium", "dark"), "duplicate row label 'blue'"),
        ((1, "light", "medium", "dark"), "row label 1 is not a string"),
    ])
    def test_a_set_rejects_labels_every_reader_rejects(self, row_labels, message):
        # the table's rule, so no writer and no evaluation meets such a set
        emb = fit_linear_ca(fisher_table(), 2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(emb, row_labels=row_labels)

    @pytest.mark.parametrize("field", ["F", "G", "singular_values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected_at_construction(self, field, bad):
        emb = fit_linear_ca(fisher_table(), 2)
        parts = dict(F=emb.F.copy(), G=emb.G.copy(), singular_values=emb.singular_values.copy())
        parts[field][-1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            EmbeddingSet(row_labels=emb.row_labels, col_labels=emb.col_labels,
                         method_tag=emb.method_tag, **parts)

    def test_rejects_point_set_sizes_other_than_the_header_counts(self, emb_lines):
        # 4 row and 5 col lines under a header that claims 5 and 4
        path, lines = emb_lines
        head = lines[0].split("\t")
        head[:2] = head[1], head[0]
        path.write_text("\n".join(["\t".join(head)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"emb\.tsv: expected 5 row and 4 col point lines"):
            read_embeddings(path)


def reference_point_lines(e, sep, sets=("row", "col")):
    """The per-cell formatter: ``repr`` of every coordinate of the point ``sets``."""
    for which, labels, coords in (("row", e.row_labels, e.F), ("col", e.col_labels, e.G)):
        for label, row in zip(labels, coords.tolist() if which in sets else []):
            yield sep.join([which, label, *map(repr, row)]) + "\n"


def reference_signs(e):
    """Per column, "1" if G's column is F's bit for bit, else "-1" if it is
    -F's, when the labels agree and k >= 1; None when any column is neither."""
    if e.k == 0 or e.row_labels != e.col_labels:
        return None
    signs = []
    for f, g in zip(e.F.T.tolist(), e.G.T.tolist()):
        bits = [struct.pack("<d", y) for y in g]
        if [struct.pack("<d", x) for x in f] == bits:
            signs.append("1")
        elif [struct.pack("<d", -x) for x in f] == bits:
            signs.append("-1")
        else:
            return None
    return signs


def reference_bytes(e, writer, by_reference=True):
    """What ``writer`` writes through the per-cell formatter.

    ``write_embeddings`` writes a G that is F up to column signs as one
    ``col=row`` line of the signs, unless ``by_reference`` is False, which
    gives the column points as every file did before that line.
    """
    if writer is write_embeddings:
        sep = "\t"
        header = [str(len(e.row_labels)), str(len(e.col_labels)), str(e.k), e.method_tag,
                  *map(repr, e.singular_values.tolist())]
        signs = reference_signs(e) if by_reference else None
    else:
        sep, signs = ",", None
        header = ["point_set", "label"] + [f"dim_{i + 1}" for i in range(e.k)]
    if signs is None:
        body = list(reference_point_lines(e, sep))
    else:
        body = [*reference_point_lines(e, sep, ("row",)), "\t".join(["col=row", *signs]) + "\n"]
    return "".join([sep.join(header) + "\n", *body]).encode()


def coordinate_set(F, G, shared=False):
    """A set of coordinates F and G, labelled ``p{i}`` on both axes when ``shared``."""
    k = F.shape[1]
    row_labels = tuple(f"{'p' if shared else 'r'}{i}" for i in range(len(F)))
    return EmbeddingSet(F=F, G=G, row_labels=row_labels,
                        col_labels=tuple(f"{'p' if shared else 'c'}{j}" for j in range(len(G))),
                        singular_values=np.arange(k, 0, -1.0), method_tag="test")


def one_ulp(F):
    """F with its last coordinate moved one ulp up."""
    F = F.copy()
    F[-1, -1] = np.nextafter(F[-1, -1], np.inf)
    return F


def _coordinate_cases():
    rng = np.random.default_rng(29)
    F = rng.normal(size=(6, 4)) * 10.0 ** rng.integers(-5, 5, size=(6, 4))
    pool = np.array([0.5, 1 / 3, 2.0, 1e-7, 0.1 + 0.2])
    repeated = rng.choice(pool, size=(7, 3)) * rng.choice([-1.0, 1.0], size=(7, 3))
    repeated[4] = repeated[1]
    zeros = np.array([[0.0, -0.0, 1.5], [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0], [-1.5, 0.0, -0.0]])
    extremes = np.array([[5e-324, -5e-324, 1e308], [-1e308, 2.2250738585072014e-308, -0.0],
                         [1.7976931348623157e308, -1.7976931348623157e308, 4.9e-324]])
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    flipped_zero = F * signs
    F_zero = F.copy()
    F_zero[2, 1] = flipped_zero[2, 1] = 0.0  # F * signs would hold -0.0 there
    return {
        # the symmetric eigh path with equal kernels: G is F up to column signs
        "G = F signs": (F, F * signs),
        "G = F signs, shared labels": (F, F * signs, True),
        "G = F signs but one zero, shared labels": (F_zero, flipped_zero, True),
        "G = F, zeros of both signs, shared labels": (zeros, zeros.copy(), True),
        "G = -F, zeros of both signs, shared labels": (zeros, -zeros, True),
        "G = F but one ulp, shared labels": (F, one_ulp(F), True),
        "k = 0, shared labels": (np.zeros((3, 0)), np.zeros((3, 0)), True),
        "no points, shared labels": (np.zeros((0, 2)), np.zeros((0, 2)), True),
        # kpca_cd-like: no magnitude shared between F and G
        "unrelated G": (F, rng.normal(size=(5, 4))),
        "repeated values": (repeated, -repeated[::-1]),
        "zeros and -0.0": (zeros, -zeros[:2]),
        "extremes": (extremes, extremes[::-1] * -1.0),
        "k = 0": (np.zeros((3, 0)), np.zeros((2, 0))),
        "empty point set": (np.zeros((0, 2)), np.array([[1.0, -0.0]])),
    }


# the coordinate cases whose embeddings file carries G by reference
BY_REFERENCE = {"G = F signs, shared labels", "G = F, zeros of both signs, shared labels",
                "G = -F, zeros of both signs, shared labels", "no points, shared labels"}


def assert_bit_identical(got, want):
    for a, b in ((got.F, want.F), (got.G, want.G), (got.singular_values, want.singular_values)):
        assert a.tobytes() == b.tobytes()  # np.signbit included
    assert got == want


class TestWritersMatchPerCellReference:
    """The writers write the per-cell formatter's bytes, G by reference where it is F
    up to column signs, and the reader reads them back bit for bit."""

    @pytest.mark.parametrize("writer", [write_embeddings, export_coordinates],
                             ids=lambda w: w.__name__)
    @pytest.mark.parametrize("case", list(_coordinate_cases()))
    def test_coordinate_cases(self, tmp_path, writer, case):
        e = coordinate_set(*_coordinate_cases()[case])
        path = tmp_path / "out"
        writer(e, path)
        assert path.read_bytes() == reference_bytes(e, writer)
        if writer is write_embeddings:
            assert ("col=row" in path.read_text()) == (case in BY_REFERENCE)
            assert_bit_identical(read_embeddings(path), e)

    @pytest.mark.parametrize("writer", [write_embeddings, export_coordinates],
                             ids=lambda w: w.__name__)
    @pytest.mark.parametrize("name", list(METHOD_CASES))
    def test_every_method_fit(self, tmp_path, writer, name):
        path = tmp_path / "out"
        for counts, labels in ((metamorphic_counts(), None), (symmetric_counts(), WORDS)):
            e = fit_case(name, counts, labels, labels)
            writer(e, path)
            assert path.read_bytes() == reference_bytes(e, writer), name
            if writer is write_embeddings:
                # equal kernels on a symmetric table: kpca_cd's differ, and so do
                # the stop-word alphas of the +sw cases
                by_reference = labels is not None and name in SYMMETRIC_SANDWICH - {"kpca_cd"}
                assert ("col=row" in path.read_text()) == by_reference, name
                assert_bit_identical(read_embeddings(path), e)

    def test_sgns_with_an_all_zero_row_carries_g_by_reference(self, tmp_path):
        # shift_k = 1.5 clamps one word's shifted PMI to 0 on every cell; its
        # row of F and G holds zeros whose signs G = F s must carry too
        t = ContingencyTable.from_counts(symmetric_counts(), WORDS, WORDS)
        m = build_method("sgns", ID, ID, {"shift_k": 1.5}, t)
        assert (~association_matrix(t, m).values.any(axis=1)).sum() == 1
        e = fit_kca(t, m, 6)
        zero = ~e.F.any(axis=1)
        signs = ca._column_signs(e)
        assert zero.sum() == 1 and signs is not None and (signs < 0).any()
        assert np.signbit(e.G[zero]).tobytes() != np.signbit(e.F[zero]).tobytes()
        path = tmp_path / "emb.tsv"
        write_embeddings(e, path)
        assert "\ncol=row\t" in path.read_text()
        assert_bit_identical(read_embeddings(path), e)

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_SANDWICH - {"kpca_cd"}))
    def test_a_file_with_column_points_reads_to_the_same_set(self, tmp_path, name):
        # as every file was written before G was carried by reference
        e = fit_case(name, symmetric_counts(), WORDS, WORDS)
        path = tmp_path / "emb.tsv"
        path.write_bytes(reference_bytes(e, write_embeddings, by_reference=False))
        assert_bit_identical(read_embeddings(path), e)


# a one-point, one-dimension file and a fit file, each with a malformed col=row line
def _by_reference_file(lines):
    return "1\t1\t1\tt\t1.0\nrow\ta\t0.5\n" + "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("text, message", [
    (_by_reference_file(["col=row\t1\t1"]), "{path}:3: expected 1 column signs"),
    (_by_reference_file(["col=row"]), "{path}:3: expected 1 column signs"),
    ("1\t1\t2\tt\t2.0\t1.0\nrow\ta\t1\t2\ncol=row\t1\n", "{path}:3: expected 2 column signs"),
    (_by_reference_file(["col=row\t+1"]), "{path}:3: column sign '+1' is not 1 or -1"),
    (_by_reference_file(["col=row\t1.0"]), "{path}:3: column sign '1.0' is not 1 or -1"),
    (_by_reference_file(["col=row\t-0"]), "{path}:3: column sign '-0' is not 1 or -1"),
    (_by_reference_file(["col=row\t"]), "{path}:3: column sign '' is not 1 or -1"),
    (_by_reference_file(["col\ta\t0.5", "col=row\t1"]),
     "{path}:4: a 'col=row' line beside 1 col point lines"),
    (_by_reference_file(["col=row\t1", "col\ta\t0.5"]),
     "{path}:3: a 'col=row' line beside 1 col point lines"),
    (_by_reference_file(["col=row\t1", "col=row\t1"]), "{path}:4: a second 'col=row' line"),
    ("1\t2\t1\tt\t1.0\nrow\ta\t0.5\ncol=row\t-1\n",
     "{path}:3: a 'col=row' line needs n_cols = n_rows, the header gives 1 and 2"),
], ids=["too many signs", "no signs", "too few signs", "plus sign", "float sign",
        "negative zero sign", "empty sign", "col points before", "col points after",
        "two col=row lines", "n_cols other than n_rows"])
def test_col_row_line_rejections(tmp_path, text, message):
    path = tmp_path / "emb.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
        read_embeddings(path)


def test_col_row_line_reads_to_signed_copies_of_f(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("2\t2\t2\tt\t2.0\t1.0\nrow\ta\t1.5\t-0.0\nrow\tb\t0.0\t2.5\n"
                    "col=row\t-1\t1\n", encoding="utf-8")
    e = read_embeddings(path)
    assert e.col_labels == e.row_labels == ("a", "b")
    assert e.G.tobytes() == np.array([[-1.5, -0.0], [-0.0, 2.5]]).tobytes()


def eager_decomposition(t, m):
    """The decomposition as every fit used to build and keep it, a sandwich
    symmetric to roundoff symmetrised as the fit does."""
    _, (_, Lr_inv), (_, Lc_inv), sandwich = build_sandwich(t, m)
    if symmetric_to_roundoff(sandwich):
        sandwich += sandwich.T
        sandwich *= 0.5
    dec = linalg.svd(sandwich)
    return linalg.Decomposition(U=Lr_inv @ dec.U, S=dec.S, V=Lc_inv @ dec.V)


def field_arrays(emb):
    """The arrays an embedding set holds in its fields."""
    values = (getattr(emb, f.name) for f in dataclasses.fields(emb))
    return [v for v in values if isinstance(v, np.ndarray)]


class TestDecompositionOnRequest:
    @pytest.mark.parametrize("name", list(METHOD_CASES))
    def test_equals_the_eager_one_and_is_solved_once(self, name, monkeypatch):
        solves = []

        def counting_svd(M, svd=linalg.svd):
            solves.append(np.shape(M))
            return svd(M)

        monkeypatch.setattr(linalg, "svd", counting_svd)
        for counts, labels in ((metamorphic_counts(), None), (symmetric_counts(), WORDS)):
            solves.clear()
            t = ContingencyTable.from_counts(counts, labels, labels)
            m = case_method(name, t)
            emb = fit_kca(t, m, K)
            assert len(solves) == 1
            # the fit's fields hold F, G and the k singular values, and no V x V factor
            assert "decomposition" not in vars(emb)
            assert [id(a) for a in field_arrays(emb)] == [
                id(emb.F), id(emb.G), id(emb.singular_values)]
            dec = emb.decomposition
            assert emb.decomposition is dec and len(solves) == 2
            eager = eager_decomposition(t, m)
            assert dec.U.shape == (t.shape[0], eager.S.size)
            for got, want in ((dec.U, eager.U), (dec.S, eager.S), (dec.V, eager.V)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max(),
                                           err_msg=name)

    def test_a_set_read_from_a_file_has_none(self, tmp_path):
        write_embeddings(fit_linear_ca(fisher_table(), 2), tmp_path / "emb.tsv")
        assert read_embeddings(tmp_path / "emb.tsv").decomposition is None


class TestEquality:
    """``==`` on tables and embedding sets compares by value, never raises, and agrees with
    ``hash``."""

    def test_a_table_read_back_equals_the_one_written(self, tmp_path):
        for counts, labels in ((metamorphic_counts(), None), (symmetric_counts(), WORDS)):
            t = ContingencyTable.from_counts(counts, labels, labels)
            write_tsv(t, tmp_path / "t.tsv")
            back = read_tsv(tmp_path / "t.tsv")
            assert back == t and hash(back) == hash(t)

    def test_tables_that_differ_in_one_count_or_label_or_shape_are_unequal(self):
        t = ContingencyTable.from_counts(metamorphic_counts())
        counts = metamorphic_counts()
        counts[0, 0] += 1.0
        assert t != ContingencyTable.from_counts(counts)
        assert t != ContingencyTable(t.counts, ("x", *t.row_labels[1:]), t.col_labels)
        assert t != ContingencyTable.from_counts(metamorphic_counts()[:, :5])
        assert t != "table"

    @pytest.mark.parametrize("name", list(METHOD_CASES))
    def test_a_set_read_back_equals_the_fit(self, tmp_path, name):
        for counts, labels in ((metamorphic_counts(), None), (symmetric_counts(), WORDS)):
            emb = fit_case(name, counts, labels, labels)
            write_embeddings(emb, tmp_path / "e.tsv")
            back = read_embeddings(tmp_path / "e.tsv")
            # decompose does not compare: the set read back has none
            assert back == emb and not back != emb
            assert hash(back) == hash(emb)

    def test_list_labels_are_held_as_tuples(self):
        listed = small_embedding_set(row_labels=["a", "b"], col_labels=["x", "y", "z"])
        assert (listed.row_labels, listed.col_labels) == (("a", "b"), ("x", "y", "z"))
        assert listed == small_embedding_set() and hash(listed) == hash(small_embedding_set())

    def test_arrays_are_the_sets_own_read_only_copies(self):
        F = np.ones((2, 1))
        emb = small_embedding_set(F=F)
        F[0, 0] = 5.0
        assert emb.F[0, 0] == 1.0
        emb = fit_linear_ca(fisher_table(), 2)
        with pytest.raises(ValueError, match="read-only"):
            emb.F[0, 0] = 0.0
        for array in (emb.G, emb.singular_values):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_sets_that_differ_in_one_coordinate_or_only_the_tag_are_unequal(self):
        emb = fit_linear_ca(fisher_table(), 2)
        F = emb.F.copy()
        F[1, 1] = np.nextafter(F[1, 1], np.inf)
        assert emb != dataclasses.replace(emb, F=F)
        assert emb != dataclasses.replace(emb, method_tag="gini")
        assert emb == dataclasses.replace(emb, decompose=None)
        assert emb != small_embedding_set() and emb != "linear_ca"


def small_embedding_set(**changes):
    """A valid 2-row, 3-column, one-dimension set with ``changes`` applied."""
    fields = dict(F=np.ones((2, 1)), G=np.ones((3, 1)), row_labels=("a", "b"),
                  col_labels=("x", "y", "z"), singular_values=np.ones(1), method_tag="t")
    return EmbeddingSet(**{**fields, **changes})


def read_embeddings_text(path, text):
    path.write_text(text, encoding="utf-8")
    return read_embeddings(path)


@pytest.mark.parametrize("call, message", [
    (lambda path: small_embedding_set(F=np.ones((3, 1))),
     "F shape (3, 1) does not match 2 labels x 1 dims"),
    (lambda path: small_embedding_set(G=np.ones((2, 1))),
     "G shape (2, 1) does not match 3 labels x 1 dims"),
    (lambda path: small_embedding_set(F=np.ones((2, 2)), G=np.ones((3, 2)),
                                      singular_values=np.array([1.0, 2.0])),
     "singular values must be sorted descending"),
    (lambda path: small_embedding_set(F=np.ones((2, 2)), G=np.ones((3, 2)),
                                      singular_values=np.array([-1.0, -2.0])),
     "singular values must be nonnegative"),
    (lambda path: small_embedding_set(col_labels=("x", "y", "x")), "duplicate col label 'x'"),
    (lambda path: small_embedding_set(col_labels=("x", b"y", "z")), "col label b'y' is not a string"),
    (lambda path: small_embedding_set().coordinates("H"), "point set must be 'F' or 'G', got 'H'"),
    (lambda path: read_embeddings_text(path, ""), "empty embeddings file: {path}"),
    (lambda path: read_embeddings_text(path, "2\t-1\t1\tt\t1.0\n"),
     "{path}:1: header counts ['2', '-1', '1'] must be nonnegative"),
    (lambda path: read_embeddings_text(path, "1\t1\t1\tt\t1.0\nrow\ta\t0.5\nmid\tx\t0.5\n"),
     "{path}:3: unknown point set 'mid'"),
    (lambda path: read_embeddings_text(path, "1\t1\t2\tt\t1.0\t2.0\nrow\ta\t1\t1\ncol\tx\t1\t1\n"),
     "{path}:1: singular values must be sorted descending"),
    (lambda path: read_embeddings_text(path, "1\t1\t1\tt\t-1.0\nrow\ta\t0.5\ncol\tx\t0.5\n"),
     "{path}:1: singular values must be nonnegative"),
], ids=["F shape", "G shape", "unsorted singular values", "negative singular values",
        "duplicate col label", "non-string col label", "unknown point set name", "empty file", "negative header count", "unknown point set line",
        "unsorted header singular values", "negative header singular value"])
def test_input_rejections(tmp_path, call, message):
    path = tmp_path / "emb.tsv"
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
        call(path)
