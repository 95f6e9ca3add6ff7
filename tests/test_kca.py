"""Kernel fits: association matrices, structured kernel roots, reductions."""

import inspect
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cakit
from cakit.ca import fit_linear_ca
from cakit.corpus import CooccurrenceConfig, count_cooccurrences
from cakit.datasets import fisher_table
from cakit.evaluation import WordSimDataset
from cakit.kca import (
    ASSOCIATIONS,
    KERNELS,
    READ_BY,
    KcaMethod,
    KernelSpec,
    association_matrix,
    build_gamma,
    fit_kca,
    fit_ws_kca,
    kernel_root,
    method_from_name,
)
from cakit.linalg import NotPositiveDefiniteError, spd_sqrt, svd
from cakit.tables import ContingencyTable, residual_matrix


def random_table(rng, nr=None, nc=None, hi=12, square=False):
    nr = nr or int(rng.integers(2, 6))
    nc = nr if square else (nc or int(rng.integers(2, 6)))
    counts = rng.integers(0, hi, size=(nr, nc)) + 0.0
    counts[0, 0] += 1
    return ContingencyTable.from_counts(counts)


def random_spd(rng, m, lo=0.5, hi=2.0):
    """Well-conditioned SPD matrix with eigenvalues in [lo, hi]."""
    Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
    lam = rng.uniform(lo, hi, size=m)
    return (Q * lam) @ Q.T


def materialize_kernel(spec, marginal, labels):
    """Dense oracle: the kernel matrix of one axis, built entry by entry."""
    m = len(labels)
    if spec.kind == "kpca_cd":
        # |e_i - e_j|^2 is 0 on the diagonal and 2 off it
        K = np.full((m, m), math.exp(2.0 * spec.alpha))
        np.fill_diagonal(K, 1.0)
        return K
    if spec.kind == "explicit":
        return np.asarray(spec.matrix, dtype=float)
    K = np.eye(m) if spec.kind == "identity" else np.diag(1.0 / marginal)
    # the stop-word weights, all 1 for a kernel without stop words
    w = np.array([1.0 + spec.alpha if lbl in spec.words else 1.0 for lbl in labels])
    return np.diag(w) @ K


def dense_kernels(t, m):
    """Dense row and column kernels of a method, over its association's marginals."""
    assoc = association_matrix(t, m)
    return (
        materialize_kernel(m.row_kernel, assoc.r, t.row_labels),
        materialize_kernel(m.col_kernel, assoc.c, t.col_labels),
    )


def dense_fit(t, m, k):
    """Oracle fit: SVD of the sandwich built with dense eigh roots; (F, G, S)."""
    Kr, Kc = dense_kernels(t, m)
    (Lr, _), (Lc, _) = spd_sqrt(Kr), spd_sqrt(Kc)
    dec = svd(Lr @ association_matrix(t, m).values @ Lc)
    scale = dec.S[:k] ** m.exponent
    return (Lr @ dec.U[:, :k]) * scale, (Lc @ dec.V[:, :k]) * scale, dec.S[:k]


def constraint_residual(e, Kr, Kc) -> float:
    """Oracle: max deviation of R^T K_r R K_c from the identity for a fitted model.

    R is ``U V^T`` from the fit's generalized SVD.  Meaningful when the
    table has at least as many rows as columns (otherwise the constraint
    is rank-deficient by construction).
    """
    dec = e.decomposition
    R = dec.U @ dec.V.T
    lhs = R.T @ np.asarray(Kr, dtype=float) @ R @ np.asarray(Kc, dtype=float)
    return float(np.max(np.abs(lhs - np.eye(lhs.shape[0]))))


def assert_root_matches(spec, marginal, labels):
    """Structured K^{1/2} and K^{-1/2} agree with the dense oracle kernel."""
    K = materialize_kernel(spec, marginal, labels)
    root, inv_root = kernel_root(spec, marginal, labels)
    m = len(labels)
    L = root @ np.eye(m)
    L_inv = inv_root @ np.eye(m)
    np.testing.assert_allclose(L, L.T, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(L @ L, K, rtol=1e-10, atol=1e-14 * np.abs(K).max())
    np.testing.assert_allclose(L @ L_inv, np.eye(m), atol=1e-10)
    return K


def cosine_matrix(X):
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return (X / norms) @ (X / norms).T


def reference_build_gamma(labels, items, alpha):
    """The dict loop build_gamma ran before it took a WordSimDataset.

    ``items`` are the ((a, b), score) listings in order, as ``dict.items()``
    gave them, so a repeated pair can be listed too.
    """
    labels = list(labels)
    m = len(labels)
    gamma = np.full((m, m), 1.0)
    index = {lbl: i for i, lbl in enumerate(labels)}
    for key, value in items:
        a, b = key
        if a in index and b in index:
            i, j = index[a], index[b]
            gamma[i, j] = alpha * value + 1.0
            gamma[j, i] = alpha * value + 1.0
    return gamma


def brute_force_sgns(t, k):
    """Cellwise scalar-loop shifted positive PMI."""
    N = t.counts
    r, c, n = t.r, t.c, t.n
    A = np.zeros_like(N)
    for i in range(N.shape[0]):
        for j in range(N.shape[1]):
            if N[i, j] > 0:
                pmi = math.log((N[i, j] * n) / (r[i] * c[j]))
                A[i, j] = max(pmi - math.log(k), 0.0)
    return A


def classical_ca(counts):
    """Textbook CA (Greenacre, 1984): principal coordinates and singular values.

    The SVD of the standardized residual ``D(r)^{-1/2} (P - r c^T) D(c)^{-1/2}``
    with ``P = N/n`` and ``r``, ``c`` its row and column masses; the row and
    column principal coordinates are ``D(r)^{-1/2} U S`` and ``D(c)^{-1/2} V S``.
    """
    P = counts / counts.sum()
    r, c = P.sum(axis=1), P.sum(axis=0)
    U, s, Vt = np.linalg.svd((P - np.outer(r, c)) / np.sqrt(np.outer(r, c)))
    k = min(P.shape)
    return U[:, :k] * s / np.sqrt(r)[:, None], Vt[:k].T * s / np.sqrt(c)[:, None], s


def brute_force_g_statistic(t):
    """Classical likelihood-ratio statistic 2 * sum O log(O/E)."""
    N = t.counts
    r, c, n = t.r, t.c, t.n
    total = 0.0
    for i in range(N.shape[0]):
        for j in range(N.shape[1]):
            if N[i, j] > 0:
                total += N[i, j] * math.log(N[i, j] / (r[i] * c[j] / n))
    return 2.0 * total


class TestAssociationMatrix:
    def test_independence_table_zero_for_every_method(self):
        t = ContingencyTable.from_counts([[2.0, 4.0], [3.0, 6.0]])
        for m in (
            KcaMethod("linear"),
            KcaMethod("gini"),
            KcaMethod("gtest"),
            KcaMethod("sgns", shift_k=1.0),
        ):
            np.testing.assert_allclose(association_matrix(t, m).values, 0.0, atol=1e-14)

    def test_linear_is_centered_frequency(self):
        rng = np.random.default_rng(79)
        t = random_table(rng)
        np.testing.assert_array_equal(
            association_matrix(t, KcaMethod("linear")).values, residual_matrix(t)
        )
        np.testing.assert_array_equal(
            association_matrix(t, KcaMethod("gini")).values, residual_matrix(t)
        )

    def test_sgns_hand_values(self):
        t = ContingencyTable.from_counts([[2.0, 1.0], [1.0, 2.0]])
        A = association_matrix(t, KcaMethod("sgns", shift_k=1.0)).values
        assert A[0, 0] == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
        assert A[0, 1] == 0.0  # log(2/3) < 0 clamps away

    def test_sgns_matches_cellwise_brute_force(self):
        rng = np.random.default_rng(83)
        for _ in range(25):
            t = random_table(rng)
            for k in (1.0, 2.0, 5.0):
                A = association_matrix(t, KcaMethod("sgns", shift_k=k)).values
                np.testing.assert_allclose(A, brute_force_sgns(t, k), atol=1e-12)

    def test_sgns_monotone_nonincreasing_in_shift(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            t = random_table(rng)
            prev = association_matrix(t, KcaMethod("sgns", shift_k=1.0)).values
            for k in (2.0, 4.0, 8.0):
                cur = association_matrix(t, KcaMethod("sgns", shift_k=k)).values
                assert np.all(cur <= prev + 1e-15)
                prev = cur

    def test_sgns_unclamped_keeps_negative_values_and_floors_zeros(self):
        t = ContingencyTable.from_counts([[2.0, 1.0], [1.0, 2.0]])
        m = KcaMethod("sgns", shift_k=1.0, sgns_floor=-3.0)
        A = association_matrix(t, m).values
        assert A[0, 1] == pytest.approx(math.log(2.0 / 3.0), abs=1e-12)
        t0 = ContingencyTable.from_counts([[2.0, 0.0], [1.0, 2.0]])
        A0 = association_matrix(t0, m).values
        assert A0[0, 1] == -3.0

    def test_sgns_shift_must_be_positive(self):
        with pytest.raises(ValueError, match="shift"):
            KcaMethod("sgns", shift_k=0.0)

    def test_gtest_zero_cells_contribute_zero(self):
        t = ContingencyTable.from_counts([[3.0, 0.0], [1.0, 2.0]])
        A = association_matrix(t, KcaMethod("gtest")).values
        assert A[0, 1] == 0.0
        assert np.all(np.isfinite(A))

    def test_gtest_sums_to_g_statistic(self):
        rng = np.random.default_rng(97)
        for _ in range(25):
            t = random_table(rng)
            A = association_matrix(t, KcaMethod("gtest")).values
            g = 2.0 * t.n * float(A.sum())
            assert g == pytest.approx(brute_force_g_statistic(t), abs=1e-9)
            assert g >= -1e-12  # likelihood-ratio statistic is nonnegative

    def test_unknown_association_rejected(self):
        with pytest.raises(ValueError, match="association"):
            KcaMethod("chi2")


class TestEquality:
    """``==`` on kernel specs and methods compares array fields by value, never raises, and
    agrees with ``hash``."""

    def test_explicit_kernels_with_equal_matrices_are_equal(self):
        a, b = (KernelSpec("explicit", matrix=np.eye(3)) for _ in range(2))
        assert a == b and not a != b
        # a nested list compares equal to the array, so it hashes alike too
        c = KernelSpec("explicit", matrix=np.eye(3).tolist())
        assert a == c and hash(a) == hash(b) == hash(c)

    def test_explicit_kernels_with_different_matrices_are_not(self):
        a = KernelSpec("explicit", matrix=np.eye(3))
        assert a != KernelSpec("explicit", matrix=2.0 * np.eye(3))
        assert a != KernelSpec("explicit", matrix=np.eye(2))
        assert a != KernelSpec("identity") and a != "explicit"

    def test_ws_methods_from_equal_gamma_copies_are_equal(self):
        gamma = build_gamma(("a", "b", "c"), WordSimDataset((("a", "c", 4.0),)), 0.1)
        first = method_from_name("ws", gamma_row=gamma, gamma_col=gamma)
        second = method_from_name("ws", gamma_row=gamma.copy(), gamma_col=gamma.copy())
        assert first == second and hash(first) == hash(second)
        other = gamma.copy()
        other[0, 2] = other[2, 0] = 9.0
        assert first != method_from_name("ws", gamma_row=other, gamma_col=other)
        assert first != method_from_name("linear")

    def test_methods_from_equal_stop_word_collections_are_equal(self):
        # the stop words become a frozenset whatever collection holds them
        sw = {"sw_alpha_row": 0.5, "sw_alpha_col": -0.2}
        first = method_from_name("gini", stopwords={"blue", "dark"}, **sw)
        second = method_from_name("gini", stopwords=["dark", "blue", "dark"], **sw)
        assert first == second and hash(first) == hash(second)
        assert first != method_from_name("gini", stopwords=["blue"], **sw)


class TestMethodArraysAreOwnCopies:
    """A method keeps read-only copies of its kernel and pair-score matrices, so the
    decomposition solved after a fit comes from the arrays the fit read."""

    def test_changing_the_callers_pair_scores_leaves_the_decomposition(self):
        t = fisher_table()
        gr, gc = np.ones((4, 4)), np.ones((5, 5))
        gr[0, 2] = gr[2, 0] = gc[1, 3] = gc[3, 1] = 3.0
        emb = fit_ws_kca(t, gr, gc, 2)
        gr[0, 1] = gr[1, 0] = 5.0
        np.testing.assert_array_equal(emb.decomposition.S[:2], emb.singular_values)

    def test_changing_the_callers_kernel_leaves_the_decomposition(self):
        K = 2.0 * np.eye(4)
        m = KcaMethod("gini", row_kernel=KernelSpec("explicit", matrix=K))
        emb = fit_kca(fisher_table(), m, 2)
        K[0, 0] = 50.0
        np.testing.assert_array_equal(emb.decomposition.S[:2], emb.singular_values)

    def test_one_pair_score_array_is_copied_once(self):
        gamma = np.ones((3, 3))
        m = method_from_name("ws", gamma_row=gamma, gamma_col=gamma)
        assert m.gamma_row is m.gamma_col and m.gamma_row is not gamma
        two = method_from_name("ws", gamma_row=gamma, gamma_col=gamma.copy())
        assert two.gamma_row is not two.gamma_col and two == m
        spec = KernelSpec("explicit", matrix=np.eye(3))
        for array in (m.gamma_row, two.gamma_col, spec.matrix):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0


class TestKernelsTable:
    """``KERNELS`` pairs each method name with its kernels; both method builders read it."""

    def test_each_name_is_paired_with_its_kernels(self):
        assert ASSOCIATIONS == ("linear", "gini", "gtest", "sgns", "kpca_cd", "ws")
        assert tuple(KERNELS) == ASSOCIATIONS
        inverse_marginal, identity = KernelSpec("inverse_marginal"), KernelSpec("identity")
        assert KERNELS == {
            "linear": (inverse_marginal, inverse_marginal),
            "gini": (identity, identity),
            "gtest": (identity, identity),
            "sgns": (identity, identity),
            "kpca_cd": (KernelSpec("kpca_cd", alpha=-0.5), identity),
            "ws": (inverse_marginal, inverse_marginal),
        }

    @pytest.mark.parametrize("name", ASSOCIATIONS)
    def test_bare_method_is_the_named_method(self, name):
        gammas = {}
        if name == "ws":
            gammas = {"gamma_row": np.ones((4, 4)), "gamma_col": np.ones((5, 5))}
        bare = KcaMethod(name, **gammas)
        assert bare == method_from_name(name, **gammas)
        assert (bare.row_kernel, bare.col_kernel) == KERNELS[name]

    def test_bare_linear_method_fits_linear_ca_not_the_gini_covariance(self):
        t = fisher_table()
        bare = fit_kca(t, KcaMethod("linear"), 2)
        np.testing.assert_array_equal(bare.singular_values, fit_linear_ca(t, 2).singular_values)
        # S_1 is 8.3e-5 for linear CA and 0.106 for the Gini covariance
        assert bare.singular_values[0] < 1e-3 * fit_kca(t, KcaMethod("gini"), 2).singular_values[0]

    def test_a_kernel_given_explicitly_is_kept(self):
        m = KcaMethod("linear", KernelSpec("identity"))
        assert (m.row_kernel, m.col_kernel) == (KernelSpec("identity"), KERNELS["linear"][1])

    @pytest.mark.parametrize("alpha", [-0.5, -2.0])
    def test_kpca_cd_with_a_column_stopword_alpha_rescales_that_gini_fit(self, alpha):
        # the stop words weight the identity column kernel; the kpca_cd row
        # kernel stays and rescales the gini fit with the same column kernel,
        # whatever that kernel is
        t = fisher_table()
        sw = {"stopwords": {"fair", "dark"}, "sw_alpha_col": 0.5}
        col = method_from_name("kpca_cd", **sw).col_kernel
        assert col == KernelSpec("identity", alpha=0.5, words={"fair", "dark"})
        m = KcaMethod("kpca_cd", KernelSpec("kpca_cd", alpha=alpha), col)
        gini = fit_kca(t, method_from_name("gini", **sw), 3)
        kpca = fit_kca(t, m, 3)
        assert kpca.method_tag == "kpca_cd+sw"
        a2 = 1.0 - math.exp(2.0 * alpha)
        np.testing.assert_allclose(kpca.singular_values, math.sqrt(a2) * gini.singular_values,
                                   rtol=1e-12)
        np.testing.assert_allclose(kpca.F, a2 * gini.F, rtol=0, atol=1e-12 * np.abs(gini.F).max())


@pytest.mark.parametrize("call, message", [
    (lambda: method_from_name("chi2"), "unknown method 'chi2'"),
    (lambda: method_from_name("kpca_cd", stopwords={"blue"}, sw_alpha_row=0.5),
     "method kpca_cd does not read sw_alpha_row"),
    (lambda: method_from_name("gini", sw_alpha_row=0.5), "sw_alpha_row needs stop words"),
    (lambda: method_from_name("linear", stopwords=set(), sw_alpha_col=0.0),
     "sw_alpha_col needs stop words"),
    (lambda: method_from_name("linear", stopwords={"blue"}),
     "without sw_alpha_row or sw_alpha_col the fit does not read stopwords"),
    (lambda: method_from_name("linear", stopwords="the", sw_alpha_row=-0.5),
     "stop words must be a collection, not the string 'the'"),
    (lambda: KernelSpec("inverse_marginal", alpha=0.5, words="blue"),
     "stop words must be a collection, not the string 'blue'"),
    (lambda: KcaMethod("gtest", shift_k=7.0), "method gtest does not read shift_k"),
    (lambda: KcaMethod("gini", gamma_row=np.ones((4, 4)), gamma_col=np.ones((4, 4))),
     "method gini does not read gamma_row"),
    (lambda: KcaMethod("sgns", sgns_floor=math.inf), "sgns_floor must be finite, got inf"),
    (lambda: KcaMethod("sgns", sgns_floor=math.nan), "sgns_floor must be finite, got nan"),
    (lambda: KcaMethod("linear", exponent=math.inf), "exponent must be finite, got inf"),
    (lambda: method_from_name("gtest", exponent=-math.inf), "exponent must be finite, got -inf"),
    (lambda: method_from_name("sgns", shift_k=math.inf),
     "sgns shift_k must be finite and > 0, got inf"),
    (lambda: method_from_name("sgns", shift_k=math.nan),
     "sgns shift_k must be finite and > 0, got nan"),
    (lambda: KernelSpec("explicit"), "an explicit kernel needs a matrix"),
    (lambda: KernelSpec("identity", matrix=np.eye(2)),
     "a kernel of kind 'identity' takes no matrix"),
    (lambda: KernelSpec("kpca_cd", alpha=-0.5, matrix=np.eye(2)),
     "a kernel of kind 'kpca_cd' takes no matrix"),
    (lambda: KernelSpec("kpca_cd", alpha=-0.5, words={"blue"}),
     "a kernel of kind 'kpca_cd' takes no stop words"),
    (lambda: KernelSpec("explicit", matrix=np.eye(2), words={"blue"}),
     "a kernel of kind 'explicit' takes no stop words"),
    (lambda: KernelSpec("identity", alpha=5.0),
     "a kernel of kind 'identity' takes no alpha without stop words"),
    (lambda: KernelSpec("inverse_marginal", alpha=-0.5),
     "a kernel of kind 'inverse_marginal' takes no alpha without stop words"),
    (lambda: KernelSpec("identity", alpha=math.nan),
     "a kernel of kind 'identity' takes no alpha without stop words"),
    (lambda: KernelSpec("explicit", alpha=0.5, matrix=np.eye(2)),
     "a kernel of kind 'explicit' takes no alpha"),
    (lambda: KernelSpec("kpca_cd", alpha=math.nan), "kpca_cd alpha must be finite, got nan"),
    (lambda: KernelSpec("kpca_cd", alpha=-math.inf), "kpca_cd alpha must be finite, got -inf"),
    (lambda: KernelSpec("identity", alpha=math.inf, words={"blue"}),
     "stop-word alpha must be finite, got inf"),
    (lambda: KernelSpec("inverse_marginal", alpha=-1.0, words={"blue"}),
     "stop-word weight 1+alpha = 0 must be positive"),
    (lambda: KernelSpec("kpca_cd", alpha=0.0),
     "kpca_cd kernel is not positive definite for alpha = 0: exp(2*alpha) must be < 1"),
    (lambda: KernelSpec("kpca_cd", alpha=-1e-20),  # exp(2*alpha) rounds to 1
     "kpca_cd kernel is not positive definite for alpha = -1e-20: exp(2*alpha) must be < 1"),
    (lambda: build_gamma(("a", "b"), WordSimDataset((("a", "b", 1.0),)), math.nan),
     "pair-score alpha must be finite, got nan"),
], ids=["unknown method", "kpca_cd row stop-word alpha", "stop-word alpha without words",
        "stop-word alpha with no words", "stop words without an alpha", "a string of stop words",
        "a kernel's string of stop words",
        "gtest shift_k", "gini pair scores", "sgns_floor inf", "sgns_floor nan", "exponent inf",
        "exponent -inf", "sgns shift_k inf", "sgns shift_k nan",
        "explicit without matrix", "identity with matrix", "kpca_cd with matrix",
        "kpca_cd with words", "explicit with words", "identity alpha without words",
        "inverse-marginal alpha without words", "identity nan alpha without words",
        "explicit with alpha", "kpca_cd alpha nan", "kpca_cd alpha -inf",
        "stop-word alpha inf", "stop-word weight 0", "kpca_cd alpha 0", "kpca_cd alpha -1e-20",
        "pair-score alpha nan"])
def test_input_rejections(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# each READ_BY parameter -> a value other than its default
READ_VALUES = {"shift_k": 3.0, "sgns_floor": -1.0, "gamma_row": np.ones((4, 4)),
               "gamma_col": np.ones((4, 4)), "sw_alpha_row": 0.5, "sw_alpha_col": 0.5}


@pytest.mark.parametrize("name", ASSOCIATIONS)
@pytest.mark.parametrize("param", list(READ_BY))
def test_a_parameter_the_method_does_not_read_is_rejected(param, name):
    # KcaMethod fields are checked at construction, the rest by method_from_name
    build = KcaMethod if param in inspect.signature(KcaMethod).parameters else method_from_name
    base = {}
    if name == "ws":  # ws needs both pair-score matrices
        base = {"gamma_row": np.ones((4, 4)), "gamma_col": np.ones((4, 4))}
    if param.startswith("sw_alpha"):
        base["stopwords"] = {"blue"}
    given = {**base, param: READ_VALUES[param]}
    if name not in READ_BY[param]:
        with pytest.raises(ValueError, match=f"^method {name} does not read {param}$"):
            build(name, **given)
    elif not param.startswith("gamma"):
        base.pop("stopwords", None)
        assert build(name, **given) != build(name, **base)
    else:
        build(name, **given)


class TestMaterializeKernel:
    """Structured kernel roots against the dense materialized kernel."""

    def test_identity(self):
        t = fisher_table()
        K = assert_root_matches(KernelSpec("identity"), t.r, t.row_labels)
        np.testing.assert_array_equal(K, np.eye(4))
        root, inv_root = kernel_root(KernelSpec("identity"), t.r, t.row_labels)
        X = np.arange(8.0).reshape(4, 2)
        assert root @ X is X and inv_root @ X is X  # nothing is built or copied

    def test_inverse_marginal(self):
        t = fisher_table()
        assert_root_matches(KernelSpec("inverse_marginal"), t.c, t.col_labels)
        root, _ = kernel_root(KernelSpec("inverse_marginal"), t.c, t.col_labels)
        assert root.d.shape == (5,) and root.dense is None  # a vector, not a matrix

    @pytest.mark.parametrize("kind", ["identity", "inverse_marginal"])
    def test_stopword_alpha_zero_is_the_kernel_without_stop_words(self, kind):
        t = fisher_table()
        spec = KernelSpec(kind, alpha=0.0, words=frozenset({"blue", "dark"}))
        sw = kernel_root(spec, t.r, t.row_labels)
        plain = kernel_root(KernelSpec(kind), t.r, t.row_labels)
        for sw_root, plain_root in zip(sw, plain):
            np.testing.assert_array_equal(sw_root @ np.eye(4), plain_root @ np.eye(4))

    @pytest.mark.parametrize("kind", ["identity", "inverse_marginal"])
    def test_stopword_weights_listed_labels(self, kind):
        t = fisher_table()
        spec = KernelSpec(kind, alpha=0.5, words=frozenset({"blue"}))
        K = assert_root_matches(spec, t.r, t.row_labels)
        base = np.diag(materialize_kernel(KernelSpec(kind), t.r, t.row_labels))
        np.testing.assert_allclose(np.diag(K), [1.5 * base[0], *base[1:]], rtol=1e-15)
        assert kernel_root(spec, t.r, t.row_labels)[0].dense is None  # a vector, not a matrix

    def test_stopword_weight_must_stay_positive(self):
        with pytest.raises(NotPositiveDefiniteError, match="1\\+alpha = 0 must be positive"):
            KernelSpec("inverse_marginal", alpha=-1.0, words=frozenset({"blue"}))

    def test_exponential_kernel_structure(self):
        labels = tuple(f"w{i}" for i in range(7))
        for alpha in (-0.05, -0.5, -3.0):
            spec = KernelSpec("kpca_cd", alpha=alpha)
            K = assert_root_matches(spec, np.ones(7), labels)
            np.testing.assert_allclose(np.diag(K), 1.0)
            np.testing.assert_allclose(K[~np.eye(7, dtype=bool)], math.exp(2.0 * alpha))
            # the closed-form root equals the eigh root
            root, _ = kernel_root(spec, np.ones(7), labels)
            np.testing.assert_allclose(root @ np.eye(7), spd_sqrt(K)[0], atol=1e-12)

    def test_exponential_kernel_alpha_zero_singular(self):
        # all-ones matrix has a zero eigenvalue, so alpha = 0 must be rejected
        t = fisher_table()
        for alpha in (0.0, 0.3):
            with pytest.raises(NotPositiveDefiniteError, match="alpha"):
                KernelSpec("kpca_cd", alpha=alpha)

    def test_explicit_kernel_validated(self):
        labels = ("a", "b")
        good = np.array([[2.0, 1.0], [1.0, 2.0]])
        K = assert_root_matches(KernelSpec("explicit", matrix=good), np.ones(2), labels)
        np.testing.assert_array_equal(K, good)
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            kernel_root(KernelSpec("explicit", matrix=bad), np.ones(2), labels)

    def test_explicit_kernel_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match axis size"):
            kernel_root(KernelSpec("explicit", matrix=np.eye(3)), np.ones(2), ("a", "b"))

    def test_ws_kernels_divide_by_modified_marginals(self):
        rng = np.random.default_rng(139)
        t = random_table(rng, nr=5, nc=4)
        gamma_r = build_gamma(t.row_labels, WordSimDataset((("r0", "r1", 4.0),)), alpha=0.05)
        gamma_c = np.ones((4, 4))
        m = method_from_name("ws", gamma_row=gamma_r, gamma_col=gamma_c)
        assoc = association_matrix(t, m)
        cross = (gamma_r @ t.counts) * (t.counts @ gamma_c)
        np.testing.assert_allclose(assoc.r, cross.sum(axis=1), rtol=1e-14)
        np.testing.assert_allclose(assoc.c, cross.sum(axis=0), rtol=1e-14)
        Kr = assert_root_matches(m.row_kernel, assoc.r, t.row_labels)
        np.testing.assert_allclose(np.diag(Kr), 1.0 / cross.sum(axis=1), rtol=1e-14)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kernel kind"):
            KernelSpec("fourier")


class TestFitKca:
    def test_linear_method_reproduces_linear_ca(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            t = random_table(rng)
            k = min(t.shape) - 1 or 1
            a = fit_kca(t, method_from_name("linear"), k)
            b = fit_linear_ca(t, k)
            np.testing.assert_allclose(a.F, b.F, atol=1e-10)
            np.testing.assert_allclose(a.G, b.G, atol=1e-10)

    def test_linear_fit_is_textbook_ca_at_the_count_scale(self):
        # the kernels are built from counts, not proportions: n S is the
        # classical spectrum and n^{3/2} F, n^{3/2} G the principal coordinates
        rng = np.random.default_rng(7)
        tables = [fisher_table()] + [random_table(rng, int(rng.integers(2, 8)),
                                                  int(rng.integers(2, 8)), hi=20)
                                     for _ in range(20)]
        for t in tables:
            k = min(t.shape) - 1
            emb = fit_kca(t, method_from_name("linear"), k)
            F, G, s = classical_ca(t.counts)
            np.testing.assert_allclose(t.n * emb.singular_values, s[:k], rtol=1e-10)
            for ours, theirs in ((emb.F, F[:, :k]), (emb.G, G[:, :k])):
                ours = t.n**1.5 * ours * np.sign(np.sum(ours * theirs, axis=0))
                np.testing.assert_allclose(ours, theirs, rtol=1e-10,
                                           atol=1e-10 * np.abs(theirs).max())
        fisher = fit_kca(tables[0], method_from_name("linear"), 3)
        ratio = classical_ca(tables[0].counts)[2][:3] / fisher.singular_values
        np.testing.assert_allclose(ratio, 5387.0, rtol=1e-12)

    @pytest.mark.parametrize("name", ASSOCIATIONS)
    def test_stopword_alpha_zero_gives_the_plain_fit(self, name):
        # a weight of 1 leaves each axis's own kernel as it is; kpca_cd reads
        # a column alpha only
        t = fisher_table()
        extra = {"shift_k": 2.0} if name == "sgns" else {}
        if name == "ws":
            scores = WordSimDataset((("blue", "dark", 8.0), ("fair", "red", 3.0)))
            extra = {"gamma_row": build_gamma(t.row_labels, scores, 0.05),
                     "gamma_col": build_gamma(t.col_labels, scores, 0.05)}
        alphas = {"sw_alpha_col": 0.0} if name == "kpca_cd" else {"sw_alpha_row": 0.0,
                                                                   "sw_alpha_col": 0.0}
        plain = fit_kca(t, method_from_name(name, **extra), 3)
        zero = fit_kca(t, method_from_name(name, stopwords={"blue", "dark", "fair"},
                                           **alphas, **extra), 3)
        assert zero.method_tag == plain.method_tag.removesuffix("_ca") + "+sw"
        S = plain.singular_values
        np.testing.assert_allclose(zero.singular_values, S, rtol=0, atol=1e-12 * S[0])
        for X, Y in ((zero.F, plain.F), (zero.G, plain.G)):
            np.testing.assert_allclose(X, Y, rtol=0, atol=1e-12 * np.abs(Y).max())

    def test_gini_stopword_alphas_weight_the_identity_kernels(self):
        # the fit with D(w) given as explicit kernels, w = 1 + alpha on a stop word
        t = fisher_table()
        words = {"blue", "dark", "fair"}
        sw = fit_kca(t, method_from_name("gini", stopwords=words, sw_alpha_row=-0.5,
                                         sw_alpha_col=0.7), 3)
        explicit = [KernelSpec("explicit", matrix=np.diag(
            [1.0 + alpha if lbl in words else 1.0 for lbl in labels]))
            for labels, alpha in ((t.row_labels, -0.5), (t.col_labels, 0.7))]
        dense = fit_kca(t, KcaMethod("gini", *explicit), 3)
        S = dense.singular_values
        np.testing.assert_allclose(sw.singular_values, S, rtol=0, atol=1e-12 * S[0])
        for X, Y in ((sw.F, dense.F), (sw.G, dense.G)):
            np.testing.assert_allclose(X, Y, rtol=0, atol=1e-12 * np.abs(Y).max())

    def test_sgns_identity_kernels_factorize_shifted_pmi(self):
        rng = np.random.default_rng(103)
        t = random_table(rng, nr=5, nc=4)
        m = KcaMethod("sgns", shift_k=1.0)
        emb = fit_kca(t, m, 3)
        dec = svd(association_matrix(t, m).values)
        np.testing.assert_allclose(emb.F, dec.U[:, :3] * dec.S[:3], atol=1e-12)
        np.testing.assert_allclose(emb.G, dec.V[:, :3] * dec.S[:3], atol=1e-12)

    @pytest.mark.parametrize("name", ASSOCIATIONS)
    def test_kpca_cd_row_kernel_alpha_reaches_every_association(self, name):
        # a kpca_cd row kernel given to the library keeps its alpha: on a
        # centred association (columns summing to 0) alpha only rescales,
        # on the log-ratio ones it moves the cosines
        t = fisher_table()
        pair = WordSimDataset(((t.row_labels[0], t.row_labels[2], 3.0),))
        gamma = build_gamma(t.row_labels, pair, 0.1)
        ws = {"gamma_row": gamma, "gamma_col": np.ones((len(t.col_labels),) * 2)}
        fits = [fit_kca(t, KcaMethod(name, KernelSpec("kpca_cd", alpha=alpha),
                                     **(ws if name == "ws" else {})), 3)
                for alpha in (-0.2, -2.0)]
        assert fits[0].method_tag == fits[1].method_tag
        moved = np.abs(cosine_matrix(fits[0].F) - cosine_matrix(fits[1].F)).max()
        if name in ("gtest", "sgns"):
            assert moved > 0.5
        else:
            assert moved < 1e-12
            ratio = math.sqrt((1.0 - math.exp(-0.4)) / (1.0 - math.exp(-4.0)))
            np.testing.assert_allclose(fits[0].singular_values,
                                       ratio * fits[1].singular_values, rtol=1e-12)

    @pytest.mark.parametrize("alpha", [-0.2, -0.5, -2.0])
    def test_kpca_cd_rescales_the_gini_fit(self, alpha):
        # the centred residual's columns sum to 0, so the e 11^T part of the
        # kernel (1-e) I + e 11^T annihilates it: alpha only rescales
        t = fisher_table()
        gini = fit_kca(t, method_from_name("gini"), 3)
        kpca = fit_kca(t, KcaMethod("kpca_cd", KernelSpec("kpca_cd", alpha=alpha)), 3)
        a2 = 1.0 - math.exp(2.0 * alpha)
        np.testing.assert_allclose(kpca.singular_values, math.sqrt(a2) * gini.singular_values,
                                   rtol=0, atol=1e-14 * gini.singular_values[0])
        np.testing.assert_allclose(kpca.F, a2 * gini.F, rtol=0, atol=1e-15)
        np.testing.assert_allclose(kpca.G, math.sqrt(a2) * gini.G, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("c", [2.0, 0.5, -3.0])
    def test_scaled_pair_scores_rescale_the_ws_fit(self, c):
        # both gammas times c: the association and both modified marginals
        # scale by c^2, so the sandwich does not change, and the coordinates
        # scale by 1/|c|
        t = random_table(np.random.default_rng(113), nr=8, nc=6, hi=20)
        rng = np.random.default_rng(127)
        pairs = WordSimDataset(tuple(
            (labels[i], labels[j], float(rng.uniform(0, 10)))
            for labels in (t.row_labels, t.col_labels)
            for i, j in rng.integers(len(labels), size=(6, 2)) if i != j))

        gamma_r = build_gamma(t.row_labels, pairs, 0.3)
        gamma_c = build_gamma(t.col_labels, pairs, 0.3)
        base = fit_ws_kca(t, gamma_r, gamma_c, 4)
        scaled = fit_ws_kca(t, c * gamma_r, c * gamma_c, 4)
        S = base.singular_values
        assert np.all(-np.diff(S) > 1e-3 * S[0]), S
        if math.log2(abs(c)).is_integer():  # a power of two scales exactly
            assert scaled.singular_values.tobytes() == S.tobytes()
            assert scaled.F.tobytes() == (base.F / abs(c)).tobytes()
            assert scaled.G.tobytes() == (base.G / abs(c)).tobytes()
        np.testing.assert_allclose(scaled.singular_values, S, rtol=0, atol=1e-14 * S[0])
        for X, Y in ((scaled.F, base.F), (scaled.G, base.G)):
            np.testing.assert_allclose(X * abs(c), Y, rtol=0, atol=1e-12 * np.abs(Y).max())

    def test_constraint_satisfied_for_all_methods(self):
        rng = np.random.default_rng(107)
        methods = [
            method_from_name("linear"),
            method_from_name("gini"),
            method_from_name("gtest"),
            method_from_name("sgns", shift_k=2.0),
            KcaMethod("kpca_cd", KernelSpec("kpca_cd", alpha=-0.7)),
            method_from_name("linear", stopwords={"r0"}, sw_alpha_row=0.4, sw_alpha_col=-0.2),
            method_from_name("gini", stopwords={"r0", "c1"}, sw_alpha_row=0.4, sw_alpha_col=-0.2),
        ]
        for _ in range(10):
            nr = int(rng.integers(3, 7))
            nc = int(rng.integers(2, nr + 1))  # constraint needs nr >= nc
            t = random_table(rng, nr=nr, nc=nc)
            for m in methods:
                emb = fit_kca(t, m, min(t.shape))
                assert constraint_residual(emb, *dense_kernels(t, m)) < 1e-8

    def test_objective_attains_half_nuclear_norm_and_dominates(self):
        rng = np.random.default_rng(109)
        t = random_table(rng, nr=5, nc=4)
        m = method_from_name("gtest")
        A = association_matrix(t, m).values
        Kr, Kc = dense_kernels(t, m)
        (Lr, _), (Lc, _) = spd_sqrt(Kr), spd_sqrt(Kc)
        sandwich = Lr @ A @ Lc
        dec = svd(sandwich)
        best = 0.5 * float(dec.S.sum())

        emb = fit_kca(t, m, 4)
        assert 0.5 * float(emb.decomposition.S.sum()) == pytest.approx(best, abs=1e-10)

        # any feasible rotation scores at most the optimum
        Lr_inv, Lc_inv = np.linalg.inv(Lr), np.linalg.inv(Lc)
        for _ in range(100):
            Q = np.linalg.qr(rng.normal(size=(5, 4)))[0]
            R = Lr_inv @ Q @ Lc_inv
            value = 0.5 * float(np.trace(R.T @ Kr @ A @ Kc))
            assert value <= best + 1e-10

    def test_exponent_half_splits_spectrum(self):
        rng = np.random.default_rng(113)
        t = random_table(rng, nr=4, nc=4)
        m_half = KcaMethod("sgns", shift_k=1.0, exponent=0.5)
        emb = fit_kca(t, m_half, 2)
        dec = svd(association_matrix(t, KcaMethod("sgns", shift_k=1.0)).values)
        np.testing.assert_allclose(
            emb.F, dec.U[:, :2] * np.sqrt(dec.S[:2]), atol=1e-12
        )

    def test_identity_kernels_reduce_to_svd(self):
        rng = np.random.default_rng(5)
        t = random_table(rng, nr=4, nc=3)
        m = KcaMethod("gtest")
        dec = fit_kca(t, m, 3).decomposition
        plain = svd(association_matrix(t, m).values)
        np.testing.assert_array_equal(dec.U, plain.U)
        np.testing.assert_array_equal(dec.S, plain.S)
        np.testing.assert_array_equal(dec.V, plain.V)

    def test_random_explicit_kernels_orthonormal_and_reconstruct(self):
        # >= 100 random instances of the metric-orthonormality contract
        rng = np.random.default_rng(17)
        associations = ("linear", "gtest", "sgns")
        for i in range(100):
            t = random_table(rng, nr=int(rng.integers(2, 7)), nc=int(rng.integers(2, 7)))
            Kr = random_spd(rng, t.shape[0])
            Kc = random_spd(rng, t.shape[1])
            m = KcaMethod(associations[i % 3], KernelSpec("explicit", matrix=Kr),
                          KernelSpec("explicit", matrix=Kc))
            emb = fit_kca(t, m, min(t.shape))
            dec = emb.decomposition
            k = dec.S.shape[0]
            np.testing.assert_allclose(dec.U.T @ Kr @ dec.U, np.eye(k), atol=1e-8)
            np.testing.assert_allclose(dec.V.T @ Kc @ dec.V, np.eye(k), atol=1e-8)
            np.testing.assert_allclose(
                dec.reconstruct(), association_matrix(t, m).values, atol=1e-8
            )
            np.testing.assert_allclose(emb.F, Kr @ dec.U * dec.S, atol=1e-8)

    def test_decomposition_orthonormal_and_reconstructs_for_every_kernel_kind(self):
        rng = np.random.default_rng(19)
        t = random_table(rng, nr=6, nc=5)
        gamma_r = build_gamma(t.row_labels, WordSimDataset((("r0", "r2", 3.0),)), alpha=0.1)
        for m in (
            method_from_name("linear"),
            KcaMethod("kpca_cd", KernelSpec("kpca_cd", alpha=-0.3), exponent=0.5),
            method_from_name("gtest", stopwords={"r1", "c0"}, sw_alpha_row=0.7,
                             sw_alpha_col=-0.4),
            method_from_name("ws", gamma_row=gamma_r, gamma_col=np.ones((5, 5))),
        ):
            emb = fit_kca(t, m, 4)
            dec = emb.decomposition
            Kr, Kc = dense_kernels(t, m)
            np.testing.assert_allclose(dec.U.T @ Kr @ dec.U, np.eye(5), atol=1e-8)
            np.testing.assert_allclose(dec.V.T @ Kc @ dec.V, np.eye(5), atol=1e-8)
            A = association_matrix(t, m).values
            np.testing.assert_allclose(dec.reconstruct(), A, atol=1e-10 * np.abs(A).max())
            scale = dec.S[:4] ** m.exponent
            np.testing.assert_allclose(emb.F, Kr @ dec.U[:, :4] * scale, atol=1e-10)
            np.testing.assert_allclose(emb.G, Kc @ dec.V[:, :4] * scale, atol=1e-10)

    def test_structured_fit_matches_dense_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            t = random_table(rng, nr=6, nc=6, square=True)
            pairs = WordSimDataset((("r0", "r1", 5.0), ("r2", "r4", 1.0)))
            gamma = build_gamma(t.row_labels, pairs, 0.08)
            methods = [
                method_from_name(name) for name in ("linear", "gini", "gtest")
            ] + [
                method_from_name("sgns", shift_k=2.0),
                KcaMethod("sgns", shift_k=2.0, sgns_floor=-1.0),
                KcaMethod("kpca_cd", KernelSpec("kpca_cd", alpha=-0.2)),
                method_from_name("linear", stopwords={"r3"}, sw_alpha_row=1.5, sw_alpha_col=-0.5),
                method_from_name("ws", gamma_row=gamma, gamma_col=gamma),
                method_from_name("ws", stopwords={"r3"}, sw_alpha_row=-0.5,
                                 gamma_row=gamma, gamma_col=gamma),
                KcaMethod("gini", KernelSpec("explicit", matrix=random_spd(rng, 6)),
                          KernelSpec("kpca_cd", alpha=-1.0)),
            ]
            for m in methods:
                emb = fit_kca(t, m, 4)
                F, G, S = dense_fit(t, m, 4)
                tol = 1e-10 * max(np.abs(F).max(), np.abs(G).max())
                np.testing.assert_allclose(emb.singular_values, S, atol=1e-12 * S[0])
                np.testing.assert_allclose(emb.F, F, atol=tol)
                np.testing.assert_allclose(emb.G, G, atol=tol)

    def test_method_tag_marks_stopword_kernel(self):
        t = fisher_table()
        m = method_from_name("gtest", stopwords={"blue"}, sw_alpha_row=0.3)
        assert fit_kca(t, m, 2).method_tag == "gtest+sw"


# A linear fit of a symmetric Zipf table over 300 types, saved to argv[1].
THREADED_FIT = """
import sys
import numpy as np
from cakit.corpus import CooccurrenceConfig, count_cooccurrences
from cakit.kca import fit_kca, method_from_name
rng = np.random.default_rng(139)
p = 1.0 / np.arange(1, 301) ** 1.1
ids = rng.choice(300, size=30_000, p=p / p.sum())
t = count_cooccurrences([f"w{i:03d}" for i in ids], CooccurrenceConfig(window=2))
assert t.symmetric
emb = fit_kca(t, method_from_name("linear"), 5)
np.savez(sys.argv[1], S=emb.singular_values, F=emb.F, G=emb.G)
"""


def test_fit_agrees_across_blas_thread_counts(tmp_path):
    # roundoff may differ with the thread count, so only agreement is asked,
    # with no column's sign flipped
    src = str(Path(cakit.__file__).resolve().parents[1])
    fits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = tmp_path / f"threads{threads}.npz"
        subprocess.run([sys.executable, "-c", THREADED_FIT, str(out)], env=env, check=True,
                       timeout=120)
        fits.append(np.load(out))
    one, two = fits
    S1 = one["S"][0]
    for name in ("S", "F", "G"):
        np.testing.assert_allclose(two[name], one[name], rtol=0, atol=1e-10 * S1, err_msg=name)
    for name in ("F", "G"):
        assert np.all(np.sum(one[name] * two[name], axis=0) > 0), name


def sparse_symmetric_table(V, seed=0):
    """A symmetric V x V table about 14% nonzero, as `cakit count` writes on Zipf text."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.poisson(0.15, size=(V, V)).astype(float))
    counts = upper + np.triu(upper, 1).T
    counts[np.arange(V), np.arange(V)] += 1.0
    words = [f"w{i}" for i in range(V)]
    return ContingencyTable.from_counts(counts, words, words)


@pytest.mark.parametrize("name", ["linear", "gini", "gtest", "sgns", "kpca_cd"])
def test_fit_peak_memory_in_vxv_arrays(name):
    # the sandwich is built in the association's buffer and the eigenvectors
    # are sorted and signed with no V x V temporary: the sandwich, eigh's
    # vectors and their sorted copy, then U and V.  tracemalloc does not see
    # numpy's own copy of the input and LAPACK's work array inside eigh.
    V = 500
    t = sparse_symmetric_table(V)
    assert t.symmetric  # computed and kept before the trace
    m = method_from_name(name)
    tracemalloc.start()
    try:
        fit_kca(t, m, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * V * V * 8, peak / (V * V * 8)


class TestWsKernelFit:
    def test_sandwich_of_a_symmetric_table_takes_eigh(self, monkeypatch, record_calls):
        # a Zipf corpus over 500 types, counted as `cakit count` does
        rng = np.random.default_rng(137)
        p = 1.0 / np.arange(1, 501) ** 1.1
        ids = rng.choice(500, size=100_000, p=p / p.sum())
        t = count_cooccurrences([f"w{i:03d}" for i in ids], CooccurrenceConfig(window=2))
        assert 450 <= t.shape[0] == t.shape[1] and t.row_labels == t.col_labels
        pairs = rng.choice(len(t.row_labels), size=(3000, 2))
        scores = {(t.row_labels[a], t.row_labels[b]): float(rng.uniform(0, 10))
                  for a, b in pairs}
        scores = WordSimDataset(tuple((a, b, s) for (a, b), s in scores.items()))
        gamma = build_gamma(t.row_labels, scores, alpha=0.01)
        eigh_shapes = record_calls(np.linalg, "eigh")

        def refuse(*args, **kwargs):
            raise AssertionError("the general SVD was called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        emb = fit_ws_kca(t, gamma, gamma, 50)
        assert eigh_shapes == [t.shape]
        assert np.all(np.isfinite(emb.F)) and emb.k == 50

    def test_symmetric_table_and_gamma_give_g_equal_to_f_times_column_signs(self):
        # summed along each axis, the modified marginals differ by roundoff at this size
        rng = np.random.default_rng(40)
        upper = np.triu(rng.integers(0, 30, size=(40, 40)) + 0.0)
        upper[upper < 5] = 0.0
        words = [f"w{i}" for i in range(40)]
        t = ContingencyTable.from_counts(upper + np.triu(upper, 1).T, words, words)
        a, b = rng.integers(0, 40, size=(2, 80))
        pairs = WordSimDataset(tuple((words[i], words[j], float(rng.uniform(0, 10)))
                                     for i, j in zip(a, b) if i != j))
        gamma = build_gamma(t.row_labels, pairs, alpha=0.1)
        assoc = association_matrix(t, method_from_name("ws", gamma_row=gamma, gamma_col=gamma))
        assert assoc.r.tobytes() == assoc.c.tobytes()
        emb = fit_ws_kca(t, gamma, gamma, 10)
        top = np.abs(emb.F).argmax(axis=0), np.arange(10)
        signs = np.sign(emb.G[top] / emb.F[top])
        assert set(signs) <= {-1.0, 1.0}
        assert (emb.F * signs).tobytes() == emb.G.tobytes()
        # the shared marginal is either axis's sum of the general product, to roundoff
        N = t.counts
        cross = (gamma @ N) * (N @ gamma)
        for marginal in (cross.sum(axis=1), cross.sum(axis=0)):
            np.testing.assert_allclose(assoc.r, marginal, rtol=1e-13)

    def test_symmetric_table_under_unequal_or_asymmetric_gammas_is_not_shared(self):
        # the shared shortcut N gamma = (gamma N)^T needs one symmetric gamma on both axes
        rng = np.random.default_rng(41)
        upper = np.triu(rng.integers(0, 30, size=(12, 12)) + 0.0)
        words = [f"w{i}" for i in range(12)]
        t = ContingencyTable.from_counts(upper + np.triu(upper, 1).T, words, words)
        gamma = build_gamma(words, WordSimDataset((("w0", "w3", 9.0), ("w2", "w5", 4.0))), 0.1)
        other = build_gamma(words, WordSimDataset((("w1", "w7", 6.0),)), 0.1)
        skewed = gamma.copy()
        skewed[0, 3] += 0.5
        N = t.counts
        assert t.symmetric
        for gamma_r, gamma_c in ((gamma, other), (skewed, skewed)):
            assoc = association_matrix(t, method_from_name("ws", gamma_row=gamma_r,
                                                           gamma_col=gamma_c))
            cross = (gamma_r @ N) * (N @ gamma_c)
            expected = (N * (gamma_r @ N @ gamma_c) - cross) / (t.n * t.n)
            assert not assoc.symmetric
            np.testing.assert_allclose(assoc.values, expected, rtol=0,
                                       atol=1e-14 * np.abs(expected).max())
            np.testing.assert_allclose(assoc.c, cross.sum(axis=0), rtol=1e-14)

    def test_build_gamma_matches_the_dict_loop_bit_for_bit(self):
        rng = np.random.default_rng(233)
        pool = [f"w{i}" for i in range(30)]
        for _ in range(20):
            labels = tuple(rng.permutation(pool)[: int(rng.integers(2, 25))])
            words = rng.choice(pool + ["oov1", "oov2"], size=(int(rng.integers(1, 80)), 2))
            triples = [(a, b, float(rng.normal(scale=5.0))) for a, b in words]
            a, b, _ = triples[0]
            triples += [(b, a, 11.0), (a, b, -7.25)]  # both orders, then a repeat
            alpha = float(rng.normal())
            gamma = build_gamma(labels, WordSimDataset(tuple(triples)), alpha)
            items = [((a, b), s) for a, b, s in triples]
            assert gamma.tobytes() == reference_build_gamma(labels, items, alpha).tobytes()
            np.testing.assert_array_equal(gamma, gamma.T)
            if a in labels and b in labels:  # the later listing wins
                assert gamma[labels.index(a), labels.index(b)] == alpha * -7.25 + 1.0

    def test_flat_scores_reduce_to_linear_ca_cosines(self):
        rng = np.random.default_rng(127)
        for _ in range(5):
            t = random_table(rng, nr=5, nc=4)
            k = 3
            ws = fit_ws_kca(t, np.ones((5, 5)), np.ones((4, 4)), k)
            base = fit_linear_ca(t, k)
            np.testing.assert_allclose(
                cosine_matrix(ws.F), cosine_matrix(base.F), atol=1e-8
            )
            np.testing.assert_allclose(
                cosine_matrix(ws.G), cosine_matrix(base.G), atol=1e-8
            )

    def test_constant_scores_with_nonzero_alpha_keep_cosines(self):
        # gamma = 1 + alpha*s constant over all pairs acts as a global scale
        rng = np.random.default_rng(131)
        t = random_table(rng, nr=4, nc=4)
        scores = WordSimDataset(tuple((f"r{i}", f"r{j}", 5.0) for i in range(4) for j in range(4)))
        gamma = build_gamma(t.row_labels, scores, alpha=0.06)
        np.testing.assert_allclose(gamma, 1.3)
        ws = fit_ws_kca(t, gamma, np.full((4, 4), 1.3), 3)
        base = fit_linear_ca(t, 3)
        np.testing.assert_allclose(cosine_matrix(ws.F), cosine_matrix(base.F), atol=1e-8)

    def test_scored_pair_cosine_moves_with_alpha_sign(self):
        # the pair weight scales that pair's disagreement term in the
        # objective: weighting below 1 pulls the pair together, above 1
        # pushes it apart
        rng = np.random.default_rng(137)
        m = 6
        counts = rng.integers(1, 10, size=(m, m)) + 0.0
        labels = tuple(f"w{i}" for i in range(m))
        t = ContingencyTable.from_counts(counts, labels, labels)
        ones = np.ones((m, m))
        base = fit_ws_kca(t, ones, ones, 3)
        base_cos = cosine_matrix(base.F)[0, 1]

        scores = WordSimDataset((("w0", "w1", 10.0),))
        pulled = build_gamma(labels, scores, alpha=-0.03)
        assert pulled[0, 1] == pytest.approx(0.7)
        together = fit_ws_kca(t, pulled, ones, 3)
        assert cosine_matrix(together.F)[0, 1] > base_cos

        pushed = build_gamma(labels, scores, alpha=0.03)
        apart = fit_ws_kca(t, pushed, ones, 3)
        assert cosine_matrix(apart.F)[0, 1] < base_cos

    def test_stopword_kernel_acts_over_the_modified_marginals(self):
        rng = np.random.default_rng(149)
        t = random_table(rng, nr=5, nc=5, square=True)
        gamma = build_gamma(t.row_labels, WordSimDataset((("r0", "r1", 10.0),)), alpha=0.05)
        plain = fit_ws_kca(t, gamma, gamma, 3)
        assert plain.method_tag == "ws"

        def ws_sw(alpha):
            m = method_from_name("ws", stopwords={"r2", "r3"}, sw_alpha_row=alpha,
                                 sw_alpha_col=alpha, gamma_row=gamma, gamma_col=gamma)
            return fit_kca(t, m, 3)

        zero = ws_sw(0.0)
        assert zero.method_tag == "ws+sw"
        np.testing.assert_allclose(zero.F, plain.F, atol=1e-10 * np.abs(plain.F).max())
        np.testing.assert_allclose(zero.G, plain.G, atol=1e-10 * np.abs(plain.G).max())
        moved = ws_sw(2.0)
        assert np.abs(moved.F - plain.F).max() > 1e-3 * np.abs(plain.F).max()

    def test_ws_method_needs_pair_scores(self):
        with pytest.raises(ValueError, match="pair-score"):
            KcaMethod("ws")

    def test_nonpositive_modified_marginal_names_label(self):
        t = ContingencyTable.from_counts(
            [[1.0, 1.0], [1.0, 1.0]], ("aa", "bb"), ("x", "y")
        )
        gamma_r = np.array([[-1.0, -1.0], [-1.0, -1.0]])
        with pytest.raises(ValueError, match="aa"):
            fit_ws_kca(t, gamma_r, np.ones((2, 2)), 1)

    def test_shape_validation(self):
        t = fisher_table()
        with pytest.raises(ValueError, match="pair-score"):
            fit_ws_kca(t, np.ones((3, 3)), np.ones((5, 5)), 2)
