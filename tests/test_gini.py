"""Categorical variance and the rotated-covariance optimum vs. its oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cakit.datasets import fisher_table
from cakit.gini import brute_force_covariance, gini_variance, rotated_covariance
from cakit.kca import KcaMethod, KernelSpec, fit_kca, kernel_root, method_from_name
from cakit.linalg import nuclear_norm
from cakit.tables import ContingencyTable, contingency_from_observations, residual_matrix


def pairwise_disagreement_count(t, axis):
    """Number of ordered observation pairs whose category differs, n^2 - sum m_i^2."""
    m = t.r if axis == "row" else t.c
    return t.n * t.n - float(np.sum(m * m))


def random_observations(rng, n_rows, n_cols, n_obs):
    rows = [f"r{i}" for i in range(n_rows)]
    cols = [f"c{j}" for j in range(n_cols)]
    return [
        (rows[rng.integers(n_rows)], cols[rng.integers(n_cols)]) for _ in range(n_obs)
    ]


class TestGiniVariance:
    def test_two_equal_categories(self):
        t = ContingencyTable.from_counts([[1.0], [1.0]], ["a", "b"], ["x"])
        assert gini_variance(t, "row") == pytest.approx(0.25, abs=1e-15)

    def test_single_category_is_zero(self):
        t = ContingencyTable.from_counts([[3.0, 4.0]], ["only"], ["x", "y"])
        assert gini_variance(t, "row") == 0.0

    def test_survey_eye_axis(self):
        # (1 - sum p_i^2)/2 with marginals (718, 1580, 1774, 1315), n = 5387
        assert gini_variance(fisher_table(), "row") == pytest.approx(0.364089, abs=1e-5)

    def test_closed_form_equals_pairwise_count_exactly(self):
        rng = np.random.default_rng(43)
        cases = [fisher_table()]
        for _ in range(25):
            counts = rng.integers(0, 40, size=(rng.integers(2, 7), rng.integers(2, 7)))
            counts[0, 0] += 1
            cases.append(ContingencyTable.from_counts(counts))
        for t in cases:
            for axis in ("row", "col"):
                n = int(t.n)
                marg = t.r if axis == "row" else t.c
                disagree = n * n - sum(int(m) ** 2 for m in marg)
                assert pairwise_disagreement_count(t, axis) == disagree
                exact = float(Fraction(disagree, 2 * n * n))
                assert gini_variance(t, axis) == exact

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            gini_variance(fisher_table(), "diagonal")


class TestBruteForceCovariance:
    def test_identical_observations_vanish(self):
        obs = [("A", "X")] * 5
        R = np.array([[2.0]])
        assert brute_force_covariance(obs, R) == 0.0

    def test_two_observation_hand_value(self):
        # four pair terms: two zero, two equal to 2; total 4 / (4 * 2^2) = 1/4
        obs = [("A", "X"), ("B", "Y")]
        assert brute_force_covariance(obs, np.eye(2)) == pytest.approx(0.25, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            brute_force_covariance([("A", "X"), ("B", "Y")], np.eye(3))

    def test_double_sum_equals_half_trace(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            obs = random_observations(
                rng, rng.integers(2, 5), rng.integers(2, 5), rng.integers(5, 60)
            )
            t = contingency_from_observations(obs)
            R = rng.normal(size=t.shape)
            lhs = brute_force_covariance(obs, R)
            rhs = 0.5 * float(np.trace(R.T @ residual_matrix(t)))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestRotatedCovariance:
    def test_independence_table_value_zero(self):
        t = ContingencyTable.from_counts([[1.0, 1.0], [1.0, 1.0]])
        rot = rotated_covariance(t)
        assert rot.value == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(rot.rotation.T @ rot.rotation, np.eye(2), atol=1e-12)

    def test_diagonal_table(self):
        # residual is symmetric PSD: half the nuclear norm is attained and
        # the rotation stays orthogonal (the zero mode leaves it non-unique)
        t = ContingencyTable.from_counts([[2.0, 0.0], [0.0, 2.0]])
        rot = rotated_covariance(t)
        assert rot.value == pytest.approx(0.5 * nuclear_norm(residual_matrix(t)), abs=1e-12)
        assert rot.value == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(rot.rotation.T @ rot.rotation, np.eye(2), atol=1e-12)
        attained = 0.5 * float(np.trace(rot.rotation.T @ residual_matrix(t)))
        assert attained == pytest.approx(rot.value, abs=1e-12)

    def test_value_is_half_nuclear_norm(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            counts = rng.integers(0, 20, size=(rng.integers(2, 6), rng.integers(2, 6)))
            counts[0, 0] += 1
            t = ContingencyTable.from_counts(counts)
            rot = rotated_covariance(t)
            assert rot.value == pytest.approx(
                0.5 * nuclear_norm(residual_matrix(t)), abs=1e-10
            )

    def test_trace_identity_against_brute_force(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            obs = random_observations(rng, 4, 5, 50)
            t = contingency_from_observations(obs)
            rot = rotated_covariance(t)
            assert brute_force_covariance(obs, rot.rotation) == pytest.approx(
                rot.value, abs=1e-12
            )

    def test_wide_table_transposed_solution(self):
        t = ContingencyTable.from_counts([[3.0, 1.0, 2.0, 5.0], [1.0, 4.0, 2.0, 1.0]])
        rot = rotated_covariance(t)
        assert rot.rotation.shape == (2, 4)
        # semi-orthogonality holds on the short side
        np.testing.assert_allclose(
            rot.rotation @ rot.rotation.T, np.eye(2), atol=1e-10
        )
        assert rot.value == pytest.approx(
            0.5 * nuclear_norm(residual_matrix(t)), abs=1e-12
        )

    def test_is_read_from_the_gini_fit(self):
        # the CA-Gini identity rests on the one fit path: value and rotation
        # are the gini fit's, bit for bit, on tall, wide and symmetric tables
        rng = np.random.default_rng(73)
        upper = np.triu(rng.integers(0, 9, size=(9, 9)))
        words = [f"w{i}" for i in range(9)]
        for t in (fisher_table(), ContingencyTable.from_counts(rng.integers(0, 30, size=(30, 17))),
                  ContingencyTable.from_counts(upper + np.triu(upper, 1).T + 1, words, words)):
            dec = fit_kca(t, KcaMethod("gini")).decomposition
            rot = rotated_covariance(t)
            assert rot.value == 0.5 * float(np.sum(dec.S))
            assert rot.rotation.tobytes() == (dec.U @ dec.V.T).tobytes()

    def test_optimality_over_random_rotations(self):
        rng = np.random.default_rng(61)
        counts = rng.integers(1, 20, size=(5, 4))
        t = ContingencyTable.from_counts(counts)
        xi = residual_matrix(t)
        best = rotated_covariance(t).value
        for _ in range(100):
            Q = np.linalg.qr(rng.normal(size=(5, 4)))[0]
            assert best >= abs(0.5 * float(np.trace(Q.T @ xi))) - 1e-12


def kernel_methods(t, rng):
    """The fits whose association is the centered residual, by name."""
    return {
        "linear": method_from_name("linear"),
        "gini": method_from_name("gini"),
        "kpca_cd": KcaMethod("kpca_cd", KernelSpec("kpca_cd", alpha=-0.3)),
        "linear+sw": method_from_name("linear", stopwords={"r0", "c1"},
                                      sw_alpha_row=-0.5, sw_alpha_col=0.7),
        # a row and a column kernel of different kinds, each with random parameters
        "mixed": KcaMethod(
            "linear", KernelSpec("kpca_cd", alpha=float(rng.uniform(-3.0, -0.05))),
            KernelSpec("inverse_marginal", alpha=float(rng.uniform(-0.9, 2.0)),
                       words=rng.choice(t.col_labels, int(rng.integers(1, t.shape[1] + 1)),
                                        replace=False).tolist())),
    }


def encoded_covariance(X, Y, R):
    """The literal double sum over observation pairs p, q of
    ``(x_p - x_q)^T R (y_p - y_q) / (4 n^2)``, one row of X and Y per observation."""
    n = len(X)
    terms = [float(np.sum(((X[p] - X) @ R) * (Y[p] - Y))) for p in range(n)]
    return math.fsum(terms) / (4.0 * n * n)


class TestKernelGiniCovariance:
    """The abstract's first claim, for every kernel: encode observation (a, b)
    as ``(K_r^{1/2} e_a, K_c^{1/2} e_b)`` (for linear CA ``e_a / sqrt(r_a)``);
    the Gini covariance of the encoded pairs at ``R* = U_s V_s^T``, the rotation
    of the fit's sandwich, is half the sum of the fit's full spectrum, and no
    other orthogonal rotation scores above it.

    The double sum is ``tr(R^T K_r^{1/2} P K_c^{1/2}) / 2`` with P the centered
    residual, so it covers the fits whose association is P.  gtest and sgns
    factorize a log ratio of the cells, and ws a Hadamard product of the table
    with itself; none is a covariance of the encoded observations.
    """

    @staticmethod
    def encode(obs, t, m):
        """Per observation, the encoded row and column points, and R* of the fit."""
        dec = fit_kca(t, m).decomposition
        Lr, _ = kernel_root(m.row_kernel, t.r, t.row_labels)
        Lc, _ = kernel_root(m.col_kernel, t.c, t.col_labels)
        Er, Ec = Lr.scale(np.eye(t.shape[0])), Lc.scale(np.eye(t.shape[1]))  # columns K^{1/2} e_a
        rows = [t.row_labels.index(a) for a, _ in obs]
        cols = [t.col_labels.index(b) for _, b in obs]
        R = Lr.scale(dec.U.copy()) @ Lc.scale(dec.V.copy()).T
        return Er[:, rows].T, Ec[:, cols].T, R, dec.S

    @pytest.mark.parametrize("name", ["linear", "gini", "kpca_cd", "linear+sw", "mixed"])
    def test_optimum_is_half_the_spectrum(self, name):
        rng = np.random.default_rng(67)
        for _ in range(8):
            obs = random_observations(rng, rng.integers(2, 7), rng.integers(2, 7),
                                      rng.integers(20, 151))
            t = contingency_from_observations(obs)
            X, Y, R_star, S = self.encode(obs, t, kernel_methods(t, rng)[name])
            assert encoded_covariance(X, Y, R_star) == pytest.approx(0.5 * S.sum(), rel=1e-12)

    @pytest.mark.parametrize("name", ["linear", "gini", "kpca_cd", "linear+sw", "mixed"])
    def test_no_orthogonal_rotation_scores_above_the_optimum(self, name):
        rng = np.random.default_rng(71)
        obs = random_observations(rng, 5, 4, 60)
        t = contingency_from_observations(obs)
        X, Y, R_star, _ = self.encode(obs, t, kernel_methods(t, rng)[name])
        best = encoded_covariance(X, Y, R_star)
        for _ in range(50):
            R = np.linalg.qr(rng.normal(size=R_star.shape))[0]
            assert encoded_covariance(X, Y, R) <= best * (1 + 1e-12)


@pytest.mark.parametrize("obs, R, message", [
    ([], np.ones((1, 1)), "observation list is empty"),
    ([("a", "x"), ("b", "x")], np.ones((1, 1)),
     r"rotation shape \(1, 1\) does not match 2 row / 1 column categories"),
], ids=["empty", "rotation shape"])
def test_brute_force_covariance_rejections(obs, R, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        brute_force_covariance(obs, R)
