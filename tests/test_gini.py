"""Categorical variance and the rotated-covariance optimum vs. its oracles."""

from fractions import Fraction

import numpy as np
import pytest

from cakit.datasets import fisher_table
from cakit.gini import brute_force_covariance, gini_variance, rotated_covariance
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

    def test_optimality_over_random_rotations(self):
        rng = np.random.default_rng(61)
        counts = rng.integers(1, 20, size=(5, 4))
        t = ContingencyTable.from_counts(counts)
        xi = residual_matrix(t)
        best = rotated_covariance(t).value
        for _ in range(100):
            Q = np.linalg.qr(rng.normal(size=(5, 4)))[0]
            assert best >= abs(0.5 * float(np.trace(Q.T @ xi))) - 1e-12
