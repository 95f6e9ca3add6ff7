"""Decomposition kernel: SVD, SPD square roots, nuclear norm."""

import numpy as np
import pytest

from cakit.linalg import NotPositiveDefiniteError, nuclear_norm, spd_sqrt, svd


def random_spd(rng, m, lo=0.5, hi=2.0):
    """Well-conditioned SPD matrix with eigenvalues in [lo, hi]."""
    Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
    lam = rng.uniform(lo, hi, size=m)
    return (Q * lam) @ Q.T


class TestSvd:
    def test_identity(self):
        dec = svd(np.eye(2))
        np.testing.assert_allclose(dec.S, [1.0, 1.0])

    def test_zero_matrix(self):
        dec = svd(np.zeros((3, 2)))
        np.testing.assert_allclose(dec.S, 0.0)

    def test_diagonal_values_sorted(self):
        dec = svd(np.array([[3.0, 0.0], [0.0, 4.0]]))
        np.testing.assert_allclose(dec.S, [4.0, 3.0])
        # axis vectors come out permuted to match the sorted spectrum
        np.testing.assert_allclose(np.abs(dec.U), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            A = rng.normal(size=(rng.integers(2, 7), rng.integers(2, 7)))
            dec = svd(A)
            np.testing.assert_allclose(dec.reconstruct(), A, atol=1e-12)
            k = dec.S.shape[0]
            np.testing.assert_allclose(dec.U.T @ dec.U, np.eye(k), atol=1e-12)
            np.testing.assert_allclose(dec.V.T @ dec.V, np.eye(k), atol=1e-12)
            assert np.all(np.diff(dec.S) <= 0)
            assert np.all(dec.S >= 0)

    def test_sign_convention_largest_entry_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dec = svd(rng.normal(size=(5, 4)))
            for j in range(dec.U.shape[1]):
                i = int(np.argmax(np.abs(dec.U[:, j])))
                assert dec.U[i, j] >= 0

    def test_singular_values_permutation_invariant(self):
        rng = np.random.default_rng(13)
        A = rng.normal(size=(5, 6))
        base = svd(A).S
        for _ in range(10):
            P = rng.permutation(5)
            Q = rng.permutation(6)
            np.testing.assert_allclose(svd(A[P][:, Q]).S, base, atol=1e-10)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rank_flags_small_values(self):
        dec = svd(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert dec.rank == 1
        assert dec.flagged_small.tolist() == [False, True]


class TestSpdSqrt:
    def test_diagonal_fast_path(self):
        np.testing.assert_allclose(spd_sqrt(np.diag([4.0, 9.0]))[0], np.diag([2.0, 3.0]))

    def test_identity(self):
        np.testing.assert_allclose(spd_sqrt(np.eye(3))[0], np.eye(3))

    def test_dense_squares_back(self):
        K = np.array([[2.0, 1.0], [1.0, 2.0]])
        root, _ = spd_sqrt(K)
        np.testing.assert_allclose(root @ root, K, atol=1e-10)
        np.testing.assert_allclose(root, root.T, atol=1e-14)

    def test_random_spd_squares_back(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            K = random_spd(rng, int(rng.integers(2, 6)))
            root, _ = spd_sqrt(K)
            np.testing.assert_allclose(root @ root, K, atol=1e-10)
            np.testing.assert_allclose(root, root.T, atol=1e-12)

    def test_inverse_root(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            K = random_spd(rng, int(rng.integers(2, 6)))
            root, inv_root = spd_sqrt(K)
            np.testing.assert_allclose(inv_root @ root, np.eye(K.shape[0]), atol=1e-12)
            np.testing.assert_allclose(inv_root, inv_root.T, atol=1e-14)

    def test_indefinite_rejected_with_eigenvalue_in_message(self):
        with pytest.raises(NotPositiveDefiniteError, match="eigenvalue -1"):
            spd_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_sqrt(np.ones((3, 3)))

    def test_negative_diagonal_rejected(self):
        with pytest.raises(NotPositiveDefiniteError, match="-4"):
            spd_sqrt(np.diag([1.0, -4.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            spd_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestNuclearNorm:
    def test_diagonal(self):
        assert nuclear_norm(np.diag([3.0, 4.0])) == pytest.approx(7.0, abs=1e-12)

    def test_zero(self):
        assert nuclear_norm(np.zeros((2, 5))) == 0.0

    def test_matches_svd_sum(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            A = rng.normal(size=(3, 3))
            assert nuclear_norm(A) == pytest.approx(float(svd(A).S.sum()), abs=1e-10)
