"""Decomposition kernel: SVD, SPD square roots, nuclear norm."""

import re

import numpy as np
import pytest

from cakit.linalg import (
    Decomposition,
    NotPositiveDefiniteError,
    _sign_convention,
    nuclear_norm,
    spd_sqrt,
    svd,
)


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

    def test_sign_convention_finds_the_lowest_index_of_tied_magnitudes(self):
        # columns of few distinct values, so most hold the largest magnitude
        # more than once and of both signs, and some are all +0.0 or -0.0
        rng = np.random.default_rng(17)
        for _ in range(200):
            U = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=(rng.integers(1, 6), 6))
            U[:, 0] = rng.choice([0.0, -0.0], size=len(U))
            V = rng.normal(size=(4, 6))
            top = np.argmax(np.abs(U), axis=0)  # the lowest index of each column's ties
            signs = np.where(U[top, np.arange(6)] < 0, -1.0, 1.0)
            assert _sign_convention(U).tobytes() == signs.tobytes()

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


def symmetric_with_spectrum(rng, lam):
    Q = np.linalg.qr(rng.normal(size=(len(lam), len(lam))))[0]
    M = (Q * lam) @ Q.T
    return 0.5 * (M + M.T)


@pytest.fixture
def eigh_calls(record_calls):
    """The calls of ``np.linalg.eigh``; the symmetric path of svd takes one."""
    return record_calls(np.linalg, "eigh")


class TestSymmetricPath:
    def test_matches_the_general_svd_signs_included(self, eigh_calls):
        rng = np.random.default_rng(31)
        for n in (2, 5, 40):
            # distinct magnitudes of both signs, so every triplet is determined
            lam = rng.permutation(np.linspace(1.0, 3.0, n) * rng.choice([-1.0, 1.0], size=n))
            M = symmetric_with_spectrum(rng, lam)
            dec = svd(M)
            U, S, Vt = np.linalg.svd(M)
            top = np.argmax(np.abs(U), axis=0)
            signs = np.where(U[top, np.arange(n)] < 0, -1.0, 1.0)
            np.testing.assert_allclose(dec.S, S, rtol=0, atol=1e-12 * S[0])
            np.testing.assert_allclose(dec.U, U * signs, rtol=0, atol=1e-9)
            np.testing.assert_allclose(dec.V, Vt.T * signs, rtol=0, atol=1e-9)
        assert eigh_calls == [(2, 2), (5, 5), (40, 40)]

    def test_right_vectors_carry_the_eigenvalue_signs(self):
        rng = np.random.default_rng(37)
        lam = np.array([2.0, -5.0, 1.0, -0.5])
        dec = svd(symmetric_with_spectrum(rng, lam))
        np.testing.assert_allclose(dec.S, [5.0, 2.0, 1.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(np.sum(dec.U * dec.V, axis=0), [-1.0, 1.0, 1.0, -1.0],
                                   atol=1e-12)

    def test_opposite_eigenvalue_pair(self):
        rng = np.random.default_rng(41)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        for M in (swap, symmetric_with_spectrum(rng, [3.0, -3.0, 1.0, 0.0])):
            dec = svd(M)
            assert np.all(dec.S >= 0) and np.all(np.diff(dec.S) <= 0)
            np.testing.assert_allclose(dec.reconstruct(), M, rtol=0, atol=1e-14)
            k = dec.S.shape[0]
            np.testing.assert_allclose(dec.U.T @ dec.U, np.eye(k), atol=1e-12)
            np.testing.assert_allclose(dec.V.T @ dec.V, np.eye(k), atol=1e-12)
        dec = svd(swap)
        np.testing.assert_allclose(dec.S, [1.0, 1.0])
        # the tie keeps eigh's ascending order: the -1 eigenvalue comes first
        np.testing.assert_allclose(np.sum(dec.U * dec.V, axis=0), [-1.0, 1.0], atol=1e-15)

    def test_zero_eigenvalue_takes_the_plus_sign(self):
        dec = svd(np.diag([2.0, 0.0, -1.0]))
        np.testing.assert_array_equal(dec.S, [2.0, 1.0, 0.0])
        np.testing.assert_array_equal(dec.V, dec.U * [1.0, -1.0, 1.0])

    def test_square_non_symmetric_input_never_reaches_eigh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called on a non-symmetric matrix")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        rng = np.random.default_rng(43)
        M = symmetric_with_spectrum(rng, np.linspace(1.0, 2.0, 6))
        M[0, 1] += 1e-9  # far above roundoff
        for A in (M, rng.normal(size=(5, 5)), np.triu(np.ones((4, 4)))):
            dec = svd(A)
            np.testing.assert_allclose(dec.reconstruct(), A, atol=1e-12)

    def test_one_ulp_from_symmetric_takes_the_general_svd(self, eigh_calls, record_calls):
        general_svd_calls = record_calls(np.linalg, "svd")
        M = symmetric_with_spectrum(np.random.default_rng(47), np.linspace(-1.0, 2.0, 30))
        M[3, 7] = np.nextafter(M[3, 7], np.inf)
        dec = svd(M)
        assert eigh_calls == [] and general_svd_calls == [(30, 30)]
        np.testing.assert_allclose(dec.reconstruct(), M, rtol=0, atol=1e-14 * dec.S[0])

    def test_two_runs_are_bit_identical(self):
        rng = np.random.default_rng(53)
        M = symmetric_with_spectrum(rng, rng.normal(size=25))
        first, second = svd(M), svd(M)
        for a, b in zip((first.U, first.S, first.V), (second.U, second.S, second.V)):
            assert a.tobytes() == b.tobytes()


class TestZeroRows:
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_singular_vectors_vanish_on_zero_rows_and_columns(self, symmetric):
        rng = np.random.default_rng(59)
        A = rng.normal(size=(8, 8))
        A = A + A.T if symmetric else A
        A[[2, 5], :] = 0.0
        A[:, [2, 5] if symmetric else [1]] = 0.0
        dec = svd(A)
        kept = ~dec.flagged_small
        assert kept.sum() == 6
        assert np.all(dec.U[[2, 5]][:, kept] == 0.0)
        assert np.all(dec.V[[2, 5] if symmetric else [1]][:, kept] == 0.0)
        np.testing.assert_allclose(dec.reconstruct(), A, atol=1e-12)
        k = dec.S.shape[0]
        np.testing.assert_allclose(dec.U.T @ dec.U, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(dec.V.T @ dec.V, np.eye(k), atol=1e-12)


    def test_symmetric_right_vectors_are_the_left_times_the_eigenvalue_signs(self):
        # bit for bit, the signed zeros of the all-zero rows included
        rng = np.random.default_rng(61)
        for n in (6, 30):
            A = symmetric_with_spectrum(rng, rng.normal(size=n))
            zero = rng.choice(n, size=2, replace=False)
            A[zero, :] = A[:, zero] = 0.0
            dec = svd(A)
            live = int(np.flatnonzero(A.any(axis=1))[0])
            s = np.where(np.signbit(dec.U[live]) != np.signbit(dec.V[live]), -1.0, 1.0)
            assert dec.V.tobytes() == (dec.U * s).tobytes()
            kept = ~dec.flagged_small
            # negative eigenvalues, and their zeros of both signs, among the kept triplets
            assert (s[kept] < 0).any() and np.signbit(dec.V[zero][:, kept]).any()
            assert not np.signbit(dec.V[zero][:, kept]).all()


@pytest.mark.parametrize("call, message", [
    (lambda: svd(np.ones(3)), "matrix must be 2-dimensional, got shape (3,)"),
    (lambda: svd(np.ones((0, 3))), "matrix must be non-empty"),
    (lambda: spd_sqrt(np.ones((2, 2, 2))),
     "kernel matrix must be 2-dimensional, got shape (2, 2, 2)"),
    (lambda: spd_sqrt(np.ones((2, 3))), "SPD square root needs a square matrix, got (2, 3)"),
], ids=["svd of a vector", "svd of an empty matrix", "spd_sqrt of a 3-D array",
        "spd_sqrt of a non-square matrix"])
def test_input_rejections(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_empty_spectrum_flags_nothing():
    dec = Decomposition(U=np.zeros((2, 0)), S=np.zeros(0), V=np.zeros((3, 0)))
    assert dec.flagged_small.dtype == bool and dec.flagged_small.shape == (0,)
