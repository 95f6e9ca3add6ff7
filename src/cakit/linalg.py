"""Dense linear-algebra kernel: SVD, SPD square roots, nuclear norm.

Every fit in this package reduces to one :func:`svd`; the kernel-CA fit
(:mod:`cakit.kca`) scales the factors back into the generalized SVD under
its kernel metrics.  A square matrix equal to its transpose is decomposed
by one symmetric eigendecomposition, a fraction of the cost of a general
SVD, any other by the general SVD; a fit symmetrises its sandwich first
when its table and method make it symmetric.  Matrices are plain
``numpy.ndarray`` (float64, dense); inputs are validated for finiteness
and the decompositions carry a deterministic sign convention so repeated
runs produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tables import _equal_fields


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix required to be SPD has an eigenvalue <= 0."""


def _as_matrix(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if A.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return A


@dataclass(frozen=True)
class Decomposition:
    """Singular triplet ``U @ diag(S) @ V.T``, ``S`` sorted descending and nonnegative.

    From :func:`svd` the factors are orthonormal.  A kernel-CA fit stores
    the generalized SVD of its association instead, whose factors are
    orthonormal under the kernel metrics: ``U.T @ K_r @ U = I`` and
    ``V.T @ K_c @ V = I``.
    """

    U: np.ndarray = field(hash=False)
    S: np.ndarray = field(hash=False)
    V: np.ndarray = field(hash=False)

    __eq__ = _equal_fields

    @property
    def flagged_small(self) -> np.ndarray:
        """Boolean mask of singular values flagged as numerically zero."""
        if self.S.size == 0:
            return np.zeros(0, dtype=bool)
        return self.S <= 1e-12 * (self.S[0] if self.S[0] > 0 else 1.0)

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.T


def _sign_convention(U: np.ndarray) -> np.ndarray:
    """The sign, 1.0 or -1.0, per column of U that makes its entry of largest magnitude
    nonnegative, the lowest index of ties; the matching right vector takes the same sign."""
    # The entry is the column's largest or its smallest, so argmax and argmin
    # (each the lowest index of its ties) find it with no |U| array.
    cols = np.arange(U.shape[1])
    hi, lo = np.argmax(U, axis=0), np.argmin(U, axis=0)
    up, down = U[hi, cols], -U[lo, cols]
    top = np.where(up > down, hi, np.where(down > up, lo, np.minimum(hi, lo)))
    return np.where(U[top, cols] < 0, -1.0, 1.0)


def svd(M) -> Decomposition:
    """Thin SVD with identity metrics and the fixed sign convention.

    A square M equal to its transpose, bit for bit, is decomposed by one
    ``eigh``, ``M = Q diag(lam) Q^T``: ``S = |lam|`` (stably sorted
    descending), ``U = Q`` and ``V = U sign(lam)`` with sign(0) = +1, bit
    for bit: the zero rule and the sign convention below act on U, and V
    is made from the finished U.  Any other matrix takes the general SVD;
    none is symmetrised.

    On the rows where M is all zero, U is exactly 0 for every triplet above
    the :attr:`Decomposition.flagged_small` threshold (U = M V S^-1 there),
    and so is V on the all-zero columns; roundoff would otherwise leave
    solver-dependent noise in those rows.  The general SVD flips V by U's
    signs.

    Raises ``np.linalg.LinAlgError`` if the underlying factorization does
    not converge; never returns unconverged output.
    """
    A = _as_matrix(M)
    symmetric = A.shape[0] == A.shape[1] and np.array_equal(A, A.T)
    try:
        if symmetric:
            lam, U = np.linalg.eigh(A)
            order = np.argsort(-np.abs(lam), kind="stable")
            lam, U = lam[order], U[:, order]  # rebound: eigh's own array is freed
            S = np.abs(lam)
        else:
            U, S, Vt = np.linalg.svd(A, full_matrices=False)
            V = Vt.T
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"SVD did not converge: {exc}") from exc
    kept = ~Decomposition(U=U, S=S, V=U).flagged_small  # which reads S alone
    U[np.ix_(~A.any(axis=1), kept)] = 0.0
    signs = _sign_convention(U)
    U *= signs
    if symmetric:
        V = U * np.where(lam < 0, -1.0, 1.0)
    else:
        V[np.ix_(~A.any(axis=0), kept)] = 0.0
        V *= signs
    return Decomposition(U=U, S=S, V=V)


def spd_sqrt(K) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root of an SPD matrix and its inverse, (K^{1/2}, K^{-1/2}).

    Both come from one eigendecomposition; K^{1/2} @ K^{1/2} = K.  Non-SPD
    input (any eigenvalue <= 0 within tolerance) raises
    ``NotPositiveDefiniteError`` naming the offending eigenvalue.
    """
    A = _as_matrix(K, "kernel matrix")
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"SPD square root needs a square matrix, got {A.shape}")
    if not np.allclose(A, A.T, rtol=1e-10, atol=1e-12):
        raise ValueError("SPD square root needs a symmetric matrix")
    lam, Q = np.linalg.eigh(A)
    tol = 1e-12 * max(lam[-1], 0.0)
    if lam[0] <= tol:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: eigenvalue {lam[0]:.6g}"
        )
    root = (Q * np.sqrt(lam)) @ Q.T
    inv_root = (Q / np.sqrt(lam)) @ Q.T
    return 0.5 * (root + root.T), 0.5 * (inv_root + inv_root.T)


def nuclear_norm(M) -> float:
    """Sum of singular values of M."""
    return float(np.sum(svd(M).S))
