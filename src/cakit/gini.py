"""Gini-index variance for categorical data and the rotated-covariance optimum.

The variance of a categorical variable is half the probability that two
independent draws disagree, (1 - sum_i p_i^2) / 2.  Its two-variable
extension maximizes half the trace of R^T times the centered frequency
matrix over orthogonal rotations R of the one-hot space; the optimum is
attained at R = U V^T from the SVD of that matrix and equals half its
nuclear norm.  Both are read from the gini fit's decomposition
(:mod:`cakit.kca`), so the CA-Gini identity rests on the one fit path.  A
literal double-sum over observation pairs is kept as an independent oracle
for the trace identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kca
from .tables import ContingencyTable, Observations, _equal_fields


@dataclass(frozen=True)
class RotatedCovariance:
    """Attained covariance value and the maximizing rotation."""

    value: float
    rotation: np.ndarray = field(hash=False)

    __eq__ = _equal_fields


def gini_variance(t: ContingencyTable, axis: str) -> float:
    """Variance of the row ("row") or column ("col") categorical variable.

    Computed as (n^2 - sum_i m_i^2) / (2 n^2) with m the chosen marginal,
    which is exact for integer counts and equals (1 - sum p_i^2) / 2.
    """
    if axis == "row":
        m = t.r
    elif axis == "col":
        m = t.c
    else:
        raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
    n = t.n
    return (n * n - float(np.sum(m * m))) / (2.0 * n * n)


def rotated_covariance(t: ContingencyTable) -> RotatedCovariance:
    """Maximize trace(R.T @ residual)/2 over R with R.T @ R = I via R = U V^T.

    ``U`` and ``V`` are the factors of the gini fit's decomposition, the
    thin SVD of the residual; for a wider-than-tall table ``U V^T``
    satisfies R @ R.T = I instead, with the same optimum.
    """
    dec = kca._decomposition(t, kca.KcaMethod("gini"))
    return RotatedCovariance(value=0.5 * float(np.sum(dec.S)), rotation=dec.U @ dec.V.T)


def brute_force_covariance(obs: Observations, R) -> float:
    """Literal double sum over observation pairs; oracle for the trace identity.

    Evaluates sum_{a,b} (e_r(a) - e_r(b))^T R (e_c(a) - e_c(b)) / (4 n^2).
    Category indices follow the sorted-label convention of
    :func:`contingency_from_observations`, so the result equals
    ``0.5 * trace(R.T @ residual_matrix(table))`` for the table built from
    the same observations.
    """
    obs = list(obs)
    if not obs:
        raise ValueError("observation list is empty")
    R = np.asarray(R, dtype=float)
    row_labels = sorted({a for a, _ in obs})
    col_labels = sorted({b for _, b in obs})
    if R.shape != (len(row_labels), len(col_labels)):
        raise ValueError(
            f"rotation shape {R.shape} does not match "
            f"{len(row_labels)} row / {len(col_labels)} column categories"
        )
    row_index = {lbl: i for i, lbl in enumerate(row_labels)}
    col_index = {lbl: j for j, lbl in enumerate(col_labels)}
    pairs = [(row_index[a], col_index[b]) for a, b in obs]
    n = len(pairs)
    # (e_i - e_j)^T R (e_k - e_l) expands to four entries of R
    terms = []
    for ra, ca in pairs:
        for rb, cb in pairs:
            terms.append(R[ra, ca] - R[ra, cb] - R[rb, ca] + R[rb, cb])
    return math.fsum(terms) / (4.0 * n * n)
