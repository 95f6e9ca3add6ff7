"""Independent numpy oracles that the benchmark checks cakit's outputs against.

Nothing here imports cakit: every reference is rebuilt from the generated
token ids and the formulas of the kernel-CA problem, so a defect in the
program cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np


def cooccurrence_counts(ids, words, window):
    """Symmetric windowed counts over the types that occur, labels sorted.

    Every pair of positions at distance 1..window adds one to both (a, b)
    and (b, a), the convention of ``cakit count``.
    """
    present = sorted(np.unique(ids).tolist(), key=lambda i: words[i])
    index = np.full(len(words), -1)
    index[present] = np.arange(len(present))
    x = index[np.asarray(ids)]
    m = len(present)
    flat = np.zeros(m * m)
    for d in range(1, window + 1):
        flat += np.bincount(x[:-d] * m + x[d:], minlength=m * m)
    C = flat.reshape(m, m)
    return C + C.T, [words[i] for i in present]


def centered(N):
    n = N.sum()
    return N / n - np.outer(N.sum(axis=1), N.sum(axis=0)) / (n * n)


def _log_ratio(N):
    """log(n_ij n / (r_i c_j)) on nonzero cells, 0 elsewhere."""
    expected = np.outer(N.sum(axis=1), N.sum(axis=0)) / N.sum()
    positive = N > 0
    return np.where(positive, np.log(np.where(positive, N, 1.0) / expected), 0.0), positive


def pair_gamma(labels, scores, alpha, beta=1.0):
    """gamma_ij = alpha * score(i, j) + beta, beta where no score is given."""
    index = {w: i for i, w in enumerate(labels)}
    G = np.full((len(labels), len(labels)), beta)
    for a, b, s in scores:
        if a in index and b in index:
            G[index[a], index[b]] = G[index[b], index[a]] = alpha * s + beta
    return G


def sandwich(N, labels, method, *, shift_k=1.0, kpca_alpha=-0.5, stopwords=(),
             sw_alpha=0.0, scores=None):
    """K_r^{1/2} A K_c^{1/2} for one method, with diagonal kernels as vectors.

    Methods: linear, gini, gtest, sgns, kpca_cd, linear+sw (stop-word kernel
    with weight 1 + sw_alpha on both axes) and ws (pair scores folded in by
    Hadamard products, alpha = 0.1 / max|score| and beta = 1 as ``cakit fit``
    defaults them).
    """
    r, c = N.sum(axis=1), N.sum(axis=0)
    if method == "linear":
        return centered(N) / np.sqrt(r)[:, None] / np.sqrt(c)[None, :]
    if method == "gini":
        return centered(N)
    if method == "gtest":
        log_ratio, positive = _log_ratio(N)
        return np.where(positive, N / N.sum() * log_ratio, 0.0)
    if method == "sgns":
        log_ratio, positive = _log_ratio(N)
        return np.where(positive, np.maximum(log_ratio - math.log(shift_k), 0.0), 0.0)
    if method == "kpca_cd":
        # K = (1 - e) I + e 11^T has the root a I + b 11^T, no eigh needed
        m = N.shape[0]
        e = math.exp(2.0 * kpca_alpha)
        a = math.sqrt(1.0 - e)
        b = (math.sqrt(1.0 - e + e * m) - a) / m
        P = centered(N)
        return a * P + b * P.sum(axis=0)[None, :]
    if method == "linear+sw":
        w = np.array([1.0 + sw_alpha if lbl in stopwords else 1.0 for lbl in labels])
        return centered(N) * np.sqrt(w / r)[:, None] * np.sqrt(w / c)[None, :]
    if method == "ws":
        alpha = 0.1 / max(abs(s) for _, _, s in scores)
        G = pair_gamma(labels, scores, alpha)
        GN, NG = G @ N, N @ G
        cross = GN * NG
        A = (N * (GN @ G) - cross) / N.sum() ** 2
        return A / np.sqrt(cross.sum(axis=1))[:, None] / np.sqrt(cross.sum(axis=0))[None, :]
    raise ValueError(f"no reference for method {method!r}")


def linear_ca_rows(N, k):
    """Principal row coordinates F = D(r)^{-1/2} U_k S_k of linear CA."""
    U, S, _ = np.linalg.svd(sandwich(N, None, "linear"), full_matrices=False)
    return U[:, :k] * S[:k] / np.sqrt(N.sum(axis=1))[:, None]


def pair_cosines(F, labels, pairs):
    """Cosine of each (a, b, score) pair's rows; a zero row compares as 0."""
    index = {w: i for i, w in enumerate(labels)}
    norms = np.linalg.norm(F, axis=1)
    unit = F / np.where(norms > 0, norms, 1.0)[:, None]
    ia = np.array([index[a] for a, _, _ in pairs])
    ib = np.array([index[b] for _, b, _ in pairs])
    return np.einsum("ij,ij->i", unit[ia], unit[ib])


def average_ranks(x):
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    _, first, counts = np.unique(x[order], return_index=True, return_counts=True)
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)
    return ranks


def spearman(x, y):
    rx, ry = average_ranks(x), average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))


def exceed_fraction(high, low):
    """Share of (h, l) pairs with h > l, by sorting instead of |high| x |low| compares."""
    below = np.searchsorted(np.sort(low), high, side="left")
    return float(below.sum()) / (len(high) * len(low))
