"""Kernel correspondence analysis: one fit for every method.

Solves ``maximize tr(R^T K_r A K_c) / 2  subject to  R^T K_r R K_c = I``
where A is an association matrix built from the table and K_r, K_c are
SPD kernels.  The solution is the generalized SVD of A under the kernel
metrics, read off the SVD of the sandwich
``K_r^{1/2} A K_c^{1/2} = U_s S V_s^T`` (:func:`cakit.linalg.svd`): the
factors ``U = K_r^{-1/2} U_s`` and ``V = K_c^{-1/2} V_s`` satisfy
``U^T K_r U = I``, ``V^T K_c V = I`` and ``U S V^T = A``, and the
coordinates are ``F = K_r U S^p`` and ``G = K_c V S^p``.

:func:`_sandwich_svd` is the one place that decides whether the sandwich
is symmetric, from the table (its ``symmetric``, as ``cakit count`` writes)
and the method: the association must be symmetric (ws's under one
symmetric pair-score matrix), and either the two kernels are equal, or
each kernel is identity or kpca_cd without stop words, whose ``e 11^T``
part annihilates an association that sums to zero along both axes.  The
centered residual does, and so does a symmetric ws association: with
``Gamma`` symmetric,
``sum_j N_ij (Gamma N Gamma)_ij = sum_j (Gamma N)_ij (N Gamma)_ij``.  Such
a sandwich is symmetrised, which removes only roundoff, and decomposed by
one ``eigh``.

Specializations recover linear CA (inverse-marginal kernels), the plain
categorical covariance, the G-test association, shifted-positive-PMI
factorization, an exponential one-hot-distance kernel (kpca_cd, whose alpha
only rescales the gini fit), plus two text-oriented variants: stop words,
which weight the identity or inverse-marginal kernel of an axis, and the
pair-score (ws) association that folds ``11^T + alpha S`` (S the external
word similarity scores) into the table and its marginals through Hadamard
products.  Only :data:`KERNELS` pairs a method name with its row and column kernels.

Kernels are described by their structure and never built as matrices
unless given as one: identity and inverse-marginal kernels, with stop
words or without, are diagonal, the kpca_cd kernel ``(1-e) I + e 11^T``
has the closed-form root ``a I + b 11^T``, and only an explicit kernel is
dense; :meth:`KernelRoot.scale` applies each other root in place.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import linalg
from .ca import EmbeddingSet, default_dimension
from .linalg import Decomposition, NotPositiveDefiniteError, spd_sqrt
# perfbench/test_perfbench.py asserts kca.svd is linalg.svd; ROADMAP item 1 drops both
from .linalg import svd  # noqa: F401
from .tables import ContingencyTable, _equal_fields, _read_only, residual_matrix

KERNEL_KINDS = ("identity", "inverse_marginal", "kpca_cd", "explicit")
_WEIGHTED = ("identity", "inverse_marginal")  # the kinds that stop words reweight
_CENTERED = ("linear", "gini", "kpca_cd")  # the associations N/n - r c^T/n^2
_ZERO_SUM = (*_CENTERED, "ws")  # those whose symmetric form sums to zero along both axes


@dataclass(frozen=True)
class KernelSpec:
    """One axis kernel, described by kind; :func:`kernel_root` gives its roots.

    The marginal is the table's, or the ws association's modified one.
    kind:
      identity          -> I
      inverse_marginal  -> D(marginal)^{-1}
      kpca_cd           -> 1 on the diagonal, exp(2*alpha) off it (needs exp(2*alpha) < 1)
      explicit          -> a given SPD matrix
    An identity or inverse-marginal kernel with stop ``words`` is that kernel
    times D(w), w_i = 1 + alpha for a listed word and 1 for any other (needs
    1 + alpha > 0); without words it takes no alpha, and an explicit kernel
    none at all.  Construction checks everything that needs no axis; only
    an explicit matrix's shape and definiteness wait for :func:`kernel_root`.
    The matrix is the kernel's own read-only float copy.
    """

    kind: str = "identity"
    alpha: float = 0.0
    words: frozenset = frozenset()
    matrix: np.ndarray | None = field(default=None, repr=False, hash=False)

    __eq__ = _equal_fields

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if (self.matrix is None) == (self.kind == "explicit"):
            raise ValueError("an explicit kernel needs a matrix" if self.matrix is None
                             else f"a kernel of kind {self.kind!r} takes no matrix")
        if isinstance(self.words, str):
            raise ValueError(f"stop words must be a collection, not the string {self.words!r}")
        object.__setattr__(self, "words", frozenset(self.words))
        object.__setattr__(self, "matrix", _read_only(self.matrix))
        if self.words and self.kind not in _WEIGHTED:
            raise ValueError(f"a kernel of kind {self.kind!r} takes no stop words")
        if self.alpha != 0 and not self.words and self.kind != "kpca_cd":
            raise ValueError(f"a kernel of kind {self.kind!r} takes no alpha"
                             + (" without stop words" if self.kind in _WEIGHTED else ""))
        if not math.isfinite(self.alpha):
            what = "stop-word" if self.words else self.kind
            raise ValueError(f"{what} alpha must be finite, got {self.alpha}")
        if self.words and 1.0 + self.alpha <= 0:
            raise NotPositiveDefiniteError(
                f"stop-word weight 1+alpha = {1.0 + self.alpha:g} must be positive")
        # (1-e) I + e 11^T is positive definite exactly when e = exp(2 alpha) < 1
        if self.kind == "kpca_cd" and (self.alpha >= 0 or math.exp(2.0 * self.alpha) == 1.0):
            raise NotPositiveDefiniteError(f"kpca_cd kernel is not positive definite for "
                                           f"alpha = {self.alpha:g}: exp(2*alpha) must be < 1")


# Each method name's (row, column) kernels; its keys, in order, are the associations.
_INV, _ID = KernelSpec("inverse_marginal"), KernelSpec("identity")
KERNELS = {"linear": (_INV, _INV), "gini": (_ID, _ID), "gtest": (_ID, _ID), "sgns": (_ID, _ID),
           "kpca_cd": (KernelSpec("kpca_cd", alpha=-0.5), _ID), "ws": (_INV, _INV)}
ASSOCIATIONS = tuple(KERNELS)


# Each method parameter -> the methods that read it; every other method
# rejects a value other than the parameter's default.  A stop-word alpha
# weights its axis's own kernel, which only an identity or inverse-marginal
# kernel takes.
READ_BY = {
    "shift_k": ("sgns",),
    "sgns_floor": ("sgns",),
    "gamma_row": ("ws",),
    "gamma_col": ("ws",),
    "sw_alpha_row": tuple(m for m, (row, _) in KERNELS.items() if row.kind in _WEIGHTED),
    "sw_alpha_col": tuple(m for m, (_, col) in KERNELS.items() if col.kind in _WEIGHTED),
}


def _check_read(name: str, param: str) -> None:
    """Raise unless method ``name`` reads ``param`` (:data:`READ_BY`)."""
    if name not in READ_BY[param]:
        raise ValueError(f"method {name} does not read {param}")


@dataclass(frozen=True)
class KcaMethod:
    """Association operator plus kernels; one fit configuration.

    A kernel left as None is the method's own (:data:`KERNELS`), so a bare
    ``KcaMethod(name)`` fits ``name``; ``tag`` does not describe kernels
    passed explicitly.  ``shift_k`` is the SGNS negative-sampling shift
    (finite and > 0).  ``sgns_floor`` of None selects shifted positive PMI;
    a finite floor keeps negative shifted PMI values and fills zero-count
    cells with the floor.  ``exponent`` is the power of the singular values
    in the output coordinates (finite; 1 is the CA convention, 0.5 the
    symmetric split).
    ``gamma_row`` and ``gamma_col`` are the ws pair-score matrices, kept as
    the method's own read-only float copies, one copy when they are the
    same array.  A field that the association does not read
    (:data:`READ_BY`) must keep its default.
    """

    association: str
    row_kernel: KernelSpec | None = None
    col_kernel: KernelSpec | None = None
    shift_k: float = 1.0
    exponent: float = 1.0
    sgns_floor: float | None = None
    gamma_row: np.ndarray | None = field(default=None, repr=False, hash=False)
    gamma_col: np.ndarray | None = field(default=None, repr=False, hash=False)

    __eq__ = _equal_fields

    def __post_init__(self):
        if self.association not in ASSOCIATIONS:
            raise ValueError(f"unknown association {self.association!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            changed = value is not None if f.default is None else value != f.default
            if f.name in READ_BY and changed:
                _check_read(self.association, f.name)
        shared = self.gamma_col is self.gamma_row  # as `cakit fit` passes equal labels' matrix
        object.__setattr__(self, "gamma_row", _read_only(self.gamma_row))
        object.__setattr__(self, "gamma_col",
                           self.gamma_row if shared else _read_only(self.gamma_col))
        for name, kernel in zip(("row_kernel", "col_kernel"), KERNELS[self.association]):
            if getattr(self, name) is None:
                object.__setattr__(self, name, kernel)
        if self.association == "sgns" and not 0 < self.shift_k < math.inf:
            raise ValueError(f"sgns shift_k must be finite and > 0, got {self.shift_k}")
        if self.sgns_floor is not None and not math.isfinite(self.sgns_floor):
            raise ValueError(f"sgns_floor must be finite, got {self.sgns_floor}")
        if not math.isfinite(self.exponent):
            raise ValueError(f"exponent must be finite, got {self.exponent}")
        if self.association == "ws" and (self.gamma_row is None or self.gamma_col is None):
            raise ValueError("the ws association needs row and column pair-score matrices")

    @property
    def tag(self) -> str:
        """The method's name in embeddings files and reports.

        The association, with the shift for sgns (``sgns(k=5)``) and ``+sw``
        for stop words on either kernel; plain linear CA is ``linear_ca``.
        """
        tag = f"sgns(k={self.shift_k:g})" if self.association == "sgns" else self.association
        if self.row_kernel.words or self.col_kernel.words:
            return tag + "+sw"
        return "linear_ca" if tag == "linear" else tag


@dataclass(frozen=True)
class AssociationMatrix:
    """The matrix a method factorizes, the marginals its inverse-marginal
    kernels divide by, and whether all are symmetric (to roundoff)."""

    values: np.ndarray = field(hash=False)
    r: np.ndarray = field(hash=False)
    c: np.ndarray = field(hash=False)
    symmetric: bool

    __eq__ = _equal_fields


def method_from_name(
    name: str,
    shift_k: float = 1.0,
    stopwords: frozenset | set | None = None,
    sw_alpha_row: float | None = None,
    sw_alpha_col: float | None = None,
    exponent: float = 1.0,
    gamma_row=None,
    gamma_col=None,
) -> KcaMethod:
    """The method ``name`` with its :data:`KERNELS`, after the overrides given.

    A stop-word alpha weights the ``stopwords`` in its axis's own identity or
    inverse-marginal kernel, so at alpha 0 every method fits as without it.
    It needs stop words, and stop words need a stop-word alpha.  A parameter
    given to a method that does not read it (:data:`READ_BY`) raises
    ``ValueError``, as do these.  ws needs ``gamma_row`` and ``gamma_col``.
    """
    if name not in KERNELS:
        raise ValueError(f"unknown method {name!r}")
    if stopwords is not None and sw_alpha_row is None and sw_alpha_col is None:
        raise ValueError("without sw_alpha_row or sw_alpha_col the fit does not read stopwords")
    kernels = []
    for axis, kernel, sw_alpha in zip(("row", "col"), KERNELS[name], (sw_alpha_row, sw_alpha_col)):
        if sw_alpha is not None:
            _check_read(name, f"sw_alpha_{axis}")
            if not stopwords:
                raise ValueError(f"sw_alpha_{axis} needs stop words")
            kernel = dataclasses.replace(kernel, alpha=sw_alpha, words=stopwords)
        kernels.append(kernel)
    return KcaMethod(name, *kernels, shift_k=shift_k, exponent=exponent,
                     gamma_row=gamma_row, gamma_col=gamma_col)


def association_matrix(t: ContingencyTable, m: KcaMethod) -> AssociationMatrix:
    """The matrix the chosen method factorizes.

    linear / gini / kpca_cd: the centered frequencies N/n - r c^T/n^2.
    gtest: cellwise (n_ij/n) * log(n_ij n / (r_i c_j)).
    sgns: shifted PMI, log(n_ij n / (r_i c_j)) - log(shift_k), clamped at 0
    unless ``sgns_floor`` is set.
    Both take the log ratio on the nonzero cells of N only; an empty cell
    holds 0 (gtest's 0*log(0)=0 convention, or the clamp), or ``sgns_floor``
    for unclamped sgns.
    ws: see :func:`fit_ws_kca`; its marginals are the modified ones.
    Every other association comes with the table's marginals and symmetry.
    """
    if m.association == "ws":
        return _ws_association(t, m.gamma_row, m.gamma_col)
    if m.association in _CENTERED:
        return AssociationMatrix(residual_matrix(t), t.r, t.c, t.symmetric)
    i, j = np.nonzero(t.counts)
    N = t.counts[i, j]
    log_ratio = np.log(N / (t.r[i] * t.c[j] / t.n))  # E_ij = r_i c_j / n
    if m.association == "gtest":
        values, fill = (N / t.n) * log_ratio, 0.0
    elif m.sgns_floor is None:
        values, fill = np.maximum(log_ratio - math.log(m.shift_k), 0.0), 0.0
    else:
        values, fill = log_ratio - math.log(m.shift_k), m.sgns_floor
    A = np.full(t.shape, fill)
    A[i, j] = values
    return AssociationMatrix(A, t.r, t.c, t.symmetric)


def _ws_association(t: ContingencyTable, gamma_r, gamma_c) -> AssociationMatrix:
    for axis, gamma, size in (("row", gamma_r, t.shape[0]), ("column", gamma_c, t.shape[1])):
        if gamma.shape != (size, size):
            raise ValueError(f"{axis} pair-score matrix shape {gamma.shape}, expected {(size, size)}")
    N = t.counts
    GN = gamma_r @ N
    # a symmetric table under one symmetric gamma: N gamma = (gamma N)^T, and one
    # marginal serves both axes, so the two kernels agree bit for bit
    shared = t.symmetric and np.array_equal(gamma_r, gamma_c) and np.array_equal(gamma_r, gamma_r.T)
    cross = GN * (GN.T if shared else N @ gamma_c)
    r_mod = cross.sum(axis=1)
    c_mod = r_mod if shared else cross.sum(axis=0)
    for axis, labels, marginal in (("row", t.row_labels, r_mod), ("column", t.col_labels, c_mod)):
        if np.any(marginal <= 0):
            bad = [lbl for lbl, v in zip(labels, marginal) if v <= 0]
            raise ValueError(f"nonpositive modified {axis} marginal for: {', '.join(bad)}")
    A = (N * (GN @ gamma_c) - cross) / (t.n * t.n)
    return AssociationMatrix(A, r_mod, c_mod, shared)


@dataclass(frozen=True)
class KernelRoot:
    """A root K^{1/2} or K^{-1/2} of one kernel: ``diag(d) + b 11^T``, or ``dense``.

    ``d`` of None is the identity.  :meth:`scale` multiplies from the left,
    in the given array's own buffer unless the root is dense; roots are
    symmetric, so ``scale(X.T).T`` is ``X`` times the root.
    """

    d: np.ndarray | None = field(default=None, hash=False)
    b: float = 0.0
    dense: np.ndarray | None = field(default=None, repr=False, hash=False)

    __eq__ = _equal_fields

    def scale(self, X: np.ndarray) -> np.ndarray:
        """The root times X: X itself, scaled in place, or for a dense root a new array."""
        if self.dense is not None:
            return self.dense @ X
        sums = self.b * X.sum(axis=0) if self.b else None  # read before X changes
        if self.d is not None:
            X *= self.d[:, None]
        if sums is not None:
            X += sums
        return X


def kernel_root(spec: KernelSpec, marginal: np.ndarray, labels) -> tuple[KernelRoot, KernelRoot]:
    """K^{1/2} and K^{-1/2} of one axis kernel, from its structure.

    ``marginal`` is what an inverse-marginal kernel divides by (the
    table's, or the ws association's modified marginals).  ``spec`` is valid
    by construction; only an explicit kernel can still fail here, on its
    shape or definiteness.
    """
    m = len(labels)
    if spec.kind == "identity" and not spec.words:
        return KernelRoot(), KernelRoot()
    if spec.kind in _WEIGHTED:
        base = marginal if spec.kind == "inverse_marginal" else 1.0
        w = 1.0
        if spec.words:
            w = np.array([1.0 + spec.alpha if lbl in spec.words else 1.0 for lbl in labels])
        inv_root = np.sqrt(base / w)
        return KernelRoot(1.0 / inv_root), KernelRoot(inv_root)
    if spec.kind == "kpca_cd":
        # |e_i - e_j|^2 is 0 on the diagonal and 2 off it, so K = (1-e) I + e 11^T,
        # positive definite exactly when e < 1.  Its root is a I + b 11^T with
        # a + b m = s, the square root of the eigenvalue on 1; Sherman-Morrison
        # inverts it.
        e = math.exp(2.0 * spec.alpha)
        a = math.sqrt(1.0 - e)
        s = math.sqrt(1.0 - e + e * m)
        b = (s - a) / m
        return KernelRoot(np.full(m, a), b), KernelRoot(np.full(m, 1.0 / a), -b / (a * s))
    K = spec.matrix  # explicit, the one kind left
    if K.shape != (m, m):
        raise ValueError(f"explicit kernel shape {K.shape} does not match axis size {m}")
    root, inv_root = spd_sqrt(K)
    return KernelRoot(dense=root), KernelRoot(dense=inv_root)


def fit_kca(t: ContingencyTable, m: KcaMethod, k: int | None = None) -> EmbeddingSet:
    """Fit one kernel-CA configuration, keeping the top ``k`` dimensions.

    Takes the SVD of ``K_r^{1/2} A K_c^{1/2} = U_s S V_s^T`` through
    :func:`cakit.linalg.svd`, which takes one ``eigh`` when the sandwich is
    symmetric, and returns the coordinates ``F = K_r^{1/2} U_s S^p`` and
    ``G = K_c^{1/2} V_s S^p``; an ``S^p`` that is not finite raises before
    either is formed.
    The fit keeps no V x V factor: ``decomposition``, the full generalized
    SVD of A under the kernel metrics (see the module docstring), is solved
    again from ``t`` and ``m`` when first read.  ``k`` defaults to
    min(shape) - 1.
    """
    if k is None:
        k = default_dimension(t)
    if not 1 <= k <= min(t.shape):
        raise ValueError(f"dimension k={k} out of range 1..{min(t.shape)}")
    (Lr, _), (Lc, _), dec = _sandwich_svd(t, m)
    S = dec.S[:k]
    with np.errstate(all="ignore"):
        scale = S**m.exponent
    if not np.isfinite(scale).all():
        raise ValueError(f"singular values to the power exponent={m.exponent} are not finite")
    emb = EmbeddingSet(
        F=Lr.scale(dec.U[:, :k]) * scale,
        G=Lc.scale(dec.V[:, :k]) * scale,
        row_labels=t.row_labels,
        col_labels=t.col_labels,
        singular_values=S,
        method_tag=m.tag,
    )
    object.__setattr__(emb, "decompose", functools.partial(_decomposition, t, m))
    return emb


def _symmetric_sandwich(assoc: AssociationMatrix, m: KcaMethod) -> bool:
    """Whether the sandwich is symmetric, by the rule of the module docstring."""
    unweighted = all(k.kind in ("identity", "kpca_cd") and not k.words
                     for k in (m.row_kernel, m.col_kernel))
    return assoc.symmetric and (m.row_kernel == m.col_kernel
                                or m.association in _ZERO_SUM and unweighted)


def _sandwich_svd(t: ContingencyTable, m: KcaMethod):
    """The row and column kernel roots, each (K^{1/2}, K^{-1/2}), and the SVD of the sandwich."""
    assoc = association_matrix(t, m)
    Lr, Lr_inv = kernel_root(m.row_kernel, assoc.r, t.row_labels)
    Lc, Lc_inv = kernel_root(m.col_kernel, assoc.c, t.col_labels)
    symmetric = _symmetric_sandwich(assoc, m)
    # built in the association's own buffer unless a root is dense
    sandwich = Lc.scale(Lr.scale(assoc.values).T).T
    del assoc  # after a dense root, frees the association the sandwich was made from
    if symmetric:  # in place: no second V x V array during the eigh
        sandwich += sandwich.T
        sandwich *= 0.5
    # looked up at call time, so a replacement linalg.svd reaches every fit
    return (Lr, Lr_inv), (Lc, Lc_inv), linalg.svd(sandwich)


def _decomposition(t: ContingencyTable, m: KcaMethod) -> Decomposition:
    """The full generalized SVD of the association under the kernel metrics."""
    (_, Lr_inv), (_, Lc_inv), dec = _sandwich_svd(t, m)
    return Decomposition(U=Lr_inv.scale(dec.U), S=dec.S, V=Lc_inv.scale(dec.V))


def build_gamma(labels, pairs, alpha: float) -> np.ndarray:
    """Pair-score matrix ``gamma = 11^T + alpha S`` over the labels.

    ``pairs`` is a :class:`cakit.evaluation.WordSimDataset`; the pairs its
    ``lookup`` matches to the labels set both gamma_ij and gamma_ji, a later
    listing of a pair over an earlier one, so gamma is symmetric.  ``alpha``
    must be finite; a constant part other than 1 only rescales the fit.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"pair-score alpha must be finite, got {alpha}")
    gamma = np.ones((len(labels), len(labels)))
    ia, ib, scores = pairs.lookup(labels)
    # one pair at a time: a pair listed in both orders must leave gamma symmetric
    for i, j, value in zip(ia.tolist(), ib.tolist(), (alpha * scores + 1.0).tolist()):
        gamma[i, j] = gamma[j, i] = value
    return gamma


def fit_ws_kca(t: ContingencyTable, gamma_r, gamma_c, k: int | None = None,
               exponent: float = 1.0) -> EmbeddingSet:
    """Fit with external pair scores folded in through Hadamard products.

    With G_r, G_c the pair-score matrices, the fitted association is
    ``(N o (G_r N G_c) - (G_r N) o (N G_c)) / n^2`` (o = Hadamard, n the
    original grand total), under inverse-marginal kernels built from the
    modified marginals ``r' = ((G_r N) o (N G_c)) 1`` and its transpose
    analogue.  All-ones pair-score matrices reduce to linear CA up to a
    global positive scale.  Scaling both by ``c != 0`` scales the association
    and both modified marginals by ``c**2``, which leaves the sandwich, S and
    every cosine unchanged and divides F and G by ``|c|``, so :func:`build_gamma`
    fixes the constant part at 1; any other pair-score matrices fit here too.
    """
    m = method_from_name("ws", exponent=exponent, gamma_row=gamma_r, gamma_col=gamma_c)
    return fit_kca(t, m, k)
