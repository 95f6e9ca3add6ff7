"""Linear correspondence analysis and the embedding container/formats.

Linear CA is the kernel-CA fit (:func:`cakit.kca.fit_kca`) of the centered
frequency matrix under inverse-marginal kernels: the generalized SVD
``U S V^T`` of that matrix with ``U^T D(r)^{-1} U = I`` and
``V^T D(c)^{-1} V = I``, and the principal row/column coordinates
F = D(r)^{-1} U S and G = D(c)^{-1} V S used both for plotting category
maps and as word vectors.

The embedding TSV and coordinate CSV share the label checks and number
parser of :mod:`cakit.tables`; floats are written via ``repr`` (exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import Decomposition
from .tables import ContingencyTable, _check_labels, _parse_numbers, _read_lines


@dataclass(frozen=True)
class EmbeddingSet:
    """Row coordinates F, column coordinates G, and fit provenance.

    ``singular_values`` is the truncated, descending spectrum of the fitted
    matrix; ``decomposition``, when present, is the full (untruncated)
    generalized SVD of the association under the kernel metrics that the
    coordinates were derived from.  A NaN or infinite value in F, G or the
    singular values raises ``ValueError``, so no writer emits a file that
    its reader rejects.
    """

    F: np.ndarray
    G: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    singular_values: np.ndarray
    method_tag: str
    decomposition: Decomposition | None = field(default=None, repr=False)

    def __post_init__(self):
        k = self.singular_values.shape[0]
        if self.F.shape != (len(self.row_labels), k):
            raise ValueError(
                f"F shape {self.F.shape} does not match {len(self.row_labels)} labels x {k} dims"
            )
        if self.G.shape != (len(self.col_labels), k):
            raise ValueError(
                f"G shape {self.G.shape} does not match {len(self.col_labels)} labels x {k} dims"
            )
        if not all(np.isfinite(x).all() for x in (self.F, self.G, self.singular_values)):
            raise ValueError("coordinates or singular values are NaN or infinite")
        if np.any(np.diff(self.singular_values) > 0):
            raise ValueError("singular values must be sorted descending")

    @property
    def k(self) -> int:
        return self.singular_values.shape[0]

    def coordinates(self, which: str) -> tuple[tuple[str, ...], np.ndarray]:
        """Labels and coordinate matrix of one point set, "F" (rows) or "G" (columns)."""
        if which == "F":
            return self.row_labels, self.F
        if which == "G":
            return self.col_labels, self.G
        raise ValueError(f"point set must be 'F' or 'G', got {which!r}")


def default_dimension(t: ContingencyTable) -> int:
    """min(n_rows, n_cols) - 1, floored at 1; the sensible demo default."""
    return max(1, min(t.shape) - 1)


def fit_linear_ca(t: ContingencyTable, k: int | None = None) -> EmbeddingSet:
    """Correspondence analysis of a table, keeping the top ``k`` dimensions.

    The kernel-CA fit of the linear method; ``k`` defaults to
    min(shape) - 1.
    """
    from .kca import fit_kca, method_from_name  # kca imports this module

    return fit_kca(t, method_from_name("linear"), k)


def export_coordinates(e: EmbeddingSet, path) -> None:
    """Write a CSV of both point sets: point_set,label,dim_1..dim_k.

    A label with a comma or line break, which a CSV reader would split, one
    beginning with a double quote, which it would unquote, or one repeated
    within a point set raises ``ValueError`` before opening the file.
    """
    for which, labels in (("row", e.row_labels), ("col", e.col_labels)):
        _check_labels(path, which, labels, ",")
    header = ["point_set", "label"] + [f"dim_{i + 1}" for i in range(e.k)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for which, labels, coords in (("row", e.row_labels, e.F), ("col", e.col_labels, e.G)):
            for label, row in zip(labels, coords.tolist()):
                fh.write(",".join([which, label, *map(repr, row)]) + "\n")


def write_embeddings(e: EmbeddingSet, path) -> None:
    """Text embedding format: one header line, then one line per labeled point.

    Header: n_row_labels, n_col_labels, k, method_tag, then the k singular
    values.  Body lines: point set ("row"/"col"), label, k coordinates.
    Tab-separated, floats via repr, so writing and re-reading is exact.
    A label that :func:`read_embeddings` would split or reject (tab,
    newline or carriage return, or repeated within a point set) raises
    ``ValueError`` before the file is opened.
    """
    for which, labels in (("row", e.row_labels), ("col", e.col_labels)):
        _check_labels(path, which, labels, "\t")
    with open(path, "w", encoding="utf-8") as fh:
        header = [str(len(e.row_labels)), str(len(e.col_labels)), str(e.k), e.method_tag]
        fh.write("\t".join([*header, *map(repr, e.singular_values.tolist())]) + "\n")
        for which, labels, coords in (("row", e.row_labels, e.F), ("col", e.col_labels, e.G)):
            for label, row in zip(labels, coords.tolist()):
                fh.write("\t".join([which, label, *map(repr, row)]) + "\n")


def read_embeddings(path) -> EmbeddingSet:
    """Read the text embedding format written by :func:`write_embeddings`.

    A header with fewer than four fields, counts that are not nonnegative
    integers or other than ``k`` singular values, a malformed point line,
    a label repeated within a point set, or a value that is not a finite
    number raises ``ValueError`` naming the file and line.
    """
    lines = _read_lines(path)
    if not lines:
        raise ValueError(f"empty embeddings file: {path}")
    head_line, header = lines[0]
    head = header.split("\t")
    where = f"{path}:{head_line}"
    if len(head) < 4:
        raise ValueError(
            f"{where}: header needs n_rows, n_cols, k and a method tag, got {len(head)} fields"
        )
    try:
        n_rows, n_cols, k = (int(x) for x in head[:3])
    except ValueError:
        raise ValueError(f"{where}: header counts {head[:3]} are not integers") from None
    if min(n_rows, n_cols, k) < 0:
        raise ValueError(f"{where}: header counts {head[:3]} must be nonnegative")
    if len(head) != 4 + k:
        raise ValueError(f"{where}: header lists {len(head) - 4} singular values, expected k={k}")
    singular_values = _parse_numbers(path, [head_line], [head[4:]])[0]
    # point set -> labels, coordinate rows, line numbers
    points = {"row": ([], [], []), "col": ([], [], [])}
    for lineno, line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != k + 2:
            raise ValueError(f"{path}:{lineno}: expected {k} coordinates")
        if cells[0] not in points:
            raise ValueError(f"{path}:{lineno}: unknown point set {cells[0]!r}")
        labels, rows, linenos = points[cells[0]]
        labels.append(cells[1])
        rows.append(cells[2:])
        linenos.append(lineno)
    for which, (labels, _, linenos) in points.items():
        _check_labels(path, which, labels, "\t", linenos)
    (row_labels, F_rows, F_lines), (col_labels, G_rows, G_lines) = points.values()
    if (len(F_rows), len(G_rows)) != (n_rows, n_cols):
        raise ValueError(f"{path}: expected {n_rows} row and {n_cols} col point lines, "
                         f"got {len(F_rows)} and {len(G_rows)}")
    return EmbeddingSet(
        F=_parse_numbers(path, F_lines, F_rows).reshape(len(F_rows), k),
        G=_parse_numbers(path, G_lines, G_rows).reshape(len(G_rows), k),
        row_labels=tuple(row_labels),
        col_labels=tuple(col_labels),
        singular_values=singular_values,
        method_tag=head[3],
    )
