"""The embedding record and its two files.

:class:`EmbeddingSet` holds a fit's row and column coordinates F and G,
its singular values and its method tag; every fit is
:func:`cakit.kca.fit_kca`, whose linear method is correspondence analysis.

The embedding TSV and coordinate CSV share the label checks and number
parser of :mod:`cakit.tables`; floats are written via ``repr`` (exact),
one call per coordinate.  An embeddings file of a set whose G is F up to
the signs of its columns, bit for bit, as a fit of a symmetric table under
equal kernels gives, carries G by reference: one ``col=row`` line of the
column signs in place of the column points.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import Decomposition
from .tables import (
    _bad_label,
    _check_labels,
    _equal_fields,
    _parse_numbers,
    _read_lines,
    _read_only,
    _write_atomic,
)


@dataclass(frozen=True)
class EmbeddingSet:
    """Row coordinates F, column coordinates G, and fit provenance.

    ``singular_values`` is the truncated, descending, nonnegative spectrum
    of the fitted matrix.  ``decomposition`` is the full (untruncated)
    generalized SVD of the association under the kernel metrics that the
    coordinates were derived from, or None for a set that no fit made.  A
    fit does not keep it: :func:`cakit.kca.fit_kca` sets ``decompose``,
    which solves it again from the fit's table and method, and the first
    read of ``decomposition`` calls that once and keeps the result.  No
    argument sets ``decompose``, so a set read from a file or made by
    ``dataclasses.replace`` has none.  F, G and the
    singular values are the set's own read-only copies, the labels tuples.
    A NaN or infinite value in them, or a label that is not a string or
    repeats within its point set, raises ``ValueError``, as every reader
    does, so no writer emits a file that its reader rejects.  Two sets are
    equal, and hash alike, when every field but ``decompose`` is, so a set
    read back from its file equals the fit.
    """

    F: np.ndarray = field(hash=False)
    G: np.ndarray = field(hash=False)
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    singular_values: np.ndarray = field(hash=False)
    method_tag: str
    decompose: Callable[[], Decomposition] | None = field(default=None, init=False, repr=False,
                                                          compare=False)

    __eq__ = _equal_fields

    def __post_init__(self):
        for name in ("F", "G", "singular_values"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        for name, axis in (("row_labels", "row"), ("col_labels", "col")):
            labels = tuple(getattr(self, name))
            bad = _bad_label(axis, labels)
            if bad is not None:
                raise ValueError(bad[1])
            object.__setattr__(self, name, labels)
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
        if np.any(self.singular_values < 0):
            raise ValueError("singular values must be nonnegative")

    @functools.cached_property
    def decomposition(self) -> Decomposition | None:
        return None if self.decompose is None else self.decompose()

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


def _point_lines(which: str, labels, coords: np.ndarray, sep: str):
    """One line per labeled point: point set ("row"/"col"), label, k coordinates via repr."""
    for label, row in zip(labels, coords.tolist()):
        yield sep.join([which, label, *map(repr, row)]) + "\n"


def _column_signs(e: EmbeddingSet) -> np.ndarray | None:
    """The signs s, each 1.0 or -1.0, with ``G == F * s`` bit for bit, or None.

    None unless the point sets share their labels and k >= 1.  Multiplying
    by -1.0 flips only the sign bit, so the test compares bits and a zero
    that ``F * s`` would give the other sign fails it.
    """
    if e.k == 0 or e.col_labels != e.row_labels:
        return None
    flipped = np.signbit(e.F[0]) != np.signbit(e.G[0]) if len(e.F) else np.zeros(e.k, bool)
    signs = np.where(flipped, -1.0, 1.0)
    return signs if (e.F * signs).tobytes() == e.G.tobytes() else None


def export_coordinates(e: EmbeddingSet, path) -> None:
    """Write a CSV of both point sets: point_set,label,dim_1..dim_k.

    A label with a comma or line break, which a CSV reader would split, or
    one beginning with a double quote, which it would unquote, raises
    ``ValueError`` before opening the file.
    """
    for which, labels in (("row", e.row_labels), ("col", e.col_labels)):
        _check_labels(path, which, labels, ",")
    header = ["point_set", "label"] + [f"dim_{i + 1}" for i in range(e.k)]
    _write_atomic(path, itertools.chain([",".join(header) + "\n"],
                                        _point_lines("row", e.row_labels, e.F, ","),
                                        _point_lines("col", e.col_labels, e.G, ",")))


def write_embeddings(e: EmbeddingSet, path) -> None:
    """Text embedding format: one header line, the row points, then the column points.

    Header: n_row_labels, n_col_labels, k, method_tag, then the k singular
    values.  Point lines: point set ("row"/"col"), label, k coordinates.
    Tab-separated, floats via repr, so writing and re-reading is exact.
    When the column labels are the row labels, k >= 1 and G is F times a
    sign per column, bit for bit (:func:`_column_signs`), one line
    ``col=row`` followed by the k signs, each ``1`` or ``-1``, takes the
    place of the column points.  A label or method tag that
    :func:`read_embeddings` would split (a tab, newline or carriage return)
    raises ``ValueError`` before the file is opened.
    """
    for which, labels in (("row", e.row_labels), ("col", e.col_labels),
                          ("method", [e.method_tag])):
        _check_labels(path, which, labels, "\t")
    header = [str(len(e.row_labels)), str(len(e.col_labels)), str(e.k), e.method_tag,
              *map(repr, e.singular_values.tolist())]
    signs = _column_signs(e)
    if signs is None:
        cols = _point_lines("col", e.col_labels, e.G, "\t")
    else:
        cols = ["\t".join(["col=row", *("1" if s > 0 else "-1" for s in signs.tolist())]) + "\n"]
    _write_atomic(path, itertools.chain(["\t".join(header) + "\n"],
                                        _point_lines("row", e.row_labels, e.F, "\t"), cols))


def read_embeddings(path) -> EmbeddingSet:
    """Read the text embedding format written by :func:`write_embeddings`.

    A ``col=row`` line gives G as F times its column signs; the file then
    holds no column points.  A header with fewer than four fields, counts
    that are not nonnegative integers, other than ``k`` singular values or
    ones that are negative or not sorted descending, a malformed point
    line, a label repeated within a point set, or a value that is not a
    finite number raises ``ValueError`` naming the file and line, as does
    a ``col=row`` line with other than k signs of ``1`` or ``-1``, a second
    one, one beside column points, or one under a header whose n_cols is
    not n_rows.
    """
    lines = _read_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty embeddings file")
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
    singular_values = _parse_numbers(path, [head_line], ["\t".join(head[4:])], [k])
    # point set -> labels, coordinate texts, line numbers
    points = {"row": ([], [], []), "col": ([], [], [])}
    signs, signs_line = None, None
    for lineno, line in lines[1:]:
        which, _, rest = line.partition("\t")
        if which == "col=row":
            if line.count("\t") != k:
                raise ValueError(f"{path}:{lineno}: expected {k} column signs")
            if signs is not None:
                raise ValueError(f"{path}:{lineno}: a second 'col=row' line")
            signs, signs_line = rest.split("\t") if k else [], lineno
            bad = [s for s in signs if s not in ("1", "-1")]
            if bad:
                raise ValueError(f"{path}:{lineno}: column sign {bad[0]!r} is not 1 or -1")
            continue
        if line.count("\t") != k + 1:
            raise ValueError(f"{path}:{lineno}: expected {k} coordinates")
        if which not in points:
            raise ValueError(f"{path}:{lineno}: unknown point set {which!r}")
        label, _, text = rest.partition("\t")
        labels, texts, linenos = points[which]
        labels.append(label)
        texts.append(text)
        linenos.append(lineno)
    if signs is not None:
        if n_cols != n_rows:
            raise ValueError(f"{path}:{signs_line}: a 'col=row' line needs n_cols = n_rows, "
                             f"the header gives {n_rows} and {n_cols}")
        if points["col"][0]:
            raise ValueError(f"{path}:{signs_line}: a 'col=row' line beside "
                             f"{len(points['col'][0])} col point lines")
        points["col"] = points["row"]
    for which, (labels, _, linenos) in points.items():
        _check_labels(path, which, labels, "\t", linenos)
    (row_labels, F_texts, F_lines), (col_labels, G_texts, G_lines) = points.values()
    if (len(F_texts), len(G_texts)) != (n_rows, n_cols):
        raise ValueError(f"{path}: expected {n_rows} row and {n_cols} col point lines, "
                         f"got {len(F_texts)} and {len(G_texts)}")
    F = _parse_numbers(path, F_lines, F_texts, [k] * n_rows).reshape(n_rows, k)
    G = (_parse_numbers(path, G_lines, G_texts, [k] * n_cols).reshape(n_cols, k)
         if signs is None else F * np.array(signs, float))
    try:  # of what the set checks, only the header's singular values can still fail
        return EmbeddingSet(F, G, row_labels, col_labels, singular_values, head[3])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
