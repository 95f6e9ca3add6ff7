"""Contingency tables: construction from observations, marginals, residuals.

A table holds a nonnegative count matrix together with row/column category
labels.  Marginals are always strictly positive: categories whose marginal
is zero are dropped (with a logged warning) at construction time, because
every downstream fit divides by them.

This module also owns the text-file policy of the package (the table TSV
here, the embedding and coordinate files of :mod:`cakit.ca`): a writer
rejects a label its reader would split or that repeats before it opens the
file, and a reader rejects a malformed line or value naming ``path:line``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)

# An observation list is a sequence of (row-category, column-category) pairs.
Observations = Sequence[tuple[str, str]]


@dataclass(frozen=True)
class ContingencyTable:
    """Nonnegative count matrix with labels and strictly positive marginals."""

    counts: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        if counts.ndim != 2:
            raise ValueError(f"counts must be 2-dimensional, got shape {counts.shape}")
        if counts.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError(
                f"counts shape {counts.shape} does not match "
                f"{len(self.row_labels)} row / {len(self.col_labels)} column labels"
            )
        if not np.all(np.isfinite(counts)):
            raise ValueError("counts contain NaN or Inf")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if np.any(counts.sum(axis=1) <= 0) or np.any(counts.sum(axis=0) <= 0):
            raise ValueError(
                "table has a zero marginal; construct via from_counts() to drop "
                "empty categories"
            )

    @property
    def r(self) -> np.ndarray:
        """Row marginals, counts @ 1."""
        return self.counts.sum(axis=1)

    @property
    def c(self) -> np.ndarray:
        """Column marginals, counts.T @ 1."""
        return self.counts.sum(axis=0)

    @property
    def n(self) -> float:
        """Grand total."""
        return float(self.counts.sum())

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    @classmethod
    def from_counts(cls, counts, row_labels=None, col_labels=None) -> "ContingencyTable":
        """Build a table, dropping zero-marginal rows/columns with a warning."""
        counts = np.asarray(counts, dtype=float)
        if counts.ndim != 2:
            raise ValueError(f"counts must be 2-dimensional, got shape {counts.shape}")
        if not np.all(np.isfinite(counts)):
            raise ValueError("counts contain NaN or Inf")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        nr, nc = counts.shape
        if row_labels is None:
            row_labels = [f"r{i}" for i in range(nr)]
        if col_labels is None:
            col_labels = [f"c{j}" for j in range(nc)]
        row_keep = counts.sum(axis=1) > 0
        col_keep = counts.sum(axis=0) > 0
        if not row_keep.all():
            dropped = [lbl for lbl, keep in zip(row_labels, row_keep) if not keep]
            logger.warning("dropping zero-marginal rows: %s", ", ".join(dropped))
        if not col_keep.all():
            dropped = [lbl for lbl, keep in zip(col_labels, col_keep) if not keep]
            logger.warning("dropping zero-marginal columns: %s", ", ".join(dropped))
        counts = counts[np.ix_(row_keep, col_keep)]
        if counts.size == 0:
            raise ValueError("table is empty after dropping zero-marginal categories")
        return cls(
            counts=counts,
            row_labels=tuple(l for l, k in zip(row_labels, row_keep) if k),
            col_labels=tuple(l for l, k in zip(col_labels, col_keep) if k),
        )

    def normalized(self) -> "ContingencyTable":
        """Same table with counts divided by the grand total (n becomes 1)."""
        return ContingencyTable(
            counts=self.counts / self.n,
            row_labels=self.row_labels,
            col_labels=self.col_labels,
        )


def one_hot(index: int, dimension: int) -> np.ndarray:
    """Unit basis vector: position ``index`` set to 1 in a length-``dimension`` vector."""
    if not 0 <= index < dimension:
        raise IndexError(f"category index {index} out of range for dimension {dimension}")
    e = np.zeros(dimension)
    e[index] = 1.0
    return e


def contingency_from_observations(obs: Observations) -> ContingencyTable:
    """Count co-occurring category pairs into a table.

    Category labels are sorted, so the result does not depend on the order
    of the observations.
    """
    obs = list(obs)
    if not obs:
        raise ValueError("observation list is empty")
    row_labels = sorted({a for a, _ in obs})
    col_labels = sorted({b for _, b in obs})
    row_index = {lbl: i for i, lbl in enumerate(row_labels)}
    col_index = {lbl: j for j, lbl in enumerate(col_labels)}
    counts = np.zeros((len(row_labels), len(col_labels)))
    for a, b in obs:
        counts[row_index[a], col_index[b]] += 1.0
    return ContingencyTable.from_counts(counts, row_labels, col_labels)


def residual_matrix(t: ContingencyTable) -> np.ndarray:
    """Centered frequency matrix N/n - r c^T / n^2; rows and columns sum to zero."""
    n = t.n
    return t.counts / n - np.outer(t.r, t.c) / (n * n)


def _format_count(x: float) -> str:
    # integers round-trip as integers; everything else via repr (exact)
    x = float(x)
    if x == int(x) and abs(x) < 2**53:
        return str(int(x))
    return repr(x)


def _read_lines(path) -> list[tuple[int, str]]:
    """Numbered lines of a text file without their terminators; empty lines skipped."""
    with open(path, encoding="utf-8") as fh:
        return [(n, line.rstrip("\n")) for n, line in enumerate(fh, start=1) if line != "\n"]


def _check_labels(path, axis: str, labels, sep: str, linenos=None) -> None:
    """Reject a label containing ``sep``, LF or CR, or repeated within ``labels``.

    With ``sep`` a comma, a label that begins with a double quote, which a
    CSV reader takes as quoting and strips, is rejected too.  The error
    names ``path:line`` when ``linenos`` (one per label) is given.
    """
    seen = set()
    for i, label in enumerate(labels):
        split = sep in label or "\n" in label or "\r" in label
        quoted = sep == "," and label.startswith('"')
        if split or quoted or label in seen:
            where = path if linenos is None else f"{path}:{linenos[i]}"
            if split:
                raise ValueError(f"{where}: {axis} label {label!r} contains {sep!r} or a line break")
            if quoted:
                raise ValueError(f"{where}: {axis} label {label!r} contains a leading '\"', "
                                 "which a CSV reader strips")
            raise ValueError(f"{where}: duplicate {axis} label {label!r}")
        seen.add(label)


def _parse_numbers(path, linenos, rows) -> np.ndarray:
    """Float array of ``rows``; a bad or non-finite value names ``path:line`` of its row."""
    try:
        values = np.array(rows, dtype=float)
    except ValueError:
        # find the offending line with the same conversion, one row at a time
        for lineno, row in zip(linenos, rows):
            try:
                np.array(row, dtype=float)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        raise
    bad = ~np.isfinite(values).all(axis=-1)
    if bad.any():
        raise ValueError(f"{path}:{linenos[int(np.argmax(bad))]}: non-finite value")
    return values


def write_tsv(t: ContingencyTable, path) -> None:
    """Write the TSV table format: header of column labels, one labeled row per line.

    Cells holding integers below 2**53 are written as integers, all others
    via ``repr``, so :func:`read_tsv` reads back the exact counts.  Labels
    that :func:`read_tsv` would split or reject (tab, newline or carriage
    return, or a duplicate) raise ``ValueError`` before the file is opened.
    """
    _check_labels(path, "row", t.row_labels, "\t")
    _check_labels(path, "column", t.col_labels, "\t")
    counts = t.counts
    if np.all((counts == np.trunc(counts)) & (np.abs(counts) < 2**53)):
        rows = counts.astype(np.int64).tolist()
    else:
        rows = [map(_format_count, row) for row in counts.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t" + "\t".join(t.col_labels) + "\n")
        for label, row in zip(t.row_labels, rows):
            fh.write(label + "\t" + "\t".join(map(str, row)) + "\n")


def read_tsv(path) -> ContingencyTable:
    """Read the TSV table format written by :func:`write_tsv`.

    Empty lines are skipped, but a line of whitespace is data: it is the
    header of a table whose column labels are all whitespace.  A file
    without data rows or a duplicate row or column label raises
    ``ValueError`` naming the file; a ragged row or a cell that is not a
    finite nonnegative number names the file and line.
    """
    lines = _read_lines(path)
    if len(lines) < 2:
        raise ValueError(f"empty table file, no data rows: {path}")
    col_labels = lines[0][1].split("\t")[1:]
    linenos, row_labels, rows = [], [], []
    for lineno, line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != len(col_labels) + 1:
            raise ValueError(
                f"{path}:{lineno}: expected {len(col_labels) + 1} cells, got {len(cells)}"
            )
        linenos.append(lineno)
        row_labels.append(cells[0])
        rows.append(cells[1:])
    _check_labels(path, "row", row_labels, "\t")
    _check_labels(path, "column", col_labels, "\t")
    counts = _parse_numbers(path, linenos, rows)
    negative = (counts < 0).any(axis=1)
    if negative.any():
        raise ValueError(f"{path}:{linenos[int(np.argmax(negative))]}: negative count")
    return ContingencyTable.from_counts(counts, row_labels, col_labels)
