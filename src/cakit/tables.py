"""Contingency tables: construction from observations, marginals, residuals.

A table holds a nonnegative count matrix together with row/column category
labels, each a string that appears once on its axis.  Marginals are always
strictly positive: categories whose marginal is zero are dropped (with a
logged warning) by the constructor, however the table is made, because
every downstream fit divides by them.

This module also owns the text-file policy of the package (the table TSV
here, the embedding and coordinate files of :mod:`cakit.ca`): a writer
rejects a label its reader would split or that repeats before it opens the
file and replaces the file whole or not at all, and a reader rejects a
malformed line or value naming ``path:line``.  A symmetric table is written
as its lower triangle, any other in full.  A table whose cells are all 1-15
ASCII digits is decoded as integers, a block of cells at a time; every
other file goes through ``np.loadtxt`` or the per-row check.

It owns the package's record rule too: a frozen dataclass holding an array
compares through :func:`_equal_fields` and marks each array field
``hash=False``, so its generated hash agrees, and one that keeps a caller's
input holds :func:`_read_only` copies of its arrays and tuples of its labels.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import logging
import os
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)

# An observation list is a sequence of (row-category, column-category) pairs.
Observations = Sequence[tuple[str, str]]


def _equal_fields(self, other) -> bool:
    """``==`` by value over every field that compares, arrays included, so it never raises."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self) if f.compare)


def _read_only(value, dtype=float) -> np.ndarray | None:
    """A read-only copy of ``value`` as an array of ``dtype`` for a record to own; None stays None."""
    if value is None:
        return None
    array = np.array(value, dtype=dtype)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class ContingencyTable:
    """Nonnegative count matrix with labels and strictly positive marginals.

    The constructor is the one place that decides empty categories: after
    the shape, label, NaN/Inf and sign checks, each row or column whose
    marginal is zero is dropped with a logged warning, and a table left with
    no cell raises.  A label that is not a string or repeats on its axis
    raises ``ValueError``, the rule every reader applies; the separators a
    label may not hold are checked by each writer.  :meth:`from_counts`
    only supplies default labels.

    ``counts`` is the table's own read-only float copy of the cells kept
    from the array it was given, so the checks made at construction hold
    for as long as the table does: writing into it raises ``ValueError``,
    and a later change to the caller's array does not reach the table.  The
    marginals ``r = counts @ 1`` and ``c = counts.T @ 1`` and the total ``n``
    are computed once, from that copy, and kept read-only beside it.  Two
    tables are equal when their counts and labels are.
    """

    counts: np.ndarray = field(hash=False)
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    r: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)
    n: float = field(init=False, repr=False, compare=False)

    __eq__ = _equal_fields

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        rows, cols = tuple(self.row_labels), tuple(self.col_labels)
        if counts.ndim != 2:
            raise ValueError(f"counts must be 2-dimensional, got shape {counts.shape}")
        if counts.shape != (len(rows), len(cols)):
            raise ValueError(
                f"counts shape {counts.shape} does not match "
                f"{len(rows)} row / {len(cols)} column labels"
            )
        for axis, labels in (("row", rows), ("column", cols)):
            bad = _bad_label(axis, labels)
            if bad is not None:
                raise ValueError(bad[1])
        if not np.all(np.isfinite(counts)):
            raise ValueError("counts contain NaN or Inf")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        row_keep, col_keep = counts.any(axis=1), counts.any(axis=0)  # the nonzero marginals
        if not (row_keep.all() and col_keep.all()):
            for axis, labels, keep in (("rows", rows, row_keep), ("columns", cols, col_keep)):
                if not keep.all():
                    dropped = itertools.compress(labels, (~keep).tolist())
                    logger.warning("dropping zero-marginal %s: %s", axis, ", ".join(dropped))
            counts = counts[np.ix_(row_keep, col_keep)]
            rows = tuple(itertools.compress(rows, row_keep.tolist()))
            cols = tuple(itertools.compress(cols, col_keep.tolist()))
        if counts.size == 0:
            raise ValueError("table is empty after dropping zero-marginal categories")
        counts = _read_only(counts)  # the table's one copy
        for name, value in (("counts", counts), ("row_labels", rows), ("col_labels", cols),
                            ("r", _read_only(counts.sum(axis=1))),
                            ("c", _read_only(counts.sum(axis=0))), ("n", float(counts.sum()))):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    @functools.cached_property
    def symmetric(self) -> bool:
        """Equal labels on both axes and ``counts == counts.T`` exactly; computed on first read."""
        return self.row_labels == self.col_labels and np.array_equal(self.counts, self.counts.T)

    @classmethod
    def from_counts(cls, counts, row_labels=None, col_labels=None) -> "ContingencyTable":
        """A table whose axes given no labels are labelled ``r{i}`` and ``c{j}``."""
        counts = np.asarray(counts, dtype=float)
        nr, nc = counts.shape if counts.ndim == 2 else (0, 0)  # the constructor rejects the rest
        if row_labels is None:
            row_labels = [f"r{i}" for i in range(nr)]
        if col_labels is None:
            col_labels = [f"c{j}" for j in range(nc)]
        return cls(counts, row_labels, col_labels)


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
    return ContingencyTable(counts, row_labels, col_labels)


def residual_matrix(t: ContingencyTable) -> np.ndarray:
    """Centered frequency matrix N/n - r c^T / n^2; rows and columns sum to zero."""
    n = t.n
    expected = np.outer(t.r, t.c)
    expected /= n * n
    residual = t.counts / n
    residual -= expected
    return residual


# The decimal strings of the integers below this bound.  In the seed-1
# tables of the three perfbench workloads (V = 400, 500, 1200) all but
# 0.0032% of the cells fall below it.
_DECIMALS_BOUND = 1 << 12
_DECIMALS = np.array([str(i) for i in range(_DECIMALS_BOUND)], dtype=object)


def _decimal_cells(row: np.ndarray) -> list[str]:
    """The cells of a finite row: integers below the bound looked up, others ``_format_count``."""
    index = np.minimum(np.maximum(row, 0), _DECIMALS_BOUND - 1).astype(np.intp)
    small = index == row  # the integers 0 .. bound - 1, and -0.0
    cells = _DECIMALS[index]
    if not small.all():
        cells[~small] = list(map(_format_count, row[~small].tolist()))
    return cells.tolist()


def _format_count(x: float) -> str:
    # integers round-trip as integers; everything else via repr (exact)
    if x == int(x) and abs(x) < 2**53:
        return str(int(x))
    return repr(x)


def _read_text(path) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark; every reader's one open."""
    with open(path, encoding="utf-8-sig") as fh:
        return fh.read()


def _read_lines(path) -> list[tuple[int, str]]:
    """Numbered lines of a text file without their terminators; empty lines skipped."""
    return [(n, line) for n, line in enumerate(_read_text(path).split("\n"), start=1) if line]


def _bad_label(axis: str, labels, sep: str = "") -> tuple[int, str] | None:
    """The index of the first label that is not a string or repeats in ``labels``, and why.

    Given a separator ``sep``, a label that contains it, LF or CR is bad
    too, and with ``sep`` a comma so is one that begins with a double
    quote, which a CSV reader takes as quoting and strips.  None when every
    label is good.
    """
    seen = set()
    for i, label in enumerate(labels):
        if not isinstance(label, str):
            return i, f"{axis} label {label!r} is not a string"
        if sep and (sep in label or "\n" in label or "\r" in label):
            return i, f"{axis} label {label!r} contains {sep!r} or a line break"
        if sep == "," and label.startswith('"'):
            return i, f"{axis} label {label!r} contains a leading '\"', which a CSV reader strips"
        if label in seen:
            return i, f"duplicate {axis} label {label!r}"
        seen.add(label)
    return None


def _check_labels(path, axis: str, labels, sep: str, linenos=None) -> None:
    """Reject a label that :func:`_bad_label` finds, naming ``path``.

    The error names ``path:line`` when ``linenos`` (one per label) is given.
    """
    bad = _bad_label(axis, labels, sep)
    if bad is not None:
        i, why = bad
        where = path if linenos is None else f"{path}:{linenos[i]}"
        raise ValueError(f"{where}: {why}")


# The ASCII separators 0x1C-0x1F, which np.loadtxt strips from a cell as
# space and float() rejects.
_FLOAT_REJECTS = "\x1c\x1d\x1e\x1f"


# Cells per block of the integer decode.  Decoding a whole V=1200 table at
# once takes 11.5 MB index arrays, which raise glibc's dynamic mmap threshold
# and change how every later allocation of the process is served.
_DIGIT_BLOCK = 1 << 16
# 10**15 < 2**53, so a cell of at most 15 digits, and every partial sum of its
# digits, is an exact float.
_MAX_DIGITS = 15


def _line_of(linenos, widths, cell: int):
    """The line of the text that holds flat cell ``cell`` when text i holds ``widths[i]`` cells."""
    return linenos[int(np.searchsorted(np.cumsum(widths), cell, side="right"))]


def _parse_digits(texts, widths: np.ndarray) -> np.ndarray | None:
    """The ``widths.sum()`` cells of ``texts`` as floats when each is 1-15 ASCII digits, else None.

    Only texts whose first one is all digits and tabs, and that each hold a
    cell, are tried.  They are decoded a block of about ``_DIGIT_BLOCK``
    cells at a time, whole texts to a block: each block is joined with
    newlines and viewed as bytes, which must be digits, tabs and newlines,
    text i's ``widths[i]`` cells separated by tabs and ended by a newline.
    Each value is summed from its units digit up, exactly, so it is the
    float that ``float`` reads from the cell.
    """
    first = texts[0].replace("\t", "") if texts else ""
    if not (widths.all() and first.isascii() and first.isdigit()):
        return None
    bounds = np.concatenate(([0], np.cumsum(widths)))  # text i holds cells bounds[i]:bounds[i+1]
    values = np.empty(int(bounds[-1]))
    start = 0
    while start < len(texts):
        stop = max(start + 1,
                   int(np.searchsorted(bounds, bounds[start] + _DIGIT_BLOCK, side="right")) - 1)
        data = np.frombuffer(("\n".join(texts[start:stop]) + "\n").encode(), dtype=np.uint8)
        digits = data - np.uint8(ord("0"))
        ends = np.flatnonzero(digits > 9)  # the separator after each cell
        first_cell = bounds[start]
        if ends.size != bounds[stop] - first_cell:
            return None
        separators = np.full(ends.size, ord("\t"), dtype=np.uint8)
        separators[bounds[start + 1:stop + 1] - first_cell - 1] = ord("\n")
        if not (data[ends] == separators).all():
            return None
        lengths = np.diff(ends, prepend=-1) - 1
        if lengths.min() < 1 or lengths.max() > _MAX_DIGITS:
            return None
        cells = values[first_cell:bounds[stop]]
        cells[:] = digits[ends - 1]
        place, scale = 1, 10.0
        longer = np.flatnonzero(lengths > place)
        while longer.size:
            cells[longer] += digits[ends[longer] - 1 - place] * scale
            place, scale = place + 1, scale * 10.0
            longer = longer[lengths[longer] > place]
        start = stop
    return values


def _parse_numbers(path, linenos, texts, widths) -> np.ndarray:
    """The cells of ``texts`` as one flat float array, ``widths[i]`` tab-separated cells in text i.

    Texts whose cells are all 1-15 ASCII digits, as in a count table, are
    decoded as integers, a block of about ``_DIGIT_BLOCK`` cells at a time
    (:func:`_parse_digits`); the test that sends them there reads the first
    text only.  Every other call, and one whose decode fails, goes to one
    ``np.loadtxt`` call over every text when they all hold the same number
    of cells; it reads each cell to the value ``float`` reads or rejects
    it, except for the separators in ``_FLOAT_REJECTS`` and an empty text,
    which it skips.  Texts of unequal widths or holding either, or a call
    that fails, returns another shape or reads a non-finite value, go to
    the per-row conversion, which decides: it reads what ``float`` reads,
    and the first row with a bad or non-finite value is named as
    ``path:line``.
    """
    widths = np.asarray(widths, dtype=np.intp)
    values = _parse_digits(texts, widths)
    if values is not None:
        return values
    width = int(widths[0]) if widths.size and (widths == widths[0]).all() else None
    if (width is not None and all(texts)
            and not any(c in t for t in texts for c in _FLOAT_REJECTS)):
        with contextlib.suppress(ValueError):
            values = np.loadtxt(texts, delimiter="\t", comments=None, dtype=float, ndmin=2)
    if values is not None and values.shape == (len(texts), width) and np.isfinite(values).all():
        return values.reshape(-1)
    ends = np.cumsum(widths).tolist()
    values = np.empty(ends[-1] if ends else 0)
    for lineno, text, width, end in zip(linenos, texts, widths.tolist(), ends):
        try:
            values[end - width:end] = np.array(text.split("\t") if width else [], dtype=float)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"{path}:{_line_of(linenos, widths, np.argmax(bad))}: non-finite value")
    return values


def _write_atomic(path, lines) -> None:
    """Write the strings of ``lines`` to ``path`` through a temporary file beside it.

    The temporary file is renamed over ``path`` once every line is written,
    so an error while the lines are formatted or written leaves an earlier
    file at ``path`` unchanged and no temporary file behind.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_tsv(t: ContingencyTable, path) -> None:
    """Write the TSV table format: header of column labels, one labeled row per line.

    A symmetric table (:attr:`ContingencyTable.symmetric`) is written as its
    lower triangle, row i holding its cells 0..i; every other table is
    written in full.  One row formatter writes integers below 2**53 as
    integers and all other cells via ``repr``, so :func:`read_tsv` reads
    back the exact counts.  Labels that :func:`read_tsv` would split or
    reject (tab, newline or carriage return, or a duplicate) raise
    ``ValueError`` before the file is opened.
    """
    _check_labels(path, "row", t.row_labels, "\t")
    _check_labels(path, "column", t.col_labels, "\t")
    rows = (row[:i + 1] for i, row in enumerate(t.counts)) if t.symmetric else t.counts
    body = (label + "\t" + "\t".join(_decimal_cells(row)) + "\n"
            for label, row in zip(t.row_labels, rows))
    _write_atomic(path, itertools.chain(["\t" + "\t".join(t.col_labels) + "\n"], body))


def _mirror(cells: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n matrix whose lower triangle, row by row, is ``cells``.

    Row i and column i are filled from the row's own cells, so no second
    n x n array is made.
    """
    counts = np.empty((n, n))
    start = 0
    for i in range(n):
        row = cells[start:start + i + 1]
        counts[i, :i + 1] = row
        counts[:i, i] = row[:i]
        start += i + 1
    return counts


def read_tsv(path) -> ContingencyTable:
    """Read the TSV table format written by :func:`write_tsv`, in full or as a triangle.

    A file is a triangle when the header names two or more columns and its
    first data row holds one cell under the first column label: row i must
    then be labelled with column label i and hold i + 1 cells, and there
    must be a row per column; the result mirrors the triangle.  Any other
    file holds a full row per line.  Empty lines are skipped, but a line of
    whitespace is data: it is the header of a table whose column labels are
    all whitespace.  A file without data rows raises ``ValueError`` naming
    the file; a duplicate row or column label, a ragged row, a triangle's
    row out of order, missing or extra, or a cell that is not a finite
    nonnegative number names the file and line.  A table whose cells are
    all 1-15 ASCII digits, as ``cakit count`` writes, is decoded as
    integers; any other goes through ``np.loadtxt`` or the per-row check
    (:func:`_parse_numbers`).
    """
    lines = _read_lines(path)
    if len(lines) < 2:
        raise ValueError(f"empty table file, no data rows: {path}")
    head_line, header = lines[0]
    col_labels = header.split("\t")[1:]
    n = len(col_labels)
    _check_labels(path, "column", col_labels, "\t", [head_line] * n)
    first = lines[1][1]
    triangle = n >= 2 and first.count("\t") == 1 and first.partition("\t")[0] == col_labels[0]
    linenos, row_labels, texts = [], [], []
    for i, (lineno, line) in enumerate(lines[1:]):
        label, _, text = line.partition("\t")
        if triangle:
            if i == n:
                raise ValueError(f"{path}:{lineno}: row {label!r} after the last row of a "
                                 f"triangle of {n} columns")
            if label != col_labels[i]:
                raise ValueError(f"{path}:{lineno}: row label {label!r} of a triangle is not "
                                 f"column label {i + 1}, {col_labels[i]!r}")
        tabs = line.count("\t")
        width = i + 1 if triangle else n
        if tabs != width:
            raise ValueError(f"{path}:{lineno}: expected {width + 1} cells, got {tabs + 1}")
        linenos.append(lineno)
        row_labels.append(label)
        texts.append(text)
    if triangle and len(texts) < n:
        raise ValueError(f"{path}:{linenos[-1]}: a triangle of {n} columns ends after "
                         f"{len(texts)} rows")
    _check_labels(path, "row", row_labels, "\t", linenos)
    widths = range(1, n + 1) if triangle else [n] * len(texts)
    cells = _parse_numbers(path, linenos, texts, widths)
    negative = cells < 0
    if negative.any():
        raise ValueError(f"{path}:{_line_of(linenos, widths, np.argmax(negative))}: "
                         "negative count")
    counts = _mirror(cells, n) if triangle else cells.reshape(len(texts), n)
    del cells, negative  # the table's copy is made without them
    return ContingencyTable(counts, row_labels, col_labels)
