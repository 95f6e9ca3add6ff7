"""Word-similarity evaluation: dataset parsing, cosine, Spearman rank correlation.

A pair file is read once; one whose lines are all three tab-separated
cells with no repeated pair is parsed whole into word and score columns,
any other file line by line (see :func:`load_wordsim`).  Embeddings are
scored by ranking pair cosines against human similarity judgements.
Out-of-vocabulary pairs are skipped and counted, never zero-filled, so
coverage is always visible next to the correlation.
Pairs touching a zero vector score cosine 0, with one warning per
evaluation that counts them; a pair of identical nonzero vectors scores
exactly 1, so such pairs tie in the ranking.  NaN and infinite scores are
rejected.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .ca import EmbeddingSet
from .tables import _read_text


class WordSimDataset:
    """Word pairs and their human scores, as three columns.

    ``words_a`` and ``words_b`` are tuples of words and ``scores`` a
    read-only float array, one entry per pair.  ``WordSimDataset(triples)``
    builds one from (word_a, word_b, score) triples, and :attr:`triples`
    gives them back; :func:`load_wordsim` builds one from its columns.
    """

    def __init__(self, triples):
        self._set(*(tuple(zip(*triples)) or ((), (), ())))

    @classmethod
    def from_columns(cls, words_a, words_b, scores) -> WordSimDataset:
        """The dataset of pair ``i`` = (``words_a[i]``, ``words_b[i]``, ``scores[i]``)."""
        dataset = cls.__new__(cls)
        dataset._set(words_a, words_b, scores)
        return dataset

    def _set(self, words_a, words_b, scores) -> None:
        if not words_a:
            raise ValueError("word-similarity dataset is empty")
        self.words_a, self.words_b = tuple(words_a), tuple(words_b)
        self.scores = np.array(scores, dtype=float)
        self.scores.setflags(write=False)

    @property
    def triples(self) -> tuple[tuple[str, str, float], ...]:
        return tuple(zip(self.words_a, self.words_b, self.scores.tolist()))

    def __len__(self) -> int:
        return len(self.words_a)

    def lookup(self, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Label indices ``ia``, ``ib`` and the score of each pair whose words are both labels.

        Pairs keep their dataset order; a pair with a word that is not a
        label is left out.  The one place that matches pair words to labels.
        """
        index = {lbl: i for i, lbl in enumerate(labels)}
        ia, ib = (np.fromiter(map(index.get, words, repeat(-1)), dtype=np.intp, count=len(self))
                  for words in (self.words_a, self.words_b))
        keep = (ia >= 0) & (ib >= 0)
        return ia[keep], ib[keep], self.scores[keep]


@dataclass(frozen=True)
class EvalReport:
    spearman_rho: float
    pairs_used: int
    pairs_skipped: int


def _split_line(line: str) -> list[str]:
    if "\t" in line:
        return [c.strip() for c in line.split("\t")]
    if "," in line:
        return [c.strip() for c in line.split(",")]
    return line.split()


def load_wordsim(path) -> WordSimDataset:
    """Parse "word_a word_b score" lines (tab, comma, or whitespace separated).

    Words are lowercased to match corpus tokenization.  A first line whose
    score field is not numeric is treated as a header; any other malformed
    line, an empty word, and any NaN or infinite score, raises with its
    line number.
    Duplicate unordered pairs are averaged.  A leading byte-order mark is
    ignored.

    A file whose every non-empty line holds three tab-separated cells and
    no repeated pair is parsed whole, column by column (see
    :func:`_tab_columns`); any other file goes through the per-line loop,
    which decides every error and the line it names.
    """
    text = _read_text(path)
    dataset = _tab_columns(text)
    return dataset if dataset is not None else _parse_lines(path, text)


def _tab_columns(text: str) -> WordSimDataset | None:
    """The dataset of a file of three-cell tab lines, or None for the per-line loop.

    One split of the joined lines gives every cell; the word cells are
    stripped and lowercased, the score cells read by ``float``, and each
    pair ordered with ``min``/``max``, as the loop does one line at a time.
    A file with no line, a line with other than two tabs, a score ``float``
    rejects or that is not finite, an empty word or a repeated unordered
    pair returns None: the loop skips a header, splits other separators,
    averages repeats and names the bad line.
    """
    lines = list(filter(None, map(str.strip, text.split("\n"))))
    if not lines or set(map(str.count, lines, repeat("\t"))) != {2}:
        return None
    cells = list(map(str.strip, "\t".join(lines).split("\t")))
    try:
        scores = np.fromiter(map(float, cells[2::3]), dtype=float, count=len(lines))
    except ValueError:
        return None
    if not np.isfinite(scores).all():
        return None
    scores += 0.0  # -0.0 to 0.0: the loop averages with fsum, and fsum([-0.0]) is 0.0
    words_a, words_b = (list(map(str.lower, cells[k::3])) for k in (0, 1))
    lo, hi = list(map(min, words_a, words_b)), list(map(max, words_a, words_b))
    if "" in lo or len(set(map("\t".join, zip(lo, hi)))) < len(lines):
        return None
    return WordSimDataset.from_columns(lo, hi, scores)


def _parse_lines(path, text: str) -> WordSimDataset:
    """The per-line parse of :func:`load_wordsim`, for any file."""
    scores: dict[tuple[str, str], list[float]] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        cells = _split_line(line)
        if len(cells) < 3:
            raise ValueError(f"{path}:{lineno}: expected 'word_a word_b score'")
        try:
            value = float(cells[2])
        except ValueError:
            if lineno == 1:  # header row
                continue
            raise ValueError(f"{path}:{lineno}: score {cells[2]!r} is not a number")
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: score {cells[2]!r} is not finite")
        if not (cells[0] and cells[1]):
            raise ValueError(f"{path}:{lineno}: empty word")
        a, b = cells[0].lower(), cells[1].lower()
        scores.setdefault((a, b) if a <= b else (b, a), []).append(value)
    if not scores:
        raise ValueError(f"no usable lines in {path}")
    return WordSimDataset(tuple((a, b, math.fsum(vs) / len(vs))
                                for (a, b), vs in scores.items()))


def cosine(u, v) -> float:
    """u.v / (|u| |v|), as :func:`evaluate` scores a pair; a zero vector gives 0 with a warning."""
    sims, touched = _pair_cosines(np.array([u, v], dtype=float), [0], [1])
    if touched:
        warnings.warn("cosine of a zero vector is defined as 0", stacklevel=2)
    return float(sims[0])


def _pair_cosines(coords: np.ndarray, ia, ib) -> tuple[np.ndarray, int]:
    """Cosines of rows ``ia[p]`` and ``ib[p]`` of ``coords``; the count of pairs with a zero row.

    Such a pair scores 0; two identical nonzero rows score exactly 1, not 1 +- rounding.
    """
    norms = np.linalg.norm(coords, axis=1)
    zero = norms == 0.0
    unit = coords / np.where(zero, 1.0, norms)[:, None]
    sims = np.einsum("ij,ij->i", unit[ia], unit[ib])
    sims[(coords[ia] == coords[ib]).all(axis=1) & ~zero[ia]] = 1.0
    return sims, int(np.count_nonzero(zero[ia] | zero[ib]))


def _ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; each run of equal values shares the mean of its ranks."""
    order = np.argsort(x, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(x[order]) != 0])  # x is finite
    ends = np.r_[starts[1:], len(x)]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman(xs, ys) -> float:
    """Pearson correlation of the average-fractional ranks of two sequences.

    A constant input list has no defined rank correlation and raises,
    rather than reporting 0; so does a NaN or infinite value.
    """
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least two pairs")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("rank correlation is undefined for non-finite values")
    if x.min() == x.max() or y.min() == y.max():
        raise ValueError("rank correlation is undefined for a constant list")
    mean = (len(x) + 1) / 2.0  # both rank lists average to this
    # the deviations are half-integers, so their products are exact
    dx, dy = _ranks(x) - mean, _ranks(y) - mean
    num = math.fsum((dx * dy).tolist())
    den = math.sqrt(math.fsum((dx * dx).tolist()) * math.fsum((dy * dy).tolist()))
    return num / den


def evaluate(e: EmbeddingSet, which: str, d: WordSimDataset) -> EvalReport:
    """Spearman correlation of pair cosines against human scores.

    ``which`` selects the row ("F") or column ("G") coordinates.  The pairs
    :meth:`WordSimDataset.lookup` matches to their labels are scored; the
    others, with a word out of vocabulary, are skipped and counted.
    """
    labels, coords = e.coordinates(which)
    ia, ib, human = d.lookup(labels)
    if not len(ia):
        raise ValueError("zero usable pairs: every dataset word is out of vocabulary")
    sims, touched = _pair_cosines(coords, ia, ib)
    if touched:
        warnings.warn(f"{touched} of {len(sims)} pairs involve a zero vector; "
                      "their cosine is 0", stacklevel=2)
    return EvalReport(spearman(sims, human), pairs_used=len(sims),
                      pairs_skipped=len(d) - len(sims))
