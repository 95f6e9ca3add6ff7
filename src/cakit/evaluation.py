"""Word-similarity evaluation: dataset parsing, cosine, Spearman rank correlation.

Embeddings are scored by ranking pair cosines against human similarity
judgements.  Out-of-vocabulary pairs are skipped and counted, never
zero-filled, so coverage is always visible next to the correlation.
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
from operator import itemgetter

import numpy as np

from .ca import EmbeddingSet


@dataclass(frozen=True)
class WordSimDataset:
    """(word_a, word_b, human score) triples, unordered duplicates averaged."""

    triples: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        if not self.triples:
            raise ValueError("word-similarity dataset is empty")

    def __len__(self) -> int:
        return len(self.triples)

    def lookup(self, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Label indices ``ia``, ``ib`` and the score of each pair whose words are both labels.

        Pairs keep their dataset order; a pair with a word that is not a
        label is left out.  The one place that matches pair words to labels.
        """
        index = {lbl: i for i, lbl in enumerate(labels)}
        words_a, words_b, scores = (map(itemgetter(k), self.triples) for k in range(3))
        ia, ib = (np.fromiter(map(index.get, words, repeat(-1)), dtype=np.intp, count=len(self))
                  for words in (words_a, words_b))
        keep = (ia >= 0) & (ib >= 0)
        return ia[keep], ib[keep], np.fromiter(scores, dtype=float, count=len(self))[keep]


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
    line, and any NaN or infinite score, raises with its line number.
    Duplicate unordered pairs are averaged.
    """
    scores: dict[tuple[str, str], list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
            a, b = cells[0].lower(), cells[1].lower()
            scores.setdefault((a, b) if a <= b else (b, a), []).append(value)
    if not scores:
        raise ValueError(f"no usable lines in {path}")
    return WordSimDataset(tuple((a, b, math.fsum(vs) / len(vs))
                                for (a, b), vs in scores.items()))


def cosine(u, v) -> float:
    """u.v / (|u| |v|); zero vectors compare as 0 with a warning."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        warnings.warn("cosine of a zero vector is defined as 0", stacklevel=2)
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


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
    norms = np.linalg.norm(coords, axis=1)
    zero = norms == 0.0
    unit = coords / np.where(zero, 1.0, norms)[:, None]
    sims = np.einsum("ij,ij->i", unit[ia], unit[ib])
    # two identical nonzero rows (a self pair too) score exactly 1, not 1 +- rounding
    sims[(coords[ia] == coords[ib]).all(axis=1) & ~zero[ia]] = 1.0
    touched = int(np.count_nonzero(zero[ia] | zero[ib]))
    if touched:
        warnings.warn(f"{touched} of {len(sims)} pairs involve a zero vector; "
                      "their cosine is 0", stacklevel=2)
    return EvalReport(spearman(sims, human), pairs_used=len(sims),
                      pairs_skipped=len(d) - len(sims))
