"""Word-similarity evaluation: dataset parsing, cosine, Spearman rank correlation.

A pair file is read once; one whose lines are all three tab-separated
cells with no repeated pair is parsed whole, any other file line by line
(see :func:`load_wordsim`).  Either way the dataset is dictionary-encoded
once: its sorted vocabulary, an (n, 2) array of word ids and the scores,
so matching pairs to embedding labels looks up each distinct word once.
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

import numpy as np

from .ca import EmbeddingSet
from .corpus import _token_ids
from .tables import _read_only, _read_text


class WordSimDataset:
    """Word pairs and their human scores, dictionary-encoded.

    ``vocab`` is the tuple of the distinct pair words in sorted order,
    ``ids`` a read-only (n, 2) int array whose row ``i`` holds the
    vocabulary indices of pair ``i``'s two words, and ``scores`` a read-only
    float array, one entry per pair.  ``words_a``, ``words_b`` and
    :attr:`triples` are derived from them.  ``WordSimDataset(triples)``
    builds one from (word_a, word_b, score) triples, each pair in the word
    order given; :func:`load_wordsim` builds one from a file.
    """

    def __init__(self, triples):
        words_a, words_b, scores = tuple(zip(*triples)) or ((), (), ())
        vocab, ids = _token_ids([words_a, words_b])
        self._set(vocab, ids.reshape(2, -1).T, scores)

    @classmethod
    def _from_ids(cls, vocab, ids, scores) -> WordSimDataset:
        """The dataset whose pair ``i`` is ``vocab[ids[i, 0]]``, ``vocab[ids[i, 1]]``,
        scored ``scores[i]``."""
        dataset = cls.__new__(cls)
        dataset._set(vocab, ids, scores)
        return dataset

    def _set(self, vocab, ids, scores) -> None:
        if not len(ids):
            raise ValueError("word-similarity dataset is empty")
        self.vocab = tuple(vocab)
        self.ids = _read_only(ids, np.intp)
        self.scores = _read_only(scores)

    @property
    def words_a(self) -> tuple[str, ...]:
        return tuple(map(self.vocab.__getitem__, self.ids[:, 0].tolist()))

    @property
    def words_b(self) -> tuple[str, ...]:
        return tuple(map(self.vocab.__getitem__, self.ids[:, 1].tolist()))

    @property
    def triples(self) -> tuple[tuple[str, str, float], ...]:
        return tuple(zip(self.words_a, self.words_b, self.scores.tolist()))

    def __len__(self) -> int:
        return len(self.ids)

    def lookup(self, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Label indices ``ia``, ``ib`` and the score of each pair whose words are both labels.

        Pairs keep their dataset order; a pair with a word that is not a
        label is left out.  Each vocabulary word is looked up once.  The one
        place that matches pair words to labels.
        """
        index = {lbl: i for i, lbl in enumerate(labels)}
        at = np.fromiter(map(index.get, self.vocab, repeat(-1)), dtype=np.intp,
                         count=len(self.vocab))[self.ids]
        keep = (at >= 0).all(axis=1)
        return at[keep, 0], at[keep, 1], self.scores[keep]


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

    One split of the joined, lowercased lines gives every cell; the cells
    are stripped, the score cells read by ``float``, and the word cells
    encoded against their sorted distinct words.  Each pair is ordered by
    its smaller and larger id, as the loop's ``a <= b`` orders it, since id
    order is word order.  A file with no line, a line with other than two
    tabs, a score ``float`` rejects or that is not finite, an empty word (it
    sorts first) or a repeated unordered pair (equal neighbours among the
    sorted pair codes) returns None: the loop skips a header, splits other
    separators, averages repeats and names the bad line.
    """
    lines = list(filter(None, map(str.strip, text.split("\n"))))
    if not lines or set(map(str.count, lines, repeat("\t"))) != {2}:
        return None
    cells = list(map(str.strip, "\t".join(lines).lower().split("\t")))
    try:
        scores = np.fromiter(map(float, cells[2::3]), dtype=float, count=len(lines))
    except ValueError:
        return None
    if not np.isfinite(scores).all():
        return None
    scores += 0.0  # -0.0 to 0.0: the loop averages with fsum, and fsum([-0.0]) is 0.0
    vocab, ids = _token_ids([cells[0::3], cells[1::3]])
    a, b = ids.reshape(2, -1)
    if vocab[0] == "":
        return None
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    codes = lo * len(vocab) + hi
    codes.sort()
    if (codes[1:] == codes[:-1]).any():
        return None
    return WordSimDataset._from_ids(vocab, np.stack((lo, hi), axis=1), scores)


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
    sims, touched = _pair_cosines(np.array([u, v], dtype=float), np.array([0]), np.array([1]))
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
    near = np.flatnonzero(sims > 0.5)  # identical nonzero rows, and no zero row, among them
    sims[near[(coords[ia[near]] == coords[ib[near]]).all(axis=1)]] = 1.0
    return sims, int(np.count_nonzero(zero[ia] | zero[ib]))


def _ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; each run of equal values shares the mean of its ranks."""
    order = np.argsort(x)  # not stable: the members of a run share one rank
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
    n = len(x)
    # twice each rank's deviation from the mean rank (n + 1) / 2: an integer of
    # magnitude at most n - 1, so a block of (2^63 - 1) // (n - 1)^2 products
    # sums in int64 exactly
    dx, dy = ((2.0 * _ranks(v) - (n + 1)).astype(np.int64) for v in (x, y))
    block = (2**63 - 1) // (n - 1) ** 2
    sxy, sxx, syy = (_int_dot(a, b, block) / 4 for a, b in ((dx, dy), (dx, dx), (dy, dy)))
    return sxy / math.sqrt(sxx * syy)


def _int_dot(a: np.ndarray, b: np.ndarray, block: int) -> int:
    """The dot product of two int64 arrays as a Python int: int64 sums of ``block``
    terms each, which the caller keeps short enough not to overflow, added exactly.

    :func:`spearman` divides each such sum by 4, which rounds it once, as
    ``math.fsum`` rounds the sum of the half-integer deviations' products.
    """
    return sum(int(a[i:i + block] @ b[i:i + block]) for i in range(0, len(a), block))


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
