"""Text ingestion: tokenization, vocabulary, windowed co-occurrence counting.

Counting uses a fixed symmetric window over token positions.  Words below
the frequency threshold stay in place, counted into a sink category that is
cut off, so removing rare words never creates new adjacencies; every
retained count can only shrink as the threshold rises.
"""

from __future__ import annotations

import logging
import string
from dataclasses import dataclass

import numpy as np

from .tables import ContingencyTable, _read_text

logger = logging.getLogger(__name__)

_PUNCT_TO_SPACE = str.maketrans({ch: " " for ch in string.punctuation})


@dataclass(frozen=True)
class CooccurrenceConfig:
    window: int = 2
    min_count: int = 0
    max_vocab: int | None = None

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.min_count < 0:
            raise ValueError(f"min_count must be >= 0, got {self.min_count}")
        if self.max_vocab is not None and self.max_vocab < 1:
            raise ValueError(f"max_vocab must be >= 1, got {self.max_vocab}")


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    """Split on whitespace after mapping punctuation to spaces."""
    if lowercase:
        text = text.lower()
    return text.translate(_PUNCT_TO_SPACE).split()


def count_cooccurrences(tokens, cfg: CooccurrenceConfig) -> ContingencyTable:
    """Count word/context pairs within the symmetric window into a square table.

    For every position i and offset d with 1 <= |d| <= window and i+d in
    range, the (word_i, word_{i+d}) cell is incremented if both tokens pass
    the vocabulary filter.  Rows and columns share the sorted vocabulary.

    Each token is looked up once, in a dict of the sorted distinct words,
    and the frequencies are the bincount of those ids.  ``min_count``, then
    ``max_vocab`` (most frequent first, ties in word order), drop words; one
    int array remaps the ids, V (one past the last kept word) for a dropped
    word.  :func:`_window_counts` counts every pair, the dropped ones into
    row and column V, which it cuts off.  Memory beyond the ids is
    O(len(tokens) + V^2).  A list is read as given.
    """
    tokens = tokens if isinstance(tokens, list) else list(tokens)
    if not tokens:
        raise ValueError("token stream is empty")
    types = sorted(set(tokens))
    index = dict(zip(types, range(len(types))))
    ids = np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens))
    freq = np.bincount(ids, minlength=len(types))
    keep = freq >= cfg.min_count
    if cfg.max_vocab is not None and keep.sum() > cfg.max_vocab:  # kept words rank first
        keep[np.argsort(-freq, kind="stable")[cfg.max_vocab:]] = False  # ties in word order
    if not keep.any():
        raise ValueError("vocabulary is empty after filtering")
    labels = [word for word, kept in zip(types, keep.tolist()) if kept]
    if len(labels) < len(types):
        ids = np.where(keep, np.cumsum(keep) - 1, len(labels))[ids]
    counts = _window_counts(ids, len(labels), cfg.window)
    if counts.sum() == 0:
        raise ValueError("no co-occurrence pairs within the window")
    return ContingencyTable(counts, labels, labels)


def _window_counts(ids: np.ndarray, V: int, window: int) -> np.ndarray:
    """Symmetric V x V float counts of id pairs at offsets 1..window; id V is cut off.

    Per forward offset d, the bincount of the codes ``ids[i] * (V+1) +
    ids[i+d]`` is added into the first offset's (V+1) x (V+1) accumulator.
    Row and column V, the pairs with a dropped word on either side, are cut
    off, and adding the transpose counts the backward offsets and doubles
    the diagonal.
    """
    W = V + 1

    def offset_counts(d):
        return np.bincount(ids[:-d] * W + ids[d:], minlength=W * W)

    acc = offset_counts(1)  # the accumulator; a one-token stream has no pair here either
    for d in range(2, min(window, len(ids) - 1) + 1):
        acc += offset_counts(d)
    acc = acc.reshape(W, W)[:V, :V]
    return np.add(acc, acc.T, dtype=float)


def slice_tokens(tokens, percent: float) -> list[str]:
    """First ``percent`` % of the token stream (floor)."""
    if not 0 < percent <= 100:
        raise ValueError(f"slice percentage must be in (0, 100], got {percent}")
    tokens = tokens if isinstance(tokens, list) else list(tokens)
    return tokens[: int(len(tokens) * percent / 100.0)]


def load_stopwords(path) -> set[str]:
    """Newline-delimited UTF-8 word list; duplicates collapse into the set.

    A byte-order mark at the start of the file is not part of the first word.
    """
    words = {word for word in map(str.strip, _read_text(path).split("\n")) if word}
    if not words:
        logger.warning("stop-word file %s is empty", path)
    return words
