"""Text ingestion: tokenization, vocabulary, windowed co-occurrence counting.

Counting uses a fixed symmetric window over token positions.  Words below
the frequency threshold stay in place but are masked out, so removing rare
words never creates new adjacencies; every retained count can only shrink
as the threshold rises.
"""

from __future__ import annotations

import logging
import string
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .tables import ContingencyTable

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
    range, the (word_i, word_{i+d}) cell is incremented, provided both
    tokens survive the vocabulary filter.  Rows and columns share the
    sorted vocabulary.

    Tokens are mapped to vocabulary ids once, with -1 for filtered words.
    For each forward offset d the pairs (ids[i], ids[i+d]) are encoded as
    flat cell indices ``ids[i] * V + ids[i+d]``, pairs with a filtered side
    are dropped, and ``np.bincount`` adds them into one V*V int64
    accumulator.  Adding the transpose once at the end counts the backward
    offsets and doubles the diagonal, exactly as incrementing both (a, b)
    and (b, a) per pair does.  Offsets are accumulated one at a time, so
    memory beyond the token ids is the accumulator plus one offset's codes
    and bincount (O(len(tokens) + V^2)), not the codes of every offset at
    once.
    """
    tokens = list(tokens)
    if not tokens:
        raise ValueError("token stream is empty")
    freq = Counter(tokens)
    vocab = {w for w, count in freq.items() if count >= cfg.min_count}
    if cfg.max_vocab is not None and len(vocab) > cfg.max_vocab:
        ranked = sorted(vocab, key=lambda w: (-freq[w], w))
        vocab = set(ranked[: cfg.max_vocab])
    if not vocab:
        raise ValueError("vocabulary is empty after filtering")
    labels = sorted(vocab)
    index = {w: i for i, w in enumerate(labels)}
    ids = np.fromiter(map(index.get, tokens, repeat(-1)), dtype=np.int64, count=len(tokens))
    counts = _window_counts(ids, len(labels), cfg.window, masked=len(vocab) < len(freq))
    if counts.sum() == 0:
        raise ValueError("no co-occurrence pairs within the window")
    return ContingencyTable.from_counts(counts, labels, labels)


def _window_counts(ids: np.ndarray, V: int, window: int, masked: bool) -> np.ndarray:
    """Symmetric V x V float counts of id pairs at offsets 1..window (see above)."""
    acc = np.zeros(V * V, dtype=np.int64)
    for d in range(1, min(window, len(ids) - 1) + 1):
        left, right = ids[:-d], ids[d:]
        code = left * V + right
        if masked:
            code = code[(left >= 0) & (right >= 0)]
        acc += np.bincount(code, minlength=V * V)
    acc = acc.reshape(V, V)
    return np.add(acc, acc.T, dtype=float)


def slice_tokens(tokens, percent: float) -> list[str]:
    """First ``percent`` % of the token stream (floor)."""
    if not 0 < percent <= 100:
        raise ValueError(f"slice percentage must be in (0, 100], got {percent}")
    tokens = list(tokens)
    return tokens[: int(len(tokens) * percent / 100.0)]


def load_stopwords(path) -> set[str]:
    """Newline-delimited UTF-8 word list; duplicates collapse into the set.

    A byte-order mark at the start of the file is not part of the first word.
    """
    with open(path, encoding="utf-8-sig") as fh:
        words = {line.strip() for line in fh if line.strip()}
    if not words:
        logger.warning("stop-word file %s is empty", path)
    return words
