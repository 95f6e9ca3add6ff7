"""Text ingestion: tokenization, vocabulary, windowed co-occurrence counting.

Every count goes through one id step (:func:`_token_ids`, which also
encodes the words of a pair file): the tokens are looked up in one growing
dict, a list of them at a time, and the ids are remapped once to
sorted-vocabulary order.  :func:`count_cooccurrences` takes its token list
as one such list.  ``cakit count`` reads a text a
chunk at a time (:func:`_count_text`): each chunk ends at a whitespace
character, so no token spans two chunks, and lowercasing sees every word
in the same context as in the whole text; only one chunk's tokens exist as
strings at once.

Counting uses a fixed symmetric window over token positions.  Words below
the frequency threshold stay in place, counted into a sink category that is
cut off, so removing rare words never creates new adjacencies; every
retained count can only shrink as the threshold rises.
"""

from __future__ import annotations

import itertools
import re
import string
from dataclasses import dataclass

import numpy as np

from .tables import ContingencyTable, _read_text

_PUNCT_TO_SPACE = str.maketrans({ch: " " for ch in string.punctuation})
_CHUNK = 1 << 18  # characters of text per chunk, before the cut at whitespace


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

    The tokens take the id step of the module docstring as one list, and
    :func:`_count_ids` counts the ids.  A list is read as given.
    """
    tokens = tokens if isinstance(tokens, list) else list(tokens)
    return _count_ids(*_token_ids([tokens]), cfg)


def _count_text(text: str, cfg: CooccurrenceConfig, lowercase: bool = True,
                percent: float | None = None) -> ContingencyTable:
    """The table of ``count_cooccurrences(tokenize(text, lowercase), cfg)``, a chunk at a time.

    Each chunk of :func:`_chunks` is tokenized on its own, and the chunks
    share the id step.  ``percent`` keeps the first ``percent`` % of the
    ids, as :func:`slice_tokens` cuts a token list, so the vocabulary is the
    words of the slice before ``min_count`` filters it.
    """
    types, ids = _token_ids(tokenize(chunk, lowercase) for chunk in _chunks(text))
    if percent is not None:
        ids = slice_tokens(ids, percent)
    return _count_ids(types, ids, cfg)


def _chunks(text: str):
    """Consecutive pieces of ``text``, each cut just after the first ``str.isspace``
    character at least ``_CHUNK`` characters past its start; a text with no such
    character past that point ends the last piece."""
    space = re.compile(r"\s")  # a str pattern's \s is str.isspace
    start = 0
    while start < len(text):
        cut = space.search(text, start + _CHUNK)
        end = cut.end() if cut else len(text)
        yield text[start:end]
        start = end


def _token_ids(token_lists) -> tuple[list[str], np.ndarray]:
    """The sorted distinct tokens of the lists, and the index of every token in them.

    Each list's new words join one dict, numbered in the order they join;
    each list becomes one int32 array through it, and one gather maps the
    concatenated ids to sorted-vocabulary order.
    """
    index: dict[str, int] = {}
    parts = [np.empty(0, np.int32)]  # an empty text has no list
    for tokens in token_lists:
        index.update(zip(set(tokens).difference(index), itertools.count(len(index))))
        parts.append(np.fromiter(map(index.__getitem__, tokens), np.int32, len(tokens)))
    types = sorted(index)
    rank = np.empty(len(types), np.intp)
    rank[np.fromiter(map(index.__getitem__, types), np.intp, len(types))] = np.arange(len(types))
    return types, rank[np.concatenate(parts)]


def _count_ids(types: list[str], ids: np.ndarray, cfg: CooccurrenceConfig) -> ContingencyTable:
    """The table of :func:`count_cooccurrences` from the sorted ``types`` and the token ids.

    The frequencies are the bincount of the ids.  A word with none (left
    out of a slice), then ``min_count``, then ``max_vocab`` (most frequent
    first, ties in word order), drop words; one int array remaps the ids,
    V (one past the last kept word) for a dropped word.
    :func:`_window_counts` counts every pair, the dropped ones into row and
    column V, which it cuts off.  Memory beyond the ids is O(V^2).
    """
    if not len(ids):
        raise ValueError("token stream is empty")
    freq = np.bincount(ids, minlength=len(types))
    keep = freq >= max(cfg.min_count, 1)
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


def slice_tokens(tokens, percent: float):
    """First ``percent`` % (floor) of a token list or id array; other iterables become a list."""
    if not 0 < percent <= 100:
        raise ValueError(f"slice percentage must be in (0, 100], got {percent}")
    tokens = tokens if isinstance(tokens, (list, np.ndarray)) else list(tokens)
    return tokens[: int(len(tokens) * percent / 100.0)]


def load_stopwords(path) -> set[str]:
    """Newline-delimited UTF-8 word list; duplicates collapse into the set.

    A byte-order mark at the start of the file is not part of the first word.
    An empty file gives the empty set; the caller decides whether that is an
    error, as ``cakit fit`` does when no stop word is a label.
    """
    return {word for word in map(str.strip, _read_text(path).split("\n")) if word}
