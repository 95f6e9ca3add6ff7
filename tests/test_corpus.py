"""Tokenization and windowed co-occurrence counting."""

import itertools
from collections import Counter

import numpy as np
import pytest

from cakit import corpus
from cakit.cli import main
from cakit.corpus import (
    CooccurrenceConfig,
    count_cooccurrences,
    load_stopwords,
    slice_tokens,
    tokenize,
)
from cakit.datasets import bundled_stopwords_path
from cakit.tables import ContingencyTable, write_tsv


class TestTokenize:
    def test_plain_words(self):
        assert tokenize("a b a") == ["a", "b", "a"]

    def test_empty(self):
        assert tokenize("") == []

    def test_lowercase_and_punctuation(self):
        assert tokenize("A b.") == ["a", "b"]

    def test_case_preserved_when_disabled(self):
        assert tokenize("A b.", lowercase=False) == ["A", "b"]

    def test_punctuation_separates(self):
        assert tokenize("one,two;three") == ["one", "two", "three"]


def pair_total(L, w):
    """Number of in-range (position, offset) pairs for a fully retained stream."""
    return sum(
        1 for i in range(L) for d in range(-w, w + 1) if d != 0 and 0 <= i + d < L
    )


def loop_count_cooccurrences(tokens, cfg):
    """Per-position reference counter: increments both (a, b) and (b, a) per pair."""
    freq = Counter(tokens)
    vocab = {w for w, count in freq.items() if count >= cfg.min_count}
    if cfg.max_vocab is not None and len(vocab) > cfg.max_vocab:
        vocab = set(sorted(vocab, key=lambda w: (-freq[w], w))[: cfg.max_vocab])
    labels = sorted(vocab)
    index = {w: i for i, w in enumerate(labels)}
    ids = [index.get(tok, -1) for tok in tokens]
    counts = np.zeros((len(labels), len(labels)))
    for i, wi in enumerate(ids):
        if wi < 0:
            continue
        for j in range(i + 1, min(i + cfg.window + 1, len(ids))):
            wj = ids[j]
            if wj < 0:
                continue
            counts[wi, wj] += 1.0
            counts[wj, wi] += 1.0
    return ContingencyTable.from_counts(counts, labels, labels)


class TestMatchesLoopReference:
    """The vectorised counter equals the per-position loop exactly."""

    def assert_same(self, tokens, cfg):
        got = count_cooccurrences(tokens, cfg)
        want = loop_count_cooccurrences(tokens, cfg)
        assert got.row_labels == want.row_labels
        assert got.col_labels == want.col_labels
        np.testing.assert_array_equal(got.counts, want.counts)

    def test_zipf_streams_across_windows(self):
        rng = np.random.default_rng(211)
        for w in (1, 2, 3, 5):
            tokens = [f"w{r}" for r in rng.zipf(1.3, size=600) % 40]
            self.assert_same(tokens, CooccurrenceConfig(window=w))

    def test_min_count_masking(self):
        rng = np.random.default_rng(223)
        tokens = [f"w{r}" for r in rng.zipf(1.2, size=800) % 60]
        for mc in (2, 5, 20):
            self.assert_same(tokens, CooccurrenceConfig(window=3, min_count=mc))

    def test_max_vocab(self):
        rng = np.random.default_rng(227)
        tokens = [f"w{r}" for r in rng.integers(0, 30, size=500)]
        for mv in (1, 4, 17):
            self.assert_same(tokens, CooccurrenceConfig(window=2, max_vocab=mv))
        self.assert_same(tokens, CooccurrenceConfig(window=2, min_count=15, max_vocab=10))

    def test_window_at_least_stream_length(self):
        rng = np.random.default_rng(229)
        for L in (2, 3, 7):
            tokens = [f"w{r}" for r in rng.integers(0, 3, size=L)]
            for w in (L - 1, L, L + 4):
                self.assert_same(tokens, CooccurrenceConfig(window=w))

    def test_repeated_adjacent_tokens_fill_the_diagonal(self):
        rng = np.random.default_rng(233)
        runs = np.repeat(rng.integers(0, 5, size=60), rng.integers(1, 6, size=60))
        tokens = [f"w{r}" for r in runs]
        for w in (1, 2, 4):
            self.assert_same(tokens, CooccurrenceConfig(window=w))
        t = count_cooccurrences(["a", "a", "a"], CooccurrenceConfig(window=2))
        np.testing.assert_array_equal(t.counts, [[6]])

    # dropped words count into a sink row and column one past the kept words
    @pytest.mark.parametrize("tokens, cfg", [
        pytest.param("x a b c a b c a b y".split(), CooccurrenceConfig(window=2, min_count=2),
                     id="dropped first and last token"),
        pytest.param("a b x y c a b c x y a c b".split(),
                     CooccurrenceConfig(window=3, min_count=3),
                     id="two dropped words side by side"),
        pytest.param("a a b c a d a a e a".split(), CooccurrenceConfig(window=2, min_count=2),
                     id="every word but one dropped"),
        pytest.param("c d a b e c a c b d c e a c f".split(),
                     CooccurrenceConfig(window=2, min_count=2, max_vocab=3),
                     id="min_count and max_vocab"),
    ])
    def test_dropped_words(self, tokens, cfg):
        kept = count_cooccurrences(tokens, cfg).row_labels
        assert 0 < len(kept) < len(set(tokens))
        self.assert_same(tokens, cfg)


class TestVocabulary:
    """The filters, label order and inputs of the one-lookup-per-token count."""

    assert_same = TestMatchesLoopReference.assert_same

    def test_ties_at_the_max_vocab_cut_keep_word_order(self):
        # frequencies: e 5, then a, b and d 3 each, then c 2 and f 1
        tokens = list("ebdaebdaebdaeecfc")
        for mv, kept in [(1, "e"), (2, "ae"), (3, "abe"), (4, "abde"), (5, "abcde")]:
            t = count_cooccurrences(tokens, CooccurrenceConfig(window=2, max_vocab=mv))
            assert t.row_labels == tuple(kept), mv
            self.assert_same(tokens, CooccurrenceConfig(window=2, max_vocab=mv))
        rng = np.random.default_rng(241)
        tokens = [f"w{r}" for r in rng.permutation(np.repeat(np.arange(12), 4))]  # all tied
        for mv in (1, 5, 11):  # a window over the whole stream pairs every kept word
            t = count_cooccurrences(tokens, CooccurrenceConfig(window=48, max_vocab=mv))
            assert t.row_labels == tuple(sorted(set(tokens)))[:mv]
            self.assert_same(tokens, CooccurrenceConfig(window=48, max_vocab=mv))

    def test_min_count_leaving_fewer_types_than_max_vocab(self):
        rng = np.random.default_rng(251)
        tokens = [f"w{r}" for r in rng.zipf(1.4, size=700) % 50]
        freq = Counter(tokens)
        cfg = CooccurrenceConfig(window=2, min_count=10, max_vocab=40)
        t = count_cooccurrences(tokens, cfg)
        assert t.row_labels == tuple(sorted(w for w, c in freq.items() if c >= 10))
        assert len(t.row_labels) < 40
        self.assert_same(tokens, cfg)

    def test_every_type_filtered_keeps_the_error_text(self):
        with pytest.raises(ValueError) as info:
            count_cooccurrences(["a", "b", "a"], CooccurrenceConfig(min_count=3))
        assert str(info.value) == "vocabulary is empty after filtering"
        with pytest.raises(ValueError) as info:
            count_cooccurrences([], CooccurrenceConfig())
        assert str(info.value) == "token stream is empty"
        with pytest.raises(ValueError) as info:  # one kept word, never next to itself
            count_cooccurrences(["a", "b", "a"], CooccurrenceConfig(window=1, min_count=2))
        assert str(info.value) == "no co-occurrence pairs within the window"

    def test_case_distinct_and_non_ascii_labels_in_str_order(self):
        words = ["b", "B", "a", "A", "é", "E", "z", "Ω", "ω", "日本", "straße", "STRASSE", "İ"]
        rng = np.random.default_rng(257)
        tokens = [words[i] for i in rng.integers(0, len(words), size=400)]
        for cfg in (CooccurrenceConfig(window=2), CooccurrenceConfig(window=3, max_vocab=6)):
            t = count_cooccurrences(tokens, cfg)
            assert list(t.row_labels) == sorted(t.row_labels)
            self.assert_same(tokens, cfg)
        assert count_cooccurrences(tokens, CooccurrenceConfig()).row_labels == tuple(sorted(words))

    def test_generator_and_tuple_inputs_count_like_a_list(self):
        rng = np.random.default_rng(263)
        tokens = [f"w{r}" for r in rng.integers(0, 9, size=200)]
        cfg = CooccurrenceConfig(window=2, min_count=20)
        want = count_cooccurrences(tokens, cfg)
        for given in (tuple(tokens), iter(tokens), (tok for tok in tokens)):
            got = count_cooccurrences(given, cfg)
            assert got.row_labels == want.row_labels
            np.testing.assert_array_equal(got.counts, want.counts)
        for given in (tuple(tokens), iter(tokens)):
            assert slice_tokens(given, 30) == tokens[:60]

    def test_the_callers_list_is_left_unchanged(self):
        tokens = ["b", "a", "c", "a", "b", "x"]
        count_cooccurrences(tokens, CooccurrenceConfig(window=2, min_count=2, max_vocab=1))
        assert tokens == ["b", "a", "c", "a", "b", "x"]
        head = slice_tokens(tokens, 50)
        head.append("y")
        assert tokens == ["b", "a", "c", "a", "b", "x"]


class TestCountCooccurrences:
    def test_three_token_window_one(self):
        t = count_cooccurrences(["a", "b", "a"], CooccurrenceConfig(window=1))
        assert t.row_labels == ("a", "b")
        np.testing.assert_array_equal(t.counts, [[0, 2], [2, 0]])
        assert t.n == 4

    def test_single_token_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            count_cooccurrences(["a"], CooccurrenceConfig(window=1))

    def test_window_clipped_at_bounds(self):
        t = count_cooccurrences(["a", "b"], CooccurrenceConfig(window=5))
        np.testing.assert_array_equal(t.counts, [[0, 1], [1, 0]])
        assert t.n == 2

    def test_table_is_symmetric(self):
        rng = np.random.default_rng(139)
        tokens = [f"w{rng.integers(6)}" for _ in range(400)]
        t = count_cooccurrences(tokens, CooccurrenceConfig(window=3))
        np.testing.assert_array_equal(t.counts, t.counts.T)

    def test_total_matches_position_offset_count(self):
        rng = np.random.default_rng(149)
        for L, w in [(2, 1), (5, 2), (40, 3), (7, 10)]:
            tokens = [f"w{rng.integers(4)}" for _ in range(L)]
            t = count_cooccurrences(tokens, CooccurrenceConfig(window=w))
            assert t.n == pair_total(L, w)

    def test_raising_min_count_never_increases_counts(self):
        rng = np.random.default_rng(151)
        tokens = [f"w{rng.integers(8)}" for _ in range(300)]
        previous = None
        for mc in (0, 3, 10, 25):
            try:
                t = count_cooccurrences(
                    tokens, CooccurrenceConfig(window=2, min_count=mc)
                )
            except ValueError:
                break  # vocabulary emptied out; nothing left to compare
            table = {
                (a, b): t.counts[i, j]
                for i, a in enumerate(t.row_labels)
                for j, b in enumerate(t.col_labels)
            }
            if previous is not None:
                for key, count in table.items():
                    assert count <= previous.get(key, 0.0)
            previous = table

    def test_dropping_a_token_does_not_join_its_neighbors(self):
        # "x" is rare; masking it must not make a/b adjacent
        tokens = ["a", "x", "b"] + ["a", "a", "b", "b"] * 3
        t = count_cooccurrences(tokens, CooccurrenceConfig(window=1, min_count=2))
        ia = t.row_labels.index("a")
        ib = t.row_labels.index("b")
        t_all = count_cooccurrences(tokens, CooccurrenceConfig(window=1, min_count=0))
        ja = t_all.row_labels.index("a")
        jb = t_all.row_labels.index("b")
        assert t.counts[ia, ib] == t_all.counts[ja, jb]

    def test_max_vocab_keeps_most_frequent(self):
        tokens = ["a"] * 10 + ["b"] * 5 + ["c"] * 2 + ["a", "b", "a", "c"]
        t = count_cooccurrences(
            tokens, CooccurrenceConfig(window=2, max_vocab=2)
        )
        assert set(t.row_labels) == {"a", "b"}

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            CooccurrenceConfig(window=0)

    @pytest.mark.parametrize("max_vocab", [0, -1])
    def test_max_vocab_must_be_positive(self, max_vocab):
        # -1 used to slice off only the least frequent word
        with pytest.raises(ValueError, match=f"max_vocab must be >= 1, got {max_vocab}"):
            CooccurrenceConfig(max_vocab=max_vocab)


class TestSliceTokens:
    def test_first_fifth(self):
        tokens = [str(i) for i in range(10)]
        assert slice_tokens(tokens, 20) == ["0", "1"]

    def test_full_slice(self):
        tokens = ["a", "b"]
        assert slice_tokens(tokens, 100) == tokens

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="percentage"):
            slice_tokens(["a"], 0)
        with pytest.raises(ValueError, match="percentage"):
            slice_tokens(["a"], 150)


# Texts whose tokens, counts and stderr must not depend on where a chunk ends:
# Greek capital sigma, which lowers to final ς at a word's end, soft hyphens
# (case-ignorable) before it, CRLF line ends, punctuation glued to words, and
# U+3000 and \x1c, which str.split splits on.
CHUNK_TEXTS = {
    "final-sigma": "ΟΔΟΣ ΑΣ\nΣΑ ΟΔΟΣ Σ ΑΣ\u00adΣ ΑΣ.\nΑ\u00ad\u00adΣ ΟΔΟΣ\n" * 3,
    "crlf": "one two\r\nthree one\r\n\r\ntwo three one\r\ntwo\r\n" * 3,
    "punctuation": "one,two. three;one!\n(two) three--one two's.\nthree...one\n" * 3,
    "unicode-separators": "one\u3000two\x1cthree one\u3000\u3000two\x1c\nthree one\x1ctwo" * 3,
}


class TestChunkedCount:
    """``cakit count`` reads a text a chunk at a time; the cut never shows."""

    @pytest.fixture(autouse=True)
    def streams(self, tmp_path, capsys, caplog):
        self.tmp_path, self.capsys, self.caplog = tmp_path, capsys, caplog

    def token_list_count(self, text, window=2, min_count=0, percent=None, keep_case=False):
        """What ``cakit count`` made of ``text`` when it tokenized the whole text
        into one token list: the tokens, the table file's bytes, and the stderr
        line after any logged warning."""
        self.caplog.clear()
        tokens = tokenize(text, lowercase=not keep_case)
        if percent is not None:
            tokens = slice_tokens(tokens, percent)
        t = count_cooccurrences(tokens, CooccurrenceConfig(window=window, min_count=min_count))
        write_tsv(t, self.tmp_path / "ref.tsv")
        return tokens, (self.tmp_path / "ref.tsv").read_bytes(), self.caplog.text + (
            f"counted {int(t.n)} pairs over {len(t.row_labels)} words "
            f"(window={window}, min_count={min_count})\n")

    def count_in_chunks(self, text, args):
        """The table file's bytes and the stderr of ``cakit count``, logged warnings first."""
        path, out = self.tmp_path / "c.txt", self.tmp_path / "chunked.tsv"
        path.write_bytes(text.encode("utf-8"))
        self.caplog.clear()
        assert main(["count", str(path), *args, "--out", str(out)]) == 0
        return out.read_bytes(), self.caplog.text + self.capsys.readouterr().err

    @pytest.mark.parametrize("name", list(CHUNK_TEXTS))
    @pytest.mark.parametrize("keep_case", [False, True])
    def test_every_cut_counts_as_the_token_list(self, monkeypatch, name, keep_case):
        text = CHUNK_TEXTS[name]
        tokens, table, err = self.token_list_count(text, keep_case=keep_case)
        args = ["--window", "2", *(["--keep-case"] if keep_case else [])]
        cut_after = set()
        for size in range(1, 24):  # a cut at every whitespace character of the first lines
            monkeypatch.setattr(corpus, "_CHUNK", size)
            chunks = list(corpus._chunks(text))
            assert "".join(chunks) == text and len(chunks) > 3, size
            cut_after.update(chunk[-1] for chunk in chunks[:-1])
            chunked = itertools.chain.from_iterable(
                tokenize(chunk, lowercase=not keep_case) for chunk in chunks)
            assert list(chunked) == tokens, size
            assert self.count_in_chunks(text, args) == (table, err), size
        assert cut_after == set(filter(str.isspace, text))  # \r of \r\n, U+3000 and \x1c too

    def test_text_without_whitespace_is_one_chunk(self, monkeypatch):
        text = "one,two.three;one!two(three)one--two" * 5
        monkeypatch.setattr(corpus, "_CHUNK", 3)
        assert list(corpus._chunks(text)) == [text]
        _, table, err = self.token_list_count(text)
        assert self.count_in_chunks(text, ["--window", "2"]) == (table, err)

    @pytest.mark.parametrize("args", [
        dict(window=2, min_count=20, percent=40.0),  # a slice, then min_count
        dict(window=3, min_count=0, percent=7.5),  # a slice that leaves words out
        dict(window=2, min_count=50),
        dict(window=3, min_count=400),
    ], ids=["slice-min-count", "slice", "min-count-50", "min-count-400"])
    def test_slice_and_min_count_count_as_the_token_list(self, monkeypatch, args):
        rng = np.random.default_rng(281)
        words = np.array([f"W{i}," if i % 7 == 0 else f"w{i}" for i in range(60)])
        text = " ".join(words[rng.zipf(1.3, size=6000) % 60]) + "\r\n"
        _, table, err = self.token_list_count(text, **args)
        flags = ["--window", str(args["window"]), "--min-count", str(args["min_count"])]
        if "percent" in args:
            flags += ["--slice", str(args["percent"])]
        for size in (1, 97, 4096, len(text)):
            monkeypatch.setattr(corpus, "_CHUNK", size)
            assert self.count_in_chunks(text, flags) == (table, err), size
        kept = int(err.split(" over ")[1].split()[0])  # the filters keep some words only
        assert 0 < kept < len(set(tokenize(text))), err

    def test_slice_vocabulary_is_the_words_the_slice_holds(self):
        # c and d, which the slice leaves out, are no words of the table: no
        # zero-marginal category is dropped with a logged warning
        text = "a b a b a b c d c d\n"
        _, table, err = self.token_list_count(text, window=1, percent=60)
        assert err == "counted 10 pairs over 2 words (window=1, min_count=0)\n"
        assert self.count_in_chunks(text, ["--window", "1", "--slice", "60"]) == (table, err)

    def test_empty_text_and_empty_slice_keep_their_errors(self):
        path = self.tmp_path / "c.txt"
        for text, flags in (("", []), (" \r\n\t", []), ("a b c\n", ["--slice", "10"])):
            path.write_text(text, encoding="utf-8")
            assert main(["count", str(path), *flags, "--out", str(self.tmp_path / "t.tsv")]) == 1
            assert self.capsys.readouterr().err == "error: token stream is empty\n"


class TestLoadStopwords:
    def test_basic_list(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("the\nof\n")
        assert load_stopwords(path) == {"the", "of"}

    def test_duplicates_collapse(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("the\nthe\nof\n")
        assert load_stopwords(path) == {"the", "of"}

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("the\nof\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_stopwords(path) == {"the", "of"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_stopwords(tmp_path / "nope.txt")

    def test_empty_file_is_the_empty_set_and_logs_nothing(self, tmp_path, caplog):
        path = tmp_path / "sw.txt"
        path.write_text("\n\n")
        import logging

        with caplog.at_level(logging.DEBUG):
            assert load_stopwords(path) == set()
        assert not caplog.records

    def test_bundled_list_is_loadable(self):
        words = load_stopwords(bundled_stopwords_path())
        assert "the" in words
        assert len(words) > 100


@pytest.mark.parametrize("min_count", [-1, -7])
def test_negative_min_count_rejected(min_count):
    with pytest.raises(ValueError, match=f"^min_count must be >= 0, got {min_count}$"):
        CooccurrenceConfig(min_count=min_count)
