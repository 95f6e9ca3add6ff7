"""Dataset parsing, the pair lookup, cosine similarity, and rank correlation."""

import gc
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from cakit import evaluation, tables
from cakit.ca import EmbeddingSet
from cakit.cli import main
from cakit.evaluation import (
    EvalReport,
    WordSimDataset,
    _int_dot,
    _ranks,
    _split_line,
    _tab_columns,
    cosine,
    evaluate,
    load_wordsim,
    spearman,
)
from cakit.kca import build_gamma, fit_kca, method_from_name
from cakit.tables import ContingencyTable


# The per-pair loop and sort-based ranking that evaluate and spearman
# replaced, kept as the exact reference for the vectorised code.
def reference_average_ranks(xs) -> list[float]:
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0  # ranks are 1-based
        for idx in order[i : j + 1]:
            ranks[idx] = avg
        i = j + 1
    return ranks


def reference_spearman(xs, ys) -> float:
    rx = reference_average_ranks(xs)
    ry = reference_average_ranks(ys)
    mean = (len(xs) + 1) / 2.0
    dx = [r - mean for r in rx]
    dy = [r - mean for r in ry]
    num = math.fsum(a * b for a, b in zip(dx, dy))
    den = math.sqrt(math.fsum(a * a for a in dx) * math.fsum(b * b for b in dy))
    return num / den


def reference_evaluate(e, which, d) -> EvalReport:
    labels, coords = e.coordinates(which)
    index = {lbl: i for i, lbl in enumerate(labels)}
    sims, human, skipped, zero = [], [], 0, 0
    for a, b, score in d.triples:
        if a not in index or b not in index:
            skipped += 1
            continue
        u, v = coords[index[a]], coords[index[b]]
        sims.append(cosine(u, v))
        human.append(score)
        zero += not (u.any() and v.any())
    return EvalReport(reference_spearman(sims, human), len(sims), skipped, zero)


# The per-line loop load_wordsim ran before it parsed a tab file whole,
# kept as the reference for every file: the same pairs in the same order
# with bit-equal scores, and the same error text.
def reference_load_wordsim(path) -> WordSimDataset:
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
            if not (cells[0] and cells[1]):
                raise ValueError(f"{path}:{lineno}: empty word")
            a, b = cells[0].lower(), cells[1].lower()
            scores.setdefault((a, b) if a <= b else (b, a), []).append(value)
    if not scores:
        raise ValueError(f"no usable lines in {path}")
    return WordSimDataset(tuple((a, b, math.fsum(vs) / len(vs))
                                for (a, b), vs in scores.items()))


class TestLoadWordsim:
    def test_space_separated(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("movie theater 7.92\n")
        d = load_wordsim(path)
        assert d.triples == (("movie", "theater", 7.92),)

    def test_tab_and_comma(self, tmp_path):
        for sep in ("\t", ","):
            path = tmp_path / "ws.txt"
            path.write_text(f"cat{sep}dog{sep}5.0\nsun{sep}moon{sep}3.5\n")
            d = load_wordsim(path)
            assert len(d) == 2
            assert d.triples[0] == ("cat", "dog", 5.0)

    def test_duplicate_unordered_pairs_averaged(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("cat dog 4\ndog cat 6\n")
        d = load_wordsim(path)
        assert d.triples == (("cat", "dog", 5.0),)

    def test_words_lowercased(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("Cat DOG 4\n")
        assert d0(load_wordsim(path)) == ("cat", "dog")

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "ws.csv"
        path.write_text("Word 1,Word 2,Human (mean)\ncat,dog,5\n")
        d = load_wordsim(path)
        assert d.triples == (("cat", "dog", 5.0),)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("cat dog 5\nbird fish notanumber\n")
        with pytest.raises(ValueError, match=":2"):
            load_wordsim(path)

    @pytest.mark.parametrize("line", ["cat\t\t5", "cat\t \t5", "cat,,5", " , cat,5"])
    def test_empty_word_on_either_side_rejected(self, tmp_path, line):
        path = tmp_path / "ws.txt"
        path.write_text(f"sun\tmoon\t3\n{line}\n")
        with pytest.raises(ValueError) as info:
            load_wordsim(path)
        assert str(info.value) == f"{path}:2: empty word"

    def test_short_line_rejected(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("cat 5\n")
        with pytest.raises(ValueError, match="word_a word_b score"):
            load_wordsim(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_score_rejected_naming_line(self, tmp_path, bad):
        path = tmp_path / "ws.txt"
        path.write_text(f"cat dog 5\nbird fish {bad}\n")
        with pytest.raises(ValueError, match=rf"ws\.txt:2: score '{bad}' is not finite"):
            load_wordsim(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="no usable lines"):
            load_wordsim(path)


def d0(dataset):
    a, b, _ = dataset.triples[0]
    return (a, b)


# Cells the two parses must read alike: mixed case and non-ASCII words
# (İ lowers to two characters, a final Σ to ς, the Kelvin sign to k), an
# empty word, padding str.strip removes, and scores float reads, rejects or
# reads as non-finite ("-0" averages to 0.0 in the loop).
WORDS = ("cat", "Cat", "CAT", "dog", "DOG", "İstanbul", "i̇stanbul", "ΟΔΟΣ", "οδος", "ΑΣ.",
         "straße", "STRASSE", "\u212a", "k", "a b", "")
PADS = ("", "", " ", "  ", "\x0b", "\x1c", "\x85", "\u2028", "\xa0")
GOOD_SCORES = ("5", "7.25", "-0", "-0.0", "0", "+2", "1e3", "1_0", "\u0663", ".5", "-3.125")
BAD_SCORES = ("nan", "NaN", "inf", "-Infinity", "Bad", "x1", "1,5", "")
ENDINGS = ("\n", "\r\n", "\r")


def pad(rng, cell):
    return rng.choice(PADS) + cell + rng.choice(PADS)


def tab_line(rng, a, b, score):
    return "\t".join(pad(rng, c) for c in (a, b, score))


def mixed_lines(rng):
    """Up to a dozen lines of the kinds the loop reads or skips, at most one it rejects.

    Words with a space or none, which a space-separated line or a stripped
    tab line may read as another number of cells, are drawn rarely.
    """
    rare = np.array([" " in w or not w for w in WORDS])
    p = np.where(rare, 0.1, 1.0) / np.where(rare, 0.1, 1.0).sum()
    lines, seen = [], []
    for _ in range(int(rng.integers(0, 12))):
        a, b = rng.choice(WORDS, size=2, p=p)
        if seen and rng.random() < 0.2:  # a repeat, in either order
            a, b = seen[rng.integers(len(seen))][:: rng.choice([1, -1])]
        seen.append((a, b))
        score = rng.choice(GOOD_SCORES)
        lines.append(rng.choice([
            tab_line(rng, a, b, score),
            "\t" + tab_line(rng, a, b, score),  # a leading tab
            tab_line(rng, a, b, score) + "\t" + rng.choice(["", "extra"]),
            ",".join((a, b, score)),
            " ".join((a, b, score)),
            rng.choice(["", " ", "\t", " \t "]),  # blank
        ]))
    if rng.random() < 0.3:
        lines.insert(0, rng.choice(["Word 1\tWord 2\tHuman (mean)", "w1,w2,score", "a b c"]))
    if rng.random() < 0.5:
        a, b = rng.choice(WORDS, size=2)
        lines.insert(int(rng.integers(len(lines) + 1)), rng.choice([
            tab_line(rng, a, b, rng.choice(BAD_SCORES)),
            " ".join((a, b, rng.choice(BAD_SCORES))),
            f"{a}\t{rng.choice(GOOD_SCORES)}",  # a short line
            "Word 1\tWord 2\tHuman (mean)",  # a header, wherever it falls
        ]))
    return lines


def write_lines(path, rng, lines):
    path.write_bytes("".join(line + rng.choice(ENDINGS) for line in lines).encode("utf-8"))


def outcome(load, path, labels):
    """The pairs, bit-exact scores and lookup arrays of a load, or its error text."""
    try:
        d = load(path)
    except ValueError as exc:
        return ("error", str(exc))
    ia, ib, scores = d.lookup(labels)
    return (d.triples, [s.hex() for _, _, s in d.triples],
            ia.tolist(), ib.tolist(), [s.hex() for s in scores.tolist()])


# every word the files can hold, and one they cannot, in no sorted order
LABELS = tuple(np.random.default_rng(227).permutation(
    sorted({w.strip().lower() for w in WORDS} | {"oov"})).tolist())


class TestLoadMatchesPerLineReference:
    def test_clean_tab_files_take_the_column_parse(self, tmp_path):
        rng = np.random.default_rng(233)
        words = [w.strip().lower() for w in WORDS]
        # an empty word goes to the loop, which rejects it
        picks = [(WORDS[a], WORDS[b]) for a, b in itertools.combinations(range(len(WORDS)), 2)
                 if words[a] != words[b] and words[a] and words[b]]
        for i in range(40):
            # distinct unordered pairs after lowering, listed in either order
            seen, lines = set(), []
            for j in rng.permutation(len(picks))[: int(rng.integers(1, 40))]:
                a, b = picks[j][:: rng.choice([1, -1])]
                key = tuple(sorted((a.strip().lower(), b.strip().lower())))
                if key in seen:
                    continue
                seen.add(key)
                lines.append(tab_line(rng, a, b, rng.choice(GOOD_SCORES)))
                if rng.random() < 0.1:
                    lines.append(rng.choice(["", "  ", "\t", "\t\t"]))
            path = tmp_path / f"clean{i}.tsv"
            write_lines(path, rng, lines)
            with open(path, encoding="utf-8") as fh:
                assert _tab_columns(fh.read()) is not None
            assert outcome(load_wordsim, path, LABELS) == outcome(reference_load_wordsim, path,
                                                                  LABELS)

    def test_generated_files_load_alike(self, tmp_path):
        rng = np.random.default_rng(239)
        for i in range(400):
            lines = mixed_lines(rng)
            path = tmp_path / f"mixed{i}.txt"
            write_lines(path, rng, lines)
            assert outcome(load_wordsim, path, LABELS) == outcome(reference_load_wordsim, path,
                                                                  LABELS), lines

    @pytest.mark.parametrize("text", [
        "Word 1\tWord 2\tScore\ncat\tdog\t5\n",
        "cat,dog,5\nsun\tmoon\t3\n",
        "cat dog 5\nsun\tmoon\t3\n",
        "cat\tdog\t5\tx\nsun\tmoon\t3\n",
        "cat\tdog\t5\nsun\tmoon\tBad\n",
        "cat\tdog\t5\nsun\tmoon\tNaN\n",
        "cat\tdog\t5\nsun\tmoon\t-inf\n",
        "cat\tdog\t5\nDog\tCat\t6\n",
        "cat\tdog\t5\nsun\t3\n",
        "cat\tdog\t5\nsun\t \t3\n",
        "",
        " \n\t\n",
    ], ids=["header", "comma", "space", "extra-cell", "bad-score", "nan", "inf",
            "repeat", "short", "empty-word", "empty", "blank"])
    def test_other_files_go_to_the_loop(self, tmp_path, text):
        assert _tab_columns(text) is None
        path = tmp_path / "ws.txt"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_wordsim, path, LABELS) == outcome(reference_load_wordsim, path,
                                                              LABELS)

    def test_column_parse_makes_no_object_per_pair_for_the_cyclic_gc(self, tmp_path):
        # the loop's dict of lists, keyed by tuples, sets off a young
        # collection every few hundred pairs; columns of strings set off none
        path = tmp_path / "ws.tsv"
        path.write_text("".join(f"w{i}\tw{i + 1}\t{i % 7}\n" for i in range(20_000)))

        def collections(load):
            starts = []

            def count(phase, info):
                if phase == "start":
                    starts.append(info["generation"])

            gc.collect()
            gc.callbacks.append(count)
            try:
                load(path)
            finally:
                gc.callbacks.remove(count)
            return len(starts)

        assert collections(load_wordsim) <= 1
        assert collections(reference_load_wordsim) >= 10


def test_leading_byte_order_mark_is_ignored(tmp_path):
    # the column parse reads the tab file, the loop the others
    for name, text in (("tab", "Cat\tdog\t5\nsun\tmoon\t3\n"),
                       ("header", "w1,w2,score\nCat,dog,5\nsun,moon,3\n"),
                       ("tab header", "w1\tw2\tscore\nCat\tdog\t5\nsun\tmoon\t3\n"),
                       ("space", "Cat dog 5\nsun moon 3\n")):
        plain, marked = tmp_path / f"{name}.txt", tmp_path / f"{name}.bom.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_wordsim(marked).triples == load_wordsim(plain).triples == (
            ("cat", "dog", 5.0), ("moon", "sun", 3.0))


class TestDatasetColumns:
    def test_triples_round_trip_through_the_columns(self):
        d = WordSimDataset(LOOKUP_TRIPLES)
        assert d.triples == LOOKUP_TRIPLES
        assert d.words_a == tuple(a for a, _, _ in LOOKUP_TRIPLES)
        assert d.words_b == tuple(b for _, b, _ in LOOKUP_TRIPLES)
        assert d.scores.tolist() == [s for _, _, s in LOOKUP_TRIPLES]
        assert WordSimDataset(iter(LOOKUP_TRIPLES)).triples == LOOKUP_TRIPLES
        assert not d.scores.flags.writeable

    def test_from_ids_matches_the_triples_constructor(self):
        given = WordSimDataset(LOOKUP_TRIPLES)
        ids, scores = given.ids.copy(), given.scores.copy()
        d = WordSimDataset._from_ids(given.vocab, ids, scores)
        assert d.triples == LOOKUP_TRIPLES
        ids[0], scores[0] = 0, -1.0  # the dataset holds its own copies
        assert d.triples == LOOKUP_TRIPLES
        assert not d.ids.flags.writeable
        with pytest.raises(ValueError, match="empty"):
            WordSimDataset._from_ids((), np.empty((0, 2), dtype=int), [])

    def test_triples_keep_the_word_order_given(self):
        triples = (("b", "a", 1.0), ("a", "b", 2.0), ("c", "c", 3.0), ("zz", "b", 4.0))
        d = WordSimDataset(triples)
        assert d.vocab == ("a", "b", "c", "zz")
        assert d.ids.tolist() == [[1, 0], [0, 1], [2, 2], [3, 1]]
        assert d.triples == triples
        assert (d.words_a, d.words_b) == (("b", "a", "c", "zz"), ("a", "b", "c", "b"))


# every str.isspace character: what str.strip removes and str.split splits on
SPACES = tuple(chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace())


def reference_lookup(d, labels):
    """The lookup before the dataset was encoded: one dict lookup per pair word."""
    index = {lbl: i for i, lbl in enumerate(labels)}
    ia = np.array([index.get(w, -1) for w in d.words_a], dtype=np.intp)
    ib = np.array([index.get(w, -1) for w in d.words_b], dtype=np.intp)
    keep = (ia >= 0) & (ib >= 0)
    return ia[keep], ib[keep], d.scores[keep]


class TestEncoding:
    """The pair file lowercased once and encoded as word ids, against per-cell
    and per-word references."""

    @pytest.mark.parametrize("space", SPACES, ids=lambda c: f"U+{ord(c):04X}")
    def test_lowering_the_joined_cells_lowers_each_cell(self, space):
        # Σ lowers to ς at a word's end; a whitespace character is neither cased
        # nor case-ignorable, so padding hides a neighbour as a cell's end does
        cells = [f"ΑΣ{space}", f"{space}ΣΑ", f"Σ{space}Α", f"Α{space}Σ{space}", f"{space}ΑΣ",
                 "Σ", f"Α\u00adΣ{space}", f"{space}Σ{space}", "ΟΔΟΣ"]
        text = "\t".join(cells)
        assert ([c.strip() for c in text.lower().split("\t")]
                == [c.strip().lower() for c in text.split("\t")])

    @pytest.mark.parametrize("space", [c for c in SPACES if c not in "\r\n"],
                             ids=lambda c: f"U+{ord(c):04X}")
    def test_sigma_next_to_whitespace_loads_as_the_loop_reads_it(self, tmp_path, space):
        path = tmp_path / "ws.tsv"
        path.write_text(f"{space}ΑΣ{space}\t{space}ΣΑ{space}\t1\nΑ{space}Σ\tΟΔΟΣ\t2\n"
                        f"Σ\tα{space}σ\t3\n", encoding="utf-8")
        assert (_tab_columns(path.read_text(encoding="utf-8")) is None) == (space == "\t")
        assert outcome(load_wordsim, path, LABELS) == outcome(reference_load_wordsim, path,
                                                              LABELS)

    @pytest.mark.parametrize("text", [
        "cat\tdog\t5\nCAT\tDOG\t6\n",
        "cat\tdog\t5\nsun\tmoon\t1\nDOG\tCat\t6\n",
        "ΟΔΟΣ\tx\t1\nοδος\tX\t2\n",
        "\u212a\tb\t1\nk\tB\t2\n",  # the Kelvin sign lowers to k
    ], ids=["same-order", "swapped", "final-sigma", "kelvin"])
    def test_repeats_that_differ_only_in_case_go_to_the_loop(self, tmp_path, text):
        assert _tab_columns(text) is None
        path = tmp_path / "ws.tsv"
        path.write_text(text, encoding="utf-8")
        assert len(load_wordsim(path)) == text.count("\n") - 1
        assert outcome(load_wordsim, path, LABELS) == outcome(reference_load_wordsim, path,
                                                              LABELS)

    def test_lookup_matches_the_per_word_reference(self):
        rng = np.random.default_rng(271)
        words = [f"w{i}" for i in range(30)]
        for _ in range(50):
            pairs = [tuple(rng.choice(words, size=2)) for _ in range(int(rng.integers(1, 60)))]
            pairs += [(b, a) for a, b in pairs[: len(pairs) // 3]]  # listed in both orders
            d = WordSimDataset(tuple((a, b, float(rng.integers(10))) for a, b in pairs))
            labels = tuple(rng.permutation(words)[: int(rng.integers(1, 30))].tolist())
            got, want = d.lookup(labels), reference_lookup(d, labels)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tolist() == w.tolist()
        assert all(len(x) == 0 for x in d.lookup(("oov",)))

    def test_integer_rank_sums_are_bit_equal_to_fsum_in_any_block(self):
        rng = np.random.default_rng(277)
        for n in (2, 3, 10, 101, 1000):
            x, y = rng.integers(4, size=n), rng.normal(size=n)
            dx, dy = ((2.0 * _ranks(v) - (n + 1)).astype(np.int64) for v in (x, y))
            for a, b in ((dx, dy), (dx, dx), (dy, dy)):
                want = math.fsum(((a / 2.0) * (b / 2.0)).tolist())
                for block in (1, 2, 3, 7, n):
                    assert _int_dot(a, b, block) / 4 == want, (n, block)
        # blocks of one term where two int64 terms would overflow their sum
        big = np.full(8, 3_037_000_499, dtype=np.int64)  # its square is just below 2**63
        assert _int_dot(big, big, 1) == 8 * 3_037_000_499**2


class TestCosine:
    def test_parallel(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_45_degrees(self):
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_zero_vector_returns_zero(self):
        assert cosine([0.0, 0.0], [1.0, 0.0]) == 0.0
        assert cosine([1.0, 0.0], [0.0, 0.0]) == 0.0
        assert cosine([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_a_vector_with_itself_is_exactly_one(self):
        # u.u / (|u| |u|) rounds to 1.0000000000000002 for about half of these
        for u in np.random.default_rng(0).normal(size=(2000, 5)):
            assert cosine(u, u) == 1.0
            assert cosine(u, u.copy()) == 1.0

    def test_bit_equal_to_the_cosines_evaluate_ranks(self, monkeypatch):
        rng = np.random.default_rng(223)
        labels = tuple(f"w{i}" for i in range(80))
        F = rng.normal(size=(80, 7)) * rng.uniform(0.01, 100.0, size=(80, 1))
        F[70:] = F[:10]
        F[[30, 31]] = 0.0
        emb = EmbeddingSet(F=F, G=F, row_labels=labels, col_labels=labels,
                           singular_values=np.ones(7), method_tag="x")
        idx, jdx = rng.integers(80, size=(2, 400))
        idx[:10], jdx[:10] = np.arange(10), np.arange(70, 80)
        d = WordSimDataset(tuple((labels[a], labels[b], float(rng.integers(10)))
                                 for a, b in zip(idx, jdx)))
        ranked = []
        monkeypatch.setattr(evaluation, "spearman", lambda sims, human: ranked.append(sims) or 0.0)
        evaluate(emb, "F", d)
        want = np.array([cosine(F[a], F[b]) for a, b in zip(idx, jdx)])
        assert ranked[0].tobytes() == want.tobytes()
        assert (want[:10] == 1.0).all()


class TestSpearman:
    def test_identical_rankings(self):
        assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == pytest.approx(1.0, abs=1e-15)

    def test_reversed_rankings(self):
        assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0, abs=1e-15)

    def test_hand_value(self):
        # d = (0, 1, 1, 0): 1 - 6*2/(4*15) = 0.8
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)

    def test_matches_rank_difference_formula_exhaustively(self):
        # tie-free permutations of length <= 5, all of them, bit-for-bit
        for m in range(2, 6):
            xs = list(range(1, m + 1))
            denom = m * (m * m - 1)
            for perm in itertools.permutations(xs):
                d2 = sum((a - b) ** 2 for a, b in zip(xs, perm))
                expected = float(1 - Fraction(6 * d2, denom))
                assert spearman(xs, list(perm)) == expected

    def test_matches_formula_on_sampled_longer_permutations(self):
        rng = np.random.default_rng(157)
        for m in (6, 7, 8):
            xs = list(range(1, m + 1))
            denom = m * (m * m - 1)
            for _ in range(200):
                perm = list(rng.permutation(xs))
                d2 = sum((a - b) ** 2 for a, b in zip(xs, perm))
                expected = float(1 - Fraction(int(6 * d2), denom))
                assert spearman(xs, perm) == expected

    def test_ties_use_average_ranks(self):
        # ys ties at positions 1 and 2 share rank 2.5
        rho = spearman([1.0, 2.0, 3.0, 4.0], [1.0, 5.0, 5.0, 8.0])
        assert rho == pytest.approx(0.9486832980505138, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(163)
        xs = list(rng.normal(size=12))
        ys = list(rng.normal(size=12))
        base = spearman(xs, ys)
        assert spearman([np.exp(x) for x in xs], ys) == base
        assert spearman(xs, [y**3 for y in ys]) == base

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_constant_list_is_an_error(self):
        with pytest.raises(ValueError, match="constant"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ValueError, match="two"):
            spearman([1.0], [2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_an_error(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            spearman([1, 2, 3, 4], [bad, 1, 2, 3])
        with pytest.raises(ValueError, match="non-finite"):
            spearman([1, bad, 3, 4], [4, 1, 2, 3])

    def test_ranks_match_reference_on_heavy_ties(self):
        rng = np.random.default_rng(179)
        for m in (2, 3, 10, 57, 400):
            for levels in (1, 2, 5, m):
                steps = rng.integers(levels, size=m)
                for xs in (steps * 0.5 - 1.0, 1.0 + steps * 2.0**-52):  # adjacent floats
                    assert _ranks(xs).tolist() == reference_average_ranks(list(xs))

    def test_matches_reference_bit_for_bit_on_heavy_ties(self):
        rng = np.random.default_rng(181)
        for m in (2, 5, 30, 500):
            for _ in range(20):
                xs = list(rng.integers(4, size=m) / 3.0)
                ys = list(rng.integers(max(2, m // 3), size=m) - 7.25)
                if min(xs) == max(xs) or min(ys) == max(ys):
                    continue
                assert spearman(xs, ys) == reference_spearman(xs, ys)


def one_hot_embeddings(labels):
    m = len(labels)
    return EmbeddingSet(
        F=np.eye(m),
        G=np.eye(m),
        row_labels=tuple(labels),
        col_labels=tuple(labels),
        singular_values=np.ones(m),
        method_tag="onehot",
    )


class TestEvaluate:
    def test_one_hot_rows_rank_perfectly(self, tmp_path):
        # identical words -> cosine 1, distinct -> 0; scores ordered the same way
        emb = one_hot_embeddings(["a", "b", "c"])
        path = tmp_path / "ws.txt"
        path.write_text("a a 10\nb b 10\na b 1\nb c 1\n")
        report = evaluate(emb, "F", load_wordsim(path))
        assert report.spearman_rho == pytest.approx(1.0, abs=1e-12)
        assert report.pairs_used == 4
        assert report.pairs_skipped == 0

    def test_oov_pairs_skipped_and_counted(self, tmp_path):
        emb = one_hot_embeddings(["a", "b"])
        path = tmp_path / "ws.txt"
        path.write_text("a a 10\na b 2\na zebra 5\nyak b 3\n")
        report = evaluate(emb, "F", load_wordsim(path))
        assert report.pairs_used == 2
        assert report.pairs_skipped == 2

    def test_used_plus_skipped_is_dataset_size(self, tmp_path):
        emb = one_hot_embeddings(["a", "b", "c"])
        path = tmp_path / "ws.txt"
        path.write_text("a b 3\nb c 1\na zebra 5\na a 9\n")
        d = load_wordsim(path)
        report = evaluate(emb, "F", d)
        assert report.pairs_used + report.pairs_skipped == len(d)

    def test_all_oov_is_an_error(self, tmp_path):
        emb = one_hot_embeddings(["a", "b"])
        path = tmp_path / "ws.txt"
        path.write_text("x y 3\ny z 1\n")
        with pytest.raises(ValueError, match="zero usable pairs"):
            evaluate(emb, "F", load_wordsim(path))

    def test_invariant_to_uniform_rescaling(self, tmp_path):
        rng = np.random.default_rng(167)
        labels = tuple("abcdef")
        F = rng.normal(size=(6, 3))
        emb = EmbeddingSet(
            F=F, G=F.copy(), row_labels=labels, col_labels=labels,
            singular_values=np.ones(3), method_tag="x",
        )
        scaled = EmbeddingSet(
            F=7.0 * F, G=F.copy(), row_labels=labels, col_labels=labels,
            singular_values=np.ones(3), method_tag="x",
        )
        path = tmp_path / "ws.txt"
        path.write_text("a b 3\nb c 9\nc d 1\nd e 5\ne f 2\n")
        d = load_wordsim(path)
        assert evaluate(emb, "F", d) == evaluate(scaled, "F", d)

    def test_matches_reference_with_oov_and_zero_rows(self):
        # Pairs of distinct words with distinct rows: a self pair or two equal
        # rows has cosine 1 only up to rounding, and the two implementations
        # round differently, so such near-ties may rank in another order.
        rng = np.random.default_rng(191)
        labels = tuple(f"w{i}" for i in range(60))
        for _ in range(5):
            F = rng.normal(size=(60, 4))
            F[rng.choice(60, size=6, replace=False)] = 0.0
            emb = EmbeddingSet(F=F, G=-F, row_labels=labels, col_labels=labels,
                               singular_values=np.ones(4), method_tag="x")
            words = list(labels) + ["oov1", "oov2", "oov3"]
            triples = tuple(
                (words[a], words[b], float(rng.integers(5)))
                for a, b in (rng.choice(len(words), size=2, replace=False) for _ in range(300))
            )
            d = WordSimDataset(triples)
            got = evaluate(emb, "F", d)
            want = reference_evaluate(emb, "F", d)
            assert (got.pairs_used, got.pairs_skipped, got.pairs_zero) == (
                want.pairs_used, want.pairs_skipped, want.pairs_zero)
            assert got.pairs_zero > 0
            assert got.pairs_skipped > 0
            assert abs(got.spearman_rho - want.spearman_rho) <= 1e-12

    def test_identical_rows_tie_at_cosine_one(self):
        # 60 seeded rows, 12 of them copies of others, and zero rows: every
        # self pair and copy pair ties at exactly 1, a zero pair stays 0
        rng = np.random.default_rng(211)
        labels = tuple(f"w{i}" for i in range(60))
        F = rng.normal(size=(60, 5)) * rng.uniform(0.1, 10.0, size=(60, 1))
        F[48:] = F[:12]
        F[[20, 21]] = 0.0
        emb = EmbeddingSet(F=F, G=F, row_labels=labels, col_labels=labels,
                           singular_values=np.ones(5), method_tag="x")
        idx = np.r_[np.arange(60), rng.integers(60, size=(200,))]
        jdx = np.r_[np.arange(60), rng.integers(60, size=(200,))]
        idx[60:72], jdx[60:72] = np.arange(12), np.arange(48, 60)  # copy pairs
        triples = tuple((labels[a], labels[b], float(rng.integers(10)))
                        for a, b in zip(idx, jdx))
        d = WordSimDataset(triples)
        want_sims = [cosine(F[a], F[b]) for a, b in zip(idx, jdx)]
        got = evaluate(emb, "F", d)
        same = (F[idx] == F[jdx]).all(axis=1) & F[idx].any(axis=1)
        assert same.sum() >= 58 + 12
        want_sims = np.where(same, 1.0, want_sims)
        assert got.spearman_rho == reference_spearman(want_sims.tolist(),
                                                       [s for _, _, s in triples])

    def test_sgns_zero_rows_are_counted(self, tmp_path):
        # SGNS with shift_k=5 zeroes every row but the first of this 3x3 table
        t = ContingencyTable.from_counts(
            np.array([[1.0, 0, 0], [0, 20, 20], [0, 20, 20]]), list("abc"), list("abc")
        )
        emb = fit_kca(t, method_from_name("sgns", shift_k=5.0), None)
        assert not emb.F[1:].any() and emb.F[0].any()
        path = tmp_path / "ws.txt"
        path.write_text("a a 10\na b 2\nb c 4\nc c 1\n")
        d = load_wordsim(path)
        report = evaluate(emb, "F", d)
        assert (report.pairs_used, report.pairs_zero) == (4, 3)
        assert report == reference_evaluate(emb, "F", d)

    def test_g_side_selects_column_coordinates(self, tmp_path):
        rng = np.random.default_rng(173)
        labels = tuple("abcd")
        emb = EmbeddingSet(
            F=rng.normal(size=(4, 2)),
            G=rng.normal(size=(4, 2)),
            row_labels=labels,
            col_labels=labels,
            singular_values=np.ones(2),
            method_tag="x",
        )
        path = tmp_path / "ws.txt"
        path.write_text("a b 3\nb c 9\nc d 1\n")
        d = load_wordsim(path)
        f_report = evaluate(emb, "F", d)
        g_report = evaluate(emb, "G", d)
        assert isinstance(f_report, EvalReport)
        assert f_report != g_report


# A non-square table's labels and pairs that reach each axis differently:
# OOV words, a pair across the axes, a self pair, pairs of row labels only
# and of column labels only ("mid" is a label of both axes).
ROWS = ("ant", "bee", "cat", "mid")
COLS = ("xi", "yo", "zu", "mid")
LOOKUP_TRIPLES = (
    ("ant", "bee", 3.0), ("ant", "xi", 8.0), ("ant", "ant", 9.0), ("cat", "zzz", 1.0),
    ("bee", "mid", 2.0), ("xi", "yo", 4.0), ("qq", "rr", 6.0), ("yo", "mid", 7.0),
    ("cat", "bee", 5.0), ("mid", "zu", 1.5),
)


class TestPairLookup:
    def test_lookup_keeps_the_pairs_of_labels_in_dataset_order(self):
        d = WordSimDataset(LOOKUP_TRIPLES)
        ia, ib, scores = d.lookup(ROWS)
        assert [(ROWS[i], ROWS[j], s) for i, j, s in zip(ia, ib, scores)] == [
            ("ant", "bee", 3.0), ("ant", "ant", 9.0), ("bee", "mid", 2.0), ("cat", "bee", 5.0)]
        ia, ib, scores = d.lookup(COLS)
        assert [(COLS[i], COLS[j], s) for i, j, s in zip(ia, ib, scores)] == [
            ("xi", "yo", 4.0), ("yo", "mid", 7.0), ("mid", "zu", 1.5)]
        assert all(len(x) == 0 for x in WordSimDataset((("qq", "rr", 1.0),)).lookup(ROWS))

    def test_evaluate_uses_the_looked_up_pairs(self):
        rng = np.random.default_rng(229)
        emb = EmbeddingSet(F=rng.normal(size=(4, 3)), G=rng.normal(size=(4, 3)),
                           row_labels=ROWS, col_labels=COLS, singular_values=np.ones(3),
                           method_tag="x")
        d = WordSimDataset(LOOKUP_TRIPLES)
        for which, labels in (("F", ROWS), ("G", COLS)):
            report = evaluate(emb, which, d)
            used = len(d.lookup(labels)[0])
            assert (report.pairs_used, report.pairs_skipped) == (used, len(d) - used)

    def test_build_gamma_fills_the_looked_up_cells(self):
        d = WordSimDataset(LOOKUP_TRIPLES)
        for labels in (ROWS, COLS):
            gamma = build_gamma(labels, d, alpha=0.5)
            want = np.ones((4, 4))
            for i, j, s in zip(*d.lookup(labels)):
                want[i, j] = want[j, i] = 0.5 * s + 1.0
            np.testing.assert_array_equal(gamma, want)
            assert (gamma != 1.0).sum() == sum(1 if i == j else 2
                                                for i, j in zip(*d.lookup(labels)[:2]))

    @pytest.mark.parametrize("picks", [(1, 3, 6), (2, 3), (5, 1), (9,)],
                             ids=["across-and-oov", "self-pair", "column-pair", "shared-label"])
    def test_ws_fit_fails_exactly_when_no_pair_is_looked_up(self, tmp_path, capsys, picks):
        table = tmp_path / "t.tsv"
        counts = np.arange(1.0, 17.0).reshape(4, 4) % 5 + 1.0
        tables.write_tsv(ContingencyTable(counts, ROWS, COLS), table)
        d = WordSimDataset(tuple(LOOKUP_TRIPLES[i] for i in picks))
        scores = tmp_path / "scores.txt"
        scores.write_text("".join(f"{a} {b} {s}\n" for a, b, s in d.triples))
        out = tmp_path / "e.tsv"
        rc = main(["fit", str(table), "--method", "ws", "--ws-scores", str(scores),
                   "--out", str(out)])
        matched = any(len(d.lookup(labels)[0]) for labels in (ROWS, COLS))
        assert (rc, out.exists()) == ((0, True) if matched else (1, False))
        assert ("no pair has both words" in capsys.readouterr().err) != matched


def test_dataset_must_not_be_empty():
    with pytest.raises(ValueError, match="empty"):
        WordSimDataset(())
