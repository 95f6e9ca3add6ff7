"""Contingency-table construction, residuals, the TSV format and the atomic writers."""

import codecs
import dataclasses
import importlib
import logging
import pkgutil
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import cakit
from cakit import ca, cli, gini, kca, linalg, tables
from cakit.ca import EmbeddingSet, fit_linear_ca
from cakit.corpus import CooccurrenceConfig, count_cooccurrences
from cakit.datasets import FISHER_COL_LABELS, FISHER_COUNTS, FISHER_ROW_LABELS, fisher_table
from cakit.tables import (
    ContingencyTable,
    contingency_from_observations,
    read_tsv,
    residual_matrix,
    write_tsv,
)


class TestFromObservations:
    def test_small_count(self):
        t = contingency_from_observations([("A", "X"), ("A", "X"), ("B", "Y")])
        np.testing.assert_array_equal(t.counts, [[2, 0], [0, 1]])
        np.testing.assert_array_equal(t.r, [2, 1])
        np.testing.assert_array_equal(t.c, [2, 1])
        assert t.n == 3

    def test_single_observation(self):
        t = contingency_from_observations([("A", "X")])
        assert t.shape == (1, 1)
        assert t.n == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            contingency_from_observations([])

    def test_order_invariance(self):
        rng = np.random.default_rng(29)
        obs = [("A", "X"), ("B", "Y"), ("A", "Y"), ("C", "X"), ("B", "X")] * 3
        base = contingency_from_observations(obs)
        for _ in range(5):
            shuffled = [obs[i] for i in rng.permutation(len(obs))]
            t = contingency_from_observations(shuffled)
            assert t.row_labels == base.row_labels
            assert t.col_labels == base.col_labels
            np.testing.assert_array_equal(t.counts, base.counts)

    def test_survey_table_reconstructed_from_observations(self):
        obs = []
        for i, row_label in enumerate(FISHER_ROW_LABELS):
            for j, col_label in enumerate(FISHER_COL_LABELS):
                obs.extend([(row_label, col_label)] * FISHER_COUNTS[i][j])
        assert len(obs) == 5387
        t = contingency_from_observations(obs)
        assert t.n == 5387
        # labels come out sorted; align back to the published ordering
        ri = [t.row_labels.index(l) for l in FISHER_ROW_LABELS]
        ci = [t.col_labels.index(l) for l in FISHER_COL_LABELS]
        np.testing.assert_array_equal(t.counts[np.ix_(ri, ci)], np.array(FISHER_COUNTS))
        np.testing.assert_array_equal(t.r[ri], [718, 1580, 1774, 1315])
        np.testing.assert_array_equal(t.c[ci], [1455, 286, 2137, 1391, 118])


class TestResidualMatrix:
    def test_independence_gives_zero(self):
        t = ContingencyTable.from_counts([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(residual_matrix(t), 0.0, atol=1e-15)

    def test_hand_value(self):
        t = ContingencyTable.from_counts([[2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(
            residual_matrix(t), [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15
        )

    def test_survey_table_margins_vanish(self):
        xi = residual_matrix(fisher_table())
        assert np.abs(xi.sum(axis=1)).max() < 1e-12
        assert np.abs(xi.sum(axis=0)).max() < 1e-12

    def test_subtracting_in_place_writes_the_bytes_of_the_expression(self):
        rng = np.random.default_rng(37)
        for shape in ((3, 5), (40, 40), (17, 9)):
            t = ContingencyTable.from_counts(rng.integers(0, 30, size=shape) + 0.5)
            expected = t.counts / t.n - np.outer(t.r, t.c) / (t.n * t.n)
            assert residual_matrix(t).tobytes() == expected.tobytes()

    def test_margins_vanish_on_random_tables(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            counts = rng.integers(1, 30, size=(rng.integers(2, 6), rng.integers(2, 6)))
            xi = residual_matrix(ContingencyTable.from_counts(counts))
            assert np.abs(xi.sum(axis=1)).max() < 1e-12
            assert np.abs(xi.sum(axis=0)).max() < 1e-12


class TestConstruction:
    def test_zero_marginal_rows_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            t = ContingencyTable.from_counts(
                [[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]], ["a", "b", "c"], ["x", "y"]
            )
        assert t.row_labels == ("a", "c")
        assert "b" in caplog.text

    def test_zero_marginal_columns_dropped(self, caplog):
        with caplog.at_level(logging.WARNING):
            t = ContingencyTable.from_counts([[1.0, 0.0], [2.0, 0.0]], ["a", "b"], ["x", "y"])
        assert t.col_labels == ("x",)
        assert "y" in caplog.text

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ContingencyTable.from_counts([[1.0, -1.0], [1.0, 1.0]])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ContingencyTable.from_counts([[1.0, np.nan], [1.0, 1.0]])

    def test_negative_row_summing_to_zero_rejected(self):
        # its marginal is 0, but it is not an empty category to drop
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            ContingencyTable.from_counts([[-1.0, 1.0], [2.0, 3.0]])

    def test_nan_row_beside_an_all_zero_row_rejected(self):
        with pytest.raises(ValueError, match="counts contain NaN or Inf"):
            ContingencyTable.from_counts([[np.nan, np.nan], [0.0, 0.0], [1.0, 2.0]])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ContingencyTable.from_counts(np.zeros((2, 2)))

    @pytest.mark.parametrize("empty", ["rows", "columns", "both"])
    def test_direct_construction_drops_empty_categories_like_from_counts(self, caplog, empty):
        rng = np.random.default_rng(61)
        counts = rng.uniform(0.1, 9.0, size=(5, 12))
        row_keep, col_keep = np.ones(5, bool), np.ones(12, bool)
        if empty != "columns":
            row_keep[[0, 3]] = False
        if empty != "rows":
            col_keep[[2, 11]] = False
        counts[~row_keep], counts[:, ~col_keep] = 0.0, 0.0
        rows, cols = [f"a{i}" for i in range(5)], [f"b{j}" for j in range(12)]
        made = []
        for build in (ContingencyTable, ContingencyTable.from_counts):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="cakit.tables"):
                t = build(counts, rows, cols)
            made.append((t.row_labels, t.col_labels, t.counts.tobytes(), t.r.tobytes(),
                         t.c.tobytes(), t.n, caplog.messages))
        assert made[0] == made[1]
        labels, kept_cols, cells, _, _, _, messages = made[0]
        assert labels == tuple(np.array(rows)[row_keep])
        assert kept_cols == tuple(np.array(cols)[col_keep])
        assert cells == counts[np.ix_(row_keep, col_keep)].tobytes()
        assert messages == {"rows": ["dropping zero-marginal rows: a0, a3"],
                            "columns": ["dropping zero-marginal columns: b2, b11"],
                            "both": ["dropping zero-marginal rows: a0, a3",
                                     "dropping zero-marginal columns: b2, b11"]}[empty]

    def test_marginals_after_a_drop_are_sums_of_the_kept_cells(self):
        # a slice of the sums over every cell differs in the last bit: numpy
        # sums a row of more than 8 cells pairwise, and a dropped zero moves
        # the cells after it to other partial sums
        rng = np.random.default_rng(67)
        for _ in range(200):
            nr, nc = rng.integers(3, 12), rng.integers(10, 60)
            counts = rng.uniform(0, 1, size=(nr, nc)) * 10.0 ** rng.integers(-3, 4, size=(nr, 1))
            counts[rng.integers(nr)] = 0.0
            counts[:, rng.integers(nc)] = 0.0
            t = ContingencyTable.from_counts(counts)
            assert t.shape == (nr - 1, nc - 1)
            assert t.r.tobytes() == t.counts.sum(axis=1).tobytes()
            assert t.c.tobytes() == t.counts.sum(axis=0).tobytes()
            assert t.n == float(t.counts.sum())

    def test_counts_are_an_owned_read_only_copy(self, tmp_path):
        counts = np.array([[1.0, 2.0], [3.0, 0.0]])
        t = ContingencyTable(counts, ("a", "b"), ("x", "y"))
        counts[0, 0] = -5
        assert t.counts.tolist() == [[1.0, 2.0], [3.0, 0.0]]
        with pytest.raises(ValueError, match="read-only"):
            t.counts[0, 0] = -1
        with pytest.raises(ValueError, match="read-only"):
            t.counts *= 2
        write_tsv(t, tmp_path / "t.tsv")
        for made in (ContingencyTable.from_counts(counts.clip(0)), read_tsv(tmp_path / "t.tsv")):
            assert not made.counts.flags.writeable

    def test_marginal_identities(self):
        rng = np.random.default_rng(37)
        counts = rng.integers(0, 9, size=(4, 5)) + 0.0
        counts[0, 0] += 1  # keep the table non-degenerate
        t = ContingencyTable.from_counts(counts)
        np.testing.assert_array_equal(t.r, t.counts.sum(axis=1))
        np.testing.assert_array_equal(t.c, t.counts.sum(axis=0))
        assert t.n == t.r.sum() == t.c.sum()

    @pytest.mark.parametrize("made_by", ["from_counts", "read_tsv", "observations", "corpus"])
    def test_marginals_are_stored_read_only_axis_sums(self, tmp_path, made_by):
        rng = np.random.default_rng(42)
        if made_by == "observations":
            t = contingency_from_observations(
                [(f"a{i}", f"b{j}") for i, j in rng.integers(0, 6, size=(80, 2))])
        elif made_by == "corpus":
            t = count_cooccurrences([f"w{i}" for i in rng.integers(0, 9, size=300)],
                                    CooccurrenceConfig(window=2))
        else:  # fractional, so the total of all cells differs from the sums of r and of c
            counts = rng.uniform(0, 1e3, size=(40, 30)) * rng.uniform(0, 1e-3, size=(40, 1))
            counts[rng.random(counts.shape) < 0.3] = 0.0
            t = ContingencyTable.from_counts(counts)
            assert float(t.r.sum()) != t.n != float(t.c.sum())
            if made_by == "read_tsv":
                write_tsv(t, tmp_path / "t.tsv")
                t = read_tsv(tmp_path / "t.tsv")
        np.testing.assert_array_equal(t.r, t.counts.sum(axis=1))
        np.testing.assert_array_equal(t.c, t.counts.sum(axis=0))
        assert t.n == float(t.counts.sum())
        assert t.r is t.r and t.c is t.c  # computed once, at construction
        for marginal in (t.r, t.c):
            with pytest.raises(ValueError, match="read-only"):
                marginal[0] = -1.0
        with pytest.raises(AttributeError):
            t.n = 1.0

    def test_normalized_total_is_one(self):
        counts = np.array([[2.0, 3.0], [5.0, 7.0]])
        t = ContingencyTable.from_counts(counts / counts.sum())
        assert t.n == pytest.approx(1.0, abs=1e-15)


class TestRecordRule:
    """One rule for every record that holds an array: ``==`` by value through
    ``tables._equal_fields``, and a generated ``__hash__`` over the other fields."""

    def test_every_dataclass_with_an_array_field_follows_it(self):
        checked = set()
        for info in pkgutil.iter_modules(cakit.__path__):
            module = importlib.import_module(f"cakit.{info.name}")
            for cls in vars(module).values():
                if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                        and cls.__module__ == module.__name__):
                    continue
                arrays = [f for f in dataclasses.fields(cls) if "ndarray" in str(f.type)]
                if not arrays:
                    continue
                checked.add(cls.__name__)
                assert cls.__dataclass_params__.frozen, cls
                assert cls.__eq__ is tables._equal_fields, cls
                assert cls.__hash__ is not None, cls
                for f in arrays:
                    # a field hashes by its ``hash``, or by ``compare`` when that is None
                    assert (f.compare if f.hash is None else f.hash) is False, (cls, f.name)
        assert checked == {"AssociationMatrix", "ContingencyTable", "Decomposition",
                           "EmbeddingSet", "KcaMethod", "KernelRoot", "KernelSpec",
                           "RotatedCovariance"}

    def test_equal_results_compare_and_hash_alike(self):
        t = fisher_table()
        M = residual_matrix(t)
        m = kca.KcaMethod("gini", row_kernel=kca.KernelSpec("explicit", matrix=2.0 * np.eye(4)))
        for made in (lambda: linalg.svd(M), lambda: kca.association_matrix(t, m),
                     lambda: gini.rotated_covariance(t),
                     lambda: kca.kernel_root(kca.KernelSpec("kpca_cd", alpha=-0.5), t.r,
                                             t.row_labels)[0],
                     lambda: kca.kernel_root(m.row_kernel, t.r, t.row_labels)[1]):
            first, second = made(), made()
            assert first is not second
            assert first == second and not first != second and hash(first) == hash(second)
            assert first != "result"
        dec = linalg.svd(M)
        assert dec != dataclasses.replace(dec, S=2.0 * dec.S)


class TestSymmetric:
    """``symmetric``: equal labels on both axes and ``counts == counts.T`` exactly."""

    COUNTS = np.array([[4.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 3.0]])

    def test_a_counted_table_read_back_is_symmetric(self, tmp_path):
        rng = np.random.default_rng(7)
        corpus, out = tmp_path / "corpus.txt", tmp_path / "table.tsv"
        corpus.write_text(" ".join(rng.choice(["a", "b", "c", "d", "e"], size=400)) + "\n")
        assert cli.main(["count", str(corpus), "--window", "2", "--out", str(out)]) == 0
        assert read_tsv(out).symmetric

    def test_permuted_column_labels_are_not(self):
        words = ["a", "b", "c"]
        assert ContingencyTable(self.COUNTS, words, words).symmetric
        assert not ContingencyTable(self.COUNTS, words, ["b", "a", "c"]).symmetric

    def test_equal_labels_with_asymmetric_counts_are_not(self):
        counts = self.COUNTS.copy()
        counts[0, 1] = np.nextafter(1.0, 2.0)
        assert not ContingencyTable(counts, ["a", "b", "c"], ["a", "b", "c"]).symmetric

    def test_a_non_square_table_is_not(self):
        assert not ContingencyTable(self.COUNTS[:, :2], ["a", "b", "c"], ["a", "b"]).symmetric

    def test_dropping_a_zero_marginal_word_keeps_it_symmetric(self, caplog):
        counts = np.zeros((4, 4))
        counts[np.ix_([0, 1, 3], [0, 1, 3])] = self.COUNTS
        with caplog.at_level(logging.WARNING, logger="cakit.tables"):
            t = ContingencyTable(counts, ["a", "b", "x", "c"], ["a", "b", "x", "c"])
        assert "x" in caplog.text and t.row_labels == ("a", "b", "c") and t.symmetric

    def test_is_computed_once(self, record_calls):
        t = ContingencyTable(self.COUNTS, ["a", "b", "c"], ["a", "b", "c"])
        comparisons = record_calls(np, "array_equal")
        assert "symmetric" not in vars(t)
        assert t.symmetric and t.symmetric
        assert comparisons == [(3, 3)]


class TestTsvRoundTrip:
    def test_integer_counts_round_trip_exactly(self, tmp_path):
        t = fisher_table()
        path = tmp_path / "table.tsv"
        write_tsv(t, path)
        back = read_tsv(path)
        assert back.row_labels == t.row_labels
        assert back.col_labels == t.col_labels
        np.testing.assert_array_equal(back.counts, t.counts)

    def test_weighted_counts_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(41)
        t = ContingencyTable.from_counts(rng.uniform(0.1, 5.0, size=(3, 4)))
        path = tmp_path / "weighted.tsv"
        write_tsv(t, path)
        back = read_tsv(path)
        np.testing.assert_array_equal(back.counts, t.counts)

    def test_header_and_cells(self, tmp_path):
        t = ContingencyTable.from_counts([[2.0, 1.0]], ["w"], ["x", "y"])
        path = tmp_path / "t.tsv"
        write_tsv(t, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "\tx\ty"
        assert lines[1] == "w\t2\t1"

    def test_whitespace_column_label_round_trips(self, tmp_path):
        # the header "\t \n" is whitespace only but is not blank
        t = ContingencyTable.from_counts([[1.0], [2.0]], ["a", "b"], [" "])
        path = tmp_path / "t.tsv"
        write_tsv(t, path)
        assert path.read_text() == "\t \na\t1\nb\t2\n"
        back = read_tsv(path)
        assert back.row_labels == ("a", "b")
        assert back.col_labels == (" ",)
        np.testing.assert_array_equal(back.counts, t.counts)

    def test_ragged_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("\tx\ty\nw\t1\n")
        with pytest.raises(ValueError, match="bad.tsv:2"):
            read_tsv(path)

    def test_non_numeric_cell_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("\tx\ty\nv\t1\t2\n\nw\t1\tabc\n")
        with pytest.raises(ValueError, match=r"bad\.tsv:4: .*'abc'"):
            read_tsv(path)

    @pytest.mark.parametrize("cell, problem", [
        ("nan", "non-finite"), ("inf", "non-finite"), ("-1", "negative"),
    ])
    def test_bad_count_names_file_and_line(self, tmp_path, cell, problem):
        path = tmp_path / "bad.tsv"
        path.write_text(f"\tx\ty\nv\t1\t2\n\nw\t1\t{cell}\n")
        with pytest.raises(ValueError, match=rf"bad\.tsv:4: {problem}"):
            read_tsv(path)

    def test_header_only_file_names_the_file(self, tmp_path):
        path = tmp_path / "head.tsv"
        path.write_text("\tx\ty\n")
        with pytest.raises(ValueError, match=r"no data rows: .*head\.tsv"):
            read_tsv(path)

    def test_duplicate_row_label_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("\tx\ty\nw\t1\t2\nv\t1\t1\nw\t3\t4\n")
        with pytest.raises(ValueError, match=r"dup\.tsv:4: duplicate row label 'w'"):
            read_tsv(path)

    def test_duplicate_column_label_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("\tx\tx\nw\t1\t2\n")
        with pytest.raises(ValueError, match=r"dup\.tsv:1: duplicate column label 'x'"):
            read_tsv(path)

    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb"])
    def test_separator_in_label_rejected_before_writing(self, tmp_path, bad):
        path = tmp_path / "t.tsv"
        for t in (
            ContingencyTable.from_counts([[1.0, 2.0]], [bad], ["x", "y"]),
            ContingencyTable.from_counts([[1.0, 2.0]], ["w"], ["x", bad]),
        ):
            with pytest.raises(ValueError, match="label"):
                write_tsv(t, path)
        assert not path.exists()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_tsv(path)


TRIANGLE = "\ta\tb\tc\na\t1\nb\t2\t3\n\nc\t4\t5\t6\n"  # the blank line is line 4


class TestTriangle:
    """A symmetric table's file holds its lower triangle; the reader mirrors it."""

    @staticmethod
    def round_trip(tmp_path, t):
        path = tmp_path / "t.tsv"
        write_tsv(t, path)
        assert path.read_bytes() == triangle_tsv_bytes(t)
        back = read_tsv(path)
        assert back.row_labels == t.row_labels and back.col_labels == t.col_labels
        assert back.counts.tobytes() == t.counts.tobytes()
        assert outcome(read_tsv, path) == outcome(reference_read_tsv, path)
        return path

    @pytest.mark.parametrize("block", [1, 100, 1 << 16])
    def test_integers_on_both_sides_of_the_lookup_bound(self, tmp_path, monkeypatch, block):
        bound = tables._DECIMALS_BOUND
        counts = symmetric_counts(np.random.default_rng(block), 60, 2 * bound)
        counts[0, 1:4] = counts[1:4, 0] = bound - 1, bound, bound + 1
        words = [f"w{i}" for i in range(60)]
        decoded = []
        parse_digits = tables._parse_digits
        monkeypatch.setattr(tables, "_DIGIT_BLOCK", block)
        monkeypatch.setattr(tables, "_parse_digits",
                            lambda *a: decoded.append(parse_digits(*a)) or decoded[-1])
        self.round_trip(tmp_path, ContingencyTable.from_counts(counts, words, words))
        # the rows of a triangle keep the integer decode, in blocks of any size
        assert decoded and all(d is not None and d.shape == (60 * 61 // 2,) for d in decoded)

    @pytest.mark.parametrize("big", [2**53 - 1, 2**53, 2**53 + 2, 2**60])
    def test_integers_above_two_to_the_53(self, tmp_path, big):
        counts = symmetric_counts(np.random.default_rng(big % 1013), 12, 9)
        counts[3, 7] = counts[7, 3] = big
        counts[5, 5] = 2.0**62
        words = [f"w{i}" for i in range(12)]
        self.round_trip(tmp_path, ContingencyTable.from_counts(counts, words, words))

    def test_a_non_integer_table_takes_the_per_row_path(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(83)
        counts = symmetric_counts(rng, 15, 50)
        counts[rng.random(counts.shape) < 0.3] += 0.5
        counts = np.minimum(counts, counts.T)  # symmetric again
        counts[2, 2] = 1e-300
        words = [f"w{i}" for i in range(15)]
        t = ContingencyTable.from_counts(counts, words, words)
        assert t.symmetric

        def loadtxt(*args, **kwargs):
            raise AssertionError("the rows of a triangle differ in width")

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        self.round_trip(tmp_path, t)

    @pytest.mark.parametrize("n", [1, 2])
    def test_the_smallest_tables(self, tmp_path, n):
        counts = np.array([[3.0, 1.0], [1.0, 0.0]])[:n, :n]
        path = self.round_trip(tmp_path, ContingencyTable.from_counts(counts, "ab"[:n], "ab"[:n]))
        # one column: the triangle is the full table
        assert path.read_text() == {1: "\ta\na\t3\n", 2: "\ta\tb\na\t3\nb\t1\t0\n"}[n]

    def test_a_counted_table_that_dropped_a_zero_marginal_word(self, tmp_path, caplog):
        # w's neighbours are all rare, so its counts go to the cut sink
        tokens = "a b a b r1 w r2 r3 w r4 a b c a c b".split()
        with caplog.at_level(logging.WARNING, logger="cakit.tables"):
            t = count_cooccurrences(tokens, CooccurrenceConfig(window=1, min_count=2))
        assert "dropping zero-marginal rows: w" in caplog.text and "w" not in t.row_labels
        assert t.symmetric and t.shape == (3, 3)
        self.round_trip(tmp_path, t)

    def test_a_full_symmetric_file_reads_to_the_same_table(self, tmp_path):
        # as every table file was written before the triangle
        words = [f"w{i}" for i in range(40)]
        t = ContingencyTable.from_counts(symmetric_counts(np.random.default_rng(89), 40, 9000),
                                         words, words)
        full = tmp_path / "full.tsv"
        full.write_bytes(cell_by_cell_tsv(t))
        triangle = self.round_trip(tmp_path, t)
        assert outcome(read_tsv, full) == outcome(read_tsv, triangle)

    @pytest.mark.parametrize("edit, message", [
        (("b\t2\t3", "b\t2"), "t.tsv:3: expected 3 cells, got 2"),
        (("b\t2\t3", "b\t2\t3\t9"), "t.tsv:3: expected 3 cells, got 4"),
        (("c\t4\t5\t6", "c\t4\t5"), "t.tsv:5: expected 4 cells, got 3"),
        (("b\t2\t3", "c\t2\t3"), "t.tsv:3: row label 'c' of a triangle is not column "
                                  "label 2, 'b'"),
        (("\nc\t4\t5\t6\n", "\n"), "t.tsv:3: a triangle of 3 columns ends after 2 rows"),
        (("c\t4\t5\t6\n", "c\t4\t5\t6\nd\t1\t1\t1\t1\n"),
         "t.tsv:6: row 'd' after the last row of a triangle of 3 columns"),
        (("c\t4\t5\t6", "c\t4\t-5\t6"), "t.tsv:5: negative count"),
        (("c\t4\t5\t6", "c\t4\tnan\t6"), "t.tsv:5: non-finite value"),
        (("b\t2\t3", "b\tinf\t3"), "t.tsv:3: non-finite value"),
        (("c\t4\t5\t6", "c\t4\tx\t6"), "t.tsv:5: could not convert string to float: 'x'"),
        (("\tb\tc", "\tb\ta"), "t.tsv:1: duplicate column label 'a'"),
    ], ids=["row of i cells", "row of i + 2 cells", "last row short", "label out of order",
            "missing row", "extra row", "negative cell", "nan cell", "inf cell", "word cell",
            "duplicate column label"])
    def test_rejections_name_the_line(self, tmp_path, edit, message):
        path = tmp_path / "t.tsv"
        assert edit[0] in TRIANGLE
        path.write_text(TRIANGLE.replace(*edit, 1), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path))}/{re.escape(message)}$"):
            read_tsv(path)
        assert outcome(read_tsv, path) == outcome(reference_read_tsv, path)

    def test_the_untouched_file_is_read(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(TRIANGLE, encoding="utf-8")
        assert read_tsv(path).counts.tolist() == [[1, 2, 4], [2, 3, 5], [4, 5, 6]]

    def test_reading_makes_no_second_full_array(self, tmp_path):
        # the cells of the triangle take half a V x V array, its mirror one
        n = 500
        words = [f"w{i:03d}" for i in range(n)]
        t = ContingencyTable.from_counts(symmetric_counts(np.random.default_rng(97), n, 5000),
                                         words, words)
        full, triangle = tmp_path / "full.tsv", tmp_path / "triangle.tsv"
        full.write_bytes(cell_by_cell_tsv(t))
        write_tsv(t, triangle)
        peaks = {}
        for path in (full, triangle):
            read_tsv(path)  # first-call allocations are not the reader's
            tracemalloc.start()
            try:
                read_tsv(path)
                peaks[path] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[triangle] <= peaks[full] + 0.5 * n * n * 8, peaks


def reference_cell(x):
    """The per-cell reference formatter: integers below 2**53 as ints, else repr."""
    x = float(x)
    if x == int(x) and abs(x) < 2**53:
        return str(int(x))
    return repr(x)


def cell_by_cell_tsv(t):
    lines = ["\t" + "\t".join(t.col_labels)]
    for label, row in zip(t.row_labels, t.counts):
        lines.append(label + "\t" + "\t".join(reference_cell(x) for x in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestTsvGoldenBytes:
    @pytest.mark.parametrize("big", [2.0**53 - 1, 2.0**53])
    def test_integer_table(self, tmp_path, big):
        rng = np.random.default_rng(43)
        counts = rng.integers(0, 10**6, size=(30, 20)).astype(float)
        counts[3, 4] = big
        labels = [f"r{i}" for i in range(30)], [f"c{j}" for j in range(20)]
        t = ContingencyTable.from_counts(counts, *labels)
        path = tmp_path / "int.tsv"
        write_tsv(t, path)
        assert path.read_bytes() == cell_by_cell_tsv(t)

    def test_mixed_integer_and_fractional_table(self, tmp_path):
        rng = np.random.default_rng(47)
        counts = rng.integers(0, 50, size=(12, 9)).astype(float)
        counts[::3] += rng.uniform(0, 1, size=(4, 9))
        counts[5, 5] = 1e-300
        counts[6, 6] = 2.0**60
        counts[7, 7] = 0.1
        t = ContingencyTable.from_counts(counts, [f"r{i}" for i in range(12)], list("abcdefghi"))
        path = tmp_path / "mixed.tsv"
        write_tsv(t, path)
        assert path.read_bytes() == cell_by_cell_tsv(t)
        np.testing.assert_array_equal(read_tsv(path).counts, t.counts)

    def test_equal_labels_with_asymmetric_counts_keep_the_full_form(self, tmp_path):
        counts = symmetric_counts(np.random.default_rng(73), 9, 50)
        counts[2, 6] += 1.0
        words = [f"w{i}" for i in range(9)]
        t = ContingencyTable.from_counts(counts, words, words)
        assert not t.symmetric
        write_tsv(t, tmp_path / "t.tsv")
        assert (tmp_path / "t.tsv").read_bytes() == cell_by_cell_tsv(t)

    def test_a_symmetric_table_is_written_as_its_lower_triangle(self, tmp_path):
        words = [f"w{i}" for i in range(9)]
        t = ContingencyTable.from_counts(symmetric_counts(np.random.default_rng(79), 9, 50),
                                         words, words)
        write_tsv(t, tmp_path / "t.tsv")
        assert (tmp_path / "t.tsv").read_bytes() == triangle_tsv_bytes(t)
        assert (tmp_path / "t.tsv").read_text().split("\n")[1:3] == [
            "w0\t" + reference_cell(t.counts[0, 0]),
            "\t".join(["w1", *map(reference_cell, t.counts[1, :2])])]


def symmetric_counts(rng, n, high):
    """A seeded symmetric n x n matrix of integers below ``high`` with empty cells."""
    upper = np.triu(rng.integers(0, high, size=(n, n)).astype(float))
    upper[rng.random((n, n)) < 0.2] = 0.0
    counts = upper + np.triu(upper, 1).T
    np.fill_diagonal(counts, np.diag(counts) + 1.0)  # no empty row
    return counts


def triangle_tsv_bytes(t):
    """A symmetric table's file as a triangle: row i holds its cells 0..i, cell by cell."""
    lines = ["\t" + "\t".join(t.col_labels)]
    for i, (label, row) in enumerate(zip(t.row_labels, t.counts.tolist())):
        lines.append("\t".join([label, *map(reference_cell, row[:i + 1])]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_tsv_bytes(t):
    """The bytes the two-branch writer wrote: a table of integers below 2**53
    as ``str`` of each int, any other table cell by cell through ``reference_cell``."""
    counts = t.counts
    if np.all((counts == np.trunc(counts)) & (np.abs(counts) < 2**53)):
        rows = counts.astype(np.int64).tolist()
    else:
        rows = [map(reference_cell, row) for row in counts.tolist()]
    body = "".join(label + "\t" + "\t".join(map(str, row)) + "\n"
                   for label, row in zip(t.row_labels, rows))
    return ("\t" + "\t".join(t.col_labels) + "\n" + body).encode("utf-8")


def reference_parse_numbers(path, linenos, rows):
    """The per-row number parser: one ``np.array(cells, dtype=float)`` per failing row."""
    try:
        values = np.array(rows, dtype=float)
    except ValueError:
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


def reference_lines(path):
    """Numbered non-empty lines of a UTF-8 file, split at LF only."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return [(n, line) for n, line in enumerate(fh.read().split("\n"), start=1) if line]


def reference_check_labels(path, axis, labels, linenos):
    """A file's labels hold no CR and none repeats on its axis, else ``path:line``."""
    seen = set()
    for label, lineno in zip(labels, linenos):
        if "\r" in label:
            raise ValueError(f"{path}:{lineno}: {axis} label {label!r} contains '\\t' "
                             "or a line break")
        if label in seen:
            raise ValueError(f"{path}:{lineno}: duplicate {axis} label {label!r}")
        seen.add(label)


def reference_read_tsv(path):
    """The table reader that split every line into all of its cells.

    A triangle's rows are parsed one at a time and mirrored cell by cell.
    """
    lines = reference_lines(path)
    if len(lines) < 2:
        raise ValueError(f"empty table file, no data rows: {path}")
    head_line, header = lines[0]
    col_labels = header.split("\t")[1:]
    n = len(col_labels)
    reference_check_labels(path, "column", col_labels, [head_line] * n)
    first = lines[1][1].split("\t")
    triangle = n >= 2 and len(first) == 2 and first[0] == col_labels[0]
    linenos, row_labels, rows = [], [], []
    for i, (lineno, line) in enumerate(lines[1:]):
        cells = line.split("\t")
        if triangle and i >= n:
            raise ValueError(f"{path}:{lineno}: row {cells[0]!r} after the last row of a "
                             f"triangle of {n} columns")
        if triangle and cells[0] != col_labels[i]:
            raise ValueError(f"{path}:{lineno}: row label {cells[0]!r} of a triangle is not "
                             f"column label {i + 1}, {col_labels[i]!r}")
        expected = i + 2 if triangle else n + 1
        if len(cells) != expected:
            raise ValueError(f"{path}:{lineno}: expected {expected} cells, got {len(cells)}")
        linenos.append(lineno)
        row_labels.append(cells[0])
        rows.append(cells[1:])
    if triangle and len(rows) < n:
        raise ValueError(f"{path}:{linenos[-1]}: a triangle of {n} columns ends after "
                         f"{len(rows)} rows")
    reference_check_labels(path, "row", row_labels, linenos)
    if not triangle:
        counts = reference_parse_numbers(path, linenos, rows)
        negative = (counts < 0).any(axis=1)
        if negative.any():
            raise ValueError(f"{path}:{linenos[int(np.argmax(negative))]}: negative count")
        return ContingencyTable.from_counts(counts, row_labels, col_labels)
    values = []
    for lineno, row in zip(linenos, rows):
        try:
            values.append(np.array(row, dtype=float))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    for problem, bad in (("non-finite value", lambda x: not np.isfinite(x).all()),
                         ("negative count", lambda x: (x < 0).any())):
        for lineno, row in zip(linenos, values):
            if bad(row):
                raise ValueError(f"{path}:{lineno}: {problem}")
    counts = np.zeros((n, n))
    for i, row in enumerate(values):
        for j, x in enumerate(row):
            counts[i, j] = counts[j, i] = x
    return ContingencyTable.from_counts(counts, row_labels, col_labels)


def reference_read_embeddings(path):
    """The embeddings reader that split every line into all of its cells, a
    ``col=row`` line included."""
    lines = tables._read_lines(path)
    if not lines:
        raise ValueError(f"empty embeddings file: {path}")
    head_line, header = lines[0]
    head = header.split("\t")
    where = f"{path}:{head_line}"
    if len(head) < 4:
        raise ValueError(
            f"{where}: header needs n_rows, n_cols, k and a method tag, got {len(head)} fields"
        )
    try:
        n_rows, n_cols, k = (int(x) for x in head[:3])
    except ValueError:
        raise ValueError(f"{where}: header counts {head[:3]} are not integers") from None
    if min(n_rows, n_cols, k) < 0:
        raise ValueError(f"{where}: header counts {head[:3]} must be nonnegative")
    if len(head) != 4 + k:
        raise ValueError(f"{where}: header lists {len(head) - 4} singular values, expected k={k}")
    singular_values = reference_parse_numbers(path, [head_line], [head[4:]])[0]
    points = {"row": ([], [], []), "col": ([], [], [])}
    by_reference = []  # (line number, signs) of each col=row line
    for lineno, line in lines[1:]:
        cells = line.split("\t")
        if cells[0] == "col=row":  # G is F times these column signs
            if len(cells) != k + 1:
                raise ValueError(f"{path}:{lineno}: expected {k} column signs")
            if by_reference:
                raise ValueError(f"{path}:{lineno}: a second 'col=row' line")
            for sign in cells[1:]:
                if sign not in ("1", "-1"):
                    raise ValueError(f"{path}:{lineno}: column sign {sign!r} is not 1 or -1")
            by_reference.append((lineno, cells[1:]))
            continue
        if len(cells) != k + 2:
            raise ValueError(f"{path}:{lineno}: expected {k} coordinates")
        if cells[0] not in points:
            raise ValueError(f"{path}:{lineno}: unknown point set {cells[0]!r}")
        labels, rows, linenos = points[cells[0]]
        labels.append(cells[1])
        rows.append(cells[2:])
        linenos.append(lineno)
    for lineno, _ in by_reference:
        if n_cols != n_rows:
            raise ValueError(f"{path}:{lineno}: a 'col=row' line needs n_cols = n_rows, "
                             f"the header gives {n_rows} and {n_cols}")
        if points["col"][0]:
            raise ValueError(f"{path}:{lineno}: a 'col=row' line beside "
                             f"{len(points['col'][0])} col point lines")
        points["col"] = points["row"]
    for which, (labels, _, linenos) in points.items():
        tables._check_labels(path, which, labels, "\t", linenos)
    (row_labels, F_rows, F_lines), (col_labels, G_rows, G_lines) = points.values()
    if (len(F_rows), len(G_rows)) != (n_rows, n_cols):
        raise ValueError(f"{path}: expected {n_rows} row and {n_cols} col point lines, "
                         f"got {len(F_rows)} and {len(G_rows)}")
    F = reference_parse_numbers(path, F_lines, F_rows).reshape(len(F_rows), k)
    G = reference_parse_numbers(path, G_lines, G_rows).reshape(len(G_rows), k)
    for _, signs in by_reference:
        G = np.array([[-x if sign == "-1" else x for x, sign in zip(row, signs)]
                      for row in F.tolist()]).reshape(F.shape)
    if np.any(np.diff(singular_values) > 0):
        raise ValueError(f"{where}: singular values must be sorted descending")
    if np.any(singular_values < 0):
        raise ValueError(f"{where}: singular values must be nonnegative")
    return EmbeddingSet(
        F=F,
        G=G,
        row_labels=tuple(row_labels),
        col_labels=tuple(col_labels),
        singular_values=singular_values,
        method_tag=head[3],
    )


def outcome(read, path):
    """What a reader makes of ``path``: its labels and the bytes of its arrays, or its error.

    A warning, which would reach a user's stderr, fails the test.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read(path)
    except ValueError as exc:
        return "ValueError", str(exc)
    if isinstance(got, ContingencyTable):
        arrays = (got.counts,)
        labels = (got.row_labels, got.col_labels)
    else:
        arrays = (got.F, got.G, got.singular_values)
        labels = (got.row_labels, got.col_labels, got.method_tag)
    return labels, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


# cells the bulk parse reads as float() does, rejects, or must leave to the per-row parse
ODD_CELLS = ["1_0", "١", " 4 ", "", "  ", "#1", "1#", '"1"', "nan", "-inf", "1e999", "-1",
             "-0", "4\x1c", "\x1f4", "4\xa0", "4\x0c", " 4", "𝟙", "1e-400", ".5", "5.",
             "0x10", "1,5", "abc"]

# column signs of a col=row line: the two it takes, more often, and ones it rejects
SIGN_CELLS = ["1", "-1"] * 20 + ["+1", "1.0", "0", "-0", "", " 1", "١"]

# all-digit cells at the edges of the integer decode: leading zeros, 15 digits
# (the most it decodes) and 16 (which go to np.loadtxt, one above 2**53)
DIGIT_CELLS = ["0", "007", "000000000000000", "999999999999999", "0000000000000001",
               "9007199254740993", "1000000000000000"]


def digit_cells(rng, size):
    """Random decimal strings of 1-16 digits, leading zeros included, and ``DIGIT_CELLS``."""
    cells = np.array(["".join(map(str, rng.integers(0, 10, size=n)))
                      for n in rng.integers(1, 17, size=size).ravel()], dtype=object)
    cells = cells.reshape(size)
    edge = rng.random(size) < 0.2
    cells[edge] = rng.choice(DIGIT_CELLS, size=int(edge.sum()))
    return cells


TABLE_FILES = {
    "underscore digits": "\tx\ty\na\t1_0\t2\nb\t3\t4\n",
    "arabic-indic digit": "\tx\ty\na\t١\t2\nb\t3\t4\n",
    "spaced cell": "\tx\ty\na\t 4 \t2\nb\t3\t4\n",
    "blank cell": "\tx\ty\na\t\t2\nb\t3\t4\n",
    "blank cell of a one-column table": "\tx\na\t1\nb\t\n",
    "every cell blank": "\tx\na\t\nb\t\n",
    "hash in a label": "\tx\t#y\n#a\t1\t2\nb#\t3\t4\n",
    "hash in a cell": "\tx\ty\na\t1\t2#3\nb\t3\t4\n",
    "cell opening with a hash": "\tx\ty\na\t1\t#2\nb\t3\t4\n",
    "quoted cell": '\tx\ty\na\t"1"\t2\nb\t3\t4\n',
    "nan cell": "\tx\ty\na\t1\t2\nb\tnan\t4\n",
    "negative cell": "\tx\ty\na\t1\t2\nb\t-3\t4\n",
    "negative zero": "\tx\ty\na\t-0\t2\nb\t3\t-0.0\n",
    "nan before an unreadable cell": "\tx\ty\na\tnan\t2\nb\t3\tabc\n",
    "short ragged row": "\tx\ty\na\t1\t2\nb\t3\n",
    "long ragged row": "\tx\ty\na\t1\t2\t5\nb\t3\t4\n",
    "trailing tab": "\tx\ty\na\t1\t2\t\nb\t3\t4\n",
    "separator 0x1c after a digit": "\tx\ty\na\t1\t4\x1c\nb\t3\t4\n",
    "unit separator before a digit": "\tx\ty\na\t1\t\x1f4\nb\t3\t4\n",
    "no-break space": "\tx\ty\na\t1\t4\xa0\nb\t3\t4\n",
    "no columns": "x\na\nb\n",
    "exact floats": "\tx\ty\na\t0.1\t2.5e-300\nb\t1e+22\t4.000000000000001\n",
}

EMBEDDING_FILES = {
    "k=0": "2\t1\t0\tlinear_ca\nrow\ta\nrow\tb\ncol\tx\n",
    "k=0 with a cell": "1\t1\t0\tlinear_ca\nrow\ta\t1\ncol\tx\n",
    "k=1": "2\t1\t1\tgtest\t2.5\nrow\ta\t0.5\nrow\tb\t-1e-300\ncol\tx\t3\n",
    "k=1 blank coordinate": "1\t1\t1\tgtest\t2.5\nrow\ta\t\ncol\tx\t3\n",
    "k=1 blank singular value": "1\t1\t1\tgtest\t\nrow\ta\t1\ncol\tx\t3\n",
    "k=1 nan singular value": "1\t1\t1\tgtest\tnan\nrow\ta\t1\ncol\tx\t3\n",
    "k=1 no row points": "0\t1\t1\tgtest\t2\ncol\tx\t3\n",
    "k=2 odd cells": "1\t1\t2\tws\t2\t1\nrow\ta\t1_0\t١\ncol\tx\t 4 \t0\n",
    "k=2 hash and quote": '1\t1\t2\tws\t2\t1\nrow\t#a\t1\t2\ncol\tx\t"3"\t0\n',
    "k=2 separator 0x1c": "1\t1\t2\tws\t2\t1\nrow\ta\t1\t2\x1c\ncol\tx\t3\t0\n",
    "k=2 ragged": "1\t1\t2\tws\t2\t1\nrow\ta\t1\ncol\tx\t3\t0\n",
    "k=2 inf": "1\t1\t2\tws\t2\t1\nrow\ta\t1\t2\ncol\tx\t-inf\t0\n",
    "k=2 col=row": "2\t2\t2\tws\t2\t1\nrow\ta\t1\t-0.0\nrow\tb\t0\t-3e-300\ncol=row\t-1\t1\n",
    "k=2 col=row first": "1\t1\t2\tws\t2\t1\ncol=row\t1\t1\nrow\ta\t1\t2\n",
    "k=2 col=row odd cells": "1\t1\t2\tws\t2\t1\nrow\ta\t1_0\t 4 \ncol=row\t1\t-1\n",
    "k=2 col=row non-finite": "1\t1\t2\tws\t2\t1\nrow\ta\tinf\t2\ncol=row\t1\t-1\n",
    "k=2 col=row duplicate label": "2\t2\t2\tws\t2\t1\nrow\ta\t1\t2\nrow\ta\t3\t4\n"
                                   "col=row\t1\t-1\n",
    "k=2 col=row short": "1\t1\t2\tws\t2\t1\nrow\ta\t1\t2\ncol=row\t1\n",
    "k=2 col=row bad sign": "1\t1\t2\tws\t2\t1\nrow\ta\t1\t2\ncol=row\t1\t 1\n",
    "k=2 col=row missing row": "2\t2\t2\tws\t2\t1\nrow\ta\t1\t2\ncol=row\t1\t-1\n",
    "k=0 col=row": "1\t1\t0\tlinear_ca\nrow\ta\ncol=row\n",
}


class TestCodecMatchesPerRowReference:
    """The bulk writer and parser against the per-cell writer and per-row reader."""

    @pytest.mark.parametrize("seed", range(4))
    def test_integer_tables_on_both_sides_of_the_lookup_bound(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        bound = tables._DECIMALS_BOUND
        counts = rng.integers(0, 2 * bound, size=(40, 30)).astype(float)
        counts[0, :3] = bound - 1, bound, bound + 1
        counts[1, 0] = -0.0
        counts[rng.random(counts.shape) < 0.1] = 0.0
        t = ContingencyTable.from_counts(counts)
        # the checked counts are read-only, so no negative count reaches the writer
        with pytest.raises(ValueError, match="read-only"):
            t.counts[2, :2] = -1, -bound
        write_tsv(t, tmp_path / "t.tsv")
        assert (tmp_path / "t.tsv").read_bytes() == reference_tsv_bytes(t)

    @pytest.mark.parametrize("big", [2**53 - 1, 2**53, 2**53 + 2, 2**60])
    def test_large_counts(self, tmp_path, big):
        rng = np.random.default_rng(big % 1009)
        counts = rng.integers(0, 2**53, size=(20, 10)).astype(float)
        counts[:, ::2] = rng.integers(0, 9, size=(20, 5))
        counts[3, 4] = big
        t = ContingencyTable.from_counts(counts)
        write_tsv(t, tmp_path / "t.tsv")
        assert (tmp_path / "t.tsv").read_bytes() == reference_tsv_bytes(t)
        np.testing.assert_array_equal(read_tsv(tmp_path / "t.tsv").counts, t.counts)

    @pytest.mark.parametrize("seed", range(3))
    def test_non_integer_tables(self, tmp_path, seed):
        rng = np.random.default_rng(100 + seed)
        counts = rng.integers(0, 50, size=(15, 12)).astype(float)
        fractional = rng.random(counts.shape) < 0.3
        counts[fractional] = rng.uniform(0, 1e6, size=int(fractional.sum()))
        counts[2, 2] = rng.uniform(0, 1e-300)
        t = ContingencyTable.from_counts(counts)
        write_tsv(t, tmp_path / "t.tsv")
        assert (tmp_path / "t.tsv").read_bytes() == reference_tsv_bytes(t)
        assert outcome(read_tsv, tmp_path / "t.tsv") == outcome(reference_read_tsv,
                                                               tmp_path / "t.tsv")

    # the cells at the edges of the lookup, of int and of exact integers, in
    # tables that the two-branch writer sent down either branch
    @pytest.mark.parametrize("kind", ["integer", "large integer", "non-integer", "mixed"])
    def test_one_row_formatter_writes_the_two_branch_bytes(self, tmp_path, kind):
        rng = np.random.default_rng(59)
        counts = rng.integers(0, 2 * tables._DECIMALS_BOUND, size=(30, 20)).astype(float)
        counts[rng.random(counts.shape) < 0.2] = 0.0
        edges = {"integer": [-0.0, 4095, 4096, 2**53 - 1],
                 "large integer": [-0.0, 4095, 4096, 2**53, 1e300],
                 "non-integer": [0.5, 4095.5, 1e-300, 0.1],
                 "mixed": [0.5, -0.0, 4095, 4096, 2**53, 1e300]}[kind]
        if kind == "non-integer":
            counts += rng.uniform(0.01, 0.99, size=counts.shape)
        counts[1, :len(edges)] = edges
        counts[2:6, 2:6] = edges[:4]
        t = ContingencyTable.from_counts(counts)
        write_tsv(t, tmp_path / "t.tsv")
        assert (tmp_path / "t.tsv").read_bytes() == reference_tsv_bytes(t)
        assert read_tsv(tmp_path / "t.tsv").counts.tobytes() == (t.counts + 0.0).tobytes()

    def test_cells_below_the_bound_are_looked_up(self, tmp_path, monkeypatch):
        counts = np.arange(tables._DECIMALS_BOUND, dtype=float).reshape(64, 64)
        counts[0, :2] = 0.0, -0.0

        def format_count(x):
            raise AssertionError(f"{x!r} is below the lookup bound")

        monkeypatch.setattr(tables, "_format_count", format_count)
        t = ContingencyTable.from_counts(counts)
        write_tsv(t, tmp_path / "t.tsv")
        assert (tmp_path / "t.tsv").read_bytes() == reference_tsv_bytes(t)

    @pytest.mark.parametrize("name", TABLE_FILES)
    def test_table_reader(self, tmp_path, name):
        path = tmp_path / "t.tsv"
        path.write_text(TABLE_FILES[name], encoding="utf-8")
        assert outcome(read_tsv, path) == outcome(reference_read_tsv, path)

    @pytest.mark.parametrize("name", EMBEDDING_FILES)
    def test_embeddings_reader(self, tmp_path, name):
        path = tmp_path / "emb.tsv"
        path.write_text(EMBEDDING_FILES[name], encoding="utf-8")
        assert outcome(ca.read_embeddings, path) == outcome(reference_read_embeddings, path)

    def test_seeded_tables_of_odd_cells(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(53)
        path = tmp_path / "t.tsv"
        accepted = 0
        for n in range(400):
            nr, nc = rng.integers(1, 4, size=2)
            cells = rng.integers(0, 100, size=(nr, nc)).astype(str).astype(object)
            if n % 2:
                cells[:] = digit_cells(rng, (nr, nc))
            odd = rng.random((nr, nc)) < (0.15 if n % 4 < 2 else 0.03)
            cells[odd] = rng.choice(ODD_CELLS, size=int(odd.sum()))
            lines = ["\t".join(["", *(f"c{j}" for j in range(nc))])]
            lines += ["\t".join([f"r{i}", *row]) for i, row in enumerate(cells)]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            got = outcome(read_tsv, path)
            assert got == outcome(reference_read_tsv, path), lines
            with monkeypatch.context() as m:  # blocks of one or two rows
                m.setattr(tables, "_DIGIT_BLOCK", 2)
                assert outcome(read_tsv, path) == got, lines
            accepted += got[0] != "ValueError"
        assert 100 < accepted < 350, accepted  # both outcomes are exercised

    def test_seeded_triangles_of_odd_cells(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(71)
        path = tmp_path / "t.tsv"
        accepted = 0
        for n in range(400):
            size = int(rng.integers(2, 6))
            words = [f"w{j}" for j in range(size)]
            rows = []
            for i in range(size):
                cells = (digit_cells(rng, (i + 1,)) if n % 2
                         else rng.integers(0, 100, size=i + 1).astype(str).astype(object))
                odd = rng.random(i + 1) < (0.1 if n % 4 < 2 else 0.02)
                cells[odd] = rng.choice(ODD_CELLS, size=int(odd.sum()))
                rows.append("\t".join([words[i], *cells]))
            fault, i = rng.integers(0, 16), rng.integers(size)
            if fault == 0:  # a cell too few
                rows[i] = rows[i].rsplit("\t", 1)[0]
            elif fault == 1:  # a cell too many
                rows[i] += "\t7"
            elif fault == 2:  # a label out of order
                rows[i] = "w9" + rows[i][2:]
            elif fault == 3:  # a row missing
                del rows[i]
            elif fault == 4:  # a row after the last
                rows.append("\t".join(["w9", *"1" * (size + 1)]))
            path.write_text("\n".join(["\t".join(["", *words]), *rows]) + "\n", encoding="utf-8")
            got = outcome(read_tsv, path)
            assert got == outcome(reference_read_tsv, path), rows
            with monkeypatch.context() as m:  # a block boundary after every row
                m.setattr(tables, "_DIGIT_BLOCK", 1)
                assert outcome(read_tsv, path) == got, rows
            accepted += got[0] != "ValueError"
        assert 100 < accepted < 350, accepted  # both outcomes are exercised

    def test_seeded_embeddings_of_odd_cells(self, tmp_path):
        rng = np.random.default_rng(61)
        path = tmp_path / "emb.tsv"
        accepted = by_reference = 0
        for n in range(300):
            n_rows, n_cols, k = rng.integers(0, 3), rng.integers(1, 3), rng.integers(1, 4)
            if n % 3 == 2 and rng.random() < 0.8:  # a file that carries G by reference
                n_cols = n_rows
            normal = rng.normal(size=(1 + n_rows + n_cols) * k).tolist()
            cells = np.array([repr(x) for x in normal], dtype=object).reshape(-1, k)
            if n % 2:
                cells[:] = digit_cells(rng, cells.shape)
            odd = rng.random(cells.shape) < 0.06
            cells[odd] = rng.choice(ODD_CELLS, size=int(odd.sum()))
            sets = ["row"] * n_rows + ["col"] * n_cols
            lines = ["\t".join([str(n_rows), str(n_cols), str(k), "ws", *cells[0]])]
            lines += ["\t".join([which, f"p{j}", *row])
                      for j, (which, row) in enumerate(zip(sets, cells[1:]))]
            if n % 3 == 2:
                # the col points become one col=row line, at times with a col
                # point left, a sign too many or too few, or a second line
                signs = rng.choice(SIGN_CELLS, size=k + rng.choice([0] * 8 + [-1, 1]))
                lines = lines[:1 + n_rows + (rng.random() < 0.1)]
                lines += ["\t".join(["col=row", *signs])] * (1 + (rng.random() < 0.05))
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            got = outcome(ca.read_embeddings, path)
            assert got == outcome(reference_read_embeddings, path), lines
            accepted += got[0] != "ValueError"
            by_reference += got[0] != "ValueError" and n % 3 == 2
        assert 50 < accepted < 250, accepted  # both outcomes are exercised
        assert 10 < by_reference < 60, by_reference  # col=row lines among them

    @pytest.mark.parametrize("texts", [("1\t2\t3", "4"), ("1", "2\t3\t4"),
                                       ("12\t3", "4\t5\t6", "7")])
    def test_rows_of_unequal_widths_name_the_first_long_row(self, texts):
        # every text's cells are digits and their total is rows x width, but
        # the rows are not each 2 wide
        long_row = 1 + [t.count("\t") for t in texts].index(2)
        message = f"p:{long_row}: could not broadcast input array from shape (3,) into shape (2,)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tables._parse_numbers("p", list(range(1, len(texts) + 1)), texts, [2] * len(texts))

    def test_a_count_table_is_decoded_without_loadtxt(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(67)
        counts = rng.integers(0, 5000, size=(300, 250)).astype(float)  # about 2 blocks
        counts[rng.random(counts.shape) < 0.5] = 0.0
        counts[7, :3] = 10.0**15 - 1, 10.0**14, 1.0
        t = ContingencyTable.from_counts(counts)
        write_tsv(t, tmp_path / "t.tsv")

        def loadtxt(*args, **kwargs):
            raise AssertionError("an all-digit table reached np.loadtxt")

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        assert read_tsv(tmp_path / "t.tsv").counts.tobytes() == t.counts.tobytes()

    # the last two write the cell they replace, 240, another way
    @pytest.mark.parametrize("cell", ["5.0", "1000000000000000", "-0", "\u0665",
                                      "240.0", "240".zfill(16)])
    def test_a_table_with_one_other_cell_reaches_loadtxt(self, tmp_path, monkeypatch, cell):
        path = tmp_path / "t.tsv"
        t = ContingencyTable.from_counts(np.arange(1.0, 301.0).reshape(100, 3))
        write_tsv(t, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[80].endswith("\t240")
        lines[80] = lines[80].rsplit("\t", 1)[0] + "\t" + cell
        path.write_text("\n".join(lines), encoding="utf-8")
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(a) or loadtxt(*a, **kw))
        assert outcome(read_tsv, path) == outcome(reference_read_tsv, path)
        assert len(calls) == 1
        if float(cell) == 240:  # the same counts, so the same fit
            assert read_tsv(path).counts.tobytes() == t.counts.tobytes()


class TestByteOrderMark:
    @pytest.mark.parametrize("kind", ["table", "embeddings"])
    def test_a_marked_copy_reads_back_like_the_plain_file(self, tmp_path, kind):
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        if kind == "table":
            write_tsv(fisher_table(), plain)
            read = read_tsv
        else:
            ca.write_embeddings(fit_linear_ca(fisher_table(), 3), plain)
            read = ca.read_embeddings
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert outcome(read, marked) == outcome(read, plain)
        assert outcome(read, plain)[0] != "ValueError"


def _write_failing_table(path, monkeypatch):
    calls = []

    def format_count(x):
        calls.append(x)
        if len(calls) > 7:
            raise RuntimeError("formatting failed")
        return repr(float(x))

    monkeypatch.setattr(tables, "_format_count", format_count)
    write_tsv(ContingencyTable.from_counts(np.full((4, 4), 0.5)), path)


def _write_failing_embeddings(write, path, monkeypatch):
    """``write`` a fit whose coordinates fail to format, after its header line is out.

    The writers format the header first, then each coordinate through
    the module's ``repr``; the third call raises, which is a
    coordinate for both writers (``write_embeddings`` formats the two
    singular values in its header, ``export_coordinates`` none).
    """
    calls = []

    def format_float(x):
        calls.append(x)
        if len(calls) > 2:
            raise RuntimeError("formatting failed")
        return repr(x)

    emb = fit_linear_ca(fisher_table(), 2)
    monkeypatch.setattr(ca, "repr", format_float, raising=False)
    write(emb, path)


class TestAtomicWriters:
    @pytest.mark.parametrize("writer", ["write_tsv", "write_embeddings", "export_coordinates"])
    def test_failed_write_keeps_the_earlier_file(self, writer, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        if writer == "write_tsv":
            write_tsv(fisher_table(), path)
            fail = lambda: _write_failing_table(path, monkeypatch)  # noqa: E731
        else:
            write = getattr(ca, writer)
            write(fit_linear_ca(fisher_table(), 2), path)
            fail = lambda: _write_failing_embeddings(write, path, monkeypatch)  # noqa: E731
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="formatting failed"):
            fail()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_write_replaces_the_earlier_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("stale\n" * 100)
        write_tsv(fisher_table(), path)
        assert read_tsv(path).counts.tolist() == fisher_table().counts.tolist()
        assert [p.name for p in tmp_path.iterdir()] == ["t.tsv"]

    def test_missing_directory_error_names_the_target(self, tmp_path):
        path = tmp_path / "missing" / "t.tsv"
        with pytest.raises(FileNotFoundError) as info:
            write_tsv(fisher_table(), path)
        assert info.value.filename == str(path)


@pytest.mark.parametrize("counts, rows, cols, message", [
    (np.ones(3), ("a", "b", "c"), ("x",), "counts must be 2-dimensional, got shape (3,)"),
    (np.ones((2, 2)), ("a",), ("x", "y"),
     "counts shape (2, 2) does not match 1 row / 2 column labels"),
    (np.ones((2, 2)), ("a", "b"), ("x", "y", "z"),
     "counts shape (2, 2) does not match 2 row / 3 column labels"),
    # the label rule of every reader, so no writer meets such a table
    (np.ones((2, 2)), (1, 2), ("x", "y"), "row label 1 is not a string"),
    (np.ones((2, 2)), ("w", "w"), ("x", "y"), "duplicate row label 'w'"),
    (np.ones((2, 2)), ("a", "b"), ("x", b"y"), "column label b'y' is not a string"),
    (np.ones((2, 2)), ("a", "b"), ("x", "x"), "duplicate column label 'x'"),
], ids=["1-D counts", "row labels", "column labels", "non-string row label",
        "duplicate row label", "non-string column label", "duplicate column label"])
def test_constructor_rejections(counts, rows, cols, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ContingencyTable(counts, rows, cols)
