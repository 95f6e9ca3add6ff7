"""Linear correspondence analysis: constraints, coordinates, file formats."""

import numpy as np
import pytest

from cakit.ca import (
    EmbeddingSet,
    default_dimension,
    export_coordinates,
    fit_linear_ca,
    read_embeddings,
    write_embeddings,
)
from cakit.datasets import fisher_table
from cakit.tables import ContingencyTable, residual_matrix


def read_coordinates(path):
    """Read back an exported coordinate CSV as (point_set, label, vector) rows."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append((cells[0], cells[1], np.array([float(x) for x in cells[2:]])))
    return rows


def random_table(rng, nr=None, nc=None, hi=20):
    nr = nr or int(rng.integers(2, 6))
    nc = nc or int(rng.integers(2, 6))
    counts = rng.integers(0, hi, size=(nr, nc)) + 0.0
    counts[0, 0] += 1
    return ContingencyTable.from_counts(counts)


class TestFitLinearCa:
    def test_independence_table_collapses(self):
        t = ContingencyTable.from_counts([[2.0, 4.0], [1.0, 2.0]])
        emb = fit_linear_ca(t, 1)
        assert emb.singular_values[0] < 1e-12
        np.testing.assert_allclose(emb.F, 0.0, atol=1e-10)
        np.testing.assert_allclose(emb.G, 0.0, atol=1e-10)

    def test_survey_table_metric_constraints(self):
        t = fisher_table()
        emb = fit_linear_ca(t, 2)
        dec = emb.decomposition
        k = dec.S.shape[0]
        np.testing.assert_allclose(
            dec.U.T @ np.diag(1.0 / t.r) @ dec.U, np.eye(k), atol=1e-8
        )
        np.testing.assert_allclose(
            dec.V.T @ np.diag(1.0 / t.c) @ dec.V, np.eye(k), atol=1e-8
        )
        np.testing.assert_allclose(dec.reconstruct(), residual_matrix(t), atol=1e-8)

    def test_survey_map_pairs_dark_with_dark(self):
        # the two "dark" categories sit nearest each other across point sets
        emb = fit_linear_ca(fisher_table(), 2)
        f_dark = emb.F[emb.row_labels.index("dark")]
        g_dark = emb.G[emb.col_labels.index("dark")]
        dists_to_cols = np.linalg.norm(emb.G - f_dark, axis=1)
        assert emb.col_labels[int(np.argmin(dists_to_cols))] == "dark"
        dists_to_rows = np.linalg.norm(emb.F - g_dark, axis=1)
        assert emb.row_labels[int(np.argmin(dists_to_rows))] == "dark"

    def test_two_by_two_diagonal_hand_case(self):
        # standardized residual is 0.125 * [[1,-1],[-1,1]]: one nonzero
        # singular value 0.25, antisymmetric first axis
        t = ContingencyTable.from_counts([[2.0, 0.0], [0.0, 2.0]])
        emb = fit_linear_ca(t, 1)
        assert emb.singular_values[0] == pytest.approx(0.25, abs=1e-12)
        assert emb.F[0, 0] == pytest.approx(-emb.F[1, 0], abs=1e-12)
        assert abs(emb.F[0, 0]) == pytest.approx(0.125, abs=1e-12)

    def test_coordinates_derive_from_decomposition(self):
        t = fisher_table()
        emb = fit_linear_ca(t, 3)
        dec = emb.decomposition
        F = (dec.U[:, :3] / t.r[:, None]) * dec.S[:3]
        G = (dec.V[:, :3] / t.c[:, None]) * dec.S[:3]
        np.testing.assert_allclose(emb.F, F, atol=1e-10)
        np.testing.assert_allclose(emb.G, G, atol=1e-10)

    def test_full_rank_reconstruction_random(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            t = random_table(rng)
            dec = fit_linear_ca(t, min(t.shape)).decomposition
            np.testing.assert_allclose(dec.reconstruct(), residual_matrix(t), atol=1e-8)

    def test_scale_invariance_on_normalized_tables(self):
        # N/n and (10N)/(10n) are the same normalized table; the fit must agree
        rng = np.random.default_rng(71)
        counts = rng.integers(1, 15, size=(4, 5)) + 0.0
        a = ContingencyTable.from_counts(counts).normalized()
        b = ContingencyTable.from_counts(10.0 * counts).normalized()
        fa = fit_linear_ca(a, 3)
        fb = fit_linear_ca(b, 3)
        np.testing.assert_allclose(fa.F, fb.F, atol=1e-9)
        np.testing.assert_allclose(fa.G, fb.G, atol=1e-9)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(73)
        counts = rng.integers(1, 15, size=(5, 4)) + 0.0
        labels = tuple("abcde")
        t = ContingencyTable.from_counts(counts, labels, ("w", "x", "y", "z"))
        perm = np.array([3, 0, 4, 1, 2])
        tp = ContingencyTable.from_counts(
            counts[perm], tuple(labels[i] for i in perm), ("w", "x", "y", "z")
        )
        base = fit_linear_ca(t, 2)
        permuted = fit_linear_ca(tp, 2)
        np.testing.assert_allclose(permuted.F, base.F[perm], atol=1e-10)
        np.testing.assert_allclose(permuted.G, base.G, atol=1e-10)

    def test_k_out_of_range(self):
        t = fisher_table()
        with pytest.raises(ValueError, match="out of range"):
            fit_linear_ca(t, 0)
        with pytest.raises(ValueError, match="out of range"):
            fit_linear_ca(t, 5)

    def test_default_dimension(self):
        assert default_dimension(fisher_table()) == 3
        one = ContingencyTable.from_counts([[1.0]])
        assert default_dimension(one) == 1


class TestCoordinateExport:
    def test_survey_export_has_nine_points(self, tmp_path):
        emb = fit_linear_ca(fisher_table(), 2)
        path = tmp_path / "coords.csv"
        export_coordinates(emb, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "point_set,label,dim_1,dim_2"
        assert len(lines) == 1 + 4 + 5

    def test_empty_set_writes_header_only(self, tmp_path):
        empty = EmbeddingSet(
            F=np.zeros((0, 0)),
            G=np.zeros((0, 0)),
            row_labels=(),
            col_labels=(),
            singular_values=np.zeros(0),
            method_tag="none",
        )
        path = tmp_path / "empty.csv"
        export_coordinates(empty, path)
        assert path.read_text() == "point_set,label\n"

    def test_round_trip_bit_exact(self, tmp_path):
        emb = fit_linear_ca(fisher_table(), 2)
        path = tmp_path / "coords.csv"
        export_coordinates(emb, path)
        rows = read_coordinates(path)
        stacked = np.vstack([vec for _, _, vec in rows])
        np.testing.assert_array_equal(stacked, np.vstack([emb.F, emb.G]))
        assert [r[1] for r in rows] == list(emb.row_labels) + list(emb.col_labels)


class TestEmbeddingsFile:
    def test_round_trip(self, tmp_path):
        emb = fit_linear_ca(fisher_table(), 2)
        path = tmp_path / "emb.tsv"
        write_embeddings(emb, path)
        back = read_embeddings(path)
        assert back.row_labels == emb.row_labels
        assert back.col_labels == emb.col_labels
        assert back.method_tag == emb.method_tag
        np.testing.assert_array_equal(back.F, emb.F)
        np.testing.assert_array_equal(back.G, emb.G)
        np.testing.assert_array_equal(back.singular_values, emb.singular_values)

    def test_rejects_truncated_file(self, tmp_path):
        emb = fit_linear_ca(fisher_table(), 2)
        path = tmp_path / "emb.tsv"
        write_embeddings(emb, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="point lines"):
            read_embeddings(path)

    @pytest.fixture
    def emb_lines(self, tmp_path):
        path = tmp_path / "emb.tsv"
        write_embeddings(fit_linear_ca(fisher_table(), 2), path)
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_coordinate(self, emb_lines, bad):
        path, lines = emb_lines
        cells = lines[3].split("\t")
        cells[2] = bad
        lines[3] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"emb\.tsv:4: non-finite"):
            read_embeddings(path)

    def test_rejects_non_finite_singular_value(self, emb_lines):
        path, lines = emb_lines
        head = lines[0].split("\t")
        head[4] = "nan"
        path.write_text("\n".join(["\t".join(head)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"emb\.tsv:1: non-finite"):
            read_embeddings(path)

    def test_rejects_header_with_fewer_singular_values_than_k(self, emb_lines):
        path, lines = emb_lines
        head = lines[0].split("\t")
        path.write_text("\n".join(["\t".join(head[:-1])] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"emb\.tsv:1: header lists 1 singular values, expected k=2"):
            read_embeddings(path)

    def test_rejects_short_header(self, emb_lines):
        path, lines = emb_lines
        path.write_text("\n".join(["4\t5"] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"emb\.tsv:1: header needs"):
            read_embeddings(path)

    def test_rejects_non_integer_header_counts(self, emb_lines):
        path, lines = emb_lines
        head = lines[0].split("\t")
        head[2] = "two"
        path.write_text("\n".join(["\t".join(head)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"emb\.tsv:1: header counts"):
            read_embeddings(path)

    def test_rejects_non_numeric_coordinate_naming_line(self, emb_lines):
        path, lines = emb_lines
        lines[5] = lines[5].rsplit("\t", 1)[0] + "\tx"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"emb\.tsv:6: could not convert"):
            read_embeddings(path)

    def test_rejects_duplicate_label_within_a_point_set(self, emb_lines):
        path, lines = emb_lines
        label = lines[1].split("\t")[1]
        cells = lines[2].split("\t")
        cells[1] = label
        lines[2] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"emb\.tsv:3: duplicate row label '{label}'"):
            read_embeddings(path)

    def test_writer_rejects_duplicate_labels_before_opening(self, tmp_path):
        emb = fit_linear_ca(fisher_table(), 2)
        labels = (emb.row_labels[0],) + emb.row_labels[:-1]
        dup = EmbeddingSet(F=emb.F, G=emb.G, row_labels=labels, col_labels=emb.col_labels,
                           singular_values=emb.singular_values, method_tag=emb.method_tag)
        path = tmp_path / "emb.tsv"
        with pytest.raises(ValueError, match="duplicate row label"):
            write_embeddings(dup, path)
        assert not path.exists()

    @pytest.mark.parametrize("writer, bad", [
        (write_embeddings, "a\tb"), (write_embeddings, "a\nb"), (write_embeddings, "a\rb"),
        (export_coordinates, "a,b"), (export_coordinates, "a\nb"), (export_coordinates, "a\rb"),
        (export_coordinates, '"quoted" word'),
    ], ids=lambda x: getattr(x, "__name__", repr(x)))
    def test_writers_reject_labels_their_reader_would_split(self, tmp_path, writer, bad):
        emb = fit_linear_ca(fisher_table(), 2)
        path = tmp_path / "out"
        for rows, cols in ((emb.row_labels[:-1] + (bad,), emb.col_labels),
                           (emb.row_labels, (bad,) + emb.col_labels[1:])):
            split = EmbeddingSet(F=emb.F, G=emb.G, row_labels=rows, col_labels=cols,
                                 singular_values=emb.singular_values, method_tag=emb.method_tag)
            with pytest.raises(ValueError, match="label .* contains"):
                writer(split, path)
        assert not path.exists()

    @pytest.mark.parametrize("field", ["F", "G", "singular_values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected_at_construction(self, field, bad):
        emb = fit_linear_ca(fisher_table(), 2)
        parts = dict(F=emb.F.copy(), G=emb.G.copy(), singular_values=emb.singular_values.copy())
        parts[field][-1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            EmbeddingSet(row_labels=emb.row_labels, col_labels=emb.col_labels,
                         method_tag=emb.method_tag, **parts)

    def test_rejects_point_set_sizes_other_than_the_header_counts(self, emb_lines):
        # 4 row and 5 col lines under a header that claims 5 and 4
        path, lines = emb_lines
        head = lines[0].split("\t")
        head[:2] = head[1], head[0]
        path.write_text("\n".join(["\t".join(head)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"emb\.tsv: expected 5 row and 4 col point lines"):
            read_embeddings(path)
