"""Seeded mutation fuzzing of every file reader: each mutant file is read, or
rejected with a ``ValueError`` that names the file."""

import numpy as np
import pytest

from cakit import ca, cli, corpus, evaluation, tables
from cakit.datasets import fisher_table
from cakit.kca import KcaMethod, fit_kca, method_from_name

# inserted whole at a random offset: the separators and line breaks every
# reader splits on, a byte-order mark and its first one or two bytes
FRAGMENTS = [b"\t", b"\r", b"\n", b"\r\n", b"\xef\xbb\xbf", b"\xef", b"\xef\xbb"]
MUTANTS = 60  # per file form


def symmetric_table():
    counts = np.array([[4.0, 1.0, 0.0, 2.0], [1.0, 0.0, 3.0, 1.0],
                       [0.0, 3.0, 5.0, 0.0], [2.0, 1.0, 0.0, 6.0]])
    words = ("the", "cat", "sat", "mat")
    return tables.ContingencyTable(counts, words, words)


def write_forms(tmp_path):
    """A valid file of each form that a reader takes, and the reader, by form name."""
    forms = {}

    def add(name, read, write):
        path = tmp_path / f"{name}.txt"
        write(path)
        forms[name] = (read, path.read_bytes())

    add("full table", tables.read_tsv, lambda p: tables.write_tsv(fisher_table(), p))
    add("triangle table", tables.read_tsv, lambda p: tables.write_tsv(symmetric_table(), p))
    add("embeddings", ca.read_embeddings,
        lambda p: ca.write_embeddings(fit_kca(fisher_table(), KcaMethod("linear"), 2), p))
    add("embeddings col=row", ca.read_embeddings,
        lambda p: ca.write_embeddings(fit_kca(symmetric_table(), method_from_name("gini"), 2), p))
    add("pairs", evaluation.load_wordsim,
        lambda p: p.write_bytes(b"cat\tsat\t7.5\nthe mat 2\nmat,cat,4\n"))
    add("stop words", corpus.load_stopwords, lambda p: p.write_bytes(b"the\nof\n  a  \n"))
    add("config", lambda p: cli.parse_method_config(tables._read_text(p), f"{p}:"),
        lambda p: p.write_bytes(b"# gini\nmethod=sgns\nshift_k=2\ndim=2\n"))
    return forms


def mutate(rng, data: bytes) -> bytes:
    """One to three byte flips, deletions, truncations or fragment insertions."""
    data = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(0, len(data) + 1))
        kind = int(rng.integers(4))
        if kind == 0 and at < len(data):
            data[at] = int(rng.integers(256))
        elif kind == 1:
            del data[at:at + int(rng.integers(1, 5))]
        elif kind == 2:
            del data[at:]
        else:
            data[at:at] = FRAGMENTS[int(rng.integers(len(FRAGMENTS)))]
    return bytes(data)


def test_every_reader_reads_or_names_the_file_on_mutated_input(tmp_path):
    rng = np.random.default_rng(2016)
    path = tmp_path / "mutant.txt"
    rejected = 0
    for name, (read, data) in write_forms(tmp_path).items():
        read(tmp_path / f"{name}.txt")  # the unmutated file reads
        for _ in range(MUTANTS):
            mutant = mutate(rng, data)
            path.write_bytes(mutant)
            try:
                read(path)
            except ValueError as exc:
                rejected += 1
                assert str(exc).startswith(str(path)), (name, mutant, str(exc))
            except Exception as exc:  # noqa: BLE001 - any other error is the finding
                pytest.fail(f"{name}: {type(exc).__name__}: {exc} on {mutant!r}")
    assert rejected > MUTANTS  # the mutants reach the readers' error paths
