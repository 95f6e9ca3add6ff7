"""The benchmark's workloads: inputs made from a seed, one iteration's steps, checks.

Each workload writes plain files (corpus, word-pair scores, stop-list) into
its directory; cakit sees only those files.  The checks compare cakit's
outputs with the independent numpy references of ``reference.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from cakit import ca, gini, tables

SPECTRUM_TOL = 1e-8  # singular values, as a share of the largest
METRIC_TOL = 1e-8  # F^T D(r) F = diag(S^2), as a share of S_1^2
NUCLEAR_TOL = 1e-10  # rotated covariance = nuclear norm / 2, relative
RHO_TOL = 1e-5  # eval prints rho with six decimals
MIN_SEPARATION = 0.9  # within-cluster cosines above cross-cluster ones


@dataclass
class Step:
    """One command of an iteration: ``cakit`` CLI arguments, or a library call."""

    kind: str  # count, fit, eval or lib
    argv: list | None = None
    call: Callable | None = None
    out: Path | None = None

    @property
    def stdout(self) -> str:
        """What the command must print: the output path, except eval (report goes to --out)."""
        return "" if self.kind == "eval" else f"{self.out}\n"


def spectrum(M):
    return np.linalg.svd(M, compute_uv=False)


def cli_step(kind, *args, out) -> Step:
    return Step(kind, argv=[kind, *map(str, args), "--out", str(out)], out=out)


def zipf_ids(rng, types, tokens, s=1.1):
    p = np.arange(1, types + 1, dtype=float) ** -s
    return rng.choice(types, size=tokens, p=p / p.sum())


def random_pairs(rng, words, n):
    """``n`` distinct unordered pairs of different words with scores in [0, 10]."""
    n = min(n, len(words) * (len(words) - 1) // 2)
    scores = {}
    while len(scores) < n:
        a, b = sorted(rng.integers(len(words), size=2).tolist())
        if a != b and (a, b) not in scores:
            scores[a, b] = round(float(rng.uniform(0.0, 10.0)), 2)
    return [(words[a], words[b], s) for (a, b), s in scores.items()]


def write_pairs(path, pairs):
    path.write_text("".join(f"{a}\t{b}\t{s}\n" for a, b, s in pairs), encoding="utf-8")


def read_report(path):
    """Rows of an eval report as (rho, used, skipped)."""
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return [(float(r[2]), int(r[3]), int(r[4])) for r in (line.split("\t") for line in rows)]


class Workload:
    """Base: a directory of generated inputs and the references built from them."""

    name = ""
    why = ""
    SIZE: dict = {}

    def __init__(self, **size):
        self.size = {**self.SIZE, **size}
        self.d = Path()
        self.notes = {}  # result-quality figures the checks saw, for the run record

    def setup(self, d: Path, rng):
        """Write the inputs into ``d``."""
        self.d = d
        d.mkdir(parents=True)
        self.words, self.ids, self.pairs = self.generate(rng)
        (d / "corpus.txt").write_text(" ".join(np.asarray(self.words)[self.ids]) + "\n",
                                      encoding="utf-8")
        write_pairs(d / "pairs.tsv", self.pairs)

    def generate(self, rng):
        """Zipf text over ``types`` words and random scored pairs; (words, ids, pairs)."""
        words = [f"w{i:04d}" for i in range(self.size["types"])]
        ids = zipf_ids(rng, self.size["types"], self.size["tokens"])
        return words, ids, random_pairs(rng, words, self.size["pairs"])

    def prepare(self):
        """Reference table and spectra; run once, outside set-up and timing."""
        self.N, self.labels = ref.cooccurrence_counts(self.ids, self.words, self.size["window"])

    def check_fit(self, emb_path, method):
        """Yield the spectrum check (and the metric check of a linear fit); return the fit."""
        emb = ca.read_embeddings(emb_path)
        S_ref = self.spectra[method]
        yield f"{method} spectrum", (
            emb.k == self.size["dim"]
            and np.max(np.abs(emb.singular_values - S_ref[: emb.k])) <= SPECTRUM_TOL * S_ref[0])
        if method == "linear":
            F, S = emb.F, emb.singular_values
            gram = F.T @ (self.N.sum(axis=1)[:, None] * F)
            yield "linear F'D(r)F = S^2", (
                np.max(np.abs(gram - np.diag(S * S))) <= METRIC_TOL * S[0] ** 2)
        return emb

    def check_eval(self, report_path, what):
        """Yield the coverage check of a one-dataset report; return its rho."""
        rows = read_report(report_path)
        yield f"{what} eval coverage", len(rows) == 1 and rows[0][1] + rows[0][2] == len(self.pairs)
        return rows[0][0]


class Pipeline(Workload):
    """count -> fit --method linear -> eval on one corpus."""

    def steps(self):
        d, s = self.d, self.size
        return [
            cli_step("count", d / "corpus.txt", "--window", s["window"], out=d / "table.tsv"),
            cli_step("fit", d / "table.tsv", "--method", "linear", "--dim", s["dim"],
                     out=d / "emb.tsv"),
            cli_step("eval", d / "emb.tsv", "--which", "F", "--wordsim", d / "pairs.tsv",
                     out=d / "report.tsv"),
        ]

    def prepare(self):
        super().prepare()
        self.spectra = {"linear": spectrum(ref.sandwich(self.N, self.labels, "linear"))}

    def check(self, values):
        yield from self.check_fit(self.d / "emb.tsv", "linear")
        yield from self.check_eval(self.d / "report.tsv", "linear")


class ZipfPipeline(Pipeline):
    name = "zipf_pipeline"
    why = "dense V=1200 table: the O(V^3) fit, its overhead and table I/O dominate; eval is small"
    SIZE = dict(types=1200, tokens=300_000, pairs=3000, window=2, dim=100)


class PlantedPipeline(Pipeline):
    name = "planted_pipeline"
    why = "500k-token planted-cluster corpus at V=400: counting and eval dominate, the fit is small"
    SIZE = dict(clusters=8, cluster_size=50, block=20, tokens=500_000, window=4, dim=10)

    def generate(self, rng):
        s = self.size
        words = [f"c{c}w{w:02d}" for c in range(s["clusters"]) for w in range(s["cluster_size"])]
        blocks = -(-s["tokens"] // s["block"])
        topics = rng.integers(s["clusters"], size=blocks)
        members = rng.integers(s["cluster_size"], size=(blocks, s["block"]))
        ids = (topics[:, None] * s["cluster_size"] + members).ravel()[: s["tokens"]]
        same = lambda a, b: a // s["cluster_size"] == b // s["cluster_size"]  # noqa: E731
        pairs = [(words[a], words[b], 10.0 if same(a, b) else 1.0)
                 for a, b in itertools.combinations(range(len(words)), 2)]
        return words, ids, pairs

    def prepare(self):
        super().prepare()
        scores = np.array([p[2] for p in self.pairs])
        sims = ref.pair_cosines(ref.linear_ca_rows(self.N, self.size["dim"]), self.labels,
                                self.pairs)
        self.rho_ref = ref.spearman(sims, scores)

    def check(self, values):
        emb = yield from self.check_fit(self.d / "emb.tsv", "linear")
        rho = yield from self.check_eval(self.d / "report.tsv", "linear")
        yield "planted rho matches reference", abs(rho - self.rho_ref) <= RHO_TOL
        scores = np.array([p[2] for p in self.pairs])
        sims = ref.pair_cosines(emb.F, emb.row_labels, self.pairs)
        separation = ref.exceed_fraction(sims[scores == 10.0], sims[scores == 1.0])
        self.notes.update(rho=rho, rho_reference=self.rho_ref, separation=separation)
        yield "planted separation", separation >= MIN_SEPARATION


# (name, fit flags) in fit order; the stop-list and score files are filled in per directory.
SWEEP = (
    ("linear", ["--method", "linear"]),
    ("gini", ["--method", "gini"]),
    ("gtest", ["--method", "gtest"]),
    ("sgns", ["--method", "sgns", "--shift-k", "5"]),
    ("kpca_cd", ["--method", "kpca_cd"]),
    ("linear+sw", ["--method", "linear", "--sw-alpha-row", "-0.5", "--sw-alpha-col", "-0.5",
                   "--stopwords", "{stopwords}"]),
    ("ws", ["--method", "ws", "--ws-scores", "{pairs}"]),
)


class MethodSweep(Workload):
    name = "method_sweep"
    why = "every method and kernel kind on one V=500 table, read 8 times per iteration"
    SIZE = dict(types=500, tokens=150_000, pairs=3000, stopwords=20, window=2, dim=50)

    def setup(self, d, rng):
        super().setup(d, rng)
        # the most frequent types, as real stop words are
        self.stopwords = self.words[: self.size["stopwords"]]
        (d / "stopwords.txt").write_text("".join(w + "\n" for w in self.stopwords),
                                         encoding="utf-8")

    def steps(self):
        d, s = self.d, self.size
        table = d / "table.tsv"
        files = {"stopwords": d / "stopwords.txt", "pairs": d / "pairs.tsv"}
        steps = [cli_step("count", d / "corpus.txt", "--window", s["window"], out=table)]
        for i, (_, flags) in enumerate(SWEEP):
            flags = [f.format(**files) for f in flags]
            steps.append(cli_step("fit", table, *flags, "--dim", s["dim"], out=d / f"emb{i}.tsv"))
            steps.append(cli_step("eval", d / f"emb{i}.tsv", "--wordsim", d / "pairs.tsv",
                                  out=d / f"report{i}.tsv"))
        # looked up at call time, so a traced iteration sees the wrapped functions
        steps.append(Step(
            "lib", call=lambda: gini.rotated_covariance(tables.read_tsv(table)).value))
        return steps

    def prepare(self):
        super().prepare()
        self.spectra = {
            method: spectrum(ref.sandwich(
                self.N, self.labels, method, shift_k=5.0, stopwords=set(self.stopwords),
                sw_alpha=-0.5, scores=self.pairs))
            for method, _ in SWEEP
        }

    def check(self, values):
        for i, (method, _) in enumerate(SWEEP):
            yield from self.check_fit(self.d / f"emb{i}.tsv", method)
            yield from self.check_eval(self.d / f"report{i}.tsv", method)
        half_nuclear = 0.5 * math.fsum(self.spectra["gini"])
        yield "rotated covariance = nuclear norm / 2", (
            abs(values[-1] - half_nuclear) <= NUCLEAR_TOL * half_nuclear)


WORKLOADS = {w.name: w for w in (ZipfPipeline, PlantedPipeline, MethodSweep)}
