"""Spans around the public functions of every cakit module, recorded from outside.

A :class:`Tracer` wraps each public function of each ``cakit`` module and,
while a traced iteration runs, rebinds every module attribute that refers to
an original, so that ``kca.svd`` and ``gini.svd`` (imported by name) are
traced as well as ``linalg.svd``.  The originals are restored when the
iteration ends.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import defaultdict

import numpy as np

# Called once per word pair from evaluation.evaluate; a span per call would
# cost more than the call, so its time stays in the caller's self time.
UNTRACED = {"evaluation.cosine"}

# Per-layer metric -> the functions whose busy time it sums.
FUNCTION_METRICS = {
    "corpus.tokenize_s": ("corpus.tokenize",),
    "corpus.count_s": ("corpus.count_cooccurrences",),
    "tables.write_s": ("tables.write_tsv",),
    "tables.read_s": ("tables.read_tsv",),
    "tables.residual_s": ("tables.residual_matrix",),
    "linalg.svd_s": ("linalg.svd",),
    "linalg.spd_sqrt_s": ("linalg.spd_sqrt",),
    "linalg.gsvd_s": ("linalg.metric_gsvd",),
    "ca.fit_s": ("ca.fit_linear_ca",),
    "ca.write_emb_s": ("ca.write_embeddings",),
    "ca.read_emb_s": ("ca.read_embeddings",),
    "kca.fit_s": ("kca.fit_kca", "kca.fit_ws_kca"),
    "kca.association_s": ("kca.association_matrix",),
    "kca.kernel_s": ("kca.materialize_kernel",),
    "kca.gamma_s": ("kca.build_gamma",),
    "evaluation.load_s": ("evaluation.load_wordsim",),
    "evaluation.evaluate_s": ("evaluation.evaluate",),
    "gini.rotated_covariance_s": ("gini.rotated_covariance",),
}
FIT_FUNCTIONS = {"ca.fit_linear_ca": "ca", "kca.fit_kca": "kca", "kca.fit_ws_kca": "kca"}


def svd_gflop(shape) -> float:
    """Computed, not measured: thin SVD with U1, S and V by Golub-Reinsch,
    14 m n^2 + 8 n^3 flops for m >= n (Golub & Van Loan, Matrix Computations)."""
    m, n = max(shape), min(shape)
    return (14.0 * m * n * n + 8.0 * n**3) / 1e9


def _array_bytes(obj, seen) -> int:
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        return sum(_array_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    return 0


def _cells(t) -> dict:
    return {"tables.nnz": np.count_nonzero(t.counts), "tables.cells": t.counts.size}


def _fit_counts(layer):
    def count(args, emb):
        dec = emb.decomposition
        return {
            f"{layer}.result_mb": _array_bytes(emb, set()) / 1e6,
            "linalg.k_kept": emb.k,
            "linalg.k_computed": emb.k if dec is None else dec.S.size,
        }
    return count


# Function -> counts taken from its bound arguments and its result.
COUNTERS = {
    "corpus.count_cooccurrences": lambda a, t: {
        "corpus.tokens": len(a["tokens"]), "corpus.pairs": t.n},
    "tables.write_tsv": lambda a, _: {
        "tables.bytes_written": os.path.getsize(a["path"]), **_cells(a["t"])},
    "tables.read_tsv": lambda a, t: {
        "tables.bytes_read": os.path.getsize(a["path"]), **_cells(t)},
    "linalg.svd": lambda a, _: {
        "linalg.svd_calls": 1, "linalg.svd_gflop": svd_gflop(np.shape(a["M"]))},
    "ca.write_embeddings": lambda a, _: {"ca.emb_bytes": os.path.getsize(a["path"])},
    "kca.materialize_kernel": lambda a, K: {"kca.kernel_cells": K.size},
    "evaluation.evaluate": lambda a, rep: {
        "evaluation.pairs_used": rep.pairs_used, "evaluation.pairs_skipped": rep.pairs_skipped},
    **{name: _fit_counts(layer) for name, layer in FIT_FUNCTIONS.items()},
}


@dataclasses.dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    iteration: int
    start: float = 0.0
    end: float = 0.0


class Tracer:
    """Records spans and counts for the iterations run under :meth:`record`."""

    def __init__(self, package):
        self.spans: list[Span] = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._iteration = -1
        self._modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self._wrappers = {}
        for module in self._modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in vars(module).items():
                qualified = f"{layer}.{name}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and qualified not in UNTRACED):
                    self._wrappers[id(fn)] = (fn, self._wrap(fn, layer, qualified))

    def _wrap(self, fn, layer, name):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, layer,
                        self._stack[-1] if self._stack else None, self._iteration)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for key, value in count(bound, result).items():
                    self.counts[self._iteration][key] += value
            return result

        return traced

    @contextlib.contextmanager
    def record(self, iteration: int):
        """Trace one iteration: rebind every reference to a wrapped function, then restore."""
        patched = []
        try:
            for module in self._modules:
                for name, value in list(vars(module).items()):
                    entry = self._wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, name, entry[1])
                        patched.append((module, name, value))
            self._iteration = iteration
            yield self
        finally:
            for module, name, value in patched:
                setattr(module, name, value)
            self._iteration = -1

    def iteration_metrics(self, iteration: int, wall: float) -> dict:
        """Per-layer values of one traced iteration that took ``wall`` seconds."""
        spans = [s for s in self.spans if s.iteration == iteration]
        by_id = {s.id: s for s in spans}
        child_time = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start

        def ancestors(s):
            while s.parent is not None:
                s = by_id[s.parent]
                yield s

        busy = defaultdict(float)  # per function, outermost call only
        values = defaultdict(float)
        svd_in_fit = defaultdict(float)
        for s in spans:
            d = s.end - s.start
            values[f"{s.layer}.self_s"] += d - child_time[s.id]
            if s.parent is None or by_id[s.parent].layer != s.layer:
                values[f"{s.layer}.busy_s"] += d
            if all(a.name != s.name for a in ancestors(s)):
                busy[s.name] += d
            if s.name == "linalg.svd":
                fit = next((a for a in ancestors(s) if a.name in FIT_FUNCTIONS), None)
                if fit is not None:
                    svd_in_fit[FIT_FUNCTIONS[fit.name]] += d
        for metric, functions in FUNCTION_METRICS.items():
            values[metric] = sum(busy[f] for f in functions)
        for layer in ("ca", "kca"):
            values[f"{layer}.fit_self_s"] = values[f"{layer}.fit_s"] - svd_in_fit[layer]
        counts = self.counts[iteration]
        values.update(counts)
        values["tables.density"] = _ratio(counts["tables.nnz"], counts["tables.cells"])
        values["linalg.kept_frac"] = _ratio(counts["linalg.k_kept"], counts["linalg.k_computed"])
        values["evaluation.coverage"] = _ratio(
            counts["evaluation.pairs_used"],
            counts["evaluation.pairs_used"] + counts["evaluation.pairs_skipped"])
        values["trace.accounted_frac"] = sum(
            s.end - s.start for s in spans if s.parent is None) / wall
        for name in busy:
            values[f"{name}#busy_s"] = busy[name]
            values[f"{name}#calls"] = sum(1 for s in spans if s.name == name)
        return dict(values)


def _ratio(num, den) -> float:
    return num / den if den else 0.0
