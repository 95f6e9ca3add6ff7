"""Benchmark of the cakit command-line pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: cakit is imported from ``src/``
and driven through ``cakit.cli.main(argv)``, the entry point behind the
``cakit`` script.  One process runs one workload as a single client in a
closed loop: each iteration runs the workload's commands back to back on
real files, after one untimed warm-up iteration.  Inputs are generated from
the seed; every iteration's outputs are checked against independent numpy
references.  Each timed iteration and each set-up is bracketed by the
host-speed probes of ``speed.py``, and the end-to-end times are reported in
seconds at the probes' reference speed; the run record also gives them
unscaled.  With ``--trace 1`` the iterations alternate between untraced and
traced, and the per-layer metrics come from the traced ones, unscaled.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The lines before it
give the environment and each metric with the sample count behind it.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "iter_s": "s",
    "count_s": "s",
    "fit_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in
       ("cli", "corpus", "tables", "linalg", "ca", "kca", "gini", "evaluation")},
    "corpus.tokenize_s": "s", "corpus.count_s": "s",
    "corpus.tokens": "count", "corpus.pairs": "count",
    "tables.write_s": "s", "tables.read_s": "s", "tables.residual_s": "s",
    "tables.bytes_written": "B", "tables.bytes_read": "B", "tables.density": "ratio",
    "linalg.svd_s": "s", "linalg.svd_calls": "count", "linalg.svd_gflop": "GFLOP",
    "linalg.kept_frac": "ratio", "linalg.spd_sqrt_s": "s", "linalg.gsvd_s": "s",
    "ca.fit_s": "s", "ca.fit_self_s": "s", "ca.write_emb_s": "s", "ca.read_emb_s": "s",
    "ca.emb_bytes": "B", "ca.result_mb": "MB",
    "kca.fit_s": "s", "kca.fit_self_s": "s", "kca.association_s": "s", "kca.kernel_s": "s",
    "kca.kernel_cells": "count", "kca.gamma_s": "s", "kca.result_mb": "MB",
    "evaluation.load_s": "s", "evaluation.evaluate_s": "s",
    "evaluation.pairs_used": "count", "evaluation.coverage": "ratio",
    "gini.rotated_covariance_s": "s",
    "trace.iter_s": "s", "trace.overhead_s": "s", "trace.accounted_frac": "ratio",
}


def use_checkout_sources():
    """Import cakit from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "cakit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cakit sources at {SRC / 'cakit'}")
    sys.path.insert(0, str(SRC))
    import cakit
    import cakit.cli  # noqa: F401  (not imported by the package itself)

    if Path(cakit.__file__).resolve().parent != (SRC / "cakit").resolve():
        raise SystemExit(f"perfbench: imported cakit from {cakit.__file__}, not {SRC}")
    return cakit


def run_cli(cli, argv):
    """cakit.cli.main(argv) with stdout and stderr captured; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # counted as a failed command
            rc = f"raised {exc!r}"
    return rc, out.getvalue()


def run_iteration(cli, steps):
    """Run the steps back to back; (wall seconds, seconds per kind, values, failures)."""
    for step in steps:
        if step.out is not None:
            step.out.unlink(missing_ok=True)
    by_kind = dict.fromkeys(("count", "fit", "eval", "lib"), 0.0)
    values, failures = [], []
    start = time.perf_counter()
    for step in steps:
        t = time.perf_counter()
        if step.argv is not None:
            rc, stdout = run_cli(cli, step.argv)
            values.append(rc)
            if rc != 0 or stdout != step.stdout:
                failures.append(f"{' '.join(step.argv[:2])}: exit {rc}, stdout {stdout[:80]!r}")
        else:
            try:
                values.append(step.call())
            except Exception as exc:  # counted as a failed command
                values.append(None)
                failures.append(f"{step.kind} call raised {exc!r}")
        by_kind[step.kind] += time.perf_counter() - t
    return time.perf_counter() - start, by_kind, values, failures


def run_checks(workload, values):
    """(attempted, failure messages) of the workload's output checks."""
    attempted, failures = 0, []
    try:
        for name, ok in workload.check(values):
            attempted += 1
            if not ok:
                failures.append(name)
    except Exception as exc:  # a check that cannot run is a failed check
        attempted += 1
        failures.append(f"check raised {exc!r}")
    return attempted, failures


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workload, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def measure(workload, seed, seconds, trace, cakit, import_s=0.0):
    """Set up, warm up and run one workload; (metrics, sample counts, attempted, failures)."""
    cli = cakit.cli
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        speed.probe()  # untimed: the process's first LAPACK call can stall while threads start
        setup_times = []
        for i in range(SETUP_REPEATS):
            before = speed.probe()
            t = time.perf_counter()
            workload.setup(work / f"setup{i}", np.random.default_rng(seed))
            elapsed = time.perf_counter() - t
            # generating inputs and importing are interpreted work
            setup_times.append((elapsed, speed.Scale(before, speed.probe()).python))
        workload.prepare()
        steps = workload.steps()

        attempted, failures = 0, []

        def iteration(tracer=None, index=-1):
            nonlocal attempted
            with tracer.record(index) if tracer else contextlib.nullcontext():
                wall, by_kind, values, failed = run_iteration(cli, steps)
            n_checks, failed_checks = run_checks(workload, values)
            attempted += len(steps) + n_checks
            failures.extend(failed + failed_checks)
            return wall, by_kind

        iteration()  # warm-up, untimed
        tracer = Tracer(cakit) if trace else None
        samples, traced = [], []
        start = time.perf_counter()
        while True:
            index = len(samples) + len(traced)
            if tracer and index % 2 == 1:
                traced.append((index, iteration(tracer, index)))
            else:
                before = speed.probe()
                wall, by_kind = iteration()
                samples.append((wall, by_kind, speed.Scale(before, speed.probe())))
            elapsed = time.perf_counter() - start
            enough = len(traced) >= 1 if tracer else len(samples) >= 1
            # stop when one more iteration, as long as the last, would overrun the window
            if enough and elapsed * (index + 2) / (index + 1) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    med = statistics.median
    n = {"setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
    if tracer:
        per_iter = [tracer.iteration_metrics(i, wall) for i, (wall, _) in traced]
        untraced = med(wall for wall, _, _ in samples)
        metrics = {name: med(v.get(name, 0.0) for v in per_iter) for name in PER_LAYER}
        metrics["trace.iter_s"] = med(wall for _, (wall, _) in traced)
        metrics["trace.overhead_s"] = metrics["trace.iter_s"] - untraced
        n.update(dict.fromkeys(PER_LAYER, len(traced)))
        write_trace(workload, seed, tracer, per_iter)
    else:
        scaled = [scale_kinds(by_kind, scale) for _, by_kind, scale in samples]
        metrics = {
            "setup_s": import_s * setup_times[0][1] + med(t * f for t, f in setup_times),
            "iter_s": med(sum(k.values()) for k in scaled),
            **{f"{kind}_s": med(k[kind] for k in scaled) for kind in ("count", "fit", "eval")},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        n.update(dict.fromkeys(("iter_s", "count_s", "fit_s", "eval_s"), len(samples)))
        unscaled = {
            "setup_s": import_s + med(t for t, _ in setup_times),
            "iter_s": med(wall for wall, _, _ in samples),
            **{f"{kind}_s": med(k[kind] for _, k, _ in samples) for kind in ("count", "fit", "eval")},
            "python_speed": med(scale.python for _, _, scale in samples),
            "mixed_speed": med(scale.mixed for _, _, scale in samples),
        }
        workload.notes["unscaled"] = unscaled
    return metrics, n, attempted, failures


def scale_kinds(by_kind, scale):
    """Seconds per kind of step at the probes' reference speed (see speed.py)."""
    return {kind: t * (scale.python if kind in ("count", "eval") else scale.mixed)
            for kind, t in by_kind.items()}


def write_trace(workload, seed, tracer, per_iter):
    """Span file (one JSON object per line) and the per-layer table of medians."""
    stem = OUT / f"{workload.name}-seed{seed}"
    with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(vars(s)) + "\n")
    keys = sorted({k for v in per_iter for k in v})
    with open(f"{stem}.layers.tsv", "w", encoding="utf-8") as fh:
        fh.write("key\tmedian_per_traced_iteration\n")
        for key in keys:
            fh.write(f"{key}\t{statistics.median(v.get(key, 0.0) for v in per_iter):.9g}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cakit = use_checkout_sources()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - _START
    return report(workloads.WORKLOADS[args.workload](), args.seed, args.seconds, args.trace,
                  cakit, import_s)


def report(workload, seed, seconds, trace, cakit, import_s=0.0) -> int:
    """Measure one workload and print the run record, the result JSON last."""
    metrics, n, attempted, failures = measure(workload, seed, seconds, trace, cakit, import_s)
    print("# environment " + json.dumps({**environment(workload.name, seed),
                                         "samples": n, **workload.notes}))
    for failure in failures:
        print(f"# FAILED {failure}")
    units = PER_LAYER if trace else END_TO_END
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit} (median of {n[name]})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
