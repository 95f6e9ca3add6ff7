"""Host-speed probes, so that timings taken minutes apart on a shared host compare.

On a shared VM the same code runs up to about twice as fast in one minute as
in the next, as other tenants' load changes the CPU clock.  Interpreted code
slows by up to ~2x, LAPACK by up to ~1.5x.  Two fixed probes track this: an
interpreted loop of the kinds cakit runs (dict lookups with numpy item updates,
small-vector numpy calls, number formatting) and a LAPACK SVD.  The benchmark runs both just before and just
after each timed sample and divides the sample's time by their speed, so a
metric reads as seconds at the probes' reference speed.  The probes do not
depend on cakit: a change to cakit moves the scaled time exactly as it moves
the wall time at a fixed host speed.
"""

import time

import numpy as np

# Probe times of a 2-core Xeon VM (OpenBLAS 0.3.31, 2 threads) in its fast state.
PYTHON_REF_S = 0.015
LAPACK_REF_S = 0.034

_WORDS = [f"w{i:04d}" for i in range(500)]
_TOKENS = [_WORDS[(i * 7919) % len(_WORDS)] for i in range(60_000)]
_VECTORS = np.random.default_rng(0).standard_normal((len(_WORDS), 10))
_MATRIX = np.random.default_rng(0).standard_normal((400, 400))


def _python_work():
    """Interpreted work of cakit's kinds: word lookups with numpy item updates (counting),
    small-vector numpy calls (the eval cosines) and number formatting (TSV output)."""
    index = {w: i for i, w in enumerate(_WORDS)}
    counts = np.zeros(len(_WORDS))
    for tok in _TOKENS:
        counts[index[tok]] += 1.0
    for i in range(3000):
        u, v = _VECTORS[i % len(_WORDS)], _VECTORS[(i * 7) % len(_WORDS)]
        float(np.dot(u, v)) / float(np.linalg.norm(u))
    return "\t".join(f"{c:.6g}" for c in counts)


def probe():
    """(seconds of the interpreted probe, seconds of the LAPACK probe), run now."""
    t0 = time.perf_counter()
    _python_work()
    t1 = time.perf_counter()
    np.linalg.svd(_MATRIX)
    return t1 - t0, time.perf_counter() - t1


class Scale:
    """Factors that turn seconds measured between two probes into reference seconds."""

    def __init__(self, before, after):
        python_s = (before[0] + after[0]) / 2
        lapack_s = (before[1] + after[1]) / 2
        # interpreted work: counting, TSV text, the eval loop, input generation
        self.python = PYTHON_REF_S / python_s
        # a fit or library call: LAPACK plus the interpreted I/O around it
        self.mixed = (PYTHON_REF_S + LAPACK_REF_S) / (python_s + lapack_s)
