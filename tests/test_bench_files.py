"""The committed benchmark records: every ``BENCH_*.json`` at the repository root.

A record holds the final JSON lines of ``perfbench/run.py`` for the parent
and the change runs behind a speed claim, each with its workload and seed.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
DECLARED = {m["name"]: m["unit"]
            for kind in ("end_to_end", "per_layer")
            for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]}


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_holds_passing_runs_of_declared_metrics(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for side in ("parent", "change"):
        runs = record[side]
        assert isinstance(runs, list) and runs, side
        for run in runs:
            where = (side, run.get("workload"), run.get("seed"))
            assert run["correct"] is True and run["failed"] == 0, where
            assert run["metrics"], where
            for name, metric in run["metrics"].items():
                assert DECLARED.get(name) == metric["unit"], (where, name)
                assert isinstance(metric["value"], (int, float)), (where, name)
