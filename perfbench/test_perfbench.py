"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

cakit = run.use_checkout_sources()
import workloads  # noqa: E402  (needs the checkout's cakit on the path)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "zipf_pipeline": dict(types=60, tokens=3000, pairs=100, dim=5),
    "planted_pipeline": dict(clusters=3, cluster_size=8, tokens=4000, dim=3),
    "method_sweep": dict(types=60, tokens=3000, pairs=100, stopwords=5, dim=5),
}


def tiny_run(name, trace, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = workloads.WORKLOADS[name](**TINY[name])
    assert run.report(workload, seed=3, seconds=0.2, trace=trace, cakit=cakit) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-1]), lines


def test_benchmark_json_matches_what_runs_emit():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace, capsys, monkeypatch, tmp_path):
    result, lines = tiny_run(name, trace, capsys, monkeypatch, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert lines[0].startswith("# environment ")
    if trace:
        assert (tmp_path / f"{name}-seed3.spans.jsonl").stat().st_size > 0
        assert (tmp_path / f"{name}-seed3.layers.tsv").stat().st_size > 0
        assert result["metrics"]["linalg.svd_calls"]["value"] >= 1
        # wrappers are gone: names imported from linalg are the originals again
        assert cakit.kca.svd is cakit.linalg.svd and not hasattr(cakit.cli.main, "__wrapped__")
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_speed_scale_is_one_at_the_reference_speed_and_halves_when_twice_as_slow():
    import speed

    ref = (speed.PYTHON_REF_S, speed.LAPACK_REF_S)
    slow = (2 * speed.PYTHON_REF_S, 2 * speed.LAPACK_REF_S)
    assert speed.Scale(ref, ref).python == pytest.approx(1.0)
    assert speed.Scale(ref, ref).mixed == pytest.approx(1.0)
    assert speed.Scale(slow, slow).python == pytest.approx(0.5)
    assert speed.Scale(ref, slow).mixed == pytest.approx(2 / 3)


def test_perturbed_spectrum_fails_the_check(capsys, monkeypatch, tmp_path):
    svd = cakit.linalg.svd

    def perturbed(M):
        dec = svd(M)
        return dataclasses.replace(dec, S=dec.S * (1 + 1e-6))

    monkeypatch.setattr(cakit.linalg, "svd", perturbed)
    result, lines = tiny_run("zipf_pipeline", 0, capsys, monkeypatch, tmp_path)
    assert not result["correct"] and result["failed"] >= 1
    assert "# FAILED linear spectrum" in lines


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zipf_pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
