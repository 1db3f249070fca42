import json
import shutil
import subprocess
import sys

import pytest

import fedspectral
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def names(kind):
    return [metric["name"] for metric in BENCHMARK[kind]]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(
        run.WORKLOADS, "tiny_plus", run.Workload(300, 2400, "fedspectral_plus", 4, 2, 3)
    )
    monkeypatch.setitem(run.WORKLOADS, "tiny_base", run.Workload(300, 2400, "fedspectral", 3))


def test_benchmark_json_names_the_workloads_the_harness_runs():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", ["tiny_plus", "tiny_base"])
def test_end_to_end_run_reports_every_end_to_end_metric(tiny, name):
    bench = run.Bench(fedspectral, name, 5, None)
    metrics, info = bench.end_to_end(seconds=0.0)
    assert list(metrics) == names("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    assert bench.failures == [] and bench.boundary_violations == []
    assert info["trial_samples"] == 1 and bench.digest is not None


@pytest.mark.parametrize("name", ["tiny_plus", "tiny_base"])
def test_traced_run_reports_every_per_layer_metric(tiny, name, tmp_path):
    bench = run.Bench(fedspectral, name, 5, tmp_path)
    metrics, info = bench.traced()
    assert sorted(metrics) == sorted(names("per_layer"))
    assert info["absent_spans"] == []
    assert bench.failures == []
    traced, self_sum = metrics["trace.trial_s"][0], metrics["trace.self_sum_s"][0]
    assert self_sum == pytest.approx(traced, rel=1e-3)
    assert (tmp_path / f"spans-{name}-5.jsonl").is_file()


def test_fedplus_counts_follow_the_shape(tiny, tmp_path):
    metrics, _ = run.Bench(fedspectral, "tiny_plus", 5, tmp_path).traced()
    assert metrics["fedplus.rounds"][0] == 3
    assert metrics["fedplus.client_steps"][0] == run.NUM_CLIENTS * 2 * 3
    assert metrics["fedplus.bytes_per_round"][0] == 2 * run.NUM_CLIENTS * (24 + 300 * 4 * 8)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fedplus_facebook",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
