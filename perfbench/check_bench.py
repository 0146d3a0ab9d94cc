"""The benchmark's own tests: toy-size smoke runs and tracer invariants.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps these tests out of the package's default test run; they
start benchmark processes and take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import per_layer_metric_units  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
IDLE_PREFIXES = {
    "ingest_features": ("models.", "pipeline.", "preprocess.pca_fit", "preprocess.smote"),
    "simulate_linear": ("models.svm.", "models.forest.", "models.gee.", "cli."),
    "simulate_nonlinear": ("models.tuning.", "models.linear.", "cli.", "preprocess.smote"),
}


def run_bench(workload, trace, cwd=ROOT, seed=0, seconds=1):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--size", "toy"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def untraced(request):
    proc = run_bench(request.param, 0)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return request.param, parse(proc)


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    proc = run_bench(request.param, 1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return request.param, parse(proc)


def test_untraced_prints_every_end_to_end_metric_with_unit(untraced):
    workload, (report, result) = untraced
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    assert got == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], float) and value["value"] > 0
    assert report["failed_ratio"]["unit"] == "fraction"
    if workload != "ingest_features":
        assert report["auc_mean"]["unit"] == "AUC"
        assert 0.5 < report["auc_mean"]["value"] <= 1.0
    for key in ("numpy", "blas", "nproc", "python"):
        assert key in report["environment"]
    # a speed-scaled workload probes before set-up and after each repetition
    # and round; the others report the measured times as they are
    probes = report["speed"]["probes_s"]
    if report["time_base"] == "reference":
        assert len(probes) == 1 + len(report["setup_repeats_s"]) + report["rounds"]
        assert all(p > 0 for p in probes)
    else:
        assert probes == []
        for name, value in report["measured"].items():
            assert result["metrics"][name]["value"] == value


def test_traced_prints_every_per_layer_metric_with_unit(traced):
    workload, (report, result) = traced
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert expected == per_layer_metric_units()
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    assert got == expected


def test_idle_layers_report_no_calls(traced):
    workload, (_, result) = traced
    metrics = result["metrics"]
    for name, value in metrics.items():
        if name.endswith(".calls") and name.startswith(IDLE_PREFIXES[workload]):
            assert value["value"] == 0, name
    busy = {"ingest_features": "cli.cmd_features.calls",
            "simulate_linear": "models.tuning.cross_validate.calls",
            "simulate_nonlinear": "models.svm.fit_svm_rbf_raw.calls"}[workload]
    assert metrics[busy]["value"] > 0


def test_self_times_sum_to_wall_time_on_one_thread(traced):
    workload, (report, _) = traced
    check = report["trace_check"]
    if check["threads"] != 1:
        pytest.skip("self times add up per thread; this workload uses a pool")
    assert check["wall_s"] > 0
    gap = abs(check["self_s_sum"] - check["wall_s"]) / check["wall_s"]
    assert gap <= check["tolerance"], check


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    def middle():
        traced_leaf()
        traced_leaf()
        time.sleep(0.01)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle, root=True)
    tracer.enabled = True
    started = time.perf_counter()
    traced_middle()
    wall = time.perf_counter() - started
    totals = tracer.span_totals(["leaf", "middle"])
    assert totals["leaf"][0] == 2 and totals["middle"][0] == 1
    assert totals["middle"][2] == pytest.approx(totals["middle"][1] - totals["leaf"][1])
    assert tracer.self_time_sum() == pytest.approx(totals["middle"][1])
    assert tracer.self_time_sum() <= wall
    assert {span[1] for span in tracer.spans} == {1}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
