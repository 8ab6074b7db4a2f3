"""Self-tests of the benchmark, on tiny relations of every workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import layers
from repro import parallel_sl, precision_recall
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
TINY_N = 80
SEED = 5
PAPER_METRICS = (
    "questions_per_query", "rounds_per_query", "cost_usd_per_query",
    "precision", "recall",
)


def tiny(name: str) -> Workload:
    return dataclasses.replace(WORKLOADS[name], n=TINY_N)


@pytest.fixture(params=sorted(WORKLOADS))
def workload(request):
    return tiny(request.param)


def timed(workload, tmp_path, count=3):
    return harness.timed_run(
        workload, harness.setup(workload, SEED, count, tmp_path)
    )


def test_counts_repeat_across_runs(workload, tmp_path):
    first = timed(workload, tmp_path)
    second = timed(workload, tmp_path)
    assert first["failed"] == second["failed"] == 0
    assert first["questions_per_query"] > 0
    for name in PAPER_METRICS:
        assert first[name] == second[name], name


def test_perfect_crowd_shortcut_matches_precision_recall(tmp_path):
    workload = tiny("serial-ind-perfect")
    query = harness.setup(workload, SEED, 1, tmp_path)[0]
    result, _ = harness.timed_query(workload, query)
    assert harness.check(workload, query.relation, result) == []
    report = precision_recall(result.skyline, query.relation)
    assert report.precision == report.recall == 1.0


def test_corrupted_skyline_counts_as_failed(tmp_path):
    base = tiny("serial-ind-perfect")
    calls = []

    def corrupting(relation, crowd):
        result = base.scheduler(relation, crowd)
        calls.append(relation)
        if len(calls) == 3:  # the warm-up query is call 1
            result.skyline = set(result.skyline)
            result.skyline.pop()
        return result

    metrics = timed(
        dataclasses.replace(base, scheduler=corrupting), tmp_path
    )
    assert metrics["attempted"] == 3
    assert metrics["failed"] == 1
    assert metrics["success_ratio"] == pytest.approx(2 / 3)


def test_self_times_partition_traced_wall(workload, tmp_path):
    metrics = harness.traced_run(workload, SEED, 2, tmp_path)
    assert metrics["failed"] == 0
    self_times = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    assert "scheduler.self_s" in self_times
    assert all(value >= 0 for value in self_times.values())
    assert sum(self_times.values()) == pytest.approx(
        metrics["trace.query_wall_s"], rel=1e-9
    )


def test_layer_split_follows_workload(workload, tmp_path):
    metrics = harness.traced_run(workload, SEED, 2, tmp_path)
    uses_cover = workload.scheduler is parallel_sl
    assert (metrics["skyline.covering_graph.self_s"] > 0) == uses_cover
    assert (metrics["skyline.cover_edges"] > 0) == uses_cover
    assert (metrics["journal.append_posting.self_s"] > 0) == workload.journal
    assert (metrics["journal.fsyncs"] > 0) == workload.journal
    assert (metrics["journal.bytes"] > 0) == workload.journal
    assert metrics["pref.resolve_pairs.calls"] > 0
    assert metrics["tasks.requests"] > 0


def test_wrappers_are_restored():
    before = layers.installed()
    with pytest.raises(RuntimeError):
        with layers.traced(layers.LayerTrace()):
            during = layers.installed()
            raise RuntimeError("leave the block early")
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, layers.installed()))


def test_memory_pass_reports_bytes(tmp_path):
    metrics = harness.memory_pass(tiny("sl-ant-noisy"), SEED, tmp_path)
    retained = metrics["engine.build_context.retained_bytes"]
    assert 0 < retained <= metrics["engine.build_context.peak_bytes"]


def test_metric_names_match_benchmark_json(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = tiny("dset-ant-journal")
    end_to_end = set(timed(workload, tmp_path)) | {"setup_s", "peak_rss_bytes"}
    end_to_end -= {
        "attempted", "failed", "first_query_ratio", "slowdown",
        "raw_query_p50_s",
    }
    per_layer = set(harness.traced_run(workload, SEED, 2, tmp_path))
    per_layer |= set(harness.memory_pass(workload, SEED, tmp_path))
    per_layer -= {"attempted", "failed"}
    assert end_to_end == {m["name"] for m in declared["end_to_end"]}
    assert per_layer == {m["name"] for m in declared["per_layer"]}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "serial-ind-perfect", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
