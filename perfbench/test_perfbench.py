"""Smoke tests of the benchmark's own code, at the tiny scale.

    python3 -m pytest perfbench -q

Each workload runs once per trace mode (one generation, two service jobs)
and must print every metric ``BENCHMARK.json`` names, with its unit.  The
attribution arithmetic is checked on hand-made spans.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = run.validate_benchmark(ROOT / "BENCHMARK.json")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    args = ["--workload", workload, "--seed", "3", "--seconds", "0"]
    done = _bench(ROOT, *args, "--trace", trace, "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_per_layer_metrics_cover_every_traced_layer():
    names = {m["name"] for m in SPEC["per_layer"]}
    for layer in spans.LAYERS:
        own = "sim.self_s" if layer == "sim.engine" else f"{layer}.self_s"
        assert {f"{layer}.calls", f"{layer}.s", own} <= names


def test_attribution_splits_the_wall_among_running_leaves():
    # op 0..10; the map 1..5 holds an engine call 2..3 and two worker tasks
    # 3..5 and 4..5; a call after the operation is ignored
    trace = [
        ["op", 0.0, 10.0, -1],
        ["parallel.map", 1.0, 5.0, 0],
        ["sim.engine", 2.0, 3.0, 1],
        ["parallel.task", 3.0, 5.0, 1],
        ["parallel.task", 4.0, 5.0, 1],
        ["paths.plan", 11.0, 12.0, -1],
    ]
    out = spans.attribute(trace, 0)
    assert out["problems"] == []
    assert out["calls"]["parallel.task"] == 2
    assert out["calls"]["paths.plan"] == 0
    assert out["self_s"]["parallel.map"] == pytest.approx(1.0)
    assert out["self_s"]["sim.engine"] == pytest.approx(1.0)
    assert out["self_s"]["parallel.task"] == pytest.approx(2.0)
    assert out["s"]["parallel.task"] == pytest.approx(3.0)
    assert out["unattributed_s"] == pytest.approx(6.0)
    total = sum(out["self_s"].values()) + out["unattributed_s"]
    assert total == pytest.approx(10.0)


def test_attribution_of_serial_spans_matches_duration_sums():
    # op 0..10 holds a replication 1..9 with an engine call 2..6, which
    # holds two planning calls 2..3 and 4..5; no two siblings overlap
    trace = [
        ["op", 0.0, 10.0, -1],
        ["experiments.replication", 1.0, 9.0, 0],
        ["sim.engine", 2.0, 6.0, 1],
        ["paths.plan", 2.0, 3.0, 2],
        ["paths.plan", 4.0, 5.0, 2],
    ]
    out = spans.attribute(trace, 0)
    assert out["problems"] == []
    assert out["self_s"]["experiments.replication"] == pytest.approx(4.0)
    assert out["self_s"]["sim.engine"] == pytest.approx(2.0)
    assert out["self_s"]["paths.plan"] == pytest.approx(2.0)
    assert out["unattributed_s"] == pytest.approx(2.0)


def test_cross_check_catches_a_sweep_that_misattributes():
    # a sweep that credited engine time to planning still sums to the wall,
    # but no longer matches the spans' exclusive durations
    trace = [
        ["op", 0.0, 10.0, -1],
        ["sim.engine", 2.0, 6.0, 0],
        ["paths.plan", 2.0, 3.0, 1],
    ]
    self_s = dict.fromkeys(spans.LAYERS, 0.0)
    self_s["sim.engine"], self_s["paths.plan"] = 2.0, 2.0
    problems = spans.cross_check(trace, 0, [1, 2], self_s, 6.0)
    assert any("sim.engine" in p for p in problems)
    assert any("paths.plan" in p for p in problems)
    wrong_gap = spans.cross_check(trace, 0, [1, 2], self_s, 5.0)
    assert any("unattributed_s" in p for p in wrong_gap)


def test_attribution_flags_a_span_that_leaves_its_parent():
    trace = [
        ["op", 0.0, 10.0, -1],
        ["sim.engine", 1.0, 2.0, 0],
        ["paths.plan", 1.5, 3.0, 1],
    ]
    assert spans.attribute(trace, 0)["problems"]


def test_validate_rejects_a_bound_over_the_limit(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["end_to_end"][0]["bound"] = 0.3
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match="bound"):
        run.validate_benchmark(path)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    args = ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1"]
    done = _bench(tmp_path, *args, "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_operations_that_raise_make_the_run_incorrect(monkeypatch, tmp_path):
    def raise_in_run(self, resolved):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.Experiment, "_run", raise_in_run)
    args = argparse.Namespace(
        workload="case3_serial",
        seed=3,
        seconds=0.0,
        trace=0,
        scale="tiny",
        workdir=str(tmp_path),
    )
    out = child.measure(args)
    assert out["attempted"] == out["failed"] == 1
    assert out["failures"][0]["error"] == "RuntimeError"
    result = run.result_of(out, SPEC["end_to_end"], dict(out["metrics"]))
    assert result["correct"] is False
    assert "games_per_s" not in result["metrics"]
    assert all(value["value"] > 0 for value in result["metrics"].values())


class _FakeWorkload:
    """Three quick operations; operation 1 raises, as a defect would."""

    inputs = 3

    def run_op(self, seed, scale, op, workdir, section=contextlib.nullcontext):
        time.sleep(0.002)
        if op == 1:
            failure = {"error": "RuntimeError", "message": "injected"}
            return workloads.Outcome(0.002, 0, 1, [], math.nan, False, [failure])
        return workloads.Outcome(
            0.002, 10, 1, [0.1], 0.1, True, [], [1.0], [0.002], 0.002
        )

    def resolved(self, seed, scale, op=0):
        return argparse.Namespace(
            config=argparse.Namespace(replications=1), processes=1
        )


@pytest.mark.parametrize("seconds", [0.0, 0.2])
def test_failure_counts_do_not_depend_on_the_time(monkeypatch, tmp_path, seconds):
    monkeypatch.setitem(workloads.WORKLOADS, "case3_serial", _FakeWorkload())
    args = argparse.Namespace(
        workload="case3_serial",
        seed=1,
        seconds=seconds,
        trace=0,
        scale="full",
        workdir=str(tmp_path),
    )
    out = child.measure(args)
    assert (out["attempted"], out["failed"]) == (3, 1)
    assert out["runs"] > 4 if seconds else out["runs"] == 4
    assert out["problems"] == []
    assert out["metrics"]["games_per_s"] == pytest.approx(10 / 0.002)
