"""Unit tests for deterministic shard plans and sharded experiments.

Two load-bearing properties: the plan is a pure function of
``(n_tasks, n_shards)``, and any shard count produces results identical to
the unsharded run (the shard never enters the seed tree).  Shards run as
ordinary ``parallel_map`` tasks, so ordering, exceptions, progress and
worker death of the scheduler itself are covered in ``tests/test_parallel.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments import checkpoint
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.parallel.shard import Shard, plan_shards
from repro.telemetry.config import TelemetryConfig


class TestPlanShards:
    def test_balanced_contiguous(self):
        plan = plan_shards(10, 4)
        assert [s.task_indices for s in plan] == [
            (0, 1, 2),
            (3, 4, 5),
            (6, 7),
            (8, 9),
        ]
        assert [s.index for s in plan] == [0, 1, 2, 3]

    def test_covers_every_task_exactly_once(self):
        for n_tasks in range(0, 13):
            for n_shards in range(1, 9):
                plan = plan_shards(n_tasks, n_shards)
                flat = [i for s in plan for i in s.task_indices]
                assert flat == list(range(n_tasks))

    def test_never_produces_empty_shards(self):
        plan = plan_shards(3, 8)
        assert [s.task_indices for s in plan] == [(0,), (1,), (2,)]
        assert plan_shards(0, 3) == []

    def test_sizes_differ_by_at_most_one(self):
        sizes = [len(s) for s in plan_shards(11, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        assert plan_shards(60, 7) == plan_shards(60, 7)

    def test_shard_dataclass(self):
        shard = Shard(index=1, task_indices=(4, 5))
        assert len(shard) == 2

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            plan_shards(-1, 2)
        with pytest.raises(ValueError):
            plan_shards(4, 0)


class TestShardInvariance:
    CONFIG = ExperimentConfig.for_case(
        "case1", scale="smoke", replications=5, generations=3
    )

    def test_any_shard_count_matches_unsharded(self):
        base = run_experiment(self.CONFIG, processes=2)
        for shards in (1, 2, 4, 8):
            sharded = run_experiment(self.CONFIG, processes=2, shards=shards)
            assert sharded.to_dict() == base.to_dict(), f"shards={shards}"

    def test_sharded_with_checkpoints_resumes(self, tmp_path):
        control = run_experiment(self.CONFIG, processes=2)
        first = run_experiment(
            self.CONFIG, processes=2, shards=2, checkpoint_dir=tmp_path
        )
        resumed = run_experiment(
            self.CONFIG, processes=2, shards=2, checkpoint_dir=tmp_path
        )
        assert first.replications == control.replications
        assert resumed.replications == control.replications
        for rep in resumed.replications:
            assert rep.checkpoint["resumed_from_generation"] is not None

    def test_shards_validated(self):
        with pytest.raises(ValueError):
            run_experiment(self.CONFIG, shards=0)

    def test_sharded_telemetry_folds_to_same_totals(self):
        from repro.telemetry.config import TelemetryConfig

        cfg = self.CONFIG.with_(telemetry=TelemetryConfig(enabled=True))
        plain = run_experiment(cfg, processes=2)
        sharded = run_experiment(cfg, processes=2, shards=2)
        pc = plain.telemetry["metrics"]["counters"]
        sc = sharded.telemetry["metrics"]["counters"]
        # engine/oracle counters must agree exactly; only the scheduler's own
        # shape (shard.* bookkeeping, pool task count) may differ
        engine_keys = {
            k
            for k in set(pc) | set(sc)
            if not k.startswith(("shard.", "parallel."))
        }
        assert engine_keys, "expected engine-level counters to compare"
        for key in engine_keys:
            assert pc.get(key) == sc.get(key), key
        assert sc["shard.runs"] == 2
        assert sc["shard.replications"] == cfg.replications


class TestShardedRun:
    """Sharded runs through ``run_experiment``, end to end.

    The worker-death test relies on crash injection, which kills a process
    once it has written ``CRASH_AFTER`` checkpoints.  Three replications of
    four generations (one checkpoint per generation) in two shards put 8
    writes on shard 0 and 4 on shard 1, so the worker running shard 0
    always dies.  After the pool is rebuilt, resumed replications need at
    most 1 + 4 more writes, below the quota, so no fresh worker dies.  Both
    shards are pool tasks (``processes=2``, two tasks), so the crash never
    reaches the test process itself.
    """

    CONFIG = ExperimentConfig.for_case(
        "case1", scale="smoke", replications=3, generations=4
    )
    CRASH_AFTER = 7

    def test_progress_counts_completed_shards(self):
        calls = []
        run_experiment(
            self.CONFIG.with_(generations=1),
            processes=2,
            shards=2,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert sorted(calls) == [(1, 2), (2, 2)]

    def test_sharded_run_survives_worker_death(self, tmp_path, monkeypatch):
        control = run_experiment(self.CONFIG, processes=2)
        assert len(plan_shards(self.CONFIG.replications, 2)) == 2
        monkeypatch.setattr(checkpoint, "_checkpoints_written", 0)
        monkeypatch.setenv(checkpoint.CRASH_ENV, str(self.CRASH_AFTER))
        crashed = run_experiment(
            self.CONFIG.with_(telemetry=TelemetryConfig(enabled=True)),
            processes=2,
            shards=2,
            checkpoint_dir=tmp_path,
        )
        assert crashed.replications == control.replications
        counters = crashed.telemetry["metrics"]["counters"]
        assert counters["parallel.pool_rebuilds"] == 1
        assert any(
            rep.checkpoint["resumed_from_generation"] is not None
            for rep in crashed.replications
        )
