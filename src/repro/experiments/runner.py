"""Experiment runner: replications in parallel, results aggregated.

``run_experiment`` is the single entry point used by the CLI, the benchmark
harnesses and the examples.  Replication ``i`` always sees the random stream
derived from ``(config.seed, i)``, so the outcome is independent of the
worker count — and of the shard count: with ``shards=N`` the replication set
is split into deterministic contiguous groups (:func:`repro.parallel.shard.
plan_shards`) that each run serially inside one worker, which amortises
process dispatch for large replication counts while producing bit-identical
:class:`ReplicationResult`\\ s for every shard count (pinned by
``tests/test_parallel_shard.py`` and the CI shard-invariance gate).  Shards
and single replications are both ordinary tasks of
:func:`repro.parallel.pool.parallel_map`: a sharded run survives one worker
death (the pool is rebuilt and unfinished shards re-run), an unsharded run
fails fast.

``checkpoint_dir``/``resume`` thread straight through to
:func:`repro.experiments.replication.run_replication`, so an interrupted
experiment — sharded or not — continues from each replication's newest
intact checkpoint.

With telemetry enabled in the config, each replication records inside its
own session (worker processes included) and ships a picklable export back on
``ReplicationResult.telemetry``; the runner opens a parent session of its
own to capture pool-level metrics and merges every replication's export into
it, sharded or not.  A sharded run also counts ``shard.runs`` and
``shard.replications`` from its plan.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import (
    ReplicationResult,
    run_replication,
    run_replications_stacked,
    stacked_unsupported_reason,
)
from repro.experiments.results import ExperimentResult
from repro.parallel.pool import parallel_map
from repro.parallel.shard import plan_shards
from repro.telemetry.runtime import telemetry_session

__all__ = ["run_experiment"]


def _task(
    args: tuple[ExperimentConfig, int, str | None, bool],
) -> ReplicationResult:
    """Module-level task wrapper (must be picklable for the process pool)."""
    config, replication, checkpoint_dir, resume = args
    return run_replication(
        config, replication, checkpoint_dir=checkpoint_dir, resume=resume
    )


def _shard_task(
    args: tuple[ExperimentConfig, Sequence[int], str | None, bool],
) -> list[ReplicationResult]:
    """Run one shard's replications serially inside a worker.

    Each result carries its own telemetry export, exactly as from
    :func:`_task`.
    """
    config, indices, checkpoint_dir, resume = args
    return [_task((config, i, checkpoint_dir, resume)) for i in indices]


def run_experiment(
    config: ExperimentConfig,
    processes: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    *,
    shards: int | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = True,
    stacked: bool | None = None,
) -> ExperimentResult:
    """Run all replications of ``config`` and aggregate the results.

    Parameters
    ----------
    processes:
        ``None`` uses one worker per core (capped at the task count);
        ``1`` runs serially in-process.
    progress:
        Optional ``(done, total)`` callback; counts replications when
        unsharded, completed shards when sharded.
    shards:
        ``None`` dispatches one pool task per replication (the default);
        ``N >= 1`` groups replications into at most ``N`` deterministic
        contiguous shards, one pool task each.  Any shard count yields
        bit-identical results.  A sharded run survives one worker death;
        an unsharded one fails fast.
    checkpoint_dir:
        Root of the checkpoint store; ``None`` disables checkpointing.
    resume:
        With a ``checkpoint_dir``, continue each replication from its
        newest intact checkpoint (``False`` forces a fresh start while
        still writing checkpoints).
    stacked:
        ``None`` (the default) evaluates all replications as one stacked
        slate (:func:`repro.experiments.replication.run_replications_stacked`)
        whenever the run is eligible — a fusing engine, serial in-process
        execution, no sharding or checkpointing, telemetry off — and falls
        back to the per-replication path otherwise.  ``True`` demands
        stacking (``ValueError`` when ineligible); ``False`` never stacks.
        Stacked results are bit-identical to the sequential path, so the
        choice is purely an execution-plan knob.
    """
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")

    if stacked is None:
        use_stacked = (
            processes == 1
            and shards is None
            and checkpoint_dir is None
            and stacked_unsupported_reason(config) is None
        )
    elif stacked:
        reason = stacked_unsupported_reason(
            config,
            processes=processes,
            shards=shards,
            checkpoint_dir=checkpoint_dir,
        )
        if reason is not None:
            raise ValueError(f"stacked evaluation unavailable: {reason}")
        use_stacked = True
    else:
        use_stacked = False
    if use_stacked:
        replications = run_replications_stacked(config)
        if progress is not None:
            progress(len(replications), len(replications))
        return ExperimentResult(
            config=config.describe(), replications=replications
        )
    ckpt = str(checkpoint_dir) if checkpoint_dir is not None else None

    plan = None if shards is None else plan_shards(config.replications, shards)

    def run_all() -> list[ReplicationResult]:
        if plan is None:
            tasks = [(config, i, ckpt, resume) for i in range(config.replications)]
            return parallel_map(
                _task,
                tasks,
                processes=processes,
                progress=progress,
                max_redispatch=0,
            )
        items = [(config, shard.task_indices, ckpt, resume) for shard in plan]
        per_shard = parallel_map(
            _shard_task,
            items,
            processes=processes,
            progress=progress,
            max_redispatch=1,
        )
        # contiguous ascending shards concatenate back into replication order
        return [rep for reps in per_shard for rep in reps]

    if not config.telemetry.enabled:
        replications = run_all()
        return ExperimentResult(config=config.describe(), replications=replications)

    # parent session: the pool captures it at entry, so each task's own
    # nested session (the serial path) cannot steal its pool metrics;
    # replication registries merge in afterwards
    t0 = perf_counter()
    with telemetry_session(config.telemetry) as tel:
        replications = run_all()
        if plan is not None:
            tel.count("shard.runs", len(plan))
            tel.count("shard.replications", config.replications)
        events: list[dict] = list(tel.events)
        dropped = tel.dropped_events
        for export in (rep.telemetry for rep in replications if rep.telemetry):
            tel.registry.merge(export.get("metrics", {}))
            events.extend(export.get("events", []))
            dropped += export.get("dropped_events", 0)
        aggregated = {
            "metrics": tel.snapshot(),
            "events": events,
            "dropped_events": dropped,
            "wall_s": perf_counter() - t0,
        }
    return ExperimentResult(
        config=config.describe(),
        replications=replications,
        telemetry=aggregated,
    )
