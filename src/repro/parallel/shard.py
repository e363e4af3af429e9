"""Deterministic shard plans for indexed task sets.

A *shard* is a contiguous slice of an indexed task set that one worker
processes as a unit.  Sharding exists for the replication sets of
:mod:`repro.experiments`: grouping replications amortises per-task dispatch
overhead, while determinism is preserved because every task derives its
random stream from ``(master_seed, task_index)`` — the *shard* never enters
the seed tree (see :mod:`repro.utils.rng`).  The same task set therefore
produces bit-identical results under any shard count, pinned by
``tests/test_parallel_shard.py`` and the CI shard-invariance gate.

Each shard runs as one ordinary task of
:func:`repro.parallel.pool.parallel_map`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Shard", "plan_shards"]


@dataclass(frozen=True)
class Shard:
    """One deterministic slice of an indexed task set."""

    index: int
    task_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.task_indices)


def plan_shards(n_tasks: int, n_shards: int) -> list[Shard]:
    """Partition ``range(n_tasks)`` into at most ``n_shards`` contiguous
    shards.

    The plan is a pure function of its arguments: sizes differ by at most
    one (the first ``n_tasks % n_shards`` shards are one task larger) and
    indices stay in ascending order, so shard 0 of a 4-shard plan always
    holds the same tasks on every host.  Empty shards are never produced —
    asking for more shards than tasks yields one singleton shard per task.
    """
    if n_tasks < 0:
        raise ValueError(f"n_tasks must be >= 0, got {n_tasks}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, n_tasks)
    shards: list[Shard] = []
    start = 0
    for k in range(n_shards):
        size = n_tasks // n_shards + (1 if k < n_tasks % n_shards else 0)
        shards.append(Shard(index=k, task_indices=tuple(range(start, start + size))))
        start += size
    assert start == n_tasks
    return shards
