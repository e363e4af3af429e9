"""Parallel execution of independent replications.

The paper averages 60 independent evolutionary runs — an embarrassingly
parallel workload.  :func:`repro.parallel.pool.parallel_map` distributes any
indexed task set over a process pool; results are returned in index order and
are bit-identical to a serial run because every task derives its own random
stream from ``(master_seed, index)``.  :func:`repro.parallel.shard.plan_shards`
groups such a task set into contiguous shards, which run as ordinary
``parallel_map`` tasks.
"""

from repro.parallel.pool import parallel_map
from repro.parallel.progress import ProgressPrinter
from repro.parallel.shard import Shard, plan_shards

__all__ = [
    "parallel_map",
    "ProgressPrinter",
    "Shard",
    "plan_shards",
]
