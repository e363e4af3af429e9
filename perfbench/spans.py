"""Span tracing around the program's public functions, from outside it.

:func:`install` replaces each traced function or method with a wrapper that
records one span (layer, start, end, parent) per call, and :func:`uninstall`
puts the originals back.  Nothing in ``src/`` changes: the wrappers are set
on the modules and classes from here.

Spans live in memory in a per-process :class:`Tracer`.  Pool workers are
forked after :func:`install`, so they inherit the wrappers; the pool's task
function is wrapped too, and each worker task ships its spans back to the
parent attached to the task's result, where the ``parallel.map`` wrapper
folds them in under the map span.  ``perf_counter`` is the system-wide
monotonic clock on Linux, so worker and parent times share one timeline.

:func:`attribute` turns the spans of one operation into per-layer numbers.
A layer's ``self_s`` is its share of the operation's wall time: every
instant of the wall is split evenly among the spans that are running then
and have no running child (in any process).  Instants covered by no layer
span count as ``unattributed_s``, so self times plus ``unattributed_s`` add
up to the traced wall by construction.  :func:`attribute` checks that the
spans fit that model (nested, inside the operation) and cross-checks the
sweep against sums of span durations, which it does not share: see
:func:`cross_check`.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter

KERNEL_OPS = (
    "rate_paths",
    "decide",
    "first_writer",
    "commit",
    "replay_decide",
    "watchdog",
)

#: Every traced layer, in report order.
LAYERS = tuple(f"sim.kernels.{op}" for op in KERNEL_OPS) + (
    "sim.engine",
    "paths.plan",
    "network.routes",
    "network.ksp",
    "mobility.step",
    "tournament.generation",
    "ga.step",
    "experiments.replication",
    "experiments.checkpoint.save",
    "telemetry.manifest",
    "parallel.map",
    "parallel.task",
    "scenarios.resolve",
    "service.submit",
    "service.execute",
    "service.store",
)
#: The benchmark's own span around one operation.
ROOT = "op"

#: Module-level functions as (module, name), patched in every loaded
#: ``repro`` module that holds a reference to them.
FUNCTIONS = {
    "paths.plan": [
        ("repro.paths.vector", "plan_generation_arrays"),
        ("repro.paths.vector", "plan_tournament_arrays"),
    ],
    "tournament.generation": [
        ("repro.tournament.evaluation", "evaluate_generation"),
    ],
    "ga.step": [("repro.ga.vector", "next_generation_tensor")],
    "experiments.replication": [
        ("repro.experiments.replication", "run_replication"),
        ("repro.experiments.replication", "run_replications_stacked"),
    ],
    "telemetry.manifest": [("repro.telemetry.manifest", "write_run_manifest")],
    "scenarios.resolve": [("repro.scenarios.resolve", "resolve_scenario")],
}

#: Methods as (module, class, name), patched on the class that defines them.
METHODS = {
    **{
        f"sim.kernels.{op}": [("repro.sim.kernels.numpy_backend", "NumpyKernel", op)]
        for op in KERNEL_OPS
    },
    "sim.engine": [
        ("repro.sim.reference", "ReferenceEngine", "run_tournament"),
        ("repro.sim.fast", "FastEngine", "run_tournament"),
        ("repro.sim.batch", "BatchEngine", "run_tournament"),
        ("repro.sim.turbo", "TurboEngine", "run_tournament"),
        ("repro.sim.fused", "FusedEngine", "run_generation"),
        ("repro.sim.stacked", "StackedFusedEngine", "run_generation_stacked"),
    ],
    "paths.plan": [
        ("repro.paths.oracle", "RandomPathOracle", "draw"),
        ("repro.paths.oracle", "RandomPathOracle", "draw_tournament"),
        ("repro.network.topology", "TopologyPathOracle", "draw"),
        ("repro.network.topology", "TopologyPathOracle", "draw_tournament"),
        ("repro.mobility.oracle", "MobilePathOracle", "draw"),
        ("repro.mobility.oracle", "MobilePathOracle", "draw_tournament"),
    ],
    "network.ksp": [
        ("repro.network.ksp", "PathSearch", "intermediate_paths"),
        ("repro.network.ksp", "PathSearch", "simple_paths"),
    ],
    "mobility.step": [("repro.mobility.dynamic", "DynamicTopology", "step")],
    "ga.step": [
        ("repro.ga.evolution", "GeneticAlgorithm", "next_generation"),
        ("repro.ga.evolution", "GeneticAlgorithm", "next_generation_vectorized"),
    ],
    "experiments.checkpoint.save": [
        ("repro.experiments.checkpoint", "CheckpointStore", "save"),
    ],
    "service.submit": [("repro.service.runner", "JobRunner", "submit")],
    "service.execute": [("repro.service.runner", "JobRunner", "_execute")],
    "service.store": [
        ("repro.service.store", "ResultStore", "load_record"),
        ("repro.service.store", "ResultStore", "save_record"),
        ("repro.service.store", "ResultStore", "save_result"),
    ],
}


class Tracer:
    """Spans and counters of one process, kept in memory.

    A span is ``[layer, start, end, parent]`` where ``parent`` indexes
    ``spans`` (``-1`` for none).  A call into a layer whose span is already
    the innermost open one (a method calling its sibling) is folded into
    that span.
    """

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.counts = {}

    def open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def adopt(self, spans: list[list], counts: dict, parent: int) -> None:
        """Fold another process's spans in, their roots under ``parent``."""
        offset = len(self.spans)
        for layer, start, end, p in spans:
            self.spans.append([layer, start, end, p + offset if p >= 0 else parent])
        for name, n in counts.items():
            self.count(name, n)


TRACER = Tracer()
_SHIPPED = "_perfbench_spans"
_patches: list[tuple[object, str, object]] = []
_original_task: list = []


def _wrap(layer: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = TRACER
        if tracer.innermost() == layer:
            return fn(*args, **kwargs)
        idx = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def _file_bytes(*paths) -> int:
    return sum(os.stat(p).st_size for p in paths)


def _after_checkpoint(tracer, args, manifest):
    blob = manifest.with_suffix(".pkl")
    tracer.count("checkpoint.bytes", _file_bytes(manifest, blob))


def _after_save_record(tracer, args, record):
    path = args[0].record_path(record["job_id"])
    tracer.count("store.bytes", _file_bytes(path))


def _after_save_result(tracer, args, path):
    tracer.count("store.bytes", _file_bytes(path))


def _after_submit(tracer, args, result):
    tracer.count("service.submits")
    if not result[1]:
        tracer.count("service.dedupe_hits")


#: Counters read off a call's arguments or result, by (class, method).
AFTER = {
    ("CheckpointStore", "save"): _after_checkpoint,
    ("ResultStore", "save_record"): _after_save_record,
    ("ResultStore", "save_result"): _after_save_result,
    ("JobRunner", "submit"): _after_submit,
}


def _wrap_routes(fn):
    """``RouteProvider.routes``, counting hits off the provider's counter."""

    @functools.wraps(fn)
    def traced(provider, source, destination):
        tracer = TRACER
        hits = provider.cache_hits
        idx = tracer.open("network.routes")
        try:
            return fn(provider, source, destination)
        finally:
            tracer.close(idx)
            tracer.count("routes.hits", provider.cache_hits - hits)

    return traced


def _wrap_map(fn):
    """``parallel_map``: one span, plus the workers' spans folded under it."""
    from repro.parallel.pool import default_processes

    @functools.wraps(fn)
    def traced(task, items, processes=None, *args, **kwargs):
        tracer = TRACER
        items = list(items)
        workers = processes or default_processes(len(items))
        idx = tracer.open("parallel.map")
        try:
            results = fn(task, items, processes, *args, **kwargs)
        finally:
            tracer.close(idx)
        wall = tracer.spans[idx][2] - tracer.spans[idx][1]
        tracer.count("parallel.capacity_s", min(workers, len(items)) * wall)
        for result in results:
            shipped = result.__dict__.pop(_SHIPPED, None)
            if shipped is not None:
                tracer.adopt(*shipped, idx)
        return results

    return traced


def traced_task(args):
    """Stand-in for ``repro.experiments.runner._task`` (picklable by name).

    In a forked worker it starts a fresh span buffer per task and ships the
    task's spans back on the result; in-process it just records the span.
    """
    tracer = TRACER
    remote = os.getpid() != tracer.owner_pid
    if remote:
        tracer.reset()
    idx = tracer.open("parallel.task")
    try:
        result = _original_task[0](args)
    finally:
        tracer.close(idx)
    if remote:
        result.__dict__[_SHIPPED] = (tracer.spans, tracer.counts)
    return result


def _patch(owner, attr: str, value) -> None:
    _patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, value)


def _patch_function(module_name: str, attr: str, wrapper) -> None:
    """Replace a function in every loaded ``repro`` module that holds it."""
    original = getattr(importlib.import_module(module_name), attr)
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in list(vars(module).items()):
                if value is original:
                    _patch(module, key, wrapper)


def install() -> None:
    """Wrap every traced function and method (undone by :func:`uninstall`)."""
    if _patches:
        raise RuntimeError("tracing is already installed")
    from repro.experiments import runner
    from repro.network.provider import RouteProvider

    for specs in METHODS.values():  # load every module before patching
        for module_name, _, _ in specs:
            importlib.import_module(module_name)
    for layer, specs in FUNCTIONS.items():
        for module_name, attr in specs:
            original = getattr(importlib.import_module(module_name), attr)
            _patch_function(module_name, attr, _wrap(layer, original))
    for layer, specs in METHODS.items():
        for module_name, cls_name, attr in specs:
            cls = getattr(importlib.import_module(module_name), cls_name)
            after = AFTER.get((cls_name, attr))
            _patch(cls, attr, _wrap(layer, cls.__dict__[attr], after))
    _patch(RouteProvider, "routes", _wrap_routes(RouteProvider.__dict__["routes"]))
    pool_map = _wrap_map(runner.parallel_map)
    _patch_function("repro.parallel.pool", "parallel_map", pool_map)
    _original_task[:] = [runner._task]
    _patch(runner, "_task", traced_task)
    TRACER.owner_pid = os.getpid()
    TRACER.reset()


def uninstall() -> None:
    """Put every original back (reverse order, so stacked patches unwind)."""
    while _patches:
        owner, attr, original = _patches.pop()
        setattr(owner, attr, original)


# -- attribution -------------------------------------------------------------


def attribute(spans: list[list], root: int) -> dict:
    """Per-layer calls, inclusive seconds and self shares for one operation.

    ``spans[root]`` is the operation's own span; spans that do not descend
    from it are ignored.  Returns ``{"calls", "s", "self_s"}`` (each a dict
    by layer), ``unattributed_s``, ``wall_s``, and ``problems``: every span
    that breaks the model (ends before it starts, or leaves the operation
    or its parent's interval), and every disagreement :func:`cross_check`
    finds.
    """
    r_start, r_end = spans[root][1], spans[root][2]
    wall = r_end - r_start
    calls = {layer: 0 for layer in LAYERS}
    inclusive = {layer: 0.0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    problems: list[str] = []
    eps = 1e-6
    events = []
    kept: list[int] = []
    # only the operation's descendants count: calls the benchmark makes
    # before or after the timed section have no parent chain to the root
    inside = [False] * len(spans)
    for i, (layer, start, end, parent) in enumerate(spans):
        inside[i] = parent == root or (parent >= 0 and inside[parent])
        if not inside[i]:
            continue
        if layer not in calls:
            problems.append(f"span {i}: unknown layer {layer!r}")
            continue
        if end < start or start < r_start - eps or end > r_end + eps:
            problems.append(f"span {i} ({layer}) lies outside the operation")
            continue
        if parent != root:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start - eps or end > p_end + eps:
                problems.append(f"span {i} ({layer}) leaves its parent's interval")
        calls[layer] += 1
        inclusive[layer] += end - start
        kept.append(i)
        events.append((start, 1, i))
        events.append((end, 0, i))
    events.sort()  # ends sort before starts at the same instant
    running_children: dict[int, int] = {}
    active: set[int] = set()
    leaves: set[int] = set()
    unattributed = 0.0
    now = r_start
    for t, is_start, i in events:
        t = min(max(t, r_start), r_end)
        if t > now:
            if leaves:
                share = (t - now) / len(leaves)
                for leaf in leaves:
                    self_s[spans[leaf][0]] += share
            else:
                unattributed += t - now
            now = t
        parent = spans[i][3]
        if is_start:
            active.add(i)
            leaves.add(i)
            if parent in active:
                running_children[parent] = running_children.get(parent, 0) + 1
                leaves.discard(parent)
        else:
            active.discard(i)
            leaves.discard(i)
            if parent in active:
                running_children[parent] -= 1
                if running_children[parent] == 0:
                    leaves.add(parent)
    unattributed += max(0.0, r_end - now)
    problems += cross_check(spans, root, kept, self_s, unattributed)
    return {
        "calls": calls,
        "s": inclusive,
        "self_s": self_s,
        "unattributed_s": unattributed,
        "wall_s": wall,
        "problems": problems,
    }


def cross_check(
    spans: list[list], root: int, kept: list[int], self_s: dict, unattributed: float
) -> list[str]:
    """Check the sweep's figures against plain sums of span durations.

    * The operation's top-level spans run in the measuring process, one at
      a time, so the wall they leave uncovered must be ``unattributed_s``.
    * Where no two spans under one parent overlap (no pool worker ran
      beside another), each layer's self time must be the sum over its
      spans of duration minus the durations of their direct children.

    ``kept`` indexes the spans the sweep counted.  Returns the
    disagreements found.
    """
    wall = spans[root][2] - spans[root][1]
    tol = 1e-6 * max(1.0, wall)
    children: dict[int, list[int]] = {root: []}
    for i in kept:
        children.setdefault(spans[i][3], []).append(i)

    def duration(i: int) -> float:
        return spans[i][2] - spans[i][1]

    problems = []
    concurrent = False
    for parent, kids in children.items():
        intervals = sorted((spans[i][1], spans[i][2]) for i in kids)
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            if start < end - 1e-6:
                concurrent = True
                if parent == root:
                    problems.append("the operation's top-level spans overlap")
    uncovered = wall - sum(duration(i) for i in children[root])
    if abs(unattributed - uncovered) > tol:
        problems.append(
            f"unattributed_s is {unattributed!r}, top-level spans leave {uncovered!r}"
        )
    if not concurrent:
        exclusive = dict.fromkeys(self_s, 0.0)
        for i in kept:
            nested = sum(duration(c) for c in children.get(i, ()))
            exclusive[spans[i][0]] += duration(i) - nested
        for layer, value in exclusive.items():
            if abs(value - self_s[layer]) > tol:
                problems.append(
                    f"{layer}: self time {self_s[layer]!r}, spans give {value!r}"
                )
    return problems
