"""Processes ``run.py`` starts: a set-up probe, and the measuring process.

``probe`` runs a workload from a fresh interpreter up to the start of its
first generation (the first ``evaluate_generation`` or, on the stacked path,
the first ``plan_generation_arrays`` of the replication module), then stops
and prints that instant on the shared monotonic clock.  Everything before it
(imports, scenario load and resolve, engine, oracle and pool construction)
is set-up.

``measure`` runs the workload's fixed number of operations (``inputs``;
operation k draws its inputs from the workload seed and k).  It runs
operation 0 once untimed (it warms caches), then times operations 0, 1,
..., inputs - 1, 0, 1, ... until each has run and the time is up; every
execution of an operation must repeat its first one exactly.  With
``--trace 1`` each execution runs twice, traced and then untraced.
``attempted`` and ``failed`` count the units of operations (one run, or
each job of a batch), not executions, so they depend on the seed alone,
never on how many executions fit in the time.  It prints one JSON object
with the outcomes, checks and metrics; an operation that raises or fails a
check contributes no metric.

    python3 perfbench/child.py probe --workload case3_serial --seed 1 \\
        --workdir .perfbench_work/probe
    python3 perfbench/child.py measure --workload case3_serial --seed 1 \\
        --seconds 20 --trace 0 --workdir .perfbench_work/measure
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import spans
import workloads


class SetupReached(BaseException):
    """Raised at the first generation; ``args[0]`` is the instant.

    A ``BaseException`` so the service's per-job ``except Exception`` lets
    it through; pool workers pickle it back like any task exception.
    """


def _reached(*args, **kwargs):
    raise SetupReached(perf_counter())


def probe(args) -> dict:
    from repro.experiments import replication

    replication.evaluate_generation = _reached
    replication.plan_generation_arrays = _reached
    wl = workloads.WORKLOADS[args.workload]
    try:
        wl.first_job(args.seed, args.scale, Path(args.workdir))
    except SetupReached as reached:
        return {"reached": reached.args[0]}
    raise RuntimeError("the workload finished without starting a generation")


def reference_band(workload: str, scale: str) -> dict:
    path = Path(__file__).with_name("reference.json")
    return json.loads(path.read_text())[scale][workload]


def traced_op(wl, args, op: int, workdir: Path):
    """One operation with tracing on; returns (outcome, attribution)."""
    tracer = spans.TRACER
    spans.install()
    root: list[int] = []

    @contextmanager
    def section():
        root.append(tracer.open(spans.ROOT))
        try:
            yield
        finally:
            tracer.close(root[0])

    try:
        outcome = wl.run_op(args.seed, args.scale, op, workdir, section)
    finally:
        spans.uninstall()
    layers = spans.attribute(tracer.spans, root[0])
    layers["counts"] = dict(tracer.counts)
    tracer.reset()
    return outcome, layers


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(layers: dict, games: int) -> dict[str, float]:
    """The per-layer metrics of one traced operation."""
    calls, incl, own = layers["calls"], layers["s"], layers["self_s"]
    counts = layers["counts"]
    out: dict[str, float] = {}
    for layer in spans.LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.s"] = incl[layer]
        self_name = "sim.self_s" if layer == "sim.engine" else f"{layer}.self_s"
        out[self_name] = own[layer]
    out["sim.kernels.replays_per_game"] = _ratio(
        calls["sim.kernels.replay_decide"], games
    )
    out["network.route_cache_hit_ratio"] = _ratio(
        counts.get("routes.hits", 0), calls["network.routes"]
    )
    out["parallel.worker_busy_ratio"] = _ratio(
        incl["parallel.task"], counts.get("parallel.capacity_s", 0.0)
    )
    out["service.dedupe_hit_ratio"] = _ratio(
        counts.get("service.dedupe_hits", 0), counts.get("service.submits", 0)
    )
    out["experiments.checkpoint.save.bytes"] = counts.get("checkpoint.bytes", 0)
    out["service.store.bytes"] = counts.get("store.bytes", 0)
    out["unattributed_s"] = layers["unattributed_s"]
    out["trace.wall_s"] = layers["wall_s"]
    return out


def _repeatable(outcome) -> tuple:
    """What a repeat of the same inputs must reproduce exactly."""
    errors = [(f["error"], f.get("message")) for f in outcome.failures]
    return outcome.signature, errors


def check(outcome, earlier, band: dict) -> list[str]:
    """The output checks one operation failed (empty when it passed).

    ``earlier`` is an operation of the run on the same inputs, or ``None``.
    """
    problems = []
    if earlier is not None and _repeatable(outcome) != _repeatable(earlier):
        problems.append("a repeat of the same inputs changed the outcome")
    if outcome.failures:
        return problems  # the raising units are counted; they have no outputs
    if not outcome.games_ok:
        problems.append("game count differs from the config (or dedupe broke)")
    if not abs(outcome.cooperation - band["cooperation"]) <= band["tolerance"]:
        problems.append(
            f"final cooperation {outcome.cooperation:.4f} outside"
            f" {band['cooperation']} ± {band['tolerance']}"
        )
    return problems


def measure(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    band = reference_band(args.workload, args.scale)
    workloads.locate_pool_failures()

    inputs = wl.inputs if args.scale == "full" else 1
    per = 2 if args.trace else 1  # a traced execution is followed by its pair
    # executions in order: (op, outcome, attribution, timed)
    runs = [(0, wl.run_op(args.seed, args.scale, 0, workdir), None, False)]
    deadline = perf_counter() + args.seconds
    n = 0  # timed executions so far
    while n < per * inputs or n % per or perf_counter() < deadline:
        op = n // per % inputs
        if args.trace and n % 2 == 0:
            outcome, layers = traced_op(wl, args, op, workdir)
        else:
            outcome, layers = wl.run_op(args.seed, args.scale, op, workdir), None
        runs.append((op, outcome, layers, True))
        n += 1

    # every execution of an operation is checked against its first one; an
    # operation fails as a whole if any of its executions fails a check
    attempted = failed = 0
    problems: list[str] = []
    failures: list[dict] = []
    passed = set()
    for op in range(inputs):
        mine = [(o, lay) for k, o, lay, _ in runs if k == op]
        first = mine[0][0]
        found = []
        for outcome, layers in mine:
            found += check(outcome, first, band)
            if layers is not None:
                found += layers["problems"][:5]
        problems += found
        failures.extend(first.failures)
        attempted += first.units
        # a failed check fails every unit of the operation
        failed += first.units if found else len(first.failures)
        if not found and not first.failures:
            passed.add(op)
    kept = [(o, lay) for op, o, lay, timed in runs if timed and op in passed]
    timed = [o for o, _ in kept]

    self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    workers = workloads.pool_workers(wl.resolved(args.seed, args.scale))
    median = statistics.median

    # metrics come from operations that passed; none passed, none reported
    metrics: dict[str, float] = {"peak_rss_mb": self_mb + workers * child_mb}
    if args.trace:
        metrics = {}
        # kept holds whole pairs of passed operations, traced then untraced
        pairs = list(zip(kept[::2], kept[1::2]))
        per_op = [layer_metrics(lay, o.games) for (o, lay), _ in pairs]
        if per_op:
            metrics = {name: median([m[name] for m in per_op]) for name in per_op[0]}
        pairs = [(t.wall_s, u.wall_s) for (t, _), (u, _) in pairs]
        if pairs:
            metrics["trace.untraced_wall_s"] = median([u for _, u in pairs])
            metrics["trace.overhead_s"] = median([t - u for t, u in pairs])
    elif timed:
        metrics["games_per_s"] = median([o.games / o.rate_wall_s for o in timed])
        metrics["jobs_per_s"] = median([o.units / o.rate_wall_s for o in timed])
        metrics["job_p50_s"] = median([s for o in timed for s in o.unit_s])
        metrics["submit_p50_ms"] = median([ms for o in timed for ms in o.submit_ms])
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "failures": failures[:20],
        "cooperation": [o.cooperation for _, o, _, _ in runs],
        "walls": [o.rate_wall_s for _, o, _, _ in runs],
        "inputs": inputs,
        "runs": len(runs),
        "timed_runs": len(timed),
        "workers": workers,
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("probe", "measure"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    out = probe(args) if args.role == "probe" else measure(args)
    print(json.dumps(out))  # noqa: T201


if __name__ == "__main__":
    main()
