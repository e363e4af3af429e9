"""End-to-end benchmark of the strategy-evolution simulator.

    python3 perfbench/run.py --workload case3_serial --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` measures the per-layer metrics of
``BENCHMARK.json`` from a traced run.  The workloads are described in
``perfbench/README.md``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it are a readable summary.

The program runs in child processes (``perfbench/child.py``): set-up probes,
each from a fresh interpreter, and one measuring process, so that peak
memory is that of the measuring process and its pool workers alone.
Scratch files go to ``.perfbench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-up probes per run (after one unmeasured probe that warms the
#: bytecode and file caches); ``setup_s`` is their median
SETUP_PROBES = 7
#: the whole run, children included, ends within this many seconds
TIME_LIMIT_S = 170
#: files the workloads need from the checkout
REQUIRED = ["src/repro/__init__.py"] + sorted({w.scenario for w in WORKLOADS.values()})

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
_PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def _relative(path) -> bool:
    return (
        isinstance(path, str)
        and len(path) <= 200
        and not path.startswith("/")
        and ".." not in path.split("/")
    )


def _check_entries(entries: list, fields: set, what: str, names: set) -> None:
    for entry in entries:
        if set(entry) != fields:
            raise ValueError(f"{what}: keys must be exactly {sorted(fields)}")
        name = entry["name"]
        if not isinstance(name, str) or not _NAME.fullmatch(name) or name in names:
            raise ValueError(f"{what}: bad or repeated name {name!r}")
        names.add(name)
        if "unit" in entry and not _UNIT.fullmatch(str(entry["unit"])):
            raise ValueError(f"{what} {name}: bad unit")
        if "better" in entry and entry["better"] not in ("higher", "lower"):
            raise ValueError(f"{what} {name}: better is higher or lower")
        if "bound" in entry and not 0 < entry["bound"] <= 0.25:
            raise ValueError(f"{what} {name}: bound is in (0, 0.25]")
        why = entry.get("why", "")
        if len(why) > 200 or "\n" in why:
            raise ValueError(f"{what} {name}: why is one line of 200 characters")


def validate_benchmark(path: Path) -> dict:
    """Load ``BENCHMARK.json`` and check it against the benchmark contract.

    Raises ``ValueError`` naming the first violation.
    """
    if path.stat().st_size > 64 * 1024:
        raise ValueError("BENCHMARK.json is larger than 64 KiB")
    spec = json.loads(path.read_text())
    if set(spec) != _KEYS:
        raise ValueError(f"keys must be exactly {sorted(_KEYS)}")
    paths, command = spec["paths"], spec["command"]
    if not 1 <= len(paths) <= 16 or not all(
        _relative(p) and _PATH.fullmatch(p) for p in paths
    ):
        raise ValueError("paths: 1 to 16 relative directories")
    if not 1 <= len(command) <= 32 or not all(_relative(c) for c in command):
        raise ValueError("command: 1 to 32 relative strings of 200 characters")
    seconds = spec["run_seconds"]
    if not isinstance(seconds, int) or not 1 <= seconds <= 60:
        raise ValueError("run_seconds: a whole number from 1 to 60")
    sections = [
        ("workloads", {"name", "why"}, 2, 8),
        ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
        ("per_layer", {"name", "unit", "better"}, 1, 128),
    ]
    names: set[str] = set()
    for what, fields, low, high in sections:
        if not low <= len(spec[what]) <= high:
            raise ValueError(f"{what}: {low} to {high} entries")
        _check_entries(spec[what], fields, what, names)
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise ValueError("end_to_end needs setup_s in s, lower is better")
    return spec


def _child(role: str, args, workdir: Path, deadline: float, extra=()) -> dict:
    command = [
        sys.executable,
        str(HERE / "child.py"),
        role,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--scale",
        args.scale,
        "--workdir",
        str(workdir),
        *extra,
    ]
    timeout = max(1.0, deadline - perf_counter())
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if done.returncode != 0:
        raise RuntimeError(f"{role} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(args, workdir: Path, deadline: float) -> list[float]:
    """Fresh interpreter to first generation, once per probe."""
    times = []
    for i in range(SETUP_PROBES + 1):
        probe_dir = workdir / f"probe{i}"
        start = perf_counter()
        reached = _child("probe", args, probe_dir, deadline)["reached"]
        if i:
            times.append(reached - start)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def summary(args, out: dict, metrics: dict, wanted: list, setup: list) -> list:
    """The readable lines printed before the result."""
    attempted, failed = out["attempted"], out["failed"]
    coop, walls = out["cooperation"], out["walls"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
        f"operations {out['inputs']}, executions {out['runs']}"
        f" (timed and passed {out['timed_runs']}), pool workers {out['workers']}",
        f"final cooperation per execution: {[round(c, 4) for c in coop]}",
        f"run or drain wall per execution (s): {[round(w, 3) for w in walls]}",
        f"failed_share {failed / attempted:.4f} ({failed} of {attempted})",
    ]
    lines += [f"  failure: {failure}" for failure in out["failures"]]
    lines += [f"  check failed: {problem}" for problem in out["problems"]]
    if setup:
        lines.append(f"setup probes (s): {[round(s, 4) for s in setup]}")
    if args.trace:
        wall = metrics.get("trace.wall_s", 0.0)
        lines.append(
            f"traced wall {wall:.4f} s (per operation, self times and"
            " unattributed_s are checked against sums of span durations);"
            " self shares:"
        )
        names = [m["name"] for m in wanted if m["name"].endswith("self_s")]
        for name in names + ["unattributed_s"]:
            if wall and metrics.get(name):
                share = metrics[name] / wall
                lines.append(f"  {name:40s} {metrics[name]:10.4f} s {share:8.2%}")
    for m in wanted:
        value = metrics.get(m["name"])
        shown = "not measured" if value is None else f"{value:14.6g}"
        lines.append(f"{m['name']:45s} {shown:>14s} {m['unit']}")
    return lines


def result_of(out: dict, wanted: list, metrics: dict) -> dict:
    """The result line: correct only if every check passed and every
    wanted metric was measured on an operation that passed.

    A metric that was not measured is left out, never reported as 0; its
    absence is added to ``out["problems"]``.
    """
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        out["problems"].append(f"metrics not measured: {missing}")
    return {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }


def main(argv=None) -> int:
    deadline = perf_counter() + TIME_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny: one generation and two service jobs (smoke tests only)",
    )
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"not a checkout of the simulator: missing {missing}\n")
        return 2
    try:
        spec = validate_benchmark(ROOT / "BENCHMARK.json")
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"BENCHMARK.json: {exc}\n")
        return 2
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        setup = [] if args.trace else setup_seconds(args, workdir, deadline)
        extra = ("--seconds", str(args.seconds), "--trace", str(args.trace))
        out = _child("measure", args, workdir / "measure", deadline, extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = dict(out["metrics"])
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    result = result_of(out, wanted, metrics)
    lines = summary(args, out, metrics, wanted, setup) + [json.dumps(result)]
    print("\n".join(lines))  # noqa: T201
    return 0


if __name__ == "__main__":
    sys.exit(main())
