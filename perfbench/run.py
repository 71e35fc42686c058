"""The standing benchmark: one command, every metric, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload mis-udg-2k --seed 1 --seconds 30 --trace 0

The workload runs instances in a closed loop until its timed sections
add up to ``--seconds`` (at least ``min_instances`` of them), checks
every output outside the timed sections, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the loop is followed by one
traced replay of the median instance, and the metrics are the
per-layer ones, read from that replay. Spans of the traced replay are
written to ``.perfbench/traces/``. The exit code is 0 only when every
check passed. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"


def end_to_end(instances: list[Any]) -> dict[str, float]:
    """The user-visible metrics of the untraced loop.

    Times are medians over the instances; rates are totals over every
    timed section of the run, so they average over all of it.
    """
    walls = sum(i.wall_s for i in instances)
    return {
        "wall_s": statistics.median(i.wall_s for i in instances),
        "steps_per_s": sum(i.steps for i in instances) / walls,
        "setup_s": statistics.median(i.setup_s for i in instances),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
        "jobs_per_s": sum(i.jobs for i in instances) / walls,
        "resubmit_jobs_per_s": sum(
            i.warm_jobs * len(i.warm_s) for i in instances
        )
        / sum(sum(i.warm_s) for i in instances),
    }


def run(args: argparse.Namespace, workdir: pathlib.Path) -> int:
    from spans import Tracer
    from workloads import TRACED_METHODS, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](args.seed, workdir)

    instances = []
    measured = 0.0
    while len(instances) < workload.min_instances or measured < args.seconds:
        inst = workload.instance(len(instances))
        instances.append(inst)
        measured += inst.wall_s + sum(inst.warm_s)
        print(
            f"instance {inst.index}: setup {inst.setup_s:.4f}s, "
            f"wall {inst.wall_s:.4f}s, {inst.steps} steps, "
            f"resubmit {statistics.median(inst.warm_s):.4f}s",
            flush=True,
        )
    print(
        "simulated (exact for a given seed; not host time): "
        + json.dumps(
            [i.simulated for i in instances[: workload.min_instances]],
            sort_keys=True,
        ),
        flush=True,
    )

    checked = list(instances)
    if args.trace:
        metrics_spec = spec["per_layer"]
        walls = [i.wall_s for i in instances]
        median_wall = statistics.median_low(walls)
        tracer = Tracer()
        workload.tracer = tracer
        with tracer.instrument(TRACED_METHODS):
            traced = workload.instance(walls.index(median_wall))
        checked.append(traced)
        values = workload.layers(traced)
        values["trace.overhead_s"] = traced.wall_s - median_wall
        path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics_spec = spec["end_to_end"]
        values = end_to_end(instances)

    attempted = sum(i.jobs + i.checks for i in checked)
    failed = sum(i.failed_jobs + len(i.failures) for i in checked)
    for inst in checked:
        if inst.failed_jobs:
            print(f"FAILED {inst.failed_jobs} jobs, instance {inst.index}")
        for failure in inst.failures:
            print(f"FAILED check, instance {inst.index}: {failure}")
    values["failed_frac"] = failed / attempted

    absent = [m["name"] for m in metrics_spec if m["name"] not in values]
    if absent:
        print(
            f"not measured on {args.workload}, reported as 0 "
            f"(see perfbench/README.md): {', '.join(absent)}"
        )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {
                        "value": values.get(m["name"], 0.0),
                        "unit": m["unit"],
                    }
                    for m in metrics_spec
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def stop_children() -> None:
    """Stop and reap every process the run started.

    Pool workers are joined when their pool closes; what outlives them
    is the ``multiprocessing`` resource tracker, which the campaign's
    shared-memory graphs start and which would otherwise exit only
    after this process does. Closing its pipe stops it, and ``_stop``
    waits for it to end.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"no repro package under {src}: run the benchmark from a "
            f"checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    WORK.mkdir(exist_ok=True)
    workdir = pathlib.Path(
        tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    )
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
