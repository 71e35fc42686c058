"""Determinism check for the benchmark's simulated statistics.

Runs each workload twice with one seed and once with the next seed,
each for its minimum number of instances, and compares the
``simulated`` line every run prints (radio steps, transmissions,
receptions, MIS size and digest). Exits 0 when the repeated seed gives
identical values and the other seed gives different ones.

Run from the repository root::

    python3 perfbench/check_determinism.py [--seed 1] [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parents[1]
MARKER = "simulated ("


def simulated(workload: str, seed: int) -> Any:
    """The simulated record of one minimal run."""
    out = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if out.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {out.returncode}:\n"
            f"{out.stdout[-2000:]}{out.stderr[-2000:]}"
        )
    for line in out.stdout.splitlines():
        if line.startswith(MARKER):
            return json.loads(line.split("): ", 1)[1])
    raise SystemExit(f"{workload} seed {seed} printed no simulated record")


def main(argv: list[str] | None = None) -> int:
    names = [
        w["name"]
        for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    ]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--workload", action="append",
        help="workload to check (repeatable); default: those in BENCHMARK.json",
    )
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workload or names:
        first = simulated(workload, args.seed)
        again = simulated(workload, args.seed)
        other = simulated(workload, args.seed + 1)
        repeats = first == again
        differs = first != other
        ok = ok and repeats and differs
        print(
            f"{workload}: seed {args.seed} repeats "
            f"{'exactly' if repeats else 'WITH DIFFERENCES'}; seed "
            f"{args.seed + 1} {'differs' if differs else 'DOES NOT DIFFER'}"
        )
        if not repeats:
            print(f"  first: {json.dumps(first)}\n  again: {json.dumps(again)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
