"""P4 — streaming window execution: the first ``n >= 10^5`` runs (PR 4).

The PR 4 tentpole turned window execution into a streaming plan/commit
pipeline: protocol blocks go out as lazy
:class:`~repro.engine.segments.StreamedWindow` plans and the runner
executes them in ``(chunk_steps, n)`` slabs picked from a peak-memory
budget, so the dense ``(w, n)`` hear-window — the piece that stalled
every experiment beyond ``n = 10^4`` — never materializes. This bench
records what that unlocks:

* **Streamed EstimateEffectiveDegree** at ``n = 10^5`` (the E1/E2
  scaling slice's dominant block): wall time plus the tracemalloc peak
  of the streamed run, against the *monolithic footprint* — the
  ``w * n * 9`` bytes the pre-streaming engine would need just for the
  block's boolean masks and int64 hear-window. Acceptance floor: peak
  at least **4x** below the monolithic footprint.

* **Streamed Decay block** at the same ``n`` (Radio MIS's other
  sub-protocol), same accounting.

Bit-identity is asserted at a small ``n`` before any large run is
timed (streamed vs the step-wise reference, results and rng state), so
the numbers reported are for the verified configuration.

Results persist to ``BENCH_PR4.json``. Run directly::

    PYTHONPATH=src python benchmarks/bench_p4_streaming.py --n 100000

or through ``benchmarks/run_perf_smoke.py``, whose ``--p4-n`` default
is the full ``100000`` (the streamed runs finish in seconds — that is
the point) with ``--skip-p4``/``--p4-n`` to opt down; CI runs this
bench in its own wall-clock-capped ``streaming-large-n`` job and skips
it in the perf-smoke job.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time
from datetime import datetime, timezone

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_PR4.json"

#: Acceptance floor from the PR 4 issue: streamed peak memory at least
#: this many times below the monolithic (w, n) mask + hear footprint.
MEM_RATIO_FLOOR = 4.0

#: Default streaming budget for the large runs (the CLI's --mem-budget
#: analogue). 64 MiB keeps a 10^5-node run laptop-sized — and is what
#: the pre-streaming engine could not come close to: the EED block's
#: monolithic mask + hear footprint alone is ~0.5 GiB at this scale.
MEM_BUDGET = 64 << 20

#: Bytes per (step, node) cell of the monolithic window: the boolean
#: mask matrix (1) plus the int64 hear-window (8) the pre-streaming
#: engine materialized per block.
MONOLITHIC_CELL_BYTES = 9


def _udg(n: int, seed: int):
    """Sparse UDG (~9 average degree), the scaling-sweep family.

    Connectivity is not required by MIS/EED and is not enforced — at
    ``n = 10^5`` and constant average degree a connected sample is
    vanishingly rare, exactly the regime the paper's local algorithms
    are for.
    """
    from repro import graphs

    side = float(np.sqrt(n * np.pi / 9.0))
    return graphs.random_udg(
        n, side, np.random.default_rng(seed), connected=False
    )


def _assert_small_scale_identity(seed: int = 901) -> None:
    """Streamed == reference at a small n, before timing anything big."""
    from repro.api import ExecutionPolicy
    from repro.core.decay import run_decay, run_decay_reference
    from repro.core.effective_degree import (
        estimate_effective_degree,
        estimate_effective_degree_reference,
    )
    from repro.engine import STREAM_CELL_BYTES
    from repro.radio import RadioNetwork

    g = _udg(500, seed)
    # A budget buying 13-row chunks over the 500 nodes.
    chunked = ExecutionPolicy(mem_budget=13 * 500 * STREAM_CELL_BYTES)
    p = np.full(500, 0.5)
    active = np.ones(500, dtype=bool)
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    a = estimate_effective_degree(
        RadioNetwork(g), p, active, rng_a, C=2, policy=chunked
    )
    b = estimate_effective_degree_reference(
        RadioNetwork(g), p, active, rng_b, C=2
    )
    assert (a.counts == b.counts).all()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
    da = run_decay(RadioNetwork(g), active, rng_a, iterations=4,
                   policy=chunked)
    db = run_decay_reference(RadioNetwork(g), active, rng_b, iterations=4)
    assert (da.heard_from == db.heard_from).all()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def bench_streamed_eed(
    n: int, seed: int = 902, C: int = 2, mem_budget: int = MEM_BUDGET
) -> dict:
    """One streamed EstimateEffectiveDegree block at scale ``n``."""
    from repro.analysis.experiments import measure_peak
    from repro.api import ExecutionPolicy
    from repro.core.effective_degree import (
        EstimateEffectiveDegree,
        estimate_effective_degree,
    )
    from repro.engine import chunk_steps_for_budget
    from repro.radio import RadioNetwork

    g = _udg(n, seed)
    net = RadioNetwork(g)
    p = np.full(n, 0.5)
    active = np.ones(n, dtype=bool)
    total = EstimateEffectiveDegree(net, p, active, C=C).total_steps

    def workload():
        return estimate_effective_degree(
            net, p, active, np.random.default_rng(seed + 1), C=C,
            policy=ExecutionPolicy(mem_budget=mem_budget),
        )

    # Two passes: wall time untraced (tracemalloc taxes allocations),
    # then the same seeded run traced for its peak.
    t0 = time.perf_counter()
    result = workload()
    wall = time.perf_counter() - t0
    _, peak = measure_peak(workload)
    monolithic = total * n * MONOLITHIC_CELL_BYTES
    return {
        "workload": (
            "EstimateEffectiveDegree block, streamed (mem-budgeted "
            "slabs) at scale"
        ),
        "n": n,
        "edges": g.number_of_edges(),
        "C": C,
        "steps": total,
        "high_count": int(result.high.sum()),
        "chunk_steps": chunk_steps_for_budget(n, mem_budget),
        "mem_budget_bytes": mem_budget,
        "wall_s": wall,
        "peak_mem_bytes": int(peak),
        "monolithic_window_bytes": monolithic,
        "mem_ratio": monolithic / max(1, peak),
        "floor": MEM_RATIO_FLOOR,
    }


def bench_streamed_decay(
    n: int, seed: int = 903, mem_budget: int = MEM_BUDGET
) -> dict:
    """One streamed Claim-10 Decay block at scale ``n``."""
    from repro.analysis.experiments import measure_peak
    from repro.api import ExecutionPolicy
    from repro.core.decay import claim10_iterations, run_decay
    from repro.engine import chunk_steps_for_budget
    from repro.radio import RadioNetwork

    g = _udg(n, seed)
    net = RadioNetwork(g)
    active = np.random.default_rng(seed).random(n) < 0.5
    iterations = claim10_iterations(n)

    def workload():
        return run_decay(
            net, active, np.random.default_rng(seed + 1),
            iterations=iterations,
            policy=ExecutionPolicy(mem_budget=mem_budget),
        )

    # Two passes: wall time untraced (tracemalloc taxes allocations),
    # then the same seeded run traced for its peak.
    t0 = time.perf_counter()
    result = workload()
    wall = time.perf_counter() - t0
    total = net.steps_elapsed  # snapshot before the traced re-run
    _, peak = measure_peak(workload)
    monolithic = total * n * MONOLITHIC_CELL_BYTES
    return {
        "workload": "Claim-10 Decay block, streamed at scale",
        "n": n,
        "edges": g.number_of_edges(),
        "iterations": iterations,
        "steps": total,
        "heard_fraction": float(result.heard.mean()),
        "chunk_steps": chunk_steps_for_budget(n, mem_budget),
        "mem_budget_bytes": mem_budget,
        "wall_s": wall,
        "peak_mem_bytes": int(peak),
        "monolithic_window_bytes": monolithic,
        "mem_ratio": monolithic / max(1, peak),
        "floor": MEM_RATIO_FLOOR,
    }


def run_bench(n: int = 100000, mem_budget: int = MEM_BUDGET) -> dict:
    """Run the PR 4 benchmarks and assemble the persistable record."""
    _assert_small_scale_identity()
    eed = bench_streamed_eed(n, mem_budget=mem_budget)
    decay = bench_streamed_decay(n, mem_budget=mem_budget)
    return {
        "bench": "p4_streaming",
        "generated": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "streamed_eed": eed,
        "streamed_decay": decay,
        "passes_floors": bool(
            eed["mem_ratio"] >= eed["floor"]
            and decay["mem_ratio"] >= decay["floor"]
        ),
    }


def write_results(results: dict, path: pathlib.Path = RESULT_PATH) -> None:
    """Persist the benchmark record as pretty-printed JSON."""
    path.write_text(json.dumps(results, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    """Run, print, persist; exit nonzero if the memory floor is missed."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--n", type=int, default=100000, help="scale (default 100000)"
    )
    parser.add_argument(
        "--mem-budget",
        type=int,
        default=MEM_BUDGET,
        help="streaming budget in bytes (default 64 MiB)",
    )
    args = parser.parse_args(argv)
    results = run_bench(n=args.n, mem_budget=args.mem_budget)
    for key in ("streamed_eed", "streamed_decay"):
        r = results[key]
        print(
            f"{key:14s} n={r['n']}: {r['steps']} steps in "
            f"{r['wall_s']:.1f}s, peak {r['peak_mem_bytes'] / 2**20:.0f} "
            f"MiB vs monolithic "
            f"{r['monolithic_window_bytes'] / 2**20:.0f} MiB = "
            f"{r['mem_ratio']:.1f}x (floor {r['floor']}x)"
        )
    write_results(results)
    print(f"persisted to {RESULT_PATH}")
    return 0 if results["passes_floors"] else 1


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
