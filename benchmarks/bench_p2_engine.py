"""P2 — unified windowed protocol engine: before/after timings (PR 2).

PR 1 batched the *oblivious* primitives (Decay blocks, round-robin
rotations). PR 2 migrated every step-at-a-time protocol onto the
:mod:`repro.engine` windowed engine; this benchmark measures the two
protocols the ROADMAP named as still step-wise — Radio MIS and
EstimateEffectiveDegree — against their retained ``*_reference``
step-wise twins, which run the identical loop under the reference
engine (bit-identical seeded results, pinned by
``tests/test_engine_windowed.py``):

* **Radio MIS** at ``n >= 2000`` on a dense UDG: every round's two
  Decay blocks and its EstimateEffectiveDegree block run as oblivious
  windows. Acceptance floor: **5x**.

* **EstimateEffectiveDegree** at ``n >= 2000`` with mid-run desire
  levels (the ladder mixture Radio MIS produces after a few halvings):
  the whole ``O(log^2 n)``-step block is oblivious. Acceptance floor:
  **5x**.

* **BGI broadcast** (recorded, no floor): its oblivious windows are one
  sweep wide — ``ceil(log2 n)`` steps between informed-set decision
  points — so the batched path saves only the per-step dispatch, a
  structural limit (~1-3x at these scales), not an engine deficiency.

Also records the E1/E6 trial slices through
:func:`repro.analysis.experiments.run_trials` (serial vs
``processes=cpu_count`` wall-clock, bit-identical statistics), per the
ROADMAP's "keep the trajectory measured" item. Results persist to
``BENCH_PR2.json``. Run directly::

    PYTHONPATH=src python benchmarks/bench_p2_engine.py

or through ``benchmarks/run_perf_smoke.py`` (tier-1 suite + P1 + this).
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import platform
import time
from datetime import datetime, timezone

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_PR2.json"

#: Acceptance floors from the PR 2 issue.
MIS_FLOOR = 5.0
EED_FLOOR = 5.0


def _udg(n: int, side: float, seed: int):
    from repro import graphs

    return graphs.random_udg(n, side, np.random.default_rng(seed))


def bench_mis(n: int = 2000, seed: int = 101) -> dict:
    """Radio MIS: windowed engine vs. step-wise reference.

    Dense UDG (average degree ~50) so the per-step delivery cost is
    realistic for the protocol's intended regime; ``record_golden`` off
    (pure protocol, no oracle instrumentation) and a moderate ``C``.
    """
    from repro.core import MISConfig, compute_mis, compute_mis_reference
    from repro.radio import RadioNetwork

    g = _udg(n, (n / 31.0) ** 0.5, seed)  # side ~= 8 at n = 2000
    config = MISConfig(eed_C=8, record_golden=False)

    net_ref = RadioNetwork(g)
    t0 = time.perf_counter()
    ref = compute_mis_reference(net_ref, np.random.default_rng(seed + 1), config)
    reference_s = time.perf_counter() - t0

    net_win = RadioNetwork(g)
    t0 = time.perf_counter()
    win = compute_mis(net_win, np.random.default_rng(seed + 1), config)
    windowed_s = time.perf_counter() - t0

    assert win.mis == ref.mis and win.steps_used == ref.steps_used
    return {
        "workload": "Radio MIS (Algorithm 7), windowed vs step-wise",
        "n": n,
        "edges": g.number_of_edges(),
        "steps": win.steps_used,
        "rounds": win.rounds_used,
        "reference_s": reference_s,
        "windowed_s": windowed_s,
        "speedup": reference_s / windowed_s,
        "floor": MIS_FLOOR,
    }


def bench_effective_degree(n: int = 2000, seed: int = 303) -> dict:
    """EstimateEffectiveDegree: windowed engine vs. step-wise reference.

    Dense UDG with mid-run desire levels ``0.25 * 2^-j`` (j uniform in
    0..5) over a 70% active set — the regime Radio MIS actually runs
    the block in after a few rounds of halvings.
    """
    from repro.core import (
        estimate_effective_degree,
        estimate_effective_degree_reference,
    )
    from repro.radio import RadioNetwork

    g = _udg(n, (n / 80.0) ** 0.5, seed)  # side ~= 5 at n = 2000
    setup = np.random.default_rng(seed + 1)
    p = 0.25 * 2.0 ** -setup.integers(0, 6, size=n)
    active = setup.random(n) < 0.7

    # Best-of-2 on BOTH paths: the gated ratio compares the same
    # statistic on each side, so host noise cannot bias it.
    reference_s = float("inf")
    for _ in range(2):
        net_ref = RadioNetwork(g)
        t0 = time.perf_counter()
        ref = estimate_effective_degree_reference(
            net_ref, p, active, np.random.default_rng(seed + 2), C=24
        )
        reference_s = min(reference_s, time.perf_counter() - t0)

    windowed_s = float("inf")
    for _ in range(2):
        net_win = RadioNetwork(g)
        t0 = time.perf_counter()
        win = estimate_effective_degree(
            net_win, p, active, np.random.default_rng(seed + 2), C=24
        )
        windowed_s = min(windowed_s, time.perf_counter() - t0)

    assert (win.counts == ref.counts).all()
    return {
        "workload": "EstimateEffectiveDegree (Algorithm 6), windowed vs step-wise",
        "n": n,
        "edges": g.number_of_edges(),
        "steps": net_ref.steps_elapsed,
        "reference_s": reference_s,
        "windowed_s": windowed_s,
        "speedup": reference_s / windowed_s,
        "floor": EED_FLOOR,
    }


def bench_bgi(n: int = 2000, seed: int = 202, repeats: int = 3) -> dict:
    """BGI broadcast: windowed vs. step-wise (recorded, no floor).

    One oblivious window per sweep is all the structure BGI offers —
    the informed set is a decision point every ``ceil(log2 n)`` steps —
    so the expected gain is the per-step dispatch overhead only.
    """
    from repro.baselines import bgi_broadcast, bgi_broadcast_reference
    from repro.radio import RadioNetwork

    g = _udg(n, (n / 10.0) ** 0.5, seed)  # side ~= 14 at n = 2000

    t0 = time.perf_counter()
    for r in range(repeats):
        net = RadioNetwork(g)
        ref = bgi_broadcast_reference(net, 0, np.random.default_rng(seed + r))
    reference_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for r in range(repeats):
        net = RadioNetwork(g)
        win = bgi_broadcast(net, 0, np.random.default_rng(seed + r))
    windowed_s = time.perf_counter() - t0

    assert win == ref
    return {
        "workload": "BGI broadcast, windowed vs step-wise (no floor: "
        "sweep-wide windows are a structural limit)",
        "n": n,
        "edges": g.number_of_edges(),
        "repeats": repeats,
        "steps_last": win.steps,
        "reference_s": reference_s,
        "windowed_s": windowed_s,
        "speedup": reference_s / windowed_s,
    }


# ---------------------------------------------------------------------------
# E1/E6 slices through the parallel trial runner (module-level and
# partial-able so the process pool can pickle them).
# ---------------------------------------------------------------------------
def _e1_mis_steps(n: int, rng: np.random.Generator) -> float:
    """One E1 trial: windowed Radio MIS steps on a fresh UDG."""
    from repro import graphs
    from repro.core import MISConfig, compute_mis
    from repro.radio import RadioNetwork

    g = graphs.random_udg(n, (n / 4.0) ** 0.5, rng)
    net = RadioNetwork(g)
    result = compute_mis(
        net, rng, MISConfig(eed_C=6, record_golden=False)
    )
    return float(result.steps_used)


def _e6_broadcast_rounds(n: int, rng: np.random.Generator) -> float:
    """One E6 trial: engine-backed round-accounted broadcast rounds."""
    from repro import graphs
    from repro.core import broadcast

    g = graphs.random_udg(n, (n / 4.0) ** 0.5, rng)
    return float(broadcast(g, 0, rng).total_rounds)


def bench_trial_runner(n: int = 600, trials: int = 6, seed: int = 11) -> dict:
    """E1/E6 slices: serial vs process-pool wall-clock, same numbers.

    The parallel speedup depends on the host's core count, so it is
    recorded, not gated; what *is* asserted is bit-identical statistics
    between the serial and parallel runners.
    """
    from repro.analysis.experiments import run_trials

    record: dict = {"n": n, "trials": trials}
    for name, measure in (
        ("e1_mis_steps", functools.partial(_e1_mis_steps, n)),
        ("e6_broadcast_rounds", functools.partial(_e6_broadcast_rounds, n)),
    ):
        t0 = time.perf_counter()
        serial = run_trials(measure, trials, seed)
        serial_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = run_trials(
            measure, trials, seed, processes=os.cpu_count() or 1
        )
        parallel_s = time.perf_counter() - t0
        assert serial == parallel, f"{name}: parallel stats diverged"
        record[name] = {
            "mean": serial.mean,
            "std": serial.std,
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "parallel_speedup": serial_s / parallel_s,
        }
    return record


def peak_memory(n: int = 2000, seed: int = 101) -> int:
    """Tracemalloc peak of the windowed Radio MIS workload.

    A separate traced pass: tracing taxes small allocations heavily
    enough to distort the floor-gated timing ratios, so the timed
    benches run untraced and this re-execution records the memory side
    of the trajectory.
    """
    from repro.analysis.experiments import measure_peak
    from repro.core import MISConfig, compute_mis
    from repro.radio import RadioNetwork

    g = _udg(n, (n / 31.0) ** 0.5, seed)
    net = RadioNetwork(g)
    config = MISConfig(eed_C=8, record_golden=False)
    _, peak = measure_peak(
        lambda: compute_mis(net, np.random.default_rng(seed + 1), config)
    )
    return int(peak)


def run_bench(n: int = 2000) -> dict:
    """Run the PR 2 benchmarks and assemble the persistable record.

    ``peak_mem_bytes`` (tracemalloc over the windowed MIS workload,
    numpy buffers included) rides alongside the wall times so the
    ``BENCH_*.json`` trajectory tracks memory as well as speed.
    """
    mis = bench_mis(n=n)
    eed = bench_effective_degree(n=n)
    bgi = bench_bgi(n=n)
    trials = bench_trial_runner()
    return {
        "bench": "p2_engine",
        "generated": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "peak_mem_bytes": peak_memory(n=n),
        "radio_mis": mis,
        "effective_degree": eed,
        "bgi_broadcast": bgi,
        "trial_runner": trials,
        "passes_floors": bool(
            mis["speedup"] >= mis["floor"]
            and eed["speedup"] >= eed["floor"]
        ),
    }


def write_results(results: dict, path: pathlib.Path = RESULT_PATH) -> None:
    """Persist the benchmark record as pretty-printed JSON."""
    path.write_text(json.dumps(results, indent=2) + "\n")


def main() -> int:
    """Run, print, persist; exit nonzero if a speedup floor is missed."""
    results = run_bench()
    for key in ("radio_mis", "effective_degree", "bgi_broadcast"):
        row = results[key]
        floor = row.get("floor")
        floor_txt = f" (floor {floor}x)" if floor else " (no floor)"
        print(
            f"{key:18s} n={row['n']}: {row['reference_s']:.2f}s -> "
            f"{row['windowed_s']:.2f}s = {row['speedup']:.1f}x{floor_txt}"
        )
    for name in ("e1_mis_steps", "e6_broadcast_rounds"):
        row = results["trial_runner"][name]
        print(
            f"{name:18s} serial {row['serial_s']:.2f}s -> parallel "
            f"{row['parallel_s']:.2f}s = {row['parallel_speedup']:.1f}x"
        )
    write_results(results)
    print(f"persisted to {RESULT_PATH}")
    return 0 if results["passes_floors"] else 1


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
