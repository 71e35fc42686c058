"""P3 — ICP's engine path and dense-regime delivery.

Two workloads the PR 3 issue names, both bit-identity-asserted inside
the bench before any timing is reported:

* **ICP** at ``n >= 2000`` on a dense UDG, under the default engine:
  the runner's step driver (``WindowedRunner.run_steps``) runs the
  slot passes' ``TimeMultiplexer`` stack with the Decay background one
  one-row window per step, replacing one dense matvec per step with a
  product over that step's few transmitters. Measured against
  ``run_steps`` over the same stack, the step-wise reference, summed
  over ``ICP_RUNS`` run seeds on one graph (earlier records timed a
  single seed, best of 2). Acceptance floor: **3x**. The record keeps
  the keys ``fused_icp`` and ``fused_s`` from when a window
  multiplexer zipped the two streams into joint windows instead.
  (Records before the decision-step engine path was deleted also
  timed it, as ``windowed_s`` and ``speedup_vs_windowed``.)

* **Dense EED delivery** on the EstimateEffectiveDegree ``p ~ 0.5``
  regime (dense UDG, all nodes active at desire level 0.5), each leg
  the one window product (``DeliveryKernels.execute_coo``) against the
  step-wise replay of the same rows through ``RadioNetwork.deliver``
  (the oracle the validating runner uses), best of 3 on both sides.
  Block leg: the block's sampled rows as transmitter pairs, floor
  **5x** (measured ~20x on a 2-vCPU x86-64 VM). Window leg: one
  256-row level-0 window at ``p = 0.5``, its mask pairs through
  ``execute_coo``, floor **2x** (measured ~3.6x through the removed
  ``RadioNetwork.deliver_window``, the same product). Earlier records
  compared the removed routed kernels with each other (``auto`` vs
  forced-``sparse`` blocks, forced-``dense`` vs forced-``sparse``
  windows, the mask path vs the product); the committed
  ``BENCH_PR3.json`` keeps that record as history.

Results persist to ``BENCH_PR3.json``. Run directly::

    PYTHONPATH=src python benchmarks/bench_p3_engine.py

or through ``benchmarks/run_perf_smoke.py`` (tier-1 suite + P1 + P2 +
this).
"""

from __future__ import annotations

import json
import pathlib
import platform
import time
from datetime import datetime, timezone

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_PR3.json"

#: Acceptance floors from the PR 3 issue (CI margins are wide: the
#: measured ICP speedup is ~3x the floor on a quiet host).
FUSED_ICP_FLOOR = 3.0
COO_BLOCK_FLOOR = 5.0
DENSE_WINDOW_FLOOR = 2.0

#: Run seeds the ICP leg times both engines over (one graph).
ICP_RUNS = 4


def _udg(n: int, side: float, seed: int):
    from repro import graphs

    return graphs.random_udg(n, side, np.random.default_rng(seed))


def bench_icp(n: int = 2000, seed: int = 404, ell: int = 6) -> dict:
    """ICP under the default engine (the per-step lift) vs the
    step-wise reference over ``ICP_RUNS`` run seeds on one graph,
    bit-identity-asserted per seed."""
    from repro.api import ExecutionPolicy
    from repro.core import build_icp_inputs, intra_cluster_propagation
    from repro.radio import RadioNetwork

    g = _udg(n, (n / 31.0) ** 0.5, seed)  # avg degree ~90 at n = 2000
    clustering, schedule, knowledge = build_icp_inputs(
        g, np.random.default_rng(seed + 1), beta=0.3, sources={0: 9}
    )
    policies = {
        "reference": ExecutionPolicy(engine="reference"),
        "default": ExecutionPolicy(),
    }

    # Both legs run every seed once, back to back, and the gated ratio
    # compares their summed times: one seed's transmissions are no
    # sample of the workload (they span 40k-59k across 8 seeds).
    timings = dict.fromkeys(policies, 0.0)
    run_seeds = list(range(seed + 2, seed + 2 + ICP_RUNS))
    steps, transmissions = [], []
    for run_seed in run_seeds:
        results, nets = {}, {}
        for name, policy in policies.items():
            net = RadioNetwork(g)
            t0 = time.perf_counter()
            results[name] = intra_cluster_propagation(
                net, clustering, schedule, knowledge, ell,
                np.random.default_rng(run_seed), policy=policy,
            )
            timings[name] += time.perf_counter() - t0
            nets[name] = net
        ref = results["reference"]
        assert (results["default"].knowledge == ref.knowledge).all()
        assert results["default"].steps == ref.steps
        assert (
            nets["default"].trace.total_transmissions
            == nets["reference"].trace.total_transmissions
        )
        steps.append(ref.steps)
        transmissions.append(nets["reference"].trace.total_transmissions)
    return {
        "workload": (
            "Intra-Cluster Propagation with Decay background, "
            "default engine (per-step lift, one-row windows) vs "
            "step-wise, summed over the run seeds"
        ),
        "n": n,
        "edges": g.number_of_edges(),
        "ell": ell,
        "run_seeds": run_seeds,
        "steps": steps,
        "transmissions": transmissions,
        "slot_colors": schedule.n_colors,
        "reference_s": timings["reference"],
        "fused_s": timings["default"],
        "speedup": timings["reference"] / timings["default"],
        "floor": FUSED_ICP_FLOOR,
    }


def _best_of(repeats: int, fn) -> float:
    """Best wall time of ``repeats`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _replay(g, masks: np.ndarray) -> np.ndarray:
    """The step-wise oracle: one ``RadioNetwork.deliver`` per row."""
    from repro.radio import RadioNetwork

    net = RadioNetwork(g)
    return np.stack([net.deliver(row) for row in masks])


def bench_dense_window(n: int = 2000, seed: int = 505) -> dict:
    """The EstimateEffectiveDegree ``p ~ 0.5`` dense regime.

    Block leg: the block's sampled rows, drawn from its block key and
    chunked per density level as a run executes them, delivered as
    transmitter pairs through ``DeliveryKernels.execute_coo`` against
    the step-wise replay of the same rows. Window leg: a single
    level-0 window's mask pairs through ``execute_coo`` against its
    replay.
    """
    from repro.core import EstimateEffectiveDegree
    from repro.engine import ExecutionPolicy
    from repro.radio import RadioNetwork
    from repro.radio.network import NO_SENDER

    g = _udg(n, (n / 80.0) ** 0.5, seed)  # avg degree ~200 at n = 2000
    net = RadioNetwork(g)
    eed = EstimateEffectiveDegree(
        net, np.full(n, 0.5), np.ones(n, dtype=bool), C=24
    )
    eed.bind_key(np.random.default_rng(seed + 1))
    chunk_steps = ExecutionPolicy().runner(net).chunk_steps
    height = min(eed.steps_per_level, chunk_steps)
    chunks = []
    for level in range(eed.levels):
        start = level * eed.steps_per_level
        for lo in range(start, start + eed.steps_per_level, height):
            w = min(height, start + eed.steps_per_level - lo)
            steps, nodes = eed.transmitters(lo, lo + w)
            masks = np.zeros((w, n), dtype=bool)
            masks[steps, nodes] = True
            chunks.append((w, steps, nodes, masks))
    kern = net._delivery_kernels()

    # Bit-identity first: the product delivers the replay's channel.
    for w, steps, nodes, masks in chunks:
        step, node, sender = kern.execute_coo(w, steps, nodes)
        hear = np.full((w, n), NO_SENDER, dtype=np.int64)
        hear[step, node] = sender
        assert (hear == _replay(g, masks)).all()

    block_coo = _best_of(
        3,
        lambda: [kern.execute_coo(w, s, v) for w, s, v, _ in chunks],
    )
    block_replay = _best_of(
        3, lambda: [_replay(g, m) for *_, m in chunks]
    )

    # One pure level-0 window: every active node transmits with
    # probability 0.5 — the regime the ROADMAP flagged. Its pairs are
    # read off the masks inside the timed call.
    masks = np.random.default_rng(seed + 2).random((256, n)) < 0.5
    step, node, sender = kern.execute_coo(256, *np.nonzero(masks))
    hear = np.full(masks.shape, NO_SENDER, dtype=np.int64)
    hear[step, node] = sender
    assert (hear == _replay(g, masks)).all()
    window_coo = _best_of(
        3, lambda: kern.execute_coo(256, *np.nonzero(masks))
    )
    window_replay = _best_of(3, lambda: _replay(g, masks))

    return {
        "workload": (
            "EstimateEffectiveDegree p=0.5 dense regime: the one "
            "window product vs the step-wise replay, on the block's "
            "sampled rows and on one 256-row p=0.5 window"
        ),
        "n": n,
        "edges": g.number_of_edges(),
        "block_rows": eed.total_steps,
        "block_transmitters": int(sum(c[1].size for c in chunks)),
        "block_replay_s": block_replay,
        "block_coo_s": block_coo,
        "coo_block_speedup": block_replay / block_coo,
        "coo_block_floor": COO_BLOCK_FLOOR,
        "window_replay_s": window_replay,
        "window_coo_s": window_coo,
        "window_speedup": window_replay / window_coo,
        "window_floor": DENSE_WINDOW_FLOOR,
    }


def peak_memory(n: int = 2000, seed: int = 404, ell: int = 6) -> int:
    """Tracemalloc peak of the ICP workload under the default engine.

    A separate traced pass: tracing taxes small allocations heavily
    enough to distort the floor-gated timing ratios, so the timed
    benches run untraced and this re-execution records the memory side
    of the trajectory.
    """
    from repro.analysis.experiments import measure_peak
    from repro.core import build_icp_inputs, intra_cluster_propagation
    from repro.radio import RadioNetwork

    g = _udg(n, (n / 31.0) ** 0.5, seed)
    clustering, schedule, knowledge = build_icp_inputs(
        g, np.random.default_rng(seed + 1), beta=0.3, sources={0: 9}
    )
    net = RadioNetwork(g)
    _, peak = measure_peak(
        lambda: intra_cluster_propagation(
            net, clustering, schedule, knowledge, ell,
            np.random.default_rng(seed + 2),
        )
    )
    return int(peak)


def run_bench(n: int = 2000) -> dict:
    """Run the PR 3 benchmarks and assemble the persistable record.

    ``peak_mem_bytes`` (tracemalloc over the ICP workload, numpy
    buffers included) rides alongside the wall times so the
    ``BENCH_*.json`` trajectory tracks memory as well as speed.
    """
    icp = bench_icp(n=n)
    dense = bench_dense_window(n=n)
    return {
        "bench": "p3_engine",
        "generated": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "peak_mem_bytes": peak_memory(n=n),
        # The key (and its ``fused_s``, the default engine's time)
        # predates the removal of engine="fused"; kept so that records
        # line up with the committed history.
        "fused_icp": icp,
        "dense_window": dense,
        "passes_floors": bool(
            icp["speedup"] >= icp["floor"]
            and dense["coo_block_speedup"] >= dense["coo_block_floor"]
            and dense["window_speedup"] >= dense["window_floor"]
        ),
    }


def write_results(results: dict, path: pathlib.Path = RESULT_PATH) -> None:
    """Persist the benchmark record as pretty-printed JSON."""
    path.write_text(json.dumps(results, indent=2) + "\n")


def main() -> int:
    """Run, print, persist; exit nonzero if a speedup floor is missed."""
    results = run_bench()
    icp = results["fused_icp"]
    print(
        f"ICP                n={icp['n']}: {icp['reference_s']:.2f}s -> "
        f"{icp['fused_s']:.2f}s = {icp['speedup']:.1f}x "
        f"(floor {icp['floor']}x)"
    )
    dense = results["dense_window"]
    print(
        f"dense EED block    n={dense['n']}: step replay "
        f"{dense['block_replay_s']:.2f}s -> product "
        f"{dense['block_coo_s']:.2f}s = {dense['coo_block_speedup']:.1f}x "
        f"(floor {dense['coo_block_floor']}x)"
    )
    print(
        f"dense p=0.5 window n={dense['n']}: step replay "
        f"{dense['window_replay_s'] * 1e3:.0f}ms -> product "
        f"{dense['window_coo_s'] * 1e3:.0f}ms "
        f"= {dense['window_speedup']:.1f}x (floor {dense['window_floor']}x)"
    )
    write_results(results)
    print(f"persisted to {RESULT_PATH}")
    return 0 if results["passes_floors"] else 1


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
