"""P5 — the API front door: RunReport-shaped rows, zero-cost accounting.

PR 5 rebuilt the public surface around ``repro.api.run`` — one uniform
entry point wrapping every protocol in a :class:`~repro.api.report
.RunReport`. The redesign's performance claim is *absence of cost*:
the front door adds accounting (policy resolution, step/trace deltas,
provenance) around exactly the legacy code path, so its wall-clock
must sit within **2%** of the direct entry-point call on the PR 4
hot paths. This bench pins that on both flagship workloads:

* **ICP** at ``n = 2000`` — ICP's one engine path (its
  time-multiplexed protocol stack run one width-1 window per step by
  ``WindowedRunner.run_steps``), driven once through
  :func:`~repro.core.intra_cluster.intra_cluster_propagation` directly
  and once through
  ``api.run("icp")``, both under the default policy (cheap trace);
* **streamed EED** at ``n = 10^5`` (CI scale; ``--n`` opts down) —
  the PR 4 out-of-core path under the same 64 MiB budget as
  ``BENCH_PR4.json``, legacy vs front door.

Both sides run best-of-``repeats`` with bit-identity asserted between
them (identical seeds must give identical results through either
door), so the gated ratio compares the same statistic and host noise
cannot bias it. Rows persist to ``BENCH_PR5.json`` in
:meth:`~repro.api.report.RunReport.row` form — the benchmark artifact
is itself front-door shaped now — with memory peaks taken in a
separate traced pass (tracemalloc taxes allocations; never time and
trace in one run).

Run directly::

    PYTHONPATH=src python benchmarks/bench_p5_api.py --n 100000

or through ``benchmarks/run_perf_smoke.py`` (``--skip-p5`` /
``--p5-n`` to opt down).
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
RESULT_PATH = REPO_ROOT / "BENCH_PR5.json"

#: Acceptance ceiling from the PR 5 issue: the front door's best wall
#: time may exceed the direct entry point's by at most this factor.
OVERHEAD_CEILING = 1.02

#: The PR 4 streaming budget, unchanged (BENCH_PR4.json comparability).
MEM_BUDGET = 64 << 20

#: Adaptive sampling cap: per-run host jitter on these workloads is
#: several times the 2% ceiling, so both sides sample until their
#: *minima* converge under the ceiling (the statistic being gated is a
#: floor; the true front-door overhead is fractions of a percent, so
#: early-stopping on convergence cannot mask a real > 2% regression —
#: a genuine regression keeps the min-ratio above the ceiling at any
#: sample count and exhausts the cap instead). The cap is sized for
#: noisy shared CI runners: 24 pairs of the streamed-EED side is
#: ~90 s, well inside the job's wall-clock cap.
MAX_REPEATS = 24


def _interleaved_best(
    run_legacy, run_api, min_repeats: int
) -> tuple[float, float, int]:
    """Best-of-k wall times, interleaved and adaptively extended.

    Alternates the two runners (so drift cannot bias one side), takes
    at least ``min_repeats`` samples of each, and keeps sampling while
    the min-ratio sits above :data:`OVERHEAD_CEILING` up to
    :data:`MAX_REPEATS` — converging to the floor when the paths truly
    cost the same, failing honestly when they do not. Returns
    ``(legacy_best, api_best, samples)``.
    """
    legacy_best = api_best = float("inf")
    samples = 0
    while samples < min_repeats or (
        api_best / legacy_best > OVERHEAD_CEILING
        and samples < MAX_REPEATS
    ):
        t0 = time.perf_counter()
        run_legacy()
        legacy_best = min(legacy_best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_api()
        api_best = min(api_best, time.perf_counter() - t0)
        samples += 1
    return legacy_best, api_best, samples


def _udg(n: int, side: float, seed: int):
    """The benchmark UDG family (matches bench_p3/bench_p4 fixtures)."""
    from repro import graphs

    return graphs.random_udg(
        n, side, np.random.default_rng(seed), connected=False
    )


def bench_icp(
    n: int = 2000, seed: int = 404, ell: int = 6, repeats: int = 5
) -> dict:
    """ICP under the default policy: direct entry point vs ``api.run``
    (bit-identical)."""
    import repro.api as api
    from repro.core import build_icp_inputs, intra_cluster_propagation
    from repro.radio import RadioNetwork

    g = _udg(n, (n / 31.0) ** 0.5, seed)  # avg degree ~90 at n = 2000
    policy = api.ExecutionPolicy()
    config = api.ICPConfig(beta=0.3, ell=ell, sources={0: 9})

    def run_legacy():
        # The exact sequence api.run executes, called directly — the
        # timer covers the whole sequence (setup pipeline included) on
        # both sides, so the ratio isolates pure front-door overhead.
        setup = np.random.default_rng(seed + 2)
        net = RadioNetwork(g)
        clustering, schedule, knowledge = build_icp_inputs(
            g, setup, beta=0.3, sources={0: 9}
        )
        return intra_cluster_propagation(
            net, clustering, schedule, knowledge, ell, setup,
            policy=policy,
        )

    def run_api():
        return api.run(
            "icp", g, seed=seed + 2, config=config, policy=policy
        )

    # One untimed warmup each (context caches, scipy imports), then
    # interleaved adaptive best-of sampling (see _interleaved_best).
    legacy, report = run_legacy(), run_api()
    assert (report.result.knowledge == legacy.knowledge).all()
    assert report.result.steps == legacy.steps
    legacy_best, api_best, samples = _interleaved_best(
        run_legacy, run_api, repeats
    )
    row = report.row()
    row.update(
        {
            "workload": "ICP phase via api.run vs direct call",
            "n": n,
            "edges": g.number_of_edges(),
            "ell": ell,
            "icp_steps": legacy.steps,
            "legacy_best_s": legacy_best,
            "api_best_s": api_best,
            "api_over_legacy": api_best / legacy_best,
            "samples": samples,
            "ceiling": OVERHEAD_CEILING,
            "pr3_reference": "BENCH_PR3.json fused_icp.fused_s",
        }
    )
    return row


def bench_streamed_eed(
    n: int = 100000,
    seed: int = 902,
    C: int = 2,
    mem_budget: int = MEM_BUDGET,
    repeats: int = 4,
) -> dict:
    """Streamed EED at scale: direct entry point vs ``api.run``."""
    import repro.api as api
    from repro.core.effective_degree import estimate_effective_degree
    from repro.radio import RadioNetwork

    side = float(np.sqrt(n * np.pi / 9.0))
    g = _udg(n, side, seed)
    net = RadioNetwork(g)
    p = np.full(n, 0.5)
    active = np.ones(n, dtype=bool)
    policy = api.ExecutionPolicy(mem_budget=mem_budget)
    config = api.EEDConfig(p=0.5, C=C)

    def run_legacy():
        return estimate_effective_degree(
            net, p, active, np.random.default_rng(seed + 1), C=C,
            policy=policy,
        )

    def run_api():
        return api.run(
            "eed", net, rng=np.random.default_rng(seed + 1),
            config=config, policy=policy,
        )

    # One untimed warmup each, then interleaved adaptive best-of
    # sampling (see _interleaved_best).
    legacy, report = run_legacy(), run_api()
    assert (report.result.counts == legacy.counts).all()
    legacy_best, api_best, samples = _interleaved_best(
        run_legacy, run_api, repeats
    )

    # Separate traced pass for the peak (never time under tracemalloc).
    traced = api.run(
        "eed", net, rng=np.random.default_rng(seed + 1),
        config=config, policy=policy, measure_memory=True,
    )

    row = report.row()
    row.update(
        {
            "workload": "streamed EED block at scale via api.run",
            "n": n,
            "edges": g.number_of_edges(),
            "C": C,
            "eed_steps": report.steps,
            "high_count": int(report.result.high.sum()),
            "legacy_best_s": legacy_best,
            "api_best_s": api_best,
            "api_over_legacy": api_best / legacy_best,
            "samples": samples,
            "ceiling": OVERHEAD_CEILING,
            "peak_mem_bytes": int(traced.peak_mem_bytes),
            "pr4_reference": "BENCH_PR4.json streamed_eed.wall_s",
        }
    )
    return row


def run_bench(n: int = 100000, mem_budget: int = MEM_BUDGET) -> dict:
    """Run the PR 5 benchmarks and assemble the persistable record."""
    icp = bench_icp()
    eed = bench_streamed_eed(n=n, mem_budget=mem_budget)
    return {
        "bench": "p5_api",
        "generated": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        # The key predates the removal of engine="fused"; kept so that
        # records line up with the committed history.
        "fused_icp": icp,
        "streamed_eed": eed,
        "passes_floors": bool(
            icp["api_over_legacy"] <= icp["ceiling"]
            and eed["api_over_legacy"] <= eed["ceiling"]
        ),
    }


def write_results(results: dict, path: pathlib.Path = RESULT_PATH) -> None:
    """Persist the benchmark record as pretty-printed JSON."""
    path.write_text(json.dumps(results, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    """Run, print, persist; exit nonzero if an overhead ceiling breaks."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--n", type=int, default=100000,
        help="streamed-EED scale (default 100000)",
    )
    parser.add_argument(
        "--mem-budget", type=int, default=MEM_BUDGET,
        help="streaming budget in bytes (default 64 MiB)",
    )
    args = parser.parse_args(argv)
    results = run_bench(n=args.n, mem_budget=args.mem_budget)
    for key in ("fused_icp", "streamed_eed"):
        r = results[key]
        print(
            f"{key:12s} n={r['n']}: api {r['api_best_s']:.3f}s vs "
            f"legacy {r['legacy_best_s']:.3f}s = "
            f"{r['api_over_legacy']:.4f}x (ceiling {r['ceiling']}x)"
        )
    write_results(results)
    print(f"persisted to {RESULT_PATH}")
    return 0 if results["passes_floors"] else 1


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
