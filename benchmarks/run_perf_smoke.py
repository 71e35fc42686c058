"""Perf smoke harness: tier-1 tests + the engine benches, one command.

Runs the repository's tier-1 verification suite, a short
``bench_p1_engine`` pass (PR 1: batched delivery + CSR partition,
persisted to ``BENCH_PR1.json``), the ``bench_p2_engine`` pass
(PR 2: the unified windowed protocol engine — Radio MIS and
EstimateEffectiveDegree against their step-wise references, plus the
E1/E6 trial slices through ``run_trials(processes=...)`` — persisted to
``BENCH_PR2.json``), the ``bench_p3_engine`` pass (PR 3: ICP's
engine path — its time-multiplexed stack lifted one width-1 window
per step — against the step-wise reference, and the dense-regime
window product against the step-wise replay — persisted to
``BENCH_PR3.json``), and the
``bench_p4_streaming`` pass (PR 4: streamed window execution at
``n = 10^5``, wall time *and* tracemalloc peak against the monolithic
``(w, n)`` footprint — persisted to ``BENCH_PR4.json``), and the
``bench_p5_api`` pass (PR 5: the ``repro.api.run`` front door within
2% of the direct entry points on the ICP and streamed-EED hot
paths, rows in RunReport form — persisted to ``BENCH_PR5.json``), and
the ``bench_p6_faults`` pass (PR 6: the fault-injection layer — a run
with an empty ``FaultSchedule`` within 5% of one with none, plus
degradation curves for the robustness protocol variants — persisted
to ``BENCH_PR6.json``), and the
``bench_p8_corpus`` pass (PR 8: the graph corpus layer — cell-grid
CSR generation bit-compatible with the reference generators and at
least 10x faster, metadata-only mmap loads, and zero-copy
shared-memory trial workers with flat per-worker RSS — persisted to
``BENCH_PR8.json``), and the
``bench_p10_service`` pass (the
experiment service — resubmitting a completed MIS campaign at least
50x faster than its cold run via the content-addressed report store,
store-backed aggregates bit-identical to the serial harness, and the
HTTP front end within 10% of driving the campaign engine directly on
a 200-trial decay campaign — persisted to ``BENCH_PR10.json``).
The residual-restriction and fused-pipeline gates timed code that
keyed transmitter sampling replaced; their records stay as history.
Every bench record carries ``peak_mem_bytes`` alongside its wall
times. The ``BENCH_*.json`` records are the perf trajectory future
PRs compare themselves against.

Usage::

    python benchmarks/run_perf_smoke.py [--skip-tests] [--skip-p1]
        [--skip-p4] [--skip-p5] [--skip-p6] [--skip-p8] [--skip-p10]
        [--n 2000] [--p4-n 100000] [--p5-n 100000] [--p6-n 1200]
        [--p8-n 100000] [--p10-n 2000] [--p10-trials 200]
        [--p10-mis-trials 8]

Exit status is nonzero if the test suite fails or a speedup/memory
floor is missed, so this doubles as a CI gate.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_tier1() -> dict:
    """Run the tier-1 suite (``pytest -x -q`` over ``tests/``)."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "tests"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    print(f"tier-1: {tail} ({elapsed:.1f}s)")
    return {
        "returncode": proc.returncode,
        "summary": tail,
        "elapsed_s": elapsed,
    }


def main(argv: list[str] | None = None) -> int:
    """Entry point: tier-1 suite, then the engine bench, then persist."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--skip-tests",
        action="store_true",
        help="only run the engine benches",
    )
    parser.add_argument(
        "--skip-p1",
        action="store_true",
        help="skip the PR 1 bench (BENCH_PR1.json untouched)",
    )
    parser.add_argument(
        "--n",
        type=int,
        default=2000,
        help="benchmark graph size (acceptance floors assume >= 2000)",
    )
    parser.add_argument(
        "--skip-p4",
        action="store_true",
        help="skip the PR 4 streaming bench (BENCH_PR4.json untouched)",
    )
    parser.add_argument(
        "--p4-n",
        type=int,
        default=100000,
        help="scale of the PR 4 streaming bench (default 100000)",
    )
    parser.add_argument(
        "--skip-p5",
        action="store_true",
        help="skip the PR 5 API-overhead bench (BENCH_PR5.json untouched)",
    )
    parser.add_argument(
        "--p5-n",
        type=int,
        default=100000,
        help="scale of the PR 5 streamed-EED side (default 100000)",
    )
    parser.add_argument(
        "--skip-p6",
        action="store_true",
        help="skip the PR 6 fault-layer bench (BENCH_PR6.json untouched)",
    )
    parser.add_argument(
        "--p6-n",
        type=int,
        default=1200,
        help="scale of the PR 6 disabled-fault overhead gate "
        "(default 1200)",
    )
    parser.add_argument(
        "--skip-p8",
        action="store_true",
        help="skip the PR 8 corpus bench (BENCH_PR8.json untouched)",
    )
    parser.add_argument(
        "--p8-n",
        type=int,
        default=100000,
        help="scale of the PR 8 corpus gates (default 100000; CI uses "
        "30000)",
    )
    parser.add_argument(
        "--skip-p10",
        action="store_true",
        help="skip the PR 10 service bench (BENCH_PR10.json untouched)",
    )
    parser.add_argument(
        "--p10-n",
        type=int,
        default=2000,
        help="scale of the PR 10 service campaigns (acceptance pins "
        "2000)",
    )
    parser.add_argument(
        "--p10-trials",
        type=int,
        default=200,
        help="PR 10 decay campaign trial count (acceptance pins 200)",
    )
    parser.add_argument(
        "--p10-mis-trials",
        type=int,
        default=8,
        help="PR 10 MIS campaign trial count for the cache gate",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    import bench_p1_engine
    import bench_p2_engine
    import bench_p3_engine
    import bench_p4_streaming
    import bench_p5_api
    import bench_p6_faults
    import bench_p8_corpus
    import bench_p10_service

    tier1 = None if args.skip_tests else run_tier1()
    ok = tier1 is None or tier1["returncode"] == 0

    if not args.skip_p1:
        results = bench_p1_engine.run_bench(n=args.n)
        if tier1 is not None:
            results["tier1"] = tier1
        bench_p1_engine.write_results(results)

        radio, mpx = results["radio_window"], results["mpx_partition"]
        print(
            f"radio window speedup: {radio['speedup']:.1f}x "
            f"(floor {radio['floor']}x); "
            f"mpx partition speedup: {mpx['speedup']:.1f}x "
            f"(floor {mpx['floor']}x)"
        )
        print(f"persisted to {bench_p1_engine.RESULT_PATH}")
        ok = ok and results["passes_floors"]

    p2 = bench_p2_engine.run_bench(n=args.n)
    if tier1 is not None:
        p2["tier1"] = tier1
    bench_p2_engine.write_results(p2)

    mis, eed = p2["radio_mis"], p2["effective_degree"]
    print(
        f"radio MIS speedup: {mis['speedup']:.1f}x "
        f"(floor {mis['floor']}x); "
        f"effective degree speedup: {eed['speedup']:.1f}x "
        f"(floor {eed['floor']}x); "
        f"BGI: {p2['bgi_broadcast']['speedup']:.1f}x (no floor)"
    )
    print(f"persisted to {bench_p2_engine.RESULT_PATH}")
    ok = ok and p2["passes_floors"]

    p3 = bench_p3_engine.run_bench(n=args.n)
    if tier1 is not None:
        p3["tier1"] = tier1
    bench_p3_engine.write_results(p3)

    icp, dense = p3["fused_icp"], p3["dense_window"]
    print(
        f"ICP speedup: {icp['speedup']:.1f}x "
        f"(floor {icp['floor']}x); "
        f"dense EED block vs step replay: "
        f"{dense['coo_block_speedup']:.1f}x "
        f"(floor {dense['coo_block_floor']}x); "
        f"dense p=0.5 window vs step replay: "
        f"{dense['window_speedup']:.1f}x "
        f"(floor {dense['window_floor']}x)"
    )
    print(f"persisted to {bench_p3_engine.RESULT_PATH}")
    ok = ok and p3["passes_floors"]

    if not args.skip_p4:
        p4 = bench_p4_streaming.run_bench(n=args.p4_n)
        if tier1 is not None:
            p4["tier1"] = tier1
        bench_p4_streaming.write_results(p4)

        eed, dec = p4["streamed_eed"], p4["streamed_decay"]
        print(
            f"streamed EED n={eed['n']}: peak "
            f"{eed['peak_mem_bytes'] / 2**20:.0f} MiB, "
            f"{eed['mem_ratio']:.1f}x under monolithic "
            f"(floor {eed['floor']}x); streamed Decay: "
            f"{dec['mem_ratio']:.1f}x (floor {dec['floor']}x)"
        )
        print(f"persisted to {bench_p4_streaming.RESULT_PATH}")
        ok = ok and p4["passes_floors"]

    if not args.skip_p5:
        p5 = bench_p5_api.run_bench(n=args.p5_n)
        if tier1 is not None:
            p5["tier1"] = tier1
        bench_p5_api.write_results(p5)

        icp5, eed5 = p5["fused_icp"], p5["streamed_eed"]
        print(
            f"api front door: ICP "
            f"{icp5['api_over_legacy']:.4f}x of direct, streamed EED "
            f"{eed5['api_over_legacy']:.4f}x (ceiling "
            f"{icp5['ceiling']}x)"
        )
        print(f"persisted to {bench_p5_api.RESULT_PATH}")
        ok = ok and p5["passes_floors"]

    if not args.skip_p6:
        p6 = bench_p6_faults.run_bench(n=args.p6_n)
        if tier1 is not None:
            p6["tier1"] = tier1
        bench_p6_faults.write_results(p6)

        over = p6["disabled_overhead"]
        print(
            f"fault layer: empty schedule "
            f"{over['empty_over_plain']:.4f}x of none "
            f"(ceiling {over['ceiling']}x); degradation rows: "
            f"{len(p6['mis_restart_degradation'])} mis_restart, "
            f"{len(p6['leader_uptime_degradation'])} leader_uptime, "
            f"{len(p6['bgi_jam_degradation'])} bgi-jam"
        )
        print(f"persisted to {bench_p6_faults.RESULT_PATH}")
        ok = ok and p6["passes_floors"]

    if not args.skip_p8:
        p8 = bench_p8_corpus.run_bench(n=args.p8_n)
        if tier1 is not None:
            p8["tier1"] = tier1
        bench_p8_corpus.write_results(p8)

        gen, store, shm = p8["generation"], p8["store"], p8["shm"]
        print(
            f"corpus n={gen['n']}: generation "
            f"{gen['speedup']:.1f}x (floor {gen['speedup_floor']}x); "
            f"mmap load {store['mmap_load_s'] * 1000:.1f}ms "
            f"(ceiling {store['load_ceiling_s'] * 1000:.0f}ms); "
            f"worker handle {shm['handle_bytes']}B "
            f"({shm['handle_ratio']:.0f}x under the pickled arrays); "
            f"pool==serial: {shm['pool_matches_serial']}"
        )
        print(f"persisted to {bench_p8_corpus.RESULT_PATH}")
        ok = ok and p8["passes_floors"]

    if not args.skip_p10:
        p10 = bench_p10_service.run_bench(
            n=args.p10_n,
            trials=args.p10_trials,
            mis_trials=args.p10_mis_trials,
        )
        if tier1 is not None:
            p10["tier1"] = tier1
        bench_p10_service.write_results(p10)

        cache, http = p10["cache"], p10["http"]
        print(
            f"service: resubmit {cache['cache_speedup']:.0f}x over "
            f"cold (floor {cache['cache_floor']:.0f}x); aggregates == "
            f"harness: {cache['aggregates_identical_to_harness']}; "
            f"http overhead {http['http_overhead']:+.1%} (ceiling "
            f"{http['http_overhead_ceiling']:.0%})"
        )
        print(f"persisted to {bench_p10_service.RESULT_PATH}")
        ok = ok and p10["passes_floors"]

    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
