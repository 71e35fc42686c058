"""P10 — the experiment service: hosted campaigns over ``repro.api.run``.

PR 10 added ``repro/service``: a content-addressed RunReport store, a
campaign engine that dedupes against it, and an asyncio HTTP front
end. Three claims to pin, over two campaigns on one corpus graph at
n = 2000:

* **The cache pays.** Resubmitting a completed MIS campaign serves
  every job from the report store — at least **50x** faster than the
  cold run that executed them. MIS is the expensive flagship
  protocol, so execution dominates the cold leg and the ratio
  measures the store, not the protocol's own cost.
* **The store changes nothing.** That MIS campaign's deterministic
  aggregates (the ``steps`` TrialStats) are bit-identical to
  :func:`repro.analysis.experiments.run_report_trials` +
  ``summarize_reports`` over the same ``(protocol, graph, seed)``
  cell — the serial harness baseline.
* **HTTP is thin.** Submitting a cold 200-trial Decay campaign
  through the service (spec over the wire, stream-driven completion)
  costs at most **10%** over driving the campaign engine directly —
  decay trials are cheap, so per-job overhead has nowhere to hide.

Rows persist to ``BENCH_PR10.json``. Run directly::

    PYTHONPATH=src python benchmarks/bench_p10_service.py

or through ``benchmarks/run_perf_smoke.py`` (``--skip-p10`` /
``--p10-trials`` / ``--p10-n`` to opt down).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_PR10.json"

#: Resubmission of a completed campaign over its cold execution.
CACHE_FLOOR = 50.0

#: Allowed wall-clock overhead of the HTTP path over driving the
#: campaign engine directly (same spec, fresh store on both sides).
HTTP_OVERHEAD_CEILING = 0.10


def _corpus_graph(root: pathlib.Path, n: int, seed: int):
    """One stored corpus entry at the benchmark scale."""
    from repro.corpus.generate import random_udg_csr
    from repro.corpus.store import CorpusStore

    store = CorpusStore(root / "corpus")
    side = float(np.sqrt(n * np.pi / 9.0))
    graph = random_udg_csr(
        n, side, np.random.default_rng(seed), connected=False
    )
    digest = store.add(graph)
    return store, digest


def bench_cache_and_identity(
    root: pathlib.Path, n: int, trials: int, seed: int = 73
) -> dict:
    """Cold MIS campaign vs resubmission, and the harness-identity gate."""
    from repro.analysis.experiments import (
        run_report_trials,
        summarize_reports,
    )
    from repro.service import CampaignSpec, ReportStore, run_campaign

    corpus, digest = _corpus_graph(root, n, seed)
    spec = CampaignSpec(
        protocol="mis", corpus=(digest,), n_trials=trials, seed=seed
    )
    store_dir = root / "reports"

    t0 = time.perf_counter()
    cold = run_campaign(spec, ReportStore(store_dir), corpus=corpus)
    cold_s = time.perf_counter() - t0
    assert cold.status()["executed"] == trials

    t0 = time.perf_counter()
    warm = run_campaign(spec, ReportStore(store_dir), corpus=corpus)
    warm_s = time.perf_counter() - t0
    warm_status = warm.status()
    assert warm_status["cached"] == trials
    assert warm_status["executed"] == 0

    baseline = summarize_reports(
        run_report_trials(
            "mis", corpus.load(digest), n_trials=trials, seed=seed
        )
    )
    identical = (
        warm.final_summary()["steps"] == baseline["steps"]
        and cold.final_summary()["steps"] == baseline["steps"]
    )

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    return {
        "protocol": "mis",
        "n": n,
        "trials": trials,
        "cold_s": cold_s,
        "resubmit_s": warm_s,
        "cache_speedup": speedup,
        "cache_floor": CACHE_FLOOR,
        "store_entries": len(ReportStore(store_dir)),
        "aggregates_identical_to_harness": bool(identical),
        "steps_mean": baseline["steps"].mean,
    }


def bench_http_overhead(
    root: pathlib.Path, n: int, trials: int, seed: int = 74, reps: int = 5
) -> dict:
    """The same cold campaign, direct vs through the HTTP service.

    Each side runs ``reps`` times against a fresh report store (so
    every repetition is a genuinely cold campaign) and the best wall
    per side is compared — decay trials are short enough that a single
    rep is noise-dominated on a shared machine. The sides alternate
    rep by rep, so a machine whose speed drifts over seconds to
    minutes slows both sides alike instead of whichever ran second.
    """
    from repro.service import (
        CampaignSpec,
        ReportStore,
        ServiceClient,
        run_campaign,
        start_in_thread,
    )

    corpus, digest = _corpus_graph(root, n, seed)
    spec = CampaignSpec(
        protocol="decay", corpus=(digest,), n_trials=trials, seed=seed
    )

    direct_walls = []
    http_walls = []
    for rep in range(reps):
        t0 = time.perf_counter()
        direct = run_campaign(
            spec, ReportStore(root / f"direct{rep}"), corpus=corpus
        )
        direct_walls.append(time.perf_counter() - t0)
        assert direct.status()["state"] == "completed"

        served_dir = root / f"served{rep}"
        with start_in_thread(served_dir, corpus, workers=1) as handle:
            client = ServiceClient(port=handle.port)
            t0 = time.perf_counter()
            submitted = client.submit(spec)
            final = None
            for snapshot in client.stream(submitted["id"]):
                final = snapshot
            http_walls.append(time.perf_counter() - t0)
        assert final is not None and final["state"] == "completed"
        assert final["executed"] == trials
        assert final["summary"]["steps"]["mean"] == \
            direct.final_summary()["steps"].mean
    direct_s = min(direct_walls)
    http_s = min(http_walls)

    overhead = (http_s - direct_s) / direct_s
    return {
        "protocol": "decay",
        "n": n,
        "trials": trials,
        "direct_s": direct_s,
        "http_s": http_s,
        "direct_walls": direct_walls,
        "http_walls": http_walls,
        "http_overhead": overhead,
        "http_overhead_ceiling": HTTP_OVERHEAD_CEILING,
    }


def run_bench(
    n: int = 2000, trials: int = 200, mis_trials: int = 8
) -> dict:
    """Run the PR 10 benchmarks and assemble the persistable record."""
    with tempfile.TemporaryDirectory(prefix="bench-p10-") as tmp:
        root = pathlib.Path(tmp)
        cache = bench_cache_and_identity(root / "cache", n, mis_trials)
        http = bench_http_overhead(root / "http", n, trials)
    passes = (
        cache["cache_speedup"] >= cache["cache_floor"]
        and cache["aggregates_identical_to_harness"]
        and http["http_overhead"] <= http["http_overhead_ceiling"]
    )
    return {
        "bench": "p10_service",
        "generated": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cache": cache,
        "http": http,
        "passes_floors": bool(passes),
    }


def write_results(results: dict, path: pathlib.Path = RESULT_PATH) -> None:
    """Persist the benchmark record as pretty-printed JSON."""
    path.write_text(json.dumps(results, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    """Run, print, persist; exit nonzero if a floor breaks."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--n", type=int, default=2000,
        help="corpus graph size (acceptance pins 2000)",
    )
    parser.add_argument(
        "--trials", type=int, default=200,
        help="decay campaign trial count (acceptance pins 200)",
    )
    parser.add_argument(
        "--mis-trials", type=int, default=8,
        help="MIS campaign trial count for the cache + identity gates",
    )
    args = parser.parse_args(argv)
    results = run_bench(
        n=args.n, trials=args.trials, mis_trials=args.mis_trials
    )
    cache, http = results["cache"], results["http"]
    print(
        f"mis campaign n={cache['n']} x {cache['trials']} trials: cold "
        f"{cache['cold_s']:.2f}s, resubmit {cache['resubmit_s']:.3f}s "
        f"= {cache['cache_speedup']:.0f}x (floor "
        f"{cache['cache_floor']:.0f}x); aggregates == harness: "
        f"{cache['aggregates_identical_to_harness']}"
    )
    print(
        f"http front (decay x {http['trials']}): direct "
        f"{http['direct_s']:.2f}s, served "
        f"{http['http_s']:.2f}s = {http['http_overhead']:+.1%} "
        f"(ceiling {http['http_overhead_ceiling']:.0%}); reps direct "
        f"{' '.join(f'{w:.2f}' for w in http['direct_walls'])}, served "
        f"{' '.join(f'{w:.2f}' for w in http['http_walls'])}"
    )
    write_results(results)
    print(f"persisted to {RESULT_PATH}")
    return 0 if results["passes_floors"] else 1


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
