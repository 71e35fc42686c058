"""P8 — the graph corpus at scale: cell-grid CSR generation, the mmap
store, and zero-copy trial workers that map corpus entries.

PR 8 made the graph *input* side scale to ``n = 10^6``: array-native
cell-grid UDG generation emitting ``(indptr, indices)`` directly
(bit-compatible with the networkx reference generators), a
content-digest-keyed on-disk format loaded zero-copy via
``np.load(mmap_mode="r")``, and pooled trials whose workers map the
graph's corpus entry instead of unpickling the graph. Four claims to
pin:

* **Bit-compatibility first.** The cell-grid generator consumes the
  same rng stream and emits the same edge set as
  ``graphs.udg_from_points`` / ``graphs.random_udg``, and a stored
  entry mmap-loads into a run bit-identical (result, steps, trace,
  final rng state) to the networkx twin. Gates everything else.
* **Generation pays.** ``udg_csr`` beats ``udg_from_points`` on the
  same points by at least **10x** at the benchmark scale.
* **Loading is metadata-only.** An mmap load stays under **250 ms**
  whatever the entry size — nothing is read until pages are touched.
* **Workers are zero-copy.** The per-worker graph payload is the
  entry's path, about a hundred bytes (not the pickled arrays), pooled
  trials match serial ones bit-for-bit, and per-worker RSS stays flat
  as the pool grows.

Rows persist to ``BENCH_PR8.json``. Run directly::

    PYTHONPATH=src python benchmarks/bench_p8_corpus.py --n 100000

or through ``benchmarks/run_perf_smoke.py`` (``--skip-p8`` /
``--p8-n`` to opt down; CI uses ``--p8-n 30000``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import pickle
import platform
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_PR8.json"

#: ``udg_csr`` over ``udg_from_points`` on identical points (the
#: ISSUE 8 acceptance floor at n = 10^5; holds from ~2*10^4 up).
GEN_SPEEDUP_FLOOR = 10.0

#: Wall-clock ceiling for one mmap load — metadata plus array headers,
#: independent of graph size.
LOAD_CEILING_S = 0.25

#: A worker's graph payload (the entry path) must be at least this
#: many times smaller than pickling the CSR arrays themselves would be.
PAYLOAD_RATIO_FLOOR = 100.0

#: Largest tolerated growth of per-worker RSS from a 1-worker pool to
#: the widest measured pool (flat = the graph is genuinely shared).
RSS_FLAT_CEILING = 1.5

#: Pool widths the RSS-flatness leg sweeps.
RSS_WORKER_COUNTS = (1, 2, 4)


def _points(n: int, seed: int) -> np.ndarray:
    side = float(np.sqrt(n * np.pi / 9.0))
    return np.random.default_rng(seed).uniform(0, side, size=(n, 2))


def _worker_rss_probe(rng: np.random.Generator, graph) -> float:
    """Trial body for the RSS-flatness leg: touch the whole graph, then
    report this worker's resident set (kB from /proc/self/status)."""
    total = float(graph.indices.sum(dtype=np.int64)) + float(rng.random())
    status = pathlib.Path("/proc/self/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmRSS:"):
            return float(line.split()[1]) + 0.0 * total
    return -1.0  # pragma: no cover - non-Linux


def check_bit_identity(n: int = 1500, seed: int = 81) -> dict:
    """Generation parity + store round-trip parity, exactly."""
    import repro.api as api
    from repro import corpus, graphs

    # Same rng stream, same edge set as the reference generator.
    side = float(np.sqrt(n * np.pi / 9.0))
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    g_csr = corpus.random_udg_csr(
        n, side, rng_a, connected=False
    )
    g_ref = graphs.random_udg(n, side, rng_b, connected=False)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    indptr, indices = g_csr.csr_arrays()
    ref_edges = {(min(u, v), max(u, v)) for u, v in g_ref.edges}
    csr_edges = {
        (u, int(v))
        for u in range(n)
        for v in indices[indptr[u]:indptr[u + 1]]
        if u < v
    }
    assert csr_edges == ref_edges

    # Persist, mmap-load, run: bit-identical to the networkx twin.
    with tempfile.TemporaryDirectory() as tmp:
        entry = pathlib.Path(tmp) / "entry"
        digest = corpus.save_graph(g_csr, entry)
        loaded = corpus.load_graph(entry)
        rng_c, rng_d = (
            np.random.default_rng(seed + 1),
            np.random.default_rng(seed + 1),
        )
        on_corpus = api.run("mis", corpus=loaded, rng=rng_c)
        on_nx = api.run("mis", g_ref, rng=rng_d)
        assert on_corpus.result == on_nx.result
        assert on_corpus.steps == on_nx.steps
        assert on_corpus.trace == on_nx.trace
        assert rng_c.bit_generator.state == rng_d.bit_generator.state
        assert on_corpus.provenance["corpus"]["digest"] == digest
    return {
        "n": n,
        "edges": len(ref_edges),
        "mis_size": on_nx.result.size,
        "steps": on_nx.steps,
        "identical": True,
    }


def bench_generation(n: int, seed: int = 82) -> dict:
    """``udg_csr`` vs ``udg_from_points`` on identical points."""
    from repro.corpus.generate import udg_csr
    from repro.graphs import udg_from_points

    points = _points(n, seed)

    t0 = time.perf_counter()
    ref = udg_from_points(points, radius=1.0)
    ref_s = time.perf_counter() - t0

    csr_s = float("inf")
    for _ in range(3):  # best-of-3: cold-page noise on small containers
        t0 = time.perf_counter()
        indptr, indices = udg_csr(points, radius=1.0)
        csr_s = min(csr_s, time.perf_counter() - t0)

    assert len(indices) // 2 == ref.number_of_edges()
    return {
        "workload": "UDG from fixed points: cell-grid CSR vs "
        "cKDTree + per-edge networkx",
        "n": n,
        "edges": int(len(indices) // 2),
        "reference_s": ref_s,
        "csr_s": csr_s,
        "speedup": ref_s / csr_s,
        "speedup_floor": GEN_SPEEDUP_FLOOR,
    }


def bench_store(n: int, seed: int = 83) -> dict:
    """Save + mmap-load wall clock at the benchmark scale."""
    from repro import corpus

    side = float(np.sqrt(n * np.pi / 9.0))
    g = corpus.random_udg_csr(
        n, side, np.random.default_rng(seed), connected=False
    )
    with tempfile.TemporaryDirectory() as tmp:
        entry = pathlib.Path(tmp) / "entry"
        t0 = time.perf_counter()
        corpus.save_graph(g, entry)
        save_s = time.perf_counter() - t0

        load_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            loaded = corpus.load_graph(entry)
            load_s = min(load_s, time.perf_counter() - t0)
        entry_bytes = sum(
            f.stat().st_size for f in entry.iterdir() if f.is_file()
        )
        assert loaded.number_of_nodes() == n
    return {
        "n": n,
        "edges": g.number_of_edges(),
        "entry_bytes": entry_bytes,
        "save_s": save_s,
        "mmap_load_s": load_s,
        "load_ceiling_s": LOAD_CEILING_S,
    }


def bench_fan_out(n: int, seed: int = 84, trials: int = 4) -> dict:
    """Zero-copy fan-out: tiny payloads, flat RSS, serial bit-identity."""
    from repro import corpus
    from repro.analysis.experiments import (
        _Entry,
        run_report_trials,
        run_trials,
    )

    side = float(np.sqrt(n * np.pi / 9.0))
    g = corpus.random_udg_csr(
        n, side, np.random.default_rng(seed), connected=False
    )
    array_bytes = len(pickle.dumps((g.indptr, g.indices, g.positions)))
    with tempfile.TemporaryDirectory() as tmp:
        entry = pathlib.Path(tmp) / "entry"
        corpus.save_graph(g, entry, invariants=False)
        stored = corpus.load_graph(entry)
        # What a pooled job on the stored entry carries for its graph.
        payload_bytes = len(pickle.dumps(_Entry(stored.entry)))

        rss_by_workers = {}
        for workers in RSS_WORKER_COUNTS:
            stats = run_trials(
                _worker_rss_probe,
                max(trials, workers),
                seed=seed,
                processes=workers,
                corpus=stored,
            )
            rss_by_workers[workers] = stats.maximum
    rss_measured = all(v > 0 for v in rss_by_workers.values())
    rss_ratio = (
        rss_by_workers[max(RSS_WORKER_COUNTS)]
        / rss_by_workers[min(RSS_WORKER_COUNTS)]
        if rss_measured
        else None
    )

    # Pooled front-door trials equal serial ones, outcome for outcome
    # (a small-n leg: this is a semantics gate, not a timing). The
    # graph is no stored entry, so the pool maps a temporary one.
    g_small = corpus.random_udg_csr(
        200, side=8.0, rng=np.random.default_rng(seed + 1),
        connected=False,
    )
    pooled = run_report_trials(
        "decay", n_trials=3, seed=seed, processes=2, corpus=g_small
    )
    serial = run_report_trials(
        "decay", n_trials=3, seed=seed, processes=1, corpus=g_small
    )
    pool_identical = all(
        a.result == b.result and a.steps == b.steps and a.trace == b.trace
        for a, b in zip(pooled, serial)
    )
    return {
        "n": n,
        "payload_bytes": payload_bytes,
        "array_pickle_bytes": array_bytes,
        "payload_ratio": array_bytes / payload_bytes,
        "payload_ratio_floor": PAYLOAD_RATIO_FLOOR,
        "worker_rss_kb": rss_by_workers,
        "rss_measured": rss_measured,
        "rss_ratio": rss_ratio,
        "rss_flat_ceiling": RSS_FLAT_CEILING,
        "pool_matches_serial": pool_identical,
    }


def run_bench(n: int = 100000, identity_n: int = 1500) -> dict:
    """Run the PR 8 benchmarks and assemble the persistable record."""
    identity = check_bit_identity(n=identity_n)
    generation = bench_generation(n=n)
    store = bench_store(n=n)
    fan_out = bench_fan_out(n=n)
    passes = (
        identity["identical"]
        and generation["speedup"] >= generation["speedup_floor"]
        and store["mmap_load_s"] <= store["load_ceiling_s"]
        and fan_out["payload_ratio"] >= fan_out["payload_ratio_floor"]
        and fan_out["pool_matches_serial"]
    )
    if fan_out["rss_ratio"] is not None:
        passes = passes and (
            fan_out["rss_ratio"] <= fan_out["rss_flat_ceiling"]
        )
    return {
        "bench": "p8_corpus",
        "generated": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "bit_identity": identity,
        "generation": generation,
        "store": store,
        "fan_out": fan_out,
        "passes_floors": bool(passes),
    }


def write_results(results: dict, path: pathlib.Path = RESULT_PATH) -> None:
    """Persist the benchmark record as pretty-printed JSON."""
    path.write_text(json.dumps(results, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    """Run, print, persist; exit nonzero if a floor breaks."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--n", type=int, default=100000,
        help="benchmark scale (acceptance assumes 100000; CI uses "
        "30000; 1000000 exercises the full corpus envelope)",
    )
    parser.add_argument(
        "--identity-n", type=int, default=1500,
        help="bit-identity check scale (default 1500)",
    )
    args = parser.parse_args(argv)
    results = run_bench(n=args.n, identity_n=args.identity_n)
    print(json.dumps(results, indent=2))
    write_results(results)
    return 0 if results["passes_floors"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
