"""The keyed-transmitter stream against the frozen coin-block streams.

Seeded outputs changed twice as coin blocks gave way to keyed
transmitter sampling (:mod:`repro.engine.sampler`); their distribution
must not. Each fixture froze per-seed statistics on the last version
that drew coin blocks for its protocols
(``tools/freeze_stream_fixture.py``); this suite runs the same seeds,
graphs and configs on the current stream and compares the two samples,
each test at alpha = 0.001:

* ``tests/fixtures/stream_v1.json`` (stream version 1; Radio MIS and
  EED): two-sample Kolmogorov-Smirnov on radio steps, EED's High
  fraction and EED's total hear count, chi-square on MIS size and
  ``all_removed``, per graph;
* ``tests/fixtures/stream_v2.json`` (stream version 2; BGI sweeps,
  ICP's Decay background, the wake-up reduction): KS on BGI's radio
  steps per graph, on the informed count of an ICP phase with its
  background, and on the wake-up reduction's steps.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import numpy as np
import pytest
from scipy import stats

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "stream_v1.json"
FIXTURE_V2 = ROOT / "tests" / "fixtures" / "stream_v2.json"
ALPHA = 0.001


def _freeze_tool():
    spec = importlib.util.spec_from_file_location(
        "freeze_stream_fixture", ROOT / "tools" / "freeze_stream_fixture.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def samples():
    frozen = json.loads(FIXTURE.read_text())
    tool = _freeze_tool()
    assert frozen["mis_config"] == tool.MIS_CONFIG
    assert frozen["eed_C"] == tool.EED_C
    current = tool.freeze(frozen["seeds"])
    return frozen["graphs"], current["graphs"]


def _column(records, name):
    return np.array([r[name] for r in records], dtype=np.float64)


def _chi_square_p(old, new) -> float:
    """p-value of a chi-square test that two samples of a discrete
    statistic share one distribution (categories pooled below 5
    expected counts; a single category is trivially equal)."""
    values = np.union1d(old, new)
    table = np.array(
        [[np.sum(sample == v) for v in values] for sample in (old, new)]
    )
    # Pool sparse categories into their neighbours, in value order.
    pooled, acc = [], np.zeros(2)
    for col in table.T:
        acc = acc + col
        if acc.sum() >= 10:
            pooled.append(acc)
            acc = np.zeros(2)
    if acc.sum():
        if pooled:
            pooled[-1] = pooled[-1] + acc
        else:
            pooled.append(acc)
    if len(pooled) < 2:
        return 1.0
    return float(stats.chi2_contingency(np.array(pooled).T)[1])


GRAPHS = ("udg-300", "star-of-cliques-8x12")


@pytest.mark.parametrize("graph", GRAPHS)
def test_mis_size_and_removal_distribution_unchanged(samples, graph):
    old, new = samples[0][graph], samples[1][graph]
    assert len(old) == len(new) >= 200
    for name in ("mis_size", "all_removed"):
        p = _chi_square_p(_column(old, name), _column(new, name))
        assert p > ALPHA, f"{graph} {name}: chi-square p = {p:.2e}"


@pytest.mark.parametrize("graph", GRAPHS)
def test_step_and_eed_distributions_unchanged(samples, graph):
    old, new = samples[0][graph], samples[1][graph]
    columns = {
        "steps": lambda rs: _column(rs, "steps"),
        "eed_high_fraction": lambda rs: _column(rs, "eed_high_fraction"),
        "eed_hears": lambda rs: np.array(
            [sum(r["eed_level_counts"]) for r in rs], dtype=np.float64
        ),
    }
    for name, column in columns.items():
        a, b = column(old), column(new)
        if np.all(a == a[0]) and np.all(b == a[0]):
            continue  # one shared constant: identical distributions
        p = stats.ks_2samp(a, b).pvalue
        assert p > ALPHA, f"{graph} {name}: KS p = {p:.2e}"


def test_level_counts_keep_their_shape(samples):
    """Per-level hear totals: same ladder length, and the mean count of
    every level within four standard errors of the frozen mean."""
    for graph in GRAPHS:
        old = np.array([r["eed_level_counts"] for r in samples[0][graph]])
        new = np.array([r["eed_level_counts"] for r in samples[1][graph]])
        assert old.shape == new.shape
        se = np.sqrt(
            old.var(axis=0, ddof=1) / len(old)
            + new.var(axis=0, ddof=1) / len(new)
        )
        gap = np.abs(old.mean(axis=0) - new.mean(axis=0))
        assert np.all(gap <= 4.0 * se + 1e-9), (graph, gap, se)


@pytest.fixture(scope="module")
def v2_samples():
    frozen = json.loads(FIXTURE_V2.read_text())
    tool = _freeze_tool()
    assert frozen["icp"] == tool.ICP
    assert frozen["wakeup"] == tool.WAKEUP
    current = tool.freeze_v2(frozen["seeds"])
    return frozen["runs"], current["runs"]


#: The v2 fixture's runs and the statistic each is compared on.
V2_RUNS = {
    "bgi/udg-300": "steps",
    "bgi/star-of-cliques-8x12": "steps",
    "icp/udg-300": "informed",
    "wakeup/1024x33": "steps",
}


@pytest.mark.parametrize("run", sorted(V2_RUNS))
def test_former_coin_block_distributions_unchanged(v2_samples, run):
    old, new = v2_samples[0][run], v2_samples[1][run]
    assert len(old) == len(new) >= 200
    name = V2_RUNS[run]
    p = stats.ks_2samp(_column(old, name), _column(new, name)).pvalue
    assert p > ALPHA, f"{run} {name}: KS p = {p:.2e}"


def test_wakeup_samples_succeed_in_the_first_block(v2_samples):
    """Both wake-up samples end inside their first Decay block, so the
    desire-level update after a failed round (changed with stream
    version 3) cannot account for any difference between them."""
    from repro.core import claim10_iterations, decay_span

    n = 1024
    block = claim10_iterations(n) * decay_span(n)
    for runs in v2_samples:
        rows = runs["wakeup/1024x33"]
        assert all(r["succeeded"] and r["steps"] <= block for r in rows)
