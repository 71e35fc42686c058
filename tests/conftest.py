"""Shared fixtures for the test suite.

Conventions: every randomized test takes its generator from the ``rng``
fixture (seeded per test name for reproducibility) or constructs one from
an explicit seed. Graph fixtures are small enough for packet-level
simulation to stay fast.
"""

from __future__ import annotations

import hashlib

import networkx as nx
import numpy as np
import pytest

from repro import graphs
from repro.engine import StreamedWindow, TransmitterPlan
from repro.radio import NO_SENDER, RadioNetwork


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--fuzz-rounds",
        type=int,
        default=2,
        help=(
            "rounds per twin pair in the differential fuzz suite "
            "(tests/test_fuzz_differential.py); CI runs the small "
            "default, opt into larger sweeps locally"
        ),
    )


@pytest.fixture(scope="session")
def fuzz_rounds(request) -> int:
    """How many randomized rounds each differential fuzz case runs."""
    return int(request.config.getoption("--fuzz-rounds"))


@pytest.fixture
def rng(request) -> np.random.Generator:
    """Per-test deterministic generator (seeded from the test's own id)."""
    digest = hashlib.sha256(request.node.nodeid.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


@pytest.fixture
def path5() -> nx.Graph:
    """A 5-node path."""
    return graphs.path(5)


@pytest.fixture
def clique6() -> nx.Graph:
    """A 6-node clique."""
    return graphs.clique(6)


@pytest.fixture
def star8() -> nx.Graph:
    """A star with 7 leaves."""
    return graphs.star(8)


@pytest.fixture
def small_udg(rng) -> nx.Graph:
    """A connected ~40-node unit disk graph."""
    return graphs.random_udg(n=40, side=3.0, rng=rng)


@pytest.fixture
def medium_udg(rng) -> nx.Graph:
    """A connected ~120-node unit disk graph with moderate diameter."""
    return graphs.random_udg(n=120, side=5.0, rng=rng)


@pytest.fixture
def net_path5(path5) -> RadioNetwork:
    """Radio network on the 5-path."""
    return RadioNetwork(path5)


@pytest.fixture
def net_clique6(clique6) -> RadioNetwork:
    """Radio network on the 6-clique."""
    return RadioNetwork(clique6)


def _mask_window(masks: np.ndarray):
    """Emit ``masks`` as one runner window; return its ``(w, n)`` reply.

    The window's plan reads each chunk's transmitters off the masks
    with ``np.nonzero`` and its fold writes the chunk's receptions into
    one ``hear_from`` matrix, so row ``t`` is what
    ``RadioNetwork.deliver(masks[t])`` returns.
    """
    hear = np.full(masks.shape, NO_SENDER, dtype=np.int64)
    done = 0

    def fold(k, steps, nodes, senders):
        nonlocal done
        hear[steps + done, nodes] = senders
        done += k

    yield StreamedWindow(
        TransmitterPlan(
            masks.shape[0], lambda start, stop: np.nonzero(masks[start:stop])
        ),
        consume_coo=fold,
    )
    return hear


@pytest.fixture
def mask_window():
    """The mask-window emitter: ``runner.run(mask_window(masks))``, or
    ``hear = yield from mask_window(masks)`` inside a schedule."""
    return _mask_window
