"""Declarative fault & churn schedules for the radio simulator.

The paper's model is static and fault-free; this package makes the
reproduction's *executions* face the failures every deployed radio/P2P
network sees — without touching a single protocol loop. A
:class:`FaultSchedule` is a frozen, seeded description of what goes
wrong and when, in **global radio steps** (the network's
``steps_elapsed`` clock):

* **crashes** — ``(node, step)``: the node is dead from ``step`` on
  (neither transmits nor hears);
* **sleeps** — ``(node, start, stop)``: the node is down for steps in
  ``[start, stop)`` and wakes afterwards;
* **late joins** — ``(node, step)``: the node is absent before
  ``step``;
* **jams** — :class:`Jam` windows ``[start, stop)`` over a node region
  (or the whole network): listeners in the region hear nothing while
  the jammer is up (transmissions still occupy the channel);
* **capabilities** — per-node transmit-probability scaling
  (``tx_prob``: each intended transmission goes out only with the
  node's probability, decided by a stateless counter-based hash of
  ``(seed, step, node)``) and depleting energy budgets (``energy``:
  each realized transmission costs one unit; an exhausted node stays
  silent but keeps hearing).

Schedules are *data*: hashable, picklable, comparable, digestible for
provenance. They are applied as deterministic transmit-mask and
hear-mask transforms between plan and commit inside
:class:`~repro.radio.network.RadioNetwork` (see
:mod:`repro.faults.state`), keyed purely on the global step — so the
monolithic, streamed, fused-mux, validating, *and* step-wise reference
execution paths all realize exactly the same faults, and the engine
equivalence suites keep holding under any schedule. An **empty**
schedule is bit-identical to no schedule at all (the installation hook
short-circuits before any transform code runs).

Validation is uniform and loud: malformed specs — negative rates or
steps, a crash at or before the same node's join, a jam window past
the declared horizon, probabilities outside ``[0, 1]`` — raise
:class:`~repro.radio.errors.ProtocolError` naming the accepted form,
identically from the API, the CLI flag group, and campaign specs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import operator

import numpy as np

from ..radio.errors import ProtocolError

#: Sentinel "never happens" step for crash bounds (far past any run).
NEVER = 1 << 62


def _as_int(value, what: str) -> int:
    """Coerce an int-like (numpy included) or refuse by name."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ProtocolError(
            f"{what} must be an integer, got {value!r}"
        )
    return int(value)


@dataclasses.dataclass(frozen=True)
class Jam:
    """One adversarial jamming window.

    Listeners in ``nodes`` (``None`` = the whole network) hear nothing
    during global steps ``[start, stop)`` — their ``hear_from`` entries
    are forced to silence after delivery. Jamming is a *hear*-side
    fault: jammed nodes may still transmit.
    """

    start: int
    stop: int
    nodes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        start = _as_int(self.start, "jam start")
        stop = _as_int(self.stop, "jam stop")
        if start < 0 or stop <= start:
            raise ProtocolError(
                f"jam windows are [start, stop) with 0 <= start < stop; "
                f"got start={self.start}, stop={self.stop}"
            )
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)
        if self.nodes is not None:
            nodes = tuple(
                _as_int(v, "jam region node") for v in self.nodes
            )
            if any(v < 0 for v in nodes):
                raise ProtocolError(
                    f"jam region nodes must be >= 0, got {self.nodes!r}"
                )
            object.__setattr__(self, "nodes", nodes)


def _rate(value, what: str) -> float:
    """A probability/rate in [0, 1], refused by name otherwise — bools
    and strings too, which ``float()`` would quietly read as numbers."""
    try:
        if isinstance(value, (bool, np.bool_, str, bytes)):
            raise TypeError
        rate = float(value)
    except (TypeError, ValueError):
        raise ProtocolError(
            f"{what} must be a number in [0, 1], got {value!r}"
        ) from None
    if not 0.0 <= rate <= 1.0:
        raise ProtocolError(
            f"{what} must be in [0, 1], got {value!r}"
        )
    return rate


#: The event tables: field, noun of its refusals, columns, bounds.
_TABLES = (
    ("crashes", "crash", ("node", "step"), "node >= 0 and step >= 0"),
    ("sleeps", "sleep", ("node", "start", "stop"),
     "node >= 0 and 0 <= start < stop"),
    ("joins", "join", ("node", "step"), "node >= 0 and step >= 0"),
    ("tx_prob", "tx_prob", ("node", "probability"), "node >= 0"),
    ("energy", "energy", ("node", "budget"),
     "node >= 0 and budget >= 0 transmissions"),
)


def _canonical(table, columns: tuple[str, ...]) -> bool:
    """Whether ``table`` is a tuple of tuples of exact ints (a float
    probability) in bounds, in C-level passes per column."""
    if type(table) is not tuple or set(map(type, table)) - {tuple} \
            or set(map(len, table)) - {len(columns)}:
        return False
    cols = dict(zip(columns, zip(*table)))
    for name, column in cols.items():
        if name == "probability":
            if set(map(type, column)) != {float} or min(column) < 0.0 \
                    or max(column) > 1.0 or any(map(math.isnan, column)):
                return False
        elif set(map(type, column)) != {int} or min(column) < 0:
            return False
    return "stop" not in cols or all(
        map(operator.lt, cols["start"], cols["stop"])
    )


def _table(table, noun: str, columns: tuple[str, ...], bounds: str):
    """A canonical table as it is; anything else coerced entry by
    entry, so a refusal names the bad value (or the table's form)."""
    if _canonical(table, columns):
        return table
    rows = tuple(map(tuple, table))
    if not set(map(len, rows)) - {len(columns)}:
        rows = tuple(
            tuple(
                _rate(v, f"{noun} {c}") if c == "probability"
                else _as_int(v, f"{noun} {c}")
                for v, c in zip(row, columns)
            )
            for row in rows
        )
        if _canonical(rows, columns):
            return rows
    raise ProtocolError(
        f"{noun} entries are ({', '.join(columns)}) with {bounds}; "
        f"got {table!r}"
    )


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """A seeded, declarative fault & churn schedule (see module doc).

    All step values are global radio steps
    (:attr:`~repro.radio.network.RadioNetwork.steps_elapsed`).
    ``seed`` drives only the transmit-probability hash — never the
    protocol rng, so installing a schedule cannot perturb a protocol's
    own coin stream. ``horizon`` is an optional declared run length:
    jam windows must end at or before it (a jam past the horizon can
    never fire and is a spec error, refused by name).

    Frozen, hashable, picklable; equal schedules are interchangeable
    (installation is idempotent for equal values). Build by hand, or
    draw a randomized one from rate knobs with :meth:`sample` — the
    form behind the CLI's ``--crash-rate``/``--churn``/``--jam``/
    ``--hetero`` flags.
    """

    crashes: tuple[tuple[int, int], ...] = ()
    sleeps: tuple[tuple[int, int, int], ...] = ()
    joins: tuple[tuple[int, int], ...] = ()
    jams: tuple[Jam, ...] = ()
    tx_prob: tuple[tuple[int, float], ...] = ()
    energy: tuple[tuple[int, int], ...] = ()
    seed: int = 0
    horizon: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _as_int(self.seed, "fault seed"))
        if self.horizon is not None:
            horizon = _as_int(self.horizon, "fault horizon")
            if horizon < 1:
                raise ProtocolError(
                    f"fault horizon must be >= 1 step, got {self.horizon}"
                )
            object.__setattr__(self, "horizon", horizon)

        for field, noun, columns, bounds in _TABLES:
            object.__setattr__(self, field, _table(
                getattr(self, field), noun, columns, bounds
            ))
        jams = tuple(
            jam if isinstance(jam, Jam) else Jam(*jam) for jam in self.jams
        )
        if self.horizon is not None:
            for jam in jams:
                if jam.stop > self.horizon:
                    raise ProtocolError(
                        f"jam window [{jam.start}, {jam.stop}) extends "
                        f"past the declared horizon {self.horizon}; "
                        f"accepted jams end at or before the horizon"
                    )
        object.__setattr__(self, "jams", jams)

        # Lifetime consistency: a node cannot crash at or before the
        # step it joins — the overlap describes a node that was never
        # up, which is a spec contradiction, not a fault.
        join_of = {}
        for node, step in self.joins:
            join_of[node] = max(join_of.get(node, 0), step)
        for node, step in self.crashes:
            if node in join_of and step <= join_of[node]:
                raise ProtocolError(
                    f"node {node} crashes at step {step} but joins at "
                    f"step {join_of[node]}; a node's crash must come "
                    f"strictly after its join (give each node one "
                    f"consistent lifetime)"
                )

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """No events and no capability overrides: bit-identical to no
        schedule at all (the installation hook short-circuits)."""
        return not (
            self.crashes
            or self.sleeps
            or self.joins
            or self.jams
            or self.tx_prob
            or self.energy
        )

    def max_node(self) -> int:
        """Largest node index any entry names (-1 when empty)."""
        tables = [getattr(self, field) for field, *_ in _TABLES]
        return max(
            [max(next(zip(*table))) for table in tables if table]
            + [max(jam.nodes) for jam in self.jams if jam.nodes],
            default=-1,
        )

    def event_counts(self) -> dict[str, int]:
        """Configured event counts, for provenance records."""
        return {
            "crashes": len(self.crashes),
            "sleeps": len(self.sleeps),
            "joins": len(self.joins),
            "jams": len(self.jams),
            "tx_prob": len(self.tx_prob),
            "energy": len(self.energy),
        }

    def digest(self) -> str:
        """Stable content hash of the schedule (provenance key).

        Canonical-repr SHA-256, truncated: equal schedules share a
        digest across processes and versions of this package (the repr
        of a frozen dataclass of ints/floats/tuples is canonical).
        Computed once and kept in ``__dict__``, outside the fields (so
        equality and the wire form ignore it); a pickle carries it.
        """
        if "_digest" in self.__dict__:
            return self.__dict__["_digest"]
        payload = repr(
            (
                self.crashes,
                self.sleeps,
                self.joins,
                tuple((j.start, j.stop, j.nodes) for j in self.jams),
                self.tx_prob,
                self.energy,
                self.seed,
                self.horizon,
            )
        ).encode()
        self.__dict__["_digest"] = hashlib.sha256(payload).hexdigest()[:16]
        return self.__dict__["_digest"]

    # ------------------------------------------------------------------
    @classmethod
    def sample(
        cls,
        n: int,
        horizon: int,
        *,
        seed: int = 0,
        crash_rate: float = 0.0,
        churn: float = 0.0,
        jam: float = 0.0,
        hetero: float = 0.0,
    ) -> "FaultSchedule":
        """Draw a randomized schedule from rate knobs (the CLI's form).

        Parameters
        ----------
        n, horizon:
            Node count and the run length (global steps) the schedule
            describes; both at least 1.
        seed:
            Seeds both the draw and the schedule's transmit-probability
            hash — one integer reproduces the whole fault environment.
        crash_rate:
            Per-node probability of a permanent crash at a uniform step
            in ``[1, horizon)``.
        churn:
            Per-node probability of one sleep/wake interval (uniform
            start, length up to a quarter horizon); additionally each
            node late-joins with probability ``churn / 2`` at a uniform
            step in the first half of the horizon. Crashes drawn for a
            late-joining node land strictly after its join.
        jam:
            Approximate fraction of the horizon under jamming:
            windows of ``~horizon/16`` steps are placed uniformly until
            the fraction is met, each hitting either the whole network
            or a random quarter of the nodes.
        hetero:
            Per-node probability of a degraded transmit probability
            (uniform in ``[0.3, 0.95)``); additionally each node gets a
            finite energy budget with probability ``hetero / 2``.

        All rates must lie in ``[0, 1]``;
        :class:`~repro.radio.errors.ProtocolError` names the accepted
        range otherwise — the same refusal the CLI and campaign specs
        surface.
        """
        n = _as_int(n, "fault sample n")
        horizon = _as_int(horizon, "fault sample horizon")
        if n < 1 or horizon < 1:
            raise ProtocolError(
                f"FaultSchedule.sample needs n >= 1 and horizon >= 1, "
                f"got n={n}, horizon={horizon}"
            )
        crash_rate = _rate(crash_rate, "crash rate")
        churn = _rate(churn, "churn rate")
        jam = _rate(jam, "jam rate")
        hetero = _rate(hetero, "hetero rate")
        rng = np.random.default_rng(_as_int(seed, "fault seed"))

        joins: list[tuple[int, int]] = []
        join_of: dict[int, int] = {}
        if churn > 0.0:
            late = np.nonzero(rng.random(n) < churn / 2.0)[0]
            for node in late:
                step = int(rng.integers(1, max(2, horizon // 2 + 1)))
                joins.append((int(node), step))
                join_of[int(node)] = step

        crashes: list[tuple[int, int]] = []
        if crash_rate > 0.0:
            doomed = np.nonzero(rng.random(n) < crash_rate)[0]
            for node in doomed:
                lo = join_of.get(int(node), 0) + 1
                crashes.append(
                    (int(node), int(rng.integers(lo, lo + max(1, horizon))))
                )

        sleeps: list[tuple[int, int, int]] = []
        if churn > 0.0:
            nappers = np.nonzero(rng.random(n) < churn)[0]
            for node in nappers:
                start = int(rng.integers(0, horizon))
                length = 1 + int(rng.integers(0, max(1, horizon // 4)))
                sleeps.append((int(node), start, start + length))

        jams: list[Jam] = []
        if jam > 0.0:
            length = max(1, horizon // 16)
            events = max(1, int(round(jam * horizon / length)))
            region_size = max(1, n // 4)
            for _ in range(events):
                start = int(rng.integers(0, max(1, horizon - length + 1)))
                if rng.random() < 0.5 or n == 1:
                    nodes = None
                else:
                    nodes = tuple(
                        sorted(
                            int(v)
                            for v in rng.choice(
                                n, size=region_size, replace=False
                            )
                        )
                    )
                jams.append(
                    Jam(start, min(start + length, horizon), nodes)
                )

        tx_prob: list[tuple[int, float]] = []
        energy: list[tuple[int, int]] = []
        if hetero > 0.0:
            weak = np.nonzero(rng.random(n) < hetero)[0]
            for node in weak:
                tx_prob.append(
                    (int(node), float(rng.uniform(0.3, 0.95)))
                )
            budgeted = np.nonzero(rng.random(n) < hetero / 2.0)[0]
            for node in budgeted:
                energy.append(
                    (
                        int(node),
                        int(
                            rng.integers(
                                max(1, horizon // 8), max(2, horizon // 2)
                            )
                        ),
                    )
                )

        return cls(
            crashes=tuple(crashes),
            sleeps=tuple(sleeps),
            joins=tuple(joins),
            jams=tuple(jams),
            tx_prob=tuple(tx_prob),
            energy=tuple(energy),
            seed=int(seed),
            horizon=horizon,
        )


def validate_faults(faults) -> "FaultSchedule | None":
    """Policy-field validator: a :class:`FaultSchedule` or ``None``.

    The one refusal every surface (API, CLI, campaign specs) shares
    for the ``faults=`` knob, naming the accepted forms.
    """
    if faults is None or isinstance(faults, FaultSchedule):
        return faults
    raise ProtocolError(
        f"faults must be a FaultSchedule or None (build one with "
        f"FaultSchedule(...) or FaultSchedule.sample(...)), got "
        f"{faults!r}"
    )


__all__ = [
    "FaultSchedule",
    "Jam",
    "validate_faults",
]
