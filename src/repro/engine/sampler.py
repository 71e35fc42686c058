"""Keyed transmitter sampling: draw each row's transmitters, not its coins.

Every step of an oblivious block (Decay, EstimateEffectiveDegree, Radio
MIS; the Decay sweeps of BGI, ICP's background and the wake-up
reduction) is a *row* in which each node ``v`` of the block's member set
transmits independently with probability ``q_t * c_v``: a per-row factor
fixed for the block (the Decay ladder's ``2^-i``, EED's density guess
``2^-i``) times a per-column factor fixed for the block (1 for Decay
members, the desire level ``p(v)`` for EED). Such a row costs one coin
per member when drawn cell by cell, yet only a small fraction of the
cells transmit. :class:`RowSampler` draws the transmitters directly:

* **Geometric gaps.** Within one row, the distance to the next
  transmitter in a sorted member list is geometric, so the sampler
  walks the list gap by gap — one uniform per *transmitter* (plus one
  overshooting gap per row), never one per cell; a walk whose first
  gap overshoots (most, in sparse rows) is dropped before the walk loop.
* **Classes for column factors that are not 0/1.** Members are grouped
  by the power of two just above their factor (``2^e >= c_v > 2^(e-1)``,
  or ``c_v`` itself when it is a power of two); each class is walked at
  rate ``q_t * 2^e`` and a candidate is kept with probability
  ``c_v / 2^e`` (exact thinning, at most a factor 2 of waste). Factors
  that are powers of two — every desire level Radio MIS produces —
  need no thinning at all.
* **Keyed uniforms.** The uniform of gap ``j`` of class ``b`` in block
  row ``t`` is a counter hash (splitmix64) of ``(block key, t, b, j)``,
  computed once per gap, vectorized over every row of a chunk.

So a row's transmitters are a pure function of the block key, the row
index, its row factor and the block's fixed member weights: any
chunking of a block, the chunk-wide vectorized pass and the step-wise
``*_reference`` twins (which sample one row at a time) produce the same
sets by construction. The key is the only thing drawn from the
protocol generator, once per block, through :func:`draw_block_key`, at
the same point on the windowed engine and in the step-wise twin —
which keeps their final rng states equal too.

Changing anything here changes seeded outputs: bump
:data:`STREAM_VERSION`, which names the stream in every ``RunReport``
and in every report-store key.
"""

from __future__ import annotations

import numpy as np

#: Version of the random stream behind seeded protocol runs. Version 1
#: drew one coin per (step, node) cell from the protocol generator;
#: version 2 keyed the rows of Decay, EED and Radio MIS blocks (this
#: module); version 3 keys every oblivious block, BGI sweeps, ICP's
#: Decay background and the wake-up reduction included. Stored reports
#: are keyed on it, so a store written under one stream never answers
#: for another.
STREAM_VERSION = 3

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S12 = np.uint64(12)
#: Exponent bits of 1.0: OR-ing 52 random mantissa bits under them
#: gives a double uniform on [1, 2).
_ONE_BITS = np.uint64(0x3FF0000000000000)
#: Salt separating a gap's thinning uniform from its gap uniform.
_THIN_SALT = np.uint64(0x5851F42D4C957F2D)
#: Class slots per row in the walk counter (float64 exponents span
#: fewer than 2048 powers of two).
_CLASS_SLOTS = np.uint64(2048)


def draw_block_key(rng: np.random.Generator) -> int:
    """Draw one block key: a single raw 64-bit output of ``rng``."""
    return int(rng.bit_generator.random_raw())


def _mix(h: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place on a uint64 array (wrapping)."""
    tmp = np.empty_like(h)
    np.right_shift(h, _S30, out=tmp)
    h ^= tmp
    h *= _MIX1
    np.right_shift(h, _S27, out=tmp)
    h ^= tmp
    h *= _MIX2
    np.right_shift(h, _S31, out=tmp)
    h ^= tmp
    return h


def _unit(h: np.ndarray) -> np.ndarray:
    """Uniforms on ``(0, 1]`` from uint64 counters ``h``, hashed in
    place (the result is written over ``h``'s buffer)."""
    _mix(h)
    h >>= _S12
    h |= _ONE_BITS
    u = h.view(np.float64)
    np.subtract(2.0, u, out=u)
    return u


class RowSampler:
    """The transmitter sets of one block's rows, keyed by the block.

    Parameters
    ----------
    key:
        The block key (:func:`draw_block_key`).
    members:
        Length-``n`` boolean mask of the nodes that may transmit.
    row_probs:
        The row factor ``q_t`` of every block row ``t``.
    weights:
        Optional length-``n`` column factors ``c_v`` in ``[0, 1]``
        (ignored outside ``members``); ``None`` means 1 for every
        member.

    :meth:`sample` returns the transmitters of any row interval; a
    row's transmitters depend only on the key, the row index, its row
    factor and the member weights.
    """

    def __init__(
        self,
        key: int,
        members: np.ndarray,
        row_probs: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        members = np.asarray(members, dtype=bool)
        self.n = int(members.shape[0])
        self.key = np.uint64(int(key) & 0xFFFFFFFFFFFFFFFF)
        nodes = np.flatnonzero(members)
        #: Keep-probabilities of the members, or ``None`` when every
        #: factor is its class cap (no thinning uniform needed).
        self.ratios: np.ndarray | None = None
        if weights is None:
            # One class of cap 1 (none without members): every member,
            # ascending.
            classes = 1 if nodes.size else 0
            self.nodes = nodes
            self.caps = np.ones(classes)
            self.sizes = np.full(classes, nodes.size, dtype=np.int64)
            self.offsets = np.zeros(classes, dtype=np.int64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != members.shape:
                raise ValueError(
                    f"weights have shape {weights.shape}, expected "
                    f"{members.shape}"
                )
            factors = weights[nodes]
            if np.any((factors < 0.0) | (factors > 1.0)):
                raise ValueError("column factors must lie in [0, 1]")
            keep = factors > 0.0
            nodes, factors = nodes[keep], factors[keep]
            # Class cap: the factor itself when it is a power of two,
            # else the next power of two above it (frexp: c = m * 2^e,
            # m in [0.5, 1), so 2^e > c > 2^(e-1)).
            mantissa, exponent = np.frexp(factors)
            caps = np.where(
                mantissa == 0.5, factors, np.ldexp(1.0, exponent)
            )
            self.caps, which = np.unique(caps, return_inverse=True)
            order = np.argsort(which, kind="stable")
            #: Members of every class back to back (ascending within a
            #: class), with per-class offsets and sizes.
            self.nodes = nodes[order]
            self.sizes = np.bincount(which, minlength=self.caps.size)
            self.offsets = np.cumsum(self.sizes) - self.sizes
            ratios = factors[order] / caps[order]
            if not np.all(ratios == 1.0):
                self.ratios = ratios
        self.row_probs = np.asarray(row_probs, dtype=np.float64)
        if np.any((self.row_probs < 0.0) | (self.row_probs > 1.0)):
            raise ValueError("row factors must lie in [0, 1]")

    def sample(
        self, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The transmitters of block rows ``[start, stop)``.

        Returns int64 ``(steps, nodes)`` with ``steps`` relative to
        ``start``, ordered row-major with nodes ascending within a row.
        """
        empty = np.empty(0, dtype=np.int64)
        classes = self.caps.size
        if stop <= start or classes == 0:
            return empty, empty
        # One walk per (row, class), row-major.
        row = np.repeat(np.arange(stop - start), classes)
        cls = np.tile(np.arange(classes), stop - start)
        rate = np.minimum(
            self.row_probs[start + row] * self.caps[cls], 1.0
        )
        cells = self.sizes[cls]
        counter = (start + row).astype(np.uint64)
        counter *= _CLASS_SLOTS
        counter += cls.astype(np.uint64)
        counter *= _GOLDEN
        counter += self.key
        seeds = _mix(counter)
        with np.errstate(divide="ignore"):
            inv_log = 1.0 / np.log1p(-rate)
        # Every walk's first gap, by the loop's own float operations: a
        # walk it carries past its class draws nothing (most, if sparse;
        # every walk at rate 0, whose gaps are infinite) and never enters
        # the loop. ``gap < cells`` is the loop's ``int(fmin(gap, n)) <
        # cells`` for every gap, inf and NaN included.
        first = np.log(_unit(seeds + _GOLDEN))
        first *= inv_log
        walks = np.flatnonzero(first < cells)
        if not walks.size:
            return empty, empty
        # First batch: the expected transmitter count plus two standard
        # deviations, plus the overshooting gap; walks that run out
        # continue in doubling batches.
        mean = cells * rate
        batch = np.minimum(
            (mean + 2.0 * np.sqrt(mean)).astype(np.int64) + 1, cells + 1
        )

        last_pos = np.full(rate.size, -1, dtype=np.int64)
        next_gap = np.ones(rate.size, dtype=np.int64)
        found_walk, found_pos, found_gap = [], [], []
        rounds = 0
        while walks.size:
            if rounds:
                batch = np.maximum(batch, 4) * 2
            b = batch[walks]
            ends = np.cumsum(b)
            starts = ends - b
            # Counter of gap j of a walk: seed + j * golden (wrapping).
            first_gap = next_gap[walks] - starts
            h = np.repeat(
                first_gap.astype(np.uint64) * _GOLDEN + seeds[walks], b
            )
            h += np.arange(int(ends[-1]), dtype=np.uint64) * _GOLDEN
            gap = np.log(_unit(h))
            gap *= np.repeat(inv_log[walks], b)
            # fmin: a NaN (0 * -inf at a vanishing rate) is a gap past
            # every cell, like +inf.
            np.fmin(gap, float(self.n), out=gap)
            # Gap lengths (>= 1) summed over the batch: strictly
            # increasing, so every walk's in-range positions are a
            # prefix of its segment.
            pos = gap.astype(np.int64)
            pos += 1
            np.cumsum(pos, out=pos)
            before = np.zeros(walks.size, dtype=np.int64)
            before[1:] = pos[ends[:-1] - 1]
            shift = before - last_pos[walks]
            valid = pos < np.repeat(cells[walks] + shift, b)
            count = np.add.reduceat(valid, starts, dtype=np.int64)
            flat = np.flatnonzero(valid)
            found_walk.append(np.repeat(walks, count))
            found_pos.append(pos[flat] - np.repeat(shift, count))
            if self.ratios is not None:
                found_gap.append(flat + np.repeat(first_gap, count))
            last_pos[walks] = pos[ends - 1] - shift
            next_gap[walks] += b
            walks = walks[count == b]
            rounds += 1

        walk = np.concatenate(found_walk)
        slot = self.offsets[cls[walk]] + np.concatenate(found_pos)
        if self.ratios is not None:
            ratio = self.ratios[slot]
            thin = ratio < 1.0
            if thin.any():
                h = np.concatenate(found_gap)[thin].astype(np.uint64)
                h *= _GOLDEN
                h += seeds[walk[thin]] ^ _THIN_SALT
                keep = np.ones(walk.size, dtype=bool)
                keep[thin] = _unit(h) <= ratio[thin]
                walk, slot = walk[keep], slot[keep]
        steps = row[walk]
        nodes = self.nodes[slot]
        if rounds > 1 or classes > 1:
            # Walks are sorted runs; a stable (merge) sort only merges
            # them.
            keys = np.sort(steps * self.n + nodes, kind="stable")
            steps = keys // self.n
            nodes = keys - steps * self.n
        return steps, nodes


__all__ = [
    "RowSampler",
    "STREAM_VERSION",
    "draw_block_key",
]
