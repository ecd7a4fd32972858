"""Binned occupancy statistics over ordered node pairs.

Time is cut into half-open bins [b*eps, (b+1)*eps); an event at exactly the
horizon lands in the last bin.  Windows of three consecutive bins anchored
at bins 0, 3, 6, ... yield two signed counts per ordered pair (i, j):

  pair term    X_ij - X_ji          with X_ij = 1 iff bin b holds exactly one
                                    i-event and bin b+1 exactly one j-event,
  triple term  X_iij - 2*X_iji + X_jii over bins (b, b+1, b+2), same
                                    exactly-one rule per designated bin.

Sums of these over all complete windows, held as two (n, n) arrays in a
PairTable, drive edge detection.

All pair and triple sums come from one exact integer kernel.  The
exactly-one occupancy rows B0, B1, B2 (bins 0, 1, 2 of each window, shape
(n, W)) are packed into uint64 words, and C(X, Y)[a, b] is the popcount of
X[a] & Y[b] summed over the words, so that

  pair   = C(B0, B1) - C(B1, B0)
  triple = C(B0&B1, B2) - 2*C(B0&B2, B1) + C(B1&B2, B0).

C is evaluated in blocks of x-rows whose (rows, n, words) uint64
intermediate stays within _BLOCK_BYTES (16 MiB), or one row at a time when a
single row exceeds it.  Together with its uint8 popcounts a block holds at
most 1.125 * max(_BLOCK_BYTES, 8 * n * ceil(W / 64)) bytes, on top of the
packed inputs of 8 * n * ceil(W / 64) bytes each.  The counts are exact
integers for any W.
"""

from __future__ import annotations

import math
from collections.abc import ItemsView, Iterator, Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .simulation import EventLog

__all__ = [
    "BinGrid",
    "PairStatistics",
    "PairTable",
    "bin_count",
    "window_count",
    "bin_events",
    "accumulate_all",
    "jitter",
]

_SNAP = 1e-9  # relative tolerance for float quotients that should be integers
_BLOCK_BYTES = 1 << 24  # cap on the uint64 intermediate of one _cooccur block


def bin_count(horizon: float, epsilon: float) -> int:
    """Number of bins covering [0, horizon], the last one possibly partial."""
    if epsilon <= 0 or horizon <= 0:
        raise ValueError("horizon and epsilon must be positive")
    q = horizon / epsilon
    base = math.floor(q)
    if q - base < _SNAP * max(q, 1.0):
        return max(base, 1)
    return base + 1


def window_count(horizon: float, epsilon: float) -> int:
    """Complete three-bin windows in [0, horizon]; incomplete tails are dropped."""
    q = horizon / (3.0 * epsilon)
    base = math.floor(q)
    if base + 1 - q < _SNAP * max(q, 1.0):
        base += 1
    return min(base, bin_count(horizon, epsilon) // 3)


@dataclass(frozen=True, eq=False)
class BinGrid:
    """Per-node event counts on the bin grid. counts has shape (n, bins)."""

    epsilon: float
    horizon: float
    counts: np.ndarray

    @property
    def n(self) -> int:
        return self.counts.shape[0]

    @property
    def bins(self) -> int:
        return self.counts.shape[1]


def _bin_index(times: np.ndarray, epsilon: float, nb: int) -> np.ndarray:
    """Bin of each time on a grid of nb half-open bins of width epsilon."""
    idx = np.floor(times / epsilon).astype(np.int64)
    # float division can misplace boundary events by one; fix against the
    # exact half-open predicate, then clamp the horizon endpoint into the
    # last bin.
    idx -= times < idx * epsilon
    idx += times >= (idx + 1) * epsilon
    np.clip(idx, 0, nb - 1, out=idx)
    return idx


def bin_events(log: EventLog, epsilon: float) -> BinGrid:
    nb = bin_count(log.horizon, epsilon)
    idx = _bin_index(log.times, epsilon, nb)
    counts = np.zeros((log.n, nb), dtype=np.int64)
    np.add.at(counts, (log.nodes, idx), 1)
    counts.flags.writeable = False
    return BinGrid(epsilon=epsilon, horizon=log.horizon, counts=counts)


class PairStatistics(NamedTuple):
    """Window sums of one ordered pair, as read from a PairTable."""

    i: int
    j: int
    pair_sum: int
    triple_sum: int
    windows: int


class _PairItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[tuple[int, int], PairStatistics]]:
        table = self._mapping
        pair, triple = table.pair.tolist(), table.triple.tolist()
        for i, j in table:
            yield (i, j), PairStatistics(i, j, pair[i][j], triple[i][j], table.windows)


@dataclass(frozen=True, eq=False)
class PairTable(Mapping):
    """Window sums of every ordered pair (i, j) as two read-only (n, n) arrays.

    pair[i, j] lies in [-windows, windows] and triple[i, j] in
    [-2*windows, 2*windows]; tables from accumulate_all also have
    pair = -pair.T and a zero diagonal.  As a mapping, ``table[(i, j)]`` is
    the PairStatistics view of one ordered pair, i != j.
    """

    pair: np.ndarray
    triple: np.ndarray
    windows: int
    epsilon: float
    horizon: float

    def __post_init__(self) -> None:
        pair = np.array(self.pair, dtype=np.int64)
        triple = np.array(self.triple, dtype=np.int64)
        if pair.ndim != 2 or pair.shape[0] != pair.shape[1] or triple.shape != pair.shape:
            raise ValueError("pair and triple must be (n, n) arrays of the same shape")
        if np.any(np.abs(pair) > self.windows) or np.any(np.abs(triple) > 2 * self.windows):
            raise ValueError("sums exceed the window count")
        pair.flags.writeable = False
        triple.flags.writeable = False
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "triple", triple)

    @property
    def n(self) -> int:
        return self.pair.shape[0]

    def __getitem__(self, key: tuple[int, int]) -> PairStatistics:
        i, j = key
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise KeyError(key)
        return PairStatistics(i, j, int(self.pair[i, j]), int(self.triple[i, j]), self.windows)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((i, j) for i in range(self.n) for j in range(self.n) if i != j)

    def __len__(self) -> int:
        return self.n * (self.n - 1)

    def items(self) -> _PairItems:
        return _PairItems(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairTable):
            return NotImplemented
        return (
            (self.windows, self.epsilon, self.horizon)
            == (other.windows, other.epsilon, other.horizon)
            and np.array_equal(self.pair, other.pair)
            and np.array_equal(self.triple, other.triple)
        )


def _window_anchors(grid: BinGrid) -> np.ndarray:
    """First bin of every complete window."""
    return np.arange(0, 3 * window_count(grid.horizon, grid.epsilon), 3)


def _packed_occupancy(counts: np.ndarray, anchors: np.ndarray) -> tuple[np.ndarray, ...]:
    """Exactly-one occupancy of window bins 0, 1, 2 for each row of counts,
    packed into zero-padded uint64 words of shape (rows, ceil(W / 64))."""
    rows, w = counts.shape[0], len(anchors)
    one = counts == 1
    packed = []
    for offset in range(3):
        bits = np.zeros((rows, 64 * -(-w // 64)), dtype=bool)
        bits[:, :w] = one[:, anchors + offset]
        packed.append(np.packbits(bits, axis=1).view(np.uint64))
    return tuple(packed)


def _cooccur(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """C[a, b] = number of set bits in x[a] & y[b], for packed rows x and y."""
    out = np.empty((x.shape[0], y.shape[0]), dtype=np.int64)
    step = max(1, _BLOCK_BYTES // max(y.nbytes, 1))
    for lo in range(0, x.shape[0], step):
        block = x[lo : lo + step, None, :] & y[None, :, :]
        out[lo : lo + step] = np.bitwise_count(block).sum(axis=2, dtype=np.int64)
    return out


def _node_pair_sums(
    b0: np.ndarray, b1: np.ndarray, b2: np.ndarray, r0: np.ndarray, r1: np.ndarray, r2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(pair, triple) sums of one node, given by its packed rows r0, r1, r2 of
    shape (1, words), against every row of the packed occupancy b0, b1, b2.

    Both have shape (2, n): row 0 takes the node as i and each row as j,
    row 1 each row as i and the node as j.
    """
    pair = _cooccur(r0, b1)[0] - _cooccur(r1, b0)[0]
    triple_out = (
        _cooccur(r0 & r1, b2)[0] - 2 * _cooccur(r0 & r2, b1)[0] + _cooccur(r1 & r2, b0)[0]
    )
    triple_in = (
        _cooccur(r2, b0 & b1)[0] - 2 * _cooccur(r1, b0 & b2)[0] + _cooccur(r0, b1 & b2)[0]
    )
    return np.stack((pair, -pair)), np.stack((triple_out, triple_in))


def accumulate_all(grid: BinGrid) -> PairTable:
    """Window sums for every ordered pair from one pass of the packed kernel."""
    anchors = _window_anchors(grid)
    b0, b1, b2 = _packed_occupancy(grid.counts, anchors)
    first_second = _cooccur(b0, b1)
    return PairTable(
        pair=first_second - first_second.T,
        triple=_cooccur(b0 & b1, b2) - 2 * _cooccur(b0 & b2, b1) + _cooccur(b1 & b2, b0),
        windows=len(anchors),
        epsilon=grid.epsilon,
        horizon=grid.horizon,
    )


def jitter(log: EventLog, magnitude: float, seed: int) -> EventLog:
    """Perturb every event time by an independent uniform draw in
    [-magnitude, magnitude], clamped to [0, horizon] and re-sorted."""
    if magnitude < 0:
        raise ValueError("magnitude must be nonnegative")
    rng = np.random.default_rng(seed)
    shifted = log.times + rng.uniform(-magnitude, magnitude, size=len(log))
    np.clip(shifted, 0.0, log.horizon, out=shifted)
    return EventLog(
        n=log.n,
        horizon=log.horizon,
        times=shifted,
        nodes=log.nodes.copy(),
        seed=None,
        fingerprint=log.fingerprint,
    )
