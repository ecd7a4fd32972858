"""Binned occupancy statistics over ordered node pairs.

Time is cut into half-open bins [b*eps, (b+1)*eps); an event at exactly the
horizon lands in the last bin.  Windows of three consecutive bins anchored
at bins 0, 3, 6, ... yield two signed counts per ordered pair (i, j):

  pair term    X_ij - X_ji          with X_ij = 1 iff bin b holds exactly one
                                    i-event and bin b+1 exactly one j-event,
  triple term  X_iij - 2*X_iji + X_jii over bins (b, b+1, b+2), same
                                    exactly-one rule per designated bin.

Sums of these over all complete windows drive edge detection.

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
from dataclasses import dataclass

import numpy as np

from .simulation import EventLog

__all__ = [
    "BinGrid",
    "PairStatistics",
    "bin_count",
    "window_count",
    "bin_events",
    "pair_delta",
    "triple_delta",
    "accumulate",
    "accumulate_all",
    "jitter",
    "save_stats",
    "load_stats",
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


def _check_pair(grid: BinGrid, i: int, j: int) -> None:
    if i == j:
        raise ValueError("pair statistics need two distinct nodes")
    if not (0 <= i < grid.n and 0 <= j < grid.n):
        raise ValueError("node index out of range")


def pair_delta(grid: BinGrid, i: int, j: int, window: int) -> int:
    """Signed pair indicator for one window, in {-1, 0, 1}."""
    _check_pair(grid, i, j)
    b = 3 * window
    if window < 0 or b + 1 >= grid.bins:
        raise ValueError("window out of range")
    c = grid.counts
    x_ij = int(c[i, b] == 1 and c[j, b + 1] == 1)
    x_ji = int(c[j, b] == 1 and c[i, b + 1] == 1)
    return x_ij - x_ji


def triple_delta(grid: BinGrid, i: int, j: int, window: int) -> int:
    """Signed triple indicator for one window, in [-2, 2]."""
    _check_pair(grid, i, j)
    b = 3 * window
    if window < 0 or b + 2 >= grid.bins:
        raise ValueError("window out of range")
    c = grid.counts
    x_iij = int(c[i, b] == 1 and c[i, b + 1] == 1 and c[j, b + 2] == 1)
    x_iji = int(c[i, b] == 1 and c[j, b + 1] == 1 and c[i, b + 2] == 1)
    x_jii = int(c[j, b] == 1 and c[i, b + 1] == 1 and c[i, b + 2] == 1)
    return x_iij - 2 * x_iji + x_jii


@dataclass(frozen=True)
class PairStatistics:
    """Accumulated window sums for one ordered pair.

    pair_sum lies in [-windows, windows] and flips sign when the pair is
    swapped; triple_sum lies in [-2*windows, 2*windows] and does not.
    """

    i: int
    j: int
    pair_sum: int
    triple_sum: int
    windows: int
    epsilon: float
    horizon: float

    def __post_init__(self) -> None:
        if abs(self.pair_sum) > self.windows or abs(self.triple_sum) > 2 * self.windows:
            raise ValueError("sums exceed the window count")


def _window_anchors(grid: BinGrid, stride_bins: int) -> np.ndarray:
    """First bin of every window."""
    usable = 3 * window_count(grid.horizon, grid.epsilon)
    if stride_bins == 3:
        return np.arange(0, usable, 3)
    if stride_bins < 1:
        raise ValueError("stride_bins must be at least 1")
    return np.arange(0, max(usable - 2, 0), stride_bins)


def _window_occupancy(grid: BinGrid, stride_bins: int):
    anchors = _window_anchors(grid, stride_bins)
    one = grid.counts == 1
    return one[:, anchors], one[:, anchors + 1], one[:, anchors + 2], len(anchors)


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


def _pair_sums(b0: np.ndarray, b1: np.ndarray, b2: np.ndarray, i: int, j: int) -> tuple[int, int]:
    d1 = int(np.sum(b0[i] & b1[j])) - int(np.sum(b0[j] & b1[i]))
    d2 = (
        int(np.sum(b0[i] & b1[i] & b2[j]))
        - 2 * int(np.sum(b0[i] & b1[j] & b2[i]))
        + int(np.sum(b0[j] & b1[i] & b2[i]))
    )
    return d1, d2


def accumulate(grid: BinGrid, i: int, j: int, stride_bins: int = 3) -> PairStatistics:
    """Sum the window indicators for one ordered pair.

    stride_bins=3 gives the disjoint-window default; stride_bins=1 is the
    overlapping variant, kept for comparisons.
    """
    _check_pair(grid, i, j)
    b0, b1, b2, k = _window_occupancy(grid, stride_bins)
    d1, d2 = _pair_sums(b0, b1, b2, i, j)
    return PairStatistics(i, j, d1, d2, k, grid.epsilon, grid.horizon)


def accumulate_all(grid: BinGrid, stride_bins: int = 3) -> dict[tuple[int, int], PairStatistics]:
    """Window sums for every ordered pair from one pass of the packed kernel."""
    anchors = _window_anchors(grid, stride_bins)
    b0, b1, b2 = _packed_occupancy(grid.counts, anchors)
    first_second = _cooccur(b0, b1)
    pair = (first_second - first_second.T).tolist()
    triple = (_cooccur(b0 & b1, b2) - 2 * _cooccur(b0 & b2, b1) + _cooccur(b1 & b2, b0)).tolist()
    k = len(anchors)
    return {
        (i, j): PairStatistics(i, j, pair[i][j], triple[i][j], k, grid.epsilon, grid.horizon)
        for i in range(grid.n)
        for j in range(grid.n)
        if i != j
    }


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


def save_stats(stats: dict[tuple[int, int], PairStatistics], path: str) -> None:
    """Write one CSV record per ordered pair, sorted by (i, j)."""
    with open(path, "w") as fh:
        fh.write("i,j,pair_sum,triple_sum,windows,epsilon,horizon\n")
        for key in sorted(stats):
            s = stats[key]
            fh.write(f"{s.i},{s.j},{s.pair_sum},{s.triple_sum},{s.windows},{s.epsilon!r},{s.horizon!r}\n")


def load_stats(path: str) -> dict[tuple[int, int], PairStatistics]:
    out: dict[tuple[int, int], PairStatistics] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "i,j,pair_sum,triple_sum,windows,epsilon,horizon":
            raise ValueError(f"{path} is not a pair-statistics file")
        for line in fh:
            if not line.strip():
                continue
            i, j, d1, d2, k, eps, horizon = line.split(",")
            out[(int(i), int(j))] = PairStatistics(
                int(i), int(j), int(d1), int(d2), int(k), float(eps), float(horizon)
            )
    return out
