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

All pair and triple sums come from exact integer popcount kernels.  The
exactly-one occupancy rows B0, B1, B2 (bins 0, 1, 2 of each window) are
packed straight from the events by _pack: a (bin, row) key held by exactly
one event, in a complete window, sets that window's bit in zero-padded
uint64 words.  C(X, Y)[a, b] is the popcount of X[a] & Y[b] summed over the
words, so that

  pair   = C(B0, B1) - C(B1, B0)
  triple = C(B0&B1, B2) - 2*C(B0&B2, B1) + C(B1&B2, B0).

The two terms take different loops because their left operands differ in
density, a property of the statistic rather than a tuning choice.  A bin
holds exactly one event with some probability p, so a packed word of B0 is
nonzero unless all of its 64 windows miss: 81-93% of B0's words were
nonzero on every log shape measured (see BENCH_kernel.json), and the pair
term's _cooccur ANDs, popcounts and sums every word.  The triple's left
operands are ANDs of two planes, about p^2 dense per bit, with 9-24% of
their words nonzero; _sparse_cooccur visits only those.  For each nonzero
word of x it gathers that word of every row of y, ANDs and popcounts, and
sums each x-row's run of words with np.add.reduceat.  On B0 the gather would
cost more than the zero words it skips: routing the pair term through it
too was slower on every chains log measured.

The packed grid of an n-node log holds 3 * n * ceil(W / 64) words, a block
of S calibration surrogates 3 * S * ceil(W / 64); nothing of size (rows,
bins) is built.  Packing adds at most three int64 arrays of one entry per
event, then four times the packed bytes in half-word sums.  Calibration
packs its surrogates in groups of at most max(events in the log,
_BLOCK_BYTES / 64) gathered events, each group with its shifted times and
rows alive, so its peak stays within about twice the packed log's.
_cooccur runs in blocks of x-rows whose (rows, rows of y, words) uint64
intermediate stays within _BLOCK_BYTES (16 MiB), or one row at a time when a
single row exceeds it; with its uint8 popcounts a block holds at most 1.125
* max(_BLOCK_BYTES, bytes of y).  _sparse_cooccur gathers in chunks of
nonzero words whose (rows of y, words) uint64 block, with two int64 run
indices per word, stays within _BLOCK_BYTES, or one word at a time when
one exceeds it; a chunk holds its block and popcounts, then the popcounts,
the indices and the chunk's int64 row sums (no larger than the block), so
at most 1.125 * max(_BLOCK_BYTES, 8 * rows of y + 16).  Before its chunks
it holds up to four 8-byte arrays of one entry per nonzero word of x, and
three of them throughout.  The counts are exact for any W.
"""

from __future__ import annotations

import math
from collections.abc import ItemsView, Iterator, Mapping
from dataclasses import dataclass, field
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
_BLOCK_BYTES = 1 << 24  # cap on the uint64 intermediate of one kernel block
_BIT_VALUES = np.ldexp(1.0, np.arange(32))  # float64 2**k, k < 32


def bin_count(horizon: float, epsilon: float) -> int:
    """Number of bins covering [0, horizon], the last one possibly partial."""
    if not (0 < epsilon < math.inf and 0 < horizon < math.inf):  # NaN fails too
        raise ValueError("horizon and epsilon must be positive and finite")
    q = horizon / epsilon
    base = math.floor(q)
    if q - base < _SNAP * max(q, 1.0):
        return max(base, 1)
    return base + 1


def window_count(horizon: float, epsilon: float) -> int:
    """Complete three-bin windows in [0, horizon]; incomplete tails are dropped."""
    bins = bin_count(horizon, epsilon)
    q = horizon / (3.0 * epsilon)
    base = math.floor(q)
    if base + 1 - q < _SNAP * max(q, 1.0):
        base += 1
    return min(base, bins // 3)


@dataclass(frozen=True, eq=False)
class BinGrid:
    """Exactly-one window occupancy of every node, packed by _pack.

    occupancy has shape (3, n, ceil(W / 64)): plane r, row v has the bit of
    window w set when bin 3w + r holds exactly one event of node v.  ``log``
    is the log it was binned from.
    """

    epsilon: float
    horizon: float
    occupancy: np.ndarray
    log: EventLog = field(repr=False)

    @property
    def n(self) -> int:
        return self.occupancy.shape[1]


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


def _pack(
    times: np.ndarray, rows: np.ndarray, n_rows: int, epsilon: float, horizon: float
) -> np.ndarray:
    """(3, n_rows, ceil(W / 64)) uint64 exactly-one occupancy of window bins
    0, 1, 2, for events at times on rows in [0, n_rows)."""
    w = window_count(horizon, epsilon)
    shape = (3, n_rows, -(-w // 64))
    keys = _bin_index(times, epsilon, bin_count(horizon, epsilon))
    keys *= n_rows
    keys += rows
    keys.sort()
    # keep the (bin, row) keys held by exactly one event whose bin lies in a
    # complete window, i.e. bin < 3w: sorted, such a key differs from both
    # of its neighbours
    keys = keys[: np.searchsorted(keys, 3 * w * n_rows)]
    fresh = np.ones(keys.size + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:-1])
    single = keys[fresh[:-1] & fresh[1:]]
    del keys, fresh  # free each per-event array as soon as it is spent
    window = single // (3 * n_rows)
    half = single  # turned in place into the key's half-word of the output
    half -= window * (3 * n_rows)  # plane * n_rows + row
    half *= 2 * shape[2]
    half += window >> 5
    del single
    # a word's bits are distinct, so their OR is their sum, and float64 sums
    # each 32-bit half of it exactly: bincount the bits into half-words
    window &= 31
    bits = _BIT_VALUES[window]
    del window
    counts = np.bincount(half, bits, minlength=2 * math.prod(shape))
    del half, bits
    halves = counts.astype(np.uint64).reshape(shape + (2,))
    del counts
    occ = halves[..., 1] << np.uint64(32)
    occ |= halves[..., 0]
    return occ


def bin_events(log: EventLog, epsilon: float) -> BinGrid:
    occupancy = _pack(log.times, log.nodes, log.n, epsilon, log.horizon)
    occupancy.flags.writeable = False
    return BinGrid(epsilon=epsilon, horizon=log.horizon, occupancy=occupancy, log=log)


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


def _cooccur(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """C[a, b] = number of set bits in x[a] & y[b], for packed rows x and y."""
    out = np.empty((x.shape[0], y.shape[0]), dtype=np.int64)
    step = max(1, _BLOCK_BYTES // max(y.nbytes, 1))
    for lo in range(0, x.shape[0], step):
        block = x[lo : lo + step, None, :] & y[None, :, :]
        out[lo : lo + step] = np.bitwise_count(block).sum(axis=2, dtype=np.int64)
        del block  # before the next one is built
    return out


def _sparse_cooccur(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """_cooccur(x, y), visiting only the nonzero words of x."""
    out = np.zeros((x.shape[0], y.shape[0]), dtype=np.int64)
    # row-major, so each row's words form one run; a bool mask first, as
    # np.flatnonzero on uint64 words takes about three times as long
    nonzero = np.flatnonzero(x != 0)
    rows = nonzero // x.shape[1]
    words = nonzero - rows * x.shape[1]
    bits = x.reshape(-1)[nonzero]
    del nonzero
    step = max(1, _BLOCK_BYTES // (8 * y.shape[0] + 16))  # block, r's diff, starts
    for lo in range(0, rows.size, step):
        r = rows[lo : lo + step]
        # (rows of y, words): the AND and popcount run along the long axis
        block = np.take(y, words[lo : lo + step], axis=1)
        block &= bits[lo : lo + step]
        counts = np.bitwise_count(block)
        del block  # a chunk holds its words or its run sums, not both
        starts = np.flatnonzero(np.diff(r, prepend=-1))
        runs = np.add.reduceat(counts, starts, axis=1, dtype=np.int64)
        del counts
        runs[:, 0] += out[r[0]]  # the previous chunk may have ended inside row r[0]
        out[r[starts]] = runs.T
        del runs
    return out


def _pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pair window sums of every row of the packed occupancy x as i against
    every row of y as j, shape (rows of x, rows of y).  Swapping x and y
    gives the negated transpose."""
    return _cooccur(x[0], y[1]) - _cooccur(x[1], y[0])


def _triple(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Triple window sums of every row of x as i against every row of y as j."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    return (
        _sparse_cooccur(x0 & x1, y2)
        - 2 * _sparse_cooccur(x0 & x2, y1)
        + _sparse_cooccur(x1 & x2, y0)
    )


def accumulate_all(grid: BinGrid) -> PairTable:
    """Window sums for every ordered pair from one pass of the packed kernel."""
    occ = grid.occupancy
    # C(B1, B0) is the transpose of C(B0, B1), so the pair term takes one call
    forward = _cooccur(occ[0], occ[1])
    pair = forward - forward.T
    triple = _triple(occ, occ)
    return PairTable(
        pair=pair,
        triple=triple,
        windows=window_count(grid.horizon, grid.epsilon),
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
