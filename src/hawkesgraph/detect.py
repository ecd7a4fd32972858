"""Edge detection from accumulated pair statistics.

Each ordered pair gets the score |pair_sum| / (T * eps) + |triple_sum| /
(T * eps^2); an undirected edge is reported when either ordering of the pair
scores at or above the threshold.  The pair term alone misses symmetric
two-way excitation, which is exactly what the triple term is there to catch,
so both feed the score.

Thresholds are either the user's choice or calibrated against surrogate data
with one node's events circularly shifted (``calibrate_threshold``), which
preserves each node's marginal stream while destroying cross-correlation.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .model import DependencyGraph
from .simulation import EventLog, _header_fields
from .stats import (
    _BLOCK_BYTES,
    BinGrid,
    PairTable,
    _pack,
    _pair,
    _triple,
    accumulate_all,
    bin_events,
    window_count,
)

__all__ = [
    "DetectorConfig",
    "pair_scores",
    "detect",
    "detect_subset",
    "calibrate_threshold",
    "save_graph",
    "load_graph",
]

_SOURCES = ("user", "calibrated")
_QUANTILE = 0.99  # of the surrogate null scores, for a calibrated threshold


@dataclass(frozen=True)
class DetectorConfig:
    """Detection parameters: bin width, horizon, threshold and its origin.

    use_triples=False drops the triple term from the score; this ablation
    exists to show what the pair term alone cannot see.
    """

    epsilon: float
    horizon: float
    threshold: float
    source: str = "user"
    use_triples: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:  # NaN fails too
            raise ValueError("epsilon must be positive and finite")
        if window_count(self.horizon, self.epsilon) < 1:
            raise ValueError("horizon must cover at least one window (3 * epsilon)")
        if not 0 < self.threshold < math.inf:
            raise ValueError("threshold must be positive and finite")
        if self.source not in _SOURCES:
            raise ValueError(f"source must be one of {_SOURCES}, not {self.source!r}")


def _scores(
    pair: np.ndarray, triple: np.ndarray | None, epsilon: float, horizon: float
) -> np.ndarray:
    """Elementwise |pair| / (T * eps), plus |triple| / (T * eps^2) unless triple is None."""
    t_eps = horizon * epsilon
    score = np.abs(pair) / t_eps
    if triple is not None:
        score = score + np.abs(triple) / (t_eps * epsilon)
    return score


def pair_scores(table: PairTable, use_triples: bool = True) -> np.ndarray:
    """(n, n) normalized evidence that node i excites node j, for every (i, j)."""
    triple = table.triple if use_triples else None
    return _scores(table.pair, triple, table.epsilon, table.horizon)


def detect(table: PairTable, config: DetectorConfig) -> DependencyGraph:
    """Threshold the pair scores into an undirected dependency graph.

    Both orderings of a pair are examined; either one crossing the threshold
    adds the edge.
    """
    if (table.epsilon, table.horizon) != (config.epsilon, config.horizon):
        raise ValueError(
            f"statistics were computed at (eps={table.epsilon}, T={table.horizon}) "
            f"but the detector expects (eps={config.epsilon}, T={config.horizon})"
        )
    hit = pair_scores(table, config.use_triples) >= config.threshold
    rows, cols = np.nonzero(np.triu(hit | hit.T, k=1))
    return DependencyGraph(table.n, frozenset(zip(rows.tolist(), cols.tolist())))


def detect_subset(
    log: EventLog,
    observed: set[int] | frozenset[int],
    config: DetectorConfig,
) -> DependencyGraph:
    """Run detection as if only the observed nodes had been recorded.

    Pair statistics depend on nothing outside the pair, so the result is
    bit-identical to the restriction of a full-network run with the same
    config.  The graph lives in the ambient index space of the log.
    """
    sub, ambient = _observed_only(log, observed)
    return ambient(detect(accumulate_all(bin_events(sub, config.epsilon)), config))


def _observed_only(
    log: EventLog, observed: Iterable[int]
) -> tuple[EventLog, Callable[[DependencyGraph], DependencyGraph]]:
    """The observed nodes' events alone, renumbered 0..k-1 in index order,
    and the map of a graph on them back to the log's node indices."""
    nodes = sorted(set(observed))
    if not nodes:
        raise ValueError("observed set must be nonempty")
    if nodes[0] < 0 or nodes[-1] >= log.n:
        raise ValueError("observed nodes out of range")
    index = np.full(log.n, -1)
    index[nodes] = np.arange(len(nodes))
    renumbered = index[log.nodes]
    keep = renumbered >= 0  # renumbering keeps the (time, node) order
    sub = EventLog(n=len(nodes), horizon=log.horizon, times=log.times[keep],
                   nodes=renumbered[keep])

    def ambient(graph: DependencyGraph) -> DependencyGraph:
        return DependencyGraph(log.n, frozenset((nodes[a], nodes[b]) for a, b in graph.edges))

    return sub, ambient


def calibrate_threshold(
    grid: BinGrid, n_surrogates: int = 50, seed: int = 0, use_triples: bool = True
) -> float:
    """Threshold at the 0.99 quantile of the pairs' surrogate null scores.

    The log and bin width are the grid's; ``_null_scores`` describes the
    surrogates.  ``detect`` adds an edge when either ordering of a pair
    reaches the threshold, so an edgeless pair is then reported with
    probability about 0.01.  A log too sparse for any surrogate pair to
    score gives a quantile of 0, which every pair would reach, and raises
    ValueError instead.
    """
    threshold = float(np.quantile(_null_scores(grid, n_surrogates, seed, use_triples), _QUANTILE))
    if threshold == 0.0:
        raise ValueError(f"too few events were scored: the {_QUANTILE} quantile of the "
                         f"surrogate scores is 0")
    return threshold


def _null_scores(grid: BinGrid, n_surrogates: int, seed: int, use_triples: bool) -> np.ndarray:
    """Null scores of every pair under surrogates with cross-correlation destroyed.

    Surrogate k circularly shifts one node's events of the grid's log by a
    uniform offset (node k % n), then scores both orderings of every pair
    involving the shifted node.  A pair's null score is the larger of its
    two, as ``detect`` needs either ordering to cross.  (Pooling the two
    orderings separately would let each cross at the null rate, nearly
    doubling the false-edge rate.)  The scores come surrogate by surrogate,
    each over the other nodes in index order.

    Each surrogate's shifted events are gathered, with no loop over
    surrogates, and packed into its row k of one (3, n_surrogates, words)
    block: consecutive surrogates share one ``_pack`` call as long as their
    events total at most max(events in the log, _BLOCK_BYTES / 64), so a
    group's packing stays within about twice the log's memory.  Every
    surrogate is then scored at once against every node's unchanged packed
    rows, with the same popcount kernels as ``accumulate_all``; the scores
    equal those of packing the whole shifted log.
    """
    log, epsilon = grid.log, grid.epsilon
    if n_surrogates < 1:
        raise ValueError("need at least one surrogate")
    if log.n < 2:
        raise ValueError("calibration needs at least two nodes to pair")
    if window_count(log.horizon, epsilon) < 1:
        raise ValueError("horizon must cover at least one window (3 * epsilon)")
    occupancy = grid.occupancy
    offsets = np.random.default_rng(seed).uniform(0.0, log.horizon, size=n_surrogates)
    shifted_node = np.arange(n_surrogates) % log.n
    block = np.empty((3, n_surrogates, occupancy.shape[2]), dtype=np.uint64)
    ends = np.cumsum(log.counts()[shifted_node])
    cap = max(len(log), _BLOCK_BYTES // 64)
    lo = 0
    while lo < n_surrogates:
        # no surrogate holds more than len(log) <= cap events, so hi > lo
        hi = int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + cap, side="right"))
        times, rows = _shifted_events(log, offsets[lo:hi], lo)
        block[:, lo:hi] = _pack(times, rows, hi - lo, epsilon, log.horizon)
        del times, rows  # before the next group is gathered, or scoring
        lo = hi
    # The j-ordering's pair sum is the negated i-ordering's, of the same
    # magnitude, and rounding is monotone: the larger triple magnitude gives
    # the larger of the two orderings' scores bit for bit.
    triple = None
    if use_triples:
        triple = np.maximum(np.abs(_triple(block, occupancy)), np.abs(_triple(occupancy, block).T))
    scores = _scores(_pair(block, occupancy), triple, epsilon, log.horizon)
    return scores[np.arange(log.n) != shifted_node[:, None]]


def _shifted_events(
    log: EventLog, offsets: np.ndarray, lo: int
) -> tuple[np.ndarray, np.ndarray]:
    """Times and rows of surrogates lo, lo + 1, ... for ``_pack``: surrogate
    lo + r shifts node (lo + r) % n by offsets[r] and owns row r."""
    n, horizon = log.n, log.horizon
    first = (np.arange(n) - lo) % n  # row of the first surrogate shifting each node
    copies = np.bincount(np.arange(lo, lo + len(offsets)) % n, minlength=n)[log.nodes]
    # the copies of an event sit together from position start on, and copy c
    # of an event of node v goes to row first[v] + n * c
    start = np.cumsum(copies) - copies
    rows = np.repeat(first[log.nodes] - n * start, copies)
    del start
    rows += np.arange(0, n * len(rows), n)
    times = np.repeat(log.times, copies)
    times += offsets[rows]
    # times lie in [0, T] and offsets in [0, T), so a sum lies in [0, 2T] and
    # subtracting T from it is exact (Sterbenz): this is np.mod without its
    # division, and a sum rounded up to 2T wraps to 0 as it does under np.mod
    times -= (times >= horizon) * horizon
    times[times == horizon] = 0.0
    return times, rows


def save_graph(graph: DependencyGraph, config: DetectorConfig, path: str) -> None:
    """One edge per line as "i j", lexicographic, after a config header."""
    with open(path, "w") as fh:
        fh.write(
            f"# hawkesgraph-graph nodes={graph.n} epsilon={config.epsilon!r} "
            f"horizon={config.horizon!r} threshold={config.threshold!r} "
            f"source={config.source} use_triples={int(config.use_triples)}\n"
        )
        for i, j in graph.sorted_edges:
            fh.write(f"{i} {j}\n")


def load_graph(path: str) -> tuple[DependencyGraph, DetectorConfig]:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# hawkesgraph-graph "):
            raise ValueError(f"{path} is not a graph file")
        required = ("nodes", "epsilon", "horizon", "threshold", "source")
        fields = _header_fields(header, path, "graph", required)
        try:
            n = int(fields["nodes"])
            config = DetectorConfig(
                epsilon=float(fields["epsilon"]),
                horizon=float(fields["horizon"]),
                threshold=float(fields["threshold"]),
                source=fields["source"],
                use_triples=bool(int(fields.get("use_triples", 1))),
            )
        except ValueError as exc:  # e.g. source=theorem, which older versions wrote
            raise ValueError(f"{path}: {exc}") from exc
        edges = set()
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                i, j = map(int, line.split())
            except ValueError:
                i = j = -1
            if not 0 <= i < j < n:
                raise ValueError(f"{path}, line {number}: {line.strip()!r} is not an "
                                 f"edge 'i j' with 0 <= i < j < {n}")
            edges.add((i, j))
    return DependencyGraph(n, frozenset(edges)), config
