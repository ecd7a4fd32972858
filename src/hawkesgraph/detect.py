"""Edge detection from accumulated pair statistics.

Each ordered pair gets the score |pair_sum| / (T * eps) + |triple_sum| /
(T * eps^2); an undirected edge is reported when either ordering of the pair
scores at or above the threshold.  The pair term alone misses symmetric
two-way excitation, which is exactly what the triple term is there to catch,
so both feed the score.

Thresholds come from one of three sources: the closed form backed by the
recovery guarantee (``theorem_threshold``), a user choice, or calibration
against surrogate data with one node's events circularly shifted
(``calibrate_threshold``), which preserves each node's marginal stream while
destroying cross-correlation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import DependencyGraph
from .simulation import EventLog
from .stats import (
    PairTable,
    _bin_index,
    _node_pair_sums,
    _packed_occupancy,
    _window_anchors,
    accumulate_all,
    bin_events,
)

__all__ = [
    "DetectorConfig",
    "pair_scores",
    "detect",
    "detect_subset",
    "theorem_threshold",
    "theorem_schedule",
    "calibrate_threshold",
    "suggest_epsilon",
    "save_graph",
    "load_graph",
]

_SOURCES = ("theorem", "user", "calibrated")


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
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.horizon < 3 * self.epsilon:
            raise ValueError("horizon must cover at least one window (3 * epsilon)")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.source not in _SOURCES:
            raise ValueError(f"source must be one of {_SOURCES}")


def _scores(
    pair: np.ndarray, triple: np.ndarray, epsilon: float, horizon: float, use_triples: bool
) -> np.ndarray:
    """Elementwise |pair| / (T * eps) + |triple| / (T * eps^2)."""
    t_eps = horizon * epsilon
    score = np.abs(pair) / t_eps
    if use_triples:
        score = score + np.abs(triple) / (t_eps * epsilon)
    return score


def pair_scores(table: PairTable, use_triples: bool = True) -> np.ndarray:
    """(n, n) normalized evidence that node i excites node j, for every (i, j)."""
    return _scores(table.pair, table.triple, table.epsilon, table.horizon, use_triples)


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
    observed = frozenset(observed)
    if not observed:
        raise ValueError("observed set must be nonempty")
    if any(not 0 <= v < log.n for v in observed):
        raise ValueError("observed nodes out of range")
    keep = np.isin(log.nodes, sorted(observed))
    sub = EventLog(
        n=log.n,
        horizon=log.horizon,
        times=log.times[keep],
        nodes=log.nodes[keep],
        fingerprint=log.fingerprint,
    )
    # Unobserved nodes have no events left, so every sum involving them is 0
    # and, with a positive threshold, can never make an edge.
    return detect(accumulate_all(bin_events(sub, config.epsilon)), config)


def theorem_threshold(weight_floor: float, self_gap: float, baseline_floor: float) -> float:
    """Threshold with a recovery guarantee for models honoring the declared
    floors: one eighth of weight_floor * self_gap * baseline_floor."""
    if weight_floor <= 0 or self_gap <= 0 or baseline_floor <= 0:
        raise ValueError("threshold inputs must be positive")
    return weight_floor * self_gap * baseline_floor / 8.0


def theorem_schedule(n: int) -> tuple[float, float]:
    """Horizon and bin width, (log n)^100 and (log n)^-17, that back the
    recovery guarantee for an n-node network.

    These come from a worst-case analysis and are astronomically
    conservative; they are exposed for completeness, not for use.  Calibrate
    a threshold on real horizons instead.
    """
    if n < 3:
        raise ValueError("the schedule needs n >= 3 so that log(n) > 1")
    ln = math.log(n)
    warnings.warn(
        "theorem_schedule returns proof-driven constants: for n={} the horizon "
        "is {:.3g}, far beyond any practical run; treat it as a reference "
        "point only".format(n, ln**100),
        UserWarning,
        stacklevel=2,
    )
    return ln**100, ln**-17


def calibrate_threshold(
    log: EventLog,
    epsilon: float,
    n_surrogates: int = 50,
    quantile: float = 0.99,
    seed: int = 0,
    use_triples: bool = True,
) -> float:
    """Score quantile under surrogate data with cross-correlation destroyed.

    Each surrogate circularly shifts one node's events by a uniform offset
    (node k % n on the k-th surrogate), then scores both orderings of every
    pair involving the shifted node.  ``detect`` adds an edge when either
    ordering reaches the threshold, so a pair's null score is the larger of
    its two; the pooled quantile of those is the threshold, and an edgeless
    pair is then reported with probability about 1 - quantile.  (Pooling the
    two orderings separately would let each cross it at that rate, nearly
    doubling the false-edge rate.)

    The log is binned and packed once.  A surrogate re-bins only the shifted
    node's events into one counts row, packs it, and scores both orderings
    against every other node's unchanged packed rows with the same popcount
    kernel as ``accumulate_all``; the scores equal those of re-binning the
    whole shifted log.
    """
    if not 0 < quantile < 1:
        raise ValueError("quantile must lie in (0, 1)")
    if n_surrogates < 1:
        raise ValueError("need at least one surrogate")
    if len(log) == 0:
        raise ValueError("cannot calibrate on an empty log")
    if log.n < 2:
        raise ValueError("calibration needs at least two nodes to pair")
    grid = bin_events(log, epsilon)
    anchors = _window_anchors(grid)
    b0, b1, b2 = _packed_occupancy(grid.counts, anchors)
    rng = np.random.default_rng(seed)
    null_scores: list[np.ndarray] = []
    for k in range(n_surrogates):
        node = k % log.n
        offset = rng.uniform(0.0, log.horizon)
        shifted = np.mod(log.times[log.nodes == node] + offset, log.horizon)
        row = np.bincount(_bin_index(shifted, epsilon, grid.bins), minlength=grid.bins)
        pair, triple = _node_pair_sums(b0, b1, b2, *_packed_occupancy(row[None, :], anchors))
        others = np.arange(log.n) != node
        score = _scores(pair[:, others], triple[:, others], epsilon, log.horizon, use_triples)
        null_scores.append(score.max(axis=0))
    return float(np.quantile(np.concatenate(null_scores), quantile))


def suggest_epsilon(log: EventLog, occupancy: float = 0.05) -> float:
    """Bin width for which the busiest node averages ``occupancy`` events per bin."""
    if len(log) == 0:
        raise ValueError("cannot size bins for an empty log")
    top_rate = float(np.max(log.counts())) / log.horizon
    return occupancy / top_rate


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
        fields = dict(part.split("=", 1) for part in header[2:].split()[1:])
        required = ("nodes", "epsilon", "horizon", "threshold", "source")
        missing = [f for f in required if f not in fields]
        if missing:
            raise ValueError(f"{path}: graph header lacks the field {missing[0]!r}")
        edges = set()
        for line in fh:
            if not line.strip():
                continue
            i, j = line.split()
            edges.add((int(i), int(j)))
    graph = DependencyGraph(int(fields["nodes"]), frozenset(edges))
    config = DetectorConfig(
        epsilon=float(fields["epsilon"]),
        horizon=float(fields["horizon"]),
        threshold=float(fields["threshold"]),
        source=fields["source"],
        use_triples=bool(int(fields.get("use_triples", 1))),
    )
    return graph, config
