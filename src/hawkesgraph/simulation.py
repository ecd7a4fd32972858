"""Exact simulation of the point process as a Poisson cluster process.

The process is linear, so it is a Poisson cluster process (Hawkes & Oakes
1974).  Immigrants arrive on node i at rate mu_i(t).  An event at time s on
node j has Poisson(w_ij / r_ij(s)) children on node i, each after an
Exp(r_ij(s)) delay, where r_ij(s) = decay + amplitude * sin(frequency * s)
is the pair's kernel rate fixed at the parent's time (amplitude 0 for
exponential kernels).  ``_cluster`` draws many independent copies of the
process at once, one generation at a time on flat arrays.  Sinusoidal
immigrants come from one thinning of a stream at the baseline's cap.  A
frozen history before t0 enters through the children its events still have
after t0: Poisson(w e^{-r(s)(t0 - s)} / r(s)) of them, each Exp(r(s)) after
t0, because the kernel is memoryless.

``max_intensity_trace`` evaluates the intensity of one realization at all
its probes, block by block, on node-major (node, probe) arrays.  For
exponential kernels, grouped by decay, each source's excitation is a
cumulative sum of e^{decay (s - b0)} over the block's events, rescaled by
e^{-decay (t - b0)}, carried to the next block and added to each target's
row once per edge.  A block is the longest run of probes that fits a fixed
number of values with decay * (t - b0) at most 500, so nothing overflows.
Modulated kernels, whose rate depends on each event, are summed directly
over the source events still within reach of a 1e-12 kernel value.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .model import _PRUNE_LOG, HawkesModel

__all__ = [
    "EventLog",
    "simulate",
    "intensity",
    "max_intensity_trace",
    "save_events",
    "load_events",
    "child_seed",
]

_PEAK_GRID_STEP = 0.05  # probe spacing of the peak trace when a baseline varies
_BLOCK_VALUES = 1 << 18  # values one peak-trace block holds: 2 MB per float64 array
_BLOCK_EXPONENT = 500.0  # bound on decay * block span: e^500 is far below float64 overflow
_SAVE_LINES = 1 << 16  # event-file lines formatted and written at once
_EVENT_ROW = np.dtype([("time", np.float64), ("node", np.int64)])  # one event-file line


@dataclass(frozen=True, eq=False)
class EventLog:
    """Realized events on [0, horizon] for nodes 0..n-1.

    Events are kept sorted by time, ties broken by node index.  Arrays are
    read-only.  ``seed`` and ``fingerprint`` record how the log was produced
    when it came from ``simulate``.
    """

    n: int
    horizon: float
    times: np.ndarray
    nodes: np.ndarray
    seed: int | None = None
    fingerprint: str | None = None

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=np.float64)
        nodes = np.array(self.nodes, dtype=np.int64)
        if times.shape != nodes.shape or times.ndim != 1:
            raise ValueError("times and nodes must be matching 1-d arrays")
        if self.n < 1:
            raise ValueError("a log needs at least one node")
        if not 0 < self.horizon < math.inf:  # NaN fails too
            raise ValueError("horizon must be positive and finite")
        if times.size:
            if not (times.min() >= 0 and times.max() <= self.horizon):  # NaN fails too
                raise ValueError("event times must lie in [0, horizon]")
            if nodes.min() < 0 or nodes.max() >= self.n:
                raise ValueError("node indices out of range")
            if not _in_order(times, nodes):
                order = np.argsort(times)  # without ties, the order is unique
                if np.any(np.diff(times[order]) == 0):  # ties break by node
                    order = np.lexsort((nodes, times))
                times, nodes = times[order], nodes[order]
        times.flags.writeable = False
        nodes.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "nodes", nodes)

    def __len__(self) -> int:
        return int(self.times.size)

    def times_of(self, node: int) -> np.ndarray:
        return self.times[self.nodes == node]

    def counts(self) -> np.ndarray:
        """Events per node."""
        return np.bincount(self.nodes, minlength=self.n)

    def same_events(self, other: "EventLog") -> bool:
        return (
            self.n == other.n
            and self.horizon == other.horizon
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.nodes, other.nodes)
        )


def _in_order(times: np.ndarray, nodes: np.ndarray) -> bool:
    """Whether events are sorted by time, ties broken by node index."""
    step = np.diff(times)
    return not np.any((step < 0) | ((step == 0) & (np.diff(nodes) < 0)))


def _edges(model: HawkesModel) -> tuple[np.ndarray, ...]:
    """The model's excitation edges (source j -> target i, weight > 0) as flat
    arrays sorted by (source, target): source, target, weight, and the
    kernel rate r(s) = decay + swing * sin(pace * s) as decay, swing, pace."""
    pairs = sorted((j, i) for (i, j), w in model.weights.items() if w > 0)
    kernels = [model.kernel(i, j) for j, i in pairs]
    source = np.array([j for j, _ in pairs], dtype=np.int64)
    target = np.array([i for _, i in pairs], dtype=np.int64)
    weight = np.array([model.weight(i, j) for j, i in pairs])
    decay = np.array([k.decay for k in kernels])
    swing = np.array([k.decay_amplitude for k in kernels])
    pace = np.array([k.decay_frequency for k in kernels])
    return source, target, weight, decay, swing, pace


def _baselines(model: HawkesModel) -> tuple[np.ndarray, ...]:
    """Per-node baselines mu(t) = level + amp * sin(freq * t + phase) as flat
    arrays (level, amp, freq, phase)."""
    base = model.baselines
    level = np.array([b.level for b in base])
    amp = np.array([b.amplitude for b in base])
    freq = np.array([b.frequency for b in base])
    phase = np.array([b.phase for b in base])
    return level, amp, freq, phase


def _cluster(
    model: HawkesModel,
    t0: float,
    duration: float,
    reps: int,
    rng: np.random.Generator,
    history: EventLog | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``reps`` independent copies of the process on [t0, t0 + duration].

    Returns flat, unsorted arrays (times, nodes, rep), where rep says which
    copy an event belongs to.  The events of ``history`` before t0 are a
    frozen past that every copy shares; one at exactly t0 is rejected, since
    it would belong to what happens after t0.
    """
    n = model.n
    end = t0 + duration
    source, target, weight, decay, swing, pace = _edges(model)
    degree = np.bincount(source, minlength=n)
    first = np.cumsum(degree) - degree

    def out_edges(times: np.ndarray, nodes: np.ndarray):
        """Every (event, out-edge) pair: event index, edge index, kernel rate."""
        deg = degree[nodes]
        parent = np.repeat(np.arange(nodes.size), deg)
        edge = first[nodes[parent]] + np.arange(parent.size) - np.repeat(np.cumsum(deg) - deg, deg)
        return parent, edge, decay[edge] + swing[edge] * np.sin(pace[edge] * times[parent])

    level, amp, freq, phase = _baselines(model)
    cap = np.array([b.cap() for b in model.baselines])
    # Immigrants: one Poisson total per node over all copies at the cap rate,
    # each event in a uniform copy, then thinned down to the baseline rate.
    nodes = np.repeat(np.arange(n), rng.poisson(cap * (duration * reps)))
    times = t0 + duration * rng.random(nodes.size)
    rep = rng.integers(reps, size=nodes.size)
    if np.any(amp):
        rate = level[nodes] + amp[nodes] * np.sin(freq[nodes] * times + phase[nodes])
        keep = rng.random(nodes.size) * cap[nodes] < rate
        times, nodes, rep = times[keep], nodes[keep], rep[keep]
    if history is not None:
        if np.any(history.times == t0):
            raise ValueError("history contains an event at exactly the split time")
        # The children the frozen past still has after t0, over all copies.
        past = history.times < t0
        parent, edge, rate = out_edges(history.times[past], history.nodes[past])
        age = t0 - history.times[past][parent]
        kids = rng.poisson(reps * weight[edge] * np.exp(-rate * age) / rate)
        edge, rate = np.repeat(edge, kids), np.repeat(rate, kids)
        times = np.concatenate((times, t0 + rng.standard_exponential(edge.size) / rate))
        nodes = np.concatenate((nodes, target[edge]))
        rep = np.concatenate((rep, rng.integers(reps, size=edge.size)))

    # One generation at a time: keep what falls in the window, then draw the
    # children of every kept event along each of its out-edges.
    generations = []
    while True:
        keep = times <= end
        times, nodes, rep = times[keep], nodes[keep], rep[keep]
        generations.append((times, nodes, rep))
        if not times.size:
            break
        parent, edge, rate = out_edges(times, nodes)
        kids = rng.poisson(weight[edge] / rate)
        parent, edge, rate = np.repeat(parent, kids), np.repeat(edge, kids), np.repeat(rate, kids)
        times = times[parent] + rng.standard_exponential(parent.size) / rate
        nodes = target[edge]
        rep = rep[parent]
    times, nodes, rep = (np.concatenate(part) for part in zip(*generations))
    return times, nodes, rep


def simulate(model: HawkesModel, horizon: float, seed: int) -> EventLog:
    """Sample one realization on [0, horizon].

    Identical (model, horizon, seed) inputs reproduce the log bit for bit.
    The caller is responsible for supplying a model that passes validation.
    """
    if not 0 < horizon < math.inf:  # NaN fails too
        raise ValueError("horizon must be positive and finite")
    times, nodes, _ = _cluster(model, 0.0, horizon, 1, np.random.default_rng(seed))
    return EventLog(n=model.n, horizon=horizon, times=times, nodes=nodes, seed=seed,
                    fingerprint=model.fingerprint())


def intensity(
    model: HawkesModel,
    log: EventLog,
    node: int,
    t: float,
    include_events_at_t: bool = False,
) -> float:
    """Conditional intensity of one node given the log, evaluated directly.

    By default this is the left limit: events at exactly t contribute
    nothing.  With ``include_events_at_t`` the value just after t is
    returned instead, which differs by the jump sizes of events at t.
    """
    if not 0 <= node < model.n:
        raise ValueError("node out of range")
    if not 0.0 <= t <= log.horizon:
        raise ValueError("evaluation time outside [0, horizon]")
    total = float(model.baseline(node).value(t))
    mask = log.times <= t if include_events_at_t else log.times < t
    times = log.times[mask]
    nodes = log.nodes[mask]
    for j in range(model.n):
        w = model.weight(node, j)
        if w == 0.0:
            continue
        s = times[nodes == j]
        if s.size == 0:
            continue
        spec = model.kernel(node, j)
        total += w * float(np.sum(np.exp(-np.asarray(spec.rate(s)) * (t - s))))
    return total


def max_intensity_trace(model: HawkesModel, log: EventLog) -> tuple[float, float]:
    """Supremum of the per-node intensity over the log's window.

    Probes t = 0 and the instant just after every event, where jumps put the
    local maxima, and a regular grid clamped to [0, horizon] when some
    baseline varies.  Between events excitation only decays, so with constant
    baselines no other time can be higher.  Returns (value, time) of the
    earliest probe that attains the maximum.
    """
    n = model.n
    level, amp, freq, phase = _baselines(model)
    source, target, weight, decay, swing, pace = _edges(model)
    # Sorted probe times; a repeated time is probed twice to the same value.
    probes = np.concatenate(([0.0], log.times))
    varying = bool(np.any(amp))
    if varying:
        grid = np.arange(0.0, log.horizon + _PEAK_GRID_STEP / 2, _PEAK_GRID_STEP)
        probes = np.sort(np.concatenate((probes, np.minimum(grid, log.horizon))))

    # Exponential edges, grouped by decay; carry[g, j] is the sum of
    # e^{-beta_g (b_prev - s)} over node j's events s in earlier blocks.
    exponential = swing == 0.0
    groups = [(float(beta), np.flatnonzero(exponential & (decay == beta)))
              for beta in np.unique(decay[exponential])]
    carry = np.zeros((len(groups), n))
    # Modulated edges: the source's events, their kernel rates, and how far
    # back a kernel value can still exceed 1e-12.
    modulated = []
    for e in np.flatnonzero(~exponential):
        past = log.times_of(source[e])
        rate = decay[e] + swing[e] * np.sin(pace[e] * past)
        reach = _PRUNE_LOG / (decay[e] - abs(swing[e]))
        modulated.append((target[e], weight[e], past, rate, reach))
    # A probe costs a block one value per node and one per modulated source
    # event within reach; a block spends at most _BLOCK_VALUES, and within it
    # e^{decay (t - b0)} stays at most e^{_BLOCK_EXPONENT}.
    cost = np.full(probes.size, n)
    for _, _, past, _, reach in modulated:
        cost += np.searchsorted(past, probes, side="right") - np.searchsorted(past, probes - reach)
    load = np.cumsum(cost)
    span = min([math.inf] + [_BLOCK_EXPONENT / beta for beta, _ in groups])

    best, best_t = -math.inf, 0.0
    p0 = e0 = 0
    b_prev = 0.0
    while p0 < probes.size:
        b0 = probes[p0]
        fits = np.searchsorted(load, load[p0] - cost[p0] + _BLOCK_VALUES, side="right")
        p1 = max(p0 + 1, min(fits, np.searchsorted(probes, b0 + span, side="right")))
        t = probes[p0:p1]
        # Every event time is a probe, so the block's events lie in [b0, t[-1]];
        # each counts from the first probe at its time on.
        e1 = int(np.searchsorted(log.times, t[-1], side="right"))
        times = log.times[e0:e1]
        cell = log.nodes[e0:e1] * t.size + np.searchsorted(t, times)
        lam = np.repeat(level[:, None], t.size, axis=1)  # node-major (n, probes)
        if varying:
            lam += amp[:, None] * np.sin(freq[:, None] * t + phase[:, None])
        for g, (beta, edges) in enumerate(groups):
            # A block without events would give int64 zeros, hence the cast.
            jumps = np.exp(beta * (times - b0))
            excited = np.bincount(cell, jumps, lam.size).astype(float, copy=False).reshape(n, -1)
            excited[:, 0] += carry[g] * math.exp(-beta * (b0 - b_prev))
            np.cumsum(excited, axis=1, out=excited)
            carry[g] = excited[:, -1]
            excited *= np.exp(-beta * (t - b0))
            for j, i, w in zip(source[edges], target[edges], weight[edges]):
                lam[i] += w * excited[j]
        for i, w, past, rate, reach in modulated:
            lo = np.searchsorted(past, t - reach)
            count = np.searchsorted(past, t, side="right") - lo
            probe = np.repeat(np.arange(t.size), count)
            k = np.arange(probe.size) + np.repeat(lo - (np.cumsum(count) - count), count)
            kernel = np.exp(-rate[k] * (t[probe] - past[k]))
            lam[i] += w * np.bincount(probe, kernel, minlength=t.size)
        top = lam.max(axis=0)
        peak = int(np.argmax(top))
        if top[peak] > best:
            best, best_t = float(top[peak]), float(t[peak])
        p0, e0, b_prev = p1, e1, b0
    return best, best_t


def child_seed(root: int, index: int) -> np.random.SeedSequence:
    """Deterministic per-task seed: child ``index`` of a root seed.

    The rule is SeedSequence(root, spawn_key=(index,)), so any worker can
    derive its own stream without coordination.
    """
    return np.random.SeedSequence(root, spawn_key=(index,))


# ---------------------------------------------------------------------------
# Event-log files: a header line followed by one "time node" record per line.
# Times are written with repr so reading the file back reproduces every
# float64 bit for bit.

def save_events(log: EventLog, path: str) -> None:
    with open(path, "w") as fh:
        seed = "none" if log.seed is None else str(log.seed)
        fp = log.fingerprint or "none"
        fh.write(f"# hawkesgraph-events n={log.n} horizon={log.horizon!r} seed={seed} model={fp}\n")
        for k in range(0, len(log), _SAVE_LINES):
            rows = zip(log.times[k:k + _SAVE_LINES].tolist(), log.nodes[k:k + _SAVE_LINES].tolist())
            fh.write("".join(f"{t!r} {u}\n" for t, u in rows))


def _header_fields(
    header: str, path: str, kind: str, required: tuple[str, ...]
) -> dict[str, str]:
    """The key=value tokens after the tag of a "# tag key=value ..." header
    line, which must hold every required key; errors name the path and the
    kind of file."""
    fields = {}
    for token in header.split()[2:]:
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(f"{path}: {kind} header token {token!r} is not key=value")
        fields[key] = value
    missing = [f for f in required if f not in fields]
    if missing:
        raise ValueError(f"{path}: {kind} header lacks the field {missing[0]!r}")
    return fields


def load_events(path: str) -> EventLog:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# hawkesgraph-events "):
            raise ValueError(f"{path} is not an event-log file")
        fields = _header_fields(header, path, "event-log", ("n", "horizon", "seed", "model"))
        body = fh.read()
    if body.strip():
        try:
            rows = np.loadtxt(io.StringIO(body), dtype=_EVENT_ROW, comments=None, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    else:
        rows = np.empty(0, dtype=_EVENT_ROW)
    times, nodes = rows["time"], rows["node"]
    if not _in_order(times, nodes):
        raise ValueError(f"{path} is not sorted by (time, node)")
    fp = None if fields["model"] == "none" else fields["model"]
    try:
        seed = None if fields["seed"] == "none" else int(fields["seed"])
        return EventLog(n=int(fields["n"]), horizon=float(fields["horizon"]), times=times,
                        nodes=nodes, seed=seed, fingerprint=fp)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
