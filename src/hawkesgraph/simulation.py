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

``IntensityTracker`` follows the intensity of one realization for the peak
trace: O(1) per event for exponential kernels via the usual recursive decay
state, while modulated kernels store their source events explicitly and drop
them once the kernel value falls below 1e-12.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .model import HawkesModel, KernelSpec

__all__ = [
    "Event",
    "EventLog",
    "simulate",
    "intensity",
    "max_intensity_trace",
    "save_events",
    "load_events",
    "child_seed",
]

_PRUNE_LOG = 27.631021115928547  # -log(1e-12)
_EVENT_ROW = np.dtype([("time", np.float64), ("node", np.int64)])  # one event-file line


class Event(NamedTuple):
    time: float
    node: int


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
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        nodes = np.ascontiguousarray(self.nodes, dtype=np.int64)
        if times.shape != nodes.shape or times.ndim != 1:
            raise ValueError("times and nodes must be matching 1-d arrays")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if times.size:
            if times.min() < 0 or times.max() > self.horizon:
                raise ValueError("event times must lie in [0, horizon]")
            if nodes.min() < 0 or nodes.max() >= self.n:
                raise ValueError("node indices out of range")
            order = np.lexsort((nodes, times))
            times = times[order]
            nodes = nodes[order]
        times.flags.writeable = False
        nodes.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "nodes", nodes)

    def __len__(self) -> int:
        return int(self.times.size)

    def __iter__(self) -> Iterator[Event]:
        for t, u in zip(self.times, self.nodes):
            yield Event(float(t), int(u))

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


class _ModulatedPair:
    """Explicit event store for one (target, source) pair with a modulated kernel."""

    __slots__ = ("weight", "spec", "times", "rates")

    def __init__(self, weight: float, spec: KernelSpec):
        self.weight = weight
        self.spec = spec
        self.times: list[float] = []
        self.rates: list[float] = []

    def add(self, t: float) -> None:
        self.times.append(t)
        self.rates.append(float(self.spec.rate(t)))

    def value(self, t: float) -> float:
        if not self.times:
            return 0.0
        total = 0.0
        keep_from = 0
        for k, (s, r) in enumerate(zip(self.times, self.rates)):
            x = r * (t - s)
            if x > _PRUNE_LOG:
                keep_from = k + 1
                continue
            total += math.exp(-x)
        if keep_from:
            del self.times[:keep_from]
            del self.rates[:keep_from]
        return self.weight * total


class IntensityTracker:
    """Running intensity state for one realization.

    Exponential pairs share flat arrays so one vectorized decay step advances
    everything.  ``now`` is the time the state currently describes; queries
    must not go backwards.
    """

    def __init__(self, model: HawkesModel):
        self.model = model
        n = model.n
        b = model.baselines
        self._levels = np.array([s.level for s in b])
        self._amps = np.array([s.amplitude if s.family == "sinusoidal" else 0.0 for s in b])
        self._freqs = np.array([s.frequency for s in b])
        self._phases = np.array([s.phase for s in b])
        self.all_constant = bool(np.all(self._amps == 0.0))

        tgt, wts, betas = [], [], []
        by_source: list[list[int]] = [[] for _ in range(n)]
        self._modulated: list[_ModulatedPair] = []
        self._mod_target: list[int] = []
        mod_by_source: list[list[int]] = [[] for _ in range(n)]
        for (i, j), w in sorted(model.weights.items()):
            if w == 0.0:
                continue
            spec = model.kernel(i, j)
            if spec.family == "exponential":
                by_source[j].append(len(tgt))
                tgt.append(i)
                wts.append(w)
                betas.append(spec.decay)
            else:
                mod_by_source[j].append(len(self._modulated))
                self._mod_target.append(i)
                self._modulated.append(_ModulatedPair(w, spec))
        self._tgt = np.array(tgt, dtype=np.int64)
        self._w = np.array(wts)
        self._beta = np.array(betas)
        self._val = np.zeros(len(tgt))
        self._by_source = [np.array(ix, dtype=np.int64) for ix in by_source]
        self._mod_by_source = mod_by_source
        self._no_excitation = not tgt and not self._modulated
        self._zero = np.zeros(n)
        self._zero.flags.writeable = False
        self.now = 0.0

    def baselines_at(self, t: float) -> np.ndarray:
        if self.all_constant:
            return self._levels
        return self._levels + self._amps * np.sin(self._freqs * t + self._phases)

    def advance(self, t: float) -> None:
        if t < self.now:
            raise ValueError("tracker cannot move backwards")
        if t > self.now:
            if self._val.size:
                self._val *= np.exp(-self._beta * (t - self.now))
            self.now = t

    def excitation_at_now(self) -> np.ndarray:
        if self._no_excitation:
            return self._zero
        exc = np.zeros(self.model.n)
        if self._val.size:
            np.add.at(exc, self._tgt, self._w * self._val)
        for i, pair in zip(self._mod_target, self._modulated):
            exc[i] += pair.value(self.now)
        return exc

    def add_event(self, t: float, node: int) -> None:
        """Record an event; the tracker must already sit at time t."""
        self.advance(t)
        ix = self._by_source[node]
        if ix.size:
            self._val[ix] += 1.0
        for k in self._mod_by_source[node]:
            self._modulated[k].add(t)


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
    # Out-edges (source j -> target i) grouped by source, with their kernels.
    pairs = sorted((j, i) for (i, j), w in model.weights.items() if w > 0)
    source = np.array([j for j, _ in pairs], dtype=np.int64)
    target = np.array([i for _, i in pairs], dtype=np.int64)
    weight = np.array([model.weight(i, j) for j, i in pairs])
    kernels = [model.kernel(i, j) for j, i in pairs]
    decay = np.array([k.decay for k in kernels])
    swing = np.array([k.decay_amplitude if k.family == "modulated" else 0.0 for k in kernels])
    pace = np.array([k.decay_frequency for k in kernels])
    degree = np.bincount(source, minlength=n)
    first = np.cumsum(degree) - degree

    def out_edges(times: np.ndarray, nodes: np.ndarray):
        """Every (event, out-edge) pair: event index, edge index, kernel rate."""
        deg = degree[nodes]
        parent = np.repeat(np.arange(nodes.size), deg)
        edge = first[nodes[parent]] + np.arange(parent.size) - np.repeat(np.cumsum(deg) - deg, deg)
        return parent, edge, decay[edge] + swing[edge] * np.sin(pace[edge] * times[parent])

    base = model.baselines
    level = np.array([b.level for b in base])
    amp = np.array([b.amplitude if b.family == "sinusoidal" else 0.0 for b in base])
    freq = np.array([b.frequency for b in base])
    phase = np.array([b.phase for b in base])
    cap = np.array([b.cap() for b in base])
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
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    times, nodes, _ = _cluster(model, 0.0, horizon, 1, np.random.default_rng(seed))
    return EventLog(
        n=model.n,
        horizon=horizon,
        times=times,
        nodes=nodes,
        seed=seed,
        fingerprint=model.fingerprint(),
    )


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


def max_intensity_trace(
    model: HawkesModel,
    log: EventLog,
    grid_step: float = 0.05,
) -> tuple[float, float]:
    """Supremum of the per-node intensity over the log's window.

    Scans the union of a regular grid and the instant just after every
    event, where jumps put the local maxima.  Returns (value, time).
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    tracker = IntensityTracker(model)
    grid = np.arange(0.0, log.horizon + grid_step / 2, grid_step)
    gi = 0
    best, best_t = -math.inf, 0.0

    def probe(t: float) -> None:
        nonlocal best, best_t
        lam = tracker.baselines_at(t) + tracker.excitation_at_now()
        top = float(np.max(lam))
        if top > best:
            best, best_t = top, t

    for s, u in zip(log.times, log.nodes):
        s = float(s)
        while gi < len(grid) and grid[gi] < s:
            tracker.advance(float(grid[gi]))
            probe(float(grid[gi]))
            gi += 1
        tracker.add_event(s, int(u))
        probe(s)
    while gi < len(grid):
        tracker.advance(float(grid[gi]))
        probe(float(grid[gi]))
        gi += 1
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
        for t, u in zip(log.times, log.nodes):
            fh.write(f"{float(t)!r} {int(u)}\n")


def load_events(path: str) -> EventLog:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# hawkesgraph-events "):
            raise ValueError(f"{path} is not an event-log file")
        fields = dict(part.split("=", 1) for part in header[2:].split()[1:])
        missing = [f for f in ("n", "horizon", "seed", "model") if f not in fields]
        if missing:
            raise ValueError(f"{path}: event-log header lacks the field {missing[0]!r}")
        body = fh.read()
    if body.strip():
        try:
            rows = np.loadtxt(io.StringIO(body), dtype=_EVENT_ROW, comments=None, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    else:
        rows = np.empty(0, dtype=_EVENT_ROW)
    times, nodes = rows["time"], rows["node"]
    step = np.diff(times)
    if np.any((step < 0) | ((step == 0) & (np.diff(nodes) < 0))):
        raise ValueError(f"{path} is not sorted by (time, node)")
    seed = None if fields["seed"] == "none" else int(fields["seed"])
    fp = None if fields["model"] == "none" else fields["model"]
    return EventLog(
        n=int(fields["n"]),
        horizon=float(fields["horizon"]),
        times=times,
        nodes=nodes,
        seed=seed,
        fingerprint=fp,
    )
