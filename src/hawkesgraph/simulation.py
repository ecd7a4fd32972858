"""Exact simulation of the point process by thinning.

The sampler draws candidate times from a piecewise-constant dominating rate
B = (sum of current baselines) * exp(L * lookahead) + (current excitation),
which is an upper bound for the total intensity until the next event or the
end of the lookahead window: baselines can grow at log-slope at most L and
excitation only decays between events.  B is refreshed after every candidate
and whenever the window expires.  When every baseline is constant the growth
factor is 1 and the window covers the remaining horizon.

Excitation bookkeeping is O(1) per event for exponential kernels via the
usual recursive decay state.  Modulated kernels store their source events
explicitly and drop them once the kernel value falls below 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .model import HawkesModel, KernelSpec

__all__ = [
    "Event",
    "EventLog",
    "DominatingRateError",
    "simulate",
    "intensity",
    "max_intensity_trace",
    "save_events",
    "load_events",
    "child_seed",
]

_PRUNE_LOG = 27.631021115928547  # -log(1e-12)


class Event(NamedTuple):
    time: float
    node: int


class DominatingRateError(RuntimeError):
    """Total intensity exceeded the dominating rate during thinning.

    This indicates a model whose declared log-slope bound is too small for
    its actual baselines.
    """


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

    def copy(self) -> "_ModulatedPair":
        other = _ModulatedPair(self.weight, self.spec)
        other.times = list(self.times)
        other.rates = list(self.rates)
        return other


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

    def copy(self) -> "IntensityTracker":
        other = object.__new__(IntensityTracker)
        other.model = self.model
        other._levels = self._levels
        other._amps = self._amps
        other._freqs = self._freqs
        other._phases = self._phases
        other.all_constant = self.all_constant
        other._tgt = self._tgt
        other._w = self._w
        other._beta = self._beta
        other._val = self._val.copy()
        other._by_source = self._by_source
        other._mod_target = self._mod_target
        other._modulated = [p.copy() for p in self._modulated]
        other._mod_by_source = self._mod_by_source
        other._no_excitation = self._no_excitation
        other._zero = self._zero
        other.now = self.now
        return other

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

    def intensities(self, t: float) -> np.ndarray:
        """Advance to t and return the intensity vector (left limit at t)."""
        self.advance(t)
        return self.baselines_at(t) + self.excitation_at_now()

    def add_event(self, t: float, node: int) -> None:
        """Record an event; the tracker must already sit at time t."""
        self.advance(t)
        ix = self._by_source[node]
        if ix.size:
            self._val[ix] += 1.0
        for k in self._mod_by_source[node]:
            self._modulated[k].add(t)


def _thin(
    model: HawkesModel,
    tracker: IntensityTracker,
    rng: np.random.Generator,
    t_end: float,
    lookahead: float,
    out_times: list[float],
    out_nodes: list[int],
) -> None:
    """Run the thinning loop from tracker.now to t_end, appending events."""
    n = model.n
    slope = model.constants.log_slope_bound
    all_const = tracker.all_constant
    no_exc = tracker._no_excitation
    # Constant baselines and absent excitation cover the hot paths; both sums
    # are loop-invariant there and the per-candidate numpy traffic matters.
    static_mu = float(np.sum(tracker.baselines_at(0.0))) if all_const else 0.0
    t = tracker.now
    while t < t_end:
        if all_const:
            window_end = t_end
            growth = 1.0
        else:
            window_end = min(t + lookahead, t_end)
            growth = math.exp(slope * (window_end - t))
        tracker.advance(t)
        mu_total = static_mu if all_const else float(np.sum(tracker.baselines_at(t)))
        exc_total = 0.0 if no_exc else float(np.sum(tracker.excitation_at_now()))
        bound = mu_total * growth + exc_total
        wait = rng.exponential(1.0 / bound)
        cand = t + wait
        if cand >= window_end:
            t = window_end
            continue
        lam = tracker.intensities(cand)
        lam_total = float(lam.sum())
        ratio = lam_total / bound
        if not 0.0 <= ratio <= 1.0 + 1e-9:
            raise DominatingRateError(
                f"intensity {lam_total:.6g} exceeded dominating rate {bound:.6g} "
                f"at t={cand:.6g} (window start {t:.6g}); the declared "
                f"log-slope bound {slope:.6g} is too small for this model"
            )
        if rng.random() < ratio:
            draw = rng.random() * lam_total
            acc = 0.0
            node = n - 1
            for k in range(n):
                acc += lam[k]
                if draw < acc:
                    node = k
                    break
            tracker.add_event(cand, node)
            out_times.append(cand)
            out_nodes.append(node)
        t = cand


def simulate(
    model: HawkesModel,
    horizon: float,
    seed: int,
    lookahead: float = 0.1,
) -> EventLog:
    """Sample one realization on [0, horizon].

    Identical (model, horizon, seed, lookahead) inputs reproduce the log
    bit for bit.  The caller is responsible for supplying a model that
    passes validation; the dominating-rate check aborts with a diagnostic
    if the declared smoothness bound is violated along the way.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if lookahead <= 0:
        raise ValueError("lookahead must be positive")
    rng = np.random.default_rng(seed)
    tracker = IntensityTracker(model)
    times: list[float] = []
    nodes: list[int] = []
    _thin(model, tracker, rng, horizon, lookahead, times, nodes)
    return EventLog(
        n=model.n,
        horizon=horizon,
        times=np.array(times),
        nodes=np.array(nodes, dtype=np.int64),
        seed=seed,
        fingerprint=model.fingerprint(),
    )


def build_tracker(model: HawkesModel, log: EventLog, t: float) -> IntensityTracker:
    """Tracker positioned at time t with all events strictly before t applied.

    An event at exactly t is rejected: it would belong to whatever happens
    after t, not to the frozen history.
    """
    if np.any(log.times == t):
        raise ValueError("history contains an event at exactly the split time")
    tracker = IntensityTracker(model)
    for s, u in zip(log.times, log.nodes):
        if s >= t:
            break
        tracker.add_event(float(s), int(u))
    tracker.advance(t)
    return tracker


def simulate_continuation(
    model: HawkesModel,
    tracker: IntensityTracker,
    duration: float,
    rng: np.random.Generator,
    lookahead: float = 0.1,
) -> tuple[list[float], list[int]]:
    """Extend one frozen history by ``duration``; returns the new events only.

    The tracker is consumed (advanced past the window); copy it first when
    running repeated continuations from the same state.
    """
    times: list[float] = []
    nodes: list[int] = []
    _thin(model, tracker, rng, tracker.now + duration, lookahead, times, nodes)
    return times, nodes


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
        times: list[float] = []
        nodes: list[int] = []
        prev = (-math.inf, -1)
        for line in fh:
            if not line.strip():
                continue
            t_str, u_str = line.split()
            t, u = float(t_str), int(u_str)
            if (t, u) < prev:
                raise ValueError(f"{path} is not sorted by (time, node)")
            prev = (t, u)
            times.append(t)
            nodes.append(u)
    seed = None if fields["seed"] == "none" else int(fields["seed"])
    fp = None if fields["model"] == "none" else fields["model"]
    return EventLog(
        n=int(fields["n"]),
        horizon=float(fields["horizon"]),
        times=np.array(times),
        nodes=np.array(nodes, dtype=np.int64),
        seed=seed,
        fingerprint=fp,
    )
