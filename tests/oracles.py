"""Independent reference implementations the tests check the package against.

Everything here recomputes results from raw timestamps with straightforward
loops and textbook formulas, sharing no code with the package beyond the
public data types and the direct intensity sum ``intensity``.
"""

import math

import numpy as np
from scipy.linalg import expm

from hawkesgraph import BaselineSpec, EventLog, HawkesModel, KernelSpec, ModelConstants, intensity


def naive_pair_stats(log: EventLog, i: int, j: int, epsilon: float):
    """Recount the window statistics for one ordered pair from timestamps.

    Bins are located by bisection against explicit bin edges rather than by
    division, exercising the same half-open convention through different
    arithmetic.  Returns (pair_sum, triple_sum, windows).
    """
    q = log.horizon / epsilon
    nb = int(math.floor(q))
    if q - math.floor(q) >= 1e-9 * max(q, 1.0):
        nb += 1
    nb = max(nb, 1)
    inner_edges = np.arange(1, nb) * epsilon
    counts = np.zeros((log.n, nb), dtype=int)
    for t, u in zip(log.times, log.nodes):
        counts[u, int(np.searchsorted(inner_edges, t, side="right"))] += 1

    qw = log.horizon / (3.0 * epsilon)
    windows = int(math.floor(qw))
    if windows + 1 - qw < 1e-9 * max(qw, 1.0):
        windows += 1
    windows = min(windows, nb // 3)

    d1 = d2 = 0
    for a in range(0, 3 * windows, 3):
        i0, i1, i2 = (counts[i, a + b] == 1 for b in range(3))
        j0, j1, j2 = (counts[j, a + b] == 1 for b in range(3))
        d1 += int(i0 and j1) - int(j0 and i1)
        d2 += int(i0 and i1 and j2) - 2 * int(i0 and j1 and i2) + int(j0 and i1 and i2)
    return d1, d2, windows


def reference_calibration(
    log: EventLog,
    epsilon: float,
    n_surrogates: int,
    quantile: float,
    seed: int,
    use_triples: bool,
) -> float:
    """Surrogate threshold recomputed one pair at a time from timestamps.

    Surrogate k circularly shifts node k % n by a uniform offset drawn from
    default_rng(seed), builds the whole shifted log, and recounts both
    orderings of every pair involving that node with naive_pair_stats.
    Scores are |pair_sum| / (T * eps) plus, with triples, |triple_sum| /
    (T * eps^2); a pair's null score is the larger of its two orderings, and
    the threshold is the pooled quantile of those.
    """
    rng = np.random.default_rng(seed)
    t_eps = log.horizon * epsilon
    scores = []
    for k in range(n_surrogates):
        node = k % log.n
        offset = rng.uniform(0.0, log.horizon)
        times = np.array(log.times)
        sel = log.nodes == node
        times[sel] = np.mod(times[sel] + offset, log.horizon)
        shifted = EventLog(n=log.n, horizon=log.horizon, times=times, nodes=log.nodes)
        for other in range(log.n):
            if other == node:
                continue
            both = []
            for i, j in ((node, other), (other, node)):
                d1, d2, _ = naive_pair_stats(shifted, i, j, epsilon)
                score = abs(d1) / t_eps
                if use_triples:
                    score += abs(d2) / (t_eps * epsilon)
                both.append(score)
            scores.append(max(both))
    return float(np.quantile(np.array(scores), quantile))


def reference_weight_bounds(model: HawkesModel) -> tuple[float, str]:
    """(margin, worst) of the weight-bounds check from a loop over every
    ordered pair: per target i its self-weight, then per source j != i the
    floor and cap margins of a nonzero weight and the self gap.  A margin
    replaces the worst only when strictly smaller, so the first of equal
    margins names the worst, and a NaN margin never does."""
    c = model.constants
    worst_margin, worst_where = math.inf, "none"
    for i in range(model.n):
        w_self = model.weight(i, i)
        candidates = [(w_self, f"self-weight ({i},{i})" if w_self <= 0
                       else f"self-weight ({i},{i}) positivity")]
        for j in range(model.n):
            if j == i:
                continue
            w = model.weight(i, j)
            if w > 0:
                candidates.append((w - c.weight_floor, f"({i},{j}) below weight floor"))
                candidates.append((c.weight_cap - w, f"({i},{j}) above weight cap"))
            candidates.append((w_self - w - c.self_gap, f"self gap at ({i},{j})"))
        for margin, where in candidates:
            if margin < worst_margin:
                worst_margin, worst_where = margin, where
    return worst_margin, worst_where


def _baseline_integral(spec: BaselineSpec, a: float, b: float) -> float:
    """Integral of the baseline rate over [a, b], in closed form."""
    if spec.family == "constant":
        return spec.level * (b - a)
    if spec.frequency == 0.0:
        return (spec.level + spec.amplitude * math.sin(spec.phase)) * (b - a)
    swing = math.cos(spec.frequency * a + spec.phase) - math.cos(spec.frequency * b + spec.phase)
    return spec.level * (b - a) + spec.amplitude / spec.frequency * swing


def rescaled_waits(model: HawkesModel, times, nodes, node: int, t0: float = 0.0) -> np.ndarray:
    """Compensator increments between the events of one node after t0.

    The compensator counts from t0:
        Lambda(t) = int_t0^t mu(u) du
                    + sum_{s < t} w (e^{-r(s)(m - s)} - e^{-r(s)(t - s)}) / r(s),
    with m = max(s, t0), w the weight of the event's node on ``node`` and
    r(s) its kernel rate at the event time (constant for exponential
    kernels), so events before t0 enter as a frozen history.  Under the
    model the increments are iid Exp(1).  The decaying part of the sum
    skips events with r (t - s) > 60, whose terms are below e^-60 of their
    mass.
    """
    times = np.asarray(times, dtype=float)
    nodes = np.asarray(nodes)
    order = np.argsort(times, kind="stable")
    times, nodes = times[order], nodes[order]
    weight = np.zeros(times.size)
    rate = np.ones(times.size)
    for j in range(model.n):
        sel = nodes == j
        if model.weight(node, j) > 0 and np.any(sel):
            weight[sel] = model.weight(node, j)
            rate[sel] = model.kernel(node, j).rate(times[sel])
    # e^{-r(s)(t - s)} = scale(s) e^{-r(s)(t - m)}, scale(s) = e^{-r(s)(m - s)}
    scale = np.exp(-rate * (np.maximum(times, t0) - times))
    mass = weight * scale / rate
    reach = 60.0 / min(spec.rate_floor() for spec in model.distinct_kernels)
    total_mass = np.concatenate(([0.0], np.cumsum(mass)))
    values = []
    for t in times[(nodes == node) & (times > t0)]:
        hi = int(np.searchsorted(times, t, side="left"))  # events strictly before t
        lo = int(np.searchsorted(times, t - reach, side="left"))
        recent = slice(lo, hi)
        left = np.sum(mass[recent] * np.exp(-rate[recent] * (t - np.maximum(times[recent], t0))))
        values.append(_baseline_integral(model.baseline(node), t0, t) + total_mass[hi] - left)
    return np.diff(np.array(values), prepend=0.0)


def expected_count(model: HawkesModel, duration: float, excitation=None) -> np.ndarray:
    """Exact per-node mean count on [t0, t0 + duration] for constant
    baselines and exponential kernels with one shared decay beta.

    With x_j(t) = sum over node-j events s < t of e^{-beta (t - s)}, the mean
    of x solves x' = mu + (W - beta I) x from x(t0) = ``excitation`` (zero
    for an empty history), and the mean count is mu * duration plus W times
    the integral of x.  Both come from one matrix exponential of the
    augmented linear system (x, integral of x, 1).
    """
    assert all(b.family == "constant" for b in model.baselines)
    (kernel,) = model.distinct_kernels
    assert kernel.family == "exponential"
    n = model.n
    mu = np.array([b.level for b in model.baselines])
    weights = np.asarray(model.weight_matrix)
    system = np.zeros((2 * n + 1, 2 * n + 1))
    system[:n, :n] = weights - kernel.decay * np.eye(n)
    system[:n, -1] = mu
    system[n:2 * n, :n] = np.eye(n)
    start = np.zeros(2 * n + 1)
    start[-1] = 1.0
    if excitation is not None:
        start[:n] = excitation
    state = expm(system * duration) @ start
    return mu * duration + weights @ state[n:2 * n]


def mean_count(model: HawkesModel, horizon: float, step: float = 1e-3) -> np.ndarray:
    """Per-node mean count on [0, horizon] from an empty history, for any
    baselines and kernels, by solving the first-moment equation
        m_i(t) = mu_i(t) + sum_j w_ij int_0^t e^{-r_ij(s)(t - s)} m_j(s) ds
    for the mean intensity m on a grid of the given step with the trapezoid
    rule, and integrating m the same way.  The error is O(step^2).
    """
    grid = np.linspace(0.0, horizon, int(round(horizon / step)) + 1)
    h = grid[1] - grid[0]
    n = model.n
    weights = np.asarray(model.weight_matrix)
    pairs = [(i, j) for i in range(n) for j in range(n) if weights[i, j] > 0]
    rates = {(i, j): np.asarray(model.kernel(i, j).rate(grid)) for i, j in pairs}
    m = np.zeros((grid.size, n))
    solve = np.linalg.inv(np.eye(n) - 0.5 * h * weights)
    for k, t in enumerate(grid):
        rhs = np.array([float(model.baseline(i).value(t)) for i in range(n)])
        for i, j in pairs:
            past = m[:k, j] * np.exp(-rates[(i, j)][:k] * (t - grid[:k]))
            if k:
                past[0] *= 0.5
            rhs[i] += weights[i, j] * h * past.sum()
        m[k] = solve @ rhs
    return h * (m.sum(axis=0) - 0.5 * (m[0] + m[-1]))


def reference_peak(model: HawkesModel, log: EventLog, grid_step: float = 0.05) -> float:
    """Largest per-node intensity over the probes of a peak trace: the
    regular grid and the instant just after every event, each evaluated
    directly with ``intensity(..., include_events_at_t=True)``."""
    grid = np.minimum(np.arange(0.0, log.horizon + grid_step / 2, grid_step), log.horizon)
    probes = np.concatenate((grid, log.times))
    return max(
        intensity(model, log, v, float(t), include_events_at_t=True)
        for t in probes
        for v in range(model.n)
    )


def poisson_pair_prob(epsilon: float, mu: float) -> float:
    """P(exactly one event in each of two bins) for a unit-independent pair."""
    one_bin = epsilon * mu * math.exp(-epsilon * mu)
    return one_bin * one_bin


def excited_pair_prob(epsilon: float, w: float, beta: float = 1.0) -> float:
    """Exact pattern-ij probability for the two-node chain with unit
    baselines: node 0 is a unit Poisson process and each of its events lifts
    node 1's rate by w * exp(-beta * dt).

    Conditioning on the single node-0 event time reduces the expectation to
    a one-dimensional integral, evaluated by quadrature.
    """
    from scipy.integrate import quad

    def integrand(s: float) -> float:
        m = epsilon + w * (math.exp(-beta * (epsilon - s)) - math.exp(-beta * (2 * epsilon - s))) / beta
        return m * math.exp(-m)

    val, _ = quad(integrand, 0.0, epsilon, epsabs=1e-14)
    return math.exp(-epsilon) * val


def plain_constants(**overrides) -> ModelConstants:
    base = dict(
        baseline_floor=0.5,
        baseline_cap=2.0,
        weight_floor=0.05,
        weight_cap=1.5,
        self_gap=0.05,
        log_slope_bound=5.0,
        kernel_mass_bound=2.0,
        stability_slack=0.05,
        max_degree=4,
    )
    base.update(overrides)
    return ModelConstants(**base)


def build_model(
    n: int,
    weights: dict,
    level: float = 1.0,
    decay: float = 1.0,
    baselines: tuple = (),
    **const_overrides,
) -> HawkesModel:
    """Shorthand for the hand-built models the tests use everywhere."""
    if not baselines:
        baselines = tuple(BaselineSpec(family="constant", level=level) for _ in range(n))
    return HawkesModel(
        n=n,
        weights=weights,
        baselines=baselines,
        default_kernel=KernelSpec(family="exponential", decay=decay),
        constants=plain_constants(**const_overrides),
    )
