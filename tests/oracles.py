"""Independent reference implementations the tests check the package against.

Everything here recomputes results from raw timestamps with straightforward
loops and textbook formulas, sharing no code with the package beyond the
public data types.
"""

import math

import numpy as np

from hawkesgraph import BaselineSpec, EventLog, HawkesModel, KernelSpec, ModelConstants


def naive_pair_stats(log: EventLog, i: int, j: int, epsilon: float, stride_bins: int = 3):
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
    usable = 3 * windows
    if stride_bins == 3:
        anchors = range(0, usable, 3)
    else:
        anchors = range(0, max(usable - 2, 0), stride_bins)

    d1 = d2 = k = 0
    for a in anchors:
        k += 1
        i0, i1, i2 = (counts[i, a + b] == 1 for b in range(3))
        j0, j1, j2 = (counts[j, a + b] == 1 for b in range(3))
        d1 += int(i0 and j1) - int(j0 and i1)
        d2 += int(i0 and i1 and j2) - 2 * int(i0 and j1 and i2) + int(j0 and i1 and i2)
    return d1, d2, k


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
    (T * eps^2); the threshold is their pooled quantile.
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
            for i, j in ((node, other), (other, node)):
                d1, d2, _ = naive_pair_stats(shifted, i, j, epsilon)
                score = abs(d1) / t_eps
                if use_triples:
                    score += abs(d2) / (t_eps * epsilon)
                scores.append(score)
    return float(np.quantile(np.array(scores), quantile))


def rescaled_waits(times: np.ndarray, mu: float, w: float, beta: float) -> np.ndarray:
    """Compensator increments between events of a single self-exciting node.

    Under the model these are iid Exp(1); the running exponential sum keeps
    the computation linear in the event count.
    """
    decayed = 0.0
    values = np.empty(len(times))
    for k, t in enumerate(times):
        if k:
            decayed = (decayed + 1.0) * math.exp(-beta * (t - times[k - 1]))
        values[k] = mu * t + (w / beta) * (k - decayed)
    return np.diff(values, prepend=0.0)


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
