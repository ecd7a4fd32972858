"""Event logs for the detect-wide workload, sampled without hawkesgraph.

The logs come from a short numpy sampler of the Poisson-cluster
representation of a linear Hawkes process with exponential kernels
(Hawkes & Oakes 1974): immigrants arrive on node i at constant rate mu_i,
and every event on node j has Poisson(W[i, j] / beta) children on node i,
each after an Exp(beta) delay.  Keeping the sampler here means a change to
the package's simulator or to its random-number stream cannot change the
detect-wide inputs.

Run ``python3 bench/inputs.py`` for the self-test: mean counts per node
over repeated logs must match the exact mean from an empty history, which
grows at the stationary rate (I - W/beta)^-1 mu.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm


@dataclass(frozen=True)
class ClusterModel:
    """Constant baselines ``mu``, weights ``weights[i, j]`` (target i, source
    j) and one exponential decay ``beta`` shared by every pair."""

    mu: np.ndarray
    weights: np.ndarray
    beta: float

    @property
    def n(self) -> int:
        return self.mu.size

    def branching(self) -> np.ndarray:
        """Mean number of node-i children of one node-j event: W / beta."""
        return self.weights / self.beta

    def stationary_rate(self) -> np.ndarray:
        """Per-node event rate (I - W/beta)^-1 mu."""
        return np.linalg.solve(np.eye(self.n) - self.branching(), self.mu)

    def expected_count(self, horizon: float) -> np.ndarray:
        """Exact per-node mean count on [0, horizon] from an empty history.

        With y(t) the kernel-weighted past, y' = mu + (W - beta I) y and
        y(0) = 0; the mean count is mu T + W Y(T) with Y' = y.  Both come
        from one matrix exponential of the augmented linear system.
        """
        n = self.n
        system = np.zeros((2 * n + 1, 2 * n + 1))
        system[:n, :n] = self.weights - self.beta * np.eye(n)
        system[:n, -1] = self.mu
        system[n:2 * n, :n] = np.eye(n)
        state = expm(system * horizon)[:, -1]
        return self.mu * horizon + self.weights @ state[n:2 * n]

    def count_covariance(self, horizon: float) -> np.ndarray:
        """Long-horizon covariance of the per-node counts on [0, horizon]:
        T (I - K)^-1 diag(rate) (I - K)^-T with K = W / beta."""
        inv = np.linalg.inv(np.eye(self.n) - self.branching())
        return horizon * inv @ np.diag(self.stationary_rate()) @ inv.T


def chain_model(chains: int, length: int, mu: float, self_weight: float,
                cross_weight: float, beta: float) -> ClusterModel:
    """Disjoint chains: node base+k+1 is excited by node base+k."""
    n = chains * length
    weights = np.diag(np.full(n, self_weight))
    for base in range(0, n, length):
        for k in range(length - 1):
            weights[base + k + 1, base + k] = cross_weight
    return ClusterModel(mu=np.full(n, mu), weights=weights, beta=beta)


def sample(model: ClusterModel, horizon: float, rng: np.random.Generator
           ) -> tuple[np.ndarray, np.ndarray]:
    """One realization on [0, horizon] as (times, nodes), unsorted.

    One generation at a time: each event's children are expanded along its
    node's out-edges with a single vectorized Poisson draw.
    """
    n = model.n
    targets, sources = np.nonzero(model.weights)
    order = np.argsort(sources, kind="stable")
    targets, sources = targets[order], sources[order]
    means = model.branching()[targets, sources]
    out_degree = np.bincount(sources, minlength=n)
    first_edge = np.concatenate(([0], np.cumsum(out_degree)[:-1]))

    counts = rng.poisson(model.mu * horizon)
    nodes = np.repeat(np.arange(n), counts)
    times = rng.uniform(0.0, horizon, size=nodes.size)
    all_times, all_nodes = [times], [nodes]
    while nodes.size:
        degree = out_degree[nodes]
        parent = np.repeat(np.arange(nodes.size), degree)
        offset = np.arange(parent.size) - np.repeat(np.cumsum(degree) - degree, degree)
        edge = first_edge[nodes[parent]] + offset
        kids = rng.poisson(means[edge])
        edge = np.repeat(edge, kids)
        times = np.repeat(times[parent], kids) + rng.exponential(1.0 / model.beta, edge.size)
        nodes = targets[edge]
        keep = times <= horizon
        times, nodes = times[keep], nodes[keep]
        all_times.append(times)
        all_nodes.append(nodes)
    return np.concatenate(all_times), np.concatenate(all_nodes)


# detect-wide: twenty 5-chains over n = 100 nodes.  Row masses are 0.3 at
# chain heads and 0.5 elsewhere, and mu is set for about 21k events.  The
# horizon keeps one op near a second, so a run holds enough ops for a
# steady median.
DETECT_MODEL = chain_model(chains=20, length=5, mu=1.13, self_weight=0.6,
                           cross_weight=0.4, beta=2.0)
DETECT_HORIZON = 100.0


def count_zscores(model: ClusterModel, horizon: float, counts: np.ndarray) -> np.ndarray:
    """Per-node z-scores of mean counts (shape (reps, n)) against the exact
    mean from an empty history, using the long-horizon count variance."""
    reps = counts.shape[0]
    sd = np.sqrt(np.diag(model.count_covariance(horizon)) / reps)
    return (counts.mean(axis=0) - model.expected_count(horizon)) / sd


def self_test(reps: int = 20, seed: int = 20260117) -> bool:
    """Check mean counts per node of the detect-wide model at |z| <= 4.5.

    The bound covers 100 nodes with a family-wise false-alarm chance under
    1e-3.  The exact mean from an empty history falls short of the
    stationary mean (I - W/beta)^-1 mu T by a fixed number of events per
    node, so the self-test also checks that the shortfall is the same at
    T and at 10 T: the exact mean grows at the stationary rate.
    """
    model, horizon = DETECT_MODEL, DETECT_HORIZON
    rng = np.random.default_rng(seed)
    counts = np.array([
        np.bincount(sample(model, horizon, rng)[1], minlength=model.n)
        for _ in range(reps)
    ])
    z = count_zscores(model, horizon, counts)
    expected = model.expected_count(horizon).sum()
    total_z = float((counts.sum(axis=1).mean() - expected)
                    / np.sqrt(model.count_covariance(horizon).sum() / reps))
    shortfall = [model.stationary_rate() * t - model.expected_count(t)
                 for t in (horizon, 10.0 * horizon)]
    converged = bool(np.allclose(shortfall[0], shortfall[1], rtol=1e-6, atol=1e-6))
    worst = int(np.argmax(np.abs(z)))
    print(f"{reps} logs of {model.n} nodes over T={horizon}: "
          f"mean events {counts.sum(axis=1).mean():.1f}, expected {expected:.1f} "
          f"(stationary {model.stationary_rate().sum() * horizon:.1f}, "
          f"shortfall converged: {converged}); "
          f"total z {total_z:+.2f}, worst node {worst} at z {z[worst]:+.2f}")
    return bool(np.all(np.abs(z) <= 4.5) and abs(total_z) <= 4.0 and converged)


if __name__ == "__main__":
    ok = self_test()
    print("self-test", "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)
