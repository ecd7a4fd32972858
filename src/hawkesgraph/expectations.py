"""Closed-form event-pattern expectations and their Monte Carlo checks.

For a frozen history up to time t, the chance that designated nodes fire
exactly once each in consecutive width-eps bins factorizes, to leading
order, into a product over the bins: each factor is the node's intensity at
t plus the jumps contributed by the pattern's earlier bins.  The functions
here expose those products (``predicted_pair``, ``predicted_triple``, the
general ``predicted_pattern``) and estimate the true indicator expectations
by simulating many continuations of the history (``mc_indicator``,
``mc_delta_drift``).

The continuations come from the simulator's Poisson-cluster sampler, which
draws a chunk of up to a million of them as one set of flat arrays.  Only
the pair's two nodes are binned, with the half-open rule of ``stats``, so a
chunk reduces to one boolean (chunk, 2, bins) array: which of the two nodes
fired exactly once in which bin.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import HawkesModel
from .simulation import EventLog, _cluster, child_seed, intensity
from .stats import _bin_index

__all__ = [
    "ExpectationReport",
    "DriftReport",
    "predicted_pair",
    "predicted_triple",
    "predicted_pattern",
    "drift_matrix",
    "mc_indicator",
    "mc_delta_drift",
    "within_envelope",
]

_PATTERNS = ("ij", "ji", "iij", "iji", "jii")
_ROW = {"i": 0, "j": 1}  # row of each pattern letter in an occupancy chunk
_CHUNK = 1_000_000  # continuations drawn per call of the sampler


def predicted_pattern(model: HawkesModel, lam: dict[int, float], nodes: tuple[int, ...]) -> float:
    """Leading coefficient for an arbitrary firing order.

    ``nodes`` lists which node fires in each bin.  The factor for bin k is
    that node's intensity plus one jump weight for every earlier bin.
    """
    out = 1.0
    for k, v in enumerate(nodes):
        out *= lam[v] + sum(model.weight(v, u) for u in nodes[:k])
    return out


def predicted_pair(model: HawkesModel, i: int, j: int, lam_i: float, lam_j: float) -> float:
    """Coefficient of eps^2 for "i fires once, then j fires once"."""
    return lam_i * (lam_j + model.weight(j, i))


def predicted_triple(
    model: HawkesModel, i: int, j: int, lam_i: float, lam_j: float, pattern: str
) -> float:
    """Coefficient of eps^3 for the three-bin patterns over nodes i and j."""
    w_on_i = model.weight(i, j)
    w_on_j = model.weight(j, i)
    w_self = model.weight(i, i)
    if pattern == "jii":
        return lam_j * (lam_i + w_on_i) * (lam_i + w_on_i + w_self)
    if pattern == "iji":
        return lam_i * (lam_j + w_on_j) * (lam_i + w_self + w_on_i)
    if pattern == "iij":
        return lam_i * (lam_i + w_self) * (lam_j + 2.0 * w_on_j)
    raise ValueError(f"unknown triple pattern {pattern!r}")


def drift_matrix(model: HawkesModel, i: int, j: int) -> tuple[np.ndarray, float]:
    """The 2x2 map from (lam_i, lam_j) to the leading drifts of the pair and
    triple statistics for ordered pair (i, j), plus its determinant.

    The determinant is computed both directly and through its factored form
    weight(j,i) * weight(i,j) * (weight(i,i) - weight(i,j)); disagreement
    beyond 1e-12 means a bookkeeping bug and raises.
    """
    a = model.weight(j, i)  # effect of i on j
    b = model.weight(i, j)  # effect of j on i
    c = model.weight(i, i)
    m = np.array([[a, -b], [-2.0 * a * b, b * (c + b)]])
    det_direct = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    det_factored = a * b * (c - b)
    if abs(det_direct - det_factored) > 1e-12:
        raise ArithmeticError(
            f"determinant routes disagree: {det_direct!r} vs {det_factored!r}"
        )
    return m, det_direct


@dataclass(frozen=True)
class ExpectationReport:
    """Monte Carlo estimate of one pattern expectation against its prediction."""

    pattern: str
    estimate: float
    stderr: float
    predicted: float
    discrepancy: float
    trials: int
    epsilon: float

    @property
    def order(self) -> int:
        """Power of eps in the prediction (2 for pairs, 3 for triples)."""
        return len(self.pattern)

    def __str__(self) -> str:
        return (
            f"{self.pattern:4s} estimate={self.estimate:.6e} (se {self.stderr:.2e})  "
            f"predicted={self.predicted:.6e}  discrepancy={self.discrepancy:.2e}  "
            f"N={self.trials}"
        )


@dataclass(frozen=True)
class DriftReport:
    """Monte Carlo drifts of the signed window statistics for one pair.

    Estimates are normalized: the pair statistic by eps^2, the triple
    statistic by eps^3, matching the predictions from ``drift_matrix``.
    """

    pair_estimate: float
    pair_stderr: float
    pair_predicted: float
    triple_estimate: float
    triple_stderr: float
    triple_predicted: float
    trials: int
    epsilon: float

    def __str__(self) -> str:
        return (
            f"pair drift   {self.pair_estimate:+.5f} (se {self.pair_stderr:.5f}) "
            f"vs predicted {self.pair_predicted:+.5f}\n"
            f"triple drift {self.triple_estimate:+.5f} (se {self.triple_stderr:.5f}) "
            f"vs predicted {self.triple_predicted:+.5f}"
        )


def within_envelope(
    report: ExpectationReport,
    max_degree: int,
    lam_max: float,
    constant: float = 100.0,
) -> bool:
    """Whether the discrepancy is explained by the expansion error plus noise.

    The deterministic part of the envelope scales like
    (degree * intensity * eps) to the power (order + 1); four standard
    errors cover the Monte Carlo noise.
    """
    scale = max(max_degree, 1) * lam_max * report.epsilon
    return report.discrepancy <= constant * scale ** (report.order + 1) + 4.0 * report.stderr


# ---------------------------------------------------------------------------
# Continuations.  Chunk k of a run draws its continuations from
# default_rng(child_seed(seed, k)).

def _empty_log(n: int, horizon: float) -> EventLog:
    return EventLog(n=n, horizon=horizon, times=np.array([]), nodes=np.array([], dtype=np.int64))


def _exactly_once(
    model: HawkesModel,
    prefix: EventLog,
    t0: float,
    epsilon: float,
    nbins: int,
    i: int,
    j: int,
    trials: int,
    seed: int,
) -> Iterator[np.ndarray]:
    """Per chunk of continuations from t0, a boolean (chunk, 2, nbins) array:
    whether node i (row 0) or node j (row 1) fired exactly once in each bin."""
    for k, done in enumerate(range(0, trials, _CHUNK)):
        m = min(_CHUNK, trials - done)
        rng = np.random.default_rng(child_seed(seed, k))
        times, nodes, rep = _cluster(model, t0, nbins * epsilon, m, rng, history=prefix)
        pick = (nodes == i) | (nodes == j)
        row = nodes[pick] == j
        cell = (rep[pick] * 2 + row) * nbins + _bin_index(times[pick] - t0, epsilon, nbins)
        yield np.bincount(cell, minlength=m * 2 * nbins).reshape(m, 2, nbins) == 1


def _pattern_mask(once: np.ndarray, pattern: str) -> np.ndarray:
    out = np.ones(once.shape[0], dtype=bool)
    for b, ch in enumerate(pattern):
        out &= once[:, _ROW[ch], b]
    return out


def _mean_and_stderr(total: float, total_sq: float, trials: int) -> tuple[float, float]:
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    if trials > 1:
        var *= trials / (trials - 1)
    return mean, math.sqrt(var / trials)


def _resolve_prefix(model: HawkesModel, prefix: EventLog | None, t: float) -> EventLog:
    if prefix is None:
        return _empty_log(model.n, max(t, 1.0))
    if prefix.horizon < t:
        # Extend the clock so intensities can be queried at t; no events are
        # added, the history is simply known to be quiet after its horizon.
        return EventLog(
            n=prefix.n,
            horizon=t,
            times=prefix.times,
            nodes=prefix.nodes,
            seed=prefix.seed,
            fingerprint=prefix.fingerprint,
        )
    return prefix


def mc_indicator(
    model: HawkesModel,
    prefix: EventLog | None,
    t: float,
    epsilon: float,
    pattern: str,
    i: int,
    j: int,
    trials: int,
    seed: int = 0,
) -> ExpectationReport:
    """Estimate the expectation of one pattern indicator by simulation.

    Runs ``trials`` independent continuations of the frozen history from
    time t, each covering len(pattern) bins of width epsilon, and counts how
    often the pattern occurs.  The prediction is the eps-power times the
    closed-form coefficient at the frozen intensities.
    """
    if pattern not in _PATTERNS:
        raise ValueError(f"pattern must be one of {_PATTERNS}")
    if i == j or not (0 <= i < model.n and 0 <= j < model.n):
        raise ValueError("need two distinct valid nodes")
    if epsilon <= 0 or t < 0 or trials < 1:
        raise ValueError("bad epsilon, time, or trial count")
    if trials < 10_000:
        warnings.warn(
            f"{trials} continuations give a very noisy estimate; use at least 10000",
            UserWarning,
            stacklevel=2,
        )
    prefix = _resolve_prefix(model, prefix, t)
    lam_i = intensity(model, prefix, i, t)
    lam_j = intensity(model, prefix, j, t)
    nbins = len(pattern)
    node_of = {"i": i, "j": j}
    coeff = predicted_pattern(model, {i: lam_i, j: lam_j}, tuple(node_of[ch] for ch in pattern))
    predicted = epsilon**nbins * coeff
    if predicted >= 1.0:
        raise ValueError(
            f"epsilon={epsilon} is too coarse here: predicted probability {predicted:.3g}"
        )
    hits = 0
    for once in _exactly_once(model, prefix, t, epsilon, nbins, i, j, trials, seed):
        hits += int(np.sum(_pattern_mask(once, pattern)))
    estimate, stderr = _mean_and_stderr(float(hits), float(hits), trials)
    return ExpectationReport(
        pattern=pattern,
        estimate=estimate,
        stderr=stderr,
        predicted=predicted,
        discrepancy=abs(estimate - predicted),
        trials=trials,
        epsilon=epsilon,
    )


def mc_delta_drift(
    model: HawkesModel,
    prefix: EventLog | None,
    t: float,
    epsilon: float,
    i: int,
    j: int,
    trials: int,
    seed: int = 0,
) -> DriftReport:
    """Estimate the normalized drifts of both signed statistics for (i, j).

    Each continuation covers one three-bin window; the signed pair and
    triple counts are averaged and scaled by eps^-2 and eps^-3, then
    compared against the drift-matrix predictions at the frozen intensities.
    """
    if i == j or not (0 <= i < model.n and 0 <= j < model.n):
        raise ValueError("need two distinct valid nodes")
    if epsilon <= 0 or t < 0 or trials < 1:
        raise ValueError("bad epsilon, time, or trial count")
    prefix = _resolve_prefix(model, prefix, t)
    lam_i = intensity(model, prefix, i, t)
    lam_j = intensity(model, prefix, j, t)
    sum1 = sumsq1 = sum2 = sumsq2 = 0.0
    for once in _exactly_once(model, prefix, t, epsilon, 3, i, j, trials, seed):
        d1 = _pattern_mask(once, "ij").astype(np.int64) - _pattern_mask(once, "ji")
        d2 = (
            _pattern_mask(once, "iij").astype(np.int64)
            - 2 * _pattern_mask(once, "iji")
            + _pattern_mask(once, "jii")
        )
        sum1 += float(d1.sum())
        sumsq1 += float((d1 * d1).sum())
        sum2 += float(d2.sum())
        sumsq2 += float((d2 * d2).sum())
    mean1, se1 = _mean_and_stderr(sum1, sumsq1, trials)
    mean2, se2 = _mean_and_stderr(sum2, sumsq2, trials)
    m, _ = drift_matrix(model, i, j)
    predicted = m @ np.array([lam_i, lam_j])
    return DriftReport(
        pair_estimate=mean1 / epsilon**2,
        pair_stderr=se1 / epsilon**2,
        pair_predicted=float(predicted[0]),
        triple_estimate=mean2 / epsilon**3,
        triple_stderr=se2 / epsilon**3,
        triple_predicted=float(predicted[1]),
        trials=trials,
        epsilon=epsilon,
    )
