"""Closed-form event-pattern expectations and their Monte Carlo checks.

For a frozen history up to time t, the chance that designated nodes fire
exactly once each in consecutive width-eps bins factorizes, to leading
order, into a product over the bins: each factor is the node's intensity at
t plus the jumps contributed by the pattern's earlier bins.  The functions
here expose those products (``predicted_pattern``, and ``drift_matrix`` for
the signed pair and triple drifts) and estimate the true indicator
expectations by simulating many continuations of the history
(``mc_indicator``, ``mc_delta_drift``).

The continuations come from the simulator's Poisson-cluster sampler, which
draws a chunk of up to a million of them as one set of flat arrays.  Only
the pair's two nodes are binned, with the half-open rule of ``stats``.  Each
continuation reduces to one code of 2 * bins bits, bit row * bins + bin set
when node i (row 0) or node j (row 1) fired exactly once in that bin, and a
run to a histogram of the 4**bins codes.  A pattern is a set of codes, so
both estimators read their integer sums off that histogram, and one 3-bin
histogram serves every pattern and both drifts at once (CLI ``oracle``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import HawkesModel
from .simulation import EventLog, _cluster, child_seed, intensity
from .stats import _bin_index

__all__ = [
    "ExpectationReport",
    "DriftReport",
    "predicted_pattern",
    "drift_matrix",
    "mc_indicator",
    "mc_delta_drift",
    "within_envelope",
]

_PATTERNS = ("ij", "ji", "iij", "iji", "jii")
_ROW = {"i": 0, "j": 1}  # code bit row of each pattern letter
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

def _code_counts(
    model: HawkesModel,
    prefix: EventLog,
    t0: float,
    epsilon: float,
    nbins: int,
    i: int,
    j: int,
    trials: int,
    seed: int,
) -> np.ndarray:
    """How many of ``trials`` continuations from t0 show each of the 4**nbins
    codes: bit row * nbins + bin is set when node i (row 0) or node j (row 1)
    fired exactly once in that bin."""
    counts = np.zeros(4**nbins, dtype=np.int64)
    for k, done in enumerate(range(0, trials, _CHUNK)):
        m = min(_CHUNK, trials - done)
        rng = np.random.default_rng(child_seed(seed, k))
        times, nodes, rep = _cluster(model, t0, nbins * epsilon, m, rng, history=prefix)
        pick = (nodes == i) | (nodes == j)
        row = nodes[pick] == j
        keys = (rep[pick] * 2 + row) * nbins + _bin_index(times[pick] - t0, epsilon, nbins)
        keys, hits = np.unique(keys, return_counts=True)
        owner, bit = np.divmod(keys[hits == 1], 2 * nbins)
        code = np.zeros(m, dtype=np.int64)
        np.bitwise_or.at(code, owner, np.left_shift(1, bit))
        counts += np.bincount(code, minlength=counts.size)
    return counts


def _pattern_mask(pattern: str, nbins: int) -> np.ndarray:
    """Which of the 4**nbins codes show the pattern."""
    need = sum(1 << (_ROW[ch] * nbins + b) for b, ch in enumerate(pattern))
    return (np.arange(4**nbins) & need) == need


def _mean_and_stderr(total: float, total_sq: float, trials: int) -> tuple[float, float]:
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    if trials > 1:
        var *= trials / (trials - 1)
    return mean, math.sqrt(var / trials)


def _resolve_prefix(model: HawkesModel, prefix: EventLog | None, t: float) -> EventLog:
    if prefix is None:
        return EventLog(n=model.n, horizon=max(t, 1.0), times=np.array([]),
                        nodes=np.array([], dtype=np.int64))
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


def _frozen_intensities(
    model: HawkesModel,
    prefix: EventLog | None,
    t: float,
    epsilon: float,
    i: int,
    j: int,
    trials: int,
) -> tuple[EventLog, float, float]:
    """Check the arguments both estimators share; return the history resolved
    to time t and the intensities of i and j there."""
    if i == j or not (0 <= i < model.n and 0 <= j < model.n):
        raise ValueError("need two distinct valid nodes")
    if epsilon <= 0 or t < 0 or trials < 1:
        raise ValueError("bad epsilon, time, or trial count")
    if prefix is not None and prefix.n != model.n:
        raise ValueError(f"the prefix has {prefix.n} nodes but the model has {model.n}")
    prefix = _resolve_prefix(model, prefix, t)
    return prefix, intensity(model, prefix, i, t), intensity(model, prefix, j, t)


def _read_histogram(
    model: HawkesModel,
    prefix: EventLog | None,
    t: float,
    epsilon: float,
    patterns: tuple[str, ...],
    drift: bool,
    i: int,
    j: int,
    trials: int,
    seed: int,
) -> tuple[list[ExpectationReport], DriftReport | None]:
    """One report per pattern, and the drift report when ``drift`` is set,
    all read off one code histogram: 3 bins when the drift or a triple
    pattern is asked for, else 2."""
    for pattern in patterns:
        if pattern not in _PATTERNS:
            raise ValueError(f"pattern must be one of {_PATTERNS}")
    prefix, lam_i, lam_j = _frozen_intensities(model, prefix, t, epsilon, i, j, trials)
    if patterns and trials < 10_000:
        warnings.warn(
            f"{trials} continuations give a very noisy estimate; use at least 10000",
            UserWarning,
            stacklevel=3,
        )
    node_of = {"i": i, "j": j}
    predicted = []
    for pattern in patterns:
        coeff = predicted_pattern(model, {i: lam_i, j: lam_j}, tuple(node_of[ch] for ch in pattern))
        predicted.append(epsilon ** len(pattern) * coeff)
        if predicted[-1] >= 1.0:
            raise ValueError(
                f"epsilon={epsilon} is too coarse here: predicted probability {predicted[-1]:.3g}"
            )
    nbins = 3 if drift else max((len(p) for p in patterns), default=2)
    counts = _code_counts(model, prefix, t, epsilon, nbins, i, j, trials, seed)
    reports = []
    for pattern, pred in zip(patterns, predicted):
        hits = int(counts[_pattern_mask(pattern, nbins)].sum())
        estimate, stderr = _mean_and_stderr(float(hits), float(hits), trials)
        reports.append(ExpectationReport(
            pattern=pattern, estimate=estimate, stderr=stderr, predicted=pred,
            discrepancy=abs(estimate - pred), trials=trials, epsilon=epsilon,
        ))
    if not drift:
        return reports, None
    # the signed pair and triple counts of each code
    on = {p: _pattern_mask(p, 3).astype(np.int64) for p in _PATTERNS}
    d1 = on["ij"] - on["ji"]
    d2 = on["iij"] - 2 * on["iji"] + on["jii"]
    mean1, se1 = _mean_and_stderr(float(counts @ d1), float(counts @ (d1 * d1)), trials)
    mean2, se2 = _mean_and_stderr(float(counts @ d2), float(counts @ (d2 * d2)), trials)
    m, _ = drift_matrix(model, i, j)
    drift_predicted = m @ np.array([lam_i, lam_j])
    return reports, DriftReport(
        pair_estimate=mean1 / epsilon**2,
        pair_stderr=se1 / epsilon**2,
        pair_predicted=float(drift_predicted[0]),
        triple_estimate=mean2 / epsilon**3,
        triple_stderr=se2 / epsilon**3,
        triple_predicted=float(drift_predicted[1]),
        trials=trials,
        epsilon=epsilon,
    )


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
    return _read_histogram(model, prefix, t, epsilon, (pattern,), False, i, j, trials, seed)[0][0]


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
    return _read_histogram(model, prefix, t, epsilon, (), True, i, j, trials, seed)[1]
