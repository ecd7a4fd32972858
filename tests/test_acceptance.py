"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion.  Criteria 9 and 10 encode exact-recovery and confound-regression
targets the current detector does not reach at these horizons; they are
expected to fail and the shortfall is analyzed in the README.  Everything
here is deterministic: fixed seeds, fixed tolerances.
"""

import math
import statistics
import time

import numpy as np
import pytest
from oracles import build_model, excited_pair_prob, naive_pair_stats, rescaled_waits
from scipy import stats as scipy_stats

from hawkesgraph import (
    DetectorConfig,
    EventLog,
    accumulate_all,
    bin_events,
    detect,
    detect_subset,
    drift_matrix,
    intensity,
    jitter,
    max_intensity_trace,
    mc_delta_drift,
    mc_indicator,
    planted_model,
    predicted_pattern,
    random_model,
    run_trial,
    simulate,
)


def test_criterion_01_poisson_reduction():
    """All-zero weights collapse the simulator to independent Poisson nodes."""
    start = time.perf_counter()
    model = build_model(2, {}, level=2.0)
    counts = []
    for seed in range(100):
        counts.extend(simulate(model, 1000.0, seed=seed).counts().tolist())
    counts = np.asarray(counts, dtype=float)
    expected = 2000.0
    se_mean = math.sqrt(expected / counts.size)
    se_var = expected * math.sqrt(2.0 / (counts.size - 1))
    assert abs(counts.mean() - expected) <= 4.0 * se_mean
    assert abs(counts.var(ddof=1) - expected) <= 4.0 * se_var
    assert time.perf_counter() - start < 10.0


def test_criterion_02_time_rescaling_ks():
    """Compensator-transformed waits of a self-exciting node look Exp(1)."""
    model = build_model(1, {(0, 0): 0.5}, level=1.0, decay=1.0)
    log = simulate(model, 6000.0, seed=11)
    assert len(log) >= 10_000
    waits = rescaled_waits(model, log.times, log.nodes, 0)
    assert scipy_stats.kstest(waits, "expon").pvalue > 0.01


def test_criterion_03_intensity_jump_identity():
    """Every event lifts each intensity by exactly the matching weight."""
    model = build_model(
        3,
        {(1, 0): 0.8, (2, 1): 0.6, (0, 2): 0.4,
         (0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0},
        level=1.0,
        decay=2.0,
    )
    log = simulate(model, 30.0, seed=5)
    assert len(log) > 50
    assert len(np.unique(log.times)) == len(log)  # jumps are unambiguous
    for t, src in zip(log.times, log.nodes):
        for node in range(model.n):
            before = intensity(model, log, node, float(t))
            after = intensity(model, log, node, float(t), include_events_at_t=True)
            assert abs((after - before) - model.weight(node, int(src))) <= 1e-9


def test_criterion_04_pair_expectation_accuracy():
    """Second-order pair prediction matches quadrature and Monte Carlo."""
    start = time.perf_counter()
    model = build_model(2, {(1, 0): 0.5}, level=1.0, decay=1.0)
    predicted = predicted_pattern(model, {0: 1.0, 1: 1.0}, (0, 1))
    assert predicted == 1.5
    exact = {eps: excited_pair_prob(eps, 0.5, beta=1.0) for eps in (0.04, 0.02, 0.01)}
    assert exact[0.04] == pytest.approx(0.0021449934409328835, rel=1e-12)
    assert exact[0.02] == pytest.approx(0.000567088784532391, rel=1e-12)
    assert exact[0.01] == pytest.approx(0.00014581891079235249, rel=1e-12)
    for eps, value in exact.items():
        assert abs(value - eps * eps * predicted) / eps**3 < 4.5
    for eps, trials, seed in ((0.01, 10_000_000, 401),
                              (0.04, 2_000_000, 402),
                              (0.02, 2_000_000, 403)):
        report = mc_indicator(model, None, 0.0, eps, "ij", 0, 1, trials, seed=seed)
        assert abs(report.estimate - exact[eps]) <= 4.0 * report.stderr
        if eps == 0.01:
            assert abs(report.estimate - 1.5e-4) <= 4.0 * report.stderr
    assert time.perf_counter() - start < 300.0


def test_criterion_05_symmetric_confound_drift():
    """A symmetric pair zeroes the pair drift but not the triple drift."""
    model = planted_model(
        2, {(0, 1): 0.5, (1, 0): 0.5}, self_weight=1.0, decay=2.0, slack=0.25
    )
    assert model.weight(0, 1) == 0.5  # subcritical as stated, no rescale
    report = mc_delta_drift(model, None, 0.0, 0.05, 0, 1, 100_000_000, seed=501)
    assert report.pair_predicted == 0.0
    assert report.triple_predicted == pytest.approx(0.25)
    assert abs(report.pair_estimate) <= 4.0 * report.pair_stderr
    assert abs(report.triple_estimate - 0.25) <= 4.0 * report.triple_stderr
    assert report.triple_estimate - 4.0 * report.triple_stderr > 0.0


def test_criterion_06_drift_determinant_identity():
    """Drift-matrix determinant factorizes and stays positive, 1000 draws."""
    rng = np.random.default_rng(6)
    for _ in range(1000):
        b = float(rng.uniform(0.05, 0.95))  # effect of node 1 on node 0
        a = float(rng.uniform(0.05, 0.95))  # effect of node 0 on node 1
        c = b + float(rng.uniform(0.05, 0.6))
        d = a + float(rng.uniform(0.05, 0.6))
        model = build_model(2, {(0, 0): c, (0, 1): b, (1, 0): a, (1, 1): d})
        matrix, det = drift_matrix(model, 0, 1)
        assert abs(det - a * b * (c - b)) <= 1e-12
        assert det > 0.0
        assert abs(float(np.linalg.det(matrix)) - det) <= 1e-12


def test_criterion_07_statistics_oracle_equivalence():
    """Window statistics equal a naive timestamp-level recount, 100 logs."""
    rng = np.random.default_rng(107)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        horizon = float(rng.uniform(4.0, 15.0))
        eps = float(rng.choice([0.05, 0.1, 0.2, 0.25]))
        m = int(rng.integers(10, 121))
        log = EventLog(
            n=n,
            horizon=horizon,
            times=np.sort(rng.uniform(0.0, horizon, size=m)),
            nodes=rng.integers(0, n, size=m),
        )
        table = accumulate_all(bin_events(log, eps))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                got = table[(i, j)]
                want = naive_pair_stats(log, i, j, eps)
                if (got.pair_sum, got.triple_sum, got.windows) != want:
                    mismatches += 1
    assert mismatches == 0


def test_criterion_08_null_false_positive_control():
    """Calibrated detection on an edgeless model stays below 2% false edges."""
    model = planted_model(
        10, {}, self_weight=0.5, decay=2.0, baseline_level=1.0, slack=0.25
    )
    config = DetectorConfig(
        epsilon=0.02, horizon=2000.0, threshold=1.0, use_triples=True
    )
    total_fp = 0
    for seed in range(50):
        result = run_trial(model, config, seed=seed, calibrate=True, track_peak=False)
        total_fp += len(result.false_positives)
    pairs = model.n * (model.n - 1) // 2
    assert total_fp / (50 * pairs) <= 0.02


def test_criterion_09_exact_recovery_planted_chains():
    """Calibrated detection recovers two planted 5-chains at n=10."""
    chains = {(base + k + 1, base + k): 0.8 for base in (0, 5) for k in range(4)}
    model = planted_model(
        10, chains, self_weight=1.2, decay=2.0, baseline_level=1.0, slack=0.25
    )
    exact = 0
    recalls = {2000.0: [], 4000.0: []}
    for horizon in (2000.0, 4000.0):
        config = DetectorConfig(
            epsilon=0.02, horizon=horizon, threshold=1.0, use_triples=True
        )
        for seed in range(20):
            result = run_trial(
                model, config, seed=seed, calibrate=True, track_peak=False
            )
            recalls[horizon].append(result.recall)
            if horizon == 2000.0:
                exact += result.exact
    assert statistics.median(recalls[4000.0]) >= statistics.median(recalls[2000.0])
    assert exact >= 18  # known shortfall at this horizon, see README


def test_criterion_10_symmetric_edge_regression():
    """The triple statistic must carry a symmetric edge the pair one cannot."""
    model = planted_model(
        10, {(0, 1): 0.8, (1, 0): 0.8}, self_weight=1.2, decay=2.0,
        baseline_level=1.0, slack=0.25,
    )
    hits = {}
    for use_triples in (True, False):
        config = DetectorConfig(
            epsilon=0.02, horizon=2000.0, threshold=1.0, use_triples=use_triples
        )
        hits[use_triples] = sum(
            (0, 1)
            in run_trial(
                model, config, seed=seed, calibrate=True, track_peak=False
            ).recovered_edges
            for seed in range(20)
        )
    assert hits[False] <= 10  # the pair-only ablation alone must miss it
    assert hits[True] >= 18  # known shortfall at this horizon, see README


def test_criterion_11_restriction_invariance():
    """Subset detection equals the restriction of full detection, 20 logs."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(4, 7))
        horizon = float(rng.uniform(15.0, 40.0))
        m = int(rng.integers(60, 200))
        log = EventLog(
            n=n,
            horizon=horizon,
            times=np.sort(rng.uniform(0.0, horizon, size=m)),
            nodes=rng.integers(0, n, size=m),
        )
        config = DetectorConfig(
            epsilon=0.1,
            horizon=horizon,
            threshold=float(rng.uniform(0.02, 0.3)),
            use_triples=True,
        )
        observed = sorted(
            rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist()
        )
        sub = detect_subset(log, observed, config)
        full = detect(accumulate_all(bin_events(log, config.epsilon)), config)
        restricted = full.restrict(observed)
        assert sub.n == restricted.n
        assert sub.edges == restricted.edges


def test_criterion_12_jitter_invariance():
    """Perturbations that cross no bin boundary change nothing downstream."""
    model = build_model(
        3,
        {(1, 0): 0.8, (2, 1): 0.6, (0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0},
        level=1.0,
        decay=2.0,
    )
    log = simulate(model, 200.0, seed=12)
    eps = 0.1
    offsets = np.minimum(log.times % eps, eps - log.times % eps)
    gap = float(offsets.min())
    assert gap > 1e-6  # this seed leaves every event clear of the edges
    jittered = jitter(log, magnitude=0.49 * gap, seed=1212)
    assert np.any(jittered.times != log.times)
    before = accumulate_all(bin_events(log, eps))
    after = accumulate_all(bin_events(jittered, eps))
    assert before == after
    config = DetectorConfig(epsilon=eps, horizon=200.0, threshold=0.05)
    assert detect(before, config).edges == detect(after, config).edges


def test_criterion_13_intensity_rate_bound():
    """Peak intensities of random models stay far under the coarse bound."""
    bound = 3.0**2 * math.log(20 * 100.0) ** 4
    violations = 0
    for seed in range(50):
        model = random_model(20, 3, seed=seed)
        log = simulate(model, 100.0, seed=seed)
        peak, _ = max_intensity_trace(model, log)
        violations += peak > bound
    assert violations == 0
