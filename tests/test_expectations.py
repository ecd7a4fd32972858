import dataclasses
import tracemalloc

import numpy as np
import pytest

from hawkesgraph import (
    BaselineSpec,
    EventLog,
    ExpectationReport,
    HawkesModel,
    KernelSpec,
    drift_matrix,
    intensity,
    mc_delta_drift,
    mc_indicator,
    predicted_pattern,
    within_envelope,
)
from hawkesgraph.expectations import _CHUNK, _resolve_prefix
from hawkesgraph.simulation import _cluster, child_seed
from oracles import build_model, plain_constants, poisson_pair_prob


def _two_node(w_ij=0.0, w_ji=0.5, w_self=0.0, decay=1.0, level=1.0):
    weights = {}
    if w_ij:
        weights[(0, 1)] = w_ij
    if w_ji:
        weights[(1, 0)] = w_ji
    if w_self:
        weights[(0, 0)] = weights[(1, 1)] = w_self
    return build_model(2, weights, level=level, decay=decay, weight_cap=2.0)


def test_predicted_pair_examples():
    m = _two_node(w_ji=0.5)
    assert predicted_pattern(m, {0: 1.0, 1: 1.0}, (0, 1)) == pytest.approx(1.5)
    none = _two_node(w_ji=0.0)
    assert predicted_pattern(none, {0: 1.3, 1: 0.7}, (0, 1)) == pytest.approx(1.3 * 0.7)
    assert predicted_pattern(m, {0: 0.0, 1: 1.0}, (0, 1)) == 0.0


def test_predicted_triple_examples():
    lam = {0: 1.0, 1: 1.0}
    m = _two_node(w_ji=0.5, w_self=1.0)
    assert predicted_pattern(m, lam, (0, 0, 1)) == pytest.approx(4.0)  # iij
    m2 = _two_node(w_ij=0.0, w_ji=0.5, w_self=1.0)
    assert predicted_pattern(m2, lam, (1, 0, 0)) == pytest.approx(2.0)  # jii
    m3 = _two_node(w_ij=0.5, w_ji=0.5, w_self=1.0)
    assert predicted_pattern(m3, lam, (0, 1, 0)) == pytest.approx(3.75)  # iji


def test_drift_matrix_example():
    m = _two_node(w_ij=0.4, w_ji=0.6, w_self=1.0)
    M, det = drift_matrix(m, 0, 1)
    assert det == pytest.approx(0.144, abs=1e-12)
    assert M[0, 0] == pytest.approx(0.6)
    assert M[0, 1] == pytest.approx(-0.4)
    assert M[1, 0] == pytest.approx(-2 * 0.4 * 0.6)
    assert M[1, 1] == pytest.approx(0.4 * 1.4)
    # direct determinant agrees with the factored identity
    assert M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0] == pytest.approx(det, abs=1e-12)


def test_drift_matrix_degenerate_when_w_ij_zero():
    m = _two_node(w_ij=0.0, w_ji=0.6, w_self=1.0)
    M, det = drift_matrix(m, 0, 1)
    assert det == 0.0
    assert M[1, 0] == 0.0 and M[1, 1] == 0.0


def test_mc_indicator_validation():
    m = _two_node()
    with pytest.raises(ValueError):
        mc_indicator(m, None, 0.0, 0.01, "iii", 0, 1, trials=20_000)
    with pytest.raises(ValueError):
        mc_indicator(m, None, 0.0, 0.01, "ij", 0, 0, trials=20_000)
    with pytest.raises(ValueError):
        mc_indicator(m, None, 0.0, 0.01, "ij", 0, 5, trials=20_000)
    # coarse bins push the first-order prediction past 1: refuse to run
    hot = _two_node(w_ji=0.5, level=3.0)
    with pytest.raises(ValueError, match="too coarse"):
        mc_indicator(hot, None, 0.0, 0.5, "ij", 0, 1, trials=20_000)


def test_mc_indicator_warns_on_tiny_trial_count():
    m = _two_node()
    with pytest.warns(UserWarning, match="noisy"):
        mc_indicator(m, None, 0.0, 0.05, "ij", 0, 1, trials=2_000, seed=1)


def test_mc_indicator_pure_poisson():
    m = _two_node(w_ji=0.0)
    eps = 0.05
    report = mc_indicator(m, None, 0.0, eps, "ij", 0, 1, trials=400_000, seed=31)
    exact = poisson_pair_prob(eps, 1.0)
    assert report.predicted == pytest.approx(eps**2)
    assert abs(report.estimate - exact) <= 5 * report.stderr
    assert report.stderr == pytest.approx(
        np.sqrt(exact * (1 - exact) / 400_000), rel=0.15
    )
    assert report.order == 2
    assert report.discrepancy == pytest.approx(abs(report.estimate - report.predicted))


def test_mc_indicator_is_deterministic():
    m = _two_node(w_ji=0.5)
    a = mc_indicator(m, None, 0.0, 0.1, "ij", 0, 1, trials=50_000, seed=9)
    b = mc_indicator(m, None, 0.0, 0.1, "ij", 0, 1, trials=50_000, seed=9)
    assert (a.estimate, a.stderr) == (b.estimate, b.stderr)
    c = mc_indicator(m, None, 0.0, 0.1, "ij", 0, 1, trials=50_000, seed=10)
    assert a.estimate != c.estimate


def test_mc_indicator_modulated_kernels_are_deterministic():
    m = HawkesModel(
        n=2,
        weights={(1, 0): 0.5},
        baselines=tuple(BaselineSpec(family="constant", level=1.0) for _ in range(2)),
        default_kernel=KernelSpec(family="modulated", decay=2.0,
                                  decay_amplitude=0.5, decay_frequency=1.0),
        constants=plain_constants(),
    )
    a = mc_indicator(m, None, 0.0, 0.2, "ij", 0, 1, trials=10_000, seed=2)
    b = mc_indicator(m, None, 0.0, 0.2, "ij", 0, 1, trials=10_000, seed=2)
    assert a.estimate > 0.0
    assert (a.estimate, a.stderr) == (b.estimate, b.stderr)


def test_mc_indicator_rejects_prefix_event_at_split_time():
    m = _two_node(w_ji=0.5, w_self=0.5)
    prefix = EventLog(n=2, horizon=5.0, times=np.array([1.0, 2.0]), nodes=np.array([0, 0]))
    with pytest.raises(ValueError, match="split time"):
        mc_indicator(m, prefix, 2.0, 0.1, "ij", 0, 1, trials=10_000, seed=3)
    report = mc_indicator(m, prefix, 2.5, 0.1, "ij", 0, 1, trials=10_000, seed=3)
    assert report.trials == 10_000


def test_mc_indicator_conditions_on_prefix():
    m = _two_node(w_ji=0.5, w_self=0.6, decay=1.0)
    prefix = EventLog(n=2, horizon=2.0, times=np.array([1.7, 1.9]), nodes=np.array([0, 0]))
    t, eps = 2.5, 0.1
    report = mc_indicator(m, prefix, t, eps, "ij", 0, 1, trials=20_000, seed=5)
    padded = EventLog(n=2, horizon=t, times=prefix.times, nodes=prefix.nodes)
    lam_i = intensity(m, padded, 0, t)
    lam_j = intensity(m, padded, 1, t)
    assert lam_i > 1.0  # recent history is still felt
    assert report.predicted == pytest.approx(
        eps**2 * predicted_pattern(m, {0: lam_i, 1: lam_j}, (0, 1))
    )


def test_estimators_reject_a_prefix_of_another_node_count():
    m = _two_node(w_ji=0.5)
    prefix = EventLog(n=3, horizon=2.0, times=np.array([1.0, 1.5]), nodes=np.array([0, 2]))
    with pytest.raises(ValueError, match="prefix has 3 nodes but the model has 2"):
        mc_indicator(m, prefix, 2.5, 0.1, "ij", 0, 1, trials=20_000, seed=5)
    with pytest.raises(ValueError, match="prefix has 3 nodes but the model has 2"):
        mc_delta_drift(m, prefix, 2.5, 0.1, 0, 1, trials=20_000, seed=5)


def test_estimators_are_pinned():
    # Every sum behind a report is an integer, so an exact rewrite of the
    # estimators must return these reports bit for bit.
    m = _two_node(w_ji=0.5, w_self=0.6, decay=1.0)
    prefix = EventLog(n=2, horizon=2.0, times=np.array([1.7, 1.9]), nodes=np.array([0, 0]))
    pinned = {
        "ij": (0.0203, 0.0009972187434365205, 0.03196282237632769,
               0.011662822376327694),
        "ji": (0.01755, 0.0009285165492058327, 0.023968400575693948,
               0.0064184005756939486),
        "iij": (0.00365, 0.00042643049509663057, 0.008786135929448612,
                0.005136135929448612),
        "iji": (0.0032, 0.0003993694715407526, 0.007028255022881625,
                0.003828255022881625),
        "jii": (0.00265, 0.0003635319556437078, 0.005270374116314639,
                0.002620374116314639),
    }
    for pattern, values in pinned.items():
        report = mc_indicator(m, prefix, 2.5, 0.1, pattern, 0, 1, trials=20_000, seed=5)
        assert dataclasses.astuple(report) == (pattern, *values, 20_000, 0.1)
    # two chunks of continuations, the second from child_seed(7, 1)
    drift = mc_delta_drift(m, prefix, 2.5, 0.1, 0, 1, trials=_CHUNK + 3, seed=7)
    assert dataclasses.astuple(drift) == (
        0.3811988564034307, 0.019193562593471367, 0.7994421800633744,
        0.06299981100056698, 0.14096416805844414, 0.0, 1_000_003, 0.1,
    )


def test_drift_memory_stays_at_the_sampler_peak():
    m = _two_node(w_ij=0.5, w_ji=0.5, w_self=1.0, decay=2.0)
    eps = 0.05
    mc_delta_drift(m, None, 0.0, eps, 0, 1, trials=_CHUNK, seed=1)  # warm caches
    tracemalloc.start()
    try:
        rng = np.random.default_rng(child_seed(1, 0))
        _cluster(m, 0.0, 3 * eps, _CHUNK, rng, history=_resolve_prefix(m, None, 0.0))
        bare = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        mc_delta_drift(m, None, 0.0, eps, 0, 1, trials=_CHUNK, seed=1)
        full = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert full <= 1.2 * bare, (full, bare)


def test_mc_delta_drift_matches_matrix_prediction():
    m = _two_node(w_ij=0.4, w_ji=0.6, w_self=1.0, decay=2.0)
    report = mc_delta_drift(m, None, 0.0, 0.1, 0, 1, trials=300_000, seed=8)
    M, _ = drift_matrix(m, 0, 1)
    lam = np.array([1.0, 1.0])
    pred = M @ lam
    assert report.pair_predicted == pytest.approx(pred[0])
    assert report.triple_predicted == pytest.approx(pred[1])
    # the first-order drift is resolvable at this trial count; the second
    # carries an O(eps) bias so only a loose agreement is asserted
    assert abs(report.pair_estimate - report.pair_predicted) <= 6 * report.pair_stderr
    assert abs(report.triple_estimate - report.triple_predicted) <= max(
        8 * report.triple_stderr, 0.5
    )


def test_within_envelope_arithmetic():
    report = ExpectationReport(pattern="ij", estimate=1.05e-4, stderr=1e-6,
                               predicted=1.0e-4, discrepancy=5e-6,
                               trials=10**6, epsilon=0.01)
    # envelope = C * (d * Lam * eps)^(order+1) + 4 * stderr
    assert within_envelope(report, max_degree=1, lam_max=2.0, constant=100.0)
    assert not within_envelope(report, max_degree=1, lam_max=0.1, constant=1e-3)
