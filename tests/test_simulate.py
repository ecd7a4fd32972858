import math
import warnings

import numpy as np
import pytest

from oracles import (
    build_model,
    expected_count,
    mean_count,
    plain_constants,
    reference_peak,
    rescaled_waits,
)
from scipy import stats as scipy_stats

from hawkesgraph import (
    BaselineSpec,
    EventLog,
    HawkesModel,
    KernelSpec,
    child_seed,
    intensity,
    load_events,
    max_intensity_trace,
    planted_model,
    save_events,
    simulate,
)


def test_event_log_sorts_and_freezes():
    log = EventLog(n=2, horizon=5.0, times=np.array([3.0, 1.0, 1.0]),
                   nodes=np.array([0, 1, 0]))
    assert log.times.tolist() == [1.0, 1.0, 3.0]
    assert log.nodes.tolist() == [0, 1, 0]  # time ties break by node
    assert len(log) == 3
    assert [e.node for e in log] == [0, 1, 0]
    assert log.times_of(0).tolist() == [1.0, 3.0]
    assert log.counts().tolist() == [2, 1]
    with pytest.raises(ValueError):
        log.times[0] = 0.0


def test_event_log_validation():
    with pytest.raises(ValueError):
        EventLog(n=1, horizon=0.0, times=np.array([]), nodes=np.array([]))
    with pytest.raises(ValueError):
        EventLog(n=1, horizon=1.0, times=np.array([2.0]), nodes=np.array([0]))
    with pytest.raises(ValueError):
        EventLog(n=1, horizon=1.0, times=np.array([-0.5]), nodes=np.array([0]))
    with pytest.raises(ValueError):
        EventLog(n=1, horizon=1.0, times=np.array([0.5]), nodes=np.array([1]))
    with pytest.raises(ValueError):
        EventLog(n=1, horizon=1.0, times=np.array([0.5]), nodes=np.array([[0]]))


def test_simulate_is_deterministic():
    model = build_model(2, {(1, 0): 0.5, (0, 0): 0.7, (1, 1): 0.7}, decay=2.0)
    a = simulate(model, 50.0, seed=42)
    b = simulate(model, 50.0, seed=42)
    c = simulate(model, 50.0, seed=43)
    assert a.same_events(b)
    assert not a.same_events(c)
    assert a.seed == 42
    assert a.fingerprint == model.fingerprint()


def test_simulate_argument_errors():
    model = build_model(1, {})
    with pytest.raises(ValueError):
        simulate(model, 0.0, seed=1)


def test_poisson_count():
    # no excitation: N(T) ~ Poisson(mu * T)
    model = build_model(1, {}, level=2.0)
    log = simulate(model, 2000.0, seed=3)
    expected = 4000.0
    assert abs(len(log) - expected) < 4 * math.sqrt(expected)


def test_sinusoidal_baseline_count_matches_integral():
    base = BaselineSpec(family="sinusoidal", level=1.0, amplitude=0.5, frequency=1.0)
    model = build_model(1, {}, baselines=(base,), log_slope_bound=1.05)
    T = 2000.0
    log = simulate(model, T, seed=9)
    expected = T + 0.5 * (1.0 - math.cos(T))  # integral of the rate
    assert abs(len(log) - expected) < 4 * math.sqrt(expected)
    # events cluster where the rate is high: the top half-cycles hold more
    phase = np.mod(log.times, 2 * math.pi)
    assert np.sum(phase < math.pi) > np.sum(phase >= math.pi)


def test_branching_mean_count():
    # stationary mean of a self-exciting node is mu*T / (1 - w/beta)
    model = build_model(1, {(0, 0): 0.5}, level=1.0, decay=1.0)
    T = 1000.0
    log = simulate(model, T, seed=14)
    expected = T / (1.0 - 0.5)
    sd = math.sqrt(T / (1.0 - 0.5) ** 3)
    assert abs(len(log) - expected) < 4 * sd


def test_jump_identity():
    model = build_model(
        3,
        {(1, 0): 0.5, (2, 1): 0.4, (0, 2): 0.3, (0, 0): 0.8, (1, 1): 0.8, (2, 2): 0.8},
        decay=2.0,
        stability_slack=0.1,
    )
    log = simulate(model, 10.0, seed=5)
    assert len(log) > 10
    for t, u in log:
        for v in range(model.n):
            before = intensity(model, log, v, t)
            after = intensity(model, log, v, t, include_events_at_t=True)
            assert after - before == pytest.approx(model.weight(v, u), abs=1e-9)


def test_tracker_matches_direct_intensity_exponential():
    # The peak trace follows the tracker; its peak must equal the direct
    # intensity sum over the same probes, for constant and sinusoidal
    # baselines.
    weights = {(1, 0): 0.5, (2, 1): 0.4, (1, 2): 0.2, (0, 0): 0.8, (1, 1): 0.8, (2, 2): 0.8}
    constant = build_model(3, weights, decay=1.5, stability_slack=0.05)
    sinusoidal = build_model(
        3, weights, decay=1.5, stability_slack=0.05, log_slope_bound=2.0,
        baselines=tuple(
            BaselineSpec(family="sinusoidal", level=1.0, amplitude=0.5, frequency=f)
            for f in (0.5, 1.0, 3.0)
        ),
    )
    for model in (constant, sinusoidal):
        log = simulate(model, 20.0, seed=8)
        assert len(log) > 10
        peak, _ = max_intensity_trace(model, log)
        assert peak == pytest.approx(reference_peak(model, log), rel=1e-9)


def test_tracker_matches_direct_intensity_modulated():
    model = HawkesModel(
        n=2,
        weights={(1, 0): 0.5, (0, 0): 0.6, (1, 1): 0.6},
        baselines=(
            BaselineSpec(family="constant", level=1.0),
            BaselineSpec(family="sinusoidal", level=1.0, amplitude=0.4, frequency=2.0),
        ),
        default_kernel=KernelSpec(family="modulated", decay=2.0,
                                  decay_amplitude=0.5, decay_frequency=3.0),
        constants=plain_constants(log_slope_bound=2.0),
    )
    log = simulate(model, 15.0, seed=21)
    assert len(log) > 10
    peak, _ = max_intensity_trace(model, log)
    assert peak == pytest.approx(reference_peak(model, log), rel=1e-9)


# ---------------------------------------------------------------------------
# Sampler gate: time-rescaled waits must look Exp(1) on every node, and mean
# counts must match the exact finite-horizon mean, for plain runs and for
# continuations of a frozen history.


def _chains_model():
    """The criterion-9 model: two planted 5-chains at n = 10."""
    chains = {(base + k + 1, base + k): 0.8 for base in (0, 5) for k in range(4)}
    return planted_model(10, chains, self_weight=1.2, decay=2.0, baseline_level=1.0, slack=0.25)


def _mixed_model():
    """Sinusoidal baselines, a modulated default kernel, one exponential override."""
    return HawkesModel(
        n=3,
        weights={(0, 0): 0.6, (1, 1): 0.6, (2, 2): 0.6, (1, 0): 0.3, (2, 1): 0.4, (0, 2): 0.3},
        baselines=(
            BaselineSpec(family="sinusoidal", level=1.0, amplitude=0.5, frequency=0.7),
            BaselineSpec(family="sinusoidal", level=0.8, amplitude=0.3, frequency=2.0, phase=1.0),
            BaselineSpec(family="sinusoidal", level=1.1, amplitude=0.8, frequency=0.2, phase=-0.5),
        ),
        default_kernel=KernelSpec(family="modulated", decay=2.0,
                                  decay_amplitude=0.8, decay_frequency=1.5),
        kernel_overrides={(2, 1): KernelSpec(family="exponential", decay=3.0)},
        constants=plain_constants(log_slope_bound=3.0),
    )


def _continuations(model, prefix, t0, duration, reps, seed):
    """reps independent continuations of prefix from t0, as flat arrays
    (times, nodes, rep) with rep the index of each event's continuation."""
    from hawkesgraph.simulation import _cluster

    return _cluster(model, t0, duration, reps, np.random.default_rng(seed), history=prefix)


def _counts(model, nodes, rep, reps):
    """(reps, n) event counts of flat continuation arrays."""
    return np.bincount(rep * model.n + nodes, minlength=reps * model.n).reshape(reps, model.n)


def _assert_exponential_waits(model, times, nodes, t0=0.0):
    for node in range(model.n):
        waits = rescaled_waits(model, times, nodes, node, t0=t0)
        assert waits.size > 200
        assert scipy_stats.kstest(waits, "expon").pvalue > 0.01 / model.n, f"node {node}"


def test_rescaled_waits_are_exponential_on_chains_model():
    model = _chains_model()
    log = simulate(model, 300.0, seed=601)
    _assert_exponential_waits(model, log.times, log.nodes)


def test_rescaled_waits_are_exponential_on_time_varying_model():
    model = _mixed_model()
    log = simulate(model, 600.0, seed=602)
    _assert_exponential_waits(model, log.times, log.nodes)


def test_rescaled_waits_are_exponential_after_frozen_history():
    model = _mixed_model()
    prefix = simulate(model, 40.0, seed=603)
    times, nodes, _ = _continuations(model, prefix, 40.0, 600.0, 1, seed=604)
    assert times.min() > 40.0 and times.max() <= 640.0
    _assert_exponential_waits(model, np.concatenate((prefix.times, times)),
                              np.concatenate((prefix.nodes, nodes)), t0=40.0)


def test_mean_count_matches_exact_mean():
    model = _chains_model()
    totals = [len(simulate(model, 300.0, seed=700 + k)) for k in range(20)]
    exact = expected_count(model, 300.0).sum()
    assert abs(np.mean(totals) - exact) <= 4.0 * np.std(totals, ddof=1) / math.sqrt(20)


@pytest.mark.parametrize("case", ["chains", "time-varying"])
def test_short_window_mean_counts_match_first_moment(case):
    # Over a window of a few kernel lifetimes from an empty history the mean
    # count depends on the children's number and delays, not only on the
    # stationary rate, so many short copies test both per node.
    model, horizon, seed = {
        "chains": (_chains_model(), 1.0, 607),
        "time-varying": (_mixed_model(), 2.0, 608),
    }[case]
    reps = 100_000
    _, nodes, rep = _continuations(model, None, 0.0, horizon, reps, seed=seed)
    counts = _counts(model, nodes, rep, reps)
    z = (counts.mean(axis=0) - mean_count(model, horizon)) / (
        counts.std(axis=0, ddof=1) / math.sqrt(reps))
    assert np.all(np.abs(z) <= 4.0), z


def test_continuation_mean_count_matches_exact_mean():
    model = _chains_model()
    prefix = simulate(model, 20.0, seed=605)
    decay = model.default_kernel.decay
    excitation = np.bincount(prefix.nodes, weights=np.exp(-decay * (20.0 - prefix.times)),
                             minlength=model.n)
    reps = 20_000
    _, nodes, rep = _continuations(model, prefix, 20.0, 0.5, reps, seed=606)
    totals = _counts(model, nodes, rep, reps).sum(axis=1)
    exact = expected_count(model, 0.5, excitation).sum()
    assert exact > mean_count(model, 0.5).sum() * 1.2  # the history matters here
    assert abs(np.mean(totals) - exact) <= 4.0 * np.std(totals, ddof=1) / math.sqrt(reps)


def test_intensity_validation():
    model = build_model(1, {})
    log = simulate(model, 5.0, seed=1)
    with pytest.raises(ValueError):
        intensity(model, log, 1, 1.0)
    with pytest.raises(ValueError):
        intensity(model, log, 0, 6.0)


def test_max_intensity_trace_hand_case():
    model = build_model(1, {(0, 0): 0.8}, level=1.0, decay=1.0)
    log = EventLog(n=1, horizon=2.0, times=np.array([1.0]), nodes=np.array([0]))
    peak, at = max_intensity_trace(model, log)
    assert peak == pytest.approx(1.8, abs=1e-12)
    assert at == 1.0
    with pytest.raises(ValueError):
        max_intensity_trace(model, log, grid_step=0.0)


def test_max_intensity_trace_empty_log():
    base = BaselineSpec(family="sinusoidal", level=1.0, amplitude=0.5, frequency=1.0)
    model = build_model(1, {}, baselines=(base,), log_slope_bound=1.05)
    log = EventLog(n=1, horizon=20.0, times=np.array([]), nodes=np.array([]))
    peak, _ = max_intensity_trace(model, log, grid_step=0.01)
    assert peak == pytest.approx(1.5, abs=1e-3)


def test_child_seed_streams():
    a = np.random.default_rng(child_seed(123, 0)).random(4)
    b = np.random.default_rng(child_seed(123, 0)).random(4)
    c = np.random.default_rng(child_seed(123, 1)).random(4)
    d = np.random.default_rng(child_seed(124, 0)).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_event_file_roundtrip(tmp_path):
    model = build_model(2, {(1, 0): 0.5, (0, 0): 0.7, (1, 1): 0.7}, decay=2.0)
    log = simulate(model, 30.0, seed=6)
    path = tmp_path / "events.log"
    save_events(log, str(path))
    back = load_events(str(path))
    assert back.same_events(log)
    assert np.array_equal(back.times, log.times)  # bit-exact through repr
    assert back.seed == 6
    assert back.fingerprint == model.fingerprint()
    assert back.horizon == 30.0


def test_event_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.log"
    path.write_text("time,node\n0.5 0\n")
    with pytest.raises(ValueError, match="not an event-log file"):
        load_events(str(path))
    path.write_text("# hawkesgraph-events n=1 horizon=5.0 seed=none model=none\n2.0 0\n1.0 0\n")
    with pytest.raises(ValueError, match="not sorted"):
        load_events(str(path))


_EVENT_HEADER = "# hawkesgraph-events n=2 horizon=5.0 seed=none model=none\n"


@pytest.mark.parametrize(
    "body",
    [
        "1.0 0.5\n",         # non-integer node
        "1.0 1.0\n",         # integral, but written as a float
        "1.0 0\n2.0 1 7\n",  # three columns
        "1.0\n",             # one column
        "1.0 0\n# note\n",  # comment lines are not part of the format
    ],
)
def test_event_file_rejects_malformed_lines(tmp_path, body):
    path = tmp_path / "bad.log"
    path.write_text(_EVENT_HEADER + body)
    with pytest.raises(ValueError):
        load_events(str(path))


def test_event_file_orders_ties_by_node(tmp_path):
    path = tmp_path / "events.log"
    path.write_text(_EVENT_HEADER + "1.0 0\n1.0 1\n\n2.5 0\n")
    back = load_events(str(path))
    assert back.times.tolist() == [1.0, 1.0, 2.5]
    assert back.nodes.tolist() == [0, 1, 0]
    path.write_text(_EVENT_HEADER + "1.0 1\n1.0 0\n")
    with pytest.raises(ValueError, match="not sorted"):
        load_events(str(path))


@pytest.mark.parametrize("body", ["", "\n\n"])
def test_event_file_with_no_events(tmp_path, body):
    path = tmp_path / "empty.log"
    path.write_text(_EVENT_HEADER + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = load_events(str(path))
    assert len(back) == 0 and back.n == 2 and back.horizon == 5.0
    assert back.times.dtype == np.float64 and back.nodes.dtype == np.int64


def test_event_file_names_missing_header_field(tmp_path):
    path = tmp_path / "truncated.log"
    path.write_text("# hawkesgraph-events n=1 horizon=5.0\n1.0 0\n")
    with pytest.raises(ValueError, match=r"truncated\.log.*'seed'"):
        load_events(str(path))
