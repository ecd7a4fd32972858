import math

import numpy as np
import pytest

from hawkesgraph import (
    BaselineSpec,
    DominatingRateError,
    EventLog,
    KernelSpec,
    build_tracker,
    child_seed,
    intensity,
    load_events,
    max_intensity_trace,
    save_events,
    simulate,
    simulate_continuation,
)
from oracles import build_model


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
    with pytest.raises(ValueError):
        simulate(model, 1.0, seed=1, lookahead=0.0)


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
    model = build_model(
        3,
        {(1, 0): 0.5, (2, 1): 0.4, (1, 2): 0.2, (0, 0): 0.8, (1, 1): 0.8, (2, 2): 0.8},
        decay=1.5,
        stability_slack=0.05,
    )
    log = simulate(model, 20.0, seed=8)
    for t in (0.0, 3.7, 11.25, 19.99):
        assert not np.any(log.times == t)
        tracker = build_tracker(model, log, t)
        lam = tracker.intensities(t)
        for v in range(model.n):
            assert lam[v] == pytest.approx(intensity(model, log, v, t), abs=1e-9)


def test_tracker_matches_direct_intensity_modulated():
    from hawkesgraph import HawkesModel
    from oracles import plain_constants

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
    for t in (2.3, 9.8, 14.5):
        assert not np.any(log.times == t)
        tracker = build_tracker(model, log, t)
        lam = tracker.intensities(t)
        for v in range(model.n):
            assert lam[v] == pytest.approx(intensity(model, log, v, t), abs=1e-9)


def test_dominating_rate_violation_detected():
    # The declared log-slope bound is far below the true one (about 45 here),
    # so the piecewise-constant bound gets overrun almost immediately.
    fast = BaselineSpec(family="sinusoidal", level=1.0, amplitude=0.9, frequency=5.0)
    model = build_model(1, {}, baselines=(fast,), log_slope_bound=0.5)
    with pytest.raises(DominatingRateError, match="log-slope bound"):
        simulate(model, 50.0, seed=0, lookahead=1.0)


def test_build_tracker_rejects_event_at_split_time():
    model = build_model(1, {(0, 0): 0.5})
    log = EventLog(n=1, horizon=5.0, times=np.array([1.0, 2.0]), nodes=np.array([0, 0]))
    with pytest.raises(ValueError):
        build_tracker(model, log, 2.0)
    tracker = build_tracker(model, log, 2.5)
    assert tracker.now == 2.5


def test_continuation_is_deterministic_and_windowed():
    model = build_model(2, {(1, 0): 0.5, (0, 0): 0.7, (1, 1): 0.7}, decay=2.0)
    log = simulate(model, 10.0, seed=2)
    base = build_tracker(model, log, 10.0 + 1e-9)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(child_seed(77, 0))
        times, nodes = simulate_continuation(model, base.copy(), 5.0, rng)
        runs.append((times, nodes))
    assert runs[0] == runs[1]
    times, _ = runs[0]
    assert all(10.0 < t <= 15.0 + 1e-12 for t in times)
    # the source tracker was copied, not consumed
    assert base.now == 10.0 + 1e-9


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


def test_event_file_names_missing_header_field(tmp_path):
    path = tmp_path / "truncated.log"
    path.write_text("# hawkesgraph-events n=1 horizon=5.0\n1.0 0\n")
    with pytest.raises(ValueError, match=r"truncated\.log.*'seed'"):
        load_events(str(path))
