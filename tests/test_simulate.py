import dataclasses
import math
import tracemalloc
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
    random_model,
    save_events,
    simulate,
)


def test_event_log_sorts_and_freezes():
    log = EventLog(n=2, horizon=5.0, times=np.array([3.0, 1.0, 1.0]),
                   nodes=np.array([0, 1, 0]))
    assert log.times.tolist() == [1.0, 1.0, 3.0]
    assert log.nodes.tolist() == [0, 1, 0]  # time ties break by node
    assert len(log) == 3
    assert log.times_of(0).tolist() == [1.0, 3.0]
    assert log.counts().tolist() == [2, 1]
    with pytest.raises(ValueError):
        log.times[0] = 0.0


def test_event_log_orders_ties_that_arrive_in_reverse_node_order():
    log = EventLog(n=3, horizon=5.0, times=np.array([2.0, 1.0, 1.0, 1.0, 0.5]),
                   nodes=np.array([0, 2, 1, 0, 1]))
    assert log.times.tolist() == [0.5, 1.0, 1.0, 1.0, 2.0]
    assert log.nodes.tolist() == [1, 0, 1, 2, 0]


def test_event_log_stores_ordered_and_unordered_input_alike():
    rng = np.random.default_rng(5)
    times = np.round(rng.uniform(0.0, 10.0, 500), 1)  # many time ties
    nodes = rng.integers(0, 4, 500)
    shuffled = EventLog(n=4, horizon=10.0, times=times, nodes=nodes)
    order = np.lexsort((nodes, times))
    assert np.any(order != np.arange(order.size))
    sorted_times = np.repeat(times[order], 2)[::2]  # strided view
    sorted_nodes = nodes[order].astype(np.int32)
    in_order = EventLog(n=4, horizon=10.0, times=sorted_times, nodes=sorted_nodes)
    for log in (shuffled, in_order):
        assert log.times.tolist() == times[order].tolist()
        assert log.nodes.tolist() == nodes[order].tolist()
        for stored in (log.times, log.nodes):
            assert stored.dtype.itemsize == 8 and stored.flags.c_contiguous
            assert not stored.flags.writeable
    # input already in order is copied, not frozen or shared
    assert sorted_nodes.flags.writeable and sorted_times.base.flags.writeable
    assert not np.shares_memory(in_order.times, sorted_times)
    again = EventLog(n=4, horizon=10.0, times=in_order.times, nodes=in_order.nodes)
    assert not np.shares_memory(again.times, in_order.times)
    assert again.same_events(in_order)


def test_event_log_validation():
    with pytest.raises(ValueError):
        EventLog(n=1, horizon=0.0, times=np.array([]), nodes=np.array([]))
    with pytest.raises(ValueError):
        EventLog(n=1, horizon=1.0, times=np.array([2.0]), nodes=np.array([0]))
    with pytest.raises(ValueError):
        EventLog(n=1, horizon=1.0, times=np.array([-0.5]), nodes=np.array([0]))
    with pytest.raises(ValueError, match=r"\[0, horizon\]"):
        EventLog(n=1, horizon=1.0, times=np.array([0.5, np.nan]), nodes=np.array([0, 0]))
    with pytest.raises(ValueError):
        EventLog(n=1, horizon=1.0, times=np.array([0.5]), nodes=np.array([1]))
    with pytest.raises(ValueError):
        EventLog(n=1, horizon=1.0, times=np.array([0.5]), nodes=np.array([[0]]))


def test_event_log_and_simulate_reject_nonfinite_horizons(tmp_path):
    # NaN passes a `horizon <= 0` check; simulate would then fail inside numpy.
    model = build_model(2, {(1, 0): 0.5, (0, 0): 0.7, (1, 1): 0.7}, decay=2.0)
    empty = np.array([])
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            EventLog(n=1, horizon=bad, times=empty, nodes=empty)
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            simulate(model, bad, seed=0)
    with pytest.raises(ValueError, match="at least one node"):
        EventLog(n=0, horizon=1.0, times=empty, nodes=empty)
    path = tmp_path / "nan.log"
    path.write_text("# hawkesgraph-events n=2 horizon=nan seed=none model=none\n")
    with pytest.raises(ValueError, match=r"nan\.log: horizon must be positive and finite"):
        load_events(str(path))


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
    for t, u in zip(log.times, log.nodes):
        for v in range(model.n):
            before = intensity(model, log, v, t)
            after = intensity(model, log, v, t, include_events_at_t=True)
            assert after - before == pytest.approx(model.weight(v, u), abs=1e-9)


def test_peak_trace_matches_direct_intensity_exponential():
    # The peak of the trace must equal the direct intensity sum over the same
    # probes, for constant and sinusoidal baselines.
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
    # Events at t = 0 and two at one instant: the probe just after the tie
    # must count both.
    log = EventLog(n=3, horizon=5.0, times=np.array([0.0, 1.25, 1.25, 1.3, 4.0]),
                   nodes=np.array([1, 0, 1, 1, 2]))
    for model in (constant, sinusoidal):
        peak, _ = max_intensity_trace(model, log)
        assert peak == pytest.approx(reference_peak(model, log), rel=1e-9)


def _every_kernel_model() -> HawkesModel:
    """Sinusoidal baselines with exponential kernels of decays 1.5 and 40
    and one modulated kernel."""
    return HawkesModel(
        n=3,
        weights={(1, 0): 0.5, (2, 1): 0.4, (1, 2): 0.2, (0, 0): 0.8, (1, 1): 0.8, (2, 2): 0.8},
        baselines=tuple(
            BaselineSpec(family="sinusoidal", level=1.0, amplitude=0.5, frequency=f)
            for f in (0.5, 1.0, 3.0)
        ),
        default_kernel=KernelSpec(family="exponential", decay=1.5),
        kernel_overrides={
            (2, 1): KernelSpec(family="exponential", decay=40.0),
            (1, 2): KernelSpec(family="modulated", decay=2.0,
                               decay_amplitude=0.5, decay_frequency=3.0),
        },
        constants=plain_constants(log_slope_bound=2.0),
    )


def test_peak_trace_matches_direct_intensity_modulated():
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
    # Every kernel path at once, over several blocks (the decay-40 edge
    # shortens them to 12.5), then the same model on a hand-built log with
    # events at t = 0 and two at one instant.
    mixed = _every_kernel_model()
    log = simulate(mixed, 60.0, seed=22)
    assert len(log) > 100
    peak, _ = max_intensity_trace(mixed, log)
    assert peak == pytest.approx(reference_peak(mixed, log), rel=1e-9)
    log = EventLog(n=3, horizon=5.0, times=np.array([0.0, 1.25, 1.25, 1.3, 4.0]),
                   nodes=np.array([1, 2, 1, 2, 0]))
    peak, _ = max_intensity_trace(mixed, log)
    assert peak == pytest.approx(reference_peak(mixed, log), rel=1e-9)


def test_peak_trace_with_the_value_budget_binding(monkeypatch):
    # A probe of this model costs 3 values plus one per modulated source
    # event within reach (tens), so 256 values split the 60-unit log into
    # hundreds of blocks instead of a few.
    import hawkesgraph.simulation as simulation_module

    mixed = _every_kernel_model()
    log = simulate(mixed, 60.0, seed=22)
    whole, whole_at = max_intensity_trace(mixed, log)
    monkeypatch.setattr(simulation_module, "_BLOCK_VALUES", 256)
    peak, at = max_intensity_trace(mixed, log)
    assert peak == pytest.approx(reference_peak(mixed, log), rel=1e-9)
    assert peak == pytest.approx(whole, rel=1e-12)
    assert at == whole_at


def test_peak_trace_with_the_exponent_cap_binding():
    # At decay 40 a block spans at most 500 / 40 = 12.5 time units, so this
    # log takes 16 of them; one block would overflow e^{40 (t - b0)}.
    weights = {(1, 0): 0.5, (0, 1): 0.3, (0, 0): 0.8, (1, 1): 0.8}
    model = build_model(2, weights, level=2.0, decay=40.0)
    log = simulate(model, 200.0, seed=3)
    assert len(log) > 500
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        peak, _ = max_intensity_trace(model, log)
    assert peak == pytest.approx(reference_peak(model, log), rel=1e-9)


def test_peak_trace_on_a_sparse_model_with_two_decays():
    base = random_model(30, 2, seed=4)
    i, j = next(ij for ij, w in sorted(base.weights.items()) if ij[0] != ij[1] and w > 0)
    slow = dataclasses.replace(base.default_kernel, decay=2 * base.default_kernel.decay)
    model = dataclasses.replace(base, kernel_overrides={(i, j): slow})
    log = simulate(model, 4.0, seed=5)
    assert len(log) > 50 and np.any(log.nodes == j)
    peak, _ = max_intensity_trace(model, log)
    assert peak == pytest.approx(reference_peak(model, log), rel=1e-9)


def test_peak_trace_memory_is_bounded_by_the_value_budget():
    # The chains topology at decay 0.1 lets a block span 5000 time units, so
    # without the value budget the 122k-event log would be one block of 1.2M
    # values per (node, probe) array, about 25 MB at the peak.  With blocks of
    # 2^18 values (2 MB an array) and the log-sized probe arrays it stays
    # near 9 MB.
    chains = {(b + k + 1, b + k): 0.8 for b in (0, 5) for k in range(4)}
    model = planted_model(10, chains, self_weight=1.2, decay=0.1, baseline_level=1.0,
                          slack=0.25)
    log = simulate(model, 4000.0, seed=0)
    assert len(log) > 100_000
    tracemalloc.start()
    try:
        max_intensity_trace(model, log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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
    # At decay 100, e^{100 (9 - 1)} overflows float64 unless the exponent cap
    # ends the trace's block before t = 9.
    fast = build_model(1, {(0, 0): 0.8}, level=1.0, decay=100.0)
    log = EventLog(n=1, horizon=10.0, times=np.array([1.0, 9.0]), nodes=np.array([0, 0]))
    assert max_intensity_trace(fast, log) == (pytest.approx(1.8, abs=1e-12), 1.0)


def test_max_intensity_trace_empty_log():
    base = BaselineSpec(family="sinusoidal", level=1.0, amplitude=0.5, frequency=1.0)
    model = build_model(1, {}, baselines=(base,), log_slope_bound=1.05)
    log = EventLog(n=1, horizon=20.0, times=np.array([]), nodes=np.array([]))
    peak, _ = max_intensity_trace(model, log)
    assert peak == pytest.approx(1.5, abs=1e-3)
    assert max_intensity_trace(build_model(1, {}, level=2.0), log) == (2.0, 0.0)


def test_max_intensity_trace_stays_within_horizon():
    # The grid np.arange(0, 0.3 + step / 2, step) ends at 0.30000000000000004.
    base = BaselineSpec(family="sinusoidal", level=1.0, amplitude=0.5, frequency=5.0)
    model = build_model(1, {}, baselines=(base,), log_slope_bound=5.0)
    log = EventLog(n=1, horizon=0.3, times=np.array([]), nodes=np.array([]))
    peak, at = max_intensity_trace(model, log)
    assert 0.0 <= at <= log.horizon
    assert peak == pytest.approx(intensity(model, log, 0, at), rel=1e-12)


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


def _save_events_line_by_line(log: EventLog, path) -> None:
    """The event-file writer as one formatted write per event."""
    with open(path, "w") as fh:
        seed = "none" if log.seed is None else str(log.seed)
        fp = log.fingerprint or "none"
        fh.write(f"# hawkesgraph-events n={log.n} horizon={log.horizon!r} seed={seed} model={fp}\n")
        for t, u in zip(log.times, log.nodes):
            fh.write(f"{float(t)!r} {int(u)}\n")


@pytest.mark.parametrize("lines", [None, 7])
def test_event_file_bytes_match_line_by_line_formatting(tmp_path, monkeypatch, lines):
    # Ties, t = 0, t = horizon, tiny and large times, and more lines than one
    # chunk of the writer.
    import hawkesgraph.simulation as simulation_module

    if lines is not None:
        monkeypatch.setattr(simulation_module, "_SAVE_LINES", lines)
    horizon = 1e6
    special = [0.0, 0.0, 5e-324, 1e-300, 1e-7, 1.0 / 3, 1.0 / 3, 123456.789, 1e5 + 1e-9,
               horizon, horizon]
    rng = np.random.default_rng(12)
    times = np.concatenate((special, rng.uniform(0.0, horizon, 70_000)))
    log = EventLog(n=3, horizon=horizon, times=times, nodes=rng.integers(0, 3, times.size),
                   seed=12, fingerprint="abc123")
    assert len(log) > simulation_module._SAVE_LINES
    save_events(log, str(tmp_path / "chunked.log"))
    _save_events_line_by_line(log, str(tmp_path / "lines.log"))
    assert (tmp_path / "chunked.log").read_bytes() == (tmp_path / "lines.log").read_bytes()
    assert load_events(str(tmp_path / "chunked.log")).same_events(log)


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
    for header, named in [
        ("# hawkesgraph-events n=1 horizon=5.0\n", r"truncated\.log.*'seed'"),
        ("# hawkesgraph-events n=1 horizon=5.0 seed=none model\n",
         r"truncated\.log: event-log header token 'model' is not key=value"),
        ("# hawkesgraph-events n=1 horizon=5.0 seed=x model=none\n",
         r"truncated\.log: invalid literal .* 'x'"),
    ]:
        path.write_text(header + "1.0 0\n")
        with pytest.raises(ValueError, match=named):
            load_events(str(path))
