import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hawkesgraph import (
    BaselineSpec,
    DependencyGraph,
    HawkesModel,
    KernelSpec,
    ModelConstants,
    load_model,
    save_model,
    true_graph,
    validate_model,
)
from hawkesgraph.model import _check_weight_bounds, _kernel_supremum
from oracles import build_model, plain_constants, reference_weight_bounds


def test_constant_baseline():
    b = BaselineSpec(family="constant", level=1.5)
    assert b.value(0.0) == 1.5
    assert b.value(123.4) == 1.5
    assert b.floor() == b.cap() == 1.5
    vals = b.value(np.array([0.0, 1.0, 2.0]))
    assert np.all(vals == 1.5)


def test_sinusoidal_baseline_values():
    b = BaselineSpec(family="sinusoidal", level=1.0, amplitude=0.5, frequency=2.0, phase=0.3)
    for t in (0.0, 0.7, 3.1):
        assert b.value(t) == pytest.approx(1.0 + 0.5 * math.sin(2.0 * t + 0.3), abs=1e-15)
    assert b.floor() == pytest.approx(0.5)
    assert b.cap() == pytest.approx(1.5)


def test_baseline_validation():
    with pytest.raises(ValueError):
        BaselineSpec(family="triangular", level=1.0)
    with pytest.raises(ValueError):
        BaselineSpec(family="constant", level=0.0)
    with pytest.raises(ValueError):
        BaselineSpec(family="sinusoidal", level=1.0, amplitude=1.0)
    with pytest.raises(ValueError):
        BaselineSpec(family="constant", level=1.0).value(-0.1)
    # a constant baseline's rate is its level: a field that would move it is rejected
    for stray in ({"amplitude": 0.5}, {"frequency": 2.0}, {"phase": 0.3}, {"amplitude": math.nan}):
        with pytest.raises(ValueError, match="constant baseline needs"):
            BaselineSpec(family="constant", level=1.0, **stray)


def test_exponential_kernel():
    k = KernelSpec(family="exponential", decay=2.0)
    assert k.value(3.0, 3.0) == 1.0
    assert k.value(3.5, 3.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert k.rate(17.0) == 2.0
    assert k.rate_floor() == k.rate_cap() == 2.0
    assert k.mass_bound() == pytest.approx(0.5)


def test_exponential_integral_closed_form_matches_quadrature():
    k = KernelSpec(family="exponential", decay=1.7)
    for t, lower in [(2.0, 0.0), (5.0, 1.5), (0.3, 0.0)]:
        expected, _ = quad(lambda x: k.value(t, x), lower, t, epsabs=1e-13)
        assert k.integral(t, lower) == pytest.approx(expected, abs=1e-10)


def test_modulated_kernel():
    k = KernelSpec(family="modulated", decay=2.0, decay_amplitude=0.5, decay_frequency=3.0)
    s = 1.2
    assert k.rate(s) == pytest.approx(2.0 + 0.5 * math.sin(3.0 * s))
    assert k.value(s, s) == 1.0
    assert k.value(s + 0.4, s) == pytest.approx(math.exp(-k.rate(s) * 0.4))
    assert k.rate_floor() == pytest.approx(1.5)
    assert k.rate_cap() == pytest.approx(2.5)
    assert k.mass_bound() == pytest.approx(1.0 / 1.5)
    got = k.integral(2.0, 0.5)
    expected, _ = quad(lambda x: k.value(2.0, x), 0.5, 2.0, epsabs=1e-13)
    assert got == pytest.approx(expected, abs=1e-9)


def test_kernel_validation():
    with pytest.raises(ValueError):
        KernelSpec(family="powerlaw", decay=1.0)
    with pytest.raises(ValueError):
        KernelSpec(family="exponential", decay=0.0)
    with pytest.raises(ValueError):
        KernelSpec(family="modulated", decay=1.0, decay_amplitude=1.0)
    with pytest.raises(ValueError):
        KernelSpec(family="modulated", decay=1.0, decay_amplitude=0.0)
    for stray in ({"decay_amplitude": 0.5}, {"decay_frequency": 3.0}):
        with pytest.raises(ValueError, match="exponential kernel needs"):
            KernelSpec(family="exponential", decay=1.0, **stray)
    k = KernelSpec(family="exponential", decay=1.0)
    with pytest.raises(ValueError):
        k.value(1.0, 2.0)
    with pytest.raises(ValueError):
        k.value(1.0, -0.5)
    with pytest.raises(ValueError):
        k.integral(1.0, 2.0)
    modulated = KernelSpec(family="modulated", decay=2.0, decay_amplitude=1.0, decay_frequency=1.0)
    for t in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match="integral needs"):
            modulated.integral(t)


def test_constants_validation():
    with pytest.raises(ValueError):
        plain_constants(baseline_floor=0.0)
    with pytest.raises(ValueError):
        plain_constants(stability_slack=1.0)
    with pytest.raises(ValueError):
        plain_constants(max_degree=-1)


def test_model_accessors():
    model = build_model(3, {(1, 0): 0.5, (0, 0): 0.8, (1, 1): 0.8, (2, 2): 0.8}, decay=2.0)
    assert model.weight(1, 0) == 0.5
    assert model.weight(0, 1) == 0.0
    mat = model.weight_matrix
    assert mat.shape == (3, 3)
    assert mat[1, 0] == 0.5 and mat[0, 1] == 0.0
    with pytest.raises(ValueError):
        mat[0, 0] = 9.0


def test_model_validation_errors():
    with pytest.raises(ValueError):
        build_model(0, {})
    with pytest.raises(ValueError):
        build_model(2, {(2, 0): 0.5})
    with pytest.raises(ValueError):
        build_model(2, {(1, 0): -0.5})
    with pytest.raises(ValueError):
        HawkesModel(
            n=2,
            weights={},
            baselines=(BaselineSpec(family="constant", level=1.0),),
            default_kernel=KernelSpec(family="exponential", decay=1.0),
            constants=plain_constants(),
        )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.5])
def test_model_rejects_weights_that_are_not_finite_and_nonnegative(bad):
    # w < 0 is False for NaN, so only a test that NaN fails catches it
    with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
        build_model(2, {(0, 0): 0.5, (1, 1): 0.5, (1, 0): bad})
    with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
        build_model(1, {(0, 0): bad})
    assert build_model(2, {(0, 0): 0.5, (1, 1): 0.0}).weight(1, 1) == 0.0


def test_kernel_overrides():
    slow = KernelSpec(family="exponential", decay=0.5)
    model = HawkesModel(
        n=2,
        weights={(1, 0): 0.5},
        baselines=tuple(BaselineSpec(family="constant", level=1.0) for _ in range(2)),
        default_kernel=KernelSpec(family="exponential", decay=2.0),
        constants=plain_constants(),
        kernel_overrides={(1, 0): slow},
    )
    assert model.kernel(1, 0) is slow
    assert model.kernel(0, 1).decay == 2.0
    assert set(model.distinct_kernels) == {slow, model.default_kernel}


def test_fingerprint_distinguishes_parameters():
    a = build_model(2, {(1, 0): 0.5})
    b = build_model(2, {(1, 0): 0.5})
    c = build_model(2, {(1, 0): 0.5000001})
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert len(a.fingerprint()) == 12


def test_dependency_graph_basics():
    g = DependencyGraph(4, frozenset({(0, 2), (1, 3)}))
    assert (0, 2) in g.edges and (0, 1) not in g.edges
    assert g.sorted_edges == [(0, 2), (1, 3)]
    with pytest.raises(ValueError):
        DependencyGraph(3, frozenset({(2, 1)}))
    with pytest.raises(ValueError):
        DependencyGraph(3, frozenset({(0, 3)}))


def test_dependency_graph_restrict_keeps_ambient_indices():
    g = DependencyGraph(5, frozenset({(0, 2), (2, 4), (1, 3)}))
    r = g.restrict({0, 2, 3})
    assert r.n == 5
    assert r.edges == frozenset({(0, 2)})
    with pytest.raises(ValueError):
        g.restrict(set())


def test_true_graph():
    model = build_model(
        3, {(1, 0): 0.5, (0, 1): 0.4, (2, 1): 0.3, (0, 0): 0.9, (1, 1): 0.9, (2, 2): 0.9}
    )
    g = true_graph(model)
    assert g.edges == frozenset({(0, 1), (1, 2)})


# --- assumption checks -------------------------------------------------------

def _valid_model():
    return build_model(
        2,
        {(1, 0): 0.5, (0, 0): 0.8, (1, 1): 0.8},
        level=1.0,
        decay=2.0,
        baseline_floor=0.9,
        self_gap=0.1,
        stability_slack=0.3,
    )


def test_validate_model_passes_clean_model():
    report = validate_model(_valid_model(), horizon=10.0)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == [
        "baseline-floor",
        "stability",
        "smoothness",
        "weight-bounds",
        "sparsity",
    ]
    assert all(c.margin >= 0 for c in report.checks)
    assert "PASS" in str(report)


def _single_failure(model, name, horizon=10.0):
    report = validate_model(model, horizon=horizon)
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == [name], f"expected only {name} to fail, got {failed}"
    return report


def test_validate_flags_baseline_floor():
    m = build_model(2, {(1, 0): 0.5, (0, 0): 0.8, (1, 1): 0.8}, level=0.5,
                    decay=2.0, baseline_floor=0.6, stability_slack=0.3)
    report = _single_failure(m, "baseline-floor")
    check = report.checks[0]
    assert check.margin == pytest.approx(-0.1)
    assert not report.passed


def test_validate_flags_stability():
    m = build_model(2, {(1, 0): 1.4, (0, 0): 1.45, (1, 1): 1.45}, decay=1.0,
                    weight_cap=2.0, kernel_mass_bound=1.0, stability_slack=0.05)
    _single_failure(m, "stability", horizon=30.0)


def test_validate_flags_kernel_mass_bound():
    # row sums are fine, the declared kernel mass cap is not
    m = build_model(2, {(1, 0): 0.1, (0, 0): 0.2, (1, 1): 0.2}, decay=0.4,
                    kernel_mass_bound=2.0, stability_slack=0.05)
    report = validate_model(m, horizon=10.0)
    stability = next(c for c in report.checks if c.name == "stability")
    assert not stability.passed
    assert "mass bound" in stability.worst


def test_validate_flags_smoothness():
    fast = BaselineSpec(family="sinusoidal", level=1.0, amplitude=0.9, frequency=5.0)
    m = HawkesModel(
        n=1,
        weights={(0, 0): 0.3},
        baselines=(fast,),
        default_kernel=KernelSpec(family="exponential", decay=1.0),
        constants=plain_constants(baseline_floor=0.05, log_slope_bound=5.0),
    )
    # max log-slope is amp*freq/floor = 45, declared bound only 5
    _single_failure(m, "smoothness")


def test_validate_flags_weight_bounds():
    missing_self = build_model(2, {(1, 0): 0.5, (1, 1): 0.8}, decay=4.0, stability_slack=0.3)
    _single_failure(missing_self, "weight-bounds")
    below_floor = build_model(
        2, {(1, 0): 0.01, (0, 0): 0.8, (1, 1): 0.8}, decay=4.0,
        weight_floor=0.05, stability_slack=0.3,
    )
    _single_failure(below_floor, "weight-bounds")
    gap_violated = build_model(
        2, {(1, 0): 0.78, (0, 0): 0.8, (1, 1): 0.8}, decay=4.0,
        self_gap=0.1, stability_slack=0.3,
    )
    _single_failure(gap_violated, "weight-bounds")


def test_weight_bounds_match_the_pairwise_loop():
    # weights and bounds drawn from a few values make many margins equal, so
    # the first of equal margins, in the loop's order, must name the worst
    rng = np.random.default_rng(17)
    values = (0.05, 0.4, 0.8, 1.2, 2.0)
    cases = []
    for k in range(150):
        n = (1, 2, 3, 7, 30)[k % 5]
        weights = {(i, j): float(rng.choice(values)) for i in range(n) for j in range(n)
                   if rng.random() < (0.9 if i == j else min(1.0, 3.0 / n))}
        cases.append(build_model(n, weights, weight_floor=float(rng.choice(values[:2])),
                                 weight_cap=float(rng.choice(values[2:])),
                                 self_gap=float(rng.choice(values[:2]))))
    cases.append(build_model(2, {(0, 1): 0.4}, weight_floor=float("nan")))
    cases.append(build_model(1, {}))
    worst = set()
    for model in cases:
        check = _check_weight_bounds(model)
        assert (check.margin, check.worst) == reference_weight_bounds(model)
        worst.add(re.sub(r"\d", "", check.worst))
    # every kind of margin was the worst somewhere ("none" needs a NaN weight,
    # which the model rejects)
    assert worst >= {"self-weight (,) positivity", "self-weight (,)", "self gap at (,)",
                     "(,) below weight floor", "(,) above weight cap"}


def test_validate_flags_sparsity():
    weights = {(0, j): 0.2 for j in range(1, 4)}
    weights.update({(i, i): 0.9 for i in range(4)})
    m = build_model(4, weights, decay=2.0, max_degree=2, stability_slack=0.2)
    _single_failure(m, "sparsity")


def test_validate_model_argument_errors():
    with pytest.raises(ValueError):
        validate_model(_valid_model(), horizon=0.0)
    with pytest.raises(ValueError):
        validate_model(_valid_model(), horizon=-1.0)
    with pytest.raises(ValueError, match="horizon must be positive"):
        validate_model(_valid_model(), horizon=math.nan)


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


@pytest.mark.parametrize("horizon", [20.0, 100.0, 400.0, 1000.0])
def test_smoothness_sees_the_modulated_rate_cap_at_every_horizon(horizon):
    # The kernel's log-slope |d/dt log phi(t, s)| = rate(s) reaches 3 + 1 = 4,
    # above the declared 3.5 at every horizon; sampled time-slices can miss it.
    m = HawkesModel(
        n=1,
        weights={(0, 0): 0.3},
        baselines=(BaselineSpec(family="constant", level=1.0),),
        default_kernel=KernelSpec(family="modulated", decay=3.0, decay_amplitude=1.0,
                                  decay_frequency=1.0),
        constants=plain_constants(log_slope_bound=3.5),
    )
    check = _check(validate_model(m, horizon=horizon), "smoothness")
    assert not check.passed
    assert check.margin == pytest.approx(3.5 - 1.01 * 4.0, rel=1e-12)


def test_smoothness_margin_is_the_sinusoidal_supremum():
    level, amp, freq = 1.3, -0.7, 2.5
    b = BaselineSpec(family="sinusoidal", level=level, amplitude=amp, frequency=freq, phase=0.4)
    m = HawkesModel(
        n=1,
        weights={(0, 0): 0.3},
        baselines=(b,),
        default_kernel=KernelSpec(family="exponential", decay=0.5),
        constants=plain_constants(baseline_floor=0.6, log_slope_bound=3.0),
    )
    sup = abs(amp) * freq / math.sqrt(level**2 - amp**2)
    check = _check(validate_model(m, horizon=10.0), "smoothness")
    assert check.passed
    assert check.margin == pytest.approx(3.0 - 1.01 * sup, rel=1e-12)
    # the supremum is attained: a dense scan of one period comes within 1e-6
    t = np.linspace(0.0, 2 * math.pi / freq, 200_001)
    slope = np.abs(amp * freq * np.cos(freq * t + 0.4)) / b.value(t)
    assert slope.max() <= sup * (1 + 1e-12)
    assert slope.max() == pytest.approx(sup, rel=1e-6)


def test_modulated_stability_margin_is_pinned():
    # n = 10 directed ring with sinusoidal baselines and a modulated default
    # kernel.  Every row is 0.6 + 0.4 times the kernel's supremum, which a
    # dense scan (step 2e-4 over [0, reach + period]) puts at 0.470468878254
    # near t = 18.05.  Past the reach the integral repeats with period 2 pi,
    # so the horizon adds nothing past reach + period.
    n = 10
    baselines = tuple(
        BaselineSpec(family="sinusoidal", level=1.0, amplitude=0.5,
                     frequency=0.5 + 0.15 * i, phase=0.6 * i)
        for i in range(n)
    )
    kernel = KernelSpec(family="modulated", decay=3.0, decay_amplitude=1.0, decay_frequency=1.0)
    weights = {}
    for i in range(n):
        weights[(i, i)] = 0.6
        weights[(i, (i - 1) % n)] = 0.4
    m = HawkesModel(
        n=n, weights=weights, baselines=baselines, default_kernel=kernel,
        constants=ModelConstants(
            baseline_floor=0.5, baseline_cap=1.5, weight_floor=0.4, weight_cap=0.4,
            self_gap=0.15, log_slope_bound=4.2, kernel_mass_bound=kernel.mass_bound(),
            stability_slack=0.4, max_degree=1,
        ),
    )
    report = validate_model(m, horizon=400.0)
    assert report.passed
    stability = _check(report, "stability")
    assert stability.margin == pytest.approx(0.6 - 0.470468878254, abs=1e-9)
    assert stability.worst == "row 0"


_ACCURACY_KERNELS = [(2.0, 1.5, 1.3), (3.0, 1.0, 1.0), (1.0, 0.9, 0.05)]


@pytest.mark.parametrize("decay, amplitude, frequency", _ACCURACY_KERNELS)
def test_modulated_integral_matches_quadrature_at_long_horizons(decay, amplitude, frequency):
    k = KernelSpec(family="modulated", decay=decay, decay_amplitude=amplitude,
                   decay_frequency=frequency)
    reach = -math.log(1e-12) / k.rate_floor()
    ts = np.array([0.0, 0.7, 13.0, 97.3, 400.0, 1000.0])
    got = k.integral(ts)
    assert got.shape == ts.shape and got[0] == 0.0
    for t, value in zip(ts, got):
        # quad on short pieces of the window, so no piece nears its subdivision limit
        edges = np.linspace(max(0.0, t - reach), t, 200)
        expected = sum(quad(lambda x: k.value(t, x), a, b, epsabs=1e-15)[0]
                       for a, b in zip(edges[:-1], edges[1:]))
        assert value == pytest.approx(expected, abs=1e-11)
        assert k.integral(float(t)) == pytest.approx(value, abs=1e-14)


@pytest.mark.parametrize("decay, amplitude, frequency, horizon", [
    (2.0, 1.5, 1.3, 20.0),  # several coarse local maxima of nearly equal height
    (1.0, 0.9, 0.05, 50.0),
])
def test_modulated_supremum_matches_a_dense_scan(decay, amplitude, frequency, horizon):
    k = KernelSpec(family="modulated", decay=decay, decay_amplitude=amplitude,
                   decay_frequency=frequency)
    end = min(horizon, -math.log(1e-12) / k.rate_floor() + 2 * math.pi / frequency)
    grid = np.linspace(0.0, end, math.ceil(end / 2e-3) + 1)
    top = grid[np.argmax(k.integral(grid))]
    fine = np.clip(np.linspace(top - 2e-3, top + 2e-3, 4001), 0.0, end)  # step 1e-6
    dense = k.integral(fine).max()
    sup = _kernel_supremum(k, horizon)
    assert sup == pytest.approx(dense, abs=1e-8) and sup >= dense - 1e-12


# (1, 0.9, 3) oscillates fast enough that adaptive quadrature over [0, t]
# runs out of subdivisions at these horizons.
@pytest.mark.parametrize("horizon", [400.0, 1000.0])
@pytest.mark.parametrize("decay, amplitude, frequency", _ACCURACY_KERNELS + [(1.0, 0.9, 3.0)])
def test_modulated_stability_check_warns_at_no_horizon(decay, amplitude, frequency, horizon):
    kernel = KernelSpec(family="modulated", decay=decay, decay_amplitude=amplitude,
                        decay_frequency=frequency)
    m = HawkesModel(
        n=2, weights={(0, 0): 0.02, (1, 1): 0.02, (1, 0): 0.01},
        baselines=(BaselineSpec(family="constant", level=1.0),) * 2, default_kernel=kernel,
        constants=plain_constants(kernel_mass_bound=kernel.mass_bound(), stability_slack=0.5),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stability = _check(validate_model(m, horizon), "stability")
    assert stability.passed
    assert stability.margin == pytest.approx(0.5 - 0.03 * _kernel_supremum(kernel, horizon))


def test_slow_fast_modulated_integral_stays_in_bounded_memory():
    # Rate floor 0.02 (reach about 1382) and frequency 2: one period of pi needs
    # 21 panels plus the split, 352 values per time, so 8,000 times need 2.8M
    # integrand values; they are taken 2^20 at a time (about 26 MB at peak).
    # Whole, each array would hold 22 MB and the call would peak near 70 MB.
    k = KernelSpec(family="modulated", decay=1.0, decay_amplitude=0.98, decay_frequency=2.0)
    reach = -math.log(1e-12) / k.rate_floor()
    ts = np.repeat([1500.0, 3001.3], 4000)
    tracemalloc.start()
    try:
        got = k.integral(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
    for t, value in zip(ts[::4000], got[::4000]):
        edges = np.linspace(t - reach, t, 400)
        expected = sum(quad(lambda x: k.value(t, x), a, b, epsabs=1e-15)[0]
                       for a, b in zip(edges[:-1], edges[1:]))
        assert value == pytest.approx(expected, abs=1e-11)


def _per_period_quad(k, t, lower):
    # quad on one period of the reach window at a time, newest first
    period = 2 * math.pi / abs(k.decay_frequency)
    start = max(lower, t + math.log(1e-12) / k.rate_floor())
    edges = np.append(np.arange(t, start, -period), start)[::-1]
    return sum(quad(lambda x: k.value(t, x), a, b, epsabs=1e-15)[0]
               for a, b in zip(edges[:-1], edges[1:]))


# Rate floors 0.01 and 0.001 with fast frequencies: a rule over the whole reach
# window would need 245,922 and 389,464 panels; one period needs 28 and 89.
_TINY_FLOOR_KERNELS = [(1.0, 0.99, 20.0), (1.0, 0.999, 1.0)]


@pytest.mark.parametrize("decay, amplitude, frequency", _TINY_FLOOR_KERNELS)
def test_tiny_rate_floor_kernels_fold_onto_one_period(decay, amplitude, frequency):
    kernel = KernelSpec(family="modulated", decay=decay, decay_amplitude=amplitude,
                        decay_frequency=frequency)
    for lower in (0.0, 0.37):
        ts = np.array([lower, lower + 0.3, 5.0, 97.3])
        for t, value in zip(ts, kernel.integral(ts, lower)):
            assert value == pytest.approx(_per_period_quad(kernel, t, lower), abs=1e-10)
    m = HawkesModel(
        n=1, weights={(0, 0): 0.001}, baselines=(BaselineSpec(family="constant", level=1.0),),
        default_kernel=kernel, constants=plain_constants(kernel_mass_bound=kernel.mass_bound()),
    )
    stability = _check(validate_model(m, 100.0), "stability")
    assert stability.passed
    sup = _kernel_supremum(kernel, 100.0)
    assert stability.margin == pytest.approx(0.95 - 0.001 * sup)
    assert sup >= kernel.integral(np.linspace(0.0, 100.0, 1001)).max()


@pytest.mark.parametrize("periods", [1, 40])
@pytest.mark.parametrize("decay, amplitude, frequency", [(2.0, 1.5, 1.3)] + _TINY_FLOOR_KERNELS)
def test_modulated_integral_is_split_where_the_copy_count_steps(decay, amplitude, frequency,
                                                                periods):
    # Past t = lower + periods * P the window's oldest copies reach lower, so
    # inside the window their count steps at age t - lower - periods * P.
    k = KernelSpec(family="modulated", decay=decay, decay_amplitude=amplitude,
                   decay_frequency=frequency)
    lower, period = 0.37, 2 * math.pi / frequency
    step = lower + periods * period
    ts = step + np.array([-1e-9, 0.0, 1e-9, 0.01 * period, 0.1 * period])
    for t, value in zip(ts, k.integral(ts, lower)):
        assert value == pytest.approx(_per_period_quad(k, t, lower), abs=1e-11)


def test_modulated_rule_past_the_value_budget_is_rejected():
    # A rate floor of 1e-10 needs 4,403,744 integrand values for one t even
    # on one period, four times the 2^20 budget.
    kernel = KernelSpec(family="modulated", decay=1.0, decay_amplitude=1 - 1e-10,
                        decay_frequency=1.0)
    m = HawkesModel(
        n=1, weights={(0, 0): 0.001}, baselines=(BaselineSpec(family="constant", level=1.0),),
        default_kernel=kernel, constants=plain_constants(kernel_mass_bound=kernel.mass_bound()),
    )
    with pytest.raises(ValueError, match="needs 4403744 integrand values per t"):
        kernel.integral(5.0)
    with pytest.raises(ValueError, match="integrand values"):
        validate_model(m, 100.0)


def test_modulated_kernel_without_frequency_peaks_at_the_horizon():
    # decay_frequency 0 leaves the rate at decay, so the integral is the
    # exponential closed form and grows with t.
    k = KernelSpec(family="modulated", decay=2.0, decay_amplitude=1.5, decay_frequency=0.0)
    for horizon in (0.3, 50.0, 400.0):
        expected = (1.0 - math.exp(-2.0 * horizon)) / 2.0
        assert _kernel_supremum(k, horizon) == pytest.approx(expected, abs=1e-12)


def test_package_imports_no_scipy():
    code = ("import sys, hawkesgraph, hawkesgraph.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


# --- model files -------------------------------------------------------------

def test_model_roundtrip(tmp_path):
    model = HawkesModel(
        n=3,
        weights={(1, 0): 0.5123456789012345, (2, 1): 0.25, (0, 0): 0.9, (1, 1): 0.9, (2, 2): 0.9},
        baselines=(
            BaselineSpec(family="constant", level=1.0),
            BaselineSpec(family="sinusoidal", level=1.2, amplitude=0.3, frequency=2.0, phase=0.1),
            BaselineSpec(family="constant", level=0.7),
        ),
        default_kernel=KernelSpec(family="exponential", decay=2.0),
        constants=plain_constants(),
        kernel_overrides={(2, 1): KernelSpec(family="modulated", decay=3.0,
                                             decay_amplitude=0.5, decay_frequency=1.0)},
    )
    path = tmp_path / "model.yaml"
    save_model(model, str(path))
    back = load_model(str(path))
    assert back == model
    assert back.fingerprint() == model.fingerprint()


def test_model_file_broadcast_baseline(tmp_path):
    path = tmp_path / "model.yaml"
    path.write_text(
        "nodes: 3\n"
        "constants: {baseline_floor: 0.5, baseline_cap: 2.0, weight_floor: 0.05,\n"
        "  weight_cap: 1.5, self_gap: 0.05, log_slope_bound: 5.0,\n"
        "  kernel_mass_bound: 2.0, stability_slack: 0.05, max_degree: 4}\n"
        "baselines: {family: constant, level: 1.25}\n"
        "default_kernel: {family: exponential, decay: 2.0}\n"
        "weights:\n"
        "- [1, 0, 0.5]\n"
    )
    model = load_model(str(path))
    assert model.n == 3
    assert all(b.level == 1.25 for b in model.baselines)
    assert model.weight(1, 0) == 0.5


def _file_model():
    return HawkesModel(
        n=2,
        weights={(1, 0): 0.5123456789012345, (0, 0): 0.9, (1, 1): 0.9},
        baselines=(
            BaselineSpec(family="constant", level=1.0),
            BaselineSpec(family="sinusoidal", level=1.2, amplitude=0.3, frequency=2.0, phase=0.1),
        ),
        default_kernel=KernelSpec(family="exponential", decay=2.0),
        constants=plain_constants(),
        kernel_overrides={(1, 0): KernelSpec(family="modulated", decay=3.0,
                                             decay_amplitude=0.5, decay_frequency=1.0)},
    )


_FILE_TEXT = """\
nodes: 2
constants:
  baseline_floor: 0.5
  baseline_cap: 2.0
  weight_floor: 0.05
  weight_cap: 1.5
  self_gap: 0.05
  log_slope_bound: 5.0
  kernel_mass_bound: 2.0
  stability_slack: 0.05
  max_degree: 4
baselines:
- family: constant
  level: 1.0
- family: sinusoidal
  level: 1.2
  amplitude: 0.3
  frequency: 2.0
  phase: 0.1
default_kernel:
  family: exponential
  decay: 2.0
weights:
- - 0
  - 0
  - 0.9
- - 1
  - 0
  - 0.5123456789012345
- - 1
  - 1
  - 0.9
kernel_overrides:
- target: 1
  source: 0
  family: modulated
  decay: 3.0
  decay_amplitude: 0.5
  decay_frequency: 1.0
"""


def test_model_file_text_and_fingerprint_are_pinned(tmp_path):
    model = _file_model()
    path = tmp_path / "model.yaml"
    save_model(model, str(path))
    assert path.read_text() == _FILE_TEXT
    assert model.fingerprint() == "d9e0efab2259"
    assert load_model(str(path)) == model


@pytest.mark.parametrize("text, named", [
    ("", "is not a model file"),
    (_FILE_TEXT.replace("constants:", "limits:"), "lacks 'constants'"),
    (_FILE_TEXT.replace("  max_degree: 4\n", ""), "lacks 'max_degree'"),
    (_FILE_TEXT.replace("  decay: 2.0\n", ""), "lacks 'decay'"),
    (_FILE_TEXT.replace("  level: 1.0\n", "  level: 1.0\n  amplitude: 0.9\n"),
     "constant baseline needs amplitude, frequency and phase 0"),
    (_FILE_TEXT.replace("  level: 1.0\n", "  level: -1.0\n"), "baseline level must be positive"),
    (_FILE_TEXT.replace("  decay: 2.0\n", "  decay: 2.0\n  decay_frequency: 5.0\n"),
     "exponential kernel needs"),
    (_FILE_TEXT.replace("stability_slack: 0.05", "stability_slack: 1.5"), "stability_slack"),
], ids=["empty", "no-constants-section", "no-max-degree", "no-kernel-decay",
        "constant-baseline-amplitude", "negative-level", "exponential-kernel-frequency",
        "slack-out-of-range"])
def test_load_model_names_what_a_malformed_file_lacks(tmp_path, text, named):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=named) as info:
        load_model(str(path))
    assert str(path) in str(info.value)
