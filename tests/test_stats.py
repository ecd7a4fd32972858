import numpy as np
import pytest

from hawkesgraph import (
    EventLog,
    PairStatistics,
    accumulate,
    accumulate_all,
    bin_count,
    bin_events,
    jitter,
    load_stats,
    pair_delta,
    save_stats,
    simulate,
    triple_delta,
    window_count,
)
from oracles import build_model, naive_pair_stats


def _uniform_log(rng, n=3, horizon=10.0, events=60):
    times = rng.uniform(0.0, horizon, size=events)
    nodes = rng.integers(0, n, size=events)
    return EventLog(n=n, horizon=horizon, times=times, nodes=nodes)


def test_bin_count_examples():
    assert bin_count(1.0, 0.1) == 10
    assert bin_count(0.95, 0.1) == 10
    assert bin_count(0.05, 0.1) == 1
    assert bin_count(3.0, 1.0) == 3
    # quotient lands a hair under an integer: snapped up, not padded
    assert bin_count(0.3, 0.1) == 3
    with pytest.raises(ValueError):
        bin_count(1.0, 0.0)
    with pytest.raises(ValueError):
        bin_count(0.0, 0.1)


def test_window_count_examples():
    assert window_count(0.9, 0.1) == 3
    assert window_count(1.0, 0.1) == 3
    assert window_count(0.3, 0.1) == 1
    assert window_count(0.29, 0.1) == 0
    assert window_count(6.0, 1.0) == 2


def test_bin_events_boundaries():
    # half-open bins: an edge event belongs to the bin it starts; the
    # horizon endpoint is clamped into the last bin
    log = EventLog(n=1, horizon=1.0, times=np.array([0.0, 0.1, 0.35, 0.999999, 1.0]),
                   nodes=np.zeros(5, dtype=int))
    grid = bin_events(log, 0.1)
    assert grid.bins == 10
    assert grid.counts[0].tolist() == [1, 1, 0, 1, 0, 0, 0, 0, 0, 2]
    with pytest.raises(ValueError):
        grid.counts[0, 0] = 5


def test_bin_events_uses_float_edges_consistently():
    # 0.3 sits just below the float product 3 * 0.1, so it stays in bin 2;
    # the independent edge-bisection oracle places it the same way
    log = EventLog(n=1, horizon=1.0, times=np.array([0.3]), nodes=np.array([0]))
    grid = bin_events(log, 0.1)
    assert grid.counts[0].tolist() == [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    edges = np.arange(1, 10) * 0.1
    assert int(np.searchsorted(edges, 0.3, side="right")) == 2


def test_bin_events_matches_oracle_on_awkward_widths():
    rng = np.random.default_rng(1)
    for eps in (0.1, 0.07, 0.3, 1.0 / 3.0):
        log = _uniform_log(rng, n=2, horizon=7.3, events=200)
        grid = bin_events(log, eps)
        d1, d2, k = naive_pair_stats(log, 0, 1, eps)
        s = accumulate(grid, 0, 1)
        assert (s.pair_sum, s.triple_sum, s.windows) == (d1, d2, k)


def test_pair_delta_hand_case():
    log = EventLog(n=2, horizon=6.0, times=np.array([0.5, 1.5, 3.5, 4.5]),
                   nodes=np.array([0, 1, 1, 0]))
    grid = bin_events(log, 1.0)
    assert pair_delta(grid, 0, 1, 0) == 1
    assert pair_delta(grid, 1, 0, 0) == -1
    assert pair_delta(grid, 0, 1, 1) == -1  # j leads in the second window
    with pytest.raises(ValueError):
        pair_delta(grid, 0, 0, 0)
    with pytest.raises(ValueError):
        pair_delta(grid, 0, 1, 2)


def test_pair_delta_needs_exactly_one():
    log = EventLog(n=2, horizon=3.0, times=np.array([0.2, 0.7, 1.5]),
                   nodes=np.array([0, 0, 1]))
    grid = bin_events(log, 1.0)
    assert pair_delta(grid, 0, 1, 0) == 0  # two i-events in the lead bin


def test_triple_delta_hand_cases():
    def one_window(nodes):
        log = EventLog(n=2, horizon=3.0, times=np.array([0.5, 1.5, 2.5]),
                       nodes=np.array(nodes))
        return bin_events(log, 1.0)

    assert triple_delta(one_window([0, 0, 1]), 0, 1, 0) == 1
    assert triple_delta(one_window([0, 1, 0]), 0, 1, 0) == -2
    assert triple_delta(one_window([1, 0, 0]), 0, 1, 0) == 1
    assert triple_delta(one_window([0, 0, 0]), 0, 1, 0) == 0
    assert triple_delta(one_window([0, 1, 1]), 1, 0, 0) == 1  # jii from the other side
    with pytest.raises(ValueError):
        triple_delta(one_window([0, 0, 1]), 0, 1, 1)


def test_pair_statistics_bounds():
    with pytest.raises(ValueError):
        PairStatistics(0, 1, pair_sum=5, triple_sum=0, windows=4, epsilon=0.1, horizon=1.2)
    with pytest.raises(ValueError):
        PairStatistics(0, 1, pair_sum=0, triple_sum=9, windows=4, epsilon=0.1, horizon=1.2)


def test_accumulate_matches_oracle_bulk():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        horizon = float(rng.uniform(4.0, 15.0))
        eps = float(rng.choice([0.1, 0.2, 0.25, 0.5]))
        events = int(rng.integers(10, 120))
        log = _uniform_log(rng, n=n, horizon=horizon, events=events)
        grid = bin_events(log, eps)
        i, j = rng.choice(n, size=2, replace=False)
        s = accumulate(grid, int(i), int(j))
        d1, d2, k = naive_pair_stats(log, int(i), int(j), eps)
        assert (s.pair_sum, s.triple_sum, s.windows) == (d1, d2, k)


def test_accumulate_all_matches_accumulate():
    rng = np.random.default_rng(11)
    for _ in range(5):
        log = _uniform_log(rng, n=4, horizon=12.0, events=150)
        grid = bin_events(log, 0.25)
        table = accumulate_all(grid)
        assert len(table) == 12
        for (i, j), s in table.items():
            assert s == accumulate(grid, i, j)


@pytest.mark.parametrize("stride_bins", [3, 1])
def test_accumulate_all_matches_oracle_on_multiword_rows(stride_bins):
    # 12 nodes and more than 64 windows, not a multiple of 64: each node's
    # occupancy spans several packed words and the last one is padded
    rng = np.random.default_rng(31)
    log = _uniform_log(rng, n=12, horizon=30.0, events=1200)
    table = accumulate_all(bin_events(log, 0.1), stride_bins=stride_bins)
    assert len(table) == 12 * 11
    windows = next(iter(table.values())).windows
    assert windows > 64 and windows % 64 != 0
    for (i, j), s in table.items():
        want = naive_pair_stats(log, i, j, 0.1, stride_bins)
        assert (s.pair_sum, s.triple_sum, s.windows) == want


def test_accumulate_all_is_independent_of_row_blocking(monkeypatch):
    import hawkesgraph.stats as stats_module

    rng = np.random.default_rng(37)
    log = _uniform_log(rng, n=7, horizon=25.0, events=500)
    grid = bin_events(log, 0.1)
    whole = accumulate_all(grid)
    # one packed row set of 7 nodes x 2 words is 112 bytes: blocks of one
    # row, then of three rows with a shorter last block
    for budget in (1, 3 * 112):
        monkeypatch.setattr(stats_module, "_BLOCK_BYTES", budget)
        assert accumulate_all(grid) == whole


def test_pair_sum_antisymmetry():
    rng = np.random.default_rng(13)
    log = _uniform_log(rng, n=3, horizon=20.0, events=300)
    grid = bin_events(log, 0.2)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        fwd = accumulate(grid, i, j)
        rev = accumulate(grid, j, i)
        assert fwd.pair_sum == -rev.pair_sum
        assert fwd.windows == rev.windows


def test_overlapping_stride_matches_oracle():
    rng = np.random.default_rng(17)
    log = _uniform_log(rng, n=2, horizon=9.0, events=100)
    grid = bin_events(log, 0.3)
    s = accumulate(grid, 0, 1, stride_bins=1)
    d1, d2, k = naive_pair_stats(log, 0, 1, 0.3, stride_bins=1)
    assert (s.pair_sum, s.triple_sum, s.windows) == (d1, d2, k)
    assert s.windows > accumulate(grid, 0, 1).windows
    with pytest.raises(ValueError):
        accumulate(grid, 0, 1, stride_bins=0)


def test_independent_nodes_have_small_pair_sums():
    model = build_model(2, {}, level=1.0)
    total, total_sq = 0, 0
    for seed in range(40):
        log = simulate(model, 60.0, seed=seed)
        s = accumulate(bin_events(log, 0.2), 0, 1)
        total += s.pair_sum
        total_sq += s.pair_sum**2
    # mean of an antisymmetric null statistic: zero within 4 sigma
    assert abs(total) <= 4 * np.sqrt(total_sq)


def test_jitter_basics():
    rng = np.random.default_rng(23)
    log = _uniform_log(rng, n=2, horizon=5.0, events=40)
    same = jitter(log, 0.0, seed=1)
    assert same.same_events(log)
    moved = jitter(log, 0.05, seed=1)
    again = jitter(log, 0.05, seed=1)
    assert moved.same_events(again)
    assert not moved.same_events(log)
    assert moved.times.min() >= 0.0 and moved.times.max() <= 5.0
    assert np.array_equal(np.sort(moved.nodes), np.sort(log.nodes))
    with pytest.raises(ValueError):
        jitter(log, -0.1, seed=1)


def test_stats_file_roundtrip(tmp_path):
    rng = np.random.default_rng(29)
    log = _uniform_log(rng, n=3, horizon=11.17, events=200)
    table = accumulate_all(bin_events(log, 0.21))
    path = tmp_path / "stats.csv"
    save_stats(table, str(path))
    back = load_stats(str(path))
    assert back == table
    path.write_text("i,j,who,knows\n")
    with pytest.raises(ValueError, match="not a pair-statistics file"):
        load_stats(str(path))
