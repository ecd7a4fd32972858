import tracemalloc

import numpy as np
import pytest

from hawkesgraph import (
    EventLog,
    PairStatistics,
    PairTable,
    accumulate_all,
    bin_count,
    bin_events,
    jitter,
    simulate,
    window_count,
)
from hawkesgraph.stats import _bin_index
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
    times = np.array([0.0, 0.1, 0.35, 0.999999, 1.0])
    assert bin_count(1.0, 0.1) == 10
    assert _bin_index(times, 0.1, 10).tolist() == [0, 1, 3, 9, 9]
    log = EventLog(n=1, horizon=1.0, times=times, nodes=np.zeros(5, dtype=int))
    grid = bin_events(log, 0.1)
    # three windows over bins 0-8: bins 0 and 3 are first in windows 0 and 1,
    # bin 1 is second in window 0, and the doubled bin 9 is in no window
    assert grid.occupancy.shape == (3, 1, 1)
    assert np.bitwise_count(grid.occupancy).sum(axis=2).ravel().tolist() == [2, 1, 0]
    with pytest.raises(ValueError):
        grid.occupancy[0, 0, 0] = 5


def test_bin_events_uses_float_edges_consistently():
    # 0.3 sits just below the float product 3 * 0.1, so it stays in bin 2;
    # the independent edge-bisection oracle places it the same way
    assert _bin_index(np.array([0.3]), 0.1, 10).tolist() == [2]
    edges = np.arange(1, 10) * 0.1
    assert int(np.searchsorted(edges, 0.3, side="right")) == 2


def test_bin_events_matches_oracle_on_awkward_widths():
    rng = np.random.default_rng(1)
    for eps in (0.1, 0.07, 0.3, 1.0 / 3.0):
        log = _uniform_log(rng, n=2, horizon=7.3, events=200)
        grid = bin_events(log, eps)
        d1, d2, k = naive_pair_stats(log, 0, 1, eps)
        s = accumulate_all(grid)[(0, 1)]
        assert (s.pair_sum, s.triple_sum, s.windows) == (d1, d2, k)


def test_pair_delta_hand_case():
    def pair_sums(times, nodes, horizon):
        log = EventLog(n=2, horizon=horizon, times=np.array(times), nodes=np.array(nodes))
        table = accumulate_all(bin_events(log, 1.0))
        return table[(0, 1)].pair_sum, table[(1, 0)].pair_sum, table.windows

    # i leads in the first window, j in the second
    assert pair_sums([0.5, 1.5], [0, 1], 3.0) == (1, -1, 1)
    assert pair_sums([3.5, 4.5], [1, 0], 6.0) == (-1, 1, 2)
    assert pair_sums([0.5, 1.5, 3.5, 4.5], [0, 1, 1, 0], 6.0) == (0, 0, 2)
    table = accumulate_all(bin_events(EventLog(n=2, horizon=3.0, times=np.array([0.5]),
                                               nodes=np.array([0])), 1.0))
    for key in ((0, 0), (0, 2), (-1, 0)):
        with pytest.raises(KeyError):
            table[key]


def test_pair_delta_needs_exactly_one():
    log = EventLog(n=2, horizon=3.0, times=np.array([0.2, 0.7, 1.5]),
                   nodes=np.array([0, 0, 1]))
    table = accumulate_all(bin_events(log, 1.0))
    assert table[(0, 1)].pair_sum == 0  # two i-events in the lead bin


def test_triple_delta_hand_cases():
    def one_window(nodes):
        log = EventLog(n=2, horizon=3.0, times=np.array([0.5, 1.5, 2.5]),
                       nodes=np.array(nodes))
        return accumulate_all(bin_events(log, 1.0))

    assert one_window([0, 0, 1])[(0, 1)].triple_sum == 1
    assert one_window([0, 1, 0])[(0, 1)].triple_sum == -2
    assert one_window([1, 0, 0])[(0, 1)].triple_sum == 1
    assert one_window([0, 0, 0])[(0, 1)].triple_sum == 0
    assert one_window([0, 1, 1])[(1, 0)].triple_sum == 1  # jii from the other side
    assert one_window([0, 0, 1]).windows == 1


def test_pair_statistics_bounds():
    def table(pair, triple):
        return PairTable(pair=np.array(pair), triple=np.array(triple), windows=4,
                         epsilon=0.1, horizon=1.2)

    ok = table([[0, 4], [-4, 0]], [[0, -8], [8, 0]])
    with pytest.raises(ValueError):
        ok.pair[0, 1] = 0
    with pytest.raises(ValueError, match="window count"):
        table([[0, 5], [-5, 0]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="window count"):
        table([[0, 0], [0, 0]], [[0, 9], [0, 0]])
    with pytest.raises(ValueError, match="same shape"):
        table([[0, 0], [0, 0]], [[0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="same shape"):
        table([0, 0], [0, 0])


def test_pair_table_is_a_mapping_of_ordered_pairs():
    rng = np.random.default_rng(19)
    log = _uniform_log(rng, n=4, horizon=12.0, events=150)
    table = accumulate_all(bin_events(log, 0.25))
    keys = [(i, j) for i in range(4) for j in range(4) if i != j]
    assert table.n == 4 and len(table) == 12
    assert list(table) == keys
    assert (1, 1) not in table and (0, 4) not in table
    assert dict(table.items()) == {k: table[k] for k in keys}
    s = table[(2, 3)]
    assert s == PairStatistics(2, 3, int(table.pair[2, 3]), int(table.triple[2, 3]),
                               table.windows)
    assert type(s.pair_sum) is int and type(s.triple_sum) is int


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
        s = accumulate_all(grid)[(int(i), int(j))]
        d1, d2, k = naive_pair_stats(log, int(i), int(j), eps)
        assert (s.pair_sum, s.triple_sum, s.windows) == (d1, d2, k)


def test_accumulate_all_matches_oracle_on_multiword_rows():
    # 12 nodes and more than 64 windows, not a multiple of 64: each node's
    # occupancy spans several packed words and the last one is padded
    rng = np.random.default_rng(31)
    log = _uniform_log(rng, n=12, horizon=30.0, events=1200)
    table = accumulate_all(bin_events(log, 0.1))
    assert len(table) == 12 * 11
    assert table.windows > 64 and table.windows % 64 != 0
    for (i, j), s in table.items():
        want = naive_pair_stats(log, i, j, 0.1)
        assert (s.pair_sum, s.triple_sum, s.windows) == want


def test_accumulate_all_is_independent_of_row_blocking(monkeypatch):
    import hawkesgraph.stats as stats_module

    rng = np.random.default_rng(37)
    log = _uniform_log(rng, n=7, horizon=25.0, events=500)
    # node 3 holds one event in bin 0 of every other window, never two in
    # consecutive bins, so its rows of the triple's AND planes are all zero
    lone = (6 * np.arange(42) + 0.5) * 0.1
    log = EventLog(n=8, horizon=25.0, times=np.concatenate([log.times, lone]),
                   nodes=np.concatenate([log.nodes + (log.nodes >= 3), np.full(42, 3)]))
    grid = bin_events(log, 0.1)
    assert not np.any(grid.occupancy[0, 3] & grid.occupancy[1:, 3])
    whole = accumulate_all(grid)
    s = whole[(3, 0)]
    assert (s.pair_sum, s.triple_sum, s.windows) == naive_pair_stats(log, 3, 0, 0.1)
    # one packed row set of 8 nodes x 2 words is 128 bytes, and one word of
    # every row with its two run indices 80: blocks of one row and chunks of
    # one nonzero word, then chunks of 3 and 5 words that split rows' runs of
    # words between them, then blocks of three rows with a shorter last block
    for budget in (1, 3 * 80, 5 * 80, 3 * 128):
        monkeypatch.setattr(stats_module, "_BLOCK_BYTES", budget)
        assert accumulate_all(grid) == whole
    # node 0 fires in bin 0 and node 1 in bin 1 of every other window: the
    # pair term counts them, and every AND plane is all zero
    starts = 6 * np.arange(42)
    spaced = EventLog(n=2, horizon=25.0, times=np.concatenate([starts + 0.5, starts + 1.5]) * 0.1,
                      nodes=np.repeat([0, 1], 42))
    s = accumulate_all(bin_events(spaced, 0.1))[(0, 1)]
    assert (s.pair_sum, s.triple_sum, s.windows) == naive_pair_stats(spaced, 0, 1, 0.1)
    assert (s.pair_sum, s.triple_sum) == (42, 0)


def test_triple_gather_memory_is_bounded():
    # every node fires in bins 0 and 1 of the first window of each packed
    # word, so every word of the AND plane B0&B1 is nonzero: gathered in one
    # go, its 32,768 nonzero words of the 256 rows of B2 would take 64 MiB
    n, words, eps = 256, 128, 0.125
    first = 3 * 64 * np.arange(words)
    times = np.concatenate([first + 0.5, first + 1.5]) * eps
    log = EventLog(n=n, horizon=3 * 64 * words * eps, times=np.tile(times, n),
                   nodes=np.repeat(np.arange(n), 2 * words))
    grid = bin_events(log, eps)
    assert grid.occupancy.shape == (3, n, words)
    assert np.all(grid.occupancy[0] & grid.occupancy[1])
    tracemalloc.start()
    try:
        accumulate_all(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24_000_000


def test_pair_sum_antisymmetry():
    rng = np.random.default_rng(13)
    log = _uniform_log(rng, n=3, horizon=20.0, events=300)
    table = accumulate_all(bin_events(log, 0.2))
    assert np.array_equal(table.pair, -table.pair.T)
    assert np.any(table.pair != 0)


def test_independent_nodes_have_small_pair_sums():
    model = build_model(2, {}, level=1.0)
    total, total_sq = 0, 0
    for seed in range(40):
        log = simulate(model, 60.0, seed=seed)
        s = accumulate_all(bin_events(log, 0.2))[(0, 1)]
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
