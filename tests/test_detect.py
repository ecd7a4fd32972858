import importlib
import math
import tracemalloc

import numpy as np
import pytest

from hawkesgraph import (
    DetectorConfig,
    EventLog,
    PairTable,
    accumulate_all,
    bin_count,
    bin_events,
    calibrate_threshold,
    detect,
    detect_subset,
    load_graph,
    pair_scores,
    save_graph,
    simulate,
    window_count,
)
from oracles import build_model, reference_calibration


def _table(pair, triple, windows=100, eps=0.1, horizon=30.0):
    return PairTable(pair=np.array(pair), triple=np.array(triple), windows=windows,
                     epsilon=eps, horizon=horizon)


def test_config_validation():
    DetectorConfig(epsilon=0.1, horizon=10.0, threshold=0.5)
    with pytest.raises(ValueError):
        DetectorConfig(epsilon=0.0, horizon=10.0, threshold=0.5)
    with pytest.raises(ValueError):
        DetectorConfig(epsilon=1.0, horizon=2.9, threshold=0.5)
    with pytest.raises(ValueError):
        DetectorConfig(epsilon=0.1, horizon=10.0, threshold=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(epsilon=0.1, horizon=10.0, threshold=0.5, source="guesswork")
    # NaN passes `<= 0` checks: a NaN threshold would silently detect no edge
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="threshold must be positive and finite"):
            DetectorConfig(epsilon=0.1, horizon=10.0, threshold=bad)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            DetectorConfig(epsilon=bad, horizon=10.0, threshold=0.5)
        with pytest.raises(ValueError, match="horizon and epsilon must be positive and finite"):
            DetectorConfig(epsilon=0.1, horizon=bad, threshold=0.5)
        for args in ((bad, 0.1), (10.0, bad)):
            with pytest.raises(ValueError, match="horizon and epsilon must be positive and finite"):
                bin_count(*args)


def test_one_window_rule_for_config_and_calibration():
    # 0.3 / 0.1 is a hair below 3 in floating point, but window_count snaps
    # it to one complete window; the detector accepts what the statistics use.
    assert window_count(0.3, 0.1) == 1
    config = DetectorConfig(epsilon=0.1, horizon=0.3, threshold=1.0)
    log = EventLog(n=2, horizon=0.3, times=np.array([0.05, 0.15, 0.25]),
                   nodes=np.array([0, 1, 0]))
    got = calibrate_threshold(log, config.epsilon, n_surrogates=4, quantile=0.5, seed=0)
    assert got == reference_calibration(log, config.epsilon, 4, 0.5, 0, True)
    with pytest.raises(ValueError, match="at least one window"):
        DetectorConfig(epsilon=0.1, horizon=0.29, threshold=1.0)


def test_pair_score_arithmetic():
    table = _table([[0, -6], [6, 0]], [[0, 9], [9, 0]])
    assert pair_scores(table, use_triples=False)[0, 1] == pytest.approx(6 / 3.0)
    assert pair_scores(table)[0, 1] == pytest.approx(6 / 3.0 + 9 / 0.3)
    assert pair_scores(table).shape == (2, 2)


def test_detect_or_rule_and_inclusive_threshold():
    config = DetectorConfig(epsilon=0.1, horizon=30.0, threshold=2.0)
    table = _table(
        pair=[[0, 6, 0],     # (0, 1): score exactly 2.0 -> edge
              [-6, 0, 3],    # (1, 2): score 1.0 -> no edge
              [0, -3, 0]],
        triple=[[0, 0, 0],
                [0, 0, 0],
                [5, 0, 0]],  # (2, 0): triple term alone crosses
    )
    graph = detect(table, config)
    assert graph.n == 3
    assert graph.edges == frozenset({(0, 1), (0, 2)})
    only_pairs = detect(table, DetectorConfig(epsilon=0.1, horizon=30.0,
                                              threshold=2.0, use_triples=False))
    assert only_pairs.edges == frozenset({(0, 1)})


def test_detect_node_count_and_config_mismatch():
    config = DetectorConfig(epsilon=0.1, horizon=30.0, threshold=1.0)
    pair = np.zeros((7, 7), dtype=int)
    pair[0, 1], pair[1, 0] = 6, -6
    # nodes 2..6 carry no evidence but still count
    graph = detect(_table(pair, np.zeros((7, 7))), config)
    assert graph.n == 7
    assert graph.edges == frozenset({(0, 1)})
    stale = _table(pair, np.zeros((7, 7)), eps=0.2)
    with pytest.raises(ValueError, match="detector expects"):
        detect(stale, config)
    with pytest.raises(ValueError, match="detector expects"):
        detect(_table(pair, np.zeros((7, 7)), horizon=31.0), config)


def test_calibrate_threshold_deterministic_and_positive():
    model = build_model(2, {(1, 0): 0.5, (0, 0): 0.7, (1, 1): 0.7}, decay=2.0)
    log = simulate(model, 200.0, seed=0)
    a = calibrate_threshold(log, 0.1, n_surrogates=10, seed=4)
    b = calibrate_threshold(log, 0.1, n_surrogates=10, seed=4)
    c = calibrate_threshold(log, 0.1, n_surrogates=10, seed=5)
    assert a == b
    assert a != c
    assert a > 0
    # the log's own grid in place of epsilon: the same draws and scores
    assert calibrate_threshold(log, bin_events(log, 0.1), n_surrogates=10, seed=4) == a
    lower_q = calibrate_threshold(log, 0.1, n_surrogates=10, seed=4, quantile=0.5)
    assert lower_q <= a


def test_calibrate_threshold_validation():
    model = build_model(1, {})
    log = simulate(model, 20.0, seed=0)
    with pytest.raises(ValueError):
        calibrate_threshold(log, 0.1, quantile=1.0)
    with pytest.raises(ValueError):
        calibrate_threshold(log, 0.1, n_surrogates=0)
    empty = EventLog(n=1, horizon=5.0, times=np.array([]), nodes=np.array([]))
    with pytest.raises(ValueError):
        calibrate_threshold(empty, 0.1)
    assert len(log) > 0
    with pytest.raises(ValueError, match="two nodes"):
        calibrate_threshold(log, 0.1)
    short = EventLog(n=3, horizon=1.0, times=np.array([0.1, 0.4, 0.8]), nodes=np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="at least one window"):
        calibrate_threshold(short, 0.5)
    with pytest.raises(ValueError, match="must be positive"):
        calibrate_threshold(short, 0.0)
    with pytest.raises(ValueError, match="not binned from this log"):
        calibrate_threshold(short, bin_events(EventLog(n=3, horizon=2.0, times=short.times,
                                                       nodes=short.nodes), 0.1))
    # another log of the same n and horizon: its grid would calibrate on its events
    other = EventLog(n=3, horizon=1.0, times=np.array([0.2, 0.5]), nodes=np.array([2, 0]))
    with pytest.raises(ValueError, match="not binned from this log"):
        calibrate_threshold(short, bin_events(other, 0.1))


@pytest.mark.parametrize("use_triples", [True, False])
def test_calibrate_threshold_equals_reference(use_triples, monkeypatch):
    model = build_model(3, {(1, 0): 0.6, (0, 0): 0.5, (1, 1): 0.5, (2, 2): 0.5}, decay=2.0)
    log = simulate(model, 60.0, seed=2)
    # 200 windows: several packed words per node; 11 surrogates cycle
    # through the three nodes unevenly
    for quantile in (0.5, 0.9):
        got = calibrate_threshold(log, 0.1, n_surrogates=11, quantile=quantile, seed=3,
                                  use_triples=use_triples)
        assert got == reference_calibration(log, 0.1, 11, quantile, 3, use_triples)
    # a silent fourth node shifts into an all-zero surrogate row; fewer
    # surrogates than nodes, a multiple of the node count, and neither
    silent = EventLog(n=4, horizon=log.horizon, times=log.times, nodes=log.nodes)
    for n_surrogates in (1, 3, 8, 9):
        got = calibrate_threshold(silent, 0.1, n_surrogates=n_surrogates, quantile=0.9, seed=5,
                                  use_triples=use_triples)
        assert got == reference_calibration(silent, 0.1, n_surrogates, 0.9, 5, use_triples)
    # a budget of 1.5 logs' worth of events packs the surrogates in several
    # groups, not all starting at node 0, which must score as one pass does
    detect_module = importlib.import_module("hawkesgraph.detect")
    group_sizes = []
    pack = detect_module._pack

    def counted(times, rows, n_rows, *args):
        group_sizes.append(n_rows)
        return pack(times, rows, n_rows, *args)

    monkeypatch.setattr(detect_module, "_pack", counted)
    monkeypatch.setattr(detect_module, "_BLOCK_BYTES", 64 * (3 * len(log) // 2))
    got = calibrate_threshold(log, 0.1, n_surrogates=11, quantile=0.9, seed=3,
                              use_triples=use_triples)
    starts = np.cumsum(group_sizes) - group_sizes
    assert sum(group_sizes) == 11 and len(starts) > 2 and np.any(starts % 3)
    assert got == reference_calibration(log, 0.1, 11, 0.9, 3, use_triples)
    # a one-byte kernel budget: blocks of one row, chunks of one nonzero word
    monkeypatch.setattr(importlib.import_module("hawkesgraph.stats"), "_BLOCK_BYTES", 1)
    got = calibrate_threshold(log, 0.1, n_surrogates=11, quantile=0.9, seed=3,
                              use_triples=use_triples)
    assert got == reference_calibration(log, 0.1, 11, 0.9, 3, use_triples)
    # node 0's event at T - offset lands exactly on T under surrogate 0's
    # shift and wraps to bin 0, next to node 1's event in bin 1; left at T
    # it would sit in the last bin and the pair would score 0
    offset = np.random.default_rng(4).uniform(0.0, 0.9, size=1)[0]
    edge = EventLog(n=2, horizon=0.9, times=np.array([0.9 - offset, 0.15]),
                    nodes=np.array([0, 1]))
    assert edge.times_of(0)[0] + offset == 0.9
    got = calibrate_threshold(edge, 0.1, n_surrogates=1, quantile=0.5, seed=4,
                              use_triples=use_triples)
    assert got > 0 and got == reference_calibration(edge, 0.1, 1, 0.5, 4, use_triples)
    # a sum that rounds up to 2T wraps to 0 too, as under np.mod
    near = np.nextafter(1.0, 0.0)
    assert 1.0 + near == 2.0
    edge = EventLog(n=2, horizon=1.0, times=np.array([0.0, 0.5, 1.0]), nodes=np.array([0, 1, 0]))
    times, rows = detect_module._shifted_events(edge, np.array([near]), 0)
    assert times.tolist() == [near, 0.0] and rows.tolist() == [0, 0]


def test_calibration_gathers_surrogates_in_bounded_groups(monkeypatch):
    # 8 surrogates of a 2-node, 300k-event log gather 1.2M events: packed in
    # one go they would take about 49 MB, in groups of at most one log's
    # worth about 13 MB
    rng = np.random.default_rng(43)
    size = 300_000
    log = EventLog(n=2, horizon=3000.0, times=np.sort(rng.uniform(0.0, 3000.0, size)),
                   nodes=rng.integers(0, 2, size))
    tracemalloc.start()
    try:
        grouped = calibrate_threshold(log, 0.01, n_surrogates=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24_000_000
    detect_module = importlib.import_module("hawkesgraph.detect")
    monkeypatch.setattr(detect_module, "_BLOCK_BYTES", 1 << 40)
    assert calibrate_threshold(log, 0.01, n_surrogates=8) == grouped


def test_packed_statistics_memory_is_bounded():
    # 1e6 bins: a dense (n, bins) count grid or one bincount row per
    # surrogate would take tens of MB; the packed occupancy takes 0.5 MB
    rng = np.random.default_rng(41)
    times = np.sort(rng.uniform(0.0, 1e4, size=4000))
    log = EventLog(n=4, horizon=1e4, times=times, nodes=rng.integers(0, 4, size=4000))
    for run in (lambda: accumulate_all(bin_events(log, 0.01)),
                lambda: calibrate_threshold(log, 0.01, n_surrogates=8)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


def test_detect_subset_equals_restricted_full_run():
    model = build_model(
        3,
        {(1, 0): 0.6, (2, 1): 0.6, (0, 0): 0.8, (1, 1): 0.8, (2, 2): 0.8},
        decay=2.0,
        stability_slack=0.1,
    )
    log = simulate(model, 400.0, seed=3)
    config = DetectorConfig(epsilon=0.1, horizon=400.0, threshold=0.05, use_triples=False)
    full = detect(accumulate_all(bin_events(log, config.epsilon)), config)
    for observed in ({0, 1}, {1, 2}, {0, 2}, {0, 1, 2}):
        sub = detect_subset(log, observed, config)
        assert sub.n == 3
        assert sub.edges == full.restrict(observed).edges
    with pytest.raises(ValueError):
        detect_subset(log, set(), config)
    with pytest.raises(ValueError):
        detect_subset(log, {0, 5}, config)


def test_graph_file_roundtrip(tmp_path):
    from hawkesgraph import DependencyGraph

    graph = DependencyGraph(5, frozenset({(0, 3), (1, 2)}))
    config = DetectorConfig(epsilon=0.05, horizon=123.5, threshold=0.625,
                            source="calibrated", use_triples=False)
    path = tmp_path / "graph.txt"
    save_graph(graph, config, str(path))
    back_graph, back_config = load_graph(str(path))
    assert back_graph == graph
    assert back_config == config
    path.write_text("0 3\n")
    with pytest.raises(ValueError, match="not a graph file"):
        load_graph(str(path))


def test_graph_file_rejects_a_nan_threshold(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("# hawkesgraph-graph nodes=5 epsilon=0.05 horizon=100.0 threshold=nan "
                    "source=user\n0 3\n")
    with pytest.raises(ValueError, match="threshold must be positive and finite"):
        load_graph(str(path))


_GRAPH_HEADER = "# hawkesgraph-graph nodes=5 epsilon=0.05 horizon=100.0 threshold=0.02 source=user\n"


def test_graph_file_names_missing_header_field(tmp_path):
    path = tmp_path / "truncated.txt"
    for text, named in [
        ("# hawkesgraph-graph nodes=5 epsilon=0.05\n0 3\n", r"truncated\.txt.*'horizon'"),
        ("# hawkesgraph-graph nodes=5 epsilon=0.05 horizon 100.0\n0 3\n",
         r"truncated\.txt: graph header token 'horizon' is not key=value"),
        (_GRAPH_HEADER.replace("nodes=5", "nodes=five"),
         r"truncated\.txt: invalid literal .* 'five'"),
        # bad edge lines, named by line number
        (_GRAPH_HEADER + "0 3\n0 1 2\n", r"truncated\.txt, line 3: '0 1 2' is not an edge"),
        (_GRAPH_HEADER + "0 x\n", r"truncated\.txt, line 2: '0 x' is not an edge"),
        (_GRAPH_HEADER + "0 3\n\n2 1\n", r"truncated\.txt, line 4: '2 1' is not an edge"),
        (_GRAPH_HEADER + "0 5\n", r"truncated\.txt, line 2: '0 5' .* 0 <= i < j < 5"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=named):
            load_graph(str(path))


def test_graph_file_names_an_unknown_source(tmp_path):
    # Older versions could write source=theorem; the closed-form threshold is gone.
    path = tmp_path / "old.txt"
    path.write_text("# hawkesgraph-graph nodes=5 epsilon=0.05 horizon=100.0 threshold=0.02 "
                    "source=theorem use_triples=1\n0 3\n")
    with pytest.raises(ValueError, match=r"old\.txt: source must be one of .* not 'theorem'"):
        load_graph(str(path))
