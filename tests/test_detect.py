import math

import numpy as np
import pytest

from hawkesgraph import (
    DetectorConfig,
    EventLog,
    PairTable,
    accumulate_all,
    bin_events,
    calibrate_threshold,
    detect,
    detect_subset,
    load_graph,
    pair_scores,
    save_graph,
    simulate,
    suggest_epsilon,
    theorem_schedule,
    theorem_threshold,
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


def test_theorem_threshold_arithmetic():
    assert theorem_threshold(0.3, 0.2, 1.5) == pytest.approx(0.3 * 0.2 * 1.5 / 8)
    with pytest.raises(ValueError):
        theorem_threshold(0.0, 0.2, 1.5)


def test_theorem_schedule_is_astronomical():
    with pytest.warns(UserWarning, match="proof-driven"):
        horizon, eps = theorem_schedule(10)
    assert horizon == pytest.approx(math.log(10) ** 100)
    assert eps == pytest.approx(math.log(10) ** -17)
    assert horizon > 1e36
    with pytest.raises(ValueError):
        theorem_schedule(2)


def test_calibrate_threshold_deterministic_and_positive():
    model = build_model(2, {(1, 0): 0.5, (0, 0): 0.7, (1, 1): 0.7}, decay=2.0)
    log = simulate(model, 200.0, seed=0)
    a = calibrate_threshold(log, 0.1, n_surrogates=10, seed=4)
    b = calibrate_threshold(log, 0.1, n_surrogates=10, seed=4)
    c = calibrate_threshold(log, 0.1, n_surrogates=10, seed=5)
    assert a == b
    assert a != c
    assert a > 0
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


@pytest.mark.parametrize("use_triples", [True, False])
def test_calibrate_threshold_equals_reference(use_triples):
    model = build_model(3, {(1, 0): 0.6, (0, 0): 0.5, (1, 1): 0.5, (2, 2): 0.5}, decay=2.0)
    log = simulate(model, 60.0, seed=2)
    # 200 windows: several packed words per node; 11 surrogates cycle
    # through the three nodes unevenly
    for quantile in (0.5, 0.9):
        got = calibrate_threshold(log, 0.1, n_surrogates=11, quantile=quantile, seed=3,
                                  use_triples=use_triples)
        assert got == reference_calibration(log, 0.1, 11, quantile, 3, use_triples)


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


def test_suggest_epsilon():
    log = EventLog(n=2, horizon=10.0, times=np.linspace(0.1, 9.9, 50),
                   nodes=np.array([0, 1] * 25))
    # busiest node has 25 events over 10 time units
    assert suggest_epsilon(log, occupancy=0.05) == pytest.approx(0.05 / 2.5)
    empty = EventLog(n=1, horizon=5.0, times=np.array([]), nodes=np.array([]))
    with pytest.raises(ValueError):
        suggest_epsilon(empty)


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


def test_graph_file_names_missing_header_field(tmp_path):
    path = tmp_path / "truncated.txt"
    path.write_text("# hawkesgraph-graph nodes=5 epsilon=0.05\n0 3\n")
    with pytest.raises(ValueError, match=r"truncated\.txt.*'horizon'"):
        load_graph(str(path))
