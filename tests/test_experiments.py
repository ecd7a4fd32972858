import copy
import math

import numpy as np
import pytest
import yaml

from hawkesgraph import (
    DetectorConfig,
    InfeasibleModelError,
    ModelRanges,
    TrialResult,
    planted_model,
    random_model,
    rate_bound_check,
    run_trial,
    sweep,
    true_graph,
)
from hawkesgraph.experiments import SWEEP_COLUMNS, _trial_seed


def test_random_model_deterministic():
    a = random_model(5, 2, seed=9)
    b = random_model(5, 2, seed=9)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != random_model(5, 2, seed=10).fingerprint()


def test_random_model_respects_degree_cap():
    for seed in range(6):
        model = random_model(8, 2, seed=seed)
        graph = true_graph(model)
        degree = [0] * model.n
        for i, j in graph.edges:
            degree[i] += 1
            degree[j] += 1
        assert max(degree) <= 2


def test_random_model_argument_errors():
    with pytest.raises(ValueError, match="n >= 2"):
        random_model(1, 1, seed=0)
    with pytest.raises(ValueError):
        random_model(4, 0, seed=0)
    with pytest.raises(ValueError):
        random_model(4, 4, seed=0)
    bad = ModelRanges(cross_weight=(0.0, 0.5))
    with pytest.raises(InfeasibleModelError, match="cross_weight"):
        random_model(4, 2, seed=0, ranges=bad)


def test_random_model_sinusoidal_baselines():
    ranges = ModelRanges(sinusoidal_probability=1.0)
    model = random_model(3, 1, seed=5, ranges=ranges)
    for b in model.baselines:
        assert b.family == "sinusoidal"
        assert 0 < b.amplitude < b.level


def test_random_model_infeasible_without_rescale():
    # Guaranteed cross edge at ~0.9 with unit decay forces a row mass > 1.
    ranges = ModelRanges(
        cross_weight=(0.9, 0.95), decay=(1.0, 1.0), edge_probability=1.0
    )
    with pytest.raises(InfeasibleModelError, match="rescaling disabled"):
        random_model(2, 1, seed=3, ranges=ranges, rescale=False)
    model = random_model(2, 1, seed=3, ranges=ranges)  # rescale fixes it
    mass = 1.0  # exponential kernel, decay 1
    rows = model.weight_matrix.sum(axis=1) * mass
    assert rows.max() <= 1.0 - ranges.stability_slack + 1e-12


def test_planted_model_keeps_subcritical_weights():
    model = planted_model(2, {(1, 0): 0.5}, self_weight=1.0, decay=2.0)
    assert model.weight(1, 0) == 0.5
    assert model.weight(0, 0) == 1.0
    assert model.constants.weight_floor == 0.5
    assert model.constants.weight_cap == 0.5
    assert model.constants.self_gap == 0.5
    assert model.constants.stability_slack == pytest.approx(0.25)
    assert model.constants.max_degree == 1


def test_planted_model_rescales_overloaded_rows():
    # Nominal row mass (1.2 + 0.8) / 2 = 1.0 exceeds 1 - 0.25.
    model = planted_model(
        2, {(0, 1): 0.8, (1, 0): 0.8}, self_weight=1.2, decay=2.0, slack=0.25
    )
    assert model.weight(0, 1) == pytest.approx(0.6)
    assert model.weight(1, 1) == pytest.approx(0.9)
    assert model.weight(0, 1) / model.weight(0, 0) == pytest.approx(0.8 / 1.2)
    with pytest.raises(InfeasibleModelError, match="rescaling disabled"):
        planted_model(
            2, {(0, 1): 0.8, (1, 0): 0.8}, self_weight=1.2, decay=2.0, rescale=False
        )


def test_planted_model_entry_errors():
    with pytest.raises(ValueError, match="bad cross-weight"):
        planted_model(2, {(0, 0): 0.3}, self_weight=1.0)
    with pytest.raises(ValueError, match="bad cross-weight"):
        planted_model(2, {(0, 5): 0.3}, self_weight=1.0)
    with pytest.raises(ValueError, match="dominated"):
        planted_model(2, {(0, 1): 1.0}, self_weight=1.0)
    model = planted_model(3, {(0, 1): -1.0, (0, 2): 0.0}, self_weight=1.0)
    assert not true_graph(model).edges  # nonpositive entries are dropped


def test_run_trial_recovers_planted_edge():
    model = planted_model(
        2, {(1, 0): 0.7}, self_weight=0.75, decay=2.0, baseline_level=0.5, slack=0.25
    )
    config = DetectorConfig(
        epsilon=0.1, horizon=10_000.0, threshold=1.0, use_triples=False
    )
    result = run_trial(model, config, seed=2, calibrate=True)
    assert result.exact
    assert result.recovered_edges == ((0, 1),)
    assert result.precision == 1.0 and result.recall == 1.0
    assert result.config.source == "calibrated"
    assert 0.0 < result.config.threshold < 1.0
    assert result.fingerprint == model.fingerprint()
    again = run_trial(model, config, seed=2, calibrate=True)
    assert again.config.threshold == result.config.threshold
    assert again.recovered_edges == result.recovered_edges


def test_run_trial_on_empty_graph():
    model = planted_model(3, {}, self_weight=0.5, decay=2.0)
    config = DetectorConfig(epsilon=0.1, horizon=200.0, threshold=50.0)
    result = run_trial(model, config, seed=4, track_peak=False)
    assert result.true_edges == ()
    assert result.recovered_edges == ()
    assert result.precision == 1.0 and result.recall == 1.0
    assert result.exact
    assert result.peak_intensity is None
    assert result.config.source == "user"
    assert result.config.threshold == 50.0
    assert result.event_count > 0
    assert result.wall_time > 0


def _fake_trial(seed, n, d, horizon, peak):
    config = DetectorConfig(epsilon=0.1, horizon=horizon, threshold=1.0)
    return TrialResult(
        seed=seed,
        fingerprint="f" * 12,
        config=config,
        n=n,
        max_degree=d,
        event_count=10,
        true_edges=(),
        recovered_edges=(),
        false_positives=(),
        false_negatives=(),
        precision=1.0,
        recall=1.0,
        exact=True,
        peak_intensity=peak,
        wall_time=0.1,
    )


def test_rate_bound_check_counts_violations():
    bound = 4 * math.log(4 * 50.0) ** 4
    trials = [
        _fake_trial(0, 4, 2, 50.0, 0.5 * bound),
        _fake_trial(1, 4, 2, 50.0, 2.0 * bound),
        _fake_trial(2, 4, 2, 50.0, None),
    ]
    report = rate_bound_check(trials)
    assert report.trials == 2  # the untracked peak is skipped
    assert report.violations == 1
    assert report.worst_ratio == pytest.approx(2.0)
    assert "seed 1" in report.worst_detail
    assert "1/2 trials above the rate bound" in str(report)


def test_rate_bound_check_empty():
    report = rate_bound_check([])
    assert report.trials == 0
    assert report.violations == 0
    assert report.worst_ratio == 0.0
    assert report.worst_detail == "none"


def test_trial_seed_is_stable_and_distinct():
    assert _trial_seed(7, 0, 0) == _trial_seed(7, 0, 0)
    seeds = {_trial_seed(7, c, t) for c in range(3) for t in range(3)}
    assert len(seeds) == 9


# ---------------------------------------------------------------------------
# Sweeps


SWEEP_CONFIG = {
    "seed": 7,
    "seeds_per_cell": 2,
    "grid": [
        {"n": 3, "d": 1, "horizon": 50.0, "epsilon": 0.1, "threshold": 0.5},
        {"n": 3, "d": 1, "horizon": 50.0, "epsilon": 0.2, "threshold": 0.5,
         "track_peak": False},
    ],
}


def _rows(path):
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_sweep_writes_complete_results(tmp_path):
    results = sweep(SWEEP_CONFIG, tmp_path / "out")
    rows = _rows(results)
    assert len(rows) == 4
    assert list(rows[0]) == list(SWEEP_COLUMNS)
    assert all(r["status"] == "ok" for r in rows)
    assert [r["cell"] for r in rows] == ["0", "0", "1", "1"]
    assert all(int(r["events"]) > 0 for r in rows)
    assert all(r["source"] == "user" for r in rows)
    assert all(r["peak_intensity"] != "" for r in rows[:2])
    assert all(r["peak_intensity"] == "" for r in rows[2:])


def test_sweep_resume_skips_finished_shards(tmp_path):
    out = tmp_path / "out"
    results = sweep(SWEEP_CONFIG, out)
    first = results.read_bytes()
    # Replace a shard with a sentinel; a rerun must keep it untouched.
    shard = out / "cell_000.csv"
    sentinel = shard.read_text(encoding="utf-8").replace("ok", "sentinel")
    shard.write_text(sentinel, encoding="utf-8")
    merged = sweep(SWEEP_CONFIG, out).read_text(encoding="utf-8")
    assert "sentinel" in merged
    # Restoring the shard restores the exact original bytes.
    shard.write_text(sentinel.replace("sentinel", "ok"), encoding="utf-8")
    assert sweep(SWEEP_CONFIG, out).read_bytes() == first


def test_sweep_recomputes_edited_cells(tmp_path):
    out = tmp_path / "out"
    before = _rows(sweep(SWEEP_CONFIG, out))
    # Mark cell 1's shard: it must be reused untouched while cell 0 changes.
    shard = out / "cell_001.csv"
    shard.write_text(shard.read_text(encoding="utf-8").replace("ok", "sentinel"),
                     encoding="utf-8")
    edited = copy.deepcopy(SWEEP_CONFIG)
    edited["grid"][0]["threshold"] = 0.25
    after = _rows(sweep(edited, out))
    assert [r["threshold"] for r in before[:2]] == ["0.5", "0.5"]
    assert [r["threshold"] for r in after[:2]] == ["0.25", "0.25"]
    assert [r["status"] for r in after] == ["ok", "ok", "sentinel", "sentinel"]
    assert after[2:] == [dict(r, status="sentinel") for r in before[2:]]
    # A setting outside the grid changes every cell's key.
    reseeded = _rows(sweep(dict(edited, seed=8), out))
    assert all(r["status"] == "ok" for r in reseeded)
    assert [r["seed"] for r in reseeded] != [r["seed"] for r in after]


def test_sweep_worker_count_does_not_change_results(tmp_path, monkeypatch):
    serial = _rows(sweep(SWEEP_CONFIG, tmp_path / "serial"))
    monkeypatch.setenv("HAWKESGRAPH_WORKERS", "2")
    parallel = _rows(sweep(SWEEP_CONFIG, tmp_path / "parallel"))
    for a, b in zip(serial, parallel):
        a.pop("wall_time")
        b.pop("wall_time")
    assert serial == parallel


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_sweep_rejects_invalid_worker_count(tmp_path, monkeypatch, raw):
    monkeypatch.setenv("HAWKESGRAPH_WORKERS", raw)
    with pytest.raises(ValueError, match=f"HAWKESGRAPH_WORKERS.*'{raw}'"):
        sweep(SWEEP_CONFIG, tmp_path / "out")


def test_sweep_records_per_row_errors(tmp_path):
    config = {
        "seed": 1,
        "grid": [
            # horizon < 3 * epsilon makes the detector config invalid.
            {"n": 3, "d": 1, "horizon": 50.0, "epsilon": 20.0, "threshold": 0.5},
        ],
    }
    rows = _rows(sweep(config, tmp_path / "out"))
    assert len(rows) == 1
    assert rows[0]["status"].startswith("error:")
    assert rows[0]["events"] == ""


def test_sweep_accepts_yaml_path(tmp_path):
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump(SWEEP_CONFIG), encoding="utf-8")
    direct = (tmp_path / "direct").resolve()
    via_file = (tmp_path / "via_file").resolve()
    a = _rows(sweep(SWEEP_CONFIG, direct))
    b = _rows(sweep(str(path), via_file))
    for row_a, row_b in zip(a, b):
        row_a.pop("wall_time")
        row_b.pop("wall_time")
    assert a == b


def test_sweep_config_validation(tmp_path):
    with pytest.raises(ValueError, match="grid"):
        sweep({"seed": 0}, tmp_path)
    with pytest.raises(ValueError, match="unknown keys"):
        sweep({"grid": [{"n": 3, "d": 1, "horizon": 10, "epsilon": 0.1,
                         "threshold": 1.0, "bogus": 1}]}, tmp_path)
    with pytest.raises(ValueError, match="missing 'epsilon'"):
        sweep({"grid": [{"n": 3, "d": 1, "horizon": 10, "threshold": 1.0}]}, tmp_path)
    with pytest.raises(ValueError, match="'threshold' or 'calibrate"):
        sweep({"grid": [{"n": 3, "d": 1, "horizon": 10, "epsilon": 0.1}]}, tmp_path)
    with pytest.raises(ValueError, match="seeds_per_cell"):
        sweep({"seeds_per_cell": 0,
               "grid": [{"n": 3, "d": 1, "horizon": 10, "epsilon": 0.1,
                         "threshold": 1.0}]}, tmp_path)


def test_sweep_calibrated_cell(tmp_path):
    config = {
        "seed": 3,
        "surrogates": 10,
        "grid": [
            {"n": 2, "d": 1, "horizon": 60.0, "epsilon": 0.1, "calibrate": True},
        ],
    }
    rows = _rows(sweep(config, tmp_path / "out"))
    assert rows[0]["status"] == "ok"
    assert rows[0]["source"] == "calibrated"
    assert float(rows[0]["threshold"]) > 0
