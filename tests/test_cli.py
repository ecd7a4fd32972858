import pytest
import yaml
from oracles import build_model

from hawkesgraph import load_events, load_graph, save_events, save_model, simulate
from hawkesgraph.cli import main


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A 3-node chain model on disk plus a simulated event log."""
    root = tmp_path_factory.mktemp("chain")
    model = build_model(
        3,
        {(1, 0): 0.8, (2, 1): 0.8, (0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0},
        level=1.0,
        decay=2.0,
    )
    model_path = root / "model.yaml"
    save_model(model, model_path)
    log = simulate(model, 200.0, seed=3)
    events_path = root / "events.txt"
    save_events(log, events_path)
    return model, str(model_path), str(events_path)


def test_simulate_command(chain, tmp_path, capsys):
    _, model_path, _ = chain
    out = tmp_path / "sim.txt"
    rc = main(["simulate", "--model", model_path, "--horizon", "50",
               "--seed", "4", "--out", str(out)])
    assert rc == 0
    log = load_events(out)
    assert log.n == 3
    assert log.horizon == 50.0
    assert len(log) > 0
    assert "events over [0, 50.0]" in capsys.readouterr().out


def test_validate_command_pass_and_fail(chain, tmp_path, capsys):
    _, model_path, _ = chain
    assert main(["validate", "--model", model_path, "--horizon", "20"]) == 0
    assert "model validation: PASS" in capsys.readouterr().out

    bad = build_model(2, {(0, 0): 1.4}, level=1.0, decay=1.0)  # supercritical row
    bad_path = tmp_path / "bad.yaml"
    save_model(bad, bad_path)
    assert main(["validate", "--model", str(bad_path), "--horizon", "20"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_detect_command_writes_graph(chain, tmp_path, capsys):
    _, _, events_path = chain
    out = tmp_path / "graph.txt"
    rc = main(["detect", "--events", events_path, "--epsilon", "0.1",
               "--threshold", "0.05", "--no-triples", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "edges among 3 nodes" in printed
    assert f"written to {out}" in printed
    graph, config = load_graph(out)
    assert graph.n == 3
    assert config.epsilon == 0.1
    assert config.threshold == 0.05
    assert config.source == "user"
    assert not config.use_triples
    for i, j in graph.sorted_edges:
        assert f"{i} {j}" in printed


def test_detect_command_calibrates(chain, capsys):
    _, _, events_path = chain
    rc = main(["detect", "--events", events_path, "--epsilon", "0.1",
               "--calibrate", "--surrogates", "10", "--seed", "5",
               "--horizon", "60"])
    assert rc == 0
    assert "calibrated threshold:" in capsys.readouterr().out


def test_detect_command_observed_subset(chain, capsys):
    _, _, events_path = chain
    rc = main(["detect", "--events", events_path, "--epsilon", "0.1",
               "--threshold", "0.05", "--no-triples", "--observed", "0,2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "edges among 3 nodes" in out
    assert "0 1" not in out  # node 1 is unobserved


@pytest.mark.parametrize("mode", [["--threshold", "0.05"], ["--calibrate", "--surrogates", "4"]])
def test_detect_rejects_horizon_beyond_the_log(chain, capsys, mode):
    _, _, events_path = chain  # a log over [0, 200]
    with pytest.raises(SystemExit) as exit_info:
        main(["detect", "--events", events_path, "--epsilon", "0.1", "--horizon", "250", *mode])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--horizon 250.0" in err and "200.0" in err


@pytest.mark.parametrize("observed", ["0,a", "0,,2", "-1,2", "0,3"])
def test_detect_rejects_bad_observed_nodes(chain, capsys, observed):
    _, _, events_path = chain  # a 3-node log
    with pytest.raises(SystemExit) as exit_info:
        main(["detect", "--events", events_path, "--epsilon", "0.1", "--threshold", "0.05",
              f"--observed={observed}"])
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_detect_threshold_and_calibrate_are_exclusive(chain):
    _, _, events_path = chain
    with pytest.raises(SystemExit):
        main(["detect", "--events", events_path, "--epsilon", "0.1",
              "--threshold", "1.0", "--calibrate"])
    with pytest.raises(SystemExit):
        main(["detect", "--events", events_path, "--epsilon", "0.1"])


def test_oracle_command_envelope(tmp_path, capsys):
    model = build_model(2, {}, level=1.0)
    model_path = tmp_path / "poisson.yaml"
    save_model(model, model_path)
    # Coarse bins leave a real second-order gap: inside the default
    # envelope, far outside a collapsed one.
    base = ["oracle", "--model", str(model_path), "--pattern", "ij",
            "--epsilon", "0.3", "--trials", "20000", "--seed", "1"]
    assert main(base) == 0
    assert "ok   " in capsys.readouterr().out
    assert main(base + ["--envelope-constant", "1e-12"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_oracle_command_drift(tmp_path, capsys):
    model = build_model(2, {}, level=1.0)
    model_path = tmp_path / "poisson.yaml"
    save_model(model, model_path)
    rc = main(["oracle", "--model", str(model_path), "--pattern", "ij",
               "--epsilon", "0.05", "--trials", "20000", "--seed", "1",
               "--drift"])
    assert rc == 0
    assert "drift" in capsys.readouterr().out


def test_oracle_command_rejects_mismatched_prefix(chain, tmp_path, capsys):
    _, _, events_path = chain  # 3-node log
    model = build_model(2, {}, level=1.0)
    model_path = tmp_path / "two.yaml"
    save_model(model, model_path)
    rc = main(["oracle", "--model", str(model_path), "--events", events_path,
               "--time", "5.0", "--trials", "20000", "--seed", "1"])
    assert rc == 2
    assert "3 nodes but the model has 2" in capsys.readouterr().out


def test_experiment_command(capsys):
    rc = main(["experiment", "--n", "2", "--d", "1", "--horizon", "50",
               "--epsilon", "0.1", "--threshold", "0.5", "--trials", "2",
               "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("events, precision") == 2
    assert "trials above the rate bound" in out


def test_sweep_command(tmp_path, capsys):
    config = {
        "seed": 7,
        "grid": [{"n": 2, "d": 1, "horizon": 40.0, "epsilon": 0.1,
                  "threshold": 0.5}],
    }
    config_path = tmp_path / "sweep.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = main(["sweep", "--config", str(config_path), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "results.csv").exists()
    assert "results written to" in capsys.readouterr().out
