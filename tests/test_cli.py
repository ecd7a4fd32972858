import pytest
import yaml
from oracles import build_model

from hawkesgraph import (
    EventLog, bin_events, calibrate_threshold, expectations, load_events, load_graph,
    mc_delta_drift, mc_indicator, save_events, save_model, simulate,
)
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


def test_detect_command_observed_calibrates_on_observed_nodes(chain, tmp_path, capsys):
    _, _, events_path = chain
    log = load_events(events_path)
    # the same log without node 1's events, and its observed nodes renumbered
    kept = log.nodes != 1
    unobserved_gone = EventLog(n=3, horizon=log.horizon, times=log.times[kept],
                               nodes=log.nodes[kept])
    save_events(unobserved_gone, tmp_path / "without1.txt")
    renumbered = EventLog(n=2, horizon=log.horizon, times=log.times[kept],
                          nodes=log.nodes[kept] // 2)
    thresholds = []
    for events in (events_path, str(tmp_path / "without1.txt")):
        out = tmp_path / "graph.txt"
        assert main(["detect", "--events", events, "--epsilon", "0.1", "--calibrate",
                     "--surrogates", "10", "--seed", "5", "--observed", "0,2",
                     "--out", str(out)]) == 0
        graph, config = load_graph(out)
        assert graph.n == 3 and all(1 not in edge for edge in graph.edges)
        thresholds.append(config.threshold)
    assert thresholds[0] == thresholds[1] == calibrate_threshold(
        bin_events(renumbered, 0.1), n_surrogates=10, seed=5)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["detect", "--events", events_path, "--epsilon", "0.1", "--calibrate",
              "--observed", "2"])
    assert exit_info.value.code == 2
    assert "two --observed nodes" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [["--threshold", "0.05"], ["--calibrate", "--surrogates", "4"]])
def test_detect_rejects_horizon_beyond_the_log(chain, capsys, mode):
    _, _, events_path = chain  # a log over [0, 200]
    with pytest.raises(SystemExit) as exit_info:
        main(["detect", "--events", events_path, "--epsilon", "0.1", "--horizon", "250", *mode])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--horizon 250.0" in err and "200.0" in err


@pytest.mark.parametrize("observed", [[], ["--observed", "0,2"]])
def test_detect_rejects_calibration_with_nothing_to_score(tmp_path, capsys, observed):
    # two events of node 1 alone: every surrogate scores 0, with or without
    # node 1, and a threshold of 0 would report every pair
    events = tmp_path / "sparse.txt"
    save_events(EventLog(n=3, horizon=10.0, times=[2.05, 6.05], nodes=[1, 1]), events)
    with pytest.raises(SystemExit) as exit_info:
        main(["detect", "--events", str(events), "--epsilon", "0.1", "--calibrate", *observed])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"cannot calibrate on {events}: too few events were scored" in err


@pytest.mark.parametrize("observed", ["0,a", "0,,2", "-1,2", "0,3"])
def test_detect_rejects_bad_observed_nodes(chain, capsys, observed):
    _, _, events_path = chain  # a 3-node log
    with pytest.raises(SystemExit) as exit_info:
        main(["detect", "--events", events_path, "--epsilon", "0.1", "--threshold", "0.05",
              f"--observed={observed}"])
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("args, named", [
    (["--epsilon", "0", "--threshold", "0.05"], "'0'"),
    (["--epsilon", "-0.1", "--calibrate"], "'-0.1'"),
    (["--epsilon", "0.1", "--threshold", "0"], "'0'"),
    (["--epsilon", "0.1", "--threshold", "-2"], "'-2'"),
    (["--epsilon", "0.1", "--calibrate", "--surrogates", "0"], "'0'"),
    (["--epsilon", "70", "--calibrate"], "--epsilon 70.0"),  # log over [0, 200]
    (["--epsilon", "30", "--threshold", "0.05", "--horizon", "60"], "--epsilon 30.0"),
])
def test_detect_rejects_bad_detector_arguments(chain, capsys, args, named):
    _, _, events_path = chain
    with pytest.raises(SystemExit) as exit_info:
        main(["detect", "--events", events_path, *args])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and named in err


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


@pytest.mark.parametrize("args, named", [
    (["--i", "3"], "--i 3"),  # the chain model has 3 nodes
    (["--j", "-1"], "--j -1"),
    (["--i", "1", "--j", "1"], "both are 1"),
    (["--time", "-0.5"], "--time -0.5"),
])
def test_oracle_rejects_bad_arguments(chain, capsys, args, named):
    _, model_path, _ = chain
    with pytest.raises(SystemExit) as exit_info:
        main(["oracle", "--model", model_path, "--pattern", "ij", "--trials", "20000", *args])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and named in err


def test_experiment_command(capsys):
    rc = main(["experiment", "--n", "2", "--d", "1", "--horizon", "50",
               "--epsilon", "0.1", "--threshold", "0.5", "--trials", "2",
               "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("events, precision") == 2
    assert "trials above the rate bound" in out


_EXPERIMENT = ["experiment", "--n", "2", "--d", "1", "--no-peak"]


@pytest.mark.parametrize("args, named", [
    (_EXPERIMENT + ["--horizon", "20", "--epsilon", "0.1", "--threshold", "0"], "'0'"),
    (_EXPERIMENT + ["--horizon", "20", "--epsilon", "0", "--threshold", "0.5"], "'0'"),
    (_EXPERIMENT + ["--horizon", "-20", "--epsilon", "0.1", "--threshold", "0.5"], "'-20'"),
    (_EXPERIMENT + ["--horizon", "20", "--epsilon", "0.1", "--threshold", "0.5",
                    "--trials", "0"], "'0'"),
    (_EXPERIMENT + ["--horizon", "20", "--epsilon", "0.1", "--calibrate",
                    "--surrogates", "-1"], "'-1'"),
    (_EXPERIMENT + ["--horizon", "20", "--epsilon", "7", "--threshold", "0.5"],
     "--epsilon 7.0"),
    (["validate", "--horizon", "0"], "'0'"),
    (["oracle", "--epsilon", "0"], "'0'"),
    (["oracle", "--trials", "0"], "'0'"),
    (["oracle", "--envelope-constant", "0"], "'0'"),
    (["oracle", "--drift", "--drift-sigma", "-1"], "'-1'"),
    (["simulate", "--horizon", "0", "--out", "never.txt"], "'0'"),
    (["simulate", "--horizon", "-1", "--out", "never.txt"], "'-1'"),
])
def test_commands_reject_nonpositive_numbers(chain, capsys, args, named):
    _, model_path, _ = chain
    if args[0] != "experiment":
        args = [args[0], "--model", model_path, *args[1:]]
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and named in err


@pytest.mark.parametrize("n, d, named", [
    ("1", "1", "--n 1"),
    ("3", "3", "--d 3"),
    ("3", "5", "--d 5"),
    ("3", "0", "'0'"),
])
def test_experiment_rejects_node_and_degree_counts(capsys, n, d, named):
    with pytest.raises(SystemExit) as exit_info:
        main(["experiment", "--n", n, "--d", d, "--horizon", "20", "--epsilon", "0.1",
              "--threshold", "0.5", "--no-peak"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and named in err


@pytest.mark.parametrize("patterns, drift", [
    (["ij", "ji", "iij", "iji", "jii"], True),
    (["ij", "ji"], False),
])
def test_oracle_reads_one_histogram(tmp_path, capsys, monkeypatch, patterns, drift):
    model = build_model(2, {(0, 0): 0.5, (1, 1): 0.5, (1, 0): 0.3, (0, 1): 0.2},
                        level=1.0, decay=2.0)
    model_path = tmp_path / "pair.yaml"
    save_model(model, model_path)
    passes, draw = [], expectations._code_counts

    def counted(*args):
        passes.append(args[4])  # the histogram's bin count
        return draw(*args)

    monkeypatch.setattr(expectations, "_code_counts", counted)
    argv = ["oracle", "--model", str(model_path), "--epsilon", "0.05",
            "--trials", "20000", "--seed", "3"]
    for pattern in patterns:
        argv += ["--pattern", pattern]
    main(argv + (["--drift"] if drift else []))
    printed = capsys.readouterr().out.splitlines()
    assert passes == [3 if drift else 2]
    # Patterns drawn over as many bins as the histogram has print exactly
    # what the library estimators report for them.
    expected = {
        p: str(mc_indicator(model, None, 0.0, 0.05, p, 0, 1, 20000, seed=3))
        for p in patterns if len(p) == passes[0]
    }
    lines = {line[5:].split()[0]: line[5:] for line in printed[:len(patterns)]}
    assert [lines[p] for p in expected] == list(expected.values())
    if drift:
        assert printed[len(patterns):] == str(
            mc_delta_drift(model, None, 0.0, 0.05, 0, 1, 20000, seed=3)).splitlines()


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
