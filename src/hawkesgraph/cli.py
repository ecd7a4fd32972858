"""Command-line entry points.

Subcommands: simulate, validate, detect, oracle, experiment, sweep.  Each
prints a short human-readable summary; files use the package's stable text
formats so runs can be chained (simulate -> detect -> compare).
"""

from __future__ import annotations

import argparse
import sys

from .detect import DetectorConfig, calibrate_threshold, detect, detect_subset, save_graph
from .expectations import mc_delta_drift, mc_indicator, within_envelope
from .experiments import random_model, rate_bound_check, run_trial, sweep
from .model import load_model, validate_model
from .simulation import EventLog, intensity, load_events, save_events, simulate
from .stats import accumulate_all, bin_events

_PATTERNS = ("ij", "ji", "iij", "iji", "jii")


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    log = simulate(model, args.horizon, args.seed)
    save_events(log, args.out)
    print(f"{len(log)} events over [0, {args.horizon}] -> {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    report = validate_model(model, args.horizon, grid_step=args.grid_step)
    print(report)
    return 0 if report.passed else 1


def _node_list(text: str) -> list[int]:
    """Comma-separated node indices, as the --observed option takes them."""
    try:
        nodes = sorted({int(tok) for tok in text.split(",")})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated node indices, got {text!r}") from None
    if nodes[0] < 0:
        raise argparse.ArgumentTypeError(f"node indices must be nonnegative, got {text!r}")
    return nodes


def _truncated(log: EventLog, horizon: float) -> EventLog:
    if horizon >= log.horizon:
        return log
    keep = log.times <= horizon
    return EventLog(
        n=log.n, horizon=horizon, times=log.times[keep], nodes=log.nodes[keep],
        seed=log.seed, fingerprint=log.fingerprint,
    )


def _cmd_detect(args: argparse.Namespace) -> int:
    log = load_events(args.events)
    horizon = args.horizon if args.horizon is not None else log.horizon
    if not 0.0 < horizon <= log.horizon:
        args.usage_error(f"--horizon {horizon} must lie in (0, {log.horizon}], "
                         f"the horizon of {args.events}")
    if args.observed and args.observed[-1] >= log.n:
        args.usage_error(f"--observed node {args.observed[-1]} is out of range: "
                         f"{args.events} has {log.n} nodes")
    log = _truncated(log, horizon)
    if args.calibrate:
        threshold = calibrate_threshold(
            log, args.epsilon, n_surrogates=args.surrogates, seed=args.seed,
            use_triples=not args.no_triples,
        )
        source = "calibrated"
        print(f"calibrated threshold: {threshold:.6g}")
    else:
        threshold, source = args.threshold, "user"
    config = DetectorConfig(
        epsilon=args.epsilon, horizon=horizon, threshold=threshold,
        source=source, use_triples=not args.no_triples,
    )
    if args.observed:
        graph = detect_subset(log, args.observed, config)
    else:
        graph = detect(accumulate_all(bin_events(log, config.epsilon)), config)
    for i, j in graph.sorted_edges:
        print(f"{i} {j}")
    print(f"{len(graph.sorted_edges)} edges among {graph.n} nodes")
    if args.out:
        save_graph(graph, config, args.out)
        print(f"written to {args.out}")
    return 0


def _lam_max(model, prefix: EventLog | None, t: float) -> float:
    if prefix is None:
        return max(float(model.baseline(i).value(t)) for i in range(model.n))
    if prefix.horizon < t:
        prefix = EventLog(
            n=prefix.n, horizon=t, times=prefix.times, nodes=prefix.nodes,
            seed=prefix.seed, fingerprint=prefix.fingerprint,
        )
    return max(intensity(model, prefix, i, t) for i in range(model.n))


def _cmd_oracle(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    prefix = load_events(args.events) if args.events else None
    if prefix is not None and prefix.n != model.n:
        print(f"event log has {prefix.n} nodes but the model has {model.n}")
        return 2
    failures = 0
    lam = _lam_max(model, prefix, args.time)
    patterns = args.pattern or list(_PATTERNS)
    for pattern in patterns:
        report = mc_indicator(
            model, prefix, args.time, args.epsilon, pattern,
            args.i, args.j, args.trials, seed=args.seed,
        )
        ok = within_envelope(
            report, model.constants.max_degree, lam, constant=args.envelope_constant
        )
        print(("ok   " if ok else "FAIL ") + str(report))
        failures += 0 if ok else 1
    if args.drift:
        drift = mc_delta_drift(
            model, prefix, args.time, args.epsilon, args.i, args.j, args.trials,
            seed=args.seed,
        )
        print(drift)
        for est, se, pred in (
            (drift.pair_estimate, drift.pair_stderr, drift.pair_predicted),
            (drift.triple_estimate, drift.triple_stderr, drift.triple_predicted),
        ):
            if abs(est - pred) > args.drift_sigma * se:
                failures += 1
    return 1 if failures else 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    results = []
    for k in range(args.trials):
        seed = args.seed + k
        model = random_model(args.n, args.d, seed)
        config = DetectorConfig(
            epsilon=args.epsilon, horizon=args.horizon,
            threshold=args.threshold if args.threshold else 1.0,
            use_triples=not args.no_triples,
        )
        result = run_trial(
            model, config, seed, calibrate=args.calibrate,
            n_surrogates=args.surrogates, track_peak=not args.no_peak,
        )
        results.append(result)
        print(
            f"seed {seed}: {result.event_count} events, "
            f"precision {result.precision:.3f}, recall {result.recall:.3f}, "
            f"{'exact' if result.exact else 'inexact'}, "
            f"threshold {result.config.threshold:.4g}, {result.wall_time:.2f}s"
        )
    if not args.no_peak:
        print(rate_bound_check(results))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    results = sweep(args.config, args.out)
    print(f"results written to {results}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hawkesgraph")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a model and write an event log")
    p.add_argument("--model", required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="check a model file against every assumption")
    p.add_argument("--model", required=True)
    p.add_argument("--horizon", type=float, default=100.0)
    p.add_argument("--grid-step", type=float, default=0.05)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("detect", help="recover the dependency graph from an event log")
    p.add_argument("--events", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--horizon", type=float, default=None)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", type=float)
    group.add_argument("--calibrate", action="store_true")
    p.add_argument("--observed", type=_node_list, help="comma-separated node subset")
    p.add_argument("--out", default="")
    p.add_argument("--no-triples", action="store_true")
    p.add_argument("--surrogates", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    # Checks against the event log run after parsing and report through the
    # same usage error as argparse.
    p.set_defaults(func=_cmd_detect, usage_error=p.error)

    p = sub.add_parser("oracle", help="Monte Carlo check of the pattern expectations")
    p.add_argument("--model", required=True)
    p.add_argument("--events", default="", help="optional history prefix")
    p.add_argument("--time", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--pattern", action="append", choices=_PATTERNS)
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--envelope-constant", type=float, default=100.0)
    p.add_argument("--drift", action="store_true", help="also check the signed drifts")
    p.add_argument("--drift-sigma", type=float, default=4.0)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("experiment", help="random-model recovery trials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", type=float)
    group.add_argument("--calibrate", action="store_true")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--surrogates", type=int, default=50)
    p.add_argument("--no-triples", action="store_true")
    p.add_argument("--no-peak", action="store_true")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("sweep", help="run a YAML grid of trials to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
