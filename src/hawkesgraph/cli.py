"""Command-line entry points.

Subcommands: simulate, validate, detect, oracle, experiment, sweep.  Each
prints a short human-readable summary; files use the package's stable text
formats so runs can be chained (simulate -> detect -> compare).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from .detect import DetectorConfig, _observed_only, calibrate_threshold, detect, save_graph
from .expectations import _PATTERNS, _read_histogram, _resolve_prefix, within_envelope
from .experiments import random_model, rate_bound_check, run_trial, sweep
from .model import load_model, validate_model
from .simulation import EventLog, intensity, load_events, save_events, simulate
from .stats import accumulate_all, bin_events, window_count


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    log = simulate(model, args.horizon, args.seed)
    save_events(log, args.out)
    print(f"{len(log)} events over [0, {args.horizon}] -> {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    report = validate_model(model, args.horizon)
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


def _positive(kind: type) -> Callable[[str], float]:
    """argparse type for a positive int or float that names a rejected value."""

    def parse(text: str) -> float:
        try:
            value = kind(text)
            if value > 0:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a positive {kind.__name__}, got {text!r}")

    return parse


def _require_window(args: argparse.Namespace, horizon: float) -> None:
    if window_count(horizon, args.epsilon) < 1:
        args.usage_error(f"--epsilon {args.epsilon} leaves no complete window "
                         f"(3 * epsilon) in the horizon {horizon}")


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
    if args.observed and args.calibrate and len(args.observed) < 2:
        args.usage_error("--calibrate needs at least two --observed nodes to pair")
    _require_window(args, horizon)
    log = _truncated(log, horizon)
    # --observed acts as if only the observed nodes were recorded: their
    # events alone, renumbered, are calibrated and detected on
    sub, ambient = _observed_only(log, args.observed) if args.observed else (log, lambda g: g)
    grid = bin_events(sub, args.epsilon)
    if args.calibrate:
        threshold = calibrate_threshold(
            sub, grid, n_surrogates=args.surrogates, seed=args.seed,
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
    graph = ambient(detect(accumulate_all(grid), config))
    for i, j in graph.sorted_edges:
        print(f"{i} {j}")
    print(f"{len(graph.sorted_edges)} edges among {graph.n} nodes")
    if args.out:
        save_graph(graph, config, args.out)
        print(f"written to {args.out}")
    return 0


def _lam_max(model, prefix: EventLog | None, t: float) -> float:
    prefix = _resolve_prefix(model, prefix, t)
    return max(intensity(model, prefix, i, t) for i in range(model.n))


def _cmd_oracle(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    prefix = load_events(args.events) if args.events else None
    if prefix is not None and prefix.n != model.n:
        print(f"event log has {prefix.n} nodes but the model has {model.n}")
        return 2
    for flag, node in (("--i", args.i), ("--j", args.j)):
        if not 0 <= node < model.n:
            args.usage_error(f"{flag} {node} is out of range: {args.model} has {model.n} nodes")
    if args.i == args.j:
        args.usage_error(f"--i and --j must name two distinct nodes, both are {args.i}")
    if args.time < 0:
        args.usage_error(f"--time {args.time} must be nonnegative")
    failures = 0
    lam = _lam_max(model, prefix, args.time)
    reports, drift = _read_histogram(
        model, prefix, args.time, args.epsilon, tuple(args.pattern or _PATTERNS),
        args.drift, args.i, args.j, args.trials, args.seed,
    )
    for report in reports:
        ok = within_envelope(
            report, model.constants.max_degree, lam, constant=args.envelope_constant
        )
        print(("ok   " if ok else "FAIL ") + str(report))
        failures += 0 if ok else 1
    if drift is not None:
        print(drift)
        for est, se, pred in (
            (drift.pair_estimate, drift.pair_stderr, drift.pair_predicted),
            (drift.triple_estimate, drift.triple_stderr, drift.triple_predicted),
        ):
            if abs(est - pred) > args.drift_sigma * se:
                failures += 1
    return 1 if failures else 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.n < 2:
        args.usage_error(f"--n {args.n} must be at least 2")
    if args.d >= args.n:
        args.usage_error(f"--d {args.d} must be below --n {args.n}")
    _require_window(args, args.horizon)
    results = []
    for k in range(args.trials):
        seed = args.seed + k
        model = random_model(args.n, args.d, seed)
        config = DetectorConfig(
            epsilon=args.epsilon, horizon=args.horizon,
            threshold=args.threshold or 1.0,  # a placeholder when calibrating
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
    p.add_argument("--horizon", type=_positive(float), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="check a model file against every assumption")
    p.add_argument("--model", required=True)
    p.add_argument("--horizon", type=_positive(float), default=100.0)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("detect", help="recover the dependency graph from an event log")
    p.add_argument("--events", required=True)
    p.add_argument("--epsilon", type=_positive(float), required=True)
    p.add_argument("--horizon", type=float, default=None)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", type=_positive(float))
    group.add_argument("--calibrate", action="store_true")
    p.add_argument("--observed", type=_node_list, help="comma-separated node subset")
    p.add_argument("--out", default="")
    p.add_argument("--no-triples", action="store_true")
    p.add_argument("--surrogates", type=_positive(int), default=50)
    p.add_argument("--seed", type=int, default=0)
    # Checks against the event log run after parsing and report through the
    # same usage error as argparse.
    p.set_defaults(func=_cmd_detect, usage_error=p.error)

    p = sub.add_parser("oracle", help="Monte Carlo check of the pattern expectations")
    p.add_argument("--model", required=True)
    p.add_argument("--events", default="", help="optional history prefix")
    p.add_argument("--time", type=float, default=0.0)
    p.add_argument("--epsilon", type=_positive(float), default=0.01)
    p.add_argument("--pattern", action="append", choices=_PATTERNS)
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--trials", type=_positive(int), default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--envelope-constant", type=_positive(float), default=100.0)
    p.add_argument("--drift", action="store_true", help="also check the signed drifts")
    p.add_argument("--drift-sigma", type=_positive(float), default=4.0)
    p.set_defaults(func=_cmd_oracle, usage_error=p.error)

    p = sub.add_parser("experiment", help="random-model recovery trials")
    p.add_argument("--n", type=_positive(int), required=True)
    p.add_argument("--d", type=_positive(int), required=True)
    p.add_argument("--horizon", type=_positive(float), required=True)
    p.add_argument("--epsilon", type=_positive(float), required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", type=_positive(float))
    group.add_argument("--calibrate", action="store_true")
    p.add_argument("--trials", type=_positive(int), default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--surrogates", type=_positive(int), default=50)
    p.add_argument("--no-triples", action="store_true")
    p.add_argument("--no-peak", action="store_true")
    p.set_defaults(func=_cmd_experiment, usage_error=p.error)

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
