"""hawkesgraph benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/`` and nowhere else.  One process runs one client that
issues ops back to back for S seconds after one untimed warm-up op (the op
in flight at the deadline is finished and counted).  Models and inputs come
from the seed alone.
Everything a run writes goes to ``.bench_work/`` (removed at the end) and
the span dump to ``.bench_out/``, both under the checkout root.

With ``--trace 0`` the run reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced ops and reports per-layer metrics from the
traced ones, plus ``trace.overhead``, the relative difference of their
median op times.  ``--workload all`` runs every workload in its own process,
one after another.  The last line of output is one JSON object; the exit
code is 0 only when every op and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = (5, 5000)  # fewest and most set-ups per run
SETUP_MIN_SECONDS = 2.0

# (metric, unit): op_s.p50 is the median op wall time; detect-wide ops take
# about a second, so a run has too few for p90 to have ten samples above it.
END_TO_END = (("op_s.p50", "s"), ("ops_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

# (metric, span name, statistic, unit) for the traced run.
PER_LAYER = (
    ("simulation.simulate.s", "simulation.simulate", "s", "s"),
    ("simulation.simulate.events_per_s", "simulation.simulate", "rate", "1/s"),
    ("simulation.max_intensity_trace.s", "simulation.max_intensity_trace", "s", "s"),
    ("simulation.load_events.s", "simulation.load_events", "s", "s"),
    ("simulation.save_events.s", "simulation.save_events", "s", "s"),
    ("stats.bin_events.s", "stats.bin_events", "s", "s"),
    ("stats.bin_events.calls", "stats.bin_events", "calls", "count"),
    ("stats.accumulate_all.s", "stats.accumulate_all", "s", "s"),
    ("stats.accumulate_all.pair_windows_per_s", "stats.accumulate_all", "rate", "1/s"),
    ("detect.calibrate_threshold.s", "detect.calibrate_threshold", "s", "s"),
    ("detect.calibrate_threshold.self_s", "detect.calibrate_threshold", "self_s", "s"),
    ("detect.detect.s", "detect.detect", "s", "s"),
    ("detect.save_graph.s", "detect.save_graph", "s", "s"),
    ("expectations.mc_delta_drift.s", "expectations.mc_delta_drift", "s", "s"),
    ("expectations.mc_delta_drift.continuations_per_s", "expectations.mc_delta_drift",
     "rate", "1/s"),
    ("experiments.run_trial.s", "experiments.run_trial", "s", "s"),
    ("experiments.run_trial.self_s", "experiments.run_trial", "self_s", "s"),
    ("model.load_model.s", "model.load_model", "s", "s"),
    ("model.validate_model.s", "model.validate_model", "s", "s"),
)

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_package():
    """Import hawkesgraph from this checkout's src/, or exit with an error."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hawkesgraph
    except ImportError as exc:
        sys.exit(f"cannot import hawkesgraph from {ROOT / 'src'}: {exc}")
    if not Path(hawkesgraph.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"hawkesgraph was imported from {hawkesgraph.__file__}, not {ROOT / 'src'}")
    return hawkesgraph


def environment(seed: int) -> dict:
    """The run's environment as found; nothing here is changed."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "HAWKESGRAPH_WORKERS": os.environ.get("HAWKESGRAPH_WORKERS"),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import tracing
    from workloads import WORKLOADS

    env = environment(seed)
    print("env " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[name]()
    tracer = tracing.Tracer()
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    try:
        # Cheap set-ups are repeated until they fill SETUP_MIN_SECONDS: CPU
        # speed on a shared host drifts over seconds, and a median taken
        # within a few milliseconds would sample one moment of that drift.
        setup_times = []
        while len(setup_times) < SETUP_REPEATS[1] and (
                len(setup_times) < SETUP_REPEATS[0] or sum(setup_times) < SETUP_MIN_SECONDS):
            target = workdir / f"setup-{len(setup_times)}"
            target.mkdir()
            start = time.perf_counter()
            workload.setup(seed, target)
            setup_times.append(time.perf_counter() - start)

        times = {False: [], True: []}
        failed = attempted = 0
        errors: list[str] = []

        def run_op(k: int, traced: bool = False) -> tuple[list[str], float]:
            nonlocal failed, attempted
            opdir = Path(tempfile.mkdtemp(prefix=f"op{k}-", dir=workdir))
            elapsed = 0.0
            try:
                if traced:
                    tracer.install()
                start = time.perf_counter()
                try:
                    if traced:
                        outcome = tracer.run_op(k, lambda: workload.op(k, opdir))
                    else:
                        outcome = workload.op(k, opdir)
                finally:
                    elapsed = time.perf_counter() - start
                    tracer.uninstall()
                problems = workload.check_op(k, outcome)
            except Exception:  # noqa: BLE001 - a failing op is counted, not fatal
                problems = [f"op {k} raised:\n{traceback.format_exc()}"]
            shutil.rmtree(opdir)
            attempted += 1
            failed += bool(problems)
            return problems, elapsed

        # One untimed warm-up op: lazy imports and first-touch allocations
        # are paid by set-up, not by the first timed op.
        errors += run_op(0)[0]
        warm_ops, warm_failed = attempted, failed
        start = time.perf_counter()
        k = 1
        while (time.perf_counter() - start < seconds
               or (trace and min(len(times[False]), len(times[True])) < 2)):
            traced = trace and k % 2 == 0
            problems, elapsed = run_op(k, traced)
            errors += problems
            times[traced].append(elapsed)
            k += 1
        wall = time.perf_counter() - start
        timed_passed = (attempted - warm_ops) - (failed - warm_failed)

        run_errors = workload.check_run(lambda k: run_op(k)[0])
        if run_errors:
            # A run-level check is a statistic over every op of the run.
            failed = attempted
        errors += run_errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = trace_metrics(tracing, tracer, times, errors)
        dump_spans(name, seed, env, tracer)
    else:
        metrics = {
            "op_s.p50": statistics.median(times[False]),
            "ops_per_s": timed_passed / wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        metrics = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    for line in workload.digests():
        print(line)
    for message in errors:
        print("FAILED " + message, file=sys.stderr)
    for metric, entry in metrics.items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    print(f"failed_ops {failed / attempted:.6g} ratio ({failed}/{attempted} ops, "
          f"{len(times[False]) + len(times[True])} timed in {wall:.2f} s)")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def trace_metrics(tracing, tracer, times, errors) -> dict:
    ops = sorted({s.op for s in tracer.spans if s.name == "op"})
    own, mismatches = tracing.self_times(tracer.spans)
    errors += mismatches
    layers = tracing.layer_metrics(tracer.spans, own, ops)
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0.0, "rate": 0.0}
    metrics = {
        metric: {"value": layers.get(span, empty)[stat], "unit": unit}
        for metric, span, stat, unit in PER_LAYER
    }
    untraced = statistics.median(times[False])
    metrics["trace.overhead"] = {
        "value": (statistics.median(times[True]) - untraced) / untraced, "unit": "ratio"}
    return metrics


def dump_spans(name: str, seed: int, env: dict, tracer) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{name}-seed{seed}.json"
    spans = [vars(s) for s in tracer.spans]
    path.write_text(json.dumps({"workload": name, "env": env, "spans": spans}))
    print(f"spans written to {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Every workload in a child process of its own, one after another."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or child.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return code if code else (0 if merged["correct"] else 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_package()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
