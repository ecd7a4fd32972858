"""The four closed-loop workloads of the hawkesgraph benchmark.

Each workload builds its models and inputs from the workload seed in
``setup``, runs one operation ("op") per ``op`` call, and checks outputs
outside the timed region: ``check_op`` after every op, ``check_run`` once
after the loop.  Both return a list of failure messages.  Ops reach the
package through module attributes (``hawkesgraph.run_trial``,
``hawkesgraph.cli.main``) at call time, so the tracer's wrappers see them.

Why these four: each layer dominates one workload and is absent from
another, so a change to one layer has a workload that should move and one
that should not.

- chains-trial: ``run_trial`` with calibration, the path of every sweep
  cell; the simulator, the peak trace and calibration dominate it.
- detect-wide: the CLI ``detect --calibrate`` path at n = 100, quadratic in
  n, on logs from ``inputs`` rather than from the package's simulator.
- oracle-drift: the Monte Carlo drift oracle, the only user of
  ``expectations``; ``stats`` and ``detect`` never run.
- varying-sim: model I/O, validation, and the simulator's time-varying
  path (sinusoidal baselines, modulated kernels), then an event-file
  round trip.

Input sizes keep each op between a third of a second and about 1.5 s, so a
run holds tens of ops: CPU speed on a shared host drifts, and a median over
many ops is steadier than one over a few.

BENCHMARK.json lists the first three.  varying-sim is left out of it so
that those three can run longer within the same total time, which steadies
their medians; it runs on request (``--workload varying-sim`` or ``all``).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import statistics
from pathlib import Path

import numpy as np

import hawkesgraph
import hawkesgraph.cli
from inputs import DETECT_HORIZON, DETECT_MODEL, ClusterModel, sample


def op_seed(seed: int, k: int) -> int:
    """Seed of op k, derived from the workload seed alone."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class Workload:
    """Defaults for workloads without run-level checks or digests."""

    def check_run(self, run_op) -> list[str]:
        """Checks over the whole run; ``run_op(k)`` runs op k again, untimed,
        and returns its failures."""
        return []

    def digests(self) -> list[str]:
        """Lines that identify the run's deterministic outputs."""
        return []


class ChainsTrial(Workload):
    """One calibrated ``run_trial`` on the criterion-9 model per op: two
    planted 5-chains, n = 10, eps = 0.02, 50 surrogates, peak trace on (the
    ``track_peak`` default that sweeps use).  The horizon is T = 250 rather
    than criterion 9's 2000, so one op takes about half a second and a run
    holds enough ops for a steady median."""

    name = "chains-trial"
    horizon = 250.0

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        chains = {(base + k + 1, base + k): 0.8 for base in (0, 5) for k in range(4)}
        self.model = hawkesgraph.planted_model(
            10, chains, self_weight=1.2, decay=2.0, baseline_level=1.0, slack=0.25
        )
        self.config = hawkesgraph.DetectorConfig(
            epsilon=0.02, horizon=self.horizon, threshold=1.0, use_triples=True
        )
        theory = ClusterModel(
            mu=np.array([b.level for b in self.model.baselines]),
            weights=np.array(self.model.weight_matrix),
            beta=self.model.default_kernel.decay,
        )
        self.expected_events = float(theory.expected_count(self.horizon).sum())
        self.events_sd = math.sqrt(float(theory.count_covariance(self.horizon).sum()))
        self.results: list = []

    def op(self, k: int, opdir: Path):
        return hawkesgraph.run_trial(
            self.model, self.config, op_seed(self.seed, k), calibrate=True, n_surrogates=50
        )

    def check_op(self, k: int, result) -> list[str]:
        self.results.append(result)
        if result.peak_intensity is None:
            return [f"op {k}: no peak intensity recorded"]
        return []

    def check_run(self, run_op) -> list[str]:
        errors = []
        counts = [r.event_count for r in self.results]
        if counts:
            # Few ops make the sample standard error itself noisy (three ops
            # give a t distribution with two degrees of freedom), so the
            # model's count standard deviation is its floor.
            se = self.events_sd / math.sqrt(len(counts))
            if len(counts) > 1:
                se = max(se, statistics.stdev(counts) / math.sqrt(len(counts)))
            mean = statistics.fmean(counts)
            if abs(mean - self.expected_events) > 4.0 * se:
                errors.append(
                    f"mean event count {mean:.1f} is more than 4 standard errors "
                    f"({se:.1f}) from the model's mean {self.expected_events:.1f}"
                )
        report = hawkesgraph.rate_bound_check(self.results)
        if report.violations:
            errors.append(f"rate bound: {report}")
        return errors


class DetectWide(Workload):
    """The CLI ``detect --calibrate`` path per op on an n = 100 event file:
    load_events, calibrate_threshold (50 surrogates), bin_events,
    accumulate_all, detect, save_graph.

    Setup writes ``LOGS`` distinct logs and op k reads log k % LOGS, so a
    cache keyed on log content cannot turn consecutive ops into hits.
    """

    name = "detect-wide"
    epsilon = 0.02
    LOGS = 3
    # Ordered pairs recounted from timestamps: both directions of chain
    # links, a self-excited chain head against the next chain, and pairs
    # spread across the index range.
    RECOUNT_PAIRS = (
        (0, 1), (1, 0), (3, 4), (4, 3), (0, 5), (5, 0), (47, 48), (48, 47),
        (12, 87), (87, 12), (99, 0), (0, 99), (33, 66), (66, 33), (95, 96), (96, 95),
    )

    def __init__(self) -> None:
        # The op's statistics are only reachable inside the CLI; keep the
        # last table accumulate_all returned there for the checks.
        self.captured = None
        original = hawkesgraph.cli.accumulate_all

        @functools.wraps(original)
        def capture(*args, **kwargs):
            self.captured = original(*args, **kwargs)
            return self.captured

        hawkesgraph.cli.accumulate_all = capture

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 0])
        self.logs = []
        self.paths = []
        sd = math.sqrt(float(DETECT_MODEL.count_covariance(DETECT_HORIZON).sum()))
        expected = float(DETECT_MODEL.expected_count(DETECT_HORIZON).sum())
        for index in range(self.LOGS):
            times, nodes = sample(DETECT_MODEL, DETECT_HORIZON, rng)
            if abs(times.size - expected) > 5.0 * sd:
                raise RuntimeError(
                    f"input log {index} has {times.size} events, expected {expected:.0f}"
                    f" +- {sd:.0f}: the input sampler is broken"
                )
            log = hawkesgraph.EventLog(
                n=DETECT_MODEL.n, horizon=DETECT_HORIZON, times=times, nodes=nodes
            )
            path = workdir / f"events-{index}.txt"
            hawkesgraph.save_events(log, str(path))
            self.logs.append(log)
            self.paths.append(path)
        self.outputs: dict[int, list[tuple[str, str, str]]] = {}
        self.tables: dict[int, object] = {}

    def op(self, k: int, opdir: Path):
        out = opdir / "graph.txt"
        argv = ["detect", "--events", str(self.paths[k % self.LOGS]),
                "--epsilon", repr(self.epsilon), "--calibrate", "--out", str(out)]
        self.captured = None
        with contextlib.redirect_stdout(io.StringIO()):
            code = hawkesgraph.cli.main(argv)
        return code, out, self.captured

    def check_op(self, k: int, outcome) -> list[str]:
        code, out, table = outcome
        index = k % self.LOGS
        if code != 0:
            return [f"op {k}: detect exited with {code}"]
        graph, config = hawkesgraph.load_graph(str(out))
        result = (repr(config.threshold), repr(graph.sorted_edges), _table_digest(table))
        seen = self.outputs.setdefault(index, [])
        seen.append(result)
        self.tables.setdefault(index, table)
        if result != seen[0]:
            return [f"op {k}: log {index} gave a different threshold, edge set or "
                    "statistics than its first processing"]
        return []

    def check_run(self, run_op) -> list[str]:
        errors = []
        if self.outputs and all(len(v) == 1 for v in self.outputs.values()):
            # No log came round twice in the timed loop: process log 0 again,
            # untimed, so determinism is still checked.
            errors += run_op(0)
        for index, table in self.tables.items():
            log = self.logs[index]
            for i, j in self.RECOUNT_PAIRS:
                want = recount_pair(log.times, log.nodes, i, j, self.epsilon, log.horizon)
                s = table[(i, j)]
                if (s.pair_sum, s.triple_sum, s.windows) != want:
                    errors.append(
                        f"log {index}, pair ({i}, {j}): accumulate_all gave "
                        f"{(s.pair_sum, s.triple_sum, s.windows)}, timestamp recount {want}"
                    )
        return errors

    def digests(self) -> list[str]:
        lines = []
        for index in sorted(self.outputs):
            threshold, edges, table = self.outputs[index][0]
            edge_digest = hashlib.sha256(edges.encode()).hexdigest()[:16]
            lines.append(
                f"digest detect-wide log={index} events={len(self.logs[index])} "
                f"threshold={threshold} edges={edge_digest} stats={table}"
            )
        return lines


def _table_digest(table) -> str:
    text = "\n".join(
        f"{i} {j} {s.pair_sum} {s.triple_sum} {s.windows}"
        for (i, j), s in sorted(table.items())
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def recount_pair(times: np.ndarray, nodes: np.ndarray, i: int, j: int,
                 epsilon: float, horizon: float) -> tuple[int, int, int]:
    """(pair_sum, triple_sum, windows) for ordered pair (i, j), recounted from
    timestamps: events are placed by bisection against explicit bin edges,
    and only complete three-bin windows anchored at bins 0, 3, 6, ... count."""
    q = horizon / (3.0 * epsilon)
    windows = math.floor(q)
    if windows + 1 - q < 1e-9 * max(q, 1.0):
        windows += 1
    edges = np.arange(1, 3 * windows + 1) * epsilon

    def exactly_one(node: int) -> np.ndarray:
        b = np.searchsorted(edges, times[nodes == node], side="right")
        per_bin = np.bincount(b[b < 3 * windows], minlength=3 * windows)
        return (per_bin == 1).reshape(windows, 3)

    a, b = exactly_one(i), exactly_one(j)
    pair = int(np.sum(a[:, 0] & b[:, 1])) - int(np.sum(b[:, 0] & a[:, 1]))
    triple = (
        int(np.sum(a[:, 0] & a[:, 1] & b[:, 2]))
        - 2 * int(np.sum(a[:, 0] & b[:, 1] & a[:, 2]))
        + int(np.sum(b[:, 0] & a[:, 1] & a[:, 2]))
    )
    return pair, triple, windows


class OracleDrift(Workload):
    """One ``mc_delta_drift`` call per op on the criterion-5 model: a
    symmetric pair, n = 2, eps = 0.05, empty history, 1M continuations (one
    chunk of the default size).

    n = 10 is left out on purpose: the default chunk would allocate
    (1M, 10, 10) float64 arrays of 800 MB each (computed from the code, not
    run).
    """

    name = "oracle-drift"
    trials = 1_000_000
    epsilon = 0.05

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.model = hawkesgraph.planted_model(
            2, {(0, 1): 0.5, (1, 0): 0.5}, self_weight=1.0, decay=2.0, slack=0.25
        )
        self.reports: list = []

    def op(self, k: int, opdir: Path):
        return hawkesgraph.mc_delta_drift(
            self.model, None, 0.0, self.epsilon, 0, 1, self.trials, seed=op_seed(self.seed, k)
        )

    def check_op(self, k: int, report) -> list[str]:
        self.reports.append(report)
        if report.trials != self.trials:
            return [f"op {k}: {report.trials} trials reported, {self.trials} asked"]
        return []

    def check_run(self, run_op) -> list[str]:
        if not self.reports:
            return []
        errors = []
        count = len(self.reports)
        for label, target, est, se in (
            ("pair", 0.0, [r.pair_estimate for r in self.reports],
             [r.pair_stderr for r in self.reports]),
            ("triple", 0.25, [r.triple_estimate for r in self.reports],
             [r.triple_stderr for r in self.reports]),
        ):
            pooled = statistics.fmean(est)
            pooled_se = math.sqrt(sum(s * s for s in se)) / count
            if abs(pooled - target) > 4.0 * pooled_se:
                errors.append(
                    f"pooled {label} drift {pooled:+.5f} is more than 4 pooled "
                    f"standard errors ({pooled_se:.5f}) from {target}"
                )
        return errors


class VaryingSim(Workload):
    """Model file to event file per op: load_model, validate_model(T),
    simulate, save_events, load_events, on a benchmark-owned YAML model with
    n = 10, sinusoidal baselines on every node and a modulated default
    kernel."""

    name = "varying-sim"
    n = 10
    horizon = 400.0

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        n = self.n
        baselines = tuple(
            hawkesgraph.BaselineSpec(
                "sinusoidal", level=1.0, amplitude=0.5,
                frequency=0.5 + 0.15 * i, phase=0.6 * i,
            )
            for i in range(n)
        )
        kernel = hawkesgraph.KernelSpec(
            "modulated", decay=3.0, decay_amplitude=1.0, decay_frequency=1.0
        )
        # A directed ring: node i excited by itself and by node i - 1.
        weights = {}
        for i in range(n):
            weights[(i, i)] = 0.6
            weights[(i, (i - 1) % n)] = 0.4
        slope = max(
            max(b.amplitude * b.frequency / b.floor() for b in baselines), kernel.rate_cap()
        )
        constants = hawkesgraph.ModelConstants(
            baseline_floor=0.5, baseline_cap=1.5, weight_floor=0.4, weight_cap=0.4,
            self_gap=0.15, log_slope_bound=1.05 * slope,
            kernel_mass_bound=kernel.mass_bound(), stability_slack=0.4, max_degree=1,
        )
        model = hawkesgraph.HawkesModel(
            n=n, weights=weights, baselines=baselines, default_kernel=kernel,
            constants=constants,
        )
        self.path = workdir / "varying.yaml"
        hawkesgraph.save_model(model, str(self.path))

    def op(self, k: int, opdir: Path):
        model = hawkesgraph.load_model(str(self.path))
        report = hawkesgraph.validate_model(model, self.horizon)
        log = hawkesgraph.simulate(model, self.horizon, op_seed(self.seed, k))
        path = str(opdir / "events.txt")
        hawkesgraph.save_events(log, path)
        return report, log, hawkesgraph.load_events(path)

    def check_op(self, k: int, outcome) -> list[str]:
        report, log, back = outcome
        errors = []
        if not report.passed:
            errors.append(f"op {k}: model failed validation\n{report}")
        if len(log) == 0 or not log.same_events(back):
            errors.append(f"op {k}: event-file round trip changed the log")
        return errors


WORKLOADS = {w.name: w for w in (ChainsTrial, DetectWide, OracleDrift, VaryingSim)}
