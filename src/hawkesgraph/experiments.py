"""Experiment harness: random models, recovery trials, sweeps.

Everything here is deterministic given a root seed.  Random models document
their draw order so a seed pins the model across runs; sweeps derive one
child seed per (cell, trial) so results are identical no matter how many
workers execute them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import yaml

from . import __version__
from .detect import DetectorConfig, calibrate_threshold, detect
from .model import (
    BaselineSpec,
    HawkesModel,
    KernelSpec,
    ModelConstants,
    true_graph,
    validate_model,
)
from .simulation import child_seed, max_intensity_trace, simulate
from .stats import accumulate_all, bin_events

__all__ = [
    "InfeasibleModelError",
    "ModelRanges",
    "TrialResult",
    "RateBoundReport",
    "random_model",
    "planted_model",
    "run_trial",
    "sweep",
    "rate_bound_check",
    "SWEEP_COLUMNS",
]


# The horizon that random_model and planted_model validate their models at.
_BUILD_CHECK_HORIZON = 20.0


class InfeasibleModelError(ValueError):
    """The requested constraints cannot be satisfied; the message names the
    binding one."""


@dataclass(frozen=True)
class ModelRanges:
    """Sampling ranges for random_model.

    ``self_extra`` widens the self-weight interval above the forced minimum.
    ``sinusoidal_probability`` makes individual baselines time-varying; the
    amplitude is drawn as a fraction of the level so rates stay positive.
    """

    cross_weight: tuple[float, float] = (0.3, 0.9)
    baseline_level: tuple[float, float] = (0.5, 1.5)
    decay: tuple[float, float] = (1.0, 3.0)
    self_gap: float = 0.1
    self_extra: float = 0.5
    stability_slack: float = 0.1
    edge_probability: float | None = None
    sinusoidal_probability: float = 0.0
    amplitude_fraction: tuple[float, float] = (0.3, 0.7)
    frequency: tuple[float, float] = (0.5, 2.0)


def _declared_constants(
    weights: Mapping[tuple[int, int], float],
    rows: np.ndarray,
    baselines: Sequence[BaselineSpec],
    kernel: KernelSpec,
    n: int,
    max_degree: int,
) -> ModelConstants:
    # Constants are realized extremes reused bit-for-bit so validator margins
    # land at zero, never below.  The stability slack alone gets 1e-12 of
    # headroom: 1 - (1 - x) need not round back to x, and the row sums here
    # and in the validator accumulate in different orders.  ``rows`` are the
    # row excitation masses of ``weights``.
    cross = [w for (i, j), w in weights.items() if i != j and w > 0]
    # Rounding is monotone, so the smallest w_ii - w_ij over j != i is w_ii
    # minus the row's largest cross-weight, bit for bit.  Weights are
    # nonnegative and an absent one is 0, so each row maximum starts at 0.
    top = [0.0] * n
    for (i, j), w in weights.items():
        if i != j:
            top[i] = max(top[i], w)
    gap = min(weights.get((i, i), 0.0) - top[i] for i in range(n)) if n > 1 else math.inf
    slope = 0.0
    for b in baselines:
        slope = max(slope, abs(b.amplitude) * b.frequency / b.floor())
    slope = max(slope, kernel.rate_cap())
    worst_row = float(rows.max())
    return ModelConstants(
        baseline_floor=min(b.floor() for b in baselines),
        baseline_cap=max(b.cap() for b in baselines),
        weight_floor=min(cross) if cross else 1e-6,
        weight_cap=max(cross) if cross else 1.0,
        self_gap=gap if gap < math.inf else min(weights.values(), default=1.0),
        log_slope_bound=1.05 * slope,
        kernel_mass_bound=kernel.mass_bound(),
        stability_slack=1.0 - worst_row - 1e-12 if worst_row > 0 else 0.5,
        max_degree=max_degree,
    )


def _row_masses(
    weights: Mapping[tuple[int, int], float], kernel: KernelSpec, n: int
) -> np.ndarray:
    """Each row's excitation mass bound: the sum of w / rate_floor over its weights."""
    mass = 1.0 / kernel.rate_floor()
    rows = np.zeros(n)
    for (i, _), w in weights.items():
        rows[i] += w * mass
    return rows


def _stable_model(
    weights: dict[tuple[int, int], float],
    baselines: tuple[BaselineSpec, ...],
    kernel: KernelSpec,
    slack: float,
    max_degree: int,
) -> HawkesModel:
    """The builders' shared tail: the model of ``weights``, all scaled down
    together if some row's excitation mass exceeds 1 - slack (which preserves
    the graph), with its declared constants, validated at the build horizon."""
    n = len(baselines)
    rows = _row_masses(weights, kernel, n)
    worst = float(rows.max(initial=0.0))
    if worst > 1.0 - slack:
        factor = (1.0 - slack) / worst
        weights = {k: w * factor for k, w in weights.items()}
        rows = _row_masses(weights, kernel, n)
    model = HawkesModel(
        n=n,
        weights=weights,
        baselines=baselines,
        default_kernel=kernel,
        constants=_declared_constants(weights, rows, baselines, kernel, n, max_degree),
    )
    report = validate_model(model, _BUILD_CHECK_HORIZON)
    if not report.passed:
        raise InfeasibleModelError(f"built model failed validation:\n{report}")
    return model


def random_model(
    n: int,
    d: int,
    seed: int,
    ranges: ModelRanges | None = None,
) -> HawkesModel:
    """Draw a random model with max undirected degree d that passes validation.

    Draw order, fixed so a seed pins the model: kernel decay; n baselines
    (level, then a family coin when sinusoidal_probability > 0, then
    amplitude fraction and frequency for sinusoidal ones); undirected
    pairs in lexicographic order, each kept with probability d/(n-1) unless a
    degree cap binds, then a three-way direction draw (forward, backward,
    both, equally likely) and one weight per active direction; finally one
    self-weight draw per node.  If any row's excitation mass exceeds
    1 - slack all weights are scaled down together, which preserves the
    graph.
    """
    if n < 2 or not 1 <= d < n:
        raise ValueError("need n >= 2 and 1 <= d < n")
    r = ranges or ModelRanges()
    if not (0 < r.cross_weight[0] <= r.cross_weight[1]):
        raise InfeasibleModelError("cross_weight range must be positive and ordered")
    rng = np.random.default_rng(seed)

    decay = float(rng.uniform(*r.decay))
    kernel = KernelSpec(family="exponential", decay=decay)
    baselines = []
    for _ in range(n):
        level = float(rng.uniform(*r.baseline_level))
        if r.sinusoidal_probability > 0 and rng.random() < r.sinusoidal_probability:
            amp = level * float(rng.uniform(*r.amplitude_fraction))
            freq = float(rng.uniform(*r.frequency))
            baselines.append(
                BaselineSpec(family="sinusoidal", level=level, amplitude=amp, frequency=freq)
            )
        else:
            baselines.append(BaselineSpec(family="constant", level=level))

    p = r.edge_probability if r.edge_probability is not None else min(1.0, d / (n - 1))
    degree = [0] * n
    weights: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= p or degree[i] >= d or degree[j] >= d:
                continue
            degree[i] += 1
            degree[j] += 1
            direction = int(rng.integers(0, 3))  # 0: i<-j, 1: j<-i, 2: both
            if direction in (0, 2):
                weights[(i, j)] = float(rng.uniform(*r.cross_weight))
            if direction in (1, 2):
                weights[(j, i)] = float(rng.uniform(*r.cross_weight))
    row_max = [0.0] * n  # cross-weights are positive
    for (i, _), w in weights.items():
        row_max[i] = max(row_max[i], w)
    for i in range(n):
        weights[(i, i)] = row_max[i] + r.self_gap + float(rng.uniform(0.0, r.self_extra))

    return _stable_model(weights, tuple(baselines), kernel, r.stability_slack, d)


def planted_model(
    n: int,
    cross_weights: Mapping[tuple[int, int], float],
    self_weight: float,
    decay: float = 2.0,
    baseline_level: float = 1.0,
    slack: float = 0.25,
) -> HawkesModel:
    """Build a fixed-topology model from explicit (target, source) -> weight
    entries, stabilized the same way random_model is.

    Nominal weights that overload a row are scaled down globally, so the
    requested ratios and graph survive even when the literal values would be
    supercritical.
    """
    if n < 1 or self_weight <= 0:
        raise ValueError("need n >= 1 and a positive self-weight")
    weights = {}
    degree = [0] * n
    seen = set()
    for (i, j), w in cross_weights.items():
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bad cross-weight entry ({i}, {j})")
        if w <= 0:
            continue
        if w >= self_weight:
            raise ValueError(f"cross-weight ({i}, {j}) not dominated by the self-weight")
        weights[(i, j)] = float(w)
        pair = (min(i, j), max(i, j))
        if pair not in seen:
            seen.add(pair)
            degree[i] += 1
            degree[j] += 1
    for i in range(n):
        weights[(i, i)] = float(self_weight)
    kernel = KernelSpec(family="exponential", decay=float(decay))
    baselines = (BaselineSpec(family="constant", level=float(baseline_level)),) * n
    return _stable_model(weights, baselines, kernel, slack, max(max(degree), 1))


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one simulate-and-recover run."""

    seed: int
    fingerprint: str
    config: DetectorConfig
    n: int
    max_degree: int
    event_count: int
    true_edges: tuple[tuple[int, int], ...]
    recovered_edges: tuple[tuple[int, int], ...]
    false_positives: tuple[tuple[int, int], ...]
    false_negatives: tuple[tuple[int, int], ...]
    precision: float
    recall: float
    exact: bool
    peak_intensity: float | None
    wall_time: float


def run_trial(
    model: HawkesModel,
    config: DetectorConfig,
    seed: int,
    calibrate: bool = False,
    n_surrogates: int = 50,
    track_peak: bool = True,
) -> TrialResult:
    """Simulate, bin, accumulate, detect, and compare against the true graph.

    With calibrate=True the config's threshold is replaced by the one
    ``calibrate_threshold`` finds on this trial's own grid (seeded from the
    trial seed, so the whole trial stays deterministic).  Empty sets score
    1.0: precision with nothing recovered, recall with nothing to recover.
    """
    start = time.perf_counter()
    log = simulate(model, config.horizon, seed)
    grid = bin_events(log, config.epsilon)
    if calibrate:
        threshold = calibrate_threshold(
            grid,
            n_surrogates=n_surrogates,
            seed=child_seed(seed, 1),
            use_triples=config.use_triples,
        )
        config = replace(config, threshold=threshold, source="calibrated")
    recovered = detect(accumulate_all(grid), config)
    truth = true_graph(model)
    fp = tuple(sorted(recovered.edges - truth.edges))
    fn = tuple(sorted(truth.edges - recovered.edges))
    precision = 1.0 if not recovered.edges else 1.0 - len(fp) / len(recovered.edges)
    recall = 1.0 if not truth.edges else 1.0 - len(fn) / len(truth.edges)
    peak = None
    if track_peak:
        peak, _ = max_intensity_trace(model, log)
    return TrialResult(
        seed=seed,
        fingerprint=model.fingerprint(),
        config=config,
        n=model.n,
        max_degree=model.constants.max_degree,
        event_count=len(log),
        true_edges=tuple(truth.sorted_edges),
        recovered_edges=tuple(recovered.sorted_edges),
        false_positives=fp,
        false_negatives=fn,
        precision=precision,
        recall=recall,
        exact=recovered.edges == truth.edges,
        peak_intensity=peak,
        wall_time=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class RateBoundReport:
    """How observed peak intensities compare to d^2 * log(n*T)^4."""

    trials: int
    violations: int
    worst_ratio: float
    worst_detail: str

    def __str__(self) -> str:
        return (
            f"{self.violations}/{self.trials} trials above the rate bound; "
            f"worst ratio {self.worst_ratio:.4g} ({self.worst_detail})"
        )


def rate_bound_check(trials: Iterable[TrialResult]) -> RateBoundReport:
    """Count trials whose peak intensity exceeds d^2 * log(n * T)^4.

    Trials without a tracked peak are skipped.  The degree is floored at 1,
    and a zero bound (n * T = 1) is a violation with ratio inf.  The bound is
    loose by design; any violation at all points at a simulator or model bug.
    """
    total = violations = 0
    worst_ratio, worst_detail = -math.inf, "none"
    for tr in trials:
        if tr.peak_intensity is None:
            continue
        total += 1
        bound = max(tr.max_degree, 1) ** 2 * math.log(tr.n * tr.config.horizon) ** 4
        ratio = tr.peak_intensity / bound if bound > 0 else math.inf
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_detail = (
                f"seed {tr.seed}: peak {tr.peak_intensity:.4g} vs bound {bound:.4g}"
            )
        if bound <= 0 or tr.peak_intensity > bound:
            violations += 1
    return RateBoundReport(
        trials=total,
        violations=violations,
        worst_ratio=worst_ratio if total else 0.0,
        worst_detail=worst_detail,
    )


# ---------------------------------------------------------------------------
# Sweeps

SWEEP_COLUMNS = (
    "cell",
    "seed",
    "n",
    "d",
    "horizon",
    "epsilon",
    "threshold",
    "source",
    "use_triples",
    "events",
    "true_edges",
    "recovered_edges",
    "false_positives",
    "false_negatives",
    "precision",
    "recall",
    "exact",
    "peak_intensity",
    "wall_time",
    "status",
)

_CELL_KEYS = {
    "n", "d", "horizon", "epsilon", "threshold", "calibrate",
    "use_triples", "track_peak", "ranges",
}


def _check_sweep_config(config: Mapping) -> tuple[list[Mapping], int, int, int]:
    grid = config.get("grid")
    if not grid:
        raise ValueError("sweep config needs a non-empty 'grid' list")
    for k, cell in enumerate(grid):
        unknown = set(cell) - _CELL_KEYS
        if unknown:
            raise ValueError(f"cell {k}: unknown keys {sorted(unknown)}")
        for key in ("n", "d", "horizon", "epsilon"):
            if key not in cell:
                raise ValueError(f"cell {k}: missing {key!r}")
        if "threshold" not in cell and not cell.get("calibrate", config.get("calibrate")):
            raise ValueError(f"cell {k}: needs 'threshold' or 'calibrate: true'")
    seeds = int(config.get("seeds_per_cell", 1))
    if seeds < 1:
        raise ValueError("seeds_per_cell must be >= 1")
    return list(grid), seeds, int(config.get("seed", 0)), int(config.get("surrogates", 50))


def _shard_key(cell: Mapping, config: Mapping, seeds: int, root_seed: int, surrogates: int) -> str:
    """sha256 of everything a cell's rows depend on besides the code itself."""
    inputs = {
        "cell": cell,
        "seed": root_seed,
        "seeds_per_cell": seeds,
        "surrogates": surrogates,
        "calibrate": bool(config.get("calibrate", False)),
        "version": __version__,
    }
    text = json.dumps(inputs, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _trial_seed(root: int, cell_index: int, trial_index: int) -> int:
    return int(child_seed(root, cell_index * 1_000_000 + trial_index).generate_state(1)[0])


def _run_sweep_trial(
    cell: Mapping,
    defaults: Mapping,
    root_seed: int,
    cell_index: int,
    trial_index: int,
    surrogates: int,
) -> dict:
    seed = _trial_seed(root_seed, cell_index, trial_index)
    row = dict.fromkeys(SWEEP_COLUMNS, "")
    row.update(cell=cell_index, seed=seed, n=cell["n"], d=cell["d"],
               horizon=repr(float(cell["horizon"])), epsilon=repr(float(cell["epsilon"])))
    try:
        ranges = ModelRanges(**cell["ranges"]) if "ranges" in cell else None
        model = random_model(int(cell["n"]), int(cell["d"]), seed, ranges)
        calibrate = bool(cell.get("calibrate", defaults.get("calibrate", False)))
        config = DetectorConfig(
            epsilon=float(cell["epsilon"]),
            horizon=float(cell["horizon"]),
            threshold=float(cell.get("threshold", 1.0)),
            use_triples=bool(cell.get("use_triples", True)),
        )
        result = run_trial(
            model,
            config,
            seed,
            calibrate=calibrate,
            n_surrogates=surrogates,
            track_peak=bool(cell.get("track_peak", True)),
        )
        row.update(
            threshold=repr(result.config.threshold),
            source=result.config.source,
            use_triples=result.config.use_triples,
            events=result.event_count,
            true_edges=len(result.true_edges),
            recovered_edges=len(result.recovered_edges),
            false_positives=len(result.false_positives),
            false_negatives=len(result.false_negatives),
            precision=repr(result.precision),
            recall=repr(result.recall),
            exact=int(result.exact),
            peak_intensity="" if result.peak_intensity is None else repr(result.peak_intensity),
            wall_time=f"{result.wall_time:.3f}",
            status="ok",
        )
    except Exception as exc:  # noqa: BLE001 - per-row failures must not kill the sweep
        row["status"] = f"error: {exc}"
    return row


def _worker_count() -> int:
    raw = os.environ.get("HAWKESGRAPH_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"HAWKESGRAPH_WORKERS must be a positive integer, got {raw!r}")
    return workers


def sweep(config: Mapping | str | Path, out_dir: str | Path) -> Path:
    """Run every (cell, seed) trial of a sweep and write results.csv.

    ``config`` is a mapping or a path to a YAML file with keys: grid (list of
    cells with n, d, horizon, epsilon, and threshold or calibrate), and
    optional seed, seeds_per_cell, surrogates, calibrate.  Each completed
    cell leaves a shard file cell_XXX.csv and, next to it, cell_XXX.key with
    a hash of the cell, those optional settings and the package version.  A
    rerun reuses a shard only when its key matches, so an interrupted sweep
    skips finished cells and an edited one is recomputed.  Rows are keyed by
    (cell, seed) and the merged table is byte-identical for any worker count
    (HAWKESGRAPH_WORKERS).
    """
    if isinstance(config, (str, Path)):
        with open(config, encoding="utf-8") as fh:
            config = yaml.safe_load(fh)
    grid, seeds, root_seed, surrogates = _check_sweep_config(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    workers = _worker_count()

    for k, cell in enumerate(grid):
        shard = out / f"cell_{k:03d}.csv"
        key_file = shard.with_suffix(".key")
        key = _shard_key(cell, config, seeds, root_seed, surrogates)
        if shard.exists() and key_file.exists() and key_file.read_text(encoding="utf-8") == key:
            continue
        key_file.unlink(missing_ok=True)
        args = [(cell, config, root_seed, k, t, surrogates) for t in range(seeds)]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_run_sweep_trial, *zip(*args)))
        else:
            rows = [_run_sweep_trial(*a) for a in args]
        tmp = shard.with_suffix(".tmp")
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        tmp.rename(shard)
        key_file.write_text(key, encoding="utf-8")

    results = out / "results.csv"
    with open(results, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for k in range(len(grid)):
            with open(out / f"cell_{k:03d}.csv", newline="", encoding="utf-8") as shard_fh:
                writer.writerows(csv.DictReader(shard_fh))
    return results

