#!/usr/bin/env python3
"""Invariance checks and the sweep harness.

Detection reads nothing but bin occupancies, so perturbations inside a bin
and restriction to an observed subset both leave results untouched.  The
sweep harness turns a parameter grid into one results.csv with a child seed
per trial.
"""

import tempfile
from pathlib import Path

import numpy as np

from hawkesgraph import (
    DetectorConfig,
    accumulate_all,
    bin_events,
    detect,
    detect_subset,
    jitter,
    planted_model,
    rate_bound_check,
    run_trial,
    simulate,
    sweep,
)

model = planted_model(3, {(1, 0): 0.6, (2, 1): 0.6}, self_weight=0.8, decay=2.0)
log = simulate(model, 300.0, seed=6)
eps = 0.1
config = DetectorConfig(epsilon=eps, horizon=300.0, threshold=0.05, use_triples=False)

# Jitter below the distance to the nearest bin edge: nothing may change.
edge_gap = float(np.minimum(log.times % eps, eps - log.times % eps).min())
shaken = jitter(log, magnitude=0.45 * edge_gap, seed=60)
same = accumulate_all(bin_events(log, eps)) == accumulate_all(bin_events(shaken, eps))
print(f"jitter below half the edge gap ({edge_gap:.2e}): statistics identical = {same}")

# Restriction invariance: drop node 1 and compare against the full result.
full = detect(accumulate_all(bin_events(log, eps)), config)
sub = detect_subset(log, [0, 2], config)
print(f"full graph {full.sorted_edges}, observed {{0, 2}} -> {sub.sorted_edges}, "
      f"matches restriction = {sub.edges == full.restrict([0, 2]).edges}")

# A trial bundles simulate + calibrate + detect + scoring.  Recovery needs
# signal the statistics can reach, so this one uses a low-baseline pair
# with a long horizon rather than the chain above.
strong = planted_model(
    2, {(1, 0): 0.7}, self_weight=0.75, decay=2.0, baseline_level=0.5, slack=0.25
)
trial = run_trial(
    strong,
    DetectorConfig(epsilon=eps, horizon=10_000.0, threshold=1.0, use_triples=False),
    seed=9,
    calibrate=True,
)
print(f"trial: recovered {trial.recovered_edges}, precision {trial.precision:.2f}, "
      f"recall {trial.recall:.2f}, peak intensity {trial.peak_intensity:.2f}")
print(rate_bound_check([trial]))

# A two-cell sweep; rerunning in the same directory reuses finished shards
# whose key (cell, sweep settings, package version) still matches.
grid = {
    "seed": 2024,
    "seeds_per_cell": 3,
    "grid": [
        {"n": 3, "d": 1, "horizon": 150.0, "epsilon": 0.1, "threshold": 0.3},
        {"n": 4, "d": 2, "horizon": 150.0, "epsilon": 0.1, "threshold": 0.3},
    ],
}
with tempfile.TemporaryDirectory() as tmp:
    results = sweep(grid, Path(tmp) / "out")
    lines = results.read_text(encoding="utf-8").splitlines()
    print(f"\nsweep wrote {len(lines) - 1} rows:")
    for line in lines[:4]:
        print(" ", line[:110])
