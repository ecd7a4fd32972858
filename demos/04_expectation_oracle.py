#!/usr/bin/env python3
"""Check the closed-form pattern expectations against brute-force simulation.

Each pattern probability has a polynomial prediction in the bin width; the
Monte Carlo oracle draws fresh continuations from the simulator's cluster
sampler and counts occurrences.
The discrepancy should shrink one order faster than the prediction itself.
A second section conditions on a real history prefix instead of an empty
one, which is how the oracle is used mid-stream.
"""

from hawkesgraph import (
    mc_indicator,
    planted_model,
    simulate,
    within_envelope,
)

model = planted_model(2, {(1, 0): 0.4}, self_weight=0.8, decay=2.0)

print("pattern expectations from an empty history, N=1e6 each:")
for pattern in ("ij", "ji", "iij", "iji", "jii"):
    report = mc_indicator(model, None, 0.0, 0.02, pattern, 0, 1, 1_000_000, seed=17)
    ok = within_envelope(report, model.constants.max_degree, 1.0)
    print(("  ok   " if ok else "  FAIL ") + str(report))

print()
print("discrepancy decay for the ij pattern:")
for eps in (0.08, 0.04, 0.02):
    report = mc_indicator(model, None, 0.0, eps, "ij", 0, 1, 2_000_000, seed=19)
    print(f"  eps={eps:.2f}  predicted={report.predicted:.3e}  "
          f"discrepancy={report.discrepancy:.3e}  "
          f"ratio to eps^3 = {report.discrepancy / eps**3:.2f}")

print()
prefix = simulate(model, 30.0, seed=23)
report = mc_indicator(model, prefix, 30.0, 0.02, "ij", 0, 1, 1_000_000, seed=29)
print("conditioned on a 30-unit simulated prefix "
      f"({len(prefix)} events):")
print(" ", report)
