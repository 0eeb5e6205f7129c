"""Exhaustive outcome enumeration as an oracle for seeded runs.

The simulator consumes random draws only where the model is genuinely
probabilistic (lossy connections, third-party detection). Enumeration
forks the run at each such draw and explores both answers of every
branch, so the set it returns contains every outcome any seed can
produce. The demo cross-checks that on the bundled models.

Run:  python3 demos/04_outcome_enumeration.py
"""

import dataclasses

from fmaf import SimConfig, enumerate_outcomes, load_bundle, run, summarize

bundle = load_bundle("fault3")
model = bundle.model

# F3.2: the operator records a wrong location. The radio link to the
# unit runs at reliability 0.9, so recovery messages can be lost.
cfg = bundle.scenarios["F3.2"]
outcomes = enumerate_outcomes(model, cfg)
print("every reachable outcome of scenario F3.2:")
for outcome in sorted(outcomes, key=str):
    print(f"  {outcome}")
print()

print("cross-check: 30 seeds, each summary must be in the enumerated set")
hits = {}
for seed in range(30):
    summary = summarize(run(model, dataclasses.replace(cfg, seed=seed)))
    assert summary in outcomes, (seed, summary)
    hits[summary] = hits.get(summary, 0) + 1
for summary, count in sorted(hits.items(), key=str):
    print(f"  {count:>2} seeds -> {summary}")
print()

# A scenario with no randomness enumerates to a single outcome.
nominal = load_bundle("nominal")
single = enumerate_outcomes(nominal.model, nominal.scenarios["nominal"])
print(f"nominal scenario has exactly {len(single)} reachable outcome: "
      f"{next(iter(single))}")
print()

# With recovery disabled the error always reaches the boundary.
no_recovery = dataclasses.replace(cfg, recovery_enabled=False)
blocked = enumerate_outcomes(model, no_recovery)
print(f"F3.2 with recovery disabled: {sorted(blocked, key=str)}")
