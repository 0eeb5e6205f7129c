"""Trace bytes of generated models, pinned past the bundles.

``test_golden_traces`` pins the bundles only. Here one sha256 covers the
``format_trace`` bytes of ``random_model`` seeds 0-199, each run nominal and
once per chain, at simulator seeds 0-4. A run the checker refuses
(``ModelViolationsError``) or that raises ``SimulationError`` is counted but
left out of the digest, so that giving such runs an outcome later does not
move it. The digest only changes when the trace format or the simulation
semantics change on purpose.
"""

from __future__ import annotations

import hashlib
import random

from fmaf.simulator import ModelViolationsError, SimConfig, SimulationError, format_trace, run

from _builders import random_model

DIGEST = "847fa6a686fef8397aa987cfdc68b48abbcd42af51e34a964beab3fcd9235dbf"


def test_random_model_traces_are_pinned():
    digest = hashlib.sha256()
    traced = raising = refused = 0
    for model_seed in range(200):
        model = random_model(random.Random(model_seed))
        for scenario in [None, *sorted(model.chains)]:
            for seed in range(5):
                try:
                    trace = run(model, SimConfig(scenario=scenario, seed=seed))
                except ModelViolationsError:
                    refused += 1
                    continue
                except SimulationError:
                    raising += 1
                    continue
                traced += 1
                digest.update(format_trace(trace).encode("utf-8"))
    assert (traced, raising, refused) == (1098, 17, 815)
    assert digest.hexdigest() == DIGEST
