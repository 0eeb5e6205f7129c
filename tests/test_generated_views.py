"""DOT bytes of every view, pinned past the unit tests.

``test_viewgen`` checks view structure; here one sha256 covers the
``to_dot`` text of the four bundles and of ``random_model`` seeds 0-199:
``fts`` and ``fef`` once per model, the five focused kinds once per chain,
and ``erroneous-scenario`` from the seed-0 run of nominal and of each
chain. A focused view that raises ``ViewError`` is counted but left out of
the digest; a run the checker refuses, or whose activation never fires
(``not-activated``), is skipped, as in ``test_generated_traces``. It only
changes when a projection or the DOT writer changes on purpose.
"""

from __future__ import annotations

import hashlib
import random

from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.simulator import ModelViolationsError, SimConfig, run
from fmaf.viewgen import ViewError, project, to_dot

from _builders import random_model

DIGEST = "053341b0bcc88400798b5bbb0a65b827d8c86d7d3ccd55fba21cf79b591058d3"

_FOCUSED = ("tcv", "ftcv", "fav", "recovery", "erroneous-process")


def _models():
    for name in BUNDLE_NAMES:
        yield load_bundle(name).model
    for seed in range(200):
        yield random_model(random.Random(seed))


def test_generated_views_are_pinned():
    digest = hashlib.sha256()
    documents = refused = 0

    def add(graph) -> None:
        nonlocal documents
        documents += 1
        digest.update(to_dot(graph).encode("utf-8"))

    for model in _models():
        add(project(model, "fts"))
        add(project(model, "fef"))
        for chain in sorted(model.chains):
            for kind in _FOCUSED:
                try:
                    graph = project(model, kind, focus=chain)
                except ViewError:
                    refused += 1
                    continue
                add(graph)
        for scenario in [None, *sorted(model.chains)]:
            try:
                trace = run(model, SimConfig(scenario=scenario, seed=0))
            except ModelViolationsError:
                continue
            if trace.outcome.kind == "not-activated":
                continue
            add(project(model, "erroneous-scenario", trace=trace))
    assert (documents, refused) == (1514, 90)
    assert digest.hexdigest() == DIGEST
