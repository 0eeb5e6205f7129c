"""Golden traces: the JSONL bytes of every runnable bundle scenario.

``docs/trace-format.md`` promises that trace bytes stay fixed for a
given (model, config).  Each runnable sidecar scenario of the four
bundles (every one not expected to be a checker violation) is run at
seeds 0-4 and the sha256 of ``format_trace`` compared with the digest
recorded here.  A digest only changes when the trace format or the
simulation semantics change on purpose; then regenerate the table.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.simulator import format_trace, run

SEEDS = range(5)

GOLDEN = {
    ("nominal", "nominal", 0): "252a9647913806f1d29ebb57e236d1088a8bc15df0a09f5364ce30b2caac6f14",
    ("nominal", "nominal", 1): "252a9647913806f1d29ebb57e236d1088a8bc15df0a09f5364ce30b2caac6f14",
    ("nominal", "nominal", 2): "252a9647913806f1d29ebb57e236d1088a8bc15df0a09f5364ce30b2caac6f14",
    ("nominal", "nominal", 3): "252a9647913806f1d29ebb57e236d1088a8bc15df0a09f5364ce30b2caac6f14",
    ("nominal", "nominal", 4): "252a9647913806f1d29ebb57e236d1088a8bc15df0a09f5364ce30b2caac6f14",
    ("fault1", "F1", 0): "f51af1dcd2609be3ff731e2902f58b2d2bce2d1c0c6520217d66ca58a1a14dd4",
    ("fault1", "F1", 1): "f51af1dcd2609be3ff731e2902f58b2d2bce2d1c0c6520217d66ca58a1a14dd4",
    ("fault1", "F1", 2): "f51af1dcd2609be3ff731e2902f58b2d2bce2d1c0c6520217d66ca58a1a14dd4",
    ("fault1", "F1", 3): "f51af1dcd2609be3ff731e2902f58b2d2bce2d1c0c6520217d66ca58a1a14dd4",
    ("fault1", "F1", 4): "f51af1dcd2609be3ff731e2902f58b2d2bce2d1c0c6520217d66ca58a1a14dd4",
    ("fault1", "F1.eru-only", 0): "8dd5fe69bcbd4308a50e753b54642f0e50a3cd04ace84e53fc9010f65e1453bb",
    ("fault1", "F1.eru-only", 1): "8dd5fe69bcbd4308a50e753b54642f0e50a3cd04ace84e53fc9010f65e1453bb",
    ("fault1", "F1.eru-only", 2): "8dd5fe69bcbd4308a50e753b54642f0e50a3cd04ace84e53fc9010f65e1453bb",
    ("fault1", "F1.eru-only", 3): "8dd5fe69bcbd4308a50e753b54642f0e50a3cd04ace84e53fc9010f65e1453bb",
    ("fault1", "F1.eru-only", 4): "8dd5fe69bcbd4308a50e753b54642f0e50a3cd04ace84e53fc9010f65e1453bb",
    ("fault2", "F2.1", 0): "78058f219b3ca6e2c45838d9cd207ea7550b3b5274e543fabda469fe2305f5d6",
    ("fault2", "F2.1", 1): "e0c99b4d607dc711bd7a5b0cab339451809888dfd03836fd55d2a471105b7883",
    ("fault2", "F2.1", 2): "78058f219b3ca6e2c45838d9cd207ea7550b3b5274e543fabda469fe2305f5d6",
    ("fault2", "F2.1", 3): "e0c99b4d607dc711bd7a5b0cab339451809888dfd03836fd55d2a471105b7883",
    ("fault2", "F2.1", 4): "e0c99b4d607dc711bd7a5b0cab339451809888dfd03836fd55d2a471105b7883",
    ("fault2", "F2.2", 0): "ef15c8228a05ab54110e4a7dc010153021d2f887219c7ae16cd4d4a5e0635dc6",
    ("fault2", "F2.2", 1): "ef15c8228a05ab54110e4a7dc010153021d2f887219c7ae16cd4d4a5e0635dc6",
    ("fault2", "F2.2", 2): "ef15c8228a05ab54110e4a7dc010153021d2f887219c7ae16cd4d4a5e0635dc6",
    ("fault2", "F2.2", 3): "ef15c8228a05ab54110e4a7dc010153021d2f887219c7ae16cd4d4a5e0635dc6",
    ("fault2", "F2.2", 4): "ef15c8228a05ab54110e4a7dc010153021d2f887219c7ae16cd4d4a5e0635dc6",
    ("fault2", "F2.3", 0): "2290a7f9f43db5247d108fa719ef681e8218b95907054ab4e8882796d531db37",
    ("fault2", "F2.3", 1): "2290a7f9f43db5247d108fa719ef681e8218b95907054ab4e8882796d531db37",
    ("fault2", "F2.3", 2): "2290a7f9f43db5247d108fa719ef681e8218b95907054ab4e8882796d531db37",
    ("fault2", "F2.3", 3): "2290a7f9f43db5247d108fa719ef681e8218b95907054ab4e8882796d531db37",
    ("fault2", "F2.3", 4): "2290a7f9f43db5247d108fa719ef681e8218b95907054ab4e8882796d531db37",
    ("fault3", "F3.2", 0): "7e6170d0db90af0f231f43b99613f7f6a7b135db56d995d773edbdae5b2ff836",
    ("fault3", "F3.2", 1): "7e6170d0db90af0f231f43b99613f7f6a7b135db56d995d773edbdae5b2ff836",
    ("fault3", "F3.2", 2): "961a10663843eae4ad7055dd8167f38d3321189ca750de0c2d8e73690b69f10b",
    ("fault3", "F3.2", 3): "7e6170d0db90af0f231f43b99613f7f6a7b135db56d995d773edbdae5b2ff836",
    ("fault3", "F3.2", 4): "7e6170d0db90af0f231f43b99613f7f6a7b135db56d995d773edbdae5b2ff836",
    ("fault3", "F3.3", 0): "75bd463dd1a0b0170df70148e41fb5120b673ac6e95b63b9286ba86c56bb904f",
    ("fault3", "F3.3", 1): "75bd463dd1a0b0170df70148e41fb5120b673ac6e95b63b9286ba86c56bb904f",
    ("fault3", "F3.3", 2): "75bd463dd1a0b0170df70148e41fb5120b673ac6e95b63b9286ba86c56bb904f",
    ("fault3", "F3.3", 3): "75bd463dd1a0b0170df70148e41fb5120b673ac6e95b63b9286ba86c56bb904f",
    ("fault3", "F3.3", 4): "75bd463dd1a0b0170df70148e41fb5120b673ac6e95b63b9286ba86c56bb904f",
    ("fault3", "F3.4", 0): "69cd840f253665c0f910cc4524ed642c9ccd766ecf15e62f28b177df999de71d",
    ("fault3", "F3.4", 1): "69cd840f253665c0f910cc4524ed642c9ccd766ecf15e62f28b177df999de71d",
    ("fault3", "F3.4", 2): "efa2f593c4fd0966113085943a9bfc0e03b159bfef0100d5d8a7179b460d9da9",
    ("fault3", "F3.4", 3): "69cd840f253665c0f910cc4524ed642c9ccd766ecf15e62f28b177df999de71d",
    ("fault3", "F3.4", 4): "69cd840f253665c0f910cc4524ed642c9ccd766ecf15e62f28b177df999de71d",
}


def _runnable():
    for name in BUNDLE_NAMES:
        bundle = load_bundle(name)
        for sname in bundle.scenarios:
            if bundle.expected.get(sname, {}).get("outcome") == "checker-violation":
                continue
            yield name, sname


RUNNABLE = list(_runnable())


def test_table_covers_every_runnable_scenario():
    assert set(GOLDEN) == {(b, s, seed) for b, s in RUNNABLE for seed in SEEDS}


@pytest.mark.parametrize("bundle_name,scenario", RUNNABLE)
def test_trace_bytes_are_pinned(bundle_name, scenario):
    bundle = load_bundle(bundle_name)
    for seed in SEEDS:
        cfg = dataclasses.replace(bundle.scenarios[scenario], seed=seed)
        text = format_trace(run(bundle.model, cfg))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == GOLDEN[(bundle_name, scenario, seed)], (bundle_name, scenario, seed)
