"""The direct trace writer against the ``json.dumps`` formatter.

``format_trace`` builds each event line itself.  ``reference_format``
below is the formatter it replaced, one ``json.dumps(..., sort_keys=True)``
per record; both must give the same bytes, or raise the same exception.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import types

import pytest

from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.simulator import (
    Outcome,
    SimConfig,
    SimEvent,
    SimTrace,
    SimulationError,
    format_trace,
    run,
)

from _builders import random_model


def reference_format(trace: SimTrace) -> str:
    lines = [
        json.dumps(
            {
                "time": e.time,
                "kind": e.kind,
                "actor": e.actor,
                "details": dict(e.details),
            },
            sort_keys=True,
        )
        for e in trace.events
    ]
    lines.append(
        json.dumps(
            {
                "summary": {
                    "outcome": trace.outcome.kind,
                    "by": trace.outcome.by,
                    "recovery": trace.outcome.recovery,
                    "metrics": dict(trace.metrics),
                    "events": len(trace.events),
                }
            },
            sort_keys=True,
        )
    )
    return "\n".join(lines) + "\n"


def _result(fn, trace):
    try:
        return "ok", fn(trace)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def assert_same(trace: SimTrace) -> None:
    assert _result(format_trace, trace) == _result(reference_format, trace)


def _bundle_runs():
    for name in BUNDLE_NAMES:
        bundle = load_bundle(name)
        for sname, config in bundle.scenarios.items():
            if bundle.expected.get(sname, {}).get("outcome") == "checker-violation":
                continue
            yield pytest.param(bundle.model, config, id=f"{name}/{sname}")


def _half_tick_run():
    """fault1's F1 with the first nominal activity lasting 1.5 ticks, so
    the engine's rows carry float times from its end on."""
    bundle = load_bundle("fault1")
    model = bundle.model
    graph = model.processes[next(iter(model.constituents.values())).nominal_process]
    entry = dataclasses.replace(graph.nodes[graph.entry], duration=1.5)
    graph = dataclasses.replace(graph, nodes={**graph.nodes, entry.id: entry})
    model = dataclasses.replace(model, processes={**model.processes, graph.id: graph})
    return pytest.param(model, bundle.scenarios["F1"], id="fault1/F1-1.5-ticks")


@pytest.mark.parametrize("model,config", [*_bundle_runs(), _half_tick_run()])
def test_bundle_traces_match(model, config):
    for seed in range(5):
        assert_same(run(model, dataclasses.replace(config, seed=seed)))


def test_random_model_traces_match():
    traces = 0
    for seed in range(100):
        model = random_model(random.Random(seed))
        for scenario in [None, *sorted(model.chains)]:
            try:
                trace = run(model, SimConfig(scenario=scenario, horizon=60, seed=seed))
            except SimulationError:
                continue
            assert_same(trace)
            traces += 1
    assert traces >= 100


def _trace(details: dict, metrics: dict | None = None, **event) -> SimTrace:
    fields = {"time": 3, "kind": "activity-start", "actor": "Radio", **event}
    return SimTrace(
        SimConfig(),
        (SimEvent(details=details, **fields), SimEvent(4, "x", "y", {})),
        metrics if metrics is not None else {"Gone": None, "Count": 2},
        Outcome("recovered", by="ERU", recovery="R2.1"),
    )


ODD_VALUES = {
    "ascii": "plain",
    "empty": "",
    "accents": "Krankenwagen \u00fcber Br\u00fccke \u2013 caf\u00e9",
    "astral": "\U0001f691 ambulance",
    "surrogate": "\ud800 alone",
    "quotes": 'say "hi"',
    "backslash": "C:\\temp\\n",
    "control": "tab\there\nnew\x00nul\x1f\x7f",
    "true": True,
    "false": False,
    "tenth": 0.1,
    "big": 1e20,
    "neg": -2.5,
    "nan": math.nan,
    "inf": -math.inf,
    "zero": 0,
    "negint": -17,
    "huge": 10**30,
    "none": None,
    "nested": {"b": [1, "\u00e9", None, {"z": 1, "a": (2.0, False)}], "a": {}},
    "list": ["x", 1, 0.5, None, True],
}


def test_odd_detail_values_match():
    assert_same(_trace(ODD_VALUES))
    for key, value in ODD_VALUES.items():
        assert_same(_trace({key: value}))
        assert_same(_trace({}, actor=value, kind=value, time=value))


# Metrics the summary line must encode as json.dumps does: every odd
# value, keys that are not strings (which json.dumps turns into strings
# after sorting them), keys that do not sort (a TypeError either way),
# and a mapping that is not a dict.
ODD_METRICS = (
    {},
    {"Z": None, "a": 0, "\u00c9": 5},
    ODD_VALUES,
    {2: 1, 10: None, -3: 0},
    {0.5: 1, 2.0: 2, True: 3},
    {None: 1},
    {1: 0, "a": 1},
    types.MappingProxyType({"Z": 1, "a": None}),
)


def test_odd_keys_and_metrics_match():
    assert_same(_trace({"\u00e9t\u00e9": 1, 'q"uote': 2, "a\\b": 3, "": 4}))
    fault2 = load_bundle("fault2")
    ran = run(fault2.model, fault2.scenarios["F2.1"])
    for metrics in ODD_METRICS:
        assert_same(_trace({}, metrics=metrics))
        assert_same(dataclasses.replace(ran, metrics=metrics))
    assert_same(dataclasses.replace(ran, outcome=Outcome(math.nan, by=True, recovery=("R", 1.5))))


def test_unencodable_values_fail_alike():
    assert _result(format_trace, _trace({"obj": object()}))[0] is TypeError
    assert_same(_trace({"obj": object()}))


def test_random_details_match():
    rng = random.Random(7)
    pool = [chr(c) for c in (0, 9, 10, 31, 34, 47, 92, 127, 233, 8211, 0xD83D)]
    pool += list("abcXYZ09 _-")

    def text():
        return "".join(rng.choice(pool) for _ in range(rng.randrange(8)))

    def value(depth=0):
        pick = rng.randrange(8 if depth < 2 else 6)
        if pick == 0:
            return text()
        if pick == 1:
            return rng.randrange(-(10**6), 10**6)
        if pick == 2:
            return rng.choice([True, False, None])
        if pick == 3:
            return rng.uniform(-1e6, 1e6)
        if pick == 4:
            return rng.choice([0.1, 1e20, 1e-7, math.nan, math.inf, -0.0])
        if pick == 5:
            return rng.randrange(2**70)
        if pick == 6:
            return [value(depth + 1) for _ in range(rng.randrange(3))]
        return {text(): value(depth + 1) for _ in range(rng.randrange(3))}

    for _ in range(300):
        details = {text(): value() for _ in range(rng.randrange(6))}
        assert_same(_trace(details, actor=text(), kind=text()))
