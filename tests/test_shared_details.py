"""Trace-event details the engine shares between events of one model.

The details of every event kind depend only on the model, so the run
plan builds each mapping once, in the record of its node, chain or
detection, and every event of that record holds the same read-only
object, which caches its JSON text.
These tests pin that the sharing is invisible: the mappings cannot be
changed, their copies are plain dicts, and equality, ``repr`` and trace
bytes are what plain dicts give.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random

import pytest

import fmaf.simulator as simulator
from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.model import Count, Edge, ElapsedBetween, MetricSpec
from fmaf.simulator import (
    ModelViolationsError,
    Outcome,
    SimConfig,
    SimEvent,
    SimTrace,
    compute_metrics,
    enumerate_outcomes,
    format_trace,
    run,
)

from _builders import race_fixture, random_model

SHARED_KINDS = (
    "activity-start",
    "activity-end",
    "recovery-step",
    "message-sent",
    "message-lost",
    "message-delivered",
    "timer-expired",
)


@pytest.fixture(scope="module")
def trace() -> SimTrace:
    """fault1's F1 run, whose detection timeout expires, then the events of
    a nominal run whose timer activities expire."""
    bundle = load_bundle("fault1")
    f1 = run(bundle.model, dataclasses.replace(bundle.scenarios["F1"], seed=0))
    timers = run(random_model(random.Random(0)), SimConfig(horizon=60, seed=0))
    return dataclasses.replace(f1, events=f1.events + timers.events)


def _shared(trace: SimTrace) -> list[SimEvent]:
    return [e for e in trace.events if e.kind in SHARED_KINDS]


def _plain(trace: SimTrace) -> SimTrace:
    events = tuple(dataclasses.replace(e, details=dict(e.details)) for e in trace.events)
    return dataclasses.replace(trace, events=events)


def test_the_trace_holds_every_shared_kind(trace):
    assert {e.kind for e in _shared(trace)} == set(SHARED_KINDS)
    timers = [e.details for e in trace.events if e.kind == "timer-expired"]
    assert {"activity" in d for d in timers} == {True, False}  # node and detection


MUTATIONS = {
    "setitem": lambda d: d.__setitem__("activity", "x"),
    "new key": lambda d: d.__setitem__("new", 1),
    "delitem": lambda d: d.__delitem__("graph"),
    "clear": lambda d: d.clear(),
    "pop": lambda d: d.pop("graph"),
    "pop default": lambda d: d.pop("missing", None),
    "popitem": lambda d: d.popitem(),
    "setdefault": lambda d: d.setdefault("new", 1),
    "setdefault present": lambda d: d.setdefault("graph"),
    "update": lambda d: d.update(new=1),
    "update empty": lambda d: d.update(),
    "ior": lambda d: d.__ior__({"new": 1}),
}


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_every_mutator_raises_and_leaves_the_bytes(trace, mutate):
    before = format_trace(trace)
    for event in _shared(trace):
        with pytest.raises(TypeError, match="read-only"):
            mutate(event.details)
    assert format_trace(trace) == before


def test_copies_pickles_and_deep_copies_are_plain_dicts(trace):
    for event in _shared(trace):
        d = event.details
        copies = [
            dict(d),
            d.copy(),
            copy.copy(d),
            copy.deepcopy(d),
            pickle.loads(pickle.dumps(d)),
            d | {},
        ]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copies.append(pickle.loads(pickle.dumps(d, protocol)))
        for twin in copies:
            assert type(twin) is dict
            assert twin == d
            twin["changed"] = True  # a copy is free to change
        assert "changed" not in d


def test_a_copied_event_pickles_with_plain_details(trace):
    event = _shared(trace)[0]
    twin = pickle.loads(pickle.dumps(event))
    assert twin == event
    assert type(twin.details) is dict
    assert type(copy.deepcopy(event).details) is dict


def test_repr_is_that_of_a_plain_dict(trace):
    for event in _shared(trace):
        plain = dataclasses.replace(event, details=dict(event.details))
        assert repr(event) == repr(plain)
        assert repr(event.details) == repr(dict(event.details))


def test_a_trace_equals_its_plain_dict_rebuild(trace):
    plain = _plain(trace)
    assert trace == plain
    assert trace.events == plain.events
    assert format_trace(plain) == format_trace(trace)


def test_replaced_events_format_as_json_dumps(trace):
    format_trace(trace)  # render the text of every shared mapping
    for event in _shared(trace):
        for changed in (
            dataclasses.replace(event, kind="renamed"),
            dataclasses.replace(event, actor="Somebody é"),
            dataclasses.replace(event, time=True),
            dataclasses.replace(event, time=False),
            dataclasses.replace(event, time=2.5),
            dataclasses.replace(event, actor=7),
            dataclasses.replace(event, actor=None),
            dataclasses.replace(event, actor=["unhashable"]),
            dataclasses.replace(event, kind={"un": "hashable"}),
        ):
            assert changed.details is event.details
            one = SimTrace(trace.config, (changed,), {}, trace.outcome)
            line = format_trace(one).split("\n")[0]
            want = json.dumps(
                {
                    "time": changed.time,
                    "kind": changed.kind,
                    "actor": changed.actor,
                    "details": dict(changed.details),
                },
                sort_keys=True,
            )
            assert line == want
    assert format_trace(trace) == format_trace(_plain(trace))


def test_events_of_one_node_share_their_details(trace):
    by_content: dict[tuple, object] = {}
    for event in _shared(trace):
        key = tuple(sorted(event.details.items()))
        assert by_content.setdefault(key, event.details) is event.details


def _bytes(model, config) -> str:
    return format_trace(run(model, config))


def test_models_and_configs_run_alternately_give_their_solo_bytes():
    fault2 = load_bundle("fault2")
    first = fault2.model
    second = random_model(random.Random(4))
    plans = [
        (first, dataclasses.replace(fault2.scenarios["F2.1"], seed=3)),
        (first, dataclasses.replace(fault2.scenarios["F2.3"], seed=5)),
        (second, SimConfig(horizon=60, seed=1)),
        (race_fixture(), SimConfig(scenario="CH", horizon=60, seed=1)),
    ]
    # Solo bytes come from fresh model objects, each with an empty plan.
    solo = [
        _bytes(load_bundle("fault2").model, plans[0][1]),
        _bytes(load_bundle("fault2").model, plans[1][1]),
        _bytes(random_model(random.Random(4)), plans[2][1]),
        _bytes(race_fixture(), plans[3][1]),
    ]
    for _ in range(3):
        for (model, config), want in zip(plans, solo):
            assert _bytes(model, config) == want
        for (model, config), want in reversed(list(zip(plans, solo))):
            assert _bytes(model, config) == want


def _counting(monkeypatch) -> tuple[list, list]:
    """The details built and the trace event rows recorded from here on."""
    details, events = [], []
    init, finish = simulator._Details.__init__, simulator._Engine.finish

    def counted_details(self, items):
        details.append(items)
        init(self, items)

    def counted_finish(engine):
        events.extend(engine.events)
        return finish(engine)

    monkeypatch.setattr(simulator._Details, "__init__", counted_details)
    monkeypatch.setattr(simulator._Engine, "finish", counted_finish)
    return details, events


def _enumerated_configs():
    fault1 = load_bundle("fault1")
    f1 = fault1.scenarios["F1"]
    yield fault1.model, f1
    yield fault1.model, dataclasses.replace(f1, recovery_enabled=False)
    yield race_fixture(), SimConfig(scenario="CH", horizon=60, seed=1)


def test_repeated_runs_and_enumerations_build_no_details(monkeypatch):
    details, events = _counting(monkeypatch)
    for model, config in _enumerated_configs():
        run(model, config)
        built = len(details)
        run(model, config)
        assert len(details) == built
        recorded = len(events)
        enumerate_outcomes(model, config)
        built = len(details)
        enumerate_outcomes(model, config)
        assert len(details) == built
        assert len(events) == recorded  # enumeration records no trace events
    assert details and events


def test_every_recorded_event_holds_shared_details():
    kinds = set()
    for model, config in _metric_runs():
        try:
            first = run(model, config)
        except ModelViolationsError:
            continue
        again = run(model, config)
        for one, two in zip(first.events, again.events, strict=True):
            assert type(one.details) is simulator._Details, one.kind
            assert one.details is two.details, one.kind
            kinds.add(one.kind)
    assert {
        "fault-activated",
        "error-raised",
        "error-detected",
        "recovery-started",
        "recovery-complete",
        "failure-observed",
    } <= kinds


def _detail_only_metrics(model) -> dict[str, MetricSpec]:
    """A qualified count and elapsed metric matched by detail values alone."""
    actors = set(model.constituents) | set(model.environment)
    graph = min(g for g in model.processes if g not in actors)
    activity = min(a for a in model.processes[graph].nodes if a not in actors)
    return {
        "DetailCount": MetricSpec("DetailCount", Count(f"activity-end:{graph}")),
        "DetailSpan": MetricSpec(
            "DetailSpan",
            ElapsedBetween(f"activity-start:{activity}", f"activity-end:{graph}"),
        ),
    }


def _metric_runs():
    for name in BUNDLE_NAMES:
        bundle = load_bundle(name)
        for config in bundle.scenarios.values():
            for seed in range(5):
                yield bundle.model, dataclasses.replace(config, seed=seed)
    for seed in range(50):
        model = random_model(random.Random(seed))
        for scenario in (None, *sorted(model.chains)):
            yield model, SimConfig(scenario=scenario, seed=seed, horizon=60)


def test_metrics_from_shared_details_equal_those_of_plain_dicts():
    compared = matched = 0
    for model, config in _metric_runs():
        model = dataclasses.replace(
            model, metrics={**model.metrics, **_detail_only_metrics(model)}
        )
        try:
            trace = run(model, config)
        except ModelViolationsError:
            continue  # refused by the checker
        assert compute_metrics(_plain(trace), model.metrics.values()) == trace.metrics
        compared += 1
        matched += trace.metrics["DetailCount"] > 0
        matched += trace.metrics["DetailSpan"] is not None
    assert compared > 90 and matched > 60


def test_a_non_string_detail_value_never_matches_a_qualifier():
    details = {"channel": "Radio", "tick": 5, "flag": True, "ratio": 1.0}
    specs = [
        MetricSpec("Str", Count("message-sent:Radio")),
        MetricSpec("Int", Count("message-sent:5")),
        MetricSpec("Bool", Count("message-sent:True")),
        MetricSpec("Float", Count("message-sent:1.0")),
        MetricSpec("Actor", Count("message-sent:Unit")),
    ]
    want = {"Str": 1, "Int": 0, "Bool": 0, "Float": 0, "Actor": 1}
    for d in (details, simulator._details(details)):
        event = SimEvent(3, "message-sent", "Unit", d)
        trace = SimTrace(SimConfig(), (event,), {}, Outcome("nominal"))
        assert compute_metrics(trace, specs) == want


def test_step_tables_belong_to_the_model_they_were_built_for():
    original = race_fixture()
    config = SimConfig(horizon=60, seed=1)
    before = _bytes(original, config)
    instances = simulator._plan(original).instances
    assert list(instances) == ["nominal:P", "nominal:Q", "nominal:R"]
    assert instances["nominal:P"]["p_report"].sent["graph"] == "GP"
    # GP runs p_setup -> p_serve -> p_report -> p_done; drop the report.
    graph = original.processes["GP"]
    nodes = {k: v for k, v in graph.nodes.items() if k != "p_report"}
    edges = [e for e in graph.edges if e.src not in ("p_serve", "p_report")]
    edges.append(Edge("p_serve", "p_done"))
    rewired = dataclasses.replace(graph, nodes=nodes, edges=tuple(edges))
    changed = dataclasses.replace(
        original, processes={**original.processes, "GP": rewired}
    )
    fresh = dataclasses.replace(race_fixture(), processes=changed.processes)
    after = _bytes(changed, config)
    assert after == _bytes(fresh, config)
    assert after != before and '"activity": "p_report"' not in after
    assert _bytes(original, config) == before


def test_a_nominal_graph_run_as_recovery_gets_its_own_details():
    model = race_fixture()
    rself = dataclasses.replace(
        model.recoveries["RSELF"], graphs={"P": "GP"}, success_exits=frozenset({"p_done"})
    )
    model = dataclasses.replace(model, recoveries={**model.recoveries, "RSELF": rself})
    config = SimConfig(scenario="CH", horizon=60, enabled_detectors=frozenset({"P"}))
    trace = run(model, config)
    assert trace.outcome == Outcome("recovered", by="P", recovery="RSELF")
    nominal = [e.details for e in trace.events if e.kind in ("activity-start", "activity-end")]
    steps = [e.details for e in trace.events if e.kind == "recovery-step"]
    assert {d["graph"] for d in nominal} >= {"GP"}
    assert {d["graph"] for d in steps} == {"GP"}
    assert all("recovery" not in d for d in nominal)
    assert all(d["recovery"] == "RSELF" for d in steps)
    assert {d["activity"] for d in steps} == {"p_setup", "p_serve", "p_report", "p_done"}
    assert set(simulator._plan(model).instances) >= {"nominal:P", "recovery:RSELF:P"}
    assert format_trace(run(model, config)) == format_trace(trace)
