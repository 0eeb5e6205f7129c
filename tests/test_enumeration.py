"""The forking enumerator against the replay-from-tick-0 reference.

``enumerate_outcomes`` forks engine state at each Bernoulli choice.
``replay_outcomes`` below is the original algorithm, which re-ran the
engine from tick 0 for every choice prefix; both must agree on the
outcome set or raise the same exception with the same message.

Forks share activity-graph instances until one engine changes them, and
enumeration engines record no trace events; the fork-isolation tests at
the end hold both properties.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import fmaf.simulator as simulator
from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.model import (
    Activity,
    ActivityGraph,
    ActivityKind,
    Connection,
    ConstituentSystem,
    Edge,
    build_model,
)
from fmaf.simulator import (
    BoundExceededError,
    NeedChoice,
    ScriptedSampler,
    SimConfig,
    SimulationError,
    _Engine,
    _validate,
    enumerate_outcomes,
    summarize,
)

from _builders import action, race_fixture, random_model, seq_graph


def replay_outcomes(model, config, bound=12):
    for graph in model.processes.values():
        if len(graph.nodes) > bound:
            raise BoundExceededError(
                f"graph {graph.id!r} has {len(graph.nodes)} activities; "
                f"bound is {bound}"
            )
    _validate(model, config)
    outcomes = set()
    stack = [()]
    explored = 0
    while stack:
        prefix = stack.pop()
        explored += 1
        if explored > 4096:
            raise BoundExceededError("choice space exceeds 4096 branches")
        engine = _Engine(model, config, ScriptedSampler(prefix))
        try:
            trace = engine.run()
        except NeedChoice:
            stack.append(prefix + (False,))
            stack.append(prefix + (True,))
            continue
        outcomes.add(summarize(trace))
    return outcomes


def _result(enumerate_fn, model, config, **kw):
    try:
        return "ok", enumerate_fn(model, config, **kw)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def assert_same(model, config, **kw):
    expected = _result(replay_outcomes, model, config, **kw)
    assert _result(enumerate_outcomes, model, config, **kw) == expected
    return expected


def _bundle_scenarios():
    for name in BUNDLE_NAMES:
        bundle = load_bundle(name)
        for sname, cfg in bundle.scenarios.items():
            yield pytest.param(bundle.model, cfg, id=f"{name}/{sname}")


@pytest.mark.parametrize("model,config", _bundle_scenarios())
def test_bundle_scenarios_match_replay(model, config):
    assert_same(model, config)


def test_lossy_race_fixture_matches_replay():
    model = race_fixture()
    link = dataclasses.replace(model.connections["LinkPQ"], reliability=0.5)
    model = dataclasses.replace(
        model, connections={**model.connections, "LinkPQ": link}
    )
    status, outcomes = assert_same(model, SimConfig(scenario="CH", horizon=60))
    assert status == "ok" and outcomes == {("P", "recovered"), ("Q", "recovered")}


def test_random_models_match_replay():
    for seed in range(200):
        model = random_model(random.Random(seed))
        for scenario in [None, *sorted(model.chains)]:
            assert_same(model, SimConfig(scenario=scenario, horizon=60))


def _many_lossy_sends(count: int):
    """A sender whose ``count`` sends each cross a link of reliability 0.5."""
    sends = [
        Activity(f"s{i}", ActivityKind.SEND, duration=1, channel="Lossy")
        for i in range(count)
    ]
    return build_model(
        name="Lossy",
        constituents=[
            ConstituentSystem("A", "Sender", "GA"),
            ConstituentSystem("B", "Receiver", "GB"),
        ],
        connections=[Connection("Lossy", "Lossy", "A", "B", reliability=0.5)],
        processes=[
            ActivityGraph(
                id="GA",
                owner="A",
                nodes={a.id: a for a in sends},
                edges=tuple(Edge(a.id, b.id) for a, b in zip(sends, sends[1:])),
                entry=sends[0].id,
                exits=frozenset({sends[-1].id}),
            ),
            seq_graph("GB", "B", [action("b_idle")]),
        ],
    )


def test_choice_space_cap():
    # 11 draws: 4095 branches fit under the cap; 12 draws need 8191.
    config = SimConfig(horizon=60)
    assert enumerate_outcomes(_many_lossy_sends(11), config) == {(None, "nominal")}
    result = assert_same(_many_lossy_sends(12), config)
    assert result == (BoundExceededError, "choice space exceeds 4096 branches")


# ---------------------------------------------------------------------------
# Fork isolation


def _lossy_race_fixture():
    model = race_fixture()
    link = dataclasses.replace(model.connections["LinkPQ"], reliability=0.5)
    return dataclasses.replace(
        model, connections={**model.connections, "LinkPQ": link}
    )


def _enumerated_models():
    yield pytest.param(
        _lossy_race_fixture(), SimConfig(scenario="CH", horizon=60), id="lossy-race"
    )
    yield from _bundle_scenarios()


def _choice_models():
    """The enumerated scenarios that run and make at least one choice."""
    for param in _enumerated_models():
        try:
            _validate(*param.values)
        except SimulationError:
            continue
        if _snapshot_before_first_choice(*param.values) is not None:
            yield param


def _instance_fields(engine):
    return {
        key: (
            inst.gen,
            inst.live,
            dict(inst.join_arrivals),
            dict(inst.waiting_recv),
            inst.suspended,
            list(inst.exits_reached),
        )
        for key, inst in engine.instances.items()
    }


def _snapshot_before_first_choice(model, config):
    """A recording engine stopped just before its first Bernoulli draw."""
    probe = _Engine(model, config, ScriptedSampler(()))
    probe.start()
    try:
        probe.loop()
    except NeedChoice:
        pass
    else:
        return None
    snap = _Engine(model, config, ScriptedSampler(()))
    snap.start()
    snap.loop(stop=probe.pops - 1)
    return snap


def _fresh_trace(model, config, choices):
    engine = _Engine(model, config, ScriptedSampler(choices))
    engine.start()
    engine.loop()
    return engine.finish()


@pytest.mark.parametrize("model,config", _choice_models())
def test_recording_forks_leave_their_snapshot_untouched(model, config):
    snap = _snapshot_before_first_choice(model, config)
    assert snap.pops > 0 and snap.events
    before = _instance_fields(snap)
    for choices in ((True,) * 16, (False,) * 16):
        fork = snap.fork(ScriptedSampler(choices))
        fork.loop()
        got = fork.finish()
        expected = _fresh_trace(model, config, choices)
        assert (got.events, got.outcome) == (expected.events, expected.outcome)
        assert _instance_fields(snap) == before


@pytest.mark.parametrize("model,config", _enumerated_models())
def test_enumeration_builds_no_trace_events(model, config, monkeypatch):
    expected = _result(replay_outcomes, model, config)
    made = []
    real = simulator._event

    def counted(*args):
        made.append(args)
        return real(*args)

    # Every engine event goes through the private constructor.
    monkeypatch.setattr(simulator, "_event", counted)
    assert _result(enumerate_outcomes, model, config) == expected
    assert made == []
    if expected[0] == "ok":
        # The counter sees what a recording run builds.
        simulator.run(model, config)
        assert made


def _parallel_receivers():
    """B forks into two receives on one channel; A sends twice over it.

    ``r_b`` starts waiting at tick 0 and ``r_a`` at tick 1, after
    ``pre``, so the order they started waiting in and id order disagree.
    """
    sends = [
        Activity("s1", ActivityKind.SEND, duration=1, channel="Link"),
        Activity("s2", ActivityKind.SEND, duration=1, channel="Link"),
    ]
    graph_b = ActivityGraph(
        id="GB",
        owner="B",
        nodes={
            "split": Activity("split", ActivityKind.FORK),
            "pre": action("pre", 1),
            "r_a": Activity("r_a", ActivityKind.RECEIVE, duration=1, channel="Link"),
            "r_b": Activity("r_b", ActivityKind.RECEIVE, duration=5, channel="Link"),
            "meet": Activity("meet", ActivityKind.JOIN),
            "done": action("done", 1),
        },
        edges=(
            Edge("split", "pre"),
            Edge("pre", "r_a"),
            Edge("split", "r_b"),
            Edge("r_a", "meet"),
            Edge("r_b", "meet"),
            Edge("meet", "done"),
        ),
        entry="split",
        exits=frozenset({"done"}),
    )
    return build_model(
        name="Parallel",
        constituents=[
            ConstituentSystem("A", "Sender", "GA"),
            ConstituentSystem("B", "Receiver", "GB"),
        ],
        connections=[Connection("Link", "Link", "A", "B")],
        processes=[seq_graph("GA", "A", sends), graph_b],
    )


def test_lowest_receive_id_takes_the_first_message_on_parent_and_fork():
    model = _parallel_receivers()
    config = SimConfig(horizon=60)
    snap = _Engine(model, config, ScriptedSampler(()))
    snap.start()
    while len(snap.instances["nominal:B"].waiting_recv) < 2:
        snap.loop(stop=snap.pops + 1)
    assert list(snap.instances["nominal:B"].waiting_recv) == ["r_b", "r_a"]
    assert not any(e.kind == "message-delivered" for e in snap.events)
    fork = snap.fork(ScriptedSampler(()))
    traces = []
    for engine in (fork, snap):
        engine.loop()
        traces.append(engine.finish())
    assert traces[0] == traces[1] == _fresh_trace(model, config, ())
    events = traces[0].events
    delivered = [e.time for e in events if e.kind == "message-delivered"]
    ends = {e.details["activity"]: e.time for e in events if e.kind == "activity-end"}
    assert len(delivered) == 2
    assert ends["r_a"] == delivered[0] + 1
    assert ends["r_b"] == delivered[1] + 5
    assert traces[0].outcome.kind == "nominal"
