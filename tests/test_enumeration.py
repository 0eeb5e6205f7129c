"""The forking enumerator against the replay-from-tick-0 reference.

``enumerate_outcomes`` forks engine state at each Bernoulli choice.
``replay_outcomes`` below is the original algorithm, which re-ran the
engine from tick 0 for every choice prefix; both must agree on the
outcome set or raise the same exception with the same message.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

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
