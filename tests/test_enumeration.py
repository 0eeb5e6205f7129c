"""The fork-at-the-draw enumerator against the replay-from-tick-0 reference.

``enumerate_outcomes`` forks a branch once as it pops an event that can
draw, keeps the copy as a snapshot taken just before that event, and
answers each new choice True; the False sibling later handles the same
event again from the snapshot.  ``replay_outcomes`` below is the
original algorithm, which re-ran the engine from tick 0 for every choice
prefix; both must agree on the outcome set or raise the same exception
with the same message, and the 4096-branch cap must fall on the same
branch.  The driver tests pin the fork count, events that make several
new draws, and the internal error a missing draw mark raises.  Every
seeded run of the generated models must lie in the enumerated set.

A fork copies the run's tables (tokens, join arrivals, waiting receives,
mailbox), and enumeration engines record no trace events; the
fork-isolation tests at the end hold both properties.
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
    DetectionSpec,
    Edge,
    Probabilistic,
    ThirdPartyReport,
    build_model,
)
from fmaf.simulator import (
    BoundExceededError,
    ModelViolationsError,
    SimConfig,
    _Branches,
    _Engine,
    enumerate_outcomes,
    run,
    summarize,
)

from _builders import (
    NeedChoice,
    ScriptedSampler,
    action,
    race_fixture,
    random_model,
    seq_graph,
    successor_fixtures,
)


def replay_outcomes(model, config, bound=12, leaves=None):
    for graph in model.processes.values():
        if len(graph.nodes) > bound:
            raise BoundExceededError(
                f"graph {graph.id!r} has {len(graph.nodes)} activities; "
                f"bound is {bound}"
            )
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
        if leaves is not None:
            leaves.append(summarize(trace))
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


def _successor_scenarios():
    for name, model in successor_fixtures().items():
        for scenario in (None, "CH"):
            yield pytest.param(
                model, SimConfig(scenario=scenario, horizon=60), id=f"{name}/{scenario}"
            )


@pytest.mark.parametrize("model,config", [*_bundle_scenarios(), *_successor_scenarios()])
def test_bundle_scenarios_match_replay(model, config):
    # A bound that admits every graph, so that ``receive-chain``'s graphs
    # of 40 sends and 40 receives are enumerated, not refused; no bundle
    # graph exceeds the default 12.
    assert_same(model, config, bound=max(12, *(len(g.nodes) for g in model.processes.values())))


def _lossy_race_fixture():
    model = race_fixture()
    link = dataclasses.replace(model.connections["LinkPQ"], reliability=0.5)
    return dataclasses.replace(
        model, connections={**model.connections, "LinkPQ": link}
    )


def test_lossy_race_fixture_matches_replay():
    model = _lossy_race_fixture()
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


def test_seeded_runs_of_generated_models_lie_in_the_enumerated_set():
    enumerable = 0
    for seed in range(200):
        model = random_model(random.Random(seed))
        for scenario in [None, *sorted(model.chains)]:
            try:
                outcomes = enumerate_outcomes(model, SimConfig(scenario=scenario, horizon=60))
            except ModelViolationsError:
                continue
            enumerable += 1
            for sim_seed in range(5):
                config = SimConfig(scenario=scenario, horizon=60, seed=sim_seed)
                assert summarize(run(model, config)) in outcomes, (seed, scenario, sim_seed)
    assert enumerable == 223


# ---------------------------------------------------------------------------
# The branch driver


@pytest.fixture
def draws(monkeypatch):
    """Every draw the driver answers, as (branch engine, its event, new)."""
    seen = []
    real = _Branches.bernoulli

    def bernoulli(self, probability):
        seen.append((id(self.engine), self.event, len(self.made) >= len(self.script)))
        return real(self, probability)

    monkeypatch.setattr(_Branches, "bernoulli", bernoulli)
    return seen


@pytest.mark.parametrize("sends", [1, 4, 8])
def test_forks_stay_within_one_per_choice_point(sends, draws, monkeypatch):
    forks = []
    real = _Engine.fork

    def fork(self, sampler):
        forks.append(self)
        return real(self, sampler)

    monkeypatch.setattr(_Engine, "fork", fork)
    model = _many_lossy_sends(sends)
    assert enumerate_outcomes(model, SimConfig(horizon=60)) == {(None, "nominal")}
    choice_points = sum(new for _, _, new in draws)
    assert choice_points == 2**sends - 1
    assert len(forks) <= choice_points + 1


def _most_new_draws_in_one_event(draws) -> int:
    per_event: dict[tuple[int, int], int] = {}
    for engine, event, new in draws:
        per_event[engine, event] = per_event.get((engine, event), 0) + new
    return max(per_event.values())


_CH = SimConfig(scenario="CH", horizon=60)


def _lossy_send_into_region():
    """P's lossy report send enters ``p_done``, a Probabilistic region.

    R idles past the horizon, so a branch whose trigger never fires ends
    horizon-exhausted instead of not-activated.
    """
    model = _lossy_race_fixture()
    activation = dataclasses.replace(
        model.activations["ACT"], region=frozenset({"p_done"}), trigger=Probabilistic(0.5)
    )
    gr = seq_graph("GR", "R", [action("r_idle", 100)])
    return dataclasses.replace(
        model,
        activations={"ACT": activation},
        processes={**model.processes, "GR": gr},
    )


def _probabilistic_entry():
    """P's entry activity lies in a Probabilistic region, so ``start()`` draws."""
    model = _lossy_send_into_region()
    activation = dataclasses.replace(
        model.activations["ACT"], region=frozenset({"p_setup"})
    )
    return dataclasses.replace(model, activations={"ACT": activation})


def _two_third_party_reports():
    """Two third-party reports race at the same tick; Q's wins the tie by id."""
    model = race_fixture()
    second = DetectionSpec("DTHIRD2", "CH", "P", ThirdPartyReport(0.5, 1), "RSELF")
    return dataclasses.replace(
        model, detections={**model.detections, second.id: second}
    )


@pytest.mark.parametrize(
    "model,want",
    [
        pytest.param(
            _lossy_send_into_region(),
            {("P", "recovered"), ("Q", "recovered"), (None, "horizon-exhausted")},
            id="lossy-send-into-region",
        ),
        pytest.param(
            _two_third_party_reports(),
            {("P", "recovered"), ("Q", "recovered")},
            id="third-party-race",
        ),
    ],
)
def test_events_with_several_new_draws_match_replay(model, want, draws):
    assert assert_same(model, _CH) == ("ok", want)
    assert _most_new_draws_in_one_event(draws) >= 2


def test_branches_end_in_replay_order(monkeypatch):
    model = _lossy_send_into_region()
    want: list[tuple] = []
    replay_outcomes(model, _CH, leaves=want)
    got = []
    real = simulator.summarize

    def summarize_leaf(trace):
        got.append(real(trace))
        return got[-1]

    monkeypatch.setattr(simulator, "summarize", summarize_leaf)
    enumerate_outcomes(model, _CH)
    assert len(set(want)) == 3 and got == want


@pytest.mark.parametrize(
    "mark,model,config",
    [
        pytest.param("complete", _many_lossy_sends(3), SimConfig(horizon=60), id="lossy-send"),
        pytest.param("raise_error", race_fixture(), _CH, id="third-party-race"),
        pytest.param("start", _probabilistic_entry(), _CH, id="probabilistic-start"),
    ],
)
def test_a_missing_draw_mark_raises_an_internal_error(mark, model, config, monkeypatch):
    assert assert_same(model, config)[0] == "ok"
    monkeypatch.setattr(_Branches, mark, lambda *args: None)
    with pytest.raises(RuntimeError, match="internal error: .* no snapshot pending"):
        enumerate_outcomes(model, config)


# ---------------------------------------------------------------------------
# Fork isolation


def _enumerated_models():
    yield pytest.param(
        _lossy_race_fixture(), SimConfig(scenario="CH", horizon=60), id="lossy-race"
    )
    yield from _bundle_scenarios()


def _choice_models():
    """The enumerated scenarios that run and make at least one choice."""
    for param in _enumerated_models():
        try:
            _Engine(*param.values, ScriptedSampler(()))
        except ModelViolationsError:
            continue
        if _snapshot_before_first_choice(*param.values) is not None:
            yield param


def _run_tables(engine):
    return (
        engine.tokens,
        list(engine.heap),
        dict(engine.arrivals),
        set(engine.waiting),
        dict(engine.mailbox),
    )


def _snapshot_before_first_choice(model, config):
    """A recording engine stopped just before its first Bernoulli draw, or
    None if a run makes none.

    It is the snapshot that the enumeration driver keeps before the
    drawing event, of a run whose own sampler stops it at that draw, so
    nothing runs on from the snapshot; it is detached from the driver.
    """
    probe = _Engine(model, config, ScriptedSampler(()))
    probe.branches = branches = _Branches(probe)
    try:
        probe.start()
        probe.loop()
    except NeedChoice:
        snap = branches.snap.engine
        snap.branches = snap.sampler = None
        return snap
    return None


def _fresh_trace(model, config, choices):
    engine = _Engine(model, config, ScriptedSampler(choices))
    engine.start()
    engine.loop()
    return engine.finish()


@pytest.mark.parametrize("model,config", _choice_models())
def test_recording_forks_leave_their_snapshot_untouched(model, config):
    snap = _snapshot_before_first_choice(model, config)
    assert snap.pops > 0 and snap.events
    before = _run_tables(snap)
    for choices in ((True,) * 16, (False,) * 16):
        fork = snap.fork(ScriptedSampler(choices))
        fork.loop()
        got = fork.finish()
        expected = _fresh_trace(model, config, choices)
        assert (got.events, got.outcome) == (expected.events, expected.outcome)
        assert _run_tables(snap) == before


@pytest.mark.parametrize("model,config", _enumerated_models())
def test_enumeration_builds_no_trace_events(model, config, monkeypatch):
    expected = _result(replay_outcomes, model, config)
    made = []
    real = simulator._Engine.finish

    def counted(engine):
        made.extend(engine.events)
        return real(engine)

    # Every engine records its trace events as rows, and every branch
    # and run finishes.
    monkeypatch.setattr(simulator._Engine, "finish", counted)
    assert _result(enumerate_outcomes, model, config) == expected
    assert made == []
    if expected[0] == "ok":
        # The counter sees what a recording run records.
        simulator.run(model, config)
        assert made


def _parallel_receivers():
    """B forks into two receives on one channel; A sends twice over it,
    a lossy link.

    ``r_b`` starts waiting at tick 0 and ``r_a`` at tick 1, after
    ``pre``, so the order they started waiting in and id order disagree.
    Both wait when ``s1`` completes at tick 2, the run's first draw.
    """
    sends = [
        Activity("s1", ActivityKind.SEND, duration=2, channel="Link"),
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
        connections=[Connection("Link", "Link", "A", "B", reliability=0.5)],
        processes=[seq_graph("GA", "A", sends), graph_b],
    )


def test_lowest_receive_id_takes_the_first_message_on_parent_and_fork():
    model = _parallel_receivers()
    config, both_survive = SimConfig(horizon=60), (True, True)
    snap = _snapshot_before_first_choice(model, config)
    table = snap.plan.instances["nominal:B"]
    assert snap.waiting == {table["r_b"], table["r_a"]}
    starts = {d["activity"]: t for t, kind, _, d in snap.events if kind == "activity-start"}
    assert starts["r_b"] < starts["r_a"]
    assert not any(kind == "message-delivered" for _, kind, _, _ in snap.events)
    fork = snap.fork(ScriptedSampler(both_survive))
    snap.sampler = ScriptedSampler(both_survive)
    traces = []
    for engine in (fork, snap):
        engine.loop()
        traces.append(engine.finish())
    assert traces[0] == traces[1] == _fresh_trace(model, config, both_survive)
    events = traces[0].events
    delivered = [e.time for e in events if e.kind == "message-delivered"]
    ends = {e.details["activity"]: e.time for e in events if e.kind == "activity-end"}
    assert len(delivered) == 2
    assert ends["r_a"] == delivered[0] + 1
    assert ends["r_b"] == delivered[1] + 5
    assert traces[0].outcome.kind == "nominal"
