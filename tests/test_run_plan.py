"""The run plan: what every run of a model needs, built once per model.

The simulator checks a model on its first ``run`` or
``enumerate_outcomes`` and keeps the findings, the structure verdict of
a model built directly, the decision nodes, each chain's activation and
detections, each channel's receive nodes and the split metric patterns
on the model object.  Later calls reuse them; the per-configuration
checks still run on every call, with the same messages in the same
order.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import random

import pytest

import fmaf.simulator as simulator
from fmaf import dsl
from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.checker import check
from fmaf.model import (
    Activity,
    ActivityGraph,
    ActivityKind,
    AtTime,
    Connection,
    ConnectionKind,
    Count,
    DanglingReferenceError,
    Edge,
    ElapsedBetween,
    FailureObservation,
    MetricSpec,
    SosModel,
    Timeout,
    split_event_pattern,
)
from fmaf.simulator import (
    InvalidConfigError,
    ModelViolationsError,
    SimConfig,
    SimulationError,
    UnknownEventPatternError,
    compute_metrics,
    enumerate_outcomes,
    format_trace,
    run,
)

from _builders import action, checker_fixture, mini_sos, race_fixture, random_model

PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


def _counting_check(monkeypatch) -> list:
    calls = []

    def counted(model):
        calls.append(model)
        return check(model)

    monkeypatch.setattr(simulator, "check", counted)
    return calls


def test_check_runs_once_per_model(monkeypatch):
    calls = _counting_check(monkeypatch)
    bundle = load_bundle("fault2")
    config = bundle.scenarios["F2.1"]
    for seed in range(50):
        run(bundle.model, dataclasses.replace(config, seed=seed))
    enumerate_outcomes(bundle.model, config)
    assert calls == [bundle.model]


def test_each_model_object_gets_its_own_check(monkeypatch):
    calls = _counting_check(monkeypatch)
    a, b = load_bundle("nominal").model, load_bundle("nominal").model
    for model in (a, b, a, b):
        run(model, SimConfig())
    assert [id(m) for m in calls] == [id(a), id(b)]


def test_blocked_scenario_is_refused_on_every_call():
    bundle = load_bundle("fault3")
    blocked = bundle.scenarios["F3.1"]
    messages = set()
    for seed in range(5):
        with pytest.raises(ModelViolationsError) as exc:
            run(bundle.model, dataclasses.replace(blocked, seed=seed))
        assert [f.rule_id for f in exc.value.findings] == ["R2"]
        messages.add(str(exc.value))
        # A chain the violation does not scope still runs in between.
        run(bundle.model, bundle.scenarios["F3.2"])
    with pytest.raises(ModelViolationsError) as exc:
        enumerate_outcomes(bundle.model, blocked)
    messages.add(str(exc.value))
    assert len(messages) == 1


def test_replace_that_adds_a_violation_is_refused():
    model = race_fixture()
    config = SimConfig(scenario="CH", horizon=60)
    run(model, config)
    chain = dataclasses.replace(
        model.chains["CH"], failure_observation=FailureObservation.INTERNAL
    )
    bad = dataclasses.replace(model, chains={"CH": chain})
    with pytest.raises(ModelViolationsError) as exc:
        run(bad, config)
    assert [f.rule_id for f in exc.value.findings] == ["R1"]
    with pytest.raises(ModelViolationsError):
        enumerate_outcomes(bad, config)
    assert run(model, config).outcome.kind == "recovered"


def test_dangling_references_are_refused_by_the_checker_not_the_plan():
    # SosModel(...) resolves no reference, and the plan is built before
    # the checker's findings can refuse a run.
    base = race_fixture()
    given = {f.name: getattr(base, f.name) for f in dataclasses.fields(base) if f.init}
    chain = dataclasses.replace(base.chains["CH"], fault="NoSuchFault")
    dself = dataclasses.replace(base.detections["DSELF"], recovery="NoSuchRecovery")
    model = SosModel(
        **{**given, "chains": {"CH": chain}, "detections": {**base.detections, "DSELF": dself}}
    )
    config = SimConfig(scenario="CH", horizon=60)
    for call in (run, enumerate_outcomes, run):
        with pytest.raises(ModelViolationsError) as exc:
            call(model, config)
        assert [f.rule_id for f in exc.value.findings] == ["R4", "R5"]
    with pytest.raises(InvalidConfigError, match="unknown scenario chain 'NOPE'"):
        run(model, SimConfig(scenario="NOPE", horizon=60))
    assert run(model, SimConfig(horizon=60)).outcome.kind == "nominal"


def _replaced(model, collection, ident, **changes):
    items = getattr(model, collection)
    item = dataclasses.replace(items[ident], **changes)
    return dataclasses.replace(model, **{collection: {**items, ident: item}})


def _with_alpha_work(nodes, edges, exits):
    model = mini_sos()
    graph = ActivityGraph(
        id="AlphaWork", owner="Alpha", nodes={n.id: n for n in nodes},
        edges=tuple(Edge(*e) for e in edges), entry="x", exits=frozenset(exits),
    )
    return dataclasses.replace(model, processes={**model.processes, "AlphaWork": graph})


_X, _Y = action("x", 0), action("y", 0)
_PICK = Activity("x", ActivityKind.DECISION, duration=0)


_QR = Connection("LinkQR", "LinkQR", "Q", "R")
_PR = Connection("LinkPR", "LinkPR", "P", "R", kind=ConnectionKind.RECOVERY_ONLY)


def _rechanneled(graph_id, node_id, connection=None):
    """``race_fixture`` with one node's channel naming no connection, or
    ``connection``, which the model then gains."""
    model = race_fixture()
    if connection is not None:
        model = dataclasses.replace(
            model, connections={**model.connections, connection.id: connection}
        )
    nodes = model.processes[graph_id].nodes
    channel = "NOPE" if connection is None else connection.id
    node = dataclasses.replace(nodes[node_id], channel=channel)
    return _replaced(model, "processes", graph_id, nodes={**nodes, node_id: node})


# Directly built models that build_model refuses and that a run would
# otherwise end in a KeyError or AttributeError, run to the horizon as if
# well formed (the unknown receive channel and the two channels whose
# endpoints exclude the runner), or never end (the two zero-time cycles).
MALFORMED = [
    pytest.param(
        lambda: _replaced(race_fixture(), "recoveries", "RSELF", graphs={"P": "NOPE"}),
        SimConfig(scenario="CH", horizon=60, enabled_detectors=frozenset({"P"})),
        "recovery 'RSELF' references unknown activity graph 'NOPE'",
        id="recovery-graph",
    ),
    pytest.param(
        lambda: _replaced(race_fixture(), "constituents", "Q", nominal_process="NOPE"),
        SimConfig(horizon=60),
        "constituent 'Q' references unknown activity graph 'NOPE'",
        id="nominal-process",
    ),
    pytest.param(
        lambda: _rechanneled("GP", "p_report"),
        SimConfig(horizon=60),
        "activity 'p_report' in 'GP' references unknown connection 'NOPE'",
        id="nominal-send-channel",
    ),
    pytest.param(
        lambda: _rechanneled("GQ", "q_wait"),
        SimConfig(horizon=60),
        "activity 'q_wait' in 'GQ' references unknown connection 'NOPE'",
        id="nominal-receive-channel",
    ),
    pytest.param(
        lambda: _rechanneled("GP", "p_report", _QR),
        SimConfig(horizon=60),
        "activity graph 'GP': activity 'p_report' uses channel 'LinkQR' "
        "whose endpoints exclude owner 'P'",
        id="nominal-channel-excludes-runner",
    ),
    pytest.param(
        lambda: _rechanneled("RQ3", "summon", _PR),
        SimConfig(horizon=60),
        "activity graph 'RQ3': activity 'summon' uses channel 'LinkPR' "
        "whose endpoints exclude owner 'Q'",
        id="recovery-channel-excludes-runner",
    ),
    pytest.param(
        lambda: _replaced(mini_sos(), "processes", "AlphaWork", entry="zzz"),
        SimConfig(horizon=60),
        "entry of graph 'AlphaWork' references unknown activity 'zzz'",
        id="graph-entry",
    ),
    pytest.param(
        lambda: _with_alpha_work([_X, _Y], [("x", "y"), ("y", "x")], ()),
        SimConfig(horizon=50),
        "cannot reach any exit: ['x', 'y']",
        id="zero-time-cycle",
    ),
    pytest.param(
        lambda: _with_alpha_work(
            [_PICK, _Y, action("z")], [("x", "y", "again"), ("y", "x"), ("x", "z")], ("z",)
        ),
        SimConfig(horizon=50, guard_inputs={"x": "again"}),
        "cycle with no time-consuming activity",
        id="zero-time-loop",
    ),
]


@pytest.mark.parametrize("make_model,config,message", MALFORMED)
def test_a_directly_built_malformed_model_is_refused(make_model, config, message):
    model = make_model()
    for call in (run, enumerate_outcomes, run):
        with pytest.raises(SimulationError, match="^model is malformed: ") as exc:
            call(model, config)
        assert type(exc.value) is SimulationError
        assert message in str(exc.value)


def test_structure_is_checked_once_and_only_for_directly_built_models(monkeypatch):
    calls = []
    real = simulator._malformed
    monkeypatch.setattr(simulator, "_malformed", lambda m: calls.append(m) or real(m))
    built, parsed = race_fixture(), dsl.parse(dsl.serialize(race_fixture())).model
    assert built._checked and parsed._checked
    config = SimConfig(scenario="CH", horizon=60)
    for model in (built, parsed):
        run(model, config)
        enumerate_outcomes(model, config)
    assert calls == []
    direct = dataclasses.replace(built)
    assert not direct._checked
    for call in (run, enumerate_outcomes, run):
        call(direct, config)
    assert calls == [direct]


def test_a_directly_built_graph_too_deep_to_check_still_runs():
    # build_model and parse raise RecursionError on this chain; a model
    # built directly ran before the structure check and still does.
    n = 2000
    model = _with_alpha_work(
        [action("x", 0), *(action(f"n{i}", 0) for i in range(1, n))],
        [("x", "n1"), *((f"n{i}", f"n{i + 1}") for i in range(1, n - 1))],
        (f"n{n - 1}",),
    )
    assert run(model, SimConfig(horizon=50)).outcome.kind == "nominal"


def test_the_gate_refuses_findings_then_structure_then_configuration():
    malformed = MALFORMED[0].values[0]()
    blocked = _replaced(malformed, "chains", "CH", fault="NoSuchFault")
    with pytest.raises(ModelViolationsError):
        run(blocked, SimConfig(scenario="CH", horizon=60))
    with pytest.raises(SimulationError, match="^model is malformed: "):
        run(malformed, SimConfig(scenario="NOPE", horizon=60))


def test_plan_is_invisible_to_equality_repr_and_serialize():
    ran, fresh = load_bundle("fault2").model, load_bundle("fault2").model
    text, shown = dsl.serialize(ran), repr(ran)
    run(ran, load_bundle("fault2").scenarios["F2.1"])
    assert ran == fresh and fresh == ran
    assert repr(ran) == repr(fresh) == shown
    assert "_plan" not in shown
    assert dsl.serialize(ran) == dsl.serialize(fresh) == text
    assert dataclasses.replace(ran) == ran


def test_asdict_and_astuple_see_only_the_model_data():
    bundle = load_bundle("fault1")
    model, config = bundle.model, next(iter(bundle.scenarios.values()))
    names = {f.name for f in dataclasses.fields(model)}
    assert "name" in names and not names & {"_plan", "_checked"}
    before = dataclasses.asdict(model), dataclasses.astuple(model)
    run(model, config)
    assert model._plan is not None
    assert (dataclasses.asdict(model), dataclasses.astuple(model)) == before
    enumerate_outcomes(model, config)
    assert (dataclasses.asdict(model), dataclasses.astuple(model)) == before
    fresh = dataclasses.replace(model)
    assert fresh._plan is None and not fresh._checked
    assert fresh == model


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_pickles_and_copies_carry_no_plan(name):
    bundle = load_bundle(name)
    model = bundle.model
    configs = [bundle.scenarios[s] for s in sorted(bundle.scenarios)]
    before = [pickle.dumps(model, protocol) for protocol in PROTOCOLS]

    def traces(m):
        found = []
        for config in configs:
            try:
                found.append(format_trace(run(m, config)))
                enumerate_outcomes(m, config)
            except ModelViolationsError:
                found.append(None)
        return found

    ran = traces(model)
    assert model._plan is not None
    assert [pickle.dumps(model, protocol) for protocol in PROTOCOLS] == before
    copies = [copy.copy(model), copy.deepcopy(model)]
    copies += [pickle.loads(pickle.dumps(model, protocol)) for protocol in PROTOCOLS]
    for made in copies:
        assert made._plan is None and made._checked and made == model
        assert traces(made) == ran


def _beyond_horizon():
    model = checker_fixture()
    act = dataclasses.replace(model.activations["ACT1"], trigger=AtTime(99))
    return dataclasses.replace(model, activations={"ACT1": act})


def _no_activation():
    return dataclasses.replace(race_fixture(), activations={})


CONFIG_ERRORS = [
    pytest.param(
        race_fixture,
        SimConfig(scenario="NOPE", horizon=60, guard_inputs={"p_serve": "x"}),
        "unknown scenario chain 'NOPE'",
        id="unknown-scenario",
    ),
    pytest.param(
        race_fixture,
        SimConfig(scenario="CH", horizon=60, enabled_detectors=frozenset({"R", "Z"})),
        "enabled detectors ['R', 'Z'] are not detectors of chain 'CH'",
        id="foreign-detectors",
    ),
    pytest.param(
        _no_activation,
        SimConfig(scenario="CH", horizon=60),
        "chain 'CH' has no activation specification",
        id="no-activation",
    ),
    pytest.param(
        _beyond_horizon,
        SimConfig(scenario="CH1", horizon=50),
        "activation time 99 lies beyond the horizon 50",
        id="activation-past-horizon",
    ),
    pytest.param(
        race_fixture,
        SimConfig(scenario="CH", horizon=60, guard_inputs={"p_serve": "x"}),
        "guard input 'p_serve' names no decision node",
        id="unknown-guard-node",
    ),
]


@pytest.mark.parametrize("make_model,config,message", CONFIG_ERRORS)
def test_config_errors_keep_their_messages(make_model, config, message):
    model = make_model()
    run(model, SimConfig(horizon=60))  # builds the plan first
    for call in (run, run, enumerate_outcomes):
        with pytest.raises(InvalidConfigError) as exc:
            call(model, config)
        assert str(exc.value) == message


def test_violation_outranks_config_errors():
    bundle = load_bundle("fault3")
    config = dataclasses.replace(
        bundle.scenarios["F3.1"], guard_inputs={"no-such-node": "x"}
    )
    for _ in range(2):
        with pytest.raises(ModelViolationsError):
            run(bundle.model, config)


def _shuffled_race_fixture():
    """Two activations on one chain, and every mapping in reverse id order."""
    model = race_fixture()
    act = model.activations["ACT"]
    activations = {
        "ZZZ": dataclasses.replace(act, id="ZZZ", trigger=AtTime(9)),
        "ACT": act,
        "AAA": dataclasses.replace(act, id="AAA", trigger=AtTime(4)),
    }
    detections = dict(reversed(list(model.detections.items())))
    return dataclasses.replace(model, activations=activations, detections=detections)


def test_first_activation_by_id_is_injected():
    model = _shuffled_race_fixture()
    trace = run(model, SimConfig(scenario="CH", horizon=60))
    (fault,) = [e for e in trace.events if e.kind == "fault-activated"]
    assert fault.time == 4


def _models():
    for name in BUNDLE_NAMES:
        yield load_bundle(name).model
    for seed in range(100):
        yield random_model(random.Random(seed))
    yield _shuffled_race_fixture()


def test_plan_matches_the_public_lookups():
    for model in _models():
        plan = simulator._plan(model)
        assert plan is simulator._plan(model)
        assert plan.findings == tuple(check(model))
        assert plan.decisions == {
            node_id
            for graph in model.processes.values()
            for node_id, node in graph.nodes.items()
            if node.kind is ActivityKind.DECISION
        }
        assert list(plan.chains) == list(model.chains)
        for chain in model.chains.values():
            record = plan.chains[chain.id]
            assert record.activation == model.activation_for(chain.id)
            # The records of the chain's own specs, in spec-id order.
            specs = [d.spec for d in record.detections]
            assert specs == model.detections_for(chain.id)
            assert [spec.id for spec in specs] == sorted(spec.id for spec in specs)
            assert record.activated == {
                "chain": chain.id,
                "fault": chain.fault,
                "description": model.threat_nodes[chain.fault].description,
            }
            assert record.raised == {"chain": chain.id, "error": chain.error}
            observed = {
                "chain": chain.id,
                "failure": chain.failure,
                "description": model.threat_nodes[chain.failure].description,
                "observation": chain.failure_observation.value,
            }
            aborts = {
                exit_id
                for d in record.detections
                for exit_id in model.recoveries[d.spec.recovery].abort_exits
            }
            assert set(record.failed) == {None} | aborts
            for exit_id, details in record.failed.items():
                extra = {} if exit_id is None else {"aborted_by": exit_id}
                assert details == {**observed, **extra}
            for detection in record.detections:
                _check_detection_record(detection)
        assert plan.receivers == _expected_receivers(model)


def _check_detection_record(record):
    spec = record.spec
    if isinstance(spec.condition, Timeout):
        assert record.expired == {
            "detection": spec.id,
            "watched": spec.condition.watched,
            "bound": spec.condition.bound,
        }
    else:
        assert record.expired is None
    assert record.detected == {
        "chain": spec.threat,
        "detection": spec.id,
        "recovery": spec.recovery,
    }
    assert record.complete == {"chain": spec.threat, "recovery": spec.recovery}


def _instance_graphs(model):
    """Instance key -> (owner, graph id) of every instance a run may start."""
    graphs = {
        f"nominal:{cs.id}": (cs.id, cs.nominal_process)
        for cs in model.constituents.values()
    }
    for recovery in model.recoveries.values():
        for cs_id, graph_id in recovery.graphs.items():
            graphs[f"recovery:{recovery.id}:{cs_id}"] = (cs_id, graph_id)
    return graphs


def _expected_receivers(model):
    """``plan.receivers`` from the public model: the receive nodes of each
    instance, listed under (owner, channel) in key order, then node order."""
    expected = {}
    for key, (owner, graph_id) in sorted(_instance_graphs(model).items()):
        for node_id, node in model.processes[graph_id].nodes.items():
            if node.kind is ActivityKind.RECEIVE:
                box = (owner, node.channel)
                expected[box] = (*expected.get(box, ()), (key, node_id))
    return expected


def _drained_engines():
    """An engine run to quiescence for every runnable scenario of _models()."""
    for model in _models():
        for scenario in (None, *sorted(model.chains)):
            config = SimConfig(scenario=scenario, seed=0)
            try:
                engine = simulator._Engine(model, config, simulator.RandomSampler(0))
            except simulator.SimulationError:
                continue
            engine.start()
            engine.loop()
            yield engine


def test_plan_lists_every_started_instance_under_its_owner_in_key_order():
    started = 0
    for engine in _drained_engines():
        receivers, graphs = engine.plan.receivers, _instance_graphs(engine.model)
        for waiting in receivers.values():
            keys = [key for key, _ in waiting]
            assert keys == sorted(keys)
        for key, table in engine.plan.instances.items():
            owner, graph_id = graphs[key]
            for node_id, node in engine.model.processes[graph_id].nodes.items():
                step = table[node_id]
                assert (step.key, step.owner, step.details["graph"]) == (key, owner, graph_id)
                if node.kind is ActivityKind.RECEIVE:
                    assert (key, node_id) in receivers[owner, node.channel]
            started += step.recovery is not None
    assert started > 0


def _instance_facts(model, key):
    """(owner, graph, recovery id or None) of the instance ``key``."""
    owner, graph_id = _instance_graphs(model)[key]
    recovery = key.split(":")[1] if key.startswith("recovery:") else None
    return owner, model.processes[graph_id], recovery


def _expected_step(model, key, node_id):
    """The step record of ``node_id`` in the instance ``key``, from the
    public model."""
    owner, graph, recovery = _instance_facts(model, key)
    node = graph.nodes[node_id]
    out = graph.out_edges(node_id)
    if node.kind is ActivityKind.DECISION:
        successors = out
    elif node.kind is ActivityKind.FORK:
        successors = tuple(e.dst for e in out)
    else:
        successors = tuple(e.dst for e in out[:1])
    details = {"activity": node_id, "graph": graph.id}
    if node.name:
        details["name"] = node.name
    if recovery is not None:
        details["recovery"] = recovery
    link = draw = sent = delivered = receiver = timer = None
    if node.kind is ActivityKind.SEND:
        link = model.connections[node.channel]
        draw = link.reliability if 0.0 < link.reliability < 1.0 else None
        sent = {"channel": link.id, "activity": node_id, "graph": graph.id}
        delivered = {"channel": link.id, "sender": owner}
        receiver = link.consumer if link.provider == owner else link.provider
    if node.kind is ActivityKind.TIMER:
        timer = {"activity": node_id, "graph": graph.id, "bound": node.timer_bound}
    return (
        key,
        owner,
        recovery,
        node,
        node.kind,
        node.duration if node.kind is ActivityKind.RECEIVE else node.effective_duration(),
        successors,
        sum(e.dst == node_id for e in graph.edges),
        details,
        link,
        draw,
        sent,
        delivered,
        receiver,
        timer,
    )


def _check_record(model, key, node_id, step):
    got = tuple(getattr(step, name) for name in step.__slots__)
    assert got == _expected_step(model, key, node_id)
    assert type(step.details) is simulator._Details


def test_step_records_match_their_instances():
    checked = set()
    for engine in _drained_engines():
        model = engine.model
        for key, table in engine.plan.instances.items():
            _, graph, _ = _instance_facts(model, key)
            # The records the runs built, then every node's, the rest
            # built by looking them up.
            built = dict(table)
            assert built.keys() <= graph.nodes.keys()
            for node_id, step in built.items():
                _check_record(model, key, node_id, step)
            for node_id in graph.nodes:
                step = table[node_id]
                assert step is built.get(node_id, step)
            assert table.keys() == graph.nodes.keys()
            for node_id, step in table.items():
                _check_record(model, key, node_id, step)
                assert step.kind is step.activity.kind
                checked.add(step.kind)
    assert checked == set(ActivityKind)


def _counted_builds(monkeypatch) -> list[tuple[str, str]]:
    """The (instance key, node id) of each step record built from here on."""
    built = []
    real = simulator._StepTable.__missing__

    def counted(table, node_id):
        built.append((table.key, node_id))
        return real(table, node_id)

    monkeypatch.setattr(simulator._StepTable, "__missing__", counted)
    return built


def _records(model) -> dict[tuple[str, str], object]:
    """(instance key, node id) -> each step record the model's plan holds."""
    return {
        (key, node_id): step
        for key, table in simulator._plan(model).instances.items()
        for node_id, step in table.items()
    }


def test_only_the_first_start_of_an_instance_builds_its_record(monkeypatch):
    model = race_fixture()
    config = SimConfig(scenario="CH", horizon=60)
    outcomes, first = enumerate_outcomes(model, config), run(model, config)
    built = _counted_builds(monkeypatch)
    assert run(model, config) == first
    assert enumerate_outcomes(model, config) == outcomes
    assert built == []
    assert len(simulator._plan(model).instances) > len(model.constituents)
    # The count sees a build: a fresh model's first run builds each of
    # its records once.
    fresh = race_fixture()
    assert run(fresh, config) == first
    assert built and sorted(built) == sorted(_records(fresh))


def _reached(engine) -> dict[str, set[str]]:
    """Instance key -> the nodes a drained run entered: those its event
    rows name, the receives left waiting, the joins holding arrivals
    and the nodes whose completions are still queued."""
    reached: dict[str, set[str]] = {}
    for _, kind, actor, details in engine.events:
        if kind in ("activity-start", "activity-end"):
            key = f"nominal:{actor}"
        elif kind == "recovery-step":
            key = f"recovery:{details['recovery']}:{actor}"
        else:
            continue
        reached.setdefault(key, set()).add(details["activity"])
    queued = [step for _, _, rank, _, step in engine.heap if rank == simulator._R_COMPLETE]
    for key, node_id in engine.waiting:
        reached.setdefault(key, set()).add(node_id)
    for step in [*engine.arrivals, *queued]:
        reached.setdefault(step.key, set()).add(step.activity.id)
    return reached


def _early_faults():
    """Fresh models and a fault configuration whose activation suspends
    the origin's nominal flow early."""
    fault1 = load_bundle("fault1")
    yield dataclasses.replace(fault1.model), fault1.scenarios["F1"]
    yield race_fixture(), SimConfig(scenario="CH", horizon=60, seed=1)


def test_a_run_builds_the_records_of_the_nodes_it_enters_and_no_others():
    partial = 0
    for model, config in _early_faults():
        engine = simulator._Engine(model, config, simulator.RandomSampler(config.seed))
        engine.start()
        engine.loop()
        engine.finish()
        instances, reached = engine.plan.instances, _reached(engine)
        assert instances.keys() == reached.keys()
        for key, table in instances.items():
            assert table.keys() == reached[key], key
            _, graph, _ = _instance_facts(model, key)
            partial += len(table) < len(graph.nodes)
    assert partial > 0


def test_records_built_while_enumerating_serve_later_runs(monkeypatch):
    for model, config in _early_faults():
        enumerate_outcomes(model, config)
        records = _records(model)
        assert records
        built = _counted_builds(monkeypatch)
        trace = run(model, config)
        monkeypatch.undo()
        assert built == []
        after = _records(model)
        assert after.keys() == records.keys()
        assert all(after[pair] is step for pair, step in records.items())
        for event in trace.events:
            if event.kind in ("activity-start", "activity-end"):
                pair = (f"nominal:{event.actor}", event.details["activity"])
                assert event.details is records[pair].details


def _live_steps() -> int:
    return sum(type(obj) is simulator._Step for obj in gc.get_objects())


def test_a_dropped_model_frees_its_records_without_the_cyclic_collector():
    gc.collect()
    before = _live_steps()
    gc.disable()
    try:
        bundle = load_bundle("fault1")
        model = bundle.model
        for config in bundle.scenarios.values():
            run(model, config)
        assert _live_steps() > before
        del bundle, model, config
        assert _live_steps() == before
    finally:
        gc.enable()


def test_no_record_scans_the_edges(monkeypatch):
    def refuse(graph, node_id):
        raise AssertionError(f"a step record scanned the edges of {graph.id!r}")

    models = [random_model(random.Random(seed)) for seed in range(20)]
    monkeypatch.setattr(ActivityGraph, "in_edges", refuse)
    for model in models:
        run(model, SimConfig(seed=0))
    monkeypatch.undo()
    joins = [
        (model, step)
        for model in models
        for step in _records(model).values()
        if step.kind is ActivityKind.JOIN
    ]
    assert joins
    for model, step in joins:
        graph = model.processes[step.details["graph"]]
        assert step.in_degree == len(graph.in_edges(step.activity.id))


def test_a_record_stored_first_is_the_one_every_run_enters():
    # Two threads running one model may both miss a node and build its
    # record; the one that stores second must take the stored record, or
    # a join would count its arrivals under two records and never fire.
    model = race_fixture()
    run(model, SimConfig(horizon=60))
    for table in simulator._plan(model).instances.values():
        for node_id, step in list(table.items()):
            assert table.__missing__(node_id) is step
            assert table[node_id] is step


class _StaleInstances(dict):
    """Instance tables whose ``get`` misses, as it does for a thread that
    looked before another thread stored the table."""

    def get(self, key, default=None):
        return default


def test_a_table_stored_first_is_the_one_every_run_uses(monkeypatch):
    model = race_fixture()
    config = SimConfig(scenario="CH", horizon=60)
    first = run(model, config)
    plan = simulator._plan(model)
    tables = dict(plan.instances)
    object.__setattr__(model, "_plan", plan._replace(instances=_StaleInstances(tables)))
    built = _counted_builds(monkeypatch)
    assert run(model, config) == first
    assert built == []
    instances = simulator._plan(model).instances
    assert all(instances[key] is table for key, table in tables.items())


def test_two_constituents_running_one_recovery_graph_get_their_own_instances():
    # build_model refuses a recovery graph run by a constituent other than
    # its owner; a model built directly reaches the engine with one.
    model = race_fixture()
    rself = dataclasses.replace(model.recoveries["RSELF"], graphs={"P": "RP", "Q": "RP"})
    model = dataclasses.replace(model, recoveries={**model.recoveries, "RSELF": rself})
    config = SimConfig(scenario="CH", horizon=60, enabled_detectors=frozenset({"P"}))
    trace = run(model, config)
    steps = sorted(
        (e.time, e.actor, e.details["activity"])
        for e in trace.events
        if e.kind == "recovery-step"
    )
    assert steps == [
        (7, "P", "fix_local"),
        (7, "Q", "fix_local"),
        (8, "P", "resume"),
        (8, "Q", "resume"),
    ]
    assert trace.outcome.kind == "recovered"
    assert set(simulator._plan(model).instances) >= {"recovery:RSELF:P", "recovery:RSELF:Q"}


# ---------------------------------------------------------------------------
# Metrics: one scan of the trace against the per-pattern reference


def reference_metrics(trace, specs):
    """``compute_metrics`` as it was: split each pattern, rescan per endpoint."""

    def matches(event, kind, qualifier):
        if event.kind != kind:
            return False
        if qualifier is None or event.actor == qualifier:
            return True
        return any(
            value == qualifier
            for value in event.details.values()
            if isinstance(value, str)
        )

    def split(pattern):
        try:
            return split_event_pattern(pattern)
        except DanglingReferenceError as e:
            raise UnknownEventPatternError(str(e)) from None

    def first(pattern):
        kind, qualifier = split(pattern)
        for event in trace.events:
            if matches(event, kind, qualifier):
                return event.time
        return None

    out = {}
    for spec in specs:
        if isinstance(spec.kind, ElapsedBetween):
            a = first(spec.kind.a)
            b = first(spec.kind.b)
            out[spec.id] = None if a is None or b is None else b - a
        elif isinstance(spec.kind, Count):
            kind, qualifier = split(spec.kind.pattern)
            out[spec.id] = sum(
                1 for event in trace.events if matches(event, kind, qualifier)
            )
    return out


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _traced_runs():
    for name in BUNDLE_NAMES:
        bundle = load_bundle(name)
        for config in bundle.scenarios.values():
            for seed in range(5):
                yield bundle.model, dataclasses.replace(config, seed=seed)
    for seed in range(100):
        model = random_model(random.Random(seed))
        for scenario in (None, *sorted(model.chains)):
            yield model, SimConfig(scenario=scenario, seed=seed, horizon=60)


def _specs_from_events(events):
    """Counts and elapsed spans over patterns the trace itself holds."""
    patterns = []
    for event in events[:12]:
        patterns.append(event.kind)
        patterns.append(f"{event.kind}:{event.actor}")
        patterns += [
            f"{event.kind}:{value}"
            for value in event.details.values()
            if isinstance(value, str) and value
        ]
    specs = [MetricSpec(f"c{i}", Count(p)) for i, p in enumerate(patterns)]
    specs += [
        MetricSpec(f"e{i}", ElapsedBetween(a, b))
        for i, (a, b) in enumerate(zip(patterns, reversed(patterns)))
    ]
    return specs


def test_one_pass_metrics_match_the_per_pattern_reference():
    compared = measured = 0
    for model, config in _traced_runs():
        try:
            trace = run(model, config)
        except SimulationError:
            continue
        for specs in (list(model.metrics.values()), _specs_from_events(trace.events)):
            expected = reference_metrics(trace, specs)
            got = compute_metrics(trace, specs)
            assert got == expected and list(got) == list(expected)
            measured += sum(v is not None and v != 0 for v in expected.values())
        assert trace.metrics == reference_metrics(trace, model.metrics.values())
        assert list(trace.metrics) == list(model.metrics)
        compared += 1
    assert compared > 150 and measured > 10000


def test_first_unknown_pattern_in_spec_order_is_raised():
    trace = run(race_fixture(), SimConfig(horizon=60))
    good = MetricSpec("G", Count("activity-end"))
    late_b = MetricSpec("X", ElapsedBetween("activity-end", "no-such-b"))
    both = MetricSpec("Y", ElapsedBetween("no-such-a", "no-such-b"))
    count = MetricSpec("Z", Count("no-such-c:P"))
    for specs in ([good, late_b, count], [count, both], [both, late_b], [good, count]):
        expected = _outcome(reference_metrics, trace, specs)
        assert expected[0] is UnknownEventPatternError
        assert _outcome(compute_metrics, trace, specs) == expected


def test_model_with_an_unknown_pattern_fails_only_where_metrics_are_taken():
    model = race_fixture()
    bad = MetricSpec("Z", Count("no-such-kind"))
    model = dataclasses.replace(model, metrics={**model.metrics, "Z": bad})
    config = SimConfig(scenario="CH", horizon=60)
    trace = run(race_fixture(), config)
    expected = _outcome(reference_metrics, trace, model.metrics.values())
    assert expected[0] is UnknownEventPatternError
    for _ in range(2):
        assert _outcome(run, model, config) == expected
    assert enumerate_outcomes(model, config) == enumerate_outcomes(race_fixture(), config)
