"""The run plan: what every run of a model needs, built once per model.

The simulator checks a model on its first ``run`` or
``enumerate_outcomes`` and keeps the findings, the decision nodes and
each chain's activation and detections on the model object.  Later
calls reuse them; the per-configuration checks still run on every call,
with the same messages in the same order.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import fmaf.simulator as simulator
from fmaf import dsl
from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.checker import check
from fmaf.model import ActivityKind, AtTime, FailureObservation
from fmaf.simulator import (
    InvalidConfigError,
    ModelViolationsError,
    SimConfig,
    enumerate_outcomes,
    run,
)

from _builders import checker_fixture, race_fixture, random_model


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


def test_plan_is_invisible_to_equality_repr_and_serialize():
    ran, fresh = load_bundle("fault2").model, load_bundle("fault2").model
    text, shown = dsl.serialize(ran), repr(ran)
    run(ran, load_bundle("fault2").scenarios["F2.1"])
    assert ran == fresh and fresh == ran
    assert repr(ran) == repr(fresh) == shown
    assert "_plan" not in shown
    assert dsl.serialize(ran) == dsl.serialize(fresh) == text
    assert dataclasses.replace(ran) == ran


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
        threats = {a.threat for a in model.activations.values()}
        threats |= {d.threat for d in model.detections.values()}
        for chain_id in sorted(set(model.chains) | threats):
            assert plan.activation.get(chain_id) == model.activation_for(chain_id)
            assert list(plan.detections.get(chain_id, ())) == model.detections_for(
                chain_id
            )


def test_plan_lists_every_started_instance_under_its_owner_in_key_order():
    started = 0
    for model in _models():
        plan = simulator._plan(model)
        assert all(list(keys) == sorted(keys) for keys in plan.owned.values())
        for scenario in (None, *sorted(model.chains)):
            config = SimConfig(scenario=scenario, seed=0)
            try:
                simulator._validate(model, config)
            except simulator.SimulationError:
                continue
            engine = simulator._Engine(model, config, simulator.RandomSampler(0))
            engine.start()
            engine.loop()
            for key, inst in engine.instances.items():
                assert key in plan.owned[inst.owner]
                started += inst.role == "recovery"
    assert started > 0
