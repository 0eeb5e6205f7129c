"""Engine-built trace events are the public, frozen ``SimEvent``.

The engine does not call ``SimEvent(...)``: it fills a private class with
the same slots and then changes the object's class to ``SimEvent``.
These tests pin that nothing can tell the two apart (see
``_event_check.check_public``), for events of seeded runs and of
recording forks.
"""

from __future__ import annotations

import dataclasses

import pytest

from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.simulator import (
    ScriptedSampler,
    SimConfig,
    SimEvent,
    SimulationError,
    _Engine,
    run,
)

from _event_check import DIGEST, FIELDS, bundle_digest, check_public
from test_enumeration import (
    _choice_models,
    _lossy_race_fixture,
    _snapshot_before_first_choice,
)

# One kind from each place the engine builds an event.
ENGINE_KINDS = {
    "fault-activated",
    "activity-start",
    "activity-end",
    "recovery-step",
    "message-sent",
    "message-lost",
    "message-delivered",
}


def _runs():
    """Every bundle scenario the checker lets run, and a lossy race."""
    params = []
    for name in BUNDLE_NAMES:
        bundle = load_bundle(name)
        for sname, config in bundle.scenarios.items():
            params.append(pytest.param(bundle.model, config, id=f"{name}/{sname}"))
    params.append(
        pytest.param(
            _lossy_race_fixture(),
            SimConfig(scenario="CH", horizon=60, seed=2),
            id="lossy-race",
        )
    )
    for param in params:
        try:
            _Engine(*param.values, ScriptedSampler(()))
        except SimulationError:
            continue
        yield param


@pytest.mark.parametrize("model,config", _runs())
def test_run_builds_public_frozen_events(model, config):
    events = run(model, config).events
    assert events
    for event in events:
        check_public(event)


@pytest.mark.parametrize("model,config", _choice_models())
def test_recording_forks_build_public_frozen_events(model, config):
    snap = _snapshot_before_first_choice(model, config)
    for choices in ((True,) * 16, (False,) * 16):
        fork = snap.fork(ScriptedSampler(choices))
        fork.loop()
        events = fork.finish().events
        assert len(events) > len(snap.events)
        for event in events:
            check_public(event)


def test_the_checked_events_cover_every_engine_constructor():
    kinds = set()
    for param in _runs():
        kinds.update(e.kind for e in run(*param.values).events)
    assert ENGINE_KINDS <= kinds


def test_sim_event_stays_a_frozen_slotted_dataclass():
    assert SimEvent.__dataclass_params__.frozen
    assert SimEvent.__slots__ == FIELDS
    event = SimEvent(1, "k", "a", {})
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.time = 2


def test_the_plain_script_digest_is_current():
    assert bundle_digest() == DIGEST
