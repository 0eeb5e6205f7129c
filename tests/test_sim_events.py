"""Engine-built trace events are the public, frozen ``SimEvent``.

The engine does not call ``SimEvent(...)``: it builds its events through
``model._slot_maker``, which fills a private class with the same slots and
then changes the object's class to ``SimEvent``.
These tests pin that nothing can tell the two apart (see
``_event_check.check_public``), for events of seeded runs and of
recording forks.

A run records its events as rows, and its trace builds the ``SimEvent``
tuple when ``events`` is first read, then keeps it.  Before that read,
nothing tells the trace apart from the one the public constructor builds
(``_event_check.check_unread``), and threads reading one trace all get
the same tuple.
"""

from __future__ import annotations

import sys
import threading
from functools import partial

import pytest

from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.simulator import (
    ModelViolationsError,
    SimConfig,
    SimEvent,
    _Engine,
    run,
)

from _builders import ScriptedSampler
from _event_check import DIGEST, bundle_digest, check_public, check_unread
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
        except ModelViolationsError:
            continue
        yield param


@pytest.mark.parametrize("model,config", _runs())
def test_run_builds_public_frozen_events(model, config):
    events = run(model, config).events
    assert events
    for event in events:
        check_public(event, SimEvent)


@pytest.mark.parametrize("model,config", _choice_models())
def test_recording_forks_build_public_frozen_events(model, config):
    snap = _snapshot_before_first_choice(model, config)
    for choices in ((True,) * 16, (False,) * 16):
        fork = snap.fork(ScriptedSampler(choices))
        fork.loop()
        events = fork.finish().events
        assert len(events) > len(snap.events)
        for event in events:
            check_public(event, SimEvent)


def test_the_checked_events_cover_every_engine_constructor():
    kinds = set()
    for param in _runs():
        kinds.update(e.kind for e in run(*param.values).events)
    assert ENGINE_KINDS <= kinds


def test_the_plain_script_digest_is_current():
    assert bundle_digest() == DIGEST


@pytest.mark.parametrize("model,config", _runs())
def test_unread_traces_behave_as_their_public_twin(model, config):
    check_unread(partial(run, model, config))


def test_reading_events_twice_gives_the_same_tuple():
    bundle = load_bundle("fault2")
    trace = run(bundle.model, bundle.scenarios["F2.1"])
    events = trace.events
    assert type(events) is tuple and events
    assert trace.events is events


def test_threads_reading_one_fresh_trace_get_one_tuple():
    bundle = load_bundle("fault2")
    config = bundle.scenarios["F2.1"]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            trace = run(bundle.model, config)
            start = threading.Barrier(8)
            got = []

            def read():
                start.wait(timeout=10)
                got.append(trace.events)

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(got) == 8
            assert all(events is trace.events for events in got)
    finally:
        sys.setswitchinterval(switch)
