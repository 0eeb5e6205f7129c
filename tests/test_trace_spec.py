"""Every run of the generated models and the bundles keeps the trace spec.

``tests/_trace_spec.py`` states the properties.  The generated models are
``random_model`` seeds 0-199, each run nominal, once per chain and once
per chain with recovery disabled, at simulator seeds 0-4; the bundles run
every scenario at seeds 0-4.  Runs the checker refuses are counted, not
checked; every other run must return.  Each chain also runs with
no detector enabled, and each generated configuration with recovery
enabled runs at horizons 60 and 200 to compare the two.  A property
test, skipped without hypothesis, draws model seeds beyond 0-199.  The
doctored-trace tests show that each property can fail, the detection
race's on race_fixture runs whose winner each doctoring makes wrong.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.model import Timeout
from fmaf.simulator import ModelViolationsError, Outcome, SimConfig, SimEvent, run

from _builders import race_fixture, random_model
from _trace_spec import prefix_violation, violations

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    st = None


def _check(runs):
    """(runs checked, runs refused, the violations found, outcome counts)."""
    checked = refused = 0
    found, outcomes = [], {}
    for model, config in runs:
        try:
            trace = run(model, config)
        except ModelViolationsError:
            refused += 1
            continue
        checked += 1
        outcomes[trace.outcome.kind] = outcomes.get(trace.outcome.kind, 0) + 1
        found += [(config, v) for v in violations(model, trace)]
    return checked, refused, found, outcomes


def _generated_runs():
    for model_seed in range(200):
        model = random_model(random.Random(model_seed))
        configs = [SimConfig()]
        for chain in sorted(model.chains):
            configs.append(SimConfig(scenario=chain))
            configs.append(SimConfig(scenario=chain, recovery_enabled=False))
        for config in configs:
            for seed in range(5):
                yield model, dataclasses.replace(config, seed=seed)


def _bundle_runs(**changes):
    for name in BUNDLE_NAMES:
        bundle = load_bundle(name)
        for config in bundle.scenarios.values():
            if changes and config.scenario is None:
                continue
            for seed in range(5):
                yield bundle.model, dataclasses.replace(config, seed=seed, **changes)


def test_generated_runs_keep_the_trace_spec():
    checked, refused, found, outcomes = _check(_generated_runs())
    assert found == []
    assert (checked, refused) == (1230, 1630)
    assert outcomes == {
        "nominal": 1000,
        "failed-at-boundary": 174,
        "recovered": 22,
        "not-activated": 34,
    }


def test_bundle_runs_keep_the_trace_spec():
    checked, refused, found, outcomes = _check(_bundle_runs())
    assert found == []
    assert (checked, refused) == (45, 5)  # fault3's F3.1 is refused by the checker
    assert outcomes.keys() == {"nominal", "recovered", "failed-at-boundary"}


def test_runs_with_no_detector_enabled_fail_at_the_boundary():
    none = frozenset()
    generated = (
        (model, dataclasses.replace(config, enabled_detectors=none))
        for model, config in _generated_runs()
        if config.scenario is not None and config.recovery_enabled
    )
    checked, refused, found, outcomes = _check(generated)
    assert found == []
    assert (checked, outcomes) == (115, {"failed-at-boundary": 98, "not-activated": 17})
    checked, refused, found, outcomes = _check(_bundle_runs(enabled_detectors=none))
    assert found == []
    assert (checked, refused, outcomes) == (40, 5, {"failed-at-boundary": 40})


def test_a_longer_horizon_extends_a_run_and_changes_no_earlier_event():
    compared = 0
    for model, config in _generated_runs():
        if not config.recovery_enabled:
            continue
        try:
            short = run(model, dataclasses.replace(config, horizon=60))
            long = run(model, config)
        except ModelViolationsError:
            continue
        assert prefix_violation(short, long) is None, config
        compared += 1
    assert compared == 1115


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_drawn_seeds_keep_the_trace_spec():
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.integers(200, 2**32 - 1), st.integers(0, 2**32 - 1), st.booleans(), st.data())
    def keeps_the_spec(model_seed, seed, recovery, data):
        model = random_model(random.Random(model_seed))
        scenario = data.draw(st.sampled_from([*sorted(model.chains), None]))
        config = SimConfig(scenario=scenario, seed=seed, recovery_enabled=recovery)
        try:
            trace = run(model, config)
        except ModelViolationsError:
            return  # refused by the checker; every other run returns
        assert violations(model, trace) == []

    keeps_the_spec()


# ---------------------------------------------------------------------------
# Each property can fail


def _runs():
    """race_fixture recovered by P's self-report, and run nominal."""
    model = race_fixture()
    config = SimConfig(scenario="CH", horizon=60, enabled_detectors=frozenset({"P"}))
    trace, nominal = run(model, config), run(model, SimConfig(horizon=60))
    assert trace.outcome.kind == "recovered" and "message-sent" in _kinds(nominal)
    return model, trace, nominal


def _kinds(trace):
    return [e.kind for e in trace.events]


def _at(trace, kind):
    return trace.events[_kinds(trace).index(kind)]


def _insert(trace, kind, event):
    """``event`` placed right after the first ``kind`` event."""
    events = list(trace.events)
    events.insert(_kinds(trace).index(kind) + 1, event)
    return dataclasses.replace(trace, events=tuple(events))


def _retimed(trace, kind, delta):
    events = list(trace.events)
    i = _kinds(trace).index(kind)
    events[i] = dataclasses.replace(events[i], time=events[i].time + delta)
    return dataclasses.replace(trace, events=tuple(events))


def _start(trace, kind, actor):
    """A nominal activity-start by ``actor`` at the first ``kind`` event's time."""
    details = {"activity": "x", "graph": "G"}
    return SimEvent(_at(trace, kind).time, "activity-start", actor, details)


def _config(trace, **changes):
    return dataclasses.replace(trace, config=dataclasses.replace(trace.config, **changes))


def _lost(trace):
    sent = _at(trace, "message-sent")
    return SimEvent(sent.time, "message-lost", sent.actor, {**sent.details, "graph": "G"})


# the violation expected -> a doctoring of (recovered trace, nominal trace)
_DOCTORED = {
    "times decrease": lambda t, n: dataclasses.replace(t, events=t.events[::-1]),
    "outside 0..horizon": lambda t, n: _config(t, horizon=t.events[-1].time - 1),
    "fault-activated comes twice": lambda t, n: _insert(
        t, "fault-activated", _at(t, "fault-activated")
    ),
    "error-raised is not one tick": lambda t, n: _retimed(t, "error-raised", 1),
    "recovery-started is not one tick": lambda t, n: _retimed(t, "recovery-started", 1),
    "a nominal run activates": lambda t, n: _config(t, scenario=None),
    "origin's nominal flow runs on": lambda t, n: _insert(
        t, "fault-activated", _start(t, "fault-activated", "P")
    ),
    "a nominal flow runs on": lambda t, n: _insert(
        t, "recovery-started", _start(t, "recovery-started", "Q")
    ),
    "recovery-step comes before": lambda t, n: _insert(
        t, "fault-activated", _at(t, "recovery-step")
    ),
    "does not follow its message-sent": lambda t, n: _insert(n, "message-sent", _lost(n)),
    "has no message-sent one connection latency": lambda t, n: _retimed(
        n, "message-delivered", 1
    ),
    "does not end in failure-observed": lambda t, n: dataclasses.replace(
        t, outcome=Outcome("failed-at-boundary")
    ),
    "a not-activated run has a chain event": lambda t, n: dataclasses.replace(
        t, outcome=Outcome("not-activated")
    ),
    "recovery disabled recovers": lambda t, n: _config(t, recovery_enabled=False),
    "no detector enabled": lambda t, n: _config(t, enabled_detectors=frozenset()),
    "metrics differ": lambda t, n: dataclasses.replace(t, metrics={**t.metrics, "Extra": 1}),
    "names no enabled detection of CH": lambda t, n: _config(
        t, enabled_detectors=frozenset({"Q"})
    ),
    "DSELF fires other than 2 ticks after error-raised": lambda t, n: _retimed(
        t, "error-detected", 1
    ),
    "does not name the winner DSELF": lambda t, n: dataclasses.replace(
        t, outcome=Outcome("recovered", by="Q", recovery="RTIME")
    ),
    "a recovered run has no error-detected": lambda t, n: dataclasses.replace(
        t, events=tuple(e for e in t.events if e.kind != "error-detected")
    ),
    "does not end in recovery-complete": lambda t, n: dataclasses.replace(
        t, events=t.events[:-1]
    ),
}


@pytest.mark.parametrize("expected", list(_DOCTORED))
def test_a_doctored_trace_breaks_the_spec(expected):
    model, trace, nominal = _runs()
    assert violations(model, trace) == [] == violations(model, nominal)
    doctored = _DOCTORED[expected](trace, nominal)
    assert any(expected in v for v in violations(model, doctored))


def _raced(enabled, timeout=15):
    """race_fixture with DTIME's bound set to ``timeout``, run with the
    ``enabled`` detectors at a seed where Q's third-party report misses."""
    model = race_fixture()
    spec = model.detections["DTIME"]
    spec = dataclasses.replace(spec, condition=Timeout(bound=timeout, watched="P"))
    model = dataclasses.replace(model, detections={**model.detections, "DTIME": spec})
    config = SimConfig(scenario="CH", horizon=60, seed=0, enabled_detectors=frozenset(enabled))
    return model, run(model, config)


def _tied_runs():
    """race_fixture with DTIME's bound equal to DSELF's delay, every
    detector enabled, at seeds 0-9: DSELF and DTIME fall due at one tick
    whenever Q's third-party report misses."""
    model, _ = _raced({"P", "Q"}, 2)
    for seed in range(10):
        yield model, SimConfig(scenario="CH", horizon=60, seed=seed)


def test_tied_sure_detections_keep_the_trace_spec():
    checked, refused, found, outcomes = _check(_tied_runs())
    assert found == []
    assert (checked, refused, outcomes) == (10, 0, {"recovered": 10})
    winners = [run(model, config).outcome.by for model, config in _tied_runs()]
    assert winners.count("P") == 4  # DSELF won a tie against DTIME


def _enabling(then, enabled, timeout=15):
    """A run of ``_raced(enabled, timeout)`` whose config then enables
    the detectors ``then``."""
    model, trace = _raced(enabled, timeout)
    return model, trace, _config(trace, enabled_detectors=frozenset(then))


# the violation expected -> (model, a run of it, the run doctored)
_DOCTORED_RACES = {
    # DTIME wins at error+15 while only Q is enabled; P's self-report is
    # due at error+2.
    "DTIME wins although DSELF is due earlier": lambda: _enabling({"P", "Q"}, {"Q"}),
    # With DTIME's bound 2, DSELF and DTIME are due at one tick.
    "DTIME wins a tie against the lower id DSELF": lambda: _enabling({"P", "Q"}, {"Q"}, 2),
    "no detection fired although DSELF was due": lambda: _enabling({"P"}, ()),
}


@pytest.mark.parametrize("expected", list(_DOCTORED_RACES))
def test_a_doctored_race_breaks_the_spec(expected):
    model, trace, doctored = _DOCTORED_RACES[expected]()
    assert violations(model, trace) == []
    assert trace.outcome.kind != "horizon-exhausted"
    assert any(expected in v for v in violations(model, doctored))


def test_a_doctored_run_breaks_the_horizon_prefix():
    model = race_fixture()
    config = SimConfig(scenario="CH", horizon=60, enabled_detectors=frozenset({"P"}))
    long, short = run(model, config), run(model, dataclasses.replace(config, horizon=5))
    ended = run(model, dataclasses.replace(config, horizon=40))
    assert short.outcome.kind == "horizon-exhausted" and ended.outcome.kind == "recovered"
    assert prefix_violation(short, long) is None is prefix_violation(ended, long)
    dropped = dataclasses.replace(short, events=short.events[:-1])
    assert "events up to tick 5 change" in prefix_violation(dropped, long)
    failed = dataclasses.replace(ended, outcome=Outcome("failed-at-boundary"))
    assert "ending before tick 40 changes" in prefix_violation(failed, long)
