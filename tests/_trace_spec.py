"""Properties every simulated trace keeps, whatever the model.

``violations(model, trace)`` lists the properties below that one run's
trace breaks, one line each; an empty list means the trace keeps them
all.  They restate the simulator's causal and suspension rules
(``docs/trace-format.md``) on the events alone:

- times never decrease and lie within the horizon;
- each chain event (fault activation to observed failure) comes at most
  once;
- ``error-raised`` comes one tick after ``fault-activated``, and
  ``recovery-started`` one tick after ``error-detected``;
- a nominal run has no ``fault-activated``;
- the origin starts and ends no nominal activity after its
  ``fault-activated`` (the activation suspends it);
- no constituent starts or ends a nominal activity after
  ``recovery-started`` (recovery replaces the nominal flow);
- ``recovery-step`` comes only after ``recovery-started``;
- each ``message-lost`` directly follows its ``message-sent``, with the
  same actor and details;
- each ``message-delivered`` takes one earlier ``message-sent``, not
  lost, by its ``sender`` on its channel, exactly the connection's
  latency before it;
- a failed run ends in ``failure-observed``;
- a not-activated run has no chain event;
- a chain run with no detector enabled fails at the boundary, exhausts
  the horizon or is never activated;
- a run with recovery disabled has no ``recovery-*`` event;
- the trace's metrics are ``compute_metrics`` over its events.

``prefix_violation(short, long)`` compares two runs of one configuration
at two horizons: the shorter run's events are the longer run's events up
to the shorter horizon, and when the shorter run ends before its
horizon, the two traces are the same run.
"""

from __future__ import annotations

from collections import Counter

from fmaf.simulator import compute_metrics

CHAIN_EVENTS = (
    "fault-activated",
    "error-raised",
    "error-detected",
    "recovery-started",
    "recovery-complete",
    "failure-observed",
)
NOMINAL = ("activity-start", "activity-end")


def violations(model, trace) -> list[str]:
    config, events = trace.config, trace.events
    found = []
    times = [e.time for e in events]
    if any(a > b for a, b in zip(times, times[1:])):
        found.append("times decrease")
    if any(not 0 <= t <= config.horizon for t in times):
        found.append("a time lies outside 0..horizon")

    first: dict[str, int] = {}  # chain event kind -> its index
    for index, event in enumerate(events):
        if event.kind in CHAIN_EVENTS:
            if event.kind in first:
                found.append(f"{event.kind} comes twice")
            first.setdefault(event.kind, index)
    for cause, effect in (
        ("fault-activated", "error-raised"),
        ("error-detected", "recovery-started"),
    ):
        if effect in first and (
            cause not in first
            or events[first[effect]].time != events[first[cause]].time + 1
        ):
            found.append(f"{effect} is not one tick after {cause}")

    if "fault-activated" in first:
        fault = first["fault-activated"]
        if config.scenario is None:
            found.append("a nominal run activates a fault")
        origin = events[fault].actor
        if any(e.kind in NOMINAL and e.actor == origin for e in events[fault + 1:]):
            found.append("the origin's nominal flow runs on after fault-activated")
    started = first.get("recovery-started", len(events))
    if any(e.kind in NOMINAL for e in events[started + 1:]):
        found.append("a nominal flow runs on after recovery-started")
    if any(e.kind == "recovery-step" for e in events[:started]):
        found.append("recovery-step comes before recovery-started")

    for index, event in enumerate(events):
        if event.kind != "message-lost":
            continue
        sent = events[index - 1] if index else None
        if sent is None or (sent.kind, sent.actor, sent.details) != (
            "message-sent",
            event.actor,
            event.details,
        ):
            found.append(f"message-lost at {event.time} does not follow its message-sent")

    unread = Counter()  # (sender, channel, time) -> messages sent then, not lost or delivered
    for event in events:
        if event.kind in ("message-sent", "message-lost"):
            key = (event.actor, event.details["channel"], event.time)
            unread[key] += 1 if event.kind == "message-sent" else -1
        elif event.kind == "message-delivered":
            channel = event.details["channel"]
            link = model.connections.get(channel)
            key = (event.details["sender"], channel, event.time - (link.latency if link else 0))
            if link is None or unread[key] <= 0:
                found.append(
                    f"message-delivered at {event.time} has no message-sent "
                    "one connection latency before it"
                )
            else:
                unread[key] -= 1

    if trace.outcome.kind == "failed-at-boundary" and (
        not events or events[-1].kind != "failure-observed"
    ):
        found.append("a failed run does not end in failure-observed")
    if trace.outcome.kind == "not-activated" and first:
        found.append("a not-activated run has a chain event")
    if (
        config.scenario is not None
        and config.enabled_detectors == frozenset()
        and trace.outcome.kind not in ("failed-at-boundary", "horizon-exhausted", "not-activated")
    ):
        found.append(
            "a run with no detector enabled neither fails, exhausts the horizon "
            "nor stays unactivated"
        )
    if not config.recovery_enabled and any(e.kind.startswith("recovery-") for e in events):
        found.append("a run with recovery disabled recovers")
    if dict(trace.metrics) != compute_metrics(trace, model.metrics.values()):
        found.append("metrics differ from compute_metrics")
    return found


def prefix_violation(short, long) -> str | None:
    """How a run to the shorter horizon differs from a longer one, or None."""
    horizon = short.config.horizon
    if short.outcome.kind != "horizon-exhausted":
        if (short.events, short.outcome, short.metrics) != (long.events, long.outcome, long.metrics):
            return f"a run ending before tick {horizon} changes with a longer horizon"
    elif short.events != tuple(e for e in long.events if e.time <= horizon):
        return f"the events up to tick {horizon} change with a longer horizon"
    return None
