"""Output checks: properties every run, view and verdict must have.

Nothing here calls the program: metrics are recomputed from the events
with this file's own matcher, detection winners are re-derived from the
specs, and DOT text is read back with a small reader of its own.
"""

from __future__ import annotations

import re

from fmaf import model as M


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports correct=false."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def finding_keys(findings) -> list[tuple[str, str, str, str | None]]:
    return sorted(
        ((f.rule_id, f.severity.value, f.subject, f.chain) for f in findings),
        key=repr,
    )


# ---------------------------------------------------------------------------
# Simulation traces


def _matches(event, pattern: str) -> bool:
    kind, _, qualifier = pattern.partition(":")
    if event.kind != kind:
        return False
    if not qualifier or event.actor == qualifier:
        return True
    return any(v == qualifier for v in event.details.values() if isinstance(v, str))


def recompute_metrics(events, specs) -> dict[str, int | None]:
    out: dict[str, int | None] = {}
    for spec in specs:
        kind = spec.kind
        if isinstance(kind, M.ElapsedBetween):
            a = next((e.time for e in events if _matches(e, kind.a)), None)
            b = next((e.time for e in events if _matches(e, kind.b)), None)
            out[spec.id] = None if a is None or b is None else b - a
        else:
            out[spec.id] = sum(1 for e in events if _matches(e, kind.pattern))
    return out


def _delay(spec) -> int:
    cond = spec.condition
    return cond.bound if isinstance(cond, M.Timeout) else cond.delay


def check_trace(model, config, trace, where: str) -> None:
    """Properties of one finished run (see README, seed-sweep)."""
    events = trace.events
    horizon = config.horizon
    last = 0
    for e in events:
        expect(last <= e.time <= horizon, f"{where}: event time {e.time} out of order or past {horizon}")
        last = e.time
    first = {}
    counts: dict[str, int] = {}
    for e in events:
        first.setdefault(e.kind, e)
        counts[e.kind] = counts.get(e.kind, 0) + 1
    outcome = trace.outcome
    cut = outcome.kind == "horizon-exhausted"
    expect(trace.metrics == recompute_metrics(events, model.metrics.values()),
           f"{where}: metrics {trace.metrics} disagree with the events")
    if outcome.kind == "failed-at-boundary":
        expect(events[-1].kind == "failure-observed", f"{where}: failed run does not end in failure-observed")
    if config.scenario is None:
        expect("fault-activated" not in counts, f"{where}: nominal run activated a fault")
        expect(outcome.kind in ("nominal", "horizon-exhausted"), f"{where}: nominal run ended {outcome.kind}")
        return
    for kind in ("fault-activated", "error-raised", "error-detected", "recovery-started"):
        expect(counts.get(kind, 0) <= 1, f"{where}: {counts.get(kind)} {kind} events")
    fault = first.get("fault-activated")
    error = first.get("error-raised")
    detected = first.get("error-detected")
    started = first.get("recovery-started")
    if fault is not None:
        expect(error is not None or cut, f"{where}: fault without error")
    if error is not None:
        expect(fault is not None and error.time == fault.time + 1,
               f"{where}: error-raised not 1 tick after fault-activated")
    if detected is not None:
        expect(started is not None or cut, f"{where}: detection without recovery start")
    if started is not None:
        expect(detected is not None and started.time == detected.time + 1,
               f"{where}: recovery-started not 1 tick after error-detected")
    chain = model.chains[config.scenario]
    enabled = (set(chain.detectors) if config.enabled_detectors is None
               else set(config.enabled_detectors))
    specs = [d for d in model.detections.values() if d.threat == chain.id and d.detector in enabled]
    sure = [(error.time + _delay(d), d.id) for d in specs
            if error is not None and not isinstance(d.condition, M.ThirdPartyReport)
            and error.time + _delay(d) <= horizon]
    if not config.recovery_enabled:
        expect(detected is None, f"{where}: detection with recovery disabled")
    elif detected is not None:
        spec = model.detections[detected.details["detection"]]
        expect(spec.threat == chain.id and spec.detector in enabled,
               f"{where}: winner {spec.id} is not an enabled detection of {chain.id}")
        expect(detected.time - error.time == _delay(spec),
               f"{where}: {spec.id} fired after {detected.time - error.time} ticks, spec says {_delay(spec)}")
        expect(all(key >= (detected.time, spec.id) for key in sure),
               f"{where}: {spec.id} won although {min(sure, default=None)} fires earlier")
        if outcome.kind == "recovered":
            expect(outcome.by == spec.detector and outcome.recovery == spec.recovery,
                   f"{where}: outcome {outcome} does not name winner {spec.id}")
            expect(events[-1].kind == "recovery-complete", f"{where}: recovered run ends in {events[-1].kind}")
    else:
        expect(not sure or cut, f"{where}: {min(sure, default=None)} should have detected")
    if outcome.kind == "recovered":
        expect(detected is not None, f"{where}: recovered without detection")


# ---------------------------------------------------------------------------
# DOT text

_QUOTED = r'"((?:[^"\\]|\\.)*)"'
_NODE = re.compile(r"^\s*" + _QUOTED + r" \[label=")
_EDGE = re.compile(r"^\s*" + _QUOTED + r" -> " + _QUOTED + r"(?: \[label=" + _QUOTED + ")?")


def _unquote(text: str) -> str:
    return re.sub(r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), text)


def read_dot(text: str):
    """(declared node ids, [(src, dst, label)]) of a DOT document."""
    nodes: set[str] = set()
    edges: list[tuple[str, str, str]] = []
    for line in text.splitlines():
        m = _EDGE.match(line)
        if m:
            edges.append((_unquote(m.group(1)), _unquote(m.group(2)), _unquote(m.group(3) or "")))
            continue
        m = _NODE.match(line)
        if m:
            nodes.add(_unquote(m.group(1)))
    return nodes, edges


def check_dot(model, view: str, focus: str | None, dot: str, where: str) -> None:
    expect(dot.startswith("digraph ") and dot.endswith("}\n"), f"{where}: not a DOT document")
    nodes, edges = read_dot(dot)
    for src, dst, _ in edges:
        expect(src in nodes and dst in nodes, f"{where}: edge {src} -> {dst} has an undeclared end")
    if view == "fts":
        missing = (set(model.constituents) | set(model.environment)) - nodes
        expect(not missing, f"{where}: elements {sorted(missing)} not declared")
        drawn = {(s, d, label.removesuffix(" (redundancy)")) for s, d, label in edges}
        for conn in model.connections.values():
            expect((conn.provider, conn.consumer, conn.id) in drawn, f"{where}: connection {conn.id} not drawn")
    elif view == "fav":
        origin = model.constituents[model.chains[focus].origin]
        missing = set(model.processes[origin.nominal_process].nodes) - nodes
        expect(not missing, f"{where}: activities {sorted(missing)[:5]} not declared")
