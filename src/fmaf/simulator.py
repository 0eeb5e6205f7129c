"""Deterministic fault-injection simulator.

Executes every constituent's nominal activity graph as a discrete-event
system over integer ticks, injects the configured fault-error-failure
chain, races the enabled detectors, and runs the winning detection's
recovery graphs.  Identical (model, config) pairs produce identical
traces: the only randomness is a seeded generator consulted for genuine
Bernoulli choices (message survival on lossy links, probabilistic
triggers, third-party reports).  Degenerate probabilities (p <= 0,
p >= 1) never touch the generator, which keeps exhaustive outcome
enumeration finite.

Every run passes one gate, the engine's constructor, before its first
event.  In order: the checker's blocking findings for the scenario raise
``ModelViolationsError``; then, only for a model that neither
``build_model`` nor ``fmaf.dsl.parse`` made, a structure they refuse (a
malformed activity graph, a nominal process or recovery graph that
names no graph, a nominal send or receive over a channel that names no
connection, or a send or receive of a nominal process or recovery graph
over a connection whose endpoints exclude the constituent running it)
raises ``SimulationError``; then the configuration (an
unknown scenario, detectors outside the chain, a chain with no
activation, an at-time trigger past the horizon, a guard input naming
no decision) raises ``InvalidConfigError``.  ``enumerate_outcomes``
refuses a graph larger than its bound before that.

Causal strictness: error-raised happens one tick after fault-activated,
recovery-started one tick after error-detected, recovery-complete at
least one tick after recovery-started.  Detection delays and timeout
bounds are measured from error-raised.  In the detection race the
earliest firing enabled detection wins, a tie going to the lower spec
id, and one firing after the horizon never wins.

A fault's activation suspends the origin's nominal execution; the start
of recovery suspends every nominal execution (recovery replaces the
nominal flow).  Suspension drops, once, what the suspended instances
have queued: their completions leave the event queue and their receives
stop waiting, so a message for them stays in the mailbox.
An undetected error ends in failure-observed at quiescence, the moment
the event queue drains with no progress possible.  A scenario whose
activation never fired by then (a ``Probabilistic`` trigger that drew
False at every start in its region) ends ``not-activated``, with no
chain event.

Each model keeps a run plan, built on its first run: the checker's
findings, the structure verdict, one record per chain holding one record
per detection spec, an index from (receiver, channel) to the receive
nodes that may take a delivery, and one step table per activity-graph
instance, made when a run first starts the instance.  A table builds a
node's step record when a run first enters the node; later runs and
forks share it, so a run pays only for the nodes it reaches.  A step
record holds everything entering and completing its node needs: the
activity, its ``ActivityKind`` and duration as the model states them,
and its instance's key, owner and recovery, so the engine passes one
record per node event and a queued completion is the record itself.
Each record holds the details that its trace events share, so a run
builds details only with a record.  Each shared mapping caches its JSON
text for the trace writer and its set of string values for metric
qualifiers.  None of these caches changes a trace's bytes.
A run records each trace event as a plain ``(time, kind, actor,
details)`` row.  The metrics and the trace writer read the rows; the
trace builds its ``SimEvent`` tuple, by plain slot stores into the same
frozen type that the public constructor gives, when ``events`` is first
read, and keeps it.  So a run that is only written or summarised builds
no event object.

A run's changing state is a token count (the nominal instances' until
recovery starts, the recovery's after) and flat tables a fork copies:
join arrivals under the join's record, the waiting receives as
(instance, receive) pairs, the mailbox and the event queue.

``enumerate_outcomes`` forks at the draw.  Three kinds of event can
draw: the completion of a send over a lossy link, a nominal start that
may trigger a ``Probabilistic`` activation, and the raised error's
detection race.  A branch that pops such an event forks once, keeping
the copy as a snapshot taken just before the event, and answers each
new choice True.  Each new choice leaves a sibling that handles the
same event again from the snapshot, its last choice False; the last
sibling of a snapshot takes the snapshot itself.  Seeded runs pay one
test of a local per ``complete`` and ``raise-error`` event for this.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import field
from itertools import starmap
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .checker import Finding, blocking_violations, check
from .model import (
    ActivationSpec,
    Activity,
    ActivityKind,
    AtTime,
    Connection,
    Count,
    DanglingReferenceError,
    DetectionSpec,
    ElapsedBetween,
    FmafError,
    GraphStructureError,
    MetricSpec,
    OnEntry,
    Probabilistic,
    SosModel,
    ThirdPartyReport,
    ThreatChain,
    Timeout,
    _frozen_value,
    _slot_maker,
    _validate_graph,
    split_event_pattern,
)

__all__ = [
    "SimConfig",
    "SimEvent",
    "SimTrace",
    "Outcome",
    "SimulationError",
    "InvalidConfigError",
    "ModelViolationsError",
    "BoundExceededError",
    "UnknownEventPatternError",
    "NeedChoice",
    "RandomSampler",
    "ScriptedSampler",
    "run",
    "enumerate_outcomes",
    "compute_metrics",
    "summarize",
    "format_trace",
    "write_trace",
]


class SimulationError(FmafError):
    """The simulation could not run or could not make progress."""


class InvalidConfigError(SimulationError):
    pass


class ModelViolationsError(SimulationError):
    """The checker blocks this scenario; findings attached."""

    def __init__(self, findings) -> None:
        self.findings = list(findings)
        listing = "; ".join(str(f) for f in self.findings)
        super().__init__(f"model has blocking violations: {listing}")


class BoundExceededError(SimulationError):
    pass


class UnknownEventPatternError(FmafError):
    pass


# ---------------------------------------------------------------------------
# Configuration, events, traces


@_frozen_value(slots=False)
class SimConfig:
    """One run's knobs.

    ``enabled_detectors`` of None means every detector the focused chain
    lists; an explicit collection of ids, not a string, must be a subset
    of those.  ``guard_inputs``, a mapping or pairs, chooses guarded
    branches by decision node id; decisions without an input (or with an
    unmatched label) take their unguarded default edge.
    """

    scenario: str | None = None
    seed: int = 0
    horizon: int = 200
    enabled_detectors: frozenset[str] | None = None
    guard_inputs: Mapping[str, str] = field(default_factory=dict)
    recovery_enabled: bool = True

    def __post_init__(self) -> None:
        detectors = self.enabled_detectors
        if self.horizon <= 0:
            raise InvalidConfigError("horizon must be positive")
        if isinstance(detectors, str):
            raise InvalidConfigError(f"enabled detectors are ids, not the string {detectors!r}")
        if detectors is not None:
            object.__setattr__(self, "enabled_detectors", frozenset(detectors))
        try:
            object.__setattr__(self, "guard_inputs", dict(self.guard_inputs))
        except (TypeError, ValueError) as error:
            raise InvalidConfigError(f"guard inputs are no mapping or pairs: {error}") from None

    def __hash__(self) -> int:
        return hash(
            (
                self.scenario,
                self.seed,
                self.horizon,
                self.enabled_detectors,
                frozenset(self.guard_inputs.items()),
                self.recovery_enabled,
            )
        )


@_frozen_value
class SimEvent:
    """One trace event: at ``time``, ``actor`` did ``kind``."""

    time: int
    kind: str
    actor: str
    details: Mapping[str, object]


# Events have no rules of their own, so a trace builds them from the
# engine's rows without the frozen ``__init__``.
_event = _slot_maker(SimEvent)


class _Details(dict):
    """Read-only event details shared by every event of one step record,
    chain or detection.

    Built at most once per model, in the run plan, always by
    ``_details``.  ``text`` is the JSON object the trace writer puts on
    each line, rendered when the first line needs it, so runs that are
    never written do not pay for it.  ``strings``, the set of string
    values a metric qualifier may match, is likewise built when a
    qualified metric first tests it.  Copies, deep copies and pickles are
    plain dicts.
    """

    __slots__ = ("text", "strings")

    def _read_only(self, *args, **kwargs):
        raise TypeError(
            "trace event details are read-only; copy them with dict(...) to change them"
        )

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return dict, (dict(self),)


def _details(items: Mapping[str, object]) -> _Details:
    """Shared details holding ``items``, with no text or strings yet.

    ``dict``'s own initialiser and two slot stores cost about half of a
    Python ``__init__``, and a step record builds up to four of these.
    """
    details = _Details(items)
    details.text = details.strings = None
    return details


@_frozen_value
class Outcome:
    """How a run ended."""

    kind: str  # recovered | failed-at-boundary | horizon-exhausted | nominal | not-activated
    by: str | None = None  # winning detector for recovered outcomes
    recovery: str | None = None


@_frozen_value(slots=False)
class SimTrace:
    """Everything one run produced: events, metrics and outcome."""

    config: SimConfig
    events: tuple[SimEvent, ...]
    metrics: Mapping[str, int | None]
    outcome: Outcome

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_rows" in state:
            # An engine-built trace copies and pickles as a constructed one:
            # its events, never its rows, in field order.
            state = {
                "config": self.config,
                "events": self.events,
                "metrics": self.metrics,
                "outcome": self.outcome,
            }
        return state


class _Events:
    """``SimTrace.events`` of a trace the engine built.

    Such a trace keeps the engine's ``(time, kind, actor, details)``
    rows under ``_rows`` and no events; the first read builds the
    ``SimEvent`` tuple from them and stores it as ``events``, where
    every later read finds it.  A trace built by its constructor holds
    ``events`` from the start, which this non-data descriptor never
    overrides.
    """

    def __get__(self, trace, owner=None):
        rows = None if trace is None else trace.__dict__.get("_rows")
        if rows is None:
            raise AttributeError("events")
        # The first tuple stored wins, so that threads reading one trace
        # all get the same events.
        return trace.__dict__.setdefault("events", tuple(starmap(_event, rows)))


SimTrace.events = _Events()


def _trace(config: SimConfig, rows: tuple, metrics: dict, outcome: Outcome) -> SimTrace:
    """A trace of the engine's rows, building its events on first read."""
    trace = SimTrace.__new__(SimTrace)
    trace.__dict__.update(config=config, _rows=rows, metrics=metrics, outcome=outcome)
    return trace


def _event_rows(trace: SimTrace):
    """The ``(time, kind, actor, details)`` row of each of the trace's
    events: the engine's own, or read from the events of a trace its
    constructor built."""
    rows = trace.__dict__.get("_rows")
    if rows is None:
        rows = [(e.time, e.kind, e.actor, e.details) for e in trace.events]
    return rows


def summarize(trace: SimTrace) -> tuple[str | None, str]:
    """The (detector, outcome-kind) pair used by the exhaustive oracle."""
    return (trace.outcome.by, trace.outcome.kind)


# ---------------------------------------------------------------------------
# Random choice plumbing


class NeedChoice(Exception):
    """A scripted sampler ran out of scripted choices."""


# The seed types ``random.Random`` takes without a warning or an error.
_SEEDS = (int, float, str, bytes, bytearray, type(None))


class RandomSampler:
    """Draws from ``random.Random(seed)``, seeded on the first draw: most
    runs never draw, and seeding costs more than a short run's events.
    A seed of another type is seeded at once, so that it fails or warns
    as the run starts, whether or not the run draws."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._rng = None if isinstance(seed, _SEEDS) else random.Random(seed)

    def bernoulli(self, probability: float) -> bool:
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._seed)
        return rng.random() < probability


class ScriptedSampler:
    """Replays a fixed prefix of choices; exhaustion raises NeedChoice."""

    def __init__(self, choices: Iterable[bool]) -> None:
        self._choices = list(choices)
        self._next = 0

    def bernoulli(self, probability: float) -> bool:
        if self._next >= len(self._choices):
            raise NeedChoice
        value = self._choices[self._next]
        self._next += 1
        return value


def _draw(sampler, probability: float) -> bool:
    # Degenerate probabilities are decided without the sampler so that
    # enumeration only branches on real choices.
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    return sampler.bernoulli(probability)


# ---------------------------------------------------------------------------
# Engine internals

# Same-tick processing order: a heap entry is (time, actor, rank, seq,
# payload).  Each rank names one event kind, which ``loop`` dispatches on.
_R_INJECT = 0
_R_ERROR = 1
_R_DELIVER = 2
_R_COMPLETE = 3
_R_DETECT = 4
_R_RECOVERY_START = 5
_R_FINALIZE = 6

# The activity kinds that entering or completing a node tests, bound once:
# a module global reads several times faster than ``ActivityKind.X``.
_SEND = ActivityKind.SEND
_RECEIVE = ActivityKind.RECEIVE
_FORK = ActivityKind.FORK
_JOIN = ActivityKind.JOIN
_DECISION = ActivityKind.DECISION
_TIMER = ActivityKind.TIMER


class _Step:
    """What entering and completing one node of one instance does.

    Built by the instance's table when a run first enters the node, and
    never changed.  ``key``, ``owner`` and ``recovery`` are the
    instance's: its key, the constituent that runs it, and its recovery
    id, None for a nominal instance.  ``successors`` are the target ids
    a completion enters, read through the instance's table in the run
    plan: every target of a fork, the first of any other node, none at
    an exit; a decision keeps its out-edges, whose guards pick the one
    target.  The fields from ``link`` to ``receiver`` are a send's, None
    for every other node; ``draw`` is the link's reliability when a send
    over it draws, 0 < reliability < 1, and None otherwise.  A slotted
    class, not a named tuple or a dataclass: the engine reads a few
    fields per node event, a slot read is the cheapest, and the class
    adds no import cost.
    """

    __slots__ = (
        "key", "owner", "recovery",
        "activity", "kind", "ticks", "successors", "in_degree", "details",
        "link", "draw", "sent", "delivered", "receiver", "timer",
    )

    def __init__(
        self, key, owner, recovery,
        activity, kind, ticks, successors, in_degree, details,
        link, draw, sent, delivered, receiver, timer,
    ) -> None:
        self.key: str = key
        self.owner: str = owner
        self.recovery: str | None = recovery
        self.activity: Activity = activity
        self.kind: ActivityKind = kind  # activity.kind, one attribute read fewer per event
        self.ticks: int = ticks  # time from entering the node to completing it
        self.successors: tuple = successors
        self.in_degree: int = in_degree
        self.details: _Details = details  # activity-start and activity-end, or recovery-step
        self.link: Connection | None = link  # the connection the send sends over
        self.draw: float | None = draw
        self.sent: _Details | None = sent  # message-sent and message-lost
        self.delivered: _Details | None = delivered  # message-delivered
        self.receiver: str | None = receiver
        self.timer: _Details | None = timer  # a timer's timer-expired


class _StepTable(dict):
    """Node id -> step record of the instance ``key`` of ``graph`` that
    ``owner`` runs, nominal when ``recovery`` is None.

    Made empty when a run first starts the instance.  Looking a node up
    builds its record the first time (``__missing__``), which is when a
    run first enters the node; the record then serves every later run
    and fork.  A record reads its in-degree from the graph, which counts
    them once as it is built, so building a record never scans the edges.
    """

    __slots__ = ("graph", "key", "owner", "recovery", "connections")

    def __init__(
        self, graph, key: str, owner: str, recovery: str | None,
        connections: Mapping[str, Connection],
    ) -> None:
        dict.__init__(self)
        self.graph = graph
        self.key = key
        self.owner = owner
        self.recovery = recovery
        self.connections = connections

    def __missing__(self, node_id: str) -> _Step:
        graph, owner, recovery = self.graph, self.owner, self.recovery
        nodes = graph.nodes
        node = nodes[node_id]
        # Key the record and name successors by the graph's own id
        # strings, so that later lookups match by identity.
        node_id = node.id
        kind = node.kind
        out = graph.out_edges(node_id)
        if kind is _DECISION:
            successors = out
        elif kind is _FORK:
            successors = tuple(nodes[edge.dst].id for edge in out)
        else:
            successors = (nodes[out[0].dst].id,) if out else ()
        ticks = node.timer_bound if kind is _TIMER else node.duration
        items = {"activity": node_id, "graph": graph.id}
        if node.name:
            items["name"] = node.name
        if recovery is not None:
            items["recovery"] = recovery
        link = draw = sent = delivered = receiver = timer = None
        if kind is _SEND:
            link = self.connections.get(node.channel)
        if link is not None:
            if 0.0 < link.reliability < 1.0:
                draw = link.reliability
            sent = _details({"channel": link.id, "activity": node_id, "graph": graph.id})
            delivered = _details({"channel": link.id, "sender": owner})
            receiver = link.consumer if link.provider == owner else link.provider
        if kind is _TIMER:
            timer = _details({"activity": node_id, "graph": graph.id, "bound": node.timer_bound})
        # The first record stored wins, so that runs of one model in
        # several threads enter one record per node.
        return self.setdefault(node_id, _Step(
            self.key, owner, recovery, node, kind, ticks, successors,
            graph._in_degree.get(node_id, 0), _details(items),
            link, draw, sent, delivered, receiver, timer,
        ))


class _Engine:
    def __init__(
        self, model: SosModel, config: SimConfig, sampler, record: bool = True
    ) -> None:
        self.model = model
        self.config = config
        self.sampler = sampler
        self.record = record  # False: record no events, only the outcome
        self.events: list[tuple] = []  # (time, kind, actor, details) rows
        self.heap: list[tuple] = []
        self.seq = 0
        self.clock = 0
        self.tokens = 0  # of the nominal instances, of the recovery's once it starts
        # The run's tables, which ``fork`` copies: join arrivals, waiting
        # receives and unread messages.
        self.arrivals: dict[_Step, int] = {}  # join record -> tokens arrived
        self.waiting: set[tuple[str, str]] = set()  # (key, receive)
        self.mailbox: dict[tuple[str, str], int] = {}  # (receiver, channel) -> unread
        self.outcome: Outcome | None = None
        self.pops = -1  # events popped; -1 until start() has run
        self.branches: _Branches | None = None  # set only while enumerating

        # The one gate of a run, in this order: blocking findings, then a
        # directly built model's structure, then the configuration.
        self.plan = plan = _plan(model)
        blocking = blocking_violations(plan.findings, config.scenario or "")
        if blocking:
            raise ModelViolationsError(blocking)
        if plan.malformed is not None:
            raise SimulationError(plan.malformed)
        self.focus: _Chain | None = None  # the scenario chain's record
        self.candidates: tuple[_Detection, ...] = ()  # its enabled detections' records
        activation = None
        if config.scenario is not None:
            self.focus = plan.chains.get(config.scenario)
            if self.focus is None:
                raise InvalidConfigError(f"unknown scenario chain {config.scenario!r}")
            chain, activation = self.focus.chain, self.focus.activation
            enabled = config.enabled_detectors
            if enabled is None:
                enabled = frozenset(chain.detectors)
            extra = enabled - set(chain.detectors)
            if extra:
                raise InvalidConfigError(
                    f"enabled detectors {sorted(extra)} are not detectors of "
                    f"chain {chain.id!r}"
                )
            if activation is None:
                raise InvalidConfigError(
                    f"chain {chain.id!r} has no activation specification"
                )
            trigger = activation.trigger
            if isinstance(trigger, AtTime) and trigger.time > config.horizon:
                raise InvalidConfigError(
                    f"activation time {trigger.time} lies beyond the "
                    f"horizon {config.horizon}"
                )
            self.candidates = tuple(
                record for record in self.focus.detections if record.spec.detector in enabled
            )
        for key in config.guard_inputs:
            if key not in plan.decisions:
                raise InvalidConfigError(f"guard input {key!r} names no decision node")
        # An activation waits for a nominal start to trigger it; at-time
        # triggers are scheduled by start() instead.  Its inject event is
        # pushed at most once, clearing ``pending`` when it is.
        self.pending = activation is not None and not isinstance(activation.trigger, AtTime)
        self.detected: _Detection | None = None  # the race winner's record
        self.recovery_started_at: int | None = None

    # -- low-level plumbing

    def push(self, time: int, actor: str, rank: int, payload: tuple) -> None:
        heapq.heappush(self.heap, (time, actor, rank, self.seq, payload))
        self.seq += 1

    # -- token movement

    def start_instance(
        self, key: str, owner: str, graph_id: str, recovery: str | None, time: int
    ) -> None:
        graph = self.model.processes[graph_id]
        table = self.plan.instances.get(key)
        if table is None:
            table = _StepTable(graph, key, owner, recovery, self.model.connections)
            # A table another thread stored since ``get`` wins, as records do.
            table = self.plan.instances.setdefault(key, table)
        self.tokens += 1
        self.enter_node(table[graph.entry], time)

    def enter_node(self, step: _Step, time: int) -> None:
        kind = step.kind
        if kind is _JOIN:
            arrived = self.arrivals.get(step, 0) + 1
            self.arrivals[step] = arrived
            if arrived < step.in_degree:
                self.tokens -= 1
                return
        if step.recovery is None:
            if self.record:
                self.events.append((time, "activity-start", step.owner, step.details))
            if self.pending:
                self.on_nominal_start(step, time)
        if kind is _RECEIVE:
            box = (step.owner, step.activity.channel)
            if not self.mailbox.get(box):
                self.waiting.add((step.key, step.activity.id))
                return
            self.mailbox[box] -= 1
        heapq.heappush(self.heap, (time + step.ticks, step.owner, _R_COMPLETE, self.seq, step))
        self.seq += 1

    def complete_node(self, step: _Step, time: int) -> None:
        kind = step.kind
        if self.record:
            if kind is _TIMER:
                self.events.append((time, "timer-expired", step.owner, step.timer))
            event = "activity-end" if step.recovery is None else "recovery-step"
            self.events.append((time, event, step.owner, step.details))
        if kind is _SEND:
            self.send_message(step, time)

        successors = step.successors
        if not successors:
            self.tokens -= 1
            if step.recovery is not None:
                self.on_recovery_exit(step, time)
            return
        table = self.plan.instances[step.key]
        if kind is _DECISION:
            self.enter_node(table[self.pick_branch(step, successors)], time)
            return
        if kind is _FORK:
            self.tokens += len(successors) - 1
        for target in successors:
            self.enter_node(table[target], time)

    def pick_branch(self, step: _Step, out) -> str:
        node_id = step.activity.id
        chosen = self.config.guard_inputs.get(node_id)
        default = None
        for edge in out:
            if edge.guard is None:
                default = edge.dst
            elif chosen is not None and edge.guard == chosen:
                return edge.dst
        if default is None:
            labels = sorted(e.guard for e in out if e.guard is not None)
            raise InvalidConfigError(
                f"decision {node_id!r} in graph {step.details['graph']!r} has no default "
                f"branch and no guard input matched; valid labels: {labels}"
            )
        return default

    def send_message(self, step: _Step, time: int) -> None:
        link, receiver = step.link, step.receiver
        if self.record:
            self.events.append((time, "message-sent", step.owner, step.sent))
        if not _draw(self.sampler, link.reliability):
            if self.record:
                self.events.append((time, "message-lost", step.owner, step.sent))
            return
        self.push(
            time + link.latency, receiver, _R_DELIVER, (receiver, link.id, step.delivered)
        )

    def deliver_message(
        self, receiver: str, channel: str, details: _Details, time: int
    ) -> None:
        if self.record:
            self.events.append((time, "message-delivered", receiver, details))
        waiting = self.waiting
        for pair in self.plan.receivers.get((receiver, channel), ()):
            key, node_id = pair
            if pair in waiting:
                waiting.remove(pair)
                step = self.plan.instances[key][node_id]
                self.push(time + step.ticks, receiver, _R_COMPLETE, step)
                return
        box = (receiver, channel)
        self.mailbox[box] = self.mailbox.get(box, 0) + 1

    # -- fault injection and detection

    def on_nominal_start(self, step: _Step, time: int) -> None:
        """Schedule the pending activation if this nominal start triggers it."""
        activation = self.focus.activation
        origin = activation.origin_constituent
        if step.owner != origin:
            return
        trigger = activation.trigger
        node_id = step.activity.id
        if isinstance(trigger, OnEntry):
            if node_id == trigger.activity:
                self.push(time, origin, _R_INJECT, ())
                self.pending = False  # reserved; the event does the work
        elif isinstance(trigger, Probabilistic):
            if node_id in activation.region and _draw(self.sampler, trigger.probability):
                self.push(time, origin, _R_INJECT, ())
                self.pending = False

    def inject_fault(self, time: int) -> None:
        origin = self.focus.activation.origin_constituent
        if self.record:
            self.events.append((time, "fault-activated", origin, self.focus.activated))
        key = f"nominal:{origin}"  # suspended: drop its completions and receives
        self.heap = [e for e in self.heap if e[2] != _R_COMPLETE or e[4].key != key]
        heapq.heapify(self.heap)
        self.waiting = {pair for pair in self.waiting if pair[0] != key}
        self.push(time + 1, origin, _R_ERROR, ())

    def raise_error(self, time: int) -> None:
        """The detection race: the earliest firing enabled detection wins,
        a tie going to the lower spec id, and one firing after the horizon
        never wins.  Each third-party report draws once, in spec-id order,
        whether or not it would win."""
        if self.record:
            focus = self.focus
            self.events.append((time, "error-raised", focus.chain.origin, focus.raised))
        if not self.config.recovery_enabled:
            return
        winner, fire = None, self.config.horizon + 1
        for record in self.candidates:  # in spec-id order
            cond = record.spec.condition
            if isinstance(cond, ThirdPartyReport) and not _draw(self.sampler, cond.probability):
                continue
            at = time + (cond.bound if isinstance(cond, Timeout) else cond.delay)
            if at < fire:
                winner, fire = record, at
        if winner is not None:
            self.detected = winner
            self.push(fire, winner.spec.detector, _R_DETECT, ())

    def on_detect(self, time: int) -> None:
        spec, expired, detected, _ = self.detected
        if self.record:
            if expired is not None:
                self.events.append((time, "timer-expired", spec.detector, expired))
            self.events.append((time, "error-detected", spec.detector, detected))
        self.push(time + 1, spec.detector, _R_RECOVERY_START, ())

    def on_recovery_start(self, time: int) -> None:
        spec, _, detected, _ = self.detected
        recovery = self.model.recoveries[spec.recovery]
        self.recovery_started_at = time
        if self.record:
            self.events.append((time, "recovery-started", spec.detector, detected))
        # One recovery starts per run, so it suspends every instance so far.
        self.heap = [e for e in self.heap if e[2] != _R_COMPLETE]
        heapq.heapify(self.heap)
        self.waiting.clear()
        self.tokens = 0
        for cs_id, graph_id in recovery.graphs.items():
            key = f"recovery:{recovery.id}:{cs_id}"
            self.start_instance(key, cs_id, graph_id, recovery.id, time)
        self.check_recovery_done(time)

    def on_recovery_exit(self, step: _Step, time: int) -> None:
        node_id = step.activity.id
        if node_id in self.model.recoveries[step.recovery].abort_exits:
            self.observe_failure(time, aborted_by=node_id)
            return
        self.check_recovery_done(time)

    def check_recovery_done(self, time: int) -> None:
        """Schedule finalize once the recovery's instances hold no token,
        which happens at most once: no recovery completion is queued then."""
        if self.tokens == 0:
            when = max(time, self.recovery_started_at + 1)
            self.push(when, self.detected.spec.detector, _R_FINALIZE, ())

    def on_finalize(self, time: int) -> None:
        spec, _, _, complete = self.detected
        if self.record:
            self.events.append((time, "recovery-complete", spec.detector, complete))
        self.outcome = Outcome("recovered", by=spec.detector, recovery=spec.recovery)

    def observe_failure(self, time: int, aborted_by: str | None = None) -> None:
        if self.record:
            details = self.focus.failed[aborted_by]
            self.events.append((time, "failure-observed", self.focus.chain.origin, details))
        self.outcome = Outcome("failed-at-boundary")

    # -- main loop

    def start(self) -> None:
        """Enter every nominal graph at tick 0; counts as event 0."""
        self.pops = 0
        if self.branches is not None:
            self.branches.start(self)
        for cs_id, cs in self.model.constituents.items():
            self.start_instance(f"nominal:{cs_id}", cs_id, cs.nominal_process, None, 0)
        activation = self.focus.activation if self.focus is not None else None
        if activation is not None and isinstance(activation.trigger, AtTime):
            self.push(activation.trigger.time, activation.origin_constituent, _R_INJECT, ())

    def loop(self, stop: int = -1) -> None:
        """Process events until an outcome is set, the queue drains, or
        ``stop`` events have been popped."""
        branches = self.branches
        while self.heap and self.outcome is None and self.pops != stop:
            self.pops += 1
            entry = heapq.heappop(self.heap)
            time, actor, rank, seq, payload = entry
            if time > self.config.horizon:
                self.outcome = Outcome("horizon-exhausted")
                break
            self.clock = time
            if rank == _R_COMPLETE:
                if branches is not None:
                    branches.complete(self, entry, payload)
                self.complete_node(payload, time)
            elif rank == _R_DELIVER:
                receiver, channel, details = payload
                self.deliver_message(receiver, channel, details, time)
            elif rank == _R_INJECT:
                self.inject_fault(time)
            elif rank == _R_ERROR:
                if branches is not None:
                    branches.raise_error(self, entry)
                self.raise_error(time)
            elif rank == _R_DETECT:
                self.on_detect(time)
            elif rank == _R_RECOVERY_START:
                self.on_recovery_start(time)
            else:  # _R_FINALIZE
                self.on_finalize(time)

    def finish(self) -> SimTrace:
        """The trace of a drained or decided run, measured if it recorded."""
        if self.outcome is None:
            self.finish_at_quiescence()
        rows = tuple(self.events)
        measured = _measure(rows, self.plan.metrics) if self.record else {}
        return _trace(self.config, rows, measured, self.outcome)

    def run(self) -> SimTrace:
        self.start()
        self.loop()
        return self.finish()

    def fork(self, sampler) -> _Engine:
        """An independent copy of this engine's state drawing from ``sampler``.

        It copies the run's tables outright: the event queue, join
        arrivals, waiting receives and mailbox, and any recorded events.
        The model, its run plan and config are shared.
        """
        twin = _Engine.__new__(_Engine)
        twin.__dict__.update(self.__dict__)
        twin.sampler = sampler
        if self.record:
            twin.events = self.events.copy()
        twin.heap = self.heap.copy()
        twin.arrivals = self.arrivals.copy()
        twin.waiting = self.waiting.copy()
        twin.mailbox = self.mailbox.copy()
        return twin

    def finish_at_quiescence(self) -> None:
        if self.focus is None:
            # With no chain, no recovery starts: every token is nominal.
            self.outcome = Outcome("horizon-exhausted" if self.tokens else "nominal")
            return
        if self.pending:
            self.outcome = Outcome("not-activated")
            return
        # Undetected error, disabled recovery, or a recovery that stalled:
        # the failure reaches the boundary when no progress remains.
        self.observe_failure(self.clock)


# ---------------------------------------------------------------------------
# Public operations


class _Chain(NamedTuple):
    """One chain, its activation and detections, and its events' details."""

    chain: ThreatChain
    activation: ActivationSpec | None  # activation_for(chain)
    detections: tuple[_Detection, ...]  # the records of detections_for(chain)
    activated: _Details  # fault-activated
    raised: _Details  # error-raised
    failed: Mapping[str | None, _Details]  # aborting recovery exit or None -> failure-observed


class _Detection(NamedTuple):
    """One detection spec and its events' details."""

    spec: DetectionSpec
    expired: _Details | None  # a Timeout's timer-expired
    detected: _Details  # error-detected and recovery-started
    complete: _Details  # recovery-complete


def _chain_record(model: SosModel, chain) -> _Chain:
    specs = model.detections_for(chain.id)
    fault = model.threat_nodes.get(chain.fault)
    failure = model.threat_nodes.get(chain.failure)
    observed = {
        "chain": chain.id,
        "failure": chain.failure,
        "description": failure.description if failure else "",
        "observation": chain.failure_observation.value,
    }
    failed = {None: _details(observed)}
    for spec in specs:
        recovery = model.recoveries.get(spec.recovery)
        for exit_id in sorted(recovery.abort_exits) if recovery else ():
            if exit_id not in failed:
                failed[exit_id] = _details({**observed, "aborted_by": exit_id})
    return _Chain(
        chain,
        model.activation_for(chain.id),
        tuple(_detection_record(spec) for spec in specs),
        _details(
            {
                "chain": chain.id,
                "fault": chain.fault,
                "description": fault.description if fault else "",
            }
        ),
        _details({"chain": chain.id, "error": chain.error}),
        failed,
    )


def _detection_record(spec: DetectionSpec) -> _Detection:
    cond = spec.condition
    expired = None
    if isinstance(cond, Timeout):
        expired = _details({"detection": spec.id, "watched": cond.watched, "bound": cond.bound})
    return _Detection(
        spec,
        expired,
        _details({"chain": spec.threat, "detection": spec.id, "recovery": spec.recovery}),
        _details({"chain": spec.threat, "recovery": spec.recovery}),
    )


class _Plan(NamedTuple):
    """What every run of one model reads, kept on the model.

    Built once per model object, so a ``dataclasses.replace``d model gets
    its own.  It holds the checker's findings, one record per chain with
    the records of its detection specs, the receive nodes each
    constituent may wait on per channel, and the step table of each
    instance a run has started, under the instance's key:
    ``nominal:<constituent>`` or ``recovery:<recovery>:<constituent>``.
    A run adds the table of an instance it starts first, and a table
    gains a node's record when a run first enters the node; no record
    changes after.  A fork shares the plan and copies the run's tables,
    so a record built in one enumeration branch serves every other branch
    and every later run.  Each record carries the shared details of
    its trace events.  Since the plan is built before the checker's
    findings can refuse a run, no record indexes a reference the model
    may leave dangling.  ``malformed`` says why a model that neither
    ``build_model`` nor ``parse`` made cannot run, or is None.
    """

    findings: tuple[Finding, ...]
    malformed: str | None
    decisions: frozenset[str]
    chains: Mapping[str, _Chain]
    # (receiver, channel) -> (instance key, receive id) pairs, keys sorted
    receivers: Mapping[tuple[str, str], tuple[tuple[str, str], ...]]
    metrics: _Metrics
    instances: dict[str, _StepTable]  # instance key -> its step table, made on first start


def _plan(model: SosModel) -> _Plan:
    """The model's run plan, built on first use and kept on the model."""
    plan = model._plan
    if plan is None:
        plan = _Plan(
            findings=tuple(check(model)),
            malformed=None if model._checked else _malformed(model),
            decisions=frozenset(
                node_id
                for graph in model.processes.values()
                for node_id, node in graph.nodes.items()
                if node.kind is ActivityKind.DECISION
            ),
            chains={c.id: _chain_record(model, c) for c in model.chains.values()},
            receivers=_receivers(model),
            metrics=_prepare(model.metrics.values()),
            instances={},
        )
        object.__setattr__(model, "_plan", plan)
    return plan


def _receivers(model: SosModel) -> dict[tuple[str, str], tuple[tuple[str, str], ...]]:
    """Each receive node of every instance a constituent may start, under
    (constituent, channel): instance keys in order, then receive ids in
    node order.  A dangling graph reference lists nothing."""
    instances = [
        (f"nominal:{cs_id}", cs_id, cs.nominal_process)
        for cs_id, cs in model.constituents.items()
    ]
    for recovery in model.recoveries.values():
        for cs_id, graph_id in recovery.graphs.items():
            instances.append((f"recovery:{recovery.id}:{cs_id}", cs_id, graph_id))
    index: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for key, cs_id, graph_id in sorted(instances):
        graph = model.processes.get(graph_id)
        for node_id, node in graph.nodes.items() if graph is not None else ():
            if node.kind is ActivityKind.RECEIVE:
                index.setdefault((cs_id, node.channel), []).append((key, node_id))
    return {box: tuple(waiting) for box, waiting in index.items()}


def _malformed(model: SosModel) -> str | None:
    """The first defect that would stop or misdirect a run and that
    ``build_model`` refuses: a graph it rejects, a constituent's nominal
    process or a recovery graph that names no graph, a send or receive of
    a nominal process over a channel that names no connection, or a send
    or receive of a graph a run may start over a connection whose
    endpoints exclude the constituent running it.  (R6 already blocks
    every scenario that could start a recovery graph with a channel that
    names no connection.)"""
    try:
        for graph in model.processes.values():
            try:
                _validate_graph(graph)
            except RecursionError:
                # Only the last rule, the zero-time cycle search, recurses,
                # so the graph keeps every other rule; it runs as before.
                pass
        # Each graph a run may start: its runner, and what names the graph.
        starts = [(cs.id, cs.nominal_process, None) for cs in model.constituents.values()]
        starts.extend(
            (cs_id, graph_id, recovery.id)
            for recovery in model.recoveries.values()
            for cs_id, graph_id in recovery.graphs.items()
        )
        for runner, graph_id, recovery in starts:
            graph = model.processes.get(graph_id)
            if graph is None:
                context = f"recovery {recovery!r}" if recovery else f"constituent {runner!r}"
                raise DanglingReferenceError("activity graph", graph_id, context)
            for node in graph.nodes.values():
                if node.channel is None:
                    continue
                conn = model.connections.get(node.channel)
                if conn is None:
                    if not recovery:
                        context = f"activity {node.id!r} in {graph.id!r}"
                        raise DanglingReferenceError("connection", node.channel, context)
                elif runner not in conn.endpoints():
                    detail = (f"activity {node.id!r} uses channel {conn.id!r} "
                              f"whose endpoints exclude owner {runner!r}")
                    raise GraphStructureError(graph.id, detail)
    except FmafError as error:
        return f"model is malformed: {error}"
    return None


def run(model: SosModel, config: SimConfig) -> SimTrace:
    """Simulate one configuration; pure in (model, config)."""
    return _Engine(model, config, RandomSampler(config.seed)).run()


def enumerate_outcomes(
    model: SosModel, config: SimConfig, bound: int = 12
) -> set[tuple[str | None, str]]:
    """Every reachable (detector, outcome) pair, by exhausting choices.

    Explores both answers of every Bernoulli choice the seeded run would
    sample, depth first and True first.  A branch runs until it pops an
    event that can draw: a send over a lossy link, a nominal start that
    may trigger a ``Probabilistic`` activation, or an error raised into a
    race with third-party reports.  It forks once there, keeping the copy
    as a snapshot of the run just before that event, then handles the
    event and answers each new choice True.  Each new choice leaves a
    sibling on the stack: the snapshot, to handle the same event again
    with the choices made before it and then False.  So only a drawing
    event ever runs twice, and no branch is thrown away.  Branches record
    no trace events and compute no metrics, only the outcome, and a fork
    copies the run's tables.  At most 4096 branches (choice prefixes) are explored,
    and any activity graph larger than ``bound`` nodes is rejected.
    """
    for graph in model.processes.values():
        if len(graph.nodes) > bound:
            raise BoundExceededError(
                f"graph {graph.id!r} has {len(graph.nodes)} activities; "
                f"bound is {bound}"
            )
    outcomes: set[tuple[str | None, str]] = set()
    engine = _Engine(model, config, None, record=False)
    branches = engine.branches = engine.sampler = _Branches(engine)
    while engine is not None:
        if engine.pops < 0:
            engine.start()
        engine.loop()
        outcomes.add(summarize(engine.finish()))
        engine = branches.next()
    return outcomes


_MAX_BRANCHES = 4096


class _Snapshot:
    """An engine stopped just before a drawing event, never advanced
    itself, and the number of its siblings waiting on the stack."""

    __slots__ = ("engine", "siblings")

    def __init__(self, engine: _Engine) -> None:
        self.engine = engine
        self.siblings = 0


class _Branches:
    """The choice tree of one enumeration, walked depth first.

    The engine of every branch calls the draw marks (``start``,
    ``complete``, ``raise_error``) before it handles an event that may
    draw, and draws from this object as its sampler.  A draw replays the
    choice its branch was started with, or else answers True and leaves
    the False sibling on the stack.  Branches are counted as the choice
    prefixes a replay from tick 0 would run, in the same order, so the
    4096-branch cap falls on the same branch.
    """

    def __init__(self, root: _Engine) -> None:
        self.stack: list[tuple[_Snapshot, tuple[bool, ...]]] = []
        self.explored = 1  # the root branch
        # The drawing event in progress: the branch handling it, its pop
        # count there, the snapshot taken just before it (None when no
        # snapshot is pending), the choices it replays and those it made.
        self.engine = root
        self.event = -2
        self.snap: _Snapshot | None = None
        self.script: tuple[bool, ...] = ()
        self.made: list[bool] = []
        # Only the origin's nominal instance starts nodes that may trigger
        # a Probabilistic activation, and only while it is pending.
        self.trigger_key = None
        self.region: frozenset[str] = frozenset()
        self.start_draws = 0
        activation = root.focus.activation if root.focus is not None else None
        if activation is not None and isinstance(activation.trigger, Probabilistic):
            if 0.0 < activation.trigger.probability < 1.0:
                origin = activation.origin_constituent
                self.trigger_key = f"nominal:{origin}"
                self.region = activation.region
                nominal = root.model.constituents[origin].nominal_process
                self.start_draws = int(root.model.processes[nominal].entry in self.region)
        self.race_draws = 0
        if root.config.recovery_enabled:
            self.race_draws = sum(
                isinstance(record.spec.condition, ThirdPartyReport)
                and 0.0 < record.spec.condition.probability < 1.0
                for record in root.candidates
            )

    # -- draw marks: each names the most draws its event can make

    def start(self, engine: _Engine) -> None:
        if self.start_draws:
            self.fork_before(engine, self.start_draws, None)

    def complete(self, engine: _Engine, entry: tuple, step: _Step) -> None:
        draws = step.draw is not None  # a send over a lossy link
        if step.key == self.trigger_key and engine.pending:
            kind, successors, region = step.kind, step.successors, self.region
            if kind is _DECISION:
                draws += any(edge.dst in region for edge in successors)
            else:
                draws += sum(target in region for target in successors)
        if draws:
            self.fork_before(engine, draws, entry)

    def raise_error(self, engine: _Engine, entry: tuple) -> None:
        if self.race_draws:
            self.fork_before(engine, self.race_draws, entry)

    # -- forking and drawing

    def fork_before(self, engine: _Engine, draws: int, entry: tuple | None) -> None:
        """Keep a snapshot of ``engine`` just before the popped ``entry``
        (None: before ``start()``) when its up to ``draws`` draws may need one."""
        if engine is not self.engine or engine.pops != self.event:
            # A first handling, not a sibling handling its event again.
            self.engine, self.event, self.snap, self.script = engine, engine.pops, None, ()
        self.made = []
        if self.snap is None and draws > len(self.script):
            twin = engine.fork(self)
            if entry is not None:
                heapq.heappush(twin.heap, entry)
            twin.pops -= 1
            self.snap = _Snapshot(twin)

    def bernoulli(self, probability: float) -> bool:
        made, script, snap = self.made, self.script, self.snap
        replay = len(made) < len(script)
        if self.engine.pops != self.event or not (replay or snap):
            raise RuntimeError(
                f"internal error: event {self.engine.pops} drew a choice with "
                "no snapshot pending; its draw mark is missing"
            )
        if replay:
            value = script[len(made)]
        else:
            self._count()
            snap.siblings += 1
            self.stack.append((snap, (*made, False)))
            value = True
        made.append(value)
        return value

    def next(self) -> _Engine | None:
        """The engine of the next sibling, about to handle its snapshot's
        event again, or None when the tree is exhausted."""
        if not self.stack:
            self.engine = None  # no engine-driver cycle outlives the enumeration
            return None
        snap, script = self.stack.pop()
        self._count()
        snap.siblings -= 1
        if snap.siblings:
            engine = snap.engine.fork(self)
        else:  # the last sibling takes the snapshot itself
            engine, snap = snap.engine, None
        self.engine, self.event, self.snap, self.script = engine, engine.pops + 1, snap, script
        return engine

    def _count(self) -> None:
        self.explored += 1
        if self.explored > _MAX_BRANCHES:
            raise BoundExceededError(f"choice space exceeds {_MAX_BRANCHES} branches")


class _Metrics(NamedTuple):
    """Metric specs with their event patterns split, ready for one scan."""

    error: str | None  # the first unknown pattern's message, in spec order
    # event kind -> (qualifier, slot, whether the slot counts or takes a first time)
    watch: Mapping[str, tuple[tuple[str | None, int, bool], ...]]
    initial: tuple[int | None, ...]  # each slot before the scan: None, or 0 if it counts
    results: tuple[tuple[str, int, int], ...]  # (metric id, slot a, slot b or -1 for a count)


def _prepare(specs: Iterable[MetricSpec]) -> _Metrics:
    slots: dict[tuple[bool, str, str | None], int] = {}

    def slot(pattern: str, counts: bool) -> int:
        kind, qualifier = split_event_pattern(pattern)
        return slots.setdefault((counts, kind, qualifier), len(slots))

    results = []
    try:
        for spec in specs:
            if isinstance(spec.kind, ElapsedBetween):
                a, b = slot(spec.kind.a, False), slot(spec.kind.b, False)
                results.append((spec.id, a, b))
            elif isinstance(spec.kind, Count):
                results.append((spec.id, slot(spec.kind.pattern, True), -1))
    except DanglingReferenceError as e:
        return _Metrics(str(e), {}, (), ())
    watch: dict[str, list[tuple[str | None, int, bool]]] = {}
    for (counts, kind, qualifier), index in slots.items():
        watch.setdefault(kind, []).append((qualifier, index, counts))
    return _Metrics(
        None,
        {kind: tuple(hits) for kind, hits in watch.items()},
        tuple(0 if counts else None for counts, _, _ in slots),
        tuple(results),
    )


def _measure(rows: Iterable[tuple], metrics: _Metrics) -> dict[str, int | None]:
    """Every metric from one scan of the event ``rows``."""
    if metrics.error is not None:
        raise UnknownEventPatternError(metrics.error)
    found = list(metrics.initial)
    watch = metrics.watch
    for time, kind, actor, details in rows:
        hits = watch.get(kind)
        if hits is None:
            continue
        for qualifier, index, counts in hits:
            if not counts and found[index] is not None:
                continue
            if qualifier is not None and actor != qualifier:
                if type(details) is _Details:
                    strings = details.strings
                    if strings is None:
                        strings = details.strings = frozenset(
                            v for v in details.values() if isinstance(v, str)
                        )
                    if qualifier not in strings:
                        continue
                elif not any(
                    value == qualifier
                    for value in details.values()
                    if isinstance(value, str)
                ):
                    continue
            found[index] = found[index] + 1 if counts else time
    out: dict[str, int | None] = {}
    for metric_id, a, b in metrics.results:
        if b < 0:
            out[metric_id] = found[a]
        else:
            start, end = found[a], found[b]
            out[metric_id] = None if start is None or end is None else end - start
    return out


def compute_metrics(
    trace: SimTrace, specs: Iterable[MetricSpec]
) -> dict[str, int | None]:
    """Evaluate metrics over a finished trace.

    Elapsed metrics whose endpoints never occur yield None, never zero.
    """
    return _measure(_event_rows(trace), _prepare(specs))


# The trace writer builds each line itself; this encoder, the same one
# ``json.dumps(..., sort_keys=True)`` would build per call, takes every
# value that is not a str, an exact int or None.
_ENCODER = json.JSONEncoder(sort_keys=True)
_quote = json.encoder.encode_basestring_ascii


def _json(value: object) -> str:
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    return _ENCODER.encode(value)


def _object_text(details: Mapping[str, object]) -> str:
    body = ", ".join(
        f"{_quote(key)}: {_json(details[key])}" for key in sorted(details)
    )
    return f"{{{body}}}"


def _body(details: Mapping[str, object]) -> str:
    if type(details) is _Details:
        text = details.text
        if text is None:
            text = details.text = _object_text(details)
        return text
    return _object_text(details)


def _event_lines(rows: Iterable[tuple]) -> list[str]:
    lines = []
    # actor -> the line's text up to its details; kind -> the text from
    # the details to the time.  Actors and kinds come from small
    # per-model vocabularies, so each is quoted once per call.
    heads: dict[str, str] = {}
    tails: dict[str, str] = {}
    for time, kind, actor, details in rows:
        if type(time) is int and type(actor) is str and type(kind) is str:
            head = heads.get(actor)
            if head is None:
                head = heads[actor] = f'{{"actor": {_quote(actor)}, "details": '
            tail = tails.get(kind)
            if tail is None:
                tail = tails[kind] = f', "kind": {_quote(kind)}, "time": '
            body = details.text if type(details) is _Details else None
            if body is None:
                body = _body(details)
            lines.append(f"{head}{body}{tail}{time}}}")
        else:
            # A replaced event may hold a bool, a float or an unhashable
            # value here: encode each field as json.dumps would.
            lines.append(
                f'{{"actor": {_json(actor)}, "details": {_body(details)}, '
                f'"kind": {_json(kind)}, "time": {_json(time)}}}'
            )
    return lines


def format_trace(trace: SimTrace) -> str:
    """One JSON record per event plus a trailing summary record.

    Every line is byte for byte what ``json.dumps(record, sort_keys=True)``
    gives: keys sorted at every level, ``", "``/``": "`` separators and
    non-ASCII escaped.
    """
    rows = _event_rows(trace)
    lines = _event_lines(rows)
    outcome, metrics = trace.outcome, dict(trace.metrics)
    if all(type(key) is str for key in metrics):
        measured = _object_text(metrics)
    else:  # json.dumps turns other keys into strings its own way
        measured = _ENCODER.encode(metrics)
    lines.append(
        f'{{"summary": {{"by": {_json(outcome.by)}, "events": {len(rows)}, '
        f'"metrics": {measured}, "outcome": {_json(outcome.kind)}, '
        f'"recovery": {_json(outcome.recovery)}}}}}'
    )
    return "\n".join(lines) + "\n"


def write_trace(trace: SimTrace, path: str | Path) -> None:
    Path(path).write_text(format_trace(trace), encoding="utf-8")
