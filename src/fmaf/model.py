"""Core model types for system-of-systems fault tolerance models.

A model names the constituent systems and environment entities of an SoS,
the connections between them, the threat vocabulary (faults, errors,
failures) with fault-error-failure chains, the activity graphs describing
nominal and recovery behaviour, and the activation/detection/recovery
specifications that drive fault injection.

Constructors deliberately permit taxonomy-violating content (for example an
environment entity as a chain origin); the consistency checker reports such
content instead of the type system rejecting it. ``build_model`` enforces
only structural validity: unique identifiers, resolvable references and
well-formed activity graphs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence, Union


class FmafError(Exception):
    """Base class for all toolkit errors."""


class DuplicateIdError(FmafError):
    def __init__(self, category: str, ident: str, detail: str = "") -> None:
        self.category = category
        self.ident = ident
        msg = f"duplicate {category} id {ident!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DanglingReferenceError(FmafError):
    def __init__(self, category: str, ref: str, context: str) -> None:
        self.category = category
        self.ref = ref
        self.context = context
        super().__init__(f"{context} references unknown {category} {ref!r}")


class KindMismatchError(FmafError):
    pass


class GraphStructureError(FmafError):
    def __init__(self, graph_id: str, detail: str) -> None:
        self.graph_id = graph_id
        super().__init__(f"activity graph {graph_id!r}: {detail}")


class DuplicateSuffixError(FmafError):
    pass


class ThreatKind(str, Enum):
    FAULT = "fault"
    ERROR = "error"
    FAILURE = "failure"


class FailureObservation(str, Enum):
    SOS_BOUNDARY = "sos-boundary"
    INTERNAL = "internal"


class ConnectionKind(str, Enum):
    NOMINAL = "nominal"
    RECOVERY_ONLY = "recovery-only"


class ActivityKind(str, Enum):
    ACTION = "action"
    SEND = "send"
    RECEIVE = "receive"
    FORK = "fork"
    JOIN = "join"
    DECISION = "decision"
    TIMER = "timer"


class DetectionStyle(str, Enum):
    SEPARATE_REGION = "separate-region"
    SHARED_REGION = "shared-region"


#: Every event kind a simulation trace may contain.  Metric event patterns
#: are validated against this vocabulary at model build time.
EVENT_KINDS: tuple[str, ...] = (
    "activity-start",
    "activity-end",
    "message-sent",
    "message-delivered",
    "message-lost",
    "fault-activated",
    "error-raised",
    "error-detected",
    "recovery-started",
    "recovery-step",
    "recovery-complete",
    "failure-observed",
    "timer-expired",
)

#: Every viewpoint ``viewgen.project`` can render, in the order the CLI
#: lists them.  Defined here so that the CLI's ``--view`` choices need
#: no import of ``viewgen``; ``viewgen`` re-exports it.
VIEW_KINDS: tuple[str, ...] = (
    "tcv",
    "ftcv",
    "fts",
    "fav",
    "recovery",
    "erroneous-process",
    "erroneous-scenario",
    "fef",
)

# ASCII only, spelled out: ``\w`` and ``\d`` would admit non-ASCII letters
# and digits.  Matched with ``fullmatch``, since ``$`` also matches before
# a trailing newline.  The model language's lexer builds its identifier
# words from these two.
_ID_CHAR = "[A-Za-z0-9_.]"
_IDENTIFIER = re.compile(f"[A-Za-z]{_ID_CHAR}*")
_match_identifier = _IDENTIFIER.fullmatch


def is_identifier(text: str) -> bool:
    return _match_identifier(text) is not None


def _require_identifier(ident: str, what: str) -> None:
    if _match_identifier(ident) is None:
        raise FmafError(f"{what} id {ident!r} is not a valid identifier")


@dataclass(frozen=True, slots=True)
class ConstituentSystem:
    """A constituent system, its nominal process and its interfaces."""

    id: str
    name: str
    nominal_process: str
    provided_interfaces: frozenset[str] = frozenset()
    required_interfaces: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        _require_identifier(self.id, "constituent")
        for interface in sorted(self.provided_interfaces | self.required_interfaces):
            _require_identifier(interface, "interface")


@dataclass(frozen=True, slots=True)
class EnvironmentEntity:
    """An actor outside the SoS and the connections it uses."""

    id: str
    name: str
    connections_used: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        _require_identifier(self.id, "environment entity")


@dataclass(frozen=True, slots=True)
class Connection:
    """A bidirectional link between two elements.

    ``latency`` is the delivery delay in ticks and ``reliability`` the
    per-send probability that a message survives the link.
    """

    id: str
    interface_id: str
    provider: str
    consumer: str
    kind: ConnectionKind = ConnectionKind.NOMINAL
    latency: int = 1
    reliability: float = 1.0

    def __post_init__(self) -> None:
        _require_identifier(self.id, "connection")
        _require_identifier(self.interface_id, "interface")
        if self.provider == self.consumer:
            raise FmafError(f"connection {self.id!r}: provider equals consumer")
        if self.latency < 0:
            raise FmafError(f"connection {self.id!r}: negative latency")
        if not 0.0 <= self.reliability <= 1.0:
            raise FmafError(f"connection {self.id!r}: reliability outside [0, 1]")

    def endpoints(self) -> frozenset[str]:
        return frozenset((self.provider, self.consumer))


@dataclass(frozen=True, slots=True)
class ThreatNode:
    """One fault, error or failure of the threat vocabulary."""

    id: str
    kind: ThreatKind
    description: str
    category: str | None = None

    def __post_init__(self) -> None:
        _require_identifier(self.id, "threat node")
        if self.category is not None:
            _require_identifier(self.category, "category")


@dataclass(frozen=True, slots=True)
class ThreatChain:
    """One fault-error-failure causal chain through the SoS."""

    id: str
    fault: str
    error: str
    failure: str
    origin: str
    detectors: tuple[str, ...]
    failure_observation: FailureObservation = FailureObservation.SOS_BOUNDARY
    unrecoverable: bool = False

    def __post_init__(self) -> None:
        _require_identifier(self.id, "threat chain")
        if not self.detectors and not self.unrecoverable:
            raise FmafError(
                f"chain {self.id!r}: detectors empty but chain not marked unrecoverable"
            )
        if len(set(self.detectors)) != len(self.detectors):
            raise FmafError(f"chain {self.id!r}: duplicate detector entries")


@dataclass(frozen=True, slots=True)
class Activity:
    """One node of an activity graph."""

    id: str
    kind: ActivityKind
    name: str = ""
    duration: int = 0
    channel: str | None = None
    timer_bound: int | None = None

    def __post_init__(self) -> None:
        if _match_identifier(self.id) is None:
            raise FmafError(f"activity id {self.id!r} is not a valid identifier")
        if self.duration < 0:
            raise FmafError(f"activity {self.id!r}: negative duration")
        kind = self.kind
        if kind is ActivityKind.SEND or kind is ActivityKind.RECEIVE:
            if not self.channel:
                raise FmafError(f"activity {self.id!r}: {kind.value} requires a channel")
        elif self.channel is not None:
            raise FmafError(f"activity {self.id!r}: channel on non-messaging activity")
        if kind is ActivityKind.TIMER:
            if self.timer_bound is None or self.timer_bound < 0:
                raise FmafError(f"activity {self.id!r}: timer requires a non-negative bound")
        elif self.timer_bound is not None:
            raise FmafError(f"activity {self.id!r}: timer_bound on non-timer activity")

    def effective_duration(self) -> int:
        if self.kind is ActivityKind.TIMER:
            return self.timer_bound or 0
        return self.duration


@dataclass(frozen=True, slots=True)
class Edge:
    """A control-flow edge, taken when ``guard`` matches (or by default)."""

    src: str
    dst: str
    guard: str | None = None


@dataclass(frozen=True, slots=True)
class ActivityGraph:
    """A directed activity graph owned by one constituent.

    Activity ids are scoped to their graph; the graph is the namespace.
    Nodes are kept sorted by id, edges by (src, dst, guard) with a default
    edge before any guarded one, and ``exits`` as a frozenset.
    :func:`build_model` reports the first structural rule broken, and
    :func:`fmaf.dsl.parse` the first each graph breaks, checked in this order:

    * there is a node, each keyed by its own id; edge ends, the entry and
      the exits (in id order) are nodes; exits are exactly the nodes without
      out-edges;
    * the entry reaches every node, then every node reaches some exit;
    * node by node, in id order: forks have at least two unguarded
      out-edges; a decision has out-edges with mutually exclusive guard
      labels and at most one unguarded default; any other node has at most
      one (unguarded) out-edge; joins have at least two in-edges;
    * fork by fork, in id order: its immediate post-dominator is a join no
      other fork matches, of in-degree equal to the fork's out-degree;
      then every join is matched;
    * every cycle contains an activity that consumes time.
    """

    id: str
    owner: str
    nodes: Mapping[str, Activity]
    edges: tuple[Edge, ...]
    entry: str
    exits: frozenset[str]
    # Out-edges by source id and in-degrees by target id: rebuilt by every
    # construction (``replace`` included), invisible to equality and repr.
    _out: Mapping[str, tuple[Edge, ...]] = field(init=False, compare=False, repr=False)
    _in_degree: Mapping[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _require_identifier(self.id, "activity graph")
        # Canonical internal order: declaration order must never leak into
        # equality or serialized form.
        object.__setattr__(self, "nodes", {k: self.nodes[k] for k in sorted(self.nodes)})
        # A default edge sorts before every guarded one, ``when ""`` included.
        edges = tuple(
            sorted(self.edges, key=lambda e: (e.src, e.dst, e.guard is not None, e.guard or ""))
        )
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "exits", frozenset(self.exits))
        out: dict[str, list[Edge]] = {}
        in_degree: dict[str, int] = {}
        for edge in edges:
            out.setdefault(edge.src, []).append(edge)
            in_degree[edge.dst] = in_degree.get(edge.dst, 0) + 1
        object.__setattr__(self, "_out", {k: tuple(v) for k, v in out.items()})
        object.__setattr__(self, "_in_degree", in_degree)

    def out_edges(self, node_id: str) -> tuple[Edge, ...]:
        return self._out.get(node_id, ())

    def in_edges(self, node_id: str) -> tuple[Edge, ...]:
        return tuple(edge for edge in self.edges if edge.dst == node_id)


@dataclass(frozen=True, slots=True)
class AtTime:
    """Inject at a fixed tick, wherever execution happens to be."""

    time: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise FmafError("at-time trigger: negative tick")


@dataclass(frozen=True, slots=True)
class OnEntry:
    """Inject when the named activity is first entered."""

    activity: str


@dataclass(frozen=True, slots=True)
class Probabilistic:
    """Inject with probability p at each entry of a region activity."""

    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise FmafError("probabilistic trigger: probability outside [0, 1]")


Trigger = Union[AtTime, OnEntry, Probabilistic]


@dataclass(frozen=True, slots=True)
class ActivationSpec:
    """When and where the fault of chain ``threat`` is injected."""

    id: str
    threat: str
    origin_constituent: str
    region: frozenset[str]
    trigger: Trigger

    def __post_init__(self) -> None:
        _require_identifier(self.id, "activation")
        if not self.region:
            raise FmafError(f"activation {self.id!r}: empty region")


@dataclass(frozen=True, slots=True)
class SelfReport:
    """Detection by self-report, ``delay`` ticks after the error is raised."""

    delay: int

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise FmafError("self-report condition: negative delay")


@dataclass(frozen=True, slots=True)
class Timeout:
    """Detection by a timeout on ``watched``, ``bound`` ticks after the error."""

    bound: int
    watched: str

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise FmafError("timeout condition: negative bound")


@dataclass(frozen=True, slots=True)
class ThirdPartyReport:
    """A report ``delay`` ticks after the error, made with ``probability``."""

    probability: float
    delay: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise FmafError("third-party condition: probability outside [0, 1]")
        if self.delay < 0:
            raise FmafError("third-party condition: negative delay")


DetectionCondition = Union[SelfReport, Timeout, ThirdPartyReport]


@dataclass(frozen=True, slots=True)
class DetectionSpec:
    """Who detects the error of chain ``threat``, how, and which recovery follows."""

    id: str
    threat: str
    detector: str
    condition: DetectionCondition
    recovery: str
    style: DetectionStyle = DetectionStyle.SEPARATE_REGION

    def __post_init__(self) -> None:
        _require_identifier(self.id, "detection")


@dataclass(frozen=True, slots=True)
class RecoverySpec:
    """Per-constituent recovery graphs plus exit classification.

    Exits not listed in either set count as successful terminations.
    """

    id: str
    name: str
    graphs: Mapping[str, str]
    success_exits: frozenset[str] = frozenset()
    abort_exits: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        _require_identifier(self.id, "recovery")
        if not self.graphs:
            raise FmafError(f"recovery {self.id!r}: no graphs")
        object.__setattr__(
            self, "graphs", {k: self.graphs[k] for k in sorted(self.graphs)}
        )
        overlap = self.success_exits & self.abort_exits
        if overlap:
            raise FmafError(
                f"recovery {self.id!r}: exits both success and abort: {sorted(overlap)}"
            )


@dataclass(frozen=True, slots=True)
class ElapsedBetween:
    """time(first event matching b) - time(first event matching a)."""

    a: str
    b: str


@dataclass(frozen=True, slots=True)
class Count:
    """The number of events matching ``pattern``."""

    pattern: str


MetricKind = Union[ElapsedBetween, Count]


@dataclass(frozen=True, slots=True)
class MetricSpec:
    """A named measurement taken from every simulation trace."""

    id: str
    kind: MetricKind
    name: str = ""
    target: int | None = None

    def __post_init__(self) -> None:
        _require_identifier(self.id, "metric")


@dataclass(frozen=True)
class SosModel:
    """An immutable system-of-systems fault tolerance model.

    Every collection is kept in id order however the model was built:
    by :func:`fmaf.dsl.parse`, :func:`build_model`, ``SosModel(...)`` or
    ``dataclasses.replace``.  So equal models iterate alike, serialize to
    the same bytes and give equal traces for equal configurations.
    """

    name: str
    constituents: Mapping[str, ConstituentSystem] = field(default_factory=dict)
    environment: Mapping[str, EnvironmentEntity] = field(default_factory=dict)
    connections: Mapping[str, Connection] = field(default_factory=dict)
    threat_nodes: Mapping[str, ThreatNode] = field(default_factory=dict)
    chains: Mapping[str, ThreatChain] = field(default_factory=dict)
    processes: Mapping[str, ActivityGraph] = field(default_factory=dict)
    activations: Mapping[str, ActivationSpec] = field(default_factory=dict)
    detections: Mapping[str, DetectionSpec] = field(default_factory=dict)
    recoveries: Mapping[str, RecoverySpec] = field(default_factory=dict)
    metrics: Mapping[str, MetricSpec] = field(default_factory=dict)
    # Run plan the simulator builds on this model's first run and reuses,
    # and whether build_model or fmaf.dsl.parse, which refuse malformed
    # models, made this one: both dropped by ``dataclasses.replace``,
    # invisible to equality and repr.
    _plan: object = field(default=None, init=False, compare=False, repr=False)
    _checked: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in _COLLECTIONS:
            items = getattr(self, name)
            object.__setattr__(self, name, {k: items[k] for k in sorted(items)})

    def element(self, ident: str) -> ConstituentSystem | EnvironmentEntity | None:
        """A constituent or environment entity by id, if declared."""
        return self.constituents.get(ident) or self.environment.get(ident)

    def is_constituent(self, ident: str) -> bool:
        return ident in self.constituents

    def find_activity(self, activity_id: str) -> list[str]:
        """Ids of every graph declaring an activity with this id."""
        return [g.id for g in self.processes.values() if activity_id in g.nodes]

    def detections_for(self, chain_id: str) -> list[DetectionSpec]:
        return [d for d in self.detections.values() if d.threat == chain_id]

    def activation_for(self, chain_id: str) -> ActivationSpec | None:
        """The chain's first activation in id order, if it has one."""
        return next((a for a in self.activations.values() if a.threat == chain_id), None)


# The model's collections, each a mapping from id to object.
_COLLECTIONS = tuple(f.name for f in fields(SosModel) if f.init and f.name != "name")


def _by_id(category: str, items: Iterable) -> dict:
    """``items`` keyed by id; raises on the first id seen twice."""
    found = {}
    for item in items:
        if item.id in found:
            raise DuplicateIdError(category, item.id)
        found[item.id] = item
    return found


def _numbered(graph: ActivityGraph) -> tuple[dict[str, int], list[list[int]], list[list[int]]]:
    """Node numbers in canonical (id) order and, per number, successors and
    predecessors, one per edge in edge order; raises on a dangling edge end."""
    index = {node: i for i, node in enumerate(graph.nodes)}
    succ: list[list[int]] = [[] for _ in index]
    pred: list[list[int]] = [[] for _ in index]
    try:
        for edge in graph.edges:
            src = index[edge.src]
            dst = index[edge.dst]
            succ[src].append(dst)
            pred[dst].append(src)
    except KeyError as missing:
        end = missing.args[0]
        raise DanglingReferenceError("activity", end, f"edge in graph {graph.id!r}") from None
    return index, succ, pred


def _unreached(names: list[str], starts: list[int], step: list[list[int]]) -> list[str]:
    """The nodes, in canonical order, not reachable from ``starts`` along ``step``."""
    seen = bytearray(len(step))
    stack = list(starts)
    while stack:
        node = stack.pop()
        if not seen[node]:
            seen[node] = 1
            stack.extend(step[node])
    return [name for name, hit in zip(names, seen) if not hit] if 0 in seen else []


def _postdominators(succ: list[list[int]], pred: list[list[int]]) -> list[int]:
    """Immediate post-dominator of each node; -1 for none but the virtual sink
    (number ``len(succ)``) that every node without successors leads to.

    Cooper, Harvey & Kennedy, "A Simple, Fast Dominance Algorithm" (2001), on
    the reversed graph. ``rank`` is the postorder of a depth-first search from
    the sink, which ranks highest; ``-1`` in ``idom`` marks "not yet".
    """
    sink = len(succ)
    rank = [-1] * (sink + 1)
    order: list[int] = []
    seen = bytearray(sink)
    for root in range(sink):
        if succ[root]:
            continue
        seen[root] = 1
        stack = [(root, iter(pred[root]))]
        while stack:
            node, preds = stack[-1]
            for p in preds:
                if not seen[p]:
                    seen[p] = 1
                    stack.append((p, iter(pred[p])))
                    break
            else:
                stack.pop()
                rank[node] = len(order)
                order.append(node)
    rank[sink] = len(order)
    order.reverse()

    idom = [-1] * (sink + 1)
    idom[sink] = sink
    to_sink = [sink]
    changed = True
    while changed:
        changed = False
        for b in order:
            new = -1
            for p in succ[b] or to_sink:
                if idom[p] == -1:
                    continue
                if new == -1:
                    new = p
                    continue
                while p != new:
                    while rank[p] < rank[new]:
                        p = idom[p]
                    while rank[new] < rank[p]:
                        new = idom[new]
            if idom[b] != new:
                idom[b] = new
                changed = True
    return [-1 if d == sink else d for d in idom[:sink]]


def _immediate_postdominators(graph: ActivityGraph) -> dict[str, str | None]:
    """Immediate post-dominator by node id, or None; the exits must be the sinks."""
    _, succ, pred = _numbered(graph)
    names = list(graph.nodes)
    return {n: None if d < 0 else names[d] for n, d in zip(names, _postdominators(succ, pred))}


def _validate_graph(graph: ActivityGraph) -> None:
    """Raise for the first rule in the :class:`ActivityGraph` docstring broken."""
    gid = graph.id
    nodes = graph.nodes
    if not nodes:
        raise GraphStructureError(gid, "no activities")
    for node_id, activity in nodes.items():
        if node_id != activity.id:
            raise GraphStructureError(gid, f"node key {node_id!r} != activity id {activity.id!r}")
    index, succ, pred = _numbered(graph)
    if graph.entry not in index:
        raise DanglingReferenceError("activity", graph.entry, f"entry of graph {gid!r}")
    for ex in sorted(graph.exits):
        if ex not in index:
            raise DanglingReferenceError("activity", ex, f"exit of graph {gid!r}")

    names = list(nodes)
    sinks = [v for v, out in enumerate(succ) if not out]
    sink_ids = [names[v] for v in sinks]
    if set(sink_ids) != graph.exits:
        detail = f"exits {sorted(graph.exits)} must be exactly the sink nodes {sink_ids}"
        raise GraphStructureError(gid, detail)
    missing = _unreached(names, [index[graph.entry]], succ)
    if missing:
        raise GraphStructureError(gid, f"unreachable from entry: {missing}")
    stuck = _unreached(names, sinks, pred)
    if stuck:
        raise GraphStructureError(gid, f"cannot reach any exit: {stuck}")

    forks: list[int] = []
    joins: set[int] = set()
    for v, (node_id, activity, outs) in enumerate(zip(names, nodes.values(), succ)):
        kind = activity.kind
        if kind is ActivityKind.FORK:
            if len(outs) < 2:
                raise GraphStructureError(gid, f"fork {node_id!r} needs >= 2 out-edges")
            if any(e.guard for e in graph._out[node_id]):
                raise GraphStructureError(gid, f"fork {node_id!r} has guarded out-edges")
            forks.append(v)
        elif kind is ActivityKind.DECISION:
            guards = [e.guard for e in graph._out.get(node_id, ())]
            labelled = [g for g in guards if g is not None]
            if len(set(labelled)) != len(labelled):
                raise GraphStructureError(gid, f"decision {node_id!r} has duplicate guards")
            if guards.count(None) > 1:
                raise GraphStructureError(gid, f"decision {node_id!r} has multiple defaults")
            if not outs:
                raise GraphStructureError(gid, f"decision {node_id!r} has no out-edges")
        else:
            if len(outs) > 1:
                raise GraphStructureError(gid, f"{kind.value} {node_id!r} has multiple out-edges")
            if outs and graph._out[node_id][0].guard is not None:
                raise GraphStructureError(gid, f"guard on out-edge of non-decision {node_id!r}")
            if kind is ActivityKind.JOIN:
                if len(pred[v]) < 2:
                    raise GraphStructureError(gid, f"join {node_id!r} needs >= 2 in-edges")
                joins.add(v)

    # Fork/join well-nesting: the immediate post-dominator of a fork must be a
    # join claimed by exactly that fork, arity-matched.
    if forks or joins:
        ipdom = _postdominators(succ, pred)
        claimed: dict[int, int] = {}
        for fork in forks:
            match = ipdom[fork]
            if match not in joins:
                raise GraphStructureError(gid, f"fork {names[fork]!r} has no matching join")
            f, j = names[fork], names[match]
            if match in claimed:
                other = names[claimed[match]]
                raise GraphStructureError(gid, f"join {j!r} matches forks {other!r} and {f!r}")
            if len(pred[match]) != len(succ[fork]):
                detail = f"join {j!r} in-degree differs from fork {f!r} out-degree"
                raise GraphStructureError(gid, detail)
            claimed[match] = fork
        if len(claimed) < len(joins):
            unclaimed = [names[j] for j in sorted(joins.difference(claimed))]
            raise GraphStructureError(gid, f"join without matching fork: {unclaimed}")

    # Zero-time cycles would let simulated time stand still forever. The
    # depth-first search recurses once per zero-time node on its path.
    zero = [activity.effective_duration() == 0 for activity in nodes.values()]
    state = [0] * len(names)

    def visit(node: int) -> None:
        state[node] = 1
        for nxt in succ[node]:
            if zero[nxt]:
                if state[nxt] == 1:
                    raise GraphStructureError(gid, "cycle with no time-consuming activity")
                if state[nxt] == 0:
                    visit(nxt)
        state[node] = 2

    for v, instant in enumerate(zero):
        if instant and not state[v]:
            visit(v)


_PATTERN_CONTEXT = "metric event pattern"


def split_event_pattern(pattern: str) -> tuple[str, str | None]:
    """Split ``kind`` or ``kind:qualifier``; raises on unknown event kinds."""
    kind, _, qualifier = pattern.partition(":")
    if kind not in EVENT_KINDS:
        raise DanglingReferenceError("event kind", kind, _PATTERN_CONTEXT)
    return kind, (qualifier or None)


def build_model(
    name: str = "Empty",
    constituents: Sequence[ConstituentSystem] = (),
    environment: Sequence[EnvironmentEntity] = (),
    connections: Sequence[Connection] = (),
    threat_nodes: Sequence[ThreatNode] = (),
    chains: Sequence[ThreatChain] = (),
    processes: Sequence[ActivityGraph] = (),
    activations: Sequence[ActivationSpec] = (),
    detections: Sequence[DetectionSpec] = (),
    recoveries: Sequence[RecoverySpec] = (),
    metrics: Sequence[MetricSpec] = (),
) -> SosModel:
    """Assemble model fragments into a validated :class:`SosModel`.

    Raises :class:`DuplicateIdError` when an id is declared twice within a
    category, :class:`DanglingReferenceError` when a cross-reference does
    not resolve, and :class:`GraphStructureError` for ill-formed activity
    graphs. Taxonomy rules are deliberately NOT enforced here; the checker
    reports them.
    """

    _require_identifier(name, "model")
    model = SosModel(
        name=name,
        constituents=_by_id("constituent", constituents),
        environment=_by_id("environment entity", environment),
        connections=_by_id("connection", connections),
        threat_nodes=_by_id("threat node", threat_nodes),
        chains=_by_id("threat chain", chains),
        processes=_by_id("activity graph", processes),
        activations=_by_id("activation", activations),
        detections=_by_id("detection", detections),
        recoveries=_by_id("recovery", recoveries),
        metrics=_by_id("metric", metrics),
    )
    overlap = model.constituents.keys() & model.environment.keys()
    if overlap:
        raise DuplicateIdError("element", sorted(overlap)[0], "constituent vs environment")
    for problem in _problems(model):
        raise problem[0]
    object.__setattr__(model, "_checked", True)
    return model


# The field of an activity graph that each dangling-activity context of
# _validate_graph names, keyed by the context's first word.
_GRAPH_FIELDS = {"edge": "edges", "entry": "entry", "exit": "exits"}

# A reference problem and where it is: the error, the model collection,
# the id of the object in it, the field and the id or pattern given there.
_Problem = tuple[FmafError, str, str, str | None, str | None]


def _problems(model: SosModel) -> Iterator[_Problem]:
    """Every unresolved reference and malformed graph of ``model``.

    Problems come in the order :func:`build_model` meets them; it raises the
    first.  A graph's own structure has no field.  What would only follow
    from an unknown element (a channel or an owner checked against it) is
    not a problem of its own.  Only toolkit errors are caught, so a graph
    too deep to check still raises.
    """
    elements = model.constituents.keys() | model.environment.keys()

    def resolver(collection: str, ident: str, context: str):
        """A check of the references of object ``ident`` of ``collection``;
        a message names the object by ``context``, then the check's ``detail``."""

        def need(pool, category: str, ref: str, field: str, detail: str = ""):
            if ref not in pool:
                error = DanglingReferenceError(category, ref, context + detail)
                yield error, collection, ident, field, ref

        return need

    unlinked = set()  # connections with an unknown end: no owner is checked against them
    for conn in model.connections.values():
        need = resolver("connections", conn.id, f"connection {conn.id!r}")
        yield from need(elements, "element", conn.provider, "provider")
        yield from need(elements, "element", conn.consumer, "consumer")
        if not elements.issuperset((conn.provider, conn.consumer)):
            unlinked.add(conn.id)
    for env in model.environment.values():
        need = resolver("environment", env.id, f"environment entity {env.id!r}")
        for ref in sorted(env.connections_used):
            yield from need(model.connections, "connection", ref, "connections_used")

    activity_ids: set[str] = set()
    for graph in model.processes.values():
        gid = graph.id
        need = resolver("processes", gid, f"graph {gid!r}")
        try:
            _validate_graph(graph)
        except DanglingReferenceError as e:
            yield e, "processes", gid, _GRAPH_FIELDS[e.context.partition(" ")[0]], e.ref
        except FmafError as e:
            yield e, "processes", gid, None, None
        activity_ids.update(graph.nodes)
        owner = graph.owner
        if owner not in model.constituents:
            yield from need(model.constituents, "constituent", owner, "owner")
            owner = None  # so no channel is checked against it
        for activity in graph.nodes.values():
            channel = activity.channel
            if channel is None:
                continue
            conn = model.connections.get(channel)
            if conn is None:
                context = f"activity {activity.id!r} in {gid!r}"
                error = DanglingReferenceError("connection", channel, context)
                yield error, "processes", gid, "nodes", channel
            elif owner and channel not in unlinked and owner not in conn.endpoints():
                detail = (f"activity {activity.id!r} uses channel {conn.id!r} "
                          f"whose endpoints exclude owner {owner!r}")
                yield GraphStructureError(gid, detail), "processes", gid, None, None

    for cs in model.constituents.values():
        ref = cs.nominal_process
        graph = model.processes.get(ref)
        if graph is None:
            need = resolver("constituents", cs.id, f"constituent {cs.id!r}")
            yield from need(model.processes, "activity graph", ref, "nominal_process")
        elif graph.owner != cs.id and graph.owner in model.constituents:
            error = GraphStructureError(
                ref, f"nominal process of {cs.id!r} is owned by {graph.owner!r}"
            )
            yield error, "constituents", cs.id, "nominal_process", ref

    for chain in model.chains.values():
        cid = chain.id
        need = resolver("chains", cid, f"chain {cid!r}")
        for role, want in (
            ("fault", ThreatKind.FAULT),
            ("error", ThreatKind.ERROR),
            ("failure", ThreatKind.FAILURE),
        ):
            ref = getattr(chain, role)
            node = model.threat_nodes.get(ref)
            if node is None:
                yield from need(model.threat_nodes, "threat node", ref, role)
            elif node.kind is not want:
                error = KindMismatchError(
                    f"threat node {ref!r} has kind {node.kind.value}, "
                    f"but chain {cid!r} uses it as its {role}"
                )
                yield error, "chains", cid, role, ref
        yield from need(elements, "element", chain.origin, "origin")
        for det in chain.detectors:
            yield from need(elements, "element", det, "detectors", " detectors")

    for spec in model.activations.values():
        need = resolver("activations", spec.id, f"activation {spec.id!r}")
        yield from need(model.chains, "threat chain", spec.threat, "threat")
        yield from need(elements, "element", spec.origin_constituent, "origin_constituent")
        for ref in sorted(spec.region):
            yield from need(activity_ids, "activity", ref, "region", " region")
        if isinstance(spec.trigger, OnEntry):
            yield from need(activity_ids, "activity", spec.trigger.activity, "trigger", " trigger")

    for det in model.detections.values():
        need = resolver("detections", det.id, f"detection {det.id!r}")
        chain = model.chains.get(det.threat)
        yield from need(model.chains, "threat chain", det.threat, "threat")
        if det.detector not in elements:
            yield from need(elements, "element", det.detector, "detector")
        elif chain is not None and det.detector not in chain.detectors:
            error = FmafError(f"detector {det.detector!r} is not listed by chain {chain.id!r}")
            yield error, "detections", det.id, "detector", det.detector
        if isinstance(det.condition, Timeout):
            ref = det.condition.watched
            yield from need(elements, "element", ref, "condition", " watch target")
        yield from need(model.recoveries, "recovery", det.recovery, "recovery")

    for rec in model.recoveries.values():
        rid = rec.id
        need = resolver("recoveries", rid, f"recovery {rid!r}")
        exit_pool: set[str] | None = set()  # None once a graph is missing
        for cs_id, graph_id in rec.graphs.items():
            yield from need(model.constituents, "constituent", cs_id, "graphs")
            graph = model.processes.get(graph_id)
            if graph is None:
                yield from need(model.processes, "activity graph", graph_id, "graphs")
                exit_pool = None
                continue
            if graph.owner != cs_id and {cs_id, graph.owner} <= model.constituents.keys():
                detail = f"recovery {rid!r} maps it to {cs_id!r} but owner is {graph.owner!r}"
                yield GraphStructureError(graph_id, detail), "recoveries", rid, "graphs", graph_id
            if exit_pool is None:
                continue
            collision = exit_pool & graph.exits
            if collision:
                error = DuplicateIdError(
                    "recovery exit", min(collision), f"within recovery {rid!r}"
                )
                yield error, "recoveries", rid, "graphs", graph_id
            exit_pool |= graph.exits
        if exit_pool is None:
            continue
        for exits in ("success_exits", "abort_exits"):
            for ex in sorted(getattr(rec, exits)):
                yield from need(exit_pool, "graph exit", ex, exits, " exit classification")

    # Every label an event pattern's qualifier may name.
    vocabulary = activity_ids.union(
        model.threat_nodes, elements, model.connections, model.chains
    )
    for metric in model.metrics.values():
        kind = metric.kind
        for pattern in (kind.a, kind.b) if isinstance(kind, ElapsedBetween) else (kind.pattern,):
            try:
                qualifier = split_event_pattern(pattern)[1]
            except DanglingReferenceError as e:
                yield e, "metrics", metric.id, "kind", pattern
                continue
            if qualifier is not None and qualifier not in vocabulary:
                context = f"metric {metric.id!r} pattern {pattern!r}"
                error = DanglingReferenceError("event label", qualifier, context)
                yield error, "metrics", metric.id, "kind", pattern


def lift_cs_failure(model: SosModel, cs_failure: ThreatNode, cs: str) -> ThreatNode:
    """Lift a constituent-level failure to an SoS-level fault.

    At the level of a single constituent the event is a failure; at the
    level of the whole SoS the same event acts as a fault. The returned
    node is freshly derived but deterministic: calling twice yields equal
    values. The model is never modified.
    """

    if cs_failure.kind is not ThreatKind.FAILURE:
        raise KindMismatchError(
            f"lift_cs_failure requires a failure node, got {cs_failure.kind.value!r}"
        )
    if cs not in model.constituents:
        raise DanglingReferenceError("constituent", cs, "lift_cs_failure")
    return ThreatNode(
        id=f"{cs_failure.id}.lifted.{cs}",
        kind=ThreatKind.FAULT,
        description=f"{cs_failure.description} (failure of {cs})",
        category=cs_failure.category,
    )


@dataclass(frozen=True, slots=True)
class PartitionResult:
    """Chains produced by :func:`partition_fault` plus derived activations.

    One ActivationSpec is derived per variant that named a region; its
    trigger is a placeholder (entry of the region's first activity) that
    callers typically replace.
    """

    chains: tuple[ThreatChain, ...]
    activations: tuple[ActivationSpec, ...]


def partition_fault(
    model: SosModel,
    base: str,
    variants: Sequence[tuple[str, str, Iterable[str], Iterable[str]]],
) -> PartitionResult:
    """Split a base chain into sub-fault variants.

    Each variant is ``(suffix, origin, region, detectors)``. Variant chains
    share the base chain's threat nodes and observation point and get ids
    ``base + suffix``. The base chain stays in the model untouched, acting
    as the variants' abstract parent. Pure: the model is never modified.
    """

    base_chain = model.chains.get(base)
    if base_chain is None:
        raise DanglingReferenceError("threat chain", base, "partition_fault")
    seen_suffixes: set[str] = set()
    all_activity_ids: set[str] = set()
    for graph in model.processes.values():
        all_activity_ids |= set(graph.nodes)

    out_chains: list[ThreatChain] = []
    out_activations: list[ActivationSpec] = []
    for suffix, origin, region, detectors in variants:
        if suffix in seen_suffixes:
            raise DuplicateSuffixError(f"partition_fault: duplicate suffix {suffix!r}")
        seen_suffixes.add(suffix)
        if origin not in model.constituents and origin not in model.environment:
            raise DanglingReferenceError("element", origin, "partition_fault variant origin")
        detector_tuple = tuple(detectors)
        for det in detector_tuple:
            if det not in model.constituents and det not in model.environment:
                raise DanglingReferenceError(
                    "element", det, "partition_fault variant detector"
                )
        region_set = frozenset(region)
        for act_id in region_set:
            if act_id not in all_activity_ids:
                raise DanglingReferenceError(
                    "activity", act_id, "partition_fault variant region"
                )
        chain_id = base_chain.id + suffix
        out_chains.append(
            ThreatChain(
                id=chain_id,
                fault=base_chain.fault,
                error=base_chain.error,
                failure=base_chain.failure,
                origin=origin,
                detectors=detector_tuple,
                failure_observation=base_chain.failure_observation,
                unrecoverable=not detector_tuple,
            )
        )
        if region_set:
            out_activations.append(
                ActivationSpec(
                    id=f"{chain_id}.activation",
                    threat=chain_id,
                    origin_constituent=origin,
                    region=region_set,
                    trigger=OnEntry(sorted(region_set)[0]),
                )
            )
    return PartitionResult(chains=tuple(out_chains), activations=tuple(out_activations))
