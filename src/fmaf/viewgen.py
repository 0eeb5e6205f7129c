"""Viewpoint projections: model slices rendered as DOT graph documents.

Each view kind extracts the elements relevant to one concern:

- ``tcv``: how a fault raises an error and propagates to a failure at
  the boundary, with the constituents that can detect it.
- ``ftcv``: the constituents, environment entities, and connections a
  chain's detection and recovery rely on (recovery-only lines included).
- ``fts``: the full composition with redundancy annotations taken from
  recovery-only connections.
- ``fav``: the origin's nominal process with three interruptible region
  kinds marked: where the fault activates, what runs erroneously
  afterwards, and where each detector can interrupt into recovery.
- ``recovery``: the recovery graphs of a chain merged into
  per-constituent lanes.
- ``erroneous-process``: the origin's nominal process with the error
  and failure spliced in.
- ``erroneous-scenario``: an interaction summary derived from one
  simulation trace.
- ``fef``: every fault-error-failure chain in the model.

Projections are pure functions; serializing the same graph twice yields
byte-identical DOT text.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .model import (
    VIEW_KINDS,
    ActivityGraph,
    ActivityKind,
    FmafError,
    SosModel,
    ThreatChain,
    _frozen_value,
    _slot_maker,
)

if TYPE_CHECKING:
    from .simulator import SimTrace

__all__ = [
    "VIEW_KINDS",
    "ViewNode",
    "ViewEdge",
    "ViewCluster",
    "ViewGraph",
    "ViewError",
    "MissingFocusError",
    "UnknownChainError",
    "project",
    "to_dot",
]

class ViewError(FmafError):
    pass


class MissingFocusError(ViewError):
    pass


class UnknownChainError(ViewError):
    pass


@_frozen_value
class ViewNode:
    """A node of a projected view."""

    id: str
    label: str
    shape_class: str


@_frozen_value
class ViewEdge:
    """An edge of a projected view."""

    src: str
    dst: str
    label: str = ""
    style_class: str = "flow"


@_frozen_value
class ViewCluster:
    """A labelled group of view nodes, rendered as a DOT subgraph."""

    id: str
    label: str
    kind: str
    members: tuple[str, ...]


@_frozen_value(slots=False)
class ViewGraph:
    """A projected view: nodes, edges and clusters, ready for DOT."""

    view_kind: str
    nodes: tuple[ViewNode, ...] = ()
    edges: tuple[ViewEdge, ...] = ()
    clusters: tuple[ViewCluster, ...] = ()

    def __post_init__(self) -> None:
        ids = [n.id for n in self.nodes]
        if len(ids) != len(set(ids)):
            raise ViewError("view node ids must be unique")
        known = set(ids)
        for e in self.edges:
            if e.src not in known or e.dst not in known:
                raise ViewError(f"edge {e.src!r} -> {e.dst!r} references unknown nodes")
        claimed: set[str] = set()
        for c in self.clusters:
            for m in c.members:
                if m not in known:
                    raise ViewError(f"cluster {c.id!r} lists unknown node {m!r}")
                if m in claimed:
                    raise ViewError(f"node {m!r} belongs to two clusters")
                claimed.add(m)


# ---------------------------------------------------------------------------
# Builders

# Views are built in bulk and their elements have no rules of their own;
# ``ViewGraph`` checks how they fit together.
_view_node = _slot_maker(ViewNode)
_view_edge = _slot_maker(ViewEdge)


class _Builder:
    def __init__(self, view_kind: str) -> None:
        self.view_kind = view_kind
        self.nodes: list[ViewNode] = []
        self._seen: set[str] = set()
        self.edges: list[ViewEdge] = []
        # Plain (src, dst, label, style) tuples hash faster than ViewEdges.
        self._seen_edges: set[tuple[str, str, str, str]] = set()
        self.clusters: list[ViewCluster] = []

    def node(self, node_id: str, label: str, shape_class: str) -> str:
        if node_id not in self._seen:
            self._seen.add(node_id)
            self.nodes.append(_view_node(node_id, label, shape_class))
        return node_id

    def edge(self, src: str, dst: str, label: str = "", style: str = "flow") -> None:
        key = (src, dst, label, style)
        if key not in self._seen_edges:
            self._seen_edges.add(key)
            self.edges.append(_view_edge(src, dst, label, style))

    def cluster(self, cid: str, label: str, kind: str, members: list[str]) -> None:
        self.clusters.append(ViewCluster(cid, label, kind, tuple(members)))

    def build(self) -> ViewGraph:
        return ViewGraph(
            self.view_kind, tuple(self.nodes), tuple(self.edges), tuple(self.clusters)
        )


def _element_label(model: SosModel, ident: str) -> str:
    element = model.element(ident)
    return element.name if element is not None and element.name else ident


def _element_shape(model: SosModel, ident: str) -> str:
    return "constituent" if model.is_constituent(ident) else "environment"


def _threat_node(b: _Builder, model: SosModel, node_id: str, shape_class: str) -> str:
    node = model.threat_nodes.get(node_id)
    label = f"{node_id}: {node.description}" if node is not None and node.description else node_id
    return b.node(f"threat:{node_id}", label, shape_class)


def _require_chain(model: SosModel, view_kind: str, focus: str | None) -> ThreatChain:
    if focus is None:
        raise MissingFocusError(f"view {view_kind!r} needs a focus threat chain")
    chain = model.chains.get(focus)
    if chain is None:
        raise UnknownChainError(f"unknown threat chain {focus!r}")
    return chain


def _origin_process(model: SosModel, chain: ThreatChain) -> tuple[ActivityGraph, frozenset[str]]:
    """The nominal process of the chain's origin, and the activation region."""
    origin_cs = model.constituents.get(chain.origin)
    if origin_cs is None:
        raise ViewError(
            f"chain {chain.id!r} originates outside the constituents; "
            "no nominal process to project"
        )
    graph = model.processes.get(origin_cs.nominal_process)
    if graph is None:
        raise ViewError(
            f"chain {chain.id!r}: the nominal process {origin_cs.nominal_process!r} "
            f"of {origin_cs.id!r} is not in the model"
        )
    activation = model.activation_for(chain.id)
    return graph, activation.region if activation is not None else frozenset()


_ACTIVITY_SHAPES = {
    ActivityKind.ACTION: "activity",
    ActivityKind.DECISION: "decision",
    ActivityKind.FORK: "bar",
    ActivityKind.JOIN: "bar",
    ActivityKind.SEND: "send",
    ActivityKind.RECEIVE: "receive",
    ActivityKind.TIMER: "timer",
}


def _add_activity_graph(b: _Builder, graph: ActivityGraph, prefix: str = "") -> dict[str, str]:
    """Adds a graph's activities and control edges; returns id mapping.

    Appends straight into the builder, with ``_Builder``'s dedup rules.
    """
    mapping = {node_id: prefix + node_id for node_id in graph.nodes}
    seen, nodes = b._seen, b.nodes
    for node_id, node in graph.nodes.items():
        vid = mapping[node_id]
        if vid not in seen:
            seen.add(vid)
            nodes.append(_view_node(vid, node.name or node_id, _ACTIVITY_SHAPES[node.kind]))
    seen_edges, edges = b._seen_edges, b.edges
    for edge in graph.edges:
        key = (mapping[edge.src], mapping[edge.dst], edge.guard or "", "flow")
        if key not in seen_edges:
            seen_edges.add(key)
            edges.append(_view_edge(*key))
    return mapping


# -- individual views


def _project_tcv(model: SosModel, chain: ThreatChain) -> ViewGraph:
    b = _Builder("tcv")
    fault = _threat_node(b, model, chain.fault, "fault")
    error = _threat_node(b, model, chain.error, "error")
    failure = _threat_node(b, model, chain.failure, "failure")
    b.edge(fault, error, "raises")
    b.edge(error, failure, "propagates to")

    # One cluster per involved constituent; the origin's cluster holds
    # the fault and error, detector clusters hold the detector itself.
    involved = [chain.origin] + [d for d in chain.detectors if d != chain.origin]
    for ident in involved:
        element_node = b.node(ident, _element_label(model, ident), _element_shape(model, ident))
        members = [element_node]
        if ident == chain.origin:
            members += [fault, error]
        b.cluster(f"cluster:{ident}", _element_label(model, ident), "element", members)
    for detector in chain.detectors:
        b.edge(error, detector, "detectable by", "detects")

    if chain.failure_observation.value == "sos-boundary":
        boundary = b.node("sos-boundary", "SoS boundary", "boundary")
        b.edge(failure, boundary, "observed at")
    return b.build()


def _chain_recovery_ids(model: SosModel, chain_id: str) -> list[str]:
    seen: list[str] = []
    for det in model.detections_for(chain_id):
        if det.recovery in model.recoveries and det.recovery not in seen:
            seen.append(det.recovery)
    return seen


def _project_ftcv(model: SosModel, chain: ThreatChain) -> ViewGraph:
    b = _Builder("ftcv")
    elements: set[str] = {chain.origin, *chain.detectors}
    used_channels: set[str] = set()
    for rid in _chain_recovery_ids(model, chain.id):
        recovery = model.recoveries[rid]
        elements.update(recovery.graphs)
        for graph_id in recovery.graphs.values():
            graph = model.processes.get(graph_id)
            if graph is None:
                continue
            for node in graph.nodes.values():
                if node.channel:
                    used_channels.add(node.channel)

    connections = set(used_channels)
    for conn in model.connections.values():
        if conn.provider in elements and conn.consumer in elements:
            connections.add(conn.id)
    for cid in connections:
        conn = model.connections.get(cid)
        if conn is not None:
            elements.update((conn.provider, conn.consumer))

    for ident in sorted(elements):
        if model.element(ident) is not None:
            b.node(ident, _element_label(model, ident), _element_shape(model, ident))
    for cid in sorted(connections):
        conn = model.connections.get(cid)
        if conn is None:
            continue
        b.edge(conn.provider, conn.consumer, conn.id, conn.kind.value)
    return b.build()


def _project_fts(model: SosModel) -> ViewGraph:
    b = _Builder("fts")
    for ident in model.constituents:
        b.node(ident, _element_label(model, ident), "constituent")
    for ident in model.environment:
        b.node(ident, _element_label(model, ident), "environment")
    for conn in model.connections.values():
        if conn.kind.value == "recovery-only":
            label = f"{conn.id} (redundancy)"
        else:
            label = conn.id
        b.edge(conn.provider, conn.consumer, label, conn.kind.value)
    return b.build()


def _downstream(graph: ActivityGraph, region: frozenset[str]) -> list[str]:
    """Activities strictly after the region in control-flow order."""
    out: set[str] = set()
    stack = [e.dst for r in region if r in graph.nodes for e in graph.out_edges(r)]
    while stack:
        node = stack.pop()
        if node in out or node in region:
            continue
        out.add(node)
        stack.extend(e.dst for e in graph.out_edges(node))
    return [n for n in graph.nodes if n in out]


def _project_fav(model: SosModel, chain: ThreatChain) -> ViewGraph:
    graph, region = _origin_process(model, chain)
    b = _Builder("fav")
    mapping = _add_activity_graph(b, graph)
    fault = _threat_node(b, model, chain.fault, "fault")
    activation_members = [fault] + [mapping[a] for a in sorted(region) if a in mapping]
    b.cluster("cluster:activation", "fault activation", "activation-region", activation_members)

    erroneous = [mapping[a] for a in _downstream(graph, region)]
    if not erroneous:
        marker = b.node("erroneous-state", "erroneous execution", "marker")
        erroneous = [marker]
    b.cluster("cluster:erroneous", "erroneous behaviour", "erroneous-region", erroneous)

    detections = model.detections_for(chain.id)
    markers: dict[str, list[str]] = {}
    shared = bool(detections) and all(
        d.style.value == "shared-region" for d in detections
    )
    for det in detections:
        recovery = model.recoveries.get(det.recovery)
        name = recovery.name if recovery is not None and recovery.name else det.recovery
        marker = b.node(f"detect:{det.id}", f"Start Recovery {name}", "marker")
        b.edge(fault, marker, "detected by " + det.detector, "detects")
        markers.setdefault(det.detector, []).append(marker)
    if shared:
        everyone = [m for d in sorted(markers) for m in markers[d]]
        label = "detection by " + ", ".join(sorted(markers))
        b.cluster("cluster:detection", label, "detection-region", everyone)
    else:
        for detector in sorted(markers):
            b.cluster(
                f"cluster:detection:{detector}",
                f"detection by {detector}",
                "detection-region",
                markers[detector],
            )
    return b.build()


def _project_recovery(model: SosModel, chain: ThreatChain) -> ViewGraph:
    b = _Builder("recovery")
    lanes: dict[str, list[str]] = {}
    receive_index: dict[tuple[str, str], list[str]] = {}
    sends: list[tuple[str, str, str]] = []

    for rid in _chain_recovery_ids(model, chain.id):
        recovery = model.recoveries[rid]
        for cs_id, graph_id in recovery.graphs.items():
            graph = model.processes.get(graph_id)
            if graph is None:
                continue
            mapping = _add_activity_graph(b, graph, prefix=f"{rid}.{graph_id}.")
            lanes.setdefault(cs_id, []).extend(mapping.values())
            for node_id, node in graph.nodes.items():
                if node.kind is ActivityKind.RECEIVE and node.channel:
                    receive_index.setdefault((rid, node.channel), []).append(
                        mapping[node_id]
                    )
                if node.kind is ActivityKind.SEND and node.channel:
                    sends.append((rid, node.channel, mapping[node_id]))

    for rid, channel, src in sends:
        for dst in receive_index.get((rid, channel), ()):
            b.edge(src, dst, channel, "message")

    for cs_id in sorted(lanes):
        b.cluster(
            f"lane:{cs_id}", _element_label(model, cs_id), "lane", lanes[cs_id]
        )
    return b.build()


def _project_erroneous_process(model: SosModel, chain: ThreatChain) -> ViewGraph:
    graph, region = _origin_process(model, chain)
    b = _Builder("erroneous-process")
    mapping = _add_activity_graph(b, graph)
    error = _threat_node(b, model, chain.error, "error")
    failure = _threat_node(b, model, chain.failure, "failure")
    sources = sorted(region & set(mapping)) or [graph.entry]
    for activity in sources:
        b.edge(mapping[activity], error, "raises", "threat")
    b.edge(error, failure, "propagates to", "threat")
    if chain.failure_observation.value == "sos-boundary":
        boundary = b.node("sos-boundary", "SoS boundary", "boundary")
        b.edge(failure, boundary, "observed at", "threat")
    return b.build()


def _project_erroneous_scenario(model: SosModel, trace: SimTrace) -> ViewGraph:
    b = _Builder("erroneous-scenario")

    def actor(ident: str) -> str:
        return b.node(ident, _element_label(model, ident), _element_shape(model, ident))

    step = 0
    for event in trace.events:
        if event.kind == "message-delivered":
            step += 1
            src = actor(str(event.details.get("sender", event.actor)))
            dst = actor(event.actor)
            b.edge(src, dst, f"{step}. {event.details.get('channel', '')}", "message")
        elif event.kind == "message-lost":
            step += 1
            src = actor(event.actor)
            dst = actor(_other_endpoint(model, event))
            b.edge(src, dst, f"{step}. lost: {event.details.get('channel', '')}", "lost")
        elif event.kind == "error-detected":
            step += 1
            chain = model.chains.get(str(event.details.get("chain", "")))
            src = actor(chain.origin if chain is not None else event.actor)
            dst = actor(event.actor)
            b.edge(src, dst, f"{step}. error detected", "detects")
        elif event.kind == "failure-observed":
            step += 1
            src = actor(event.actor)
            boundary = b.node("sos-boundary", "SoS boundary", "boundary")
            b.edge(src, boundary, f"{step}. failure", "threat")
    return b.build()


def _other_endpoint(model: SosModel, event) -> str:
    conn = model.connections.get(str(event.details.get("channel", "")))
    if conn is None:
        return event.actor
    return conn.consumer if conn.provider == event.actor else conn.provider


def _project_fef(model: SosModel) -> ViewGraph:
    b = _Builder("fef")
    for chain in model.chains.values():
        fault = _threat_node(b, model, chain.fault, "fault")
        error = _threat_node(b, model, chain.error, "error")
        failure = _threat_node(b, model, chain.failure, "failure")
        b.edge(fault, error, chain.id)
        b.edge(error, failure, chain.id)
    return b.build()


#: The views that make no sense without a focused threat chain.
_FOCUSED = {
    "tcv": _project_tcv,
    "ftcv": _project_ftcv,
    "fav": _project_fav,
    "recovery": _project_recovery,
    "erroneous-process": _project_erroneous_process,
}


def project(
    model: SosModel,
    view_kind: str,
    focus: str | None = None,
    trace: SimTrace | None = None,
) -> ViewGraph:
    """Project a model (or, for scenario views, a trace) into one view."""
    if view_kind not in VIEW_KINDS:
        raise ViewError(f"unknown view kind {view_kind!r}; choose from {VIEW_KINDS}")
    focused = _FOCUSED.get(view_kind)
    if focused is not None:
        return focused(model, _require_chain(model, view_kind, focus))
    if view_kind == "fts":
        return _project_fts(model)
    if view_kind == "fef":
        return _project_fef(model)
    # erroneous-scenario
    if trace is None:
        raise MissingFocusError("view 'erroneous-scenario' needs a simulation trace")
    return _project_erroneous_scenario(model, trace)


# ---------------------------------------------------------------------------
# DOT serialization

_NODE_ATTRS = {
    "constituent": 'shape=box, style=rounded',
    "environment": 'shape=box, style=dashed',
    "fault": 'shape=octagon',
    "error": 'shape=diamond',
    "failure": 'shape=doubleoctagon',
    "boundary": 'shape=doublecircle',
    "activity": 'shape=box, style=rounded',
    "decision": 'shape=diamond',
    "bar": 'shape=box, height=0.1, style=filled',
    "send": 'shape=cds',
    "receive": 'shape=cds',
    "timer": 'shape=circle',
    "marker": 'shape=note',
}

_EDGE_ATTRS = {
    "flow": "",
    "message": "style=dashed",
    "detects": "style=dotted",
    "threat": "style=bold",
    "lost": "style=dotted",
    "recovery-only": "style=dashed",
    "nominal": "",
    "lane": "",
}


def _quote(text: str) -> str:
    if "\\" in text or '"' in text or "\n" in text:
        text = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{text}"'


# DOT keywords, in any letter case, cannot stand as a bare graph name.
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def to_dot(graph: ViewGraph) -> str:
    """Graphviz text for a view; byte-identical for equal inputs."""
    name = graph.view_kind
    bare = name.isidentifier() and name.lower() not in _DOT_KEYWORDS
    title = name if bare else _quote(name)
    if not graph.nodes and not graph.edges and not graph.clusters:
        return f"digraph {title} {{ }}\n"
    # Each id is quoted and each node line rendered once; clusters pop
    # their members' lines, the rest follow in node order.
    quoted: dict[str, str] = {}
    node_lines: dict[str, str] = {}
    for node in graph.nodes:
        qid = quoted[node.id] = _quote(node.id)
        attrs = _NODE_ATTRS.get(node.shape_class, "shape=box")
        node_lines[node.id] = f"{qid} [label={_quote(node.label)}, {attrs}];"
    lines = [f"digraph {title} {{"]
    for i, cluster in enumerate(graph.clusters):
        lines.append(f"  subgraph {_quote(f'cluster_{i}_{cluster.id}')} {{")
        lines.append(f"    label={_quote(cluster.label)};")
        lines.append(f"    class={_quote(cluster.kind)};")
        for member in cluster.members:
            lines.append("    " + node_lines.pop(member))
        lines.append("  }")
    for line in node_lines.values():
        lines.append("  " + line)
    for edge in graph.edges:
        attrs = _EDGE_ATTRS.get(edge.style_class, "")
        if edge.label:
            label = f"label={_quote(edge.label)}"
            attrs = f"{label}, {attrs}" if attrs else label
        suffix = f" [{attrs}]" if attrs else ""
        lines.append(f"  {quoted[edge.src]} -> {quoted[edge.dst]}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
