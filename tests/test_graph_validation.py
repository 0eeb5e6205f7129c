"""Activity-graph validation against the original implementation.

``_validate_graph`` reports the first structural rule a graph breaks.
``reference_validate`` below is the implementation it replaced, which
indexed edges by node id, swept reachability per exit and numbered the
nodes again for the post-dominator analysis. For every graph both must
raise the same first exception, with the same type and message, or
neither may raise. The graphs are the bundles', ``random_model``'s and
seeded mutations of those: edges dropped, added with dangling ends or
re-guarded, kinds changed, durations zeroed, entry and exits changed.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.model import (
    Activity,
    ActivityGraph,
    ActivityKind,
    DanglingReferenceError,
    Edge,
    GraphStructureError,
    _validate_graph,
)

from _builders import random_model


def _reachable(start, step):
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in step(node):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def reference_postdominators(graph):
    number = {}
    order = []
    seen = set()
    for ex in sorted(graph.exits):
        if ex in seen:
            continue
        seen.add(ex)
        stack = [(ex, iter(graph.in_edges(ex)))]
        while stack:
            node, preds = stack[-1]
            for edge in preds:
                if edge.src not in seen:
                    seen.add(edge.src)
                    stack.append((edge.src, iter(graph.in_edges(edge.src))))
                    break
            else:
                stack.pop()
                number[node] = len(order)
                order.append(node)
    sink = len(order)
    succs = [[number[e.dst] for e in graph.out_edges(n) if e.dst in number] for n in order]
    for ex in graph.exits:
        if ex in number:
            succs[number[ex]].append(sink)
    idom = [-1] * (sink + 1)
    idom[sink] = sink
    changed = True
    while changed:
        changed = False
        for b in range(sink - 1, -1, -1):
            new = -1
            for p in succs[b]:
                if idom[p] == -1:
                    continue
                if new == -1:
                    new = p
                    continue
                while p != new:
                    while p < new:
                        p = idom[p]
                    while new < p:
                        new = idom[new]
            if idom[b] != new:
                idom[b] = new
                changed = True
    result = {}
    for n in graph.nodes:
        b = number.get(n)
        result[n] = None if b is None or idom[b] == sink else order[idom[b]]
    return result


def reference_validate(graph):
    gid = graph.id
    if not graph.nodes:
        raise GraphStructureError(gid, "no activities")
    for node_id, activity in graph.nodes.items():
        if node_id != activity.id:
            raise GraphStructureError(gid, f"node key {node_id!r} != activity id {activity.id!r}")
    for edge in graph.edges:
        for end in (edge.src, edge.dst):
            if end not in graph.nodes:
                raise DanglingReferenceError("activity", end, f"edge in graph {gid!r}")
    if graph.entry not in graph.nodes:
        raise DanglingReferenceError("activity", graph.entry, f"entry of graph {gid!r}")
    for ex in graph.exits:
        if ex not in graph.nodes:
            raise DanglingReferenceError("activity", ex, f"exit of graph {gid!r}")

    sinks = {n for n in graph.nodes if not graph.out_edges(n)}
    if sinks != set(graph.exits):
        raise GraphStructureError(
            gid,
            f"exits {sorted(graph.exits)} must be exactly the sink nodes {sorted(sinks)}",
        )

    reachable = _reachable(graph.entry, lambda n: (e.dst for e in graph.out_edges(n)))
    if reachable != set(graph.nodes):
        missing = sorted(set(graph.nodes) - reachable)
        raise GraphStructureError(gid, f"unreachable from entry: {missing}")
    reaches_exit = set()
    for ex in graph.exits:
        reaches_exit |= _reachable(ex, lambda n: (e.src for e in graph.in_edges(n)))
    if reaches_exit != set(graph.nodes):
        stuck = sorted(set(graph.nodes) - reaches_exit)
        raise GraphStructureError(gid, f"cannot reach any exit: {stuck}")

    for node_id, activity in graph.nodes.items():
        outs = graph.out_edges(node_id)
        if activity.kind is ActivityKind.FORK:
            if len(outs) < 2:
                raise GraphStructureError(gid, f"fork {node_id!r} needs >= 2 out-edges")
            if any(e.guard for e in outs):
                raise GraphStructureError(gid, f"fork {node_id!r} has guarded out-edges")
        elif activity.kind is ActivityKind.DECISION:
            guards = [e.guard for e in outs]
            labelled = [g for g in guards if g is not None]
            if len(set(labelled)) != len(labelled):
                raise GraphStructureError(gid, f"decision {node_id!r} has duplicate guards")
            if guards.count(None) > 1:
                raise GraphStructureError(gid, f"decision {node_id!r} has multiple defaults")
            if not outs:
                raise GraphStructureError(gid, f"decision {node_id!r} has no out-edges")
        else:
            if len(outs) > 1:
                raise GraphStructureError(
                    gid, f"{activity.kind.value} {node_id!r} has multiple out-edges"
                )
            if outs and outs[0].guard is not None:
                raise GraphStructureError(gid, f"guard on out-edge of non-decision {node_id!r}")
        if activity.kind is ActivityKind.JOIN and len(graph.in_edges(node_id)) < 2:
            raise GraphStructureError(gid, f"join {node_id!r} needs >= 2 in-edges")

    forks = [n for n, a in graph.nodes.items() if a.kind is ActivityKind.FORK]
    joins = {n for n, a in graph.nodes.items() if a.kind is ActivityKind.JOIN}
    if forks or joins:
        ipdom = reference_postdominators(graph)
        claimed = {}
        for fork in sorted(forks):
            match = ipdom[fork]
            if match is None or match not in joins:
                raise GraphStructureError(gid, f"fork {fork!r} has no matching join")
            if match in claimed:
                raise GraphStructureError(
                    gid, f"join {match!r} matches forks {claimed[match]!r} and {fork!r}"
                )
            if len(graph.in_edges(match)) != len(graph.out_edges(fork)):
                raise GraphStructureError(
                    gid,
                    f"join {match!r} in-degree differs from fork {fork!r} out-degree",
                )
            claimed[match] = fork
        unclaimed = joins - set(claimed)
        if unclaimed:
            raise GraphStructureError(gid, f"join without matching fork: {sorted(unclaimed)}")

    zero = {n for n, a in graph.nodes.items() if a.effective_duration() == 0}
    zero_forward = {n: [e.dst for e in graph.out_edges(n) if e.dst in zero] for n in zero}
    state = {}

    def visit(node):
        state[node] = 1
        for nxt in zero_forward[node]:
            mark = state.get(nxt)
            if mark == 1:
                raise GraphStructureError(gid, "cycle with no time-consuming activity")
            if mark is None:
                visit(nxt)
        state[node] = 2

    for n in sorted(zero):
        if n not in state:
            visit(n)


def _first_error(validate, graph):
    try:
        validate(graph)
    except (DanglingReferenceError, GraphStructureError) as exc:
        return type(exc), str(exc)
    return None


def _agrees(graph) -> bool:
    """Assert both validators agree on ``graph``; True when it is invalid."""
    want = _first_error(reference_validate, graph)
    assert _first_error(_validate_graph, graph) == want, (graph, want)
    return want is not None


# -- seeded mutations ------------------------------------------------------------

_GUARDS = (None, None, "go", "stop", "crashed")
_UNKNOWN = "ghost"


def _with_kind(activity: Activity, kind: ActivityKind, rng: random.Random) -> Activity:
    messaging = kind in (ActivityKind.SEND, ActivityKind.RECEIVE)
    return dataclasses.replace(
        activity,
        kind=kind,
        channel=(activity.channel or "Line") if messaging else None,
        timer_bound=rng.randint(0, 2) if kind is ActivityKind.TIMER else None,
    )


def _zeroed(activity: Activity) -> Activity:
    bound = 0 if activity.kind is ActivityKind.TIMER else None
    return dataclasses.replace(activity, duration=0, timer_bound=bound)


def _some_end(rng: random.Random, ids: list[str]) -> str:
    return _UNKNOWN if rng.random() < 0.15 or not ids else rng.choice(ids)


def mutate(graph: ActivityGraph, rng: random.Random) -> ActivityGraph:
    """One to three random structural edits of ``graph``."""
    nodes = dict(graph.nodes)
    edges = list(graph.edges)
    entry = graph.entry
    exits = set(graph.exits)
    for _ in range(rng.randint(1, 3)):
        ids = sorted(nodes)
        op = rng.randrange(12)
        if op == 0 and edges:
            edges.pop(rng.randrange(len(edges)))
        elif op == 1:
            edges.append(Edge(_some_end(rng, ids), _some_end(rng, ids), rng.choice(_GUARDS)))
        elif op == 2 and edges:
            i = rng.randrange(len(edges))
            edges[i] = dataclasses.replace(edges[i], guard=rng.choice(_GUARDS))
        elif op == 3 and ids:
            nid = rng.choice(ids)
            nodes[nid] = _with_kind(nodes[nid], rng.choice(list(ActivityKind)), rng)
        elif op == 4 and ids:
            nid = rng.choice(ids)
            nodes[nid] = _zeroed(nodes[nid])
        elif op == 5:
            entry = _some_end(rng, ids)
        elif op == 6 and ids:
            exits ^= {_some_end(rng, ids)}
        elif op == 7 and ids:
            # An edge between two existing nodes, possibly closing a cycle.
            src, dst = rng.choice(ids), rng.choice(ids)
            edges.append(Edge(src, dst, rng.choice(_GUARDS)))
        elif op == 8 and ids and rng.random() < 0.3:
            nodes.pop(rng.choice(ids))
        elif op == 9 and ids and rng.random() < 0.1:
            nid = rng.choice(ids)
            nodes[nid + "_key"] = nodes.pop(nid)
        elif op == 10:
            # A loop back through a decision, the only legal way to branch.
            deciders = [n for n in ids if nodes[n].kind is ActivityKind.DECISION]
            if deciders:
                edges.append(Edge(rng.choice(deciders), rng.choice(ids), f"again{len(edges)}"))
        elif op == 11:
            nodes = {nid: _zeroed(a) for nid, a in nodes.items()}
    if rng.random() < 0.5:
        # Make the exits the sinks again, so that the later rules get a say.
        exits = set(nodes) - {e.src for e in edges}
    return ActivityGraph(
        id=graph.id, owner=graph.owner, nodes=nodes, edges=tuple(edges),
        entry=entry, exits=frozenset(exits),
    )


def _bundle_graphs():
    return [g for name in BUNDLE_NAMES for g in load_bundle(name).model.processes.values()]


def _random_graphs(seeds):
    return [g for s in seeds for g in random_model(random.Random(s)).processes.values()]


# -- tests -----------------------------------------------------------------------------


def test_bundle_and_random_model_graphs_are_valid_under_both():
    graphs = _bundle_graphs() + _random_graphs(range(200))
    assert not any(_agrees(g) for g in graphs)


@pytest.mark.parametrize("seed", range(4))
def test_mutated_graphs_raise_the_same_first_error(seed):
    rng = random.Random(seed)
    bases = _bundle_graphs() + _random_graphs(range(50 * seed, 50 * seed + 50))
    invalid = checked = 0
    for _ in range(3000):
        graph = mutate(rng.choice(bases), rng)
        invalid += _agrees(graph)
        checked += 1
    # Enough of both kinds for the comparison to mean something.
    assert invalid > checked // 2 and checked - invalid > checked // 50


def test_mutations_reach_every_rule():
    rng = random.Random(99)
    bases = _bundle_graphs() + _random_graphs(range(200))
    messages = set()
    for _ in range(6000):
        error = _first_error(reference_validate, mutate(rng.choice(bases), rng))
        if error is not None:
            messages.add(error[1])
    joined = " | ".join(sorted(messages))
    for rule in ("edge in graph", "entry of graph", "exit of graph",
                 "must be exactly the sink nodes", "unreachable from entry",
                 "cannot reach any exit", "needs >= 2 out-edges", "has guarded out-edges",
                 "has duplicate guards", "has multiple defaults", "has no out-edges",
                 "has multiple out-edges",
                 "guard on out-edge of non-decision", "needs >= 2 in-edges",
                 "has no matching join", "in-degree differs", "join without matching fork",
                 "cycle with no time-consuming activity", "node key", "no activities"):
        assert rule in joined, rule


@pytest.mark.parametrize(
    "nodes,edges,entry,exits",
    [
        ([], [], "a", ["a"]),
        (["a", "b"], [("a", "b"), ("b", "a")], "a", []),
        (["a", "b", "c"], [("a", "b"), ("a", "c")], "a", ["b", "c"]),
    ],
)
def test_hand_built_invalid_graphs(nodes, edges, entry, exits):
    graph = ActivityGraph(
        id="G", owner="A",
        nodes={n: Activity(n, ActivityKind.ACTION) for n in nodes},
        edges=tuple(Edge(s, d) for s, d in edges), entry=entry, exits=frozenset(exits),
    )
    assert _agrees(graph)


def test_join_claimed_by_two_forks():
    # Both forks' immediate post-dominator is ``meet``: the outer fork's
    # ``late`` branch rejoins the inner fork's ``left`` branch at ``p``.
    kinds = {"outer": ActivityKind.FORK, "inner": ActivityKind.FORK, "meet": ActivityKind.JOIN}
    names = ["start", "outer", "x", "late", "inner", "left", "right", "p", "q", "meet", "end"]
    edges = [("start", "outer"), ("outer", "x"), ("outer", "late"), ("x", "inner"),
             ("inner", "left"), ("inner", "right"), ("left", "p"), ("late", "p"),
             ("right", "q"), ("p", "meet"), ("q", "meet"), ("meet", "end")]
    graph = ActivityGraph(
        id="G", owner="A",
        nodes={n: Activity(n, kinds.get(n, ActivityKind.ACTION), duration=1) for n in names},
        edges=tuple(Edge(s, d) for s, d in edges), entry="start", exits=frozenset({"end"}),
    )
    assert _agrees(graph)
    assert "join 'meet' matches forks 'inner' and 'outer'" in _first_error(_validate_graph, graph)[1]
