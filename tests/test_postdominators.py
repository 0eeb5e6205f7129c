"""Fork/join validation: the post-dominator analysis and the adjacency index.

``_immediate_postdominators`` runs Cooper, Harvey & Kennedy's dominance
algorithm on the reversed graph. ``reference_postdominators`` below is the
original algorithm, an iterative set dataflow that is cubic on fork/join
chains; both must give the same map. ``ActivityGraph.out_edges`` reads an
index built once per graph and ``in_edges`` scans ``edges``; both must give
what a linear scan of ``edges`` gives, in the same order.
"""

from __future__ import annotations

import dataclasses
import random
import time

import pytest

from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.model import (
    Activity,
    ActivityGraph,
    ActivityKind,
    ConstituentSystem,
    Edge,
    _immediate_postdominators,
    build_model,
)

from _builders import action, random_model


def reference_postdominators(graph):
    sink = object()
    nodes = [sink] + sorted(graph.nodes)
    succ = {n: [] for n in nodes}
    for edge in graph.edges:
        succ[edge.src].append(edge.dst)
    for ex in graph.exits:
        succ[ex].append(sink)
    postdom = {n: set(nodes) for n in nodes}
    postdom[sink] = {sink}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n is sink:
                continue
            succs = succ[n]
            if not succs:
                new = {n}
            else:
                new = set.intersection(*(postdom[s] for s in succs)) | {n}
            if new != postdom[n]:
                postdom[n] = new
                changed = True
    result = {}
    for n in nodes:
        if n is sink:
            continue
        candidates = postdom[n] - {n}
        ipdom = None
        for c in candidates:
            if all(other is c or other in postdom[c] for other in candidates):
                ipdom = c
                break
        result[n] = None if ipdom is sink or ipdom is None else ipdom
    return result


def _graph(nodes, edges, entry, exits):
    return ActivityGraph(
        id="G",
        owner="A",
        nodes={a.id: a for a in nodes},
        edges=tuple(edges),
        entry=entry,
        exits=frozenset(exits),
    )


def _build_with(graph):
    return build_model(
        name="One",
        constituents=[ConstituentSystem("A", "a", graph.id)],
        processes=[graph],
    )


def _fork(aid):
    return Activity(aid, ActivityKind.FORK)


def _join(aid):
    return Activity(aid, ActivityKind.JOIN)


def _bundle_graphs():
    return [g for name in BUNDLE_NAMES for g in load_bundle(name).model.processes.values()]


def _random_graphs(seeds):
    return [
        g for s in seeds for g in random_model(random.Random(s)).processes.values()
    ]


# -- post-dominators against the reference -----------------------------------


def test_bundle_graphs_match_reference():
    graphs = _bundle_graphs()
    assert any(a.kind is ActivityKind.FORK for g in graphs for a in g.nodes.values())
    for graph in graphs:
        assert _immediate_postdominators(graph) == reference_postdominators(graph), graph.id


def test_random_model_graphs_match_reference():
    for graph in _random_graphs(range(200)):
        assert _immediate_postdominators(graph) == reference_postdominators(graph), graph.id


def nested_fork_join():
    nodes = [action("start"), _fork("outer"), action("a"), _fork("inner"),
             action("b"), action("c"), _join("inner_meet"), action("d"),
             _join("outer_meet"), action("end")]
    edges = [Edge("start", "outer"), Edge("outer", "a"), Edge("outer", "inner"),
             Edge("inner", "b"), Edge("inner", "c"), Edge("b", "inner_meet"),
             Edge("c", "inner_meet"), Edge("inner_meet", "d"), Edge("d", "outer_meet"),
             Edge("a", "outer_meet"), Edge("outer_meet", "end")]
    return _graph(nodes, edges, "start", {"end"})


def multi_exit_decision():
    nodes = [action("start"), Activity("choose", ActivityKind.DECISION),
             action("x"), action("y1"), action("y2"), action("z")]
    edges = [Edge("start", "choose"), Edge("choose", "x", "ex"),
             Edge("choose", "y1", "why"), Edge("choose", "z"), Edge("y1", "y2")]
    return _graph(nodes, edges, "start", {"x", "y2", "z"})


def single_node():
    return _graph([action("only")], [], "only", {"only"})


def timed_cycle():
    nodes = [action("start"), action("work"),
             Activity("check", ActivityKind.DECISION), action("done")]
    edges = [Edge("start", "work"), Edge("work", "check"),
             Edge("check", "work", "again"), Edge("check", "done")]
    return _graph(nodes, edges, "start", {"done"})


@pytest.mark.parametrize(
    "make,expected",
    [
        (nested_fork_join, {"outer": "outer_meet", "inner": "inner_meet",
                            "a": "outer_meet", "d": "outer_meet", "end": None}),
        (multi_exit_decision, {"start": "choose", "choose": None, "y1": "y2", "x": None}),
        (single_node, {"only": None}),
        (timed_cycle, {"start": "work", "work": "check", "check": "done", "done": None}),
    ],
)
def test_hand_built_graphs_match_reference(make, expected):
    graph = make()
    _build_with(graph)
    ipdom = _immediate_postdominators(graph)
    assert ipdom == reference_postdominators(graph)
    assert {n: ipdom[n] for n in expected} == expected


def test_thousand_activity_fork_join_ladder_builds_quickly():
    # Rungs of fork -> (left, right) -> join -> step, every action 1t long.
    rungs = 300
    nodes, edges, prev = [action("start")], [], "start"
    for i in range(rungs):
        fork, join, step = f"f{i}", f"j{i}", f"s{i}"
        nodes += [_fork(fork), action(f"l{i}"), action(f"r{i}"), _join(join), action(step)]
        edges += [Edge(prev, fork), Edge(fork, f"l{i}"), Edge(fork, f"r{i}"),
                  Edge(f"l{i}", join), Edge(f"r{i}", join), Edge(join, step)]
        prev = step
    graph = _graph(nodes, edges, "start", {prev})
    assert len(graph.nodes) >= 1000
    began = time.perf_counter()
    _build_with(graph)
    # A hang guard, not a benchmark: the set dataflow took about a minute.
    assert time.perf_counter() - began < 10.0
    ipdom = _immediate_postdominators(graph)
    assert all(ipdom[f"f{i}"] == f"j{i}" for i in range(rungs))


# -- adjacency index -----------------------------------------------------------


def test_adjacency_index_matches_linear_scan():
    for graph in _bundle_graphs() + _random_graphs(range(100)):
        for node in graph.nodes:
            assert graph.out_edges(node) == tuple(e for e in graph.edges if e.src == node)
            assert graph.in_edges(node) == tuple(e for e in graph.edges if e.dst == node)


def test_replace_rebuilds_the_index():
    graph = nested_fork_join()
    edges = [e for e in graph.edges if e.src != "outer" and e.dst != "outer_meet"]
    edges += [Edge("outer", "b"), Edge("outer", "c")]
    changed = dataclasses.replace(graph, edges=tuple(edges))
    assert changed.out_edges("outer") == (Edge("outer", "b"), Edge("outer", "c"))
    assert changed.in_edges("outer_meet") == ()
    assert changed.in_edges("b") == (Edge("inner", "b"), Edge("outer", "b"))
    assert graph.out_edges("outer") == (Edge("outer", "a"), Edge("outer", "inner"))


def test_index_is_invisible_to_equality_and_repr():
    graph = nested_fork_join()
    emptied = dataclasses.replace(graph)
    object.__setattr__(emptied, "_out", {})
    assert emptied == graph
    assert repr(emptied) == repr(graph)
    assert "_out" not in repr(graph)
    # Declaration order of the edges changes neither value nor index.
    reordered = dataclasses.replace(graph, edges=tuple(reversed(graph.edges)))
    assert reordered == graph
    assert all(reordered.out_edges(n) == graph.out_edges(n) for n in graph.nodes)
