"""Core model construction, validation, and the lift/partition operations."""

from __future__ import annotations

import dataclasses

import pytest

from fmaf import dsl
from fmaf.model import (
    ActivationSpec,
    Activity,
    ActivityGraph,
    ActivityKind,
    AtTime,
    Connection,
    ConstituentSystem,
    DanglingReferenceError,
    DuplicateIdError,
    DuplicateSuffixError,
    Edge,
    EnvironmentEntity,
    FmafError,
    GraphStructureError,
    KindMismatchError,
    OnEntry,
    Probabilistic,
    RecoverySpec,
    SelfReport,
    ThirdPartyReport,
    ThreatChain,
    ThreatKind,
    ThreatNode,
    Timeout,
    build_model,
    is_identifier,
    lift_cs_failure,
    partition_fault,
)

from _builders import action, emergency_fragments, mini_sos, seq_graph


def test_empty_fragments_build_an_empty_model():
    model = build_model()
    assert model.name == "Empty"
    assert len(model.constituents) == 0
    assert len(model.environment) == 0
    assert len(model.chains) == 0


def test_emergency_skeleton_has_five_constituents_and_two_env_entities():
    model = build_model(**emergency_fragments())
    assert set(model.constituents) == {
        "CallCentre",
        "ERU",
        "Radio",
        "MobilePhone",
        "PhoneSystem",
    }
    assert set(model.environment) == {"Caller", "Target"}


def test_connection_to_undeclared_element_names_the_offender():
    parts = emergency_fragments()
    parts["connections"].append(Connection("Spare", "Spare", "CallCentre", "ERU2"))
    with pytest.raises(DanglingReferenceError) as err:
        build_model(**parts)
    assert "ERU2" in str(err.value)


def test_environment_entity_using_an_undeclared_connection_is_rejected():
    parts = emergency_fragments()
    caller = parts["environment"][0]
    parts["environment"][0] = dataclasses.replace(caller, connections_used=frozenset({"Ghost"}))
    with pytest.raises(DanglingReferenceError) as err:
        build_model(**parts)
    assert (err.value.category, err.value.ref) == ("connection", "Ghost")
    assert str(err.value) == (
        f"environment entity {caller.id!r} references unknown connection 'Ghost'"
    )


def test_duplicate_constituent_id_is_rejected():
    parts = emergency_fragments()
    parts["constituents"].append(ConstituentSystem("ERU", "Second unit", "EruWork"))
    with pytest.raises(DuplicateIdError) as err:
        build_model(**parts)
    assert "ERU" in str(err.value)


def test_constituent_and_environment_ids_may_not_collide():
    with pytest.raises(DuplicateIdError):
        build_model(
            name="Clash",
            constituents=[ConstituentSystem("X", "x", "GX")],
            environment=[EnvironmentEntity("X", "x")],
            processes=[seq_graph("GX", "X", [action("only")])],
        )


def test_nominal_process_must_be_owned_by_its_constituent():
    with pytest.raises(GraphStructureError):
        build_model(
            name="BadOwner",
            constituents=[
                ConstituentSystem("A", "a", "GB"),
                ConstituentSystem("B", "b", "GB"),
            ],
            processes=[seq_graph("GB", "B", [action("only")])],
        )


def test_model_collections_are_sorted_by_id():
    model = build_model(**emergency_fragments())
    assert list(model.constituents) == sorted(model.constituents)
    assert list(model.connections) == sorted(model.connections)


def test_model_is_immutable():
    model = mini_sos()
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.name = "Renamed"  # type: ignore[misc]
    cs = model.constituents["Alpha"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        cs.name = "Renamed"  # type: ignore[misc]


def _set_based_is_identifier(text: str) -> bool:
    head = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
    tail = head | set("0123456789_.")
    return bool(text) and text[0] in head and all(c in tail for c in text)


def test_is_identifier_matches_the_set_based_definition():
    alphabet = "aZ09_.-é\u0663\n "
    texts = ["", "a\n", "é", "a\u0663", "ａ", "a\x00", "ERU_2.1", "CallCentre", "1a"]
    texts += list(alphabet) + [a + b for a in alphabet for b in alphabet]
    texts += [a + b + c for a in "a0_" for b in alphabet for c in alphabet]
    for text in texts:
        assert is_identifier(text) is _set_based_is_identifier(text), repr(text)


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda bad: Connection("L", bad, "A", "B"),
            "interface id 'x y' is not a valid identifier",
        ),
        (
            lambda bad: ConstituentSystem("A", "a", "P", provided_interfaces=frozenset({bad})),
            "interface id 'x y' is not a valid identifier",
        ),
        (
            lambda bad: ConstituentSystem("A", "a", "P", required_interfaces=frozenset({bad})),
            "interface id 'x y' is not a valid identifier",
        ),
        (
            lambda bad: ThreatNode("F", ThreatKind.FAULT, "d", category=bad),
            "category id 'x y' is not a valid identifier",
        ),
    ],
    ids=["interface_id", "provided_interfaces", "required_interfaces", "category"],
)
def test_fields_written_as_bare_ids_must_be_identifiers(make, message):
    # The serializer writes these fields as ids, so a model holding anything
    # else would serialize to text that does not parse.
    make("Fine.id_2")
    with pytest.raises(FmafError) as excinfo:
        make("x y")
    assert str(excinfo.value) == message
    with pytest.raises(FmafError):
        make("")


def _chain(detectors=("A",), unrecoverable=False):
    return ThreatChain("C", "f", "e", "x", "A", detectors, unrecoverable=unrecoverable)


def _activity(ident="a", kind=ActivityKind.ACTION, **fields):
    return Activity(ident, kind, **fields)


def _recovery(graphs, success=(), abort=()):
    return RecoverySpec("R", "r", graphs, frozenset(success), frozenset(abort))


@pytest.mark.parametrize(
    "make, good, bad, message",
    [
        (
            lambda v: Connection("L", "L", "A", "B", latency=v),
            0, -1, "connection 'L': negative latency",
        ),
        (
            lambda v: _chain(detectors=(), unrecoverable=v),
            True, False, "chain 'C': detectors empty but chain not marked unrecoverable",
        ),
        (
            lambda v: _chain(detectors=v),
            ("A", "B"), ("A", "B", "A"), "chain 'C': duplicate detector entries",
        ),
        (
            lambda v: _activity(v),
            "a_1", "1a", "activity id '1a' is not a valid identifier",
        ),
        (
            lambda v: _activity(duration=v),
            0, -1, "activity 'a': negative duration",
        ),
        (
            lambda v: _activity(kind=v, channel="L"),
            ActivityKind.SEND, ActivityKind.JOIN,
            "activity 'a': channel on non-messaging activity",
        ),
        (
            lambda v: _activity(kind=ActivityKind.TIMER, timer_bound=v),
            0, None, "activity 'a': timer requires a non-negative bound",
        ),
        (
            lambda v: _activity(kind=ActivityKind.TIMER, timer_bound=v),
            0, -1, "activity 'a': timer requires a non-negative bound",
        ),
        (
            lambda v: _activity(kind=v, timer_bound=2),
            ActivityKind.TIMER, ActivityKind.ACTION,
            "activity 'a': timer_bound on non-timer activity",
        ),
        (AtTime, 0, -1, "at-time trigger: negative tick"),
        (Probabilistic, 1.0, 1.5, "probabilistic trigger: probability outside [0, 1]"),
        (Probabilistic, 0.0, -0.5, "probabilistic trigger: probability outside [0, 1]"),
        (
            lambda v: ActivationSpec("Z", "C", "A", frozenset(v), OnEntry("a")),
            ["a"], [], "activation 'Z': empty region",
        ),
        (SelfReport, 0, -1, "self-report condition: negative delay"),
        (lambda v: Timeout(v, "A"), 0, -1, "timeout condition: negative bound"),
        (
            lambda v: ThirdPartyReport(v, 0),
            1.0, 1.01, "third-party condition: probability outside [0, 1]",
        ),
        (
            lambda v: ThirdPartyReport(0.5, v),
            0, -1, "third-party condition: negative delay",
        ),
        (_recovery, {"A": "G"}, {}, "recovery 'R': no graphs"),
        (
            lambda v: _recovery({"A": "G"}, success=["y", "x", "ok"], abort=v),
            ["stop"], ["x", "stop", "y"],
            "recovery 'R': exits both success and abort: ['x', 'y']",
        ),
    ],
    ids=[
        "connection-latency", "chain-no-detectors", "chain-duplicate-detectors",
        "activity-id", "activity-duration", "activity-channel", "timer-no-bound",
        "timer-negative-bound", "timer-bound-elsewhere", "at-time", "probability-high",
        "probability-low", "empty-region", "self-report", "timeout", "third-party-probability",
        "third-party-delay", "recovery-no-graphs", "recovery-exit-both",
    ],
)
def test_constructors_refuse_out_of_range_fields(make, good, bad, message):
    make(good)
    with pytest.raises(FmafError) as excinfo:
        make(bad)
    assert str(excinfo.value) == message


def _two_recovery_graphs_with_one_exit_id():
    """Recovery R runs RA on A and RB on B, and both graphs exit at ``done``."""
    return dict(
        name="Dup",
        constituents=[ConstituentSystem("A", "a", "GA"), ConstituentSystem("B", "b", "GB")],
        processes=[
            seq_graph("GA", "A", [action("a")]),
            seq_graph("GB", "B", [action("b")]),
            seq_graph("RA", "A", [action("done")]),
            seq_graph("RB", "B", [action("done")]),
        ],
        recoveries=[RecoverySpec("R", "r", {"A": "RA", "B": "RB"})],
    )


def test_recovery_graphs_may_not_share_an_exit_id():
    with pytest.raises(DuplicateIdError) as excinfo:
        build_model(**_two_recovery_graphs_with_one_exit_id())
    assert str(excinfo.value) == "duplicate recovery exit id 'done' (within recovery 'R')"
    src = (
        "sos Dup {\n"
        '  cs A "a" { nominal GA }\n'
        '  cs B "b" { nominal GB }\n'
        "  process GA owner A { entry a exits [a] action a 1t }\n"
        "  process GB owner B { entry b exits [b] action b 1t }\n"
        "  process RA owner A { entry done exits [done] action done 1t }\n"
        "  process RB owner B { entry done exits [done] action done 1t }\n"
        '  recovery R "r" {\n'
        "    graph A RA\n"
        "    graph B RB\n"
        "  }\n"
        "}\n"
    )
    result = dsl.parse(src)
    assert result.model is None
    assert [str(d) for d in result.diagnostics] == [
        "10:13: error: duplicate recovery exit id 'done' (within recovery 'R')"
    ]


def test_a_recovery_missing_its_first_graph_reports_only_that_graph():
    # Once a graph is missing, the exits the recovery may classify are
    # unknown: later graphs' exits are neither compared nor classified.
    src = (
        "sos Gap {\n"
        '  cs A "a" { nominal GA }\n'
        '  cs B "b" { nominal GB }\n'
        "  process GA owner A { entry a exits [a] action a 1t }\n"
        "  process GB owner B { entry b exits [b] action b 1t }\n"
        "  process RB owner B { entry done exits [done] action done 1t }\n"
        '  recovery R "r" {\n'
        "    graph A Nowhere\n"
        "    graph B RB\n"
        "    success [done, ghost]\n"
        "  }\n"
        "}\n"
    )
    result = dsl.parse(src)
    assert result.model is None
    assert [str(d) for d in result.diagnostics] == ["8:13: error: unknown process 'Nowhere'"]


# -- activity graph structure -------------------------------------------------


def _graph(nodes: list[Activity], edges: list[Edge], entry: str, exits: set[str]):
    return ActivityGraph(
        id="G",
        owner="A",
        nodes={a.id: a for a in nodes},
        edges=tuple(edges),
        entry=entry,
        exits=frozenset(exits),
    )


def _build_with(graph: ActivityGraph):
    return build_model(
        name="One",
        constituents=[ConstituentSystem("A", "a", "G")],
        processes=[graph],
    )


def fork_join_nodes() -> list[Activity]:
    return [
        action("start"),
        Activity("split", ActivityKind.FORK),
        action("left"),
        action("right"),
        Activity("meet", ActivityKind.JOIN),
        action("done"),
    ]


def test_well_nested_fork_join_is_accepted():
    graph = _graph(
        fork_join_nodes(),
        [
            Edge("start", "split"),
            Edge("split", "left"),
            Edge("split", "right"),
            Edge("left", "meet"),
            Edge("right", "meet"),
            Edge("meet", "done"),
        ],
        "start",
        {"done"},
    )
    model = _build_with(graph)
    assert "split" in model.processes["G"].nodes


def test_fork_without_matching_join_is_rejected():
    nodes = [
        action("start"),
        Activity("split", ActivityKind.FORK),
        action("left"),
        action("right"),
    ]
    graph = _graph(
        nodes,
        [Edge("start", "split"), Edge("split", "left"), Edge("split", "right")],
        "start",
        {"left", "right"},
    )
    with pytest.raises(GraphStructureError) as err:
        _build_with(graph)
    assert "matching join" in str(err.value)


def test_join_arity_must_match_fork_arity():
    nodes = fork_join_nodes() + [action("extra")]
    graph = _graph(
        nodes,
        [
            Edge("start", "split"),
            Edge("split", "left"),
            Edge("split", "right"),
            Edge("left", "meet"),
            Edge("right", "extra"),
            Edge("extra", "meet"),
            Edge("right", "meet"),
            Edge("meet", "done"),
        ],
        "start",
        {"done"},
    )
    with pytest.raises(GraphStructureError):
        _build_with(graph)


def test_duplicate_guard_labels_are_rejected():
    nodes = [
        Activity("choose", ActivityKind.DECISION),
        action("one"),
        action("two"),
    ]
    graph = _graph(
        nodes,
        [Edge("choose", "one", "same"), Edge("choose", "two", "same")],
        "choose",
        {"one", "two"},
    )
    with pytest.raises(GraphStructureError) as err:
        _build_with(graph)
    assert "duplicate guards" in str(err.value)


def test_two_default_edges_are_rejected():
    nodes = [Activity("choose", ActivityKind.DECISION), action("one"), action("two")]
    graph = _graph(
        nodes,
        [Edge("choose", "one"), Edge("choose", "two")],
        "choose",
        {"one", "two"},
    )
    with pytest.raises(GraphStructureError) as err:
        _build_with(graph)
    assert "defaults" in str(err.value)


def test_unreachable_node_is_rejected():
    graph = _graph(
        [action("start"), action("stray")],
        [],
        "start",
        {"start", "stray"},
    )
    with pytest.raises(GraphStructureError) as err:
        _build_with(graph)
    assert "unreachable" in str(err.value)


def test_node_that_cannot_reach_an_exit_is_rejected():
    nodes = [
        action("start", 1),
        Activity("loop", ActivityKind.DECISION),
        action("back", 1),
        action("out"),
    ]
    # "back" returns to the decision; nothing escapes to an exit from it, but
    # the decision itself can leave, so only a zero-time or exit check fires.
    graph = _graph(
        nodes,
        [
            Edge("start", "loop"),
            Edge("loop", "back", "again"),
            Edge("back", "loop"),
            Edge("loop", "out"),
        ],
        "start",
        {"out"},
    )
    model = _build_with(graph)  # the loop passes time and can exit: legal
    assert "loop" in model.processes["G"].nodes

    nodes2 = [action("start"), action("trap", 1), action("out")]
    graph2 = _graph(
        nodes2,
        [Edge("start", "trap"), Edge("start", "out")],
        "start",
        {"out", "trap"},
    )
    # trap is a sink, so it must be declared an exit; removing it from exits
    # must fail the sink/exit correspondence.
    graph3 = ActivityGraph(
        id="G",
        owner="A",
        nodes=graph2.nodes,
        edges=graph2.edges,
        entry="start",
        exits=frozenset({"out"}),
    )
    with pytest.raises(GraphStructureError):
        _build_with(graph3)


def test_zero_time_cycle_is_rejected():
    nodes = [
        action("start", 1),
        Activity("loop", ActivityKind.DECISION),
        action("back", 0),
        action("out"),
    ]
    graph = _graph(
        nodes,
        [
            Edge("start", "loop"),
            Edge("loop", "back", "again"),
            Edge("back", "loop"),
            Edge("loop", "out"),
        ],
        "start",
        {"out"},
    )
    with pytest.raises(GraphStructureError) as err:
        _build_with(graph)
    assert "cycle" in str(err.value)


def test_exits_are_normalised_to_a_frozenset():
    nodes = {"a": action("a"), "b": action("b")}
    listed = ActivityGraph("G", "A", nodes, (Edge("a", "b"),), "a", ["b", "b"])
    assert type(listed.exits) is frozenset
    assert listed == _graph(list(nodes.values()), [Edge("a", "b")], "a", {"b"})
    assert dataclasses.replace(listed, exits=("b",)) == listed


def test_default_edge_sorts_before_an_empty_guard_in_either_order():
    nodes = [Activity("d", ActivityKind.DECISION), action("x")]
    default, empty = Edge("d", "x"), Edge("d", "x", "")
    g1 = _graph(nodes, [default, empty], "d", {"x"})
    g2 = _graph(nodes, [empty, default], "d", {"x"})
    assert g1.edges == g2.edges == (default, empty)
    assert g1 == g2
    models = [_build_with(g) for g in (g1, g2)]
    assert models[0] == models[1]
    assert dsl.serialize(models[0]) == dsl.serialize(models[1])


def test_library_built_model_round_trips_with_listed_exits():
    graph = ActivityGraph("AlphaWork", "Alpha", {"one": action("one"), "two": action("two")},
                          (Edge("one", "two"),), "one", ["two"])
    model = build_model(
        name="Listed",
        constituents=[ConstituentSystem("Alpha", "Alpha system", "AlphaWork")],
        processes=[graph],
    )
    assert dsl.parse(dsl.serialize(model)).model == model


def test_send_requires_channel_and_channel_must_include_owner():
    with pytest.raises(FmafError):
        Activity("tx", ActivityKind.SEND, duration=1)
    parts = emergency_fragments()
    parts["processes"][0] = seq_graph(
        "CcWork",
        "CallCentre",
        [
            action("TakeCall"),
            Activity("Misuse", ActivityKind.SEND, duration=1, channel="TargetLink"),
        ],
    )
    with pytest.raises(GraphStructureError) as err:
        build_model(**parts)
    assert "TargetLink" in str(err.value)


# -- lift_cs_failure ----------------------------------------------------------


def radio_failure() -> ThreatNode:
    return ThreatNode("RadioDown", ThreatKind.FAILURE, "radio system down")


def test_lift_turns_cs_failure_into_sos_fault():
    model = build_model(**emergency_fragments())
    lifted = lift_cs_failure(model, radio_failure(), "Radio")
    assert lifted.kind is ThreatKind.FAULT
    assert lifted.description == "radio system down (failure of Radio)"


def test_lift_tags_the_originating_constituent():
    model = build_model(**emergency_fragments())
    node = ThreatNode("VehicleImmobile", ThreatKind.FAILURE, "vehicle immobile")
    lifted = lift_cs_failure(model, node, "ERU")
    assert lifted.kind is ThreatKind.FAULT
    assert "(failure of ERU)" in lifted.description
    assert lifted.id != node.id


def test_lift_rejects_non_failure_nodes():
    model = build_model(**emergency_fragments())
    err_node = ThreatNode("SomeError", ThreatKind.ERROR, "erroneous state")
    with pytest.raises(KindMismatchError):
        lift_cs_failure(model, err_node, "Radio")


def test_lift_rejects_unknown_constituents():
    model = build_model(**emergency_fragments())
    with pytest.raises(DanglingReferenceError):
        lift_cs_failure(model, radio_failure(), "Caller")


def test_lift_is_pure_and_repeatable():
    model = build_model(**emergency_fragments())
    first = lift_cs_failure(model, radio_failure(), "Radio")
    second = lift_cs_failure(model, radio_failure(), "Radio")
    assert first == second
    assert "RadioDown" not in model.threat_nodes


# -- partition_fault ----------------------------------------------------------


def partitionable_model():
    parts = emergency_fragments()
    parts["threat_nodes"] = [
        ThreatNode("Wrong.f", ThreatKind.FAULT, "wrong location recorded"),
        ThreatNode("Wrong.e", ThreatKind.ERROR, "unit heading to wrong place"),
        ThreatNode("Wrong.x", ThreatKind.FAILURE, "casualty not attended"),
    ]
    from fmaf.model import ThreatChain

    parts["chains"] = [
        ThreatChain(
            id="F3",
            fault="Wrong.f",
            error="Wrong.e",
            failure="Wrong.x",
            origin="CallCentre",
            detectors=("CallCentre", "ERU"),
        )
    ]
    return build_model(**parts)


def test_partition_produces_one_chain_per_variant():
    model = partitionable_model()
    result = partition_fault(
        model,
        "F3",
        [
            (".1", "Caller", [], ["CallCentre"]),
            (".2", "CallCentre", ["Coordinate"], ["CallCentre", "ERU"]),
            (".3", "Radio", ["Relay"], ["CallCentre", "ERU"]),
            (".4", "ERU", ["Respond"], ["ERU"]),
        ],
    )
    assert [c.id for c in result.chains] == ["F3.1", "F3.2", "F3.3", "F3.4"]
    assert [c.origin for c in result.chains] == ["Caller", "CallCentre", "Radio", "ERU"]
    assert all(c.fault == "Wrong.f" for c in result.chains)


def test_partition_derives_activations_for_variants_with_regions():
    model = partitionable_model()
    result = partition_fault(
        model,
        "F3",
        [
            (".2", "CallCentre", ["Coordinate"], ["CallCentre"]),
            (".4", "ERU", ["Respond"], ["ERU"]),
        ],
    )
    assert len(result.activations) == 2
    assert result.activations[0].threat == "F3.2"
    assert result.activations[0].region == frozenset({"Coordinate"})
    assert isinstance(result.activations[0].trigger, OnEntry)


def test_partition_three_eru_situations():
    model = partitionable_model()
    result = partition_fault(
        model,
        "F3",
        [
            (".a", "ERU", ["Respond"], ["ERU", "CallCentre"]),
            (".b", "ERU", ["Standby"], ["ERU", "CallCentre"]),
            (".c", "ERU", [], ["CallCentre"]),
        ],
    )
    assert len(result.chains) == 3
    assert len({c.id for c in result.chains}) == 3


def test_partition_empty_variants_changes_nothing():
    model = partitionable_model()
    result = partition_fault(model, "F3", [])
    assert result.chains == ()
    assert result.activations == ()
    assert set(model.chains) == {"F3"}


def test_partition_rejects_duplicate_suffixes():
    model = partitionable_model()
    with pytest.raises(DuplicateSuffixError):
        partition_fault(
            model,
            "F3",
            [(".1", "ERU", [], ["ERU"]), (".1", "Radio", [], ["ERU"])],
        )


def test_partition_rejects_unknown_base_and_origin():
    model = partitionable_model()
    with pytest.raises(DanglingReferenceError):
        partition_fault(model, "F9", [(".1", "ERU", [], ["ERU"])])
    with pytest.raises(DanglingReferenceError):
        partition_fault(model, "F3", [(".1", "Ghost", [], ["ERU"])])


@pytest.mark.parametrize(
    "variant, message",
    [
        (
            (".1", "ERU", [], ["ERU", "Ghost"]),
            "partition_fault variant detector references unknown element 'Ghost'",
        ),
        (
            (".1", "ERU", ["Respond", "Nowhere"], ["ERU"]),
            "partition_fault variant region references unknown activity 'Nowhere'",
        ),
    ],
    ids=["detector", "region"],
)
def test_partition_rejects_unknown_variant_detector_and_region(variant, message):
    model = partitionable_model()
    with pytest.raises(DanglingReferenceError) as excinfo:
        partition_fault(model, "F3", [variant])
    assert str(excinfo.value) == message


def test_partition_disjoint_regions_stay_disjoint():
    import random

    model = partitionable_model()
    activities = ["TakeCall", "Coordinate", "Standby", "Respond", "Relay"]
    rng = random.Random(7)
    for _ in range(25):
        picks = rng.sample(activities, k=3)
        result = partition_fault(
            model,
            "F3",
            [
                (".1", "CallCentre", [picks[0]], ["ERU"]),
                (".2", "ERU", [picks[1]], ["ERU"]),
                (".3", "Radio", [picks[2]], ["ERU"]),
            ],
        )
        regions = [a.region for a in result.activations]
        assert len({c.id for c in result.chains}) == 3
        for i in range(len(regions)):
            for j in range(i + 1, len(regions)):
                assert not (regions[i] & regions[j])
