"""Shared model builders for the test suite."""

from __future__ import annotations

import dataclasses

from fmaf.model import (
    ActivationSpec,
    Activity,
    ActivityGraph,
    ActivityKind,
    AtTime,
    Connection,
    ConnectionKind,
    ConstituentSystem,
    DetectionSpec,
    DetectionStyle,
    Edge,
    EnvironmentEntity,
    Probabilistic,
    RecoverySpec,
    SosModel,
    ThreatChain,
    ThreatKind,
    ThreatNode,
    Timeout,
    build_model,
)


def action(aid: str, duration: int = 1, name: str = "") -> Activity:
    return Activity(id=aid, kind=ActivityKind.ACTION, duration=duration, name=name)


def seq_graph(gid: str, owner: str, activities: list[Activity]) -> ActivityGraph:
    """A straight-line graph through the given activities."""
    edges = tuple(
        Edge(a.id, b.id) for a, b in zip(activities, activities[1:])
    )
    return ActivityGraph(
        id=gid,
        owner=owner,
        nodes={a.id: a for a in activities},
        edges=edges,
        entry=activities[0].id,
        exits=frozenset({activities[-1].id}),
    )


def mini_sos() -> SosModel:
    """Two constituents, one environment entity, one connection."""
    return build_model(
        name="Mini",
        constituents=[
            ConstituentSystem("Alpha", "Alpha system", "AlphaWork"),
            ConstituentSystem("Beta", "Beta system", "BetaWork"),
        ],
        environment=[EnvironmentEntity("Outside", "External party")],
        connections=[Connection("LinkAB", "LinkAB", "Alpha", "Beta")],
        processes=[
            seq_graph("AlphaWork", "Alpha", [action("a_one"), action("a_two")]),
            seq_graph("BetaWork", "Beta", [action("b_one")]),
        ],
    )


def emergency_fragments() -> dict:
    """Programmatic skeleton of the emergency response SoS.

    Five constituents (call centre, rescue unit, radio, mobile phone,
    phone system) and two environment entities (caller, target).
    """
    constituents = [
        ConstituentSystem("CallCentre", "Call centre and coordination software", "CcWork"),
        ConstituentSystem("ERU", "Emergency response unit", "EruWork"),
        ConstituentSystem("Radio", "Radio system", "RadioWork"),
        ConstituentSystem("MobilePhone", "Mobile phone network", "MobileWork"),
        ConstituentSystem("PhoneSystem", "Public phone system", "PhoneWork"),
    ]
    environment = [
        EnvironmentEntity("Caller", "Emergency caller"),
        EnvironmentEntity("Target", "Target casualty"),
    ]
    connections = [
        Connection("RadioIF_CC", "RadioIF", "Radio", "CallCentre"),
        Connection("RadioIF_ERU", "RadioIF", "Radio", "ERU"),
        Connection("PhoneLine_EXT", "EmergencyCallIF", "PhoneSystem", "Caller"),
        Connection("PhoneLine_CC", "InternalCallIF", "PhoneSystem", "CallCentre"),
        Connection("TargetLink", "AttendIF", "ERU", "Target"),
    ]
    processes = [
        seq_graph("CcWork", "CallCentre", [action("TakeCall"), action("Coordinate")]),
        seq_graph("EruWork", "ERU", [action("Standby"), action("Respond")]),
        seq_graph("RadioWork", "Radio", [action("Relay")]),
        seq_graph("MobileWork", "MobilePhone", [action("MobileStandby")]),
        seq_graph("PhoneWork", "PhoneSystem", [action("PhoneStandby")]),
    ]
    return {
        "name": "EmergencyResponse",
        "constituents": constituents,
        "environment": environment,
        "connections": connections,
        "processes": processes,
    }


def checker_fixture() -> SosModel:
    """A model passing every checker rule; mutation tests derive defects.

    Constituents A (origin), B (detector), C (connected spare), D (has a
    graph but no connections, referenced by nothing).
    """
    ga = seq_graph("GA", "A", [action("A_work", 2)])
    gb = seq_graph("GB", "B", [action("B_watch", 2)])
    gc = seq_graph("GC", "C", [action("C_assist", 1)])
    gd = seq_graph("GD", "D", [action("D_idle", 1)])
    rgb = ActivityGraph(
        id="RGB",
        owner="B",
        nodes={
            "call_out": Activity("call_out", ActivityKind.SEND, duration=1, channel="CallLine"),
            "notify": Activity("notify", ActivityKind.SEND, duration=1, channel="LinkBC"),
            "wrap_up": action("wrap_up", 1),
        },
        edges=(Edge("call_out", "notify"), Edge("notify", "wrap_up")),
        entry="call_out",
        exits=frozenset({"wrap_up"}),
    )
    return build_model(
        name="CheckerFixture",
        constituents=[
            ConstituentSystem("A", "Origin system", "GA"),
            ConstituentSystem("B", "Watcher system", "GB"),
            ConstituentSystem("C", "Spare system", "GC"),
            ConstituentSystem("D", "Isolated system", "GD"),
        ],
        environment=[EnvironmentEntity("E", "External party")],
        connections=[
            Connection("LinkAB", "LinkAB", "A", "B"),
            Connection("LinkBC", "LinkBC", "B", "C"),
            Connection("CallLine", "CallLine", "B", "E", kind=ConnectionKind.RECOVERY_ONLY),
        ],
        threat_nodes=[
            ThreatNode("Nf", ThreatKind.FAULT, "origin system stalls"),
            ThreatNode("Ne", ThreatKind.ERROR, "work backlog grows"),
            ThreatNode("Nx", ThreatKind.FAILURE, "service not delivered"),
        ],
        chains=[
            ThreatChain(
                id="CH1",
                fault="Nf",
                error="Ne",
                failure="Nx",
                origin="A",
                detectors=("B",),
            )
        ],
        processes=[ga, gb, gc, gd, rgb],
        activations=[
            ActivationSpec(
                id="ACT1",
                threat="CH1",
                origin_constituent="A",
                region=frozenset({"A_work"}),
                trigger=AtTime(1),
            )
        ],
        detections=[
            DetectionSpec(
                id="DET1",
                threat="CH1",
                detector="B",
                condition=Timeout(bound=5, watched="A"),
                recovery="REC1",
                style=DetectionStyle.SEPARATE_REGION,
            )
        ],
        recoveries=[
            RecoverySpec(
                id="REC1",
                name="watcher takes over",
                graphs={"B": "RGB"},
                success_exits=frozenset({"wrap_up"}),
            )
        ],
    )


def race_fixture() -> SosModel:
    """Three constituents racing three detection styles on one chain.

    P is the origin (self-report after 2 ticks), Q watches with a
    third-party report (p=0.5, 1 tick) and a slow timeout (15 ticks),
    and R assists Q's recovery over a recovery-only line.  Each
    detection names a different recovery, so the race winner is
    observable in the recovery steps as well as the outcome.
    """
    from fmaf.model import (
        ElapsedBetween,
        Count,
        MetricSpec,
        OnEntry,
        SelfReport,
        ThirdPartyReport,
    )

    gp = seq_graph("GP", "P", [action("p_setup", 1), action("p_serve", 4)])
    gp = ActivityGraph(
        id="GP",
        owner="P",
        nodes={
            **gp.nodes,
            "p_report": Activity("p_report", ActivityKind.SEND, duration=1, channel="LinkPQ"),
            "p_done": action("p_done", 1),
        },
        edges=gp.edges + (Edge("p_serve", "p_report"), Edge("p_report", "p_done")),
        entry="p_setup",
        exits=frozenset({"p_done"}),
    )
    gq = ActivityGraph(
        id="GQ",
        owner="Q",
        nodes={
            "q_wait": Activity("q_wait", ActivityKind.RECEIVE, duration=0, channel="LinkPQ"),
            "q_log": action("q_log", 1),
        },
        edges=(Edge("q_wait", "q_log"),),
        entry="q_wait",
        exits=frozenset({"q_log"}),
    )
    gr = seq_graph("GR", "R", [action("r_idle", 1)])
    rp = seq_graph("RP", "P", [action("fix_local", 2), action("resume", 1)])
    rq3 = ActivityGraph(
        id="RQ3",
        owner="Q",
        nodes={
            "summon": Activity("summon", ActivityKind.SEND, duration=1, channel="HelpLine"),
            "verify": action("verify", 1),
        },
        edges=(Edge("summon", "verify"),),
        entry="summon",
        exits=frozenset({"verify"}),
    )
    rr3 = ActivityGraph(
        id="RR3",
        owner="R",
        nodes={
            "r_answer": Activity("r_answer", ActivityKind.RECEIVE, duration=0, channel="HelpLine"),
            "r_assist": action("r_assist", 2),
        },
        edges=(Edge("r_answer", "r_assist"),),
        entry="r_answer",
        exits=frozenset({"r_assist"}),
    )
    rqt = seq_graph("RQT", "Q", [action("q_escalate", 1), action("q_takeover", 3)])
    return build_model(
        name="RaceFixture",
        constituents=[
            ConstituentSystem("P", "Worker", "GP"),
            ConstituentSystem("Q", "Watcher", "GQ"),
            ConstituentSystem("R", "Backup", "GR"),
        ],
        connections=[
            Connection("LinkPQ", "LinkPQ", "P", "Q"),
            Connection("HelpLine", "HelpLine", "Q", "R", kind=ConnectionKind.RECOVERY_ONLY),
        ],
        threat_nodes=[
            ThreatNode("Tf", ThreatKind.FAULT, "worker wedges mid-service"),
            ThreatNode("Te", ThreatKind.ERROR, "service stops progressing"),
            ThreatNode("Tx", ThreatKind.FAILURE, "request never completed"),
        ],
        chains=[
            ThreatChain(
                id="CH",
                fault="Tf",
                error="Te",
                failure="Tx",
                origin="P",
                detectors=("P", "Q"),
            )
        ],
        processes=[gp, gq, gr, rp, rq3, rr3, rqt],
        activations=[
            ActivationSpec(
                id="ACT",
                threat="CH",
                origin_constituent="P",
                region=frozenset({"p_serve"}),
                trigger=OnEntry("p_serve"),
            )
        ],
        detections=[
            DetectionSpec("DSELF", "CH", "P", SelfReport(2), "RSELF"),
            DetectionSpec("DTHIRD", "CH", "Q", ThirdPartyReport(0.5, 1), "RTHIRD"),
            DetectionSpec("DTIME", "CH", "Q", Timeout(bound=15, watched="P"), "RTIME"),
        ],
        recoveries=[
            RecoverySpec("RSELF", "origin restarts itself", {"P": "RP"},
                         success_exits=frozenset({"resume"})),
            RecoverySpec("RTHIRD", "watcher summons backup", {"Q": "RQ3", "R": "RR3"},
                         success_exits=frozenset({"verify", "r_assist"})),
            RecoverySpec("RTIME", "watcher takes over", {"Q": "RQT"},
                         success_exits=frozenset({"q_takeover"})),
        ],
        metrics=[
            MetricSpec("MDetect", ElapsedBetween("error-raised", "error-detected"),
                       name="time to detect"),
            MetricSpec("MFail", Count("failure-observed"), name="boundary failures"),
            MetricSpec("MServe", ElapsedBetween("activity-end:p_setup", "activity-end:p_serve"),
                       name="service time"),
        ],
    )


def coin_race_fixture() -> SosModel:
    """``race_fixture`` with its trigger replaced by ``Probabilistic(0.5)``
    on ``p_serve``: at simulator seeds 0, 2, 5 and 6 of 0-9 the fault never
    activates."""
    model = race_fixture()
    activation = dataclasses.replace(model.activations["ACT"], trigger=Probabilistic(0.5))
    return dataclasses.replace(model, activations={"ACT": activation})


def random_model(rng) -> SosModel:
    """A small random but always structurally valid model.

    Drives the parse/serialize round-trip tests over a wide range of
    shapes: every activity kind, both connection kinds, guarded
    decisions, fork/join blocks, all trigger and detection condition
    variants, recoverable and unrecoverable chains, and metrics of both
    flavours.  Determined entirely by ``rng``.
    """
    from fmaf.model import (
        Count,
        ElapsedBetween,
        EVENT_KINDS,
        FailureObservation,
        MetricSpec,
        OnEntry,
        SelfReport,
        ThirdPartyReport,
    )

    names = ["", "plain name", 'quoted "name"', "tab\there", "back\\slash", "two\nlines"]
    guards = ["go", "broken-down", "crashed", "none"]

    n_cs = rng.randint(1, 3)
    cs_ids = [f"Sys{i}" for i in range(n_cs)]
    processes = []
    rec_graphs: dict[str, str] = {}
    acts_by_graph: dict[str, list[str]] = {}

    for i, cs in enumerate(cs_ids):
        gid = f"Work{i}"
        pattern = rng.choice(["line", "decision", "forkjoin"])
        nodes: dict[str, Activity] = {}
        edges: list[Edge] = []

        def act(aid: str, kind=ActivityKind.ACTION, **kw) -> str:
            nodes[aid] = Activity(
                id=aid, kind=kind, name=rng.choice(names),
                duration=kw.pop("duration", rng.randint(0, 3)), **kw
            )
            return aid

        p = f"n{i}_"
        if pattern == "line":
            steps = [act(f"{p}{k}") for k in range(rng.randint(1, 4))]
            edges += [Edge(a, b) for a, b in zip(steps, steps[1:])]
            entry, exit_ = steps[0], steps[-1]
        elif pattern == "decision":
            entry = act(f"{p}in")
            d = act(f"{p}pick", ActivityKind.DECISION, duration=0)
            x, y, z = act(f"{p}x"), act(f"{p}y"), act(f"{p}out")
            edges += [Edge(entry, d), Edge(d, x, rng.choice(guards)), Edge(d, y),
                      Edge(x, z), Edge(y, z)]
            exit_ = z
        else:
            entry = act(f"{p}in")
            f_, j = act(f"{p}split", ActivityKind.FORK, duration=0), act(
                f"{p}merge", ActivityKind.JOIN, duration=0)
            a, b, z = act(f"{p}a"), act(f"{p}b"), act(f"{p}out")
            edges += [Edge(entry, f_), Edge(f_, a), Edge(f_, b),
                      Edge(a, j), Edge(b, j), Edge(j, z)]
            exit_ = z
        if rng.random() < 0.4:
            t = act(f"{p}wait", ActivityKind.TIMER, duration=0,
                    timer_bound=rng.randint(0, 4))
            edges.append(Edge(exit_, t))
            exit_ = t
        processes.append(ActivityGraph(
            id=gid, owner=cs, nodes=nodes, edges=tuple(edges),
            entry=entry, exits=frozenset({exit_}),
        ))
        acts_by_graph[gid] = sorted(nodes)

        rg = f"Mend{i}"
        steps = [Activity(id=f"r{i}_{k}", kind=ActivityKind.ACTION,
                          duration=rng.randint(0, 2), name=rng.choice(names))
                 for k in range(rng.randint(1, 2))]
        processes.append(seq_graph(rg, cs, steps))
        rec_graphs[cs] = rg
        acts_by_graph[rg] = sorted(a.id for a in steps)

    connections = []
    for i in range(n_cs - 1):
        connections.append(Connection(
            id=f"Link{i}", interface_id=rng.choice([f"Link{i}", f"IF{i}"]),
            provider=cs_ids[i], consumer=cs_ids[i + 1],
            kind=rng.choice(list(ConnectionKind)),
            latency=rng.randint(0, 3),
            reliability=rng.choice([0.0, 0.25, 0.5, 0.9, 1.0]),
        ))
    environment = []
    if rng.random() < 0.7:
        uses = frozenset(
            c.id for c in connections if rng.random() < 0.5
        )
        environment.append(EnvironmentEntity("World", rng.choice(names), uses))
        if connections and rng.random() < 0.5:
            connections.append(Connection(
                id="OutLine", interface_id="OutLine", provider="World",
                consumer=rng.choice(cs_ids), kind=ConnectionKind.RECOVERY_ONLY,
            ))

    # messaging over an existing link, owner always an endpoint
    if connections and rng.random() < 0.6:
        conn = connections[0]
        gid = "Chat"
        s = Activity(id="say", kind=ActivityKind.SEND, channel=conn.id,
                     duration=rng.randint(0, 2))
        r = Activity(id="hear", kind=ActivityKind.RECEIVE, channel=conn.id)
        done = Activity(id="done", kind=ActivityKind.ACTION, duration=1)
        processes.append(ActivityGraph(
            id=gid, owner=conn.provider,
            nodes={a.id: a for a in (s, r, done)},
            edges=(Edge("say", "hear"), Edge("hear", "done")),
            entry="say", exits=frozenset({"done"}),
        ))
        acts_by_graph[gid] = ["done", "hear", "say"]

    elements = cs_ids + [e.id for e in environment]
    threat_nodes, chains, activations, detections, recoveries = [], [], [], [], []
    for j in range(rng.randint(0, 2)):
        for kind, tag in ((ThreatKind.FAULT, "f"), (ThreatKind.ERROR, "e"),
                          (ThreatKind.FAILURE, "x")):
            threat_nodes.append(ThreatNode(
                id=f"T{j}.{tag}", kind=kind, description=rng.choice(names) or "d",
                category=rng.choice([None, "Cat"]),
            ))
        unrec = rng.random() < 0.25
        detectors = () if unrec else tuple(
            rng.sample(cs_ids, rng.randint(1, len(cs_ids))))
        chains.append(ThreatChain(
            id=f"T{j}", fault=f"T{j}.f", error=f"T{j}.e", failure=f"T{j}.x",
            origin=rng.choice(elements), detectors=detectors,
            failure_observation=rng.choice(list(FailureObservation)),
            unrecoverable=unrec,
        ))
        cs_i = rng.randrange(n_cs)
        gid = f"Work{cs_i}"
        region = rng.sample(acts_by_graph[gid], rng.randint(1, len(acts_by_graph[gid])))
        trigger = rng.choice([
            AtTime(rng.randint(0, 9)),
            OnEntry(rng.choice(region)),
            Probabilistic(rng.choice([0.25, 0.5, 1.0])),
        ])
        activations.append(ActivationSpec(
            id=f"T{j}.on", threat=f"T{j}", origin_constituent=cs_ids[cs_i],
            region=frozenset(region), trigger=trigger,
        ))
        if detectors:
            owner = rng.choice(list(rec_graphs))
            rid = f"R{j}"
            exits = acts_by_graph[rec_graphs[owner]][-1:]
            role = rng.choice(["success", "abort", "unlisted"])
            recoveries.append(RecoverySpec(
                id=rid, name=rng.choice(names),
                graphs={owner: rec_graphs[owner]},
                success_exits=frozenset(exits if role == "success" else []),
                abort_exits=frozenset(exits if role == "abort" else []),
            ))
            condition = rng.choice([
                SelfReport(rng.randint(0, 5)),
                Timeout(rng.randint(1, 20), rng.choice(elements)),
                ThirdPartyReport(rng.choice([0.25, 0.5, 1.0]), rng.randint(0, 3)),
            ])
            detections.append(DetectionSpec(
                id=f"T{j}.see", threat=f"T{j}", detector=rng.choice(detectors),
                condition=condition, recovery=rid,
                style=rng.choice(list(DetectionStyle)),
            ))

    metrics = []
    quals = [None] + elements + [c.id for c in chains] + [
        t.id for t in threat_nodes] + [c.id for c in connections]
    all_acts = [a for ids in acts_by_graph.values() for a in ids]
    quals += all_acts
    for k in range(rng.randint(0, 2)):
        def pat() -> str:
            kind = rng.choice(EVENT_KINDS)
            q = rng.choice(quals)
            return kind if q is None else f"{kind}:{q}"
        kind_obj = (ElapsedBetween(pat(), pat()) if rng.random() < 0.5
                    else Count(pat()))
        metrics.append(MetricSpec(
            id=f"M{k}", kind=kind_obj, name=rng.choice(names),
            target=rng.choice([None, rng.randint(1, 50)]),
        ))

    return build_model(
        name=f"Rand{rng.randint(0, 999)}",
        constituents=[
            ConstituentSystem(
                cs, rng.choice(names), f"Work{i}",
                provided_interfaces=frozenset(
                    [f"IF{i}"] if rng.random() < 0.5 else []),
                required_interfaces=frozenset(
                    [f"IF{(i + 1) % n_cs}"] if rng.random() < 0.3 else []),
            )
            for i, cs in enumerate(cs_ids)
        ],
        environment=environment,
        connections=connections,
        threat_nodes=threat_nodes,
        chains=chains,
        processes=processes,
        activations=activations,
        detections=detections,
        recoveries=recoveries,
        metrics=metrics,
    )


def fixture_mutants() -> list[tuple[str, str, SosModel]]:
    """Single-defect variants of checker_fixture, one per catalog rule.

    Built with dataclasses.replace so that defects the model constructors
    would normally reject still reach the checker.  Returns
    (rule_id, defect label, model) triples.
    """
    from fmaf.model import FailureObservation

    base = checker_fixture()

    def with_chain(**kw) -> SosModel:
        ch = dataclasses.replace(base.chains["CH1"], **kw)
        return dataclasses.replace(base, chains={"CH1": ch})

    def with_activation(**kw) -> SosModel:
        a = dataclasses.replace(base.activations["ACT1"], **kw)
        return dataclasses.replace(base, activations={"ACT1": a})

    rgb = base.processes["RGB"]

    def with_node(node_id: str, **kw) -> SosModel:
        node = dataclasses.replace(rgb.nodes[node_id], **kw)
        graph = dataclasses.replace(rgb, nodes={**rgb.nodes, node_id: node})
        return dataclasses.replace(base, processes={**base.processes, "RGB": graph})

    rec_d = dataclasses.replace(base.recoveries["REC1"], graphs={"B": "RGB", "D": "GD"})
    thin_defs = {k: v for k, v in base.threat_nodes.items() if k != "Ne"}
    ghost_det = dataclasses.replace(base.detections["DET1"], recovery="Ghost")

    return [
        ("R1", "failure observed internally",
         with_chain(failure_observation=FailureObservation.INTERNAL)),
        ("R2", "chain origin in the environment", with_chain(origin="E")),
        ("R2", "activation origin in the environment",
         with_activation(origin_constituent="E")),
        ("R3", "recovery involves an unconnected constituent",
         dataclasses.replace(base, recoveries={"REC1": rec_d})),
        ("R4", "chain references an undefined threat node",
         dataclasses.replace(base, threat_nodes=thin_defs)),
        ("R5", "detection names an unknown recovery",
         dataclasses.replace(base, detections={"DET1": ghost_det})),
        ("R5", "listed detector lacks a detection spec",
         with_chain(detectors=("B", "C"))),
        ("R6", "recovery send over an undeclared connection",
         with_node("notify", channel="Ghost")),
        ("R7", "region outside the origin's nominal graph",
         with_activation(region=frozenset({"B_watch"}))),
        ("R8", "recovery-only connection unused",
         with_node("call_out", channel="LinkBC")),
    ]
