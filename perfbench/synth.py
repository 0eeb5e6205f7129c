"""Seeded synthetic system-of-systems models for the benchmark.

Every model has the same skeleton, scaled by a :class:`Shape`:

- a ``Hub`` constituent and ``spokes`` constituents ``S1..Sn``, an
  environment entity ``Caller``;
- per spoke a reliable control link ``CtlI`` (the hub sends ``go``, the
  spoke answers ``fin``) and a lossy telemetry link ``TelI`` that only
  carries fire-and-forget sends;
- per constituent a nominal graph of about ``length`` activities made of
  actions, timers, telemetry sends, guarded decisions and (nested)
  fork/join blocks;
- an ``Early`` chain that strikes the hub on entry to ``H.work``, after
  ``lossy_before_fault`` telemetry sends and before the hub sends any
  ``go``; the spokes never start, so the only Bernoulli choices of an
  ``Early`` run are those sends and the third-party reports, and the
  outcome set follows from the detection specs alone (:func:`predict`);
- spoke chains ``F1..Fk`` with at-time, on-entry and probabilistic(1.0)
  activations and self-report, timeout and third-party detections;
- optional planted checker hits (``defects``), whose findings the
  generator lists itself.

The source text is written here, line by line, in a non-canonical
declaration order; it never goes through ``serialize``.  The reference
model is built from the same records through the public constructors
and ``build_model``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import product

from fmaf import model as M
from fmaf.simulator import SimConfig

HORIZON = 20000

#: Simulator seed at which the probabilistic fixture's two region draws
#: both come out >= 0.5 (``random.Random(0)`` yields 0.844 and 0.758), so
#: its trigger never fires.
PROB_FIXTURE_SEED = 0

#: Branches of every fork block.
FORK_WIDTH = 2

#: Chance that a seed sweep misses an outcome it must reach.
MISS = 1e-9


@dataclass(frozen=True)
class Shape:
    spokes: int = 3
    length: int = 12
    forks: float = 0.0
    fork_depth: int = 1
    decisions: float = 0.2
    telemetry: float = 0.15
    reliability: float = 0.9
    lossy_before_fault: int = 0
    third_party: int = 1
    spoke_chains: int = 2
    defects: tuple[str, ...] = ()


@dataclass
class Config:
    """One simulator configuration plus what the generator knows of it."""

    name: str
    scenario: str | None
    enabled: tuple[str, ...] | None = None
    guards: dict[str, str] = field(default_factory=dict)
    recovery: bool = True
    #: predicted outcome -> exact probability, for ``Early`` configs only
    predicted: dict[tuple[str | None, str], float] | None = None

    def sim(self, seed: int = 0) -> SimConfig:
        return SimConfig(
            scenario=self.scenario,
            seed=seed,
            horizon=HORIZON,
            enabled_detectors=None if self.enabled is None else frozenset(self.enabled),
            guard_inputs=self.guards,
            recovery_enabled=self.recovery,
        )


@dataclass
class Synth:
    name: str
    text: str
    model: M.SosModel | None
    findings: set[tuple[str, str, str, str | None]]
    forked: bool
    activities: int
    faults: list[Config] = field(default_factory=list)
    nominals: list[Config] = field(default_factory=list)
    early: list[Config] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Activity graphs


class _Graph:
    def __init__(self, gid: str, owner: str, prefix: str) -> None:
        self.id = gid
        self.owner = owner
        self.prefix = prefix
        self.nodes: list[tuple] = []  # (kind, id, name, duration, channel, bound)
        self.edges: list[tuple[str, str, str | None]] = []
        self.main: list[str] = []  # entered on every path through the graph
        self.decisions: list[tuple[str, list[str]]] = []
        self.forks = 0
        self.entry = ""

    def add(self, kind, name="", duration=0, channel=None, bound=None, main=True, ident=None):
        nid = ident or f"{self.prefix}{len(self.nodes)}"
        self.nodes.append((kind, nid, name, duration, channel, bound))
        if main:
            self.main.append(nid)
        return nid

    def edge(self, src, dst, guard=None):
        self.edges.append((src, dst, guard))

    def exits(self) -> list[str]:
        sources = {e[0] for e in self.edges}
        return sorted(n[1] for n in self.nodes if n[1] not in sources)

    def text(self, rng: random.Random) -> list[str]:
        out = [f"  process {self.id} owner {self.owner} {{", f"    entry {self.entry}"]
        exits = self.exits()
        rng.shuffle(exits)
        out.append(f"    exits [{', '.join(exits)}]")
        for kind, nid, name, duration, channel, bound in self.nodes:
            line = f"    {kind} {nid}"
            if name:
                line += f' "{name}"'
            if channel is not None:
                line += f" on {channel}"
            if kind == "timer":
                line += f" {bound}t"
            elif duration or (kind == "action" and rng.random() < 0.2):
                line += f" {duration}t"
            out.append(line)
        edges = list(self.edges)
        rng.shuffle(edges)
        for src, dst, guard in edges:
            out.append(f"    edge {src} -> {dst}" + (f' when "{guard}"' if guard else ""))
        out.append("  }")
        return out

    def build(self) -> M.ActivityGraph:
        nodes = {
            nid: M.Activity(
                id=nid,
                kind=M.ActivityKind(kind),
                name=name,
                duration=duration,
                channel=channel,
                timer_bound=bound,
            )
            for kind, nid, name, duration, channel, bound in self.nodes
        }
        return M.ActivityGraph(
            id=self.id,
            owner=self.owner,
            nodes=nodes,
            edges=tuple(M.Edge(s, d, g) for s, d, g in self.edges),
            entry=self.entry,
            exits=frozenset(self.exits()),
        )


def _branch(shape: Shape, depth: int) -> int:
    """Activities on each branch of a fork opened at ``depth``: one
    nested fork block plus two actions, down to ``fork_depth``."""
    if depth + 1 >= shape.fork_depth:
        return 2
    return _fork_size(shape, depth + 1) + 2


def _fork_size(shape: Shape, depth: int) -> int:
    """Activities in one fork/join block opened at ``depth``."""
    return 2 + FORK_WIDTH * _branch(shape, depth)


def _body(g: _Graph, rng: random.Random, shape: Shape, budget: int, depth: int,
          main: bool, telemetry: list[str]) -> tuple[str, str]:
    """Append a sequence of exactly ``budget`` activities; return (head, tail).

    The shares of the shape fix how many blocks of each kind the sequence
    holds, so every seed gives the same make-up; the seed orders the
    blocks and picks names, durations, channels and guard labels.
    """
    blocks: list[str] = []
    if depth < shape.fork_depth and shape.forks:
        forks = int(budget * shape.forks // _fork_size(shape, depth))
        blocks += ["fork"] * (max(forks, 1) if depth else forks)
    blocks += ["decision"] * int((budget - _sizes(shape, depth, blocks)) * shape.decisions // 5)
    if telemetry:
        blocks += ["send"] * int(budget * shape.telemetry)
    blocks += ["timer"] * int(budget * 0.1)
    blocks += ["action"] * max(1, budget - _sizes(shape, depth, blocks))
    rng.shuffle(blocks)
    head = tail = None
    for kind in blocks:
        if kind == "fork":
            fork = g.add("fork", main=main)
            g.forks += 1
            ends = [_body(g, rng, shape, _branch(shape, depth), depth + 1, main, telemetry)
                    for _ in range(FORK_WIDTH)]
            join = g.add("join", main=main)
            for first, last in ends:
                g.edge(fork, first)
                g.edge(last, join)
            first, last = fork, join
        elif kind == "decision":
            first = g.add("decision", main=main)
            g.decisions.append((first, ["opt1", "opt2"]))
            last = f"{g.prefix}{len(g.nodes)}m"
            for guard in ("opt1", "opt2", None):
                arm = g.add("action", duration=rng.randint(0, 3), main=False)
                g.edge(first, arm, guard)
                g.edge(arm, last)
            g.add("action", name="merge", duration=1, main=main, ident=last)
        elif kind == "send":
            first = last = g.add("send", duration=1, channel=rng.choice(telemetry), main=main)
        elif kind == "timer":
            first = last = g.add("timer", bound=rng.randint(1, 3), main=main)
        else:
            name = f"Step {len(g.nodes)}" if rng.random() < 0.5 else ""
            first = last = g.add("action", name=name, duration=rng.randint(0, 3), main=main)
        if tail is None:
            head = first
        else:
            g.edge(tail, first)
        tail = last
    return head, tail


def _sizes(shape: Shape, depth: int, blocks: list[str]) -> int:
    size = {"fork": _fork_size(shape, depth), "decision": 5}
    return sum(size.get(kind, 1) for kind in blocks)


# ---------------------------------------------------------------------------
# Outcome prediction


def predict(dets: list[tuple[str, str, str, int, float]], enabled: tuple[str, ...],
            aborting: set[str], recovery: bool) -> dict[tuple[str | None, str], float]:
    """Exact outcome distribution of an ``Early`` run.

    ``dets`` holds (spec id, detector, kind, delay, probability) with kind
    ``self``, ``timeout`` or ``third``; every spec fires at error time plus
    its delay, a third-party one only when its draw succeeds.  The
    earliest (delay, spec id) among firing enabled specs wins; a winner in
    ``aborting`` ends at an abort exit.  Nothing firing, or recovery off,
    lets the failure reach the boundary.
    """
    if not recovery:
        return {(None, "failed-at-boundary"): 1.0}
    live = [d for d in dets if d[1] in enabled]
    third = [d for d in live if d[2] == "third"]
    out: dict[tuple[str | None, str], float] = {}
    for draws in product((True, False), repeat=len(third)):
        weight = 1.0
        fired = {d[0] for d in live if d[2] != "third"}
        for spec, ok in zip(third, draws):
            weight *= spec[4] if ok else 1.0 - spec[4]
            if ok:
                fired.add(spec[0])
        winners = sorted((d[3], d[0], d[1]) for d in live if d[0] in fired)
        if not winners:
            key = (None, "failed-at-boundary")
        elif winners[0][1] in aborting:
            key = (None, "failed-at-boundary")
        else:
            key = (winners[0][2], "recovered")
        out[key] = out.get(key, 0.0) + weight
    return out


def seeds_to_cover(predicted: dict) -> int:
    """Seeded runs needed so each outcome is missed with probability < ``MISS``."""
    rarest = min(predicted.values())
    if rarest >= 1.0:
        return 1
    return math.ceil(math.log(MISS) / math.log(1.0 - rarest))


#: Seeds that reach every outcome of any ``Early`` configuration: with at
#: most two third-party reports of probability 0.4 to 0.6, no outcome is
#: rarer than 0.4 * 0.4.
COVER_SEEDS = seeds_to_cover({"rarest": 0.4 * 0.4})


# ---------------------------------------------------------------------------
# Whole models


def generate(name: str, seed: int, shape: Shape) -> Synth:
    rng = random.Random(seed)
    spokes = [f"S{i}" for i in range(1, shape.spokes + 1)]
    blocks: list[list[str]] = []
    cons: list[M.ConstituentSystem] = []
    env: list[M.EnvironmentEntity] = []
    conns: list[M.Connection] = []
    threats: list[M.ThreatNode] = []
    chains: list[M.ThreatChain] = []
    graphs: list[_Graph] = []
    acts: list[M.ActivationSpec] = []
    dets: list[M.DetectionSpec] = []
    recs: list[M.RecoverySpec] = []
    metrics: list[M.MetricSpec] = []
    findings: set[tuple[str, str, str, str | None]] = set()

    def constituent(cid: str, label: str, nominal: str) -> None:
        cons.append(M.ConstituentSystem(cid, label, nominal))
        blocks.append([f'  cs {cid} "{label}" {{ nominal {nominal} }}'])

    def connection(cid, a, b, reliability=1.0, latency=1, recovery_only=False) -> None:
        kind = M.ConnectionKind.RECOVERY_ONLY if recovery_only else M.ConnectionKind.NOMINAL
        conns.append(M.Connection(cid, cid, a, b, kind, latency, reliability))
        fields = []
        if recovery_only:
            fields.append("kind recovery_only")
        if latency != 1:
            fields.append(f"latency {latency}t")
        if reliability != 1.0:
            fields.append(f"reliability {reliability!r}")
        body = " { " + "  ".join(fields) + " }" if fields else ""
        blocks.append([f"  connection {cid}: {a} <-> {b}{body}"])

    def threat(kind: M.ThreatKind, tid: str, text: str) -> None:
        threats.append(M.ThreatNode(tid, kind, text))
        blocks.append([f'  {kind.value} {tid} "{text}"'])

    def chain(cid, origin, detectors, internal=False) -> None:
        chains.append(M.ThreatChain(
            cid, "Flt", "Err", "Fail", origin, tuple(detectors),
            M.FailureObservation.INTERNAL if internal else M.FailureObservation.SOS_BOUNDARY,
        ))
        lines = [f"  chain {cid} {{", "    origin " + origin, "    fault Flt",
                 "    error Err", "    failure Fail", f"    detectors [{', '.join(detectors)}]"]
        if internal:
            lines.append("    observed internal")
        blocks.append(lines + ["  }"])

    def activation(chain_id, origin, region, trigger) -> str:
        aid = f"{chain_id}.act"
        if isinstance(trigger, M.OnEntry):
            trig = f"on_entry {trigger.activity}"
        elif isinstance(trigger, M.AtTime):
            trig = f"at_time {trigger.time}t"
        else:
            trig = f"probabilistic {trigger.probability!r}"
        acts.append(M.ActivationSpec(aid, chain_id, origin, frozenset(region), trigger))
        blocks.append([f"  activation {aid} {{", f"    trigger {trig}", f"    chain {chain_id}",
                       f"    origin {origin}", f"    region [{', '.join(region)}]", "  }"])
        return aid

    def recovery_graph(rid: str, owner: str, abort: bool, send: str | None = None,
                       receive: str | None = None) -> tuple[_Graph, list[str], list[str]]:
        g = _Graph(f"{rid}.{owner}", owner, f"{rid}.{owner}.n")
        prev = g.entry = g.add("receive", channel=receive) if receive else g.add(
            "action", name="Assess", duration=1)
        for _ in range(2):
            nxt = g.add("action", duration=rng.randint(1, 3))
            g.edge(prev, nxt)
            prev = nxt
        if send:
            nxt = g.add("send", name="Coordinate", duration=1, channel=send)
            g.edge(prev, nxt)
            prev = nxt
        done = g.add("action", name="Done", duration=1, ident=f"{rid}.{owner}.done")
        if abort:
            choice = g.add("decision", ident=f"{rid}.choice")
            g.decisions.append((choice, ["abort"]))
            quit_ = g.add("action", name="Give up", duration=1, ident=f"{rid}.{owner}.quit")
            g.edge(prev, choice)
            g.edge(choice, quit_, "abort")
            g.edge(choice, done)
            return g, [done], [quit_]
        g.edge(prev, done)
        return g, [done], []

    def detection(chain_id, detector, cond, style_shared, rid, graphs_of) -> None:
        did = f"{chain_id}.d.{detector}"
        dets.append(M.DetectionSpec(
            did, chain_id, detector, cond, rid,
            M.DetectionStyle.SHARED_REGION if style_shared else M.DetectionStyle.SEPARATE_REGION,
        ))
        if isinstance(cond, M.SelfReport):
            ctext = f"self_report {cond.delay}t"
        elif isinstance(cond, M.Timeout):
            ctext = f"timeout {cond.bound}t watching {cond.watched}"
        else:
            ctext = f"third_party {cond.probability!r} {cond.delay}t"
        lines = [f"  detection {did} {{", f"    detector {detector}", f"    chain {chain_id}",
                 f"    recovery {rid}", f"    condition {ctext}"]
        if style_shared:
            lines.append("    style shared")
        blocks.append(lines + ["  }"])
        success: list[str] = []
        abort: list[str] = []
        gids = []
        for g, ok, bad in graphs_of:
            graphs.append(g)
            success += ok
            abort += bad
            gids.append((g.owner, g.id))
        recs.append(M.RecoverySpec(rid, f"Recover {chain_id}", dict(gids),
                                   frozenset(success), frozenset(abort)))
        lines = [f'  recovery {rid} "Recover {chain_id}" {{']
        lines += [f"    graph {owner} {gid}" for owner, gid in gids]
        lines.append(f"    success [{', '.join(success)}]")
        if abort:
            lines.append(f"    abort [{', '.join(abort)}]")
        blocks.append(lines + ["  }"])

    # -- structure
    constituent("Hub", "Coordinating hub", "HubNominal")
    for s in spokes:
        constituent(s, f"Spoke {s}", f"{s}Nominal")
    env.append(M.EnvironmentEntity("Caller", "Member of the public", frozenset({"CallIn"})))
    blocks.append(['  env Caller "Member of the public" { uses [CallIn] }'])
    connection("CallIn", "Caller", "Hub")
    for i, s in enumerate(spokes, 1):
        connection(f"Ctl{i}", "Hub", s)
        connection(f"Tel{i}", s, "Hub", reliability=shape.reliability,
                   latency=rng.randint(1, 2))
    connection("Rec1", "Hub", spokes[0], recovery_only=True)
    threat(M.ThreatKind.FAULT, "Flt", "a constituent stops serving")
    threat(M.ThreatKind.ERROR, "Err", "work is not progressing")
    threat(M.ThreatKind.FAILURE, "Fail", "the mission is not served")

    hub = _Graph("HubNominal", "Hub", "H.")
    hub.entry = hub.add("action", name="Boot", duration=2, ident="H.boot")
    prev = hub.entry
    tel_all = [f"Tel{i}" for i in range(1, shape.spokes + 1)]
    for j in range(shape.lossy_before_fault):
        node = hub.add("send", duration=1, channel=tel_all[j % len(tel_all)], ident=f"H.tx{j}")
        hub.edge(prev, node)
        prev = node
    work = hub.add("action", name="Work", duration=1, ident="H.work")
    hub.edge(prev, work)
    prev = work
    for i in range(1, shape.spokes + 1):
        node = hub.add("send", duration=1, channel=f"Ctl{i}", ident=f"H.go{i}")
        hub.edge(prev, node)
        prev = node
    head, tail = _body(hub, rng, shape, shape.length, 0, True, tel_all)
    hub.edge(prev, head)
    prev = tail
    for i in range(1, shape.spokes + 1):
        node = hub.add("receive", channel=f"Ctl{i}", ident=f"H.fin{i}")
        hub.edge(prev, node)
        prev = node
    close = hub.add("action", name="Close", duration=1, ident="H.close")
    hub.edge(prev, close)
    graphs.append(hub)

    spoke_graphs = {}
    for i, s in enumerate(spokes, 1):
        g = _Graph(f"{s}Nominal", s, f"{s}.")
        g.entry = g.add("receive", name="Await go", channel=f"Ctl{i}", ident=f"{s}.go")
        head, tail = _body(g, rng, shape, shape.length, 0, True, [f"Tel{i}"])
        g.edge(g.entry, head)
        fin = g.add("send", duration=1, channel=f"Ctl{i}", ident=f"{s}.fin")
        idle = g.add("action", name="Idle", duration=1, ident=f"{s}.idle")
        g.edge(tail, fin)
        g.edge(fin, idle)
        graphs.append(g)
        spoke_graphs[s] = g

    # -- the Early chain on the hub
    early_dets = []
    candidates = list(spokes)
    rng.shuffle(candidates)
    kinds = ["third"] * min(shape.third_party, len(candidates)) + ["timeout"]
    early_detectors = ["Hub"] + candidates[: len(kinds)]
    chain("Early", "Hub", early_detectors)
    activation("Early", "Hub", ["H.work"], M.OnEntry("H.work"))
    # Delays by role keep the cost of a run alike across seeds: third-party
    # reports first (so their draws decide), then the hub, then the timeout.
    delays = {"third": iter((1, 2)), "self": iter((3,)), "timeout": iter((5,))}
    quitter = rng.choice(early_detectors)
    aborting: set[str] = set()
    for detector, kind in zip(early_detectors, ["self"] + kinds):
        delay = next(delays[kind])
        did = f"Early.d.{detector}"
        rid = f"R.Early.{detector}"
        abort = detector == quitter
        if abort:
            aborting.add(did)
        if kind == "self":
            cond, prob = M.SelfReport(delay), 1.0
        elif kind == "timeout":
            cond, prob = M.Timeout(delay, "Hub"), 1.0
        else:
            prob = round(rng.uniform(0.4, 0.6), 2)
            cond = M.ThirdPartyReport(prob, delay)
        if detector == "Hub":
            pair = [recovery_graph(rid, "Hub", abort, send="Rec1"),
                    recovery_graph(rid, spokes[0], False, receive="Rec1")]
        else:
            pair = [recovery_graph(rid, detector, abort)]
        detection("Early", detector, cond, rng.random() < 0.5, rid, pair)
        early_dets.append((did, detector, kind, delay, prob))

    # -- spoke chains
    fault_chains = []
    for i, s in enumerate(spokes[: shape.spoke_chains], 1):
        cid = f"F{i}"
        g = spoke_graphs[s]
        main = [n for n in g.main if n != g.entry][:6] or [g.entry]
        other = spokes[i % len(spokes)]
        detectors = [s, "Hub"] + ([other] if other != s else [])
        chain(cid, s, detectors)
        kind = i % 3
        if kind == 0:
            trigger, region = M.AtTime(rng.randint(3, 9)), main[:2]
        elif kind == 1:
            trigger, region = M.OnEntry(main[-1]), [main[-1]]
        else:
            trigger, region = M.Probabilistic(1.0), main[:3]
        activation(cid, s, region, trigger)
        conds = [M.SelfReport(2), M.Timeout(4, s),
                 M.ThirdPartyReport(round(rng.uniform(0.4, 0.6), 2), 1)]
        for detector, cond in zip(detectors, conds):
            rid = f"R.{cid}.{detector}"
            detection(cid, detector, cond, rng.random() < 0.5, rid,
                      [recovery_graph(rid, detector, False)])
        fault_chains.append((cid, detectors))

    # -- planted checker hits
    if "R1" in shape.defects:
        chain("Xr1", "Hub", ["Hub"], internal=True)
        activation("Xr1", "Hub", ["H.close"], M.OnEntry("H.close"))
        detection("Xr1", "Hub", M.SelfReport(1), False, "R.Xr1",
                  [recovery_graph("R.Xr1", "Hub", False)])
        findings.add(("R1", "violation", "Xr1", "Xr1"))
    if "R2" in shape.defects:
        chain("Xr2", "Caller", ["Hub"])
        detection("Xr2", "Hub", M.SelfReport(2), False, "R.Xr2",
                  [recovery_graph("R.Xr2", "Hub", False)])
        findings.add(("R2", "violation", "Xr2", "Xr2"))
    if "R3" in shape.defects:
        constituent("Iso", "Isolated unit", "IsoNominal")
        g = _Graph("IsoNominal", "Iso", "Iso.")
        g.entry = g.add("action", name="Stand by", duration=1)
        graphs.append(g)
        chain("Xr3", "Hub", ["Iso"])
        activation("Xr3", "Hub", ["H.close"], M.OnEntry("H.close"))
        detection("Xr3", "Iso", M.SelfReport(1), False, "R.Xr3",
                  [recovery_graph("R.Xr3", "Iso", False)])
        findings.add(("R3", "violation", "Iso", "Xr3"))
    if "R5" in shape.defects:
        chain("Xr5", "Hub", ["Hub", spokes[-1]])
        activation("Xr5", "Hub", ["H.close"], M.OnEntry("H.close"))
        detection("Xr5", "Hub", M.SelfReport(1), False, "R.Xr5",
                  [recovery_graph("R.Xr5", "Hub", False)])
        findings.add(("R5", "violation", "Xr5", "Xr5"))
    if "R7" in shape.defects:
        chain("Xr7", spokes[0], [spokes[0]])
        activation("Xr7", spokes[0], ["H.close"], M.AtTime(5))
        detection("Xr7", spokes[0], M.SelfReport(1), False, "R.Xr7",
                  [recovery_graph("R.Xr7", spokes[0], False)])
        findings.add(("R7", "warning", "Xr7.act", "Xr7"))
    if "R8" in shape.defects:
        connection("Spare", "Hub", spokes[-1], recovery_only=True)
        findings.add(("R8", "warning", "Spare", None))

    for mid, text, kind in (
        ("TimeToDetect", "elapsed \"error-raised\" -> \"error-detected\"",
         M.ElapsedBetween("error-raised", "error-detected")),
        ("FailureCount", "count \"failure-observed\"", M.Count("failure-observed")),
        ("LostTel1", "count \"message-lost:Tel1\"", M.Count("message-lost:Tel1")),
        ("HubSpan", "elapsed \"activity-end:H.boot\" -> \"activity-end:H.close\"",
         M.ElapsedBetween("activity-end:H.boot", "activity-end:H.close")),
    ):
        target = 50 if mid == "HubSpan" else None
        metrics.append(M.MetricSpec(mid, kind, "", target))
        blocks.append([f"  metric {mid} {{", f"    {text}"]
                      + ([f"    target {target}t"] if target else []) + ["  }"])

    for g in graphs:
        blocks.append(g.text(rng))
    rng.shuffle(blocks)
    text = "\n".join([f"# synthetic SoS {name} (seed {seed})", f"sos {name} {{"]
                     + [line for b in blocks for line in b] + ["}"]) + "\n"
    model = M.build_model(
        name=name, constituents=cons, environment=env, connections=conns,
        threat_nodes=threats, chains=chains, processes=[g.build() for g in graphs],
        activations=acts, detections=dets, recoveries=recs, metrics=metrics,
    )

    nominal_decisions = [(d, l) for g in [hub, *spoke_graphs.values()] for d, l in g.decisions]
    out = Synth(
        name=name, text=text, model=model, findings=findings,
        forked=any(g.forks for g in graphs),
        activities=sum(len(g.nodes) for g in graphs),
    )

    def guards() -> dict[str, str]:
        picked = rng.sample(nominal_decisions, min(len(nominal_decisions), 3))
        return {d: rng.choice(labels) for d, labels in picked}

    early_ids = [d[1] for d in early_dets]
    variants = [
        ("all", tuple(early_ids), set()),
        ("third-only", tuple(d[1] for d in early_dets if d[2] == "third") or ("Hub",), set()),
        ("no-hub", tuple(early_ids[1:]), set()),
    ]
    for label, enabled, _ in variants:
        for abort in (False, True):
            chosen = aborting if abort else set()
            guard = {f"R.Early.{d.split('.')[-1]}.choice": "abort" for d in chosen}
            out.early.append(Config(
                f"Early/{label}/{'abort' if abort else 'ok'}", "Early", enabled, guard,
                predicted=predict(early_dets, enabled, chosen, True),
            ))
    out.early.append(Config("Early/off", "Early", None, {}, recovery=False,
                            predicted=predict(early_dets, (), set(), False)))
    for cid, detectors in fault_chains:
        out.faults.append(Config(f"{cid}/all", cid, None, guards()))
        out.faults.append(Config(f"{cid}/timeout", cid, ("Hub",), guards()))
        out.faults.append(Config(f"{cid}/off", cid, None, guards(), recovery=False))
    out.nominals.append(Config("nominal/default", None))
    out.nominals.append(Config("nominal/guarded", None, None, guards()))
    return out


def probabilistic_fixture() -> Synth:
    """A fixed two-constituent model whose chain ``Maybe`` has a
    ``probabilistic 0.5`` activation over two activities.  At simulator
    seed :data:`PROB_FIXTURE_SEED` neither draw succeeds."""
    text = """# probabilistic activation over a two-activity region
sos Fixture {
  cs A "Unit" { nominal ANominal }
  cs B "Base" { nominal BNominal }
  connection Link: A <-> B
  fault Flt "unit stalls"
  error Err "no progress"
  failure Fail "service lost"
  chain Maybe { fault Flt error Err failure Fail origin A detectors [A] }
  activation Maybe.act { chain Maybe origin A region [Pick, Pack] trigger probabilistic 0.5 }
  detection Maybe.d { chain Maybe detector A condition self_report 1t recovery Fix }
  recovery Fix "Restart" { graph A AFix success [Restart] }
  process ANominal owner A {
    entry Pick
    exits [Ship]
    action Pick "Pick" 1t
    action Pack "Pack" 1t
    send Ship "Ship" on Link 1t
    edge Pick -> Pack
    edge Pack -> Ship
  }
  process BNominal owner B {
    entry Take
    exits [Take]
    receive Take on Link
  }
  process AFix owner A {
    entry Restart
    exits [Restart]
    action Restart 2t
  }
}
"""
    act = M.Activity
    kind = M.ActivityKind
    model = M.build_model(
        name="Fixture",
        constituents=[M.ConstituentSystem("A", "Unit", "ANominal"),
                      M.ConstituentSystem("B", "Base", "BNominal")],
        connections=[M.Connection("Link", "Link", "A", "B")],
        threat_nodes=[M.ThreatNode("Flt", M.ThreatKind.FAULT, "unit stalls"),
                      M.ThreatNode("Err", M.ThreatKind.ERROR, "no progress"),
                      M.ThreatNode("Fail", M.ThreatKind.FAILURE, "service lost")],
        chains=[M.ThreatChain("Maybe", "Flt", "Err", "Fail", "A", ("A",))],
        processes=[
            M.ActivityGraph("ANominal", "A", {
                "Pick": act("Pick", kind.ACTION, "Pick", 1),
                "Pack": act("Pack", kind.ACTION, "Pack", 1),
                "Ship": act("Ship", kind.SEND, "Ship", 1, "Link"),
            }, (M.Edge("Pick", "Pack"), M.Edge("Pack", "Ship")), "Pick", frozenset({"Ship"})),
            M.ActivityGraph("BNominal", "B", {"Take": act("Take", kind.RECEIVE, channel="Link")},
                            (), "Take", frozenset({"Take"})),
            M.ActivityGraph("AFix", "A", {"Restart": act("Restart", kind.ACTION, "", 2)},
                            (), "Restart", frozenset({"Restart"})),
        ],
        activations=[M.ActivationSpec("Maybe.act", "Maybe", "A", frozenset({"Pick", "Pack"}),
                                      M.Probabilistic(0.5))],
        detections=[M.DetectionSpec("Maybe.d", "Maybe", "A", M.SelfReport(1), "Fix")],
        recoveries=[M.RecoverySpec("Fix", "Restart", {"A": "AFix"}, frozenset({"Restart"}))],
    )
    out = Synth("Fixture", text, model, set(), forked=False, activities=5)
    out.nominals.append(Config("fixture/nominal", None))
    return out


def zero_time_chain(length: int = 2000) -> str:
    """Source of one constituent whose graph is ``length`` zero-duration
    actions in a line: valid, but deeper than the recursion limit."""
    lines = ["sos Deep {", '  cs A "Unit" { nominal Line }', "  process Line owner A {",
             "    entry a0", f"    exits [a{length - 1}]"]
    lines += [f"    action a{i}" for i in range(length)]
    lines += [f"    edge a{i} -> a{i + 1}" for i in range(length - 1)]
    return "\n".join(lines + ["  }", "}"]) + "\n"
