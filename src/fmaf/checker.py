"""Consistency checker for SoS fault tolerance models.

The rule catalog enforces the dependability taxonomy and the coherence
between the modelled viewpoints: where failures are observed, what may
originate a fault, which constituents the detection/recovery structure
may rely on, and how detection hands over to recovery.  ``check``
evaluates every rule and returns deterministic, ordered findings;
``explain`` documents any single rule.

``CATALOG`` is the one place a rule's id, title and severity are written.
Each rule is a generator over the model yielding its hits as (subject,
message, chain) triples, and ``check`` turns every hit into a ``Finding``
with its rule's catalog severity.  Adding a rule takes one ``CATALOG``
entry, one generator in ``_RULES`` under the same id, and one mutant in
``tests/_builders.fixture_mutants`` that the rule alone reports.

Model constructors deliberately accept taxonomy-violating content (an
environment entity as a chain origin, for instance) precisely so that
this module can report it.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator

from .model import Activity, FmafError, SosModel, _frozen_value

__all__ = [
    "Severity",
    "Finding",
    "Rule",
    "CATALOG",
    "UnknownRuleError",
    "check",
    "explain",
    "has_violations",
    "blocking_violations",
    "format_report",
    "to_records",
]


class UnknownRuleError(FmafError):
    def __init__(self, rule_id: str) -> None:
        self.rule_id = rule_id
        super().__init__(f"unknown rule {rule_id!r}")


class Severity(str, Enum):
    VIOLATION = "violation"
    WARNING = "warning"


@_frozen_value
class Finding:
    """One rule hit on one subject element.

    ``chain`` scopes the finding to a fault-error-failure chain when the
    defect only concerns that chain's analysis; findings with ``chain``
    None are global.  The simulator refuses to run a scenario whose
    chain has blocking violations, while sibling chains in the same
    model stay runnable.
    """

    rule_id: str
    severity: Severity
    subject: str
    message: str
    chain: str | None = None

    def sort_key(self) -> tuple[int, str, str]:
        return (int(self.rule_id[1:]), self.subject, self.message)

    def __str__(self) -> str:
        scope = f" [chain {self.chain}]" if self.chain else ""
        return f"{self.rule_id} {self.severity.value} {self.subject}: {self.message}{scope}"


@_frozen_value
class Rule:
    """One entry of the consistency rule catalog."""

    rule_id: str
    title: str
    severity: Severity
    statement: str
    rationale: str


CATALOG: dict[str, Rule] = {
    r.rule_id: r
    for r in (
        Rule(
            "R1",
            "failure-at-boundary",
            Severity.VIOLATION,
            "Every fault-error-failure chain must declare its failure as "
            "observable at the SoS boundary.",
            "A failure is the event at which the delivered service deviates "
            "from the SoS mission, so failures are observable at the external "
            "boundary of the SoS; a deviation that never reaches the boundary "
            "is an error state, not a failure.",
        ),
        Rule(
            "R2",
            "fault-origin-is-cs",
            Severity.VIOLATION,
            "Chain origins and activation origins must be constituent "
            "systems, never environment entities.",
            "Environment entities sit outside the dependability boundary: "
            "a fault should be introduced by a CS, while the environment can "
            "only stimulate behaviour the SoS already has.",
        ),
        Rule(
            "R3",
            "connections-cover-structure",
            Severity.VIOLATION,
            "Every constituent taking part in a chain's detection or "
            "recovery must appear as an endpoint of at least one declared "
            "connection.",
            "The fault tolerance structure includes all the constituents "
            "that detection and recovery rely on, and their coordination "
            "travels over connections; a participant that is no connection "
            "endpoint cannot coordinate.",
        ),
        Rule(
            "R4",
            "threats-defined",
            Severity.VIOLATION,
            "Every threat node a chain references must exist in the model's "
            "threat definitions.",
            "The fault, error and failure definitions are the threat "
            "vocabulary of the SoS; a chain over undefined nodes describes "
            "nothing.",
        ),
        Rule(
            "R5",
            "detection-triggers-recovery",
            Severity.VIOLATION,
            "Every detection must name a declared recovery, and every "
            "detector a chain lists must have at least one detection "
            "specification.",
            "Each detection event prompts the beginning of the recovery "
            "process; a detector with no detection specification, or a "
            "detection with no recovery behind it, breaks that causal chain.",
        ),
        Rule(
            "R6",
            "recovery-connectivity",
            Severity.VIOLATION,
            "Every send or receive activity in a recovery graph must use a "
            "connection declared in the model, nominal or recovery-only.",
            "Recovery coordination often needs channels the nominal flow "
            "never uses, such as phoning the original caller back over a "
            "line reserved for recovery; those channels must still be "
            "declared connections of the model.",
        ),
        Rule(
            "R7",
            "region-in-owner",
            Severity.WARNING,
            "An activation region should lie inside the nominal activity "
            "graph of the activation's origin constituent.",
            "A fault corrupts the behaviour of the constituent it arises "
            "in; a region naming another constituent's activities usually "
            "indicates a misplaced declaration.",
        ),
        Rule(
            "R8",
            "recovery-connection-used",
            Severity.WARNING,
            "A connection marked recovery-only should be used as the "
            "channel of at least one activity in some recovery graph.",
            "A connection reserved for recovery that no recovery behaviour "
            "references is either dead weight or a sign that a recovery "
            "graph names the wrong channel.",
        ),
    )
}


def explain(rule_id: str) -> str:
    """The rule's statement and the taxonomy rationale behind it."""
    rule = CATALOG.get(rule_id)
    if rule is None:
        raise UnknownRuleError(rule_id)
    return (
        f"{rule.rule_id} {rule.title} ({rule.severity.value}): "
        f"{rule.statement}\nRationale: {rule.rationale}"
    )


# A rule's hit: its subject, message and chain scope.  Each rule yields
# its hits in a fixed order over the model, so ``check``'s stable sort
# keeps equal keys in that order.
_Hit = tuple[str, str, str | None]


def _r1(model: SosModel) -> Iterator[_Hit]:
    for chain in model.chains.values():
        if chain.failure_observation.value != "sos-boundary":
            yield chain.id, (
                f"chain {chain.id!r} marks its failure {chain.failure!r} as "
                f"internally observed; failures are observable at the SoS "
                f"boundary"
            ), chain.id


def _r2(model: SosModel) -> Iterator[_Hit]:
    for chain in model.chains.values():
        if not model.is_constituent(chain.origin):
            kind = (
                "environment entity"
                if chain.origin in model.environment
                else "non-constituent"
            )
            yield chain.id, (
                f"chain {chain.id!r} originates its fault in {kind} "
                f"{chain.origin!r}; a fault must be introduced by a "
                f"constituent system"
            ), chain.id
    for act in model.activations.values():
        if not model.is_constituent(act.origin_constituent):
            yield act.id, (
                f"activation {act.id!r} places its fault in "
                f"{act.origin_constituent!r}, which is not a constituent "
                f"system"
            ), act.threat


def _r3(model: SosModel) -> Iterator[_Hit]:
    endpoints: set[str] = set()
    for conn in model.connections.values():
        endpoints |= {conn.provider, conn.consumer}
    seen: set[tuple[str, str | None]] = set()
    for det in model.detections.values():
        participants = []
        if model.is_constituent(det.detector):
            participants.append(det.detector)
        recovery = model.recoveries.get(det.recovery)
        if recovery is not None:
            participants.extend(
                cs for cs in recovery.graphs if model.is_constituent(cs)
            )
        for cs in participants:
            if cs in endpoints or (cs, det.threat) in seen:
                continue
            seen.add((cs, det.threat))
            yield cs, (
                f"constituent {cs!r} takes part in detection or recovery "
                f"of chain {det.threat!r} but is not an endpoint of any "
                f"connection"
            ), det.threat


def _r4(model: SosModel) -> Iterator[_Hit]:
    for chain in model.chains.values():
        for role, ref in (
            ("fault", chain.fault),
            ("error", chain.error),
            ("failure", chain.failure),
        ):
            if ref not in model.threat_nodes:
                yield chain.id, (
                    f"chain {chain.id!r} references undefined threat node "
                    f"{ref!r} as its {role}"
                ), chain.id


def _r5(model: SosModel) -> Iterator[_Hit]:
    by_chain: dict[str, set[str]] = {}
    for det in model.detections.values():
        by_chain.setdefault(det.threat, set()).add(det.detector)
        if det.recovery not in model.recoveries:
            yield det.id, (
                f"detection {det.id!r} names unknown recovery "
                f"{det.recovery!r}; detection must prompt a declared "
                f"recovery process"
            ), det.threat
    for chain in model.chains.values():
        covered = by_chain.get(chain.id, set())
        for detector in chain.detectors:
            if detector not in covered:
                yield chain.id, (
                    f"detector {detector!r} of chain {chain.id!r} has no "
                    f"detection specification"
                ), chain.id


def _recovery_channels(model: SosModel) -> Iterator[tuple[str, str, Activity]]:
    """(recovery id, graph id, activity) for every activity with a channel
    in a recovery graph, in recovery, graph and node order."""
    for recovery in model.recoveries.values():
        for graph_id in recovery.graphs.values():
            graph = model.processes.get(graph_id)
            for node in graph.nodes.values() if graph is not None else ():
                if node.channel is not None:
                    yield recovery.id, graph_id, node


def _recovery_chain_context(model: SosModel) -> dict[str, str | None]:
    """Each named recovery's chain when exactly one chain's detections name
    it, else None (a finding on it then blocks every scenario)."""
    chains: dict[str, set[str]] = {}
    for det in model.detections.values():
        chains.setdefault(det.recovery, set()).add(det.threat)
    return {rec: min(c) if len(c) == 1 else None for rec, c in chains.items()}


def _r6(model: SosModel) -> Iterator[_Hit]:
    context = _recovery_chain_context(model)
    for recovery_id, graph_id, node in _recovery_channels(model):
        if node.channel not in model.connections:
            yield recovery_id, (
                f"recovery {recovery_id!r} graph {graph_id!r}: "
                f"activity {node.id!r} uses undeclared connection "
                f"{node.channel!r}"
            ), context.get(recovery_id)


def _r7(model: SosModel) -> Iterator[_Hit]:
    for act in model.activations.values():
        origin = model.constituents.get(act.origin_constituent)
        if origin is None:
            continue  # R2 reports this one
        nominal = model.processes.get(origin.nominal_process)
        if nominal is None:
            continue
        stray = sorted(act.region - set(nominal.nodes))
        if stray:
            yield act.id, (
                f"activation {act.id!r} region names activities outside "
                f"the nominal graph of {origin.id!r}: {stray}"
            ), act.threat


def _r8(model: SosModel) -> Iterator[_Hit]:
    used = {node.channel for _, _, node in _recovery_channels(model)}
    for conn in model.connections.values():
        if conn.kind.value == "recovery-only" and conn.id not in used:
            yield conn.id, (
                f"recovery-only connection {conn.id!r} is not used by any "
                f"recovery graph"
            ), None


_RULES = {
    "R1": _r1, "R2": _r2, "R3": _r3, "R4": _r4,
    "R5": _r5, "R6": _r6, "R7": _r7, "R8": _r8,
}


def check(model: SosModel) -> list[Finding]:
    """Evaluate the whole catalog; ordered by (rule number, subject, message)."""
    findings = [
        Finding(rule_id, CATALOG[rule_id].severity, subject, message, chain)
        for rule_id, rule in _RULES.items()
        for subject, message, chain in rule(model)
    ]
    findings.sort(key=Finding.sort_key)
    return findings


def has_violations(findings) -> bool:
    return any(f.severity is Severity.VIOLATION for f in findings)


def blocking_violations(findings, chain_id: str) -> list[Finding]:
    """Violations that forbid simulating the given chain.

    Chain-scoped violations block only their own chain; unscoped ones
    block everything.
    """
    return [
        f
        for f in findings
        if f.severity is Severity.VIOLATION
        and (f.chain is None or f.chain == chain_id)
    ]


def format_report(findings) -> str:
    """Line-oriented text report, one finding per line."""
    return "".join(f"{f}\n" for f in findings)


def to_records(findings) -> list[dict]:
    """JSON-ready records, one per finding."""
    return [
        {
            "rule": f.rule_id,
            "severity": f.severity.value,
            "subject": f.subject,
            "chain": f.chain,
            "message": f.message,
        }
        for f in findings
    ]
