"""A constituent's failure as an SoS fault, split into variants.

In a system of systems the same event has two names. For the rescue
unit (ERU) a vehicle breakdown is a failure: the unit stops delivering
its service. For the SoS it is a fault: the cause of an error (the unit
stops progressing) that may end in the SoS failing its mission.
``lift_cs_failure`` makes that step. One abstract fault then behaves
differently by when it strikes, so ``partition_fault`` splits its chain
into variants, one per mission phase, each with its own activation
region. The shipped ``fault2`` bundle models the same three phases by
hand (F2.1-F2.3); the derived variants run to the same outcomes.

Run:  python3 demos/06_fault_partition.py
"""

import dataclasses

from fmaf import (
    ThreatChain,
    ThreatKind,
    ThreatNode,
    blocking_violations,
    build_model,
    check,
    lift_cs_failure,
    load_bundle,
    partition_fault,
    run,
    summarize,
)

bundle = load_bundle("fault2")
model = bundle.model


def extended(**extra):
    """The bundle's model with ``extra`` fragments added to its collections."""
    parts = {
        f.name: [*getattr(model, f.name).values(), *extra.get(f.name, ())]
        for f in dataclasses.fields(model)
        if f.name != "name"
    }
    return build_model(model.name, **parts)


print("== A constituent failure, lifted ==")
breakdown = ThreatNode("VehicleBreakdown", ThreatKind.FAILURE, "vehicle breaks down")
fault = lift_cs_failure(model, breakdown, "ERU")
print(f"ERU level: {breakdown.id} ({breakdown.kind.value}) {breakdown.description!r}")
print(f"SoS level: {fault.id} ({fault.kind.value}) {fault.description!r}")
print()

# The abstract chain: the lifted fault, the bundle's error and failure.
base = ThreatChain(
    id="Breakdown",
    fault=fault.id,
    error="F2.e",
    failure="F2.x",
    origin="ERU",
    detectors=("ERU", "CallCentre"),
)
abstract = extended(threat_nodes=[fault], chains=[base])

print("== The fault split by mission phase ==")
# suffix -> (activation region, the bundle's chain for that phase)
phases = {
    ".travel": ("ServiceRescue", "F2.1"),
    ".transport": ("TransportPatient", "F2.2"),
    ".idle": ("Idle", "F2.3"),
}
split = partition_fault(
    abstract,
    "Breakdown",
    [(suffix, "ERU", [region], base.detectors) for suffix, (region, _) in phases.items()],
)
twins = {chain.id: twin for chain, (_, twin) in zip(split.chains, phases.values())}
for activation in split.activations:
    print(f"{activation.threat}: region {sorted(activation.region)}, {activation.trigger}")
print()

# Each variant detects and recovers as the bundle's chain for its phase.
detections = [
    dataclasses.replace(spec, id=spec.id.replace(twin, chain_id, 1), threat=chain_id)
    for chain_id, twin in twins.items()
    for spec in model.detections.values()
    if spec.threat == twin
]
variants = extended(
    threat_nodes=[fault],
    chains=[base, *split.chains],
    activations=split.activations,
    detections=detections,
)

print("== Checking the derived model ==")
findings = check(variants)
for chain_id in sorted(variants.chains):
    blockers = blocking_violations(findings, chain_id)
    print(f"  chain {chain_id}: {'BLOCKED, ' + blockers[0].rule_id if blockers else 'ok'}")
# The base chain stays as the variants' abstract parent. It has no
# detection specifications of its own, so R5 blocks it and only it.
print()

print("== Each variant beside the bundle's hand-made chain ==")
for chain_id, twin in twins.items():
    config = bundle.scenarios[twin]
    derived = run(variants, dataclasses.replace(config, scenario=chain_id))
    shipped = run(model, config)
    # Same events at the same ticks; only the chain ids in the details differ.
    steps = [(e.time, e.kind, e.actor) for e in derived.events]
    assert steps == [(e.time, e.kind, e.actor) for e in shipped.events], chain_id
    recovery = next(e.details["recovery"] for e in derived.events
                    if e.kind == "recovery-started")
    print(f"  {chain_id:<20} {summarize(derived)}, recovery {recovery}, "
          f"{len(steps)} events, as {twin}")
