"""Fault modelling toolkit for systems of systems.

The package bundles a textual modelling language (.fmaf), a
dependability-taxonomy consistency checker, a deterministic
fault-injection simulator, viewpoint projections to DOT, and a set of
emergency-response case-study models.

``import fmaf`` loads no submodule: each public name below is imported
from its home module on first access (PEP 562), so a caller pays only
for the layers it uses.
"""

__version__ = "0.1.0"

#: Public name -> home module, in ``__all__`` order.
_HOME = {
    "BUNDLE_NAMES": "casestudy",
    "CATALOG": "checker",
    "Diagnostic": "dsl",
    "Finding": "checker",
    "Outcome": "simulator",
    "ParseResult": "dsl",
    "Rule": "checker",
    "Severity": "checker",
    "SimConfig": "simulator",
    "SimEvent": "simulator",
    "SimTrace": "simulator",
    "ScenarioBundle": "casestudy",
    "UnknownBundleError": "casestudy",
    "SourceSpan": "dsl",
    "blocking_violations": "checker",
    "check": "checker",
    "compute_metrics": "simulator",
    "enumerate_outcomes": "simulator",
    "explain": "checker",
    "format_report": "checker",
    "format_trace": "simulator",
    "has_violations": "checker",
    "load_bundle": "casestudy",
    "parse": "dsl",
    "parse_file": "dsl",
    "run": "simulator",
    "serialize": "dsl",
    "summarize": "simulator",
    "write_trace": "simulator",
    "VIEW_KINDS": "model",
    "ViewCluster": "viewgen",
    "ViewEdge": "viewgen",
    "ViewGraph": "viewgen",
    "ViewNode": "viewgen",
    "project": "viewgen",
    "to_dot": "viewgen",
    "ActivationSpec": "model",
    "Activity": "model",
    "ActivityGraph": "model",
    "ActivityKind": "model",
    "AtTime": "model",
    "Connection": "model",
    "ConnectionKind": "model",
    "ConstituentSystem": "model",
    "Count": "model",
    "DetectionSpec": "model",
    "DetectionStyle": "model",
    "Edge": "model",
    "ElapsedBetween": "model",
    "EnvironmentEntity": "model",
    "FailureObservation": "model",
    "FmafError": "model",
    "MetricSpec": "model",
    "OnEntry": "model",
    "Probabilistic": "model",
    "RecoverySpec": "model",
    "SelfReport": "model",
    "SosModel": "model",
    "ThirdPartyReport": "model",
    "ThreatChain": "model",
    "ThreatKind": "model",
    "ThreatNode": "model",
    "Timeout": "model",
    "build_model": "model",
    "lift_cs_failure": "model",
    "partition_fault": "model",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
