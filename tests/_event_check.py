"""Every public value type against a stdlib twin, without pytest.

``model._frozen_value`` builds every public frozen type (36 of them) with
shared methods and one compiled ``__init__`` per class, in place of the
methods ``dataclasses.dataclass`` generates.  ``check_twin(value)``
asserts that ``value`` behaves as the same field values do in a twin
class that ``dataclasses.make_dataclass`` builds from the same fields,
class body and qualified name: ``repr``, equality, hashing, the
``dataclasses`` helpers, ``inspect.signature``, frozen fields, copies and
pickles.  ``samples()`` gives one value of each type, from the bundles,
their checks, runs and views.

The engine builds every ``SimEvent``, the parser every ``Activity`` and
``Edge``, and the view builder every ``ViewNode`` and ``ViewEdge``
through ``model._slot_maker``: it fills a private class with the same
slots and then assigns the object's ``__class__``.  ``check_public(value,
cls)`` asserts that nothing tells such a value apart from ``cls`` called
on the same field values (``FIELDS[cls]``): its type, frozen fields,
equality, ``repr``, hashing, ``dataclasses`` helpers, copies and pickles.
``bundle_digest()`` is one sha256 over the ``format_trace`` bytes of every
runnable bundle scenario at seeds 0-4.

A trace the engine builds keeps its events as rows and builds the
``SimEvent`` tuple when ``events`` is first read.  ``check_unread(fresh)``
asserts that such a trace, before anything reads its events, behaves as
the trace the public constructor builds from the same field values:
equality both ways, ``repr``, pickle bytes at every protocol, copies,
deep copies, ``replace``, ``asdict`` and ``format_trace`` bytes.

The ``__class__`` assignment rests on CPython's slot-layout rule, and the
twins on each version's ``dataclasses``, so this module also runs as a
plain script on interpreters that have no pytest::

    PYTHONPATH=src python tests/_event_check.py

It checks every event of those runs, every activity and edge that
``parse`` builds for the bundles and every node and edge of every bundle
view, checks each of those runs with ``check_unread``, checks one value
of each public type against its twin, and compares the digest with
``DIGEST``, which was recorded on Python 3.11.
It fails when a frozen type that ``fmaf.__all__`` names has no sample.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import inspect
import pickle
import sys
import types
from collections import Counter
from functools import partial

import fmaf
from fmaf import dsl
from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.checker import CATALOG, check
from fmaf.model import Activity, Edge, Probabilistic, partition_fault
from fmaf.simulator import ModelViolationsError, SimEvent, SimTrace, format_trace, run
from fmaf.viewgen import VIEW_KINDS, ViewEdge, ViewError, ViewNode, project

DIGEST = "548aa5ffaa0993b10186a776276663eefd87d6924d07af6034df7d77c9e02823"

#: Each slot-built class and its fields, in constructor order.
FIELDS = {
    SimEvent: ("time", "kind", "actor", "details"),
    Activity: ("id", "kind", "name", "duration", "channel", "timer_bound"),
    Edge: ("src", "dst", "guard"),
    ViewNode: ("id", "label", "shape_class"),
    ViewEdge: ("src", "dst", "label", "style_class"),
}


def _raised(error: type[BaseException], action, *args) -> BaseException:
    try:
        action(*args)
    except error as exc:
        return exc
    raise AssertionError(f"{action.__name__}{args!r} did not raise {error.__name__}")


def _hash(value) -> object:
    """The value's hash, or the message of the TypeError it raises."""
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def check_public(value: object, cls: type) -> None:
    names = FIELDS[cls]
    twin = cls(*(getattr(value, name) for name in names))
    assert type(value) is cls, type(value)
    assert not hasattr(value, "__dict__")
    assert value == twin and twin == value
    assert repr(value) == repr(twin)
    for name in names:
        _raised(dataclasses.FrozenInstanceError, setattr, value, name, getattr(value, name))
        _raised(dataclasses.FrozenInstanceError, delattr, value, name)
    assert _hash(value) == _hash(twin)
    assert dataclasses.fields(value) == dataclasses.fields(twin)
    assert dataclasses.asdict(value) == dataclasses.asdict(twin)
    replaced = dataclasses.replace(value)
    assert type(replaced) is cls and replaced == dataclasses.replace(twin)
    for made in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(made) is cls and made == twin


def scenario_configs(bundle):
    """Every scenario of a bundle that the checker lets run, at seeds
    0-4, in a fixed order."""
    for scenario in sorted(bundle.scenarios):
        for seed in range(5):
            config = dataclasses.replace(bundle.scenarios[scenario], seed=seed)
            try:
                run(bundle.model, config)
            except ModelViolationsError:
                continue
            yield config


def scenario_traces(bundle):
    """The trace of each of ``scenario_configs(bundle)``."""
    for config in scenario_configs(bundle):
        yield run(bundle.model, config)


def bundle_traces():
    for name in BUNDLE_NAMES:
        yield from scenario_traces(load_bundle(name))


def bundle_digest() -> str:
    digest = hashlib.sha256()
    for trace in bundle_traces():
        digest.update(format_trace(trace).encode("utf-8"))
    return digest.hexdigest()


def parsed_values(model):
    """(class, value) for every activity and edge of a model's graphs."""
    for graph in model.processes.values():
        for node in graph.nodes.values():
            yield Activity, node
        for edge in graph.edges:
            yield Edge, edge


def views(model, traces=()):
    """Every view of a model: ``fts`` and ``fef`` once, each focused kind
    once per chain that it projects, and one scenario view per trace."""
    for kind in VIEW_KINDS:
        if kind in ("fts", "fef"):
            yield project(model, kind)
        elif kind == "erroneous-scenario":
            for trace in traces:
                yield project(model, kind, trace=trace)
        else:
            for chain in sorted(model.chains):
                try:
                    yield project(model, kind, focus=chain)
                except ViewError:
                    continue


def view_values(model, traces=()):
    """(class, value) for every node and edge of ``views(model, traces)``."""
    for view in views(model, traces):
        for node in view.nodes:
            yield ViewNode, node
        for edge in view.edges:
            yield ViewEdge, edge


PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)

#: Holds the stdlib twins, so that they pickle by reference.
TWINS = sys.modules.setdefault("_fmaf_twins", types.ModuleType("_fmaf_twins"))


def frozen_types() -> set[type]:
    """Every dataclass that ``fmaf.__all__`` names."""
    values = (getattr(fmaf, name) for name in fmaf.__all__)
    return {v for v in values if isinstance(v, type) and dataclasses.is_dataclass(v)}


def samples() -> dict[type, object]:
    """One value of each public frozen type: the first met in the bundles,
    their checks, runs and views, a failed parse and a fault partition.
    ``Probabilistic``, which no bundle uses, is built directly."""
    found: dict[type, object] = {}

    def add(*values):
        for value in values:
            found.setdefault(type(value), value)

    for name in BUNDLE_NAMES:
        bundle = load_bundle(name)
        model = bundle.model
        add(bundle, model, dsl.parse(bundle.model_file.read_text(encoding="utf-8")))
        for f in dataclasses.fields(model):
            items = getattr(model, f.name)
            if isinstance(items, dict):
                add(*items.values())
        for graph in model.processes.values():
            add(*graph.nodes.values(), *graph.edges)
        add(*(a.trigger for a in model.activations.values()))
        add(*(d.condition for d in model.detections.values()))
        add(*(m.kind for m in model.metrics.values()))
        add(*check(model))
        traces = list(scenario_traces(bundle))
        for trace in traces:
            add(trace, trace.config, trace.outcome, *trace.events)
        for view in views(model, traces):
            add(view, *view.nodes, *view.edges, *view.clusters)
    failed = dsl.parse("model")
    add(*CATALOG.values(), failed, *failed.diagnostics, failed.diagnostics[0].span)
    chain = model.chains["F3.3"]
    region = model.activation_for(chain.id).region
    add(partition_fault(model, chain.id, [("a", chain.origin, region, chain.detectors)]))
    add(Probabilistic(0.5))
    return found


def twin_of(cls: type) -> type:
    """``cls`` as ``make_dataclass`` builds it: frozen, slotted when ``cls``
    is, with the same fields, docstring, qualified name and every method
    or property written in the class body."""
    prefix = f"{cls.__qualname__}."
    own = {
        name: value
        for name, value in vars(cls).items()
        if isinstance(value, (types.FunctionType, property))
        and (body := getattr(value, "fget", value)).__qualname__.startswith(prefix)
        and not body.__code__.co_filename.startswith("<")  # generated, not written
    }
    specs = [
        (f.name, f.type, dataclasses.field(
            default=f.default, default_factory=f.default_factory, init=f.init,
            repr=f.repr, hash=f.hash, compare=f.compare, metadata=f.metadata or None,
        ))
        for f in dataclasses.fields(cls)
    ]
    twin = dataclasses.make_dataclass(
        cls.__name__, specs, namespace={**own, "__doc__": cls.__doc__},
        frozen=True, slots=hasattr(cls, "__slots__"),
    )
    twin.__qualname__, twin.__module__ = cls.__qualname__, TWINS.__name__
    setattr(TWINS, cls.__qualname__, twin)
    return twin


def behaviour(value: object, equal: object) -> dict[str, object]:
    """What ``check_twin`` compares, for ``value`` and an ``equal`` value
    that its class's constructor built."""
    cls = type(value)
    seen = {
        "repr": repr(value),
        "==": (value == equal, equal == value, value != equal, value == None),  # noqa: E711
        "hash": _hash(value),
        "fields": [repr(f) for f in dataclasses.fields(value)],
        "asdict": dataclasses.asdict(value),
        "astuple": dataclasses.astuple(value),
        "replace": (type(dataclasses.replace(value)) is cls, repr(dataclasses.replace(value))),
        "signature": inspect.signature(cls),
        "params": repr(cls.__dataclass_params__),
        "match_args": cls.__match_args__,
        "slots": getattr(cls, "__slots__", None),
        "doc": cls.__doc__,
    }
    for name in (f.name for f in dataclasses.fields(cls)):
        raised = _raised(dataclasses.FrozenInstanceError, setattr, value, name, None)
        seen[f"set {name}"] = repr(raised)
        seen[f"del {name}"] = repr(_raised(dataclasses.FrozenInstanceError, delattr, value, name))
    made = [copy.copy(value), copy.deepcopy(value)]
    made += [pickle.loads(pickle.dumps(value, protocol)) for protocol in PROTOCOLS]
    seen["copies"] = [(type(m) is cls, m == value, repr(m)) for m in made]
    return seen


def check_twin(value: object) -> None:
    cls = type(value)
    twin = twin_of(cls)
    init = {f.name: getattr(value, f.name) for f in dataclasses.fields(cls) if f.init}
    ours = behaviour(value, cls(**init))
    theirs = behaviour(twin(**init), twin(**init))
    assert ours.keys() == theirs.keys()
    for key, seen in ours.items():
        assert seen == theirs[key], f"{cls.__name__} {key}: {seen!r} != {theirs[key]!r}"


def _made(value: object) -> tuple:
    """What tells a copy of a trace apart: its type, its attributes and
    its pickle bytes."""
    return type(value), list(vars(value)), pickle.dumps(value)


def check_unread(fresh) -> None:
    """``fresh()`` runs the engine, giving equal traces whose events
    nothing has read.  Each of them, before its events are read, must
    behave as the public twin of the first."""
    first = fresh()
    twin = SimTrace(first.config, first.events, first.metrics, first.outcome)
    seen = {
        "==": lambda trace: (trace == twin, twin == trace, trace != twin, twin != trace),
        "repr": repr,
        "copy": lambda trace: _made(copy.copy(trace)),
        "deepcopy": lambda trace: _made(copy.deepcopy(trace)),
        "replace": lambda trace: _made(dataclasses.replace(trace)),
        "asdict": dataclasses.asdict,
        "format_trace": format_trace,
    }
    for protocol in PROTOCOLS:
        seen[f"pickle {protocol}"] = lambda trace, protocol=protocol: pickle.dumps(trace, protocol)
    for name, look in seen.items():
        trace = fresh()
        assert "events" not in vars(trace), f"{name}: the events were read"
        got = look(trace)
        assert got == look(twin), f"{name} differs from the public twin"
        assert trace.events == twin.events, name


def main() -> int:
    checked = Counter()
    for name in BUNDLE_NAMES:
        bundle = load_bundle(name)
        for config in scenario_configs(bundle):
            check_unread(partial(run, bundle.model, config))
            checked[SimTrace] += 1
        traces = list(scenario_traces(bundle))
        events = [(SimEvent, event) for trace in traces for event in trace.events]
        for cls, value in (
            *events, *parsed_values(bundle.model), *view_values(bundle.model, traces)
        ):
            check_public(value, cls)
            checked[cls] += 1
    table = samples()
    for value in table.values():
        check_twin(value)
    got = bundle_digest()
    counts = ", ".join(f"{checked[cls]} {cls.__name__}" for cls in (*FIELDS, SimTrace))
    print(
        f"{sys.version.split()[0]}: checked {counts}; {len(table)} types against "
        f"stdlib twins; digest {got}"
    )
    missing = sorted(cls.__name__ for cls in frozen_types() - table.keys())
    if missing:
        print(f"no sample of {', '.join(missing)}", file=sys.stderr)
        return 1
    if got != DIGEST:
        print(f"expected digest {DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
