"""Slot-built values against their public constructors, without pytest.

The engine builds every ``SimEvent``, the parser every ``Activity`` and
``Edge``, and the view builder every ``ViewNode`` and ``ViewEdge``
through ``model._slot_maker``: it fills a private class with the same
slots and then assigns the object's ``__class__``.  ``check_public(value,
cls)`` asserts that nothing tells such a value apart from ``cls`` called
on the same field values (``FIELDS[cls]``): its type, frozen fields,
equality, ``repr``, hashing, ``dataclasses`` helpers, copies and pickles.
``bundle_digest()`` is one sha256 over the ``format_trace`` bytes of every
runnable bundle scenario at seeds 0-4.

The ``__class__`` assignment rests on CPython's slot-layout rule, so this
module also runs as a plain script on interpreters that have no pytest::

    PYTHONPATH=src python tests/_event_check.py

It checks every event of those runs, every activity and edge that
``parse`` builds for the bundles and every node and edge of every bundle
view, and compares the digest with ``DIGEST``, which was recorded on
Python 3.11.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle
import sys
from collections import Counter

from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.model import Activity, Edge
from fmaf.simulator import ModelViolationsError, SimEvent, format_trace, run
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


def scenario_traces(bundle):
    """The trace of every scenario of a bundle that the checker lets run,
    at seeds 0-4, in a fixed order."""
    for scenario in sorted(bundle.scenarios):
        for seed in range(5):
            config = dataclasses.replace(bundle.scenarios[scenario], seed=seed)
            try:
                yield run(bundle.model, config)
            except ModelViolationsError:
                continue


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


def main() -> int:
    checked = Counter()
    for name in BUNDLE_NAMES:
        bundle = load_bundle(name)
        traces = list(scenario_traces(bundle))
        events = [(SimEvent, event) for trace in traces for event in trace.events]
        for cls, value in (
            *events, *parsed_values(bundle.model), *view_values(bundle.model, traces)
        ):
            check_public(value, cls)
            checked[cls] += 1
    got = bundle_digest()
    counts = ", ".join(f"{checked[cls]} {cls.__name__}" for cls in FIELDS)
    print(f"{sys.version.split()[0]}: checked {counts}; digest {got}")
    if got != DIGEST:
        print(f"expected digest {DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
