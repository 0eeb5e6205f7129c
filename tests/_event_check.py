"""Engine-built trace events against the public ``SimEvent``, without pytest.

``check_public(event)`` asserts that nothing tells an event apart from
``SimEvent(event.time, event.kind, event.actor, event.details)``: its
type, frozen fields, equality, ``repr``, hashing, ``dataclasses``
helpers, copies and pickles.  ``bundle_digest()`` is one sha256 over the
``format_trace`` bytes of every runnable bundle scenario at seeds 0-4.

The engine turns its events into ``SimEvent``s by a ``__class__``
assignment, which rests on CPython's slot-layout rule, so this module
also runs as a plain script on interpreters that have no pytest::

    PYTHONPATH=src python tests/_event_check.py

It checks every event of those runs and compares the digest with
``DIGEST``, which was recorded on Python 3.11.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle
import sys

from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.simulator import ModelViolationsError, SimEvent, format_trace, run

DIGEST = "548aa5ffaa0993b10186a776276663eefd87d6924d07af6034df7d77c9e02823"
FIELDS = ("time", "kind", "actor", "details")


def _raised(error: type[BaseException], action, *args) -> BaseException:
    try:
        action(*args)
    except error as exc:
        return exc
    raise AssertionError(f"{action.__name__}{args!r} did not raise {error.__name__}")


def check_public(event: SimEvent) -> None:
    twin = SimEvent(event.time, event.kind, event.actor, event.details)
    assert type(event) is SimEvent, type(event)
    assert not hasattr(event, "__dict__")
    assert event == twin and twin == event
    assert repr(event) == repr(twin)
    for name in FIELDS:
        _raised(dataclasses.FrozenInstanceError, setattr, event, name, getattr(event, name))
        _raised(dataclasses.FrozenInstanceError, delattr, event, name)
    assert str(_raised(TypeError, hash, event)) == str(_raised(TypeError, hash, twin))
    assert dataclasses.fields(event) == dataclasses.fields(twin)
    assert dataclasses.asdict(event) == dataclasses.asdict(twin)
    replaced = dataclasses.replace(event, time=event.time + 1)
    assert type(replaced) is SimEvent
    assert replaced == dataclasses.replace(twin, time=twin.time + 1)
    for made in (copy.copy(event), copy.deepcopy(event), pickle.loads(pickle.dumps(event))):
        assert type(made) is SimEvent and made == twin


def bundle_traces():
    """The trace of every runnable bundle scenario at seeds 0-4, in a fixed order."""
    for name in BUNDLE_NAMES:
        bundle = load_bundle(name)
        for scenario in sorted(bundle.scenarios):
            for seed in range(5):
                config = dataclasses.replace(bundle.scenarios[scenario], seed=seed)
                try:
                    yield run(bundle.model, config)
                except ModelViolationsError:
                    continue


def bundle_digest() -> str:
    digest = hashlib.sha256()
    for trace in bundle_traces():
        digest.update(format_trace(trace).encode("utf-8"))
    return digest.hexdigest()


def main() -> int:
    events = 0
    for trace in bundle_traces():
        for event in trace.events:
            check_public(event)
            events += 1
    got = bundle_digest()
    print(f"{sys.version.split()[0]}: {events} events checked, digest {got}")
    if got != DIGEST:
        print(f"expected digest {DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
