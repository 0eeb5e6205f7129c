"""Equal models give equal bytes, whatever order they were built in.

A model keeps every collection in id order however it was built, so a
``dataclasses.replace`` copy with every collection reversed is not only
``==`` to the original: it serializes to the same bytes, runs to the
same trace bytes (or raises the same error), enumerates the same outcome
set, draws the same checker findings and projects to the same DOT.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.checker import check
from fmaf.dsl import serialize
from fmaf.model import ConstituentSystem, SosModel
from fmaf.simulator import (
    SimConfig,
    SimulationError,
    enumerate_outcomes,
    format_trace,
    run,
)
from fmaf.viewgen import ViewError, project, to_dot

from _builders import random_model

_COLLECTIONS = (
    "constituents",
    "environment",
    "connections",
    "threat_nodes",
    "chains",
    "processes",
    "activations",
    "detections",
    "recoveries",
    "metrics",
)
_FOCUSED = ("tcv", "ftcv", "fav", "recovery", "erroneous-process")


def _reversed(model: SosModel) -> SosModel:
    return dataclasses.replace(
        model,
        **{name: dict(reversed(getattr(model, name).items())) for name in _COLLECTIONS},
    )


def _cases():
    for name in BUNDLE_NAMES:
        bundle = load_bundle(name)
        yield pytest.param(bundle.model, bundle.scenarios, id=name)
    for seed in range(60):
        yield pytest.param(random_model(random.Random(seed)), {}, id=f"random-{seed}")


def _attempt(action):
    """What ``action`` returns, or the type and message of what it raises."""
    try:
        return action()
    except SimulationError as error:
        return type(error), str(error)


def _trace_bytes(model: SosModel, config: SimConfig):
    return _attempt(lambda: format_trace(run(model, config)))


def _configs(model: SosModel, scenarios):
    for scenario in (None, *model.chains):
        for seed in range(3):
            yield SimConfig(scenario=scenario, seed=seed)
    for config in scenarios.values():
        for seed in range(3):
            yield dataclasses.replace(config, seed=seed)


def _dots(model: SosModel, configs) -> list:
    dots = [to_dot(project(model, "fts")), to_dot(project(model, "fef"))]
    for chain in model.chains:
        for kind in _FOCUSED:
            try:
                dots.append(to_dot(project(model, kind, focus=chain)))
            except ViewError as error:
                dots.append(str(error))
    for config in configs:
        try:
            trace = run(model, config)
        except SimulationError:
            continue
        dots.append(to_dot(project(model, "erroneous-scenario", trace=trace)))
    return dots


@pytest.mark.parametrize("model, scenarios", _cases())
def test_a_reordered_copy_gives_the_same_bytes(model, scenarios):
    twin = _reversed(model)
    assert twin == model
    for name in _COLLECTIONS:
        assert list(getattr(twin, name)) == list(getattr(model, name))
    assert serialize(twin) == serialize(model)
    assert check(twin) == check(model)
    configs = list(_configs(model, scenarios))
    for config in configs:
        assert _trace_bytes(twin, config) == _trace_bytes(model, config), config
    for config in scenarios.values():
        outcomes = _attempt(lambda: enumerate_outcomes(twin, config))
        assert outcomes == _attempt(lambda: enumerate_outcomes(model, config))
    assert _dots(twin, configs) == _dots(model, configs)


def test_a_model_built_directly_iterates_in_id_order():
    a = ConstituentSystem("A", "Alpha", "PA")
    b = ConstituentSystem("B", "Beta", "PB")
    model = SosModel("M", constituents={"B": b, "A": a})
    assert list(model.constituents) == ["A", "B"]
    assert list(model.constituents.values()) == [a, b]
    assert model == SosModel("M", constituents={"A": a, "B": b})
