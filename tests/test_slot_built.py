"""Values the parser and the view builder build through ``_slot_maker``.

``parse`` builds every ``Activity`` and ``Edge``, and ``project`` every
``ViewNode`` and ``ViewEdge``, by filling a private class with the same
slots and then changing the object's class.  These tests pin that
nothing tells such a value apart from the public constructor's (see
``_event_check.check_public``); ``test_sim_events`` does the same for the
engine's events.  All five types must stay frozen slotted dataclasses.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from fmaf import dsl
from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.model import Activity, ActivityKind, Edge

from _builders import random_model
from _event_check import FIELDS, check_public, parsed_values, scenario_traces, view_values


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_slot_built_classes_stay_frozen_slotted_dataclasses(cls):
    assert cls.__dataclass_params__.frozen
    assert cls.__slots__ == FIELDS[cls]
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]
    assert cls.__bases__ == (object,)


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_parse_builds_public_activities_and_edges(name):
    values = list(parsed_values(load_bundle(name).model))
    assert values
    for cls, value in values:
        check_public(value, cls)


def test_parsed_random_models_cover_every_activity_kind():
    # The bundles have no timer; random_model has every kind and guards.
    values = []
    for seed in range(20):
        text = dsl.serialize(random_model(random.Random(seed)))
        values += parsed_values(dsl.parse(text).model)
    for cls, value in values:
        check_public(value, cls)
    assert {value.kind for cls, value in values if cls is Activity} == set(ActivityKind)
    assert any(cls is Edge and value.guard is not None for cls, value in values)


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_views_build_public_nodes_and_edges(name):
    bundle = load_bundle(name)
    values = list(view_values(bundle.model, list(scenario_traces(bundle))))
    assert values
    for cls, value in values:
        check_public(value, cls)
