"""Every public frozen type against a stdlib twin.

``model._frozen_value`` builds all of them with shared methods and one
compiled ``__init__`` per class; ``_event_check.check_twin`` compares
each sample with the same fields in a class that ``dataclasses`` builds.
"""

from __future__ import annotations

import pytest

from fmaf.model import PartitionResult

from _event_check import check_twin, frozen_types, samples

SAMPLES = samples()


def test_every_public_frozen_type_has_a_sample():
    assert SAMPLES.keys() == frozen_types() | {PartitionResult}
    assert len(SAMPLES) == 36


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_behaves_like_its_stdlib_twin(cls):
    check_twin(SAMPLES[cls])
