"""Bundled emergency-response models and their scenario configurations.

Four bundles ship with the package, all built on the same base: a call
centre takes an emergency call, dispatches a response unit over a radio
relay, and tracks the rescue to completion.

- ``nominal``: no threats, one scenario running the base to completion.
- ``fault1``: the radio dies outright; recovery falls back to mobile
  phones or a landline.
- ``fault2``: the unit's vehicle breaks down while travelling,
  transporting, or idle; each phase needs a different response.
- ``fault3``: the wrong-location family, one chain per hop of the
  reporting path, including the environment-origin chain F3.1 that the
  consistency checker is expected to reject.

Each bundle is a model file plus a ``<name>.scenarios.json`` file
holding scenario configurations and the outcomes they are expected to
produce. ``load_bundle`` reads both and materialises ready-to-run
:class:`~fmaf.simulator.SimConfig` objects. The expected map is plain
data for tests to interpret; see ``docs/scenario-config.md``.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .dsl import parse
from .model import FmafError, SosModel, _frozen_value
from .simulator import SimConfig

__all__ = ["BUNDLE_NAMES", "ScenarioBundle", "UnknownBundleError", "load_bundle"]

BUNDLE_NAMES = ("nominal", "fault1", "fault2", "fault3")


class UnknownBundleError(FmafError):
    """Raised when a bundle name is not one of BUNDLE_NAMES."""


@_frozen_value(slots=False)
class ScenarioBundle:
    """One bundled model with its scenario configurations.

    ``scenarios`` maps scenario names to simulator configurations;
    ``expected`` maps the same names to expected-outcome summaries
    (plain JSON data). ``model`` is the parsed model, kept alongside
    ``model_file`` so callers need not re-read the file.
    """

    name: str
    model_file: Path
    model: SosModel
    scenarios: Mapping[str, SimConfig]
    expected: Mapping[str, Mapping[str, Any]]


def _to_config(name: str, raw: Mapping[str, Any]) -> SimConfig:
    known = {"scenario", "seed", "horizon", "detectors", "guards", "recovery"}
    extra = set(raw) - known
    if extra:
        raise FmafError(f"scenario {name!r}: unknown config fields {sorted(extra)}")
    # SimConfig checks and converts the detectors and guards itself.
    return SimConfig(
        scenario=raw.get("scenario"),
        seed=int(raw.get("seed", 0)),
        horizon=int(raw.get("horizon", 200)),
        enabled_detectors=raw.get("detectors"),
        guard_inputs=raw.get("guards", {}),
        recovery_enabled=bool(raw.get("recovery", True)),
    )


def load_bundle(name: str) -> ScenarioBundle:
    """Load a bundled model and its scenario configurations by name."""
    if name not in BUNDLE_NAMES:
        known = ", ".join(BUNDLE_NAMES)
        raise UnknownBundleError(f"unknown bundle {name!r}; known bundles: {known}")
    root = resources.files("fmaf").joinpath("models")
    config = json.loads(
        root.joinpath(f"{name}.scenarios.json").read_text(encoding="utf-8")
    )
    model_path = root.joinpath(config["model"])
    result = parse(model_path.read_text(encoding="utf-8"))
    if result.model is None:
        problems = "; ".join(str(d) for d in result.diagnostics)
        raise FmafError(f"bundled model {config['model']!r} does not parse: {problems}")
    scenarios = {
        sname: _to_config(sname, raw) for sname, raw in config["scenarios"].items()
    }
    for sname, cfg in scenarios.items():
        if cfg.scenario is not None and cfg.scenario not in result.model.chains:
            raise FmafError(
                f"bundle {name!r}: scenario {sname!r} names unknown chain {cfg.scenario!r}"
            )
    return ScenarioBundle(
        name=name,
        model_file=Path(str(model_path)),
        model=result.model,
        scenarios=scenarios,
        expected=config.get("expected", {}),
    )
