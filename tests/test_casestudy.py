"""Bundled case-study models: loading, checker status, golden outcomes.

The expected map of every bundle is validated by actually running the
simulator with the bundled configuration and comparing outcomes and
metric values, never by comparing trace bytes.
"""

import json
import re
from types import SimpleNamespace

import pytest

from fmaf import casestudy, check, run
from fmaf.casestudy import BUNDLE_NAMES, ScenarioBundle, UnknownBundleError, load_bundle
from fmaf.checker import Severity
from fmaf.model import FmafError
from fmaf.simulator import InvalidConfigError, ModelViolationsError


class TestLoading:
    def test_bundle_names(self):
        assert BUNDLE_NAMES == ("nominal", "fault1", "fault2", "fault3")

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    def test_loads(self, name):
        bundle = load_bundle(name)
        assert isinstance(bundle, ScenarioBundle)
        assert bundle.name == name
        assert bundle.model_file.is_file()
        assert bundle.scenarios, "bundle has no scenarios"
        assert set(bundle.expected) == set(bundle.scenarios)

    def test_unknown_bundle(self):
        with pytest.raises(UnknownBundleError, match="fault9"):
            load_bundle("fault9")

    def test_scenario_chains_exist(self):
        for name in BUNDLE_NAMES:
            bundle = load_bundle(name)
            for cfg in bundle.scenarios.values():
                if cfg.scenario is not None:
                    assert cfg.scenario in bundle.model.chains

    def test_loading_is_stable(self):
        a, b = load_bundle("fault2"), load_bundle("fault2")
        assert a.scenarios == b.scenarios
        assert a.model == b.model

    def test_scenario_count_across_bundles(self):
        total = sum(len(load_bundle(n).scenarios) for n in BUNDLE_NAMES)
        assert total == 10

    def test_unknown_config_field_is_refused(self):
        with pytest.raises(FmafError) as info:
            casestudy._to_config("s", {"bogus": 1})
        assert str(info.value) == "scenario 's': unknown config fields ['bogus']"

    def test_a_string_of_detectors_is_refused(self):
        with pytest.raises(InvalidConfigError) as info:
            casestudy._to_config("x", {"detectors": "CallCentre"})
        assert str(info.value) == "enabled detectors are ids, not the string 'CallCentre'"

    def test_guards_that_are_no_mapping_or_pairs_are_refused(self):
        with pytest.raises(InvalidConfigError) as info:
            casestudy._to_config("x", {"guards": "ab"})
        assert str(info.value) == (
            "guard inputs are no mapping or pairs: dictionary update sequence "
            "element #0 has length 1; 2 is required"
        )


def _bundle_dir(tmp_path, monkeypatch, model_text, scenarios):
    """Point ``load_bundle`` at a ``nominal`` bundle made under ``tmp_path``."""
    models = tmp_path / "models"
    models.mkdir()
    (models / "m.fmaf").write_text(model_text)
    config = {"model": "m.fmaf", "scenarios": scenarios}
    (models / "nominal.scenarios.json").write_text(json.dumps(config))
    monkeypatch.setattr(casestudy, "resources", SimpleNamespace(files=lambda package: tmp_path))


class TestBundleRefusals:
    def test_model_that_does_not_parse(self, tmp_path, monkeypatch):
        _bundle_dir(tmp_path, monkeypatch, "sos Broken {", {})
        message = (
            "bundled model 'm.fmaf' does not parse: 1:13: error: expected a "
            "declaration keyword or '}', found end of input"
        )
        with pytest.raises(FmafError, match=f"^{re.escape(message)}$"):
            load_bundle("nominal")

    def test_scenario_naming_an_unknown_chain(self, tmp_path, monkeypatch):
        text = load_bundle("nominal").model_file.read_text()
        _bundle_dir(tmp_path, monkeypatch, text, {"s": {"scenario": "NOPE"}})
        message = "bundle 'nominal': scenario 's' names unknown chain 'NOPE'"
        with pytest.raises(FmafError, match=f"^{re.escape(message)}$"):
            load_bundle("nominal")


class TestCheckerStatus:
    @pytest.mark.parametrize("name", ["nominal", "fault1", "fault2"])
    def test_clean_bundles(self, name):
        assert check(load_bundle(name).model) == []

    def test_fault3_has_exactly_the_intended_violation(self):
        findings = check(load_bundle("fault3").model)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule_id == "R2"
        assert finding.severity is Severity.VIOLATION
        assert finding.subject == "F3.1"


class TestGoldenOutcomes:
    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    def test_expected_map_holds(self, name):
        bundle = load_bundle(name)
        for sname, cfg in bundle.scenarios.items():
            want = bundle.expected[sname]
            if want["outcome"] == "checker-violation":
                with pytest.raises(ModelViolationsError) as err:
                    run(bundle.model, cfg)
                assert want["rule"] in {f.rule_id for f in err.value.findings}
                continue
            trace = run(bundle.model, cfg)
            assert trace.outcome.kind == want["outcome"], sname
            if "by" in want:
                assert trace.outcome.by == want["by"], sname
            if "recovery" in want:
                assert trace.outcome.recovery == want["recovery"], sname
            for metric, value in want.get("metrics", {}).items():
                assert trace.metrics[metric] == value, (sname, metric)


class TestBundleShape:
    def test_fault2_regions_cover_three_mission_phases(self):
        model = load_bundle("fault2").model
        regions = {
            spec.threat: set(spec.region) for spec in model.activations.values()
        }
        assert regions == {
            "F2.1": {"ServiceRescue"},
            "F2.2": {"TransportPatient"},
            "F2.3": {"Idle"},
        }

    def test_fault3_callback_line_is_recovery_only_and_used(self):
        model = load_bundle("fault3").model
        callback = model.connections["Callback"]
        assert callback.kind.value == "recovery-only"
        assert callback.endpoints() == {"PhoneSystem", "Caller"}
        channels = {
            node.channel
            for rec in model.recoveries.values()
            for gid in rec.graphs.values()
            for node in model.processes[gid].nodes.values()
            if node.channel is not None
        }
        assert "Callback" in channels

    def test_nominal_expects_time_to_arrive(self):
        bundle = load_bundle("nominal")
        (expected,) = bundle.expected.values()
        assert expected["metrics"]["TimeToArrive"] == 8

    def test_fault1_radio_links_are_dead(self):
        model = load_bundle("fault1").model
        assert model.connections["RadioIF_CC"].reliability == 0.0
        assert model.connections["RadioIF_ERU"].reliability == 0.0
