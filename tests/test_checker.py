"""Rule catalog behaviour: units, mutation suite, explain, reports."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from fmaf import checker
from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.checker import Finding, Severity, UnknownRuleError
from fmaf.model import ConstituentSystem

from _builders import action, checker_fixture, fixture_mutants, random_model, seq_graph

MUTANTS = fixture_mutants()
README = Path(__file__).resolve().parent.parent / "README.md"

# One sha256 over the finding records of the four bundles, ``random_model``
# seeds 0-199 and every mutant, in that order; it only changes when a rule's
# verdicts, messages, scopes or order change on purpose.
FINDINGS_DIGEST = "5410aa2dd82665b00fc52eab241c386a80fc1296e19536886829acdb6e287d63"


class TestCleanFixture:
    def test_no_findings_at_all(self):
        assert checker.check(checker_fixture()) == []

    def test_check_is_deterministic(self):
        model = checker_fixture()
        assert checker.check(model) == checker.check(model)


class TestMutationSuite:
    @pytest.mark.parametrize(
        "rule_id,label,model",
        MUTANTS,
        ids=[f"{r}-{label.replace(' ', '-')}" for r, label, _ in MUTANTS],
    )
    def test_single_defect_yields_single_finding(self, rule_id, label, model):
        findings = checker.check(model)
        assert len(findings) == 1, [str(f) for f in findings]
        (f,) = findings
        assert f.rule_id == rule_id
        assert f.severity is checker.CATALOG[rule_id].severity

    def test_every_violation_rule_has_a_mutant(self):
        covered = {rule_id for rule_id, _, _ in MUTANTS}
        assert covered == set(checker.CATALOG)

    def test_every_catalog_rule_has_one_generator(self):
        assert list(checker._RULES) == list(checker.CATALOG)


def test_every_finding_is_pinned():
    models = [load_bundle(name).model for name in BUNDLE_NAMES]
    models += [random_model(random.Random(seed)) for seed in range(200)]
    models += [model for _, _, model in MUTANTS]
    digest = hashlib.sha256()
    found = 0
    for model in models:
        records = checker.to_records(checker.check(model))
        found += len(records)
        digest.update(json.dumps(records, sort_keys=True).encode("utf-8"))
    assert (len(models), found) == (214, 417)
    assert digest.hexdigest() == FINDINGS_DIGEST


class TestRuleDetails:
    def find(self, rule_id, label):
        for r, lab, model in MUTANTS:
            if r == rule_id and lab == label:
                return checker.check(model)[0]
        raise AssertionError(f"no mutant {rule_id} {label}")

    def test_r1_subject_and_scope(self):
        f = self.find("R1", "failure observed internally")
        assert f.subject == "CH1" and f.chain == "CH1"
        assert "boundary" in f.message

    def test_r2_names_the_environment_entity(self):
        f = self.find("R2", "chain origin in the environment")
        assert "'E'" in f.message and "environment entity" in f.message

    def test_r3_subject_is_the_unconnected_constituent(self):
        f = self.find("R3", "recovery involves an unconnected constituent")
        assert f.subject == "D"

    def test_r4_names_the_missing_node_and_role(self):
        f = self.find("R4", "chain references an undefined threat node")
        assert "'Ne'" in f.message and "error" in f.message

    def test_r5_two_faces(self):
        ghost = self.find("R5", "detection names an unknown recovery")
        assert ghost.subject == "DET1" and "'Ghost'" in ghost.message
        uncovered = self.find("R5", "listed detector lacks a detection spec")
        assert uncovered.subject == "CH1" and "'C'" in uncovered.message

    def test_r6_names_graph_activity_and_channel(self):
        f = self.find("R6", "recovery send over an undeclared connection")
        assert f.subject == "REC1"
        assert "'RGB'" in f.message and "'notify'" in f.message
        assert f.chain == "CH1"  # only one detection uses REC1

    def test_r6_is_unscoped_for_a_shared_or_unnamed_recovery(self):
        _, _, model = next(m for m in MUTANTS if m[0] == "R6")
        other = dataclasses.replace(model.detections["DET1"], id="DET2", threat="CH2")
        shared = dataclasses.replace(model, detections={**model.detections, "DET2": other})
        unnamed = dataclasses.replace(model, detections={})
        for variant in (shared, unnamed):
            (f,) = [f for f in checker.check(variant) if f.rule_id == "R6"]
            assert f.subject == "REC1" and f.chain is None

    def test_r7_is_silent_when_the_origin_names_no_graph(self):
        # build_model refuses a dangling nominal process; a model built
        # directly reaches the checker with one, and a stray region.
        base = checker_fixture()
        origin = dataclasses.replace(base.constituents["A"], nominal_process="Nowhere")
        act = dataclasses.replace(base.activations["ACT1"], region=frozenset({"Stray"}))
        model = dataclasses.replace(
            base,
            constituents={**base.constituents, "A": origin},
            activations={"ACT1": act},
        )
        assert list(checker._r7(model)) == []
        assert [f for f in checker.check(model) if f.rule_id == "R7"] == []

    def test_warnings_do_not_count_as_violations(self):
        for rule_id in ("R7", "R8"):
            _, _, model = next(m for m in MUTANTS if m[0] == rule_id)
            findings = checker.check(model)
            assert not checker.has_violations(findings)


class TestOrderingAndMonotonicity:
    def test_findings_sorted_by_rule_then_subject(self):
        base = checker_fixture()
        chain = dataclasses.replace(
            base.chains["CH1"],
            origin="E",
            failure_observation=base.chains["CH1"].failure_observation.INTERNAL,
        )
        act = dataclasses.replace(base.activations["ACT1"], origin_constituent="E")
        model = dataclasses.replace(
            base, chains={"CH1": chain}, activations={"ACT1": act}
        )
        findings = checker.check(model)
        assert [f.rule_id for f in findings] == ["R1", "R2", "R2"]
        assert [f.subject for f in findings] == ["CH1", "ACT1", "CH1"]

    def test_unrelated_element_does_not_remove_findings(self):
        rule_id, _, mutant = MUTANTS[0]
        before = checker.check(mutant)
        grown = dataclasses.replace(
            mutant,
            constituents={
                **mutant.constituents,
                "Z": ConstituentSystem("Z", "Bystander", "GZ"),
            },
            processes={
                **mutant.processes,
                "GZ": seq_graph("GZ", "Z", [action("Z_idle")]),
            },
        )
        assert checker.check(grown) == before


class TestExplain:
    def test_r2_anchor(self):
        assert "a fault should be introduced by a CS" in checker.explain("R2")

    def test_r5_anchor(self):
        assert "prompts the beginning of the recovery process" in checker.explain("R5")

    def test_unknown_rule(self):
        with pytest.raises(UnknownRuleError):
            checker.explain("R99")

    def test_every_rule_explains_statement_and_rationale(self):
        for rule_id, rule in checker.CATALOG.items():
            text = checker.explain(rule_id)
            assert rule.statement in text
            assert rule.rationale in text
            assert rule.severity.value in text


def test_readme_lists_the_catalog():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Consistency rules", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0] not in ("Rule", "---"):
            rows.append((cells[0], cells[1].strip("`"), cells[2]))
    catalog = [(r.rule_id, r.title, r.severity.value) for r in checker.CATALOG.values()]
    assert rows == catalog


class TestScopingAndReports:
    def test_blocking_violations_respect_chain_scope(self):
        scoped = Finding("R2", Severity.VIOLATION, "F3.1", "bad origin", chain="F3.1")
        global_ = Finding("R4", Severity.VIOLATION, "X", "missing node")
        warn = Finding("R7", Severity.WARNING, "A1", "stray region", chain="F3.2")
        findings = [scoped, global_, warn]
        assert checker.blocking_violations(findings, "F3.1") == [scoped, global_]
        assert checker.blocking_violations(findings, "F3.2") == [global_]
        assert checker.blocking_violations([scoped, warn], "F3.2") == []

    def test_text_report_one_line_per_finding(self):
        _, _, model = MUTANTS[0]
        report = checker.format_report(checker.check(model))
        lines = report.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("R1 violation CH1:")

    def test_records_shape(self):
        _, _, model = MUTANTS[1]
        (record,) = checker.to_records(checker.check(model))
        assert record == {
            "rule": "R2",
            "severity": "violation",
            "subject": "CH1",
            "chain": "CH1",
            "message": record["message"],
        }
        assert "constituent system" in record["message"]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
