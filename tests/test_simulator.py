"""Simulator behavior: determinism, causality, races, recovery, metrics."""

from __future__ import annotations

import dataclasses
import json

import pytest

import fmaf.simulator as simulator
from fmaf.casestudy import load_bundle
from fmaf.model import (
    Activity,
    ActivityGraph,
    ActivityKind,
    ConstituentSystem,
    Count,
    DetectionSpec,
    Edge,
    MetricSpec,
    Probabilistic,
    ThirdPartyReport,
    build_model,
)
from fmaf.simulator import (
    BoundExceededError,
    InvalidConfigError,
    ModelViolationsError,
    Outcome,
    SimConfig,
    UnknownEventPatternError,
    compute_metrics,
    enumerate_outcomes,
    format_trace,
    run,
    summarize,
    write_trace,
)

from _builders import (
    ScriptedSampler,
    action,
    checker_fixture,
    coin_race_fixture,
    fixture_mutants,
    race_fixture,
)

# Pinned Bernoulli branches for the third-party report in race_fixture:
# random.Random(1).random() < 0.5 holds, random.Random(0).random() < 0.5
# does not.
HIT_SEED = 1
MISS_SEED = 0


def cfg(**kw) -> SimConfig:
    kw.setdefault("scenario", "CH")
    kw.setdefault("horizon", 60)
    return SimConfig(**kw)


def times(trace, kind: str) -> list[int]:
    return [e.time for e in trace.events if e.kind == kind]


class TestConfigValidation:
    def test_horizon_must_be_positive(self):
        with pytest.raises(InvalidConfigError):
            SimConfig(horizon=0)

    @pytest.mark.parametrize("field,value", [
        ("horizon", "50"), ("horizon", 2.5), ("horizon", True),
        ("seed", 1.5), ("seed", [1]), ("seed", False),
        ("recovery_enabled", "no"), ("recovery_enabled", 0),
        ("scenario", ["x"]), ("scenario", 5),
    ])
    def test_wrongly_typed_fields_are_refused(self, field, value):
        with pytest.raises(InvalidConfigError, match=f"^{field} must be "):
            SimConfig(**{field: value})

    def test_unknown_scenario(self):
        with pytest.raises(InvalidConfigError, match="unknown scenario"):
            run(race_fixture(), cfg(scenario="NOPE"))

    def test_detector_must_belong_to_chain(self):
        with pytest.raises(InvalidConfigError, match="not detectors of"):
            run(race_fixture(), cfg(enabled_detectors=frozenset({"R"})))

    def test_guard_input_must_name_a_decision(self):
        with pytest.raises(InvalidConfigError, match="names no decision"):
            run(race_fixture(), cfg(guard_inputs={"p_serve": "x"}))

    def test_a_string_of_detectors_is_refused(self):
        with pytest.raises(InvalidConfigError, match="not the string 'CallCentre'"):
            SimConfig(enabled_detectors="CallCentre")
        for ids in (["P", "Q"], ("P", "Q"), {"P": 1, "Q": 2}, iter("PQ")):
            assert SimConfig(enabled_detectors=ids).enabled_detectors == frozenset({"P", "Q"})

    def test_detectors_that_are_no_collection_of_id_strings_are_refused(self):
        for bad, message in (
            (5, "enabled detectors must be a collection: 'int' object is not iterable"),
            ([[1]], "enabled detectors must be a collection: unhashable type: 'list'"),
            ({1, "a"}, "enabled detectors must be strings, not 1"),
            ([b"P", 2.5, "Q"], "enabled detectors must be strings, not 2.5, b'P'"),
        ):
            with pytest.raises(InvalidConfigError) as info:
                SimConfig(enabled_detectors=bad)
            assert str(info.value) == message

    def test_guard_inputs_that_are_no_mapping_or_pairs_are_refused(self):
        for bad in ("ab", 5, [("d",)]):
            with pytest.raises(InvalidConfigError, match="guard inputs are no mapping or pairs"):
                SimConfig(guard_inputs=bad)
        for pairs in ({"d": "yes"}, [("d", "yes")], (("d", "yes"),), iter([("d", "yes")])):
            assert SimConfig(guard_inputs=pairs).guard_inputs == {"d": "yes"}

    def test_guard_inputs_that_are_not_strings_are_refused(self):
        for bad, message in (
            ({"NextAction": 5}, "('NextAction', 5)"),
            ({"NextAction": ["x"]}, "('NextAction', ['x'])"),
            ({5: "x"}, "(5, 'x')"),
            ([("d", "yes"), (b"e", None)], "(b'e', None)"),
        ):
            with pytest.raises(InvalidConfigError) as info:
                SimConfig(guard_inputs=bad)
            assert str(info.value) == f"guard inputs must be strings, not {message}"

    def test_activation_beyond_horizon(self):
        model = checker_fixture()
        from fmaf.model import AtTime

        act = dataclasses.replace(model.activations["ACT1"], trigger=AtTime(99))
        model = dataclasses.replace(model, activations={"ACT1": act})
        with pytest.raises(InvalidConfigError, match="beyond the horizon"):
            run(model, SimConfig(scenario="CH1", horizon=50))

    def test_scenario_scoped_violation_blocks_that_scenario(self):
        bad = next(m for rid, _, m in fixture_mutants() if rid == "R1")
        with pytest.raises(ModelViolationsError) as exc:
            run(bad, SimConfig(scenario="CH1", horizon=50))
        assert exc.value.findings[0].rule_id == "R1"

    def test_scenario_scoped_violation_spares_other_runs(self):
        bad = next(m for rid, _, m in fixture_mutants() if rid == "R1")
        trace = run(bad, SimConfig(horizon=50))
        assert trace.outcome.kind == "nominal"


class TestConfigHashing:
    def test_equal_configs_hash_equal(self):
        a = SimConfig(scenario="CH", guard_inputs={"d1": "x", "d2": "y"})
        b = SimConfig(scenario="CH", guard_inputs={"d2": "y", "d1": "x"})
        assert a == b and hash(a) == hash(b)
        assert hash(SimConfig()) == hash(SimConfig())
        c = SimConfig(enabled_detectors={"D1"})
        assert hash(c) == hash(SimConfig(enabled_detectors=frozenset({"D1"})))

    def test_configs_work_as_set_members_and_dict_keys(self):
        configs = [
            SimConfig(),
            SimConfig(seed=1),
            SimConfig(guard_inputs={"d1": "x"}),
            SimConfig(guard_inputs={"d1": "y"}),
            SimConfig(enabled_detectors=frozenset()),
            SimConfig(recovery_enabled=False),
        ]
        assert len(set(configs + [SimConfig(), SimConfig(guard_inputs={"d1": "x"})])) == 6
        table = {config: i for i, config in enumerate(configs)}
        assert table[SimConfig(guard_inputs={"d1": "y"})] == 3
        assert SimConfig(seed=1) in table

    def test_repr_and_equality_are_unchanged(self):
        config = SimConfig(scenario="CH", guard_inputs={"d1": "x"})
        assert repr(config) == (
            "SimConfig(scenario='CH', seed=0, horizon=200, enabled_detectors=None, "
            "guard_inputs={'d1': 'x'}, recovery_enabled=True)"
        )
        assert config != SimConfig(scenario="CH", guard_inputs={"d1": "y"})


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 7, 1234])
    def test_identical_runs_produce_identical_trace_bytes(self, seed):
        model = race_fixture()
        a = run(model, cfg(seed=seed))
        b = run(model, cfg(seed=seed))
        assert format_trace(a) == format_trace(b)
        assert a.events == b.events
        assert a.outcome == b.outcome

    def test_only_a_run_that_draws_seeds_a_generator(self, monkeypatch):
        made = []
        real = simulator.random.Random

        def counted(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(simulator.random, "Random", counted)
        fault1 = load_bundle("fault1")  # its radio links are dead, not lossy
        run(fault1.model, fault1.scenarios["F1"])
        assert made == []
        run(race_fixture(), cfg(seed=HIT_SEED))  # Q's third-party report draws
        assert made == [(HIT_SEED,)]
        monkeypatch.undo()
        # A seed that is no int is refused as the configuration is made.
        with pytest.raises(InvalidConfigError):
            dataclasses.replace(fault1.scenarios["F1"], seed=[1])

    def test_event_times_never_decrease(self):
        trace = run(race_fixture(), cfg(seed=HIT_SEED))
        ts = [e.time for e in trace.events]
        assert ts == sorted(ts)


class TestCausalOrder:
    def test_strict_causal_chain(self):
        trace = run(race_fixture(), cfg(seed=MISS_SEED))
        t_fault = times(trace, "fault-activated")[0]
        t_err = times(trace, "error-raised")[0]
        t_det = times(trace, "error-detected")[0]
        t_start = times(trace, "recovery-started")[0]
        t_done = times(trace, "recovery-complete")[0]
        assert t_fault < t_err <= t_det < t_start < t_done

    def test_exactly_one_fault_activation(self):
        trace = run(race_fixture(), cfg(seed=HIT_SEED))
        assert len(times(trace, "fault-activated")) == 1

    def test_recovered_implies_detection_before_completion(self):
        trace = run(race_fixture(), cfg(seed=HIT_SEED))
        assert trace.outcome.kind == "recovered"
        assert times(trace, "error-detected")[0] < times(trace, "recovery-complete")[0]

    def test_failed_implies_no_recovery_complete(self):
        trace = run(race_fixture(), cfg(seed=0, recovery_enabled=False))
        assert trace.outcome.kind == "failed-at-boundary"
        assert not times(trace, "recovery-complete")
        assert trace.events[-1].kind == "failure-observed"


class TestDetectionRace:
    def test_third_party_hit_beats_self_report(self):
        trace = run(race_fixture(), cfg(seed=HIT_SEED))
        assert trace.outcome == dataclasses.replace(
            trace.outcome, kind="recovered", by="Q", recovery="RTHIRD"
        )
        assert trace.metrics["MDetect"] == 1

    def test_third_party_miss_lets_origin_self_report(self):
        trace = run(race_fixture(), cfg(seed=MISS_SEED))
        assert trace.outcome.by == "P"
        assert trace.outcome.recovery == "RSELF"
        assert trace.metrics["MDetect"] == 2

    def test_timeout_detection_time_equals_bound(self):
        trace = run(
            race_fixture(),
            cfg(seed=MISS_SEED, enabled_detectors=frozenset({"Q"})),
        )
        assert trace.outcome.recovery == "RTIME"
        assert trace.metrics["MDetect"] == 15

    def test_timer_expired_immediately_precedes_timeout_detection(self):
        trace = run(
            race_fixture(),
            cfg(seed=MISS_SEED, enabled_detectors=frozenset({"Q"})),
        )
        kinds = [e.kind for e in trace.events]
        i = kinds.index("error-detected")
        assert kinds[i - 1] == "timer-expired"
        assert trace.events[i - 1].time == trace.events[i].time

    def test_tie_breaks_by_candidate_id(self):
        model = race_fixture()
        slow_third = dataclasses.replace(
            model.detections["DTHIRD"], condition=ThirdPartyReport(0.5, 2)
        )
        detections = dict(model.detections)
        detections["DTHIRD"] = slow_third
        model = dataclasses.replace(model, detections=detections)
        # Both DSELF and DTHIRD would fire two ticks after the error;
        # DSELF sorts first.
        trace = run(model, cfg(seed=HIT_SEED))
        assert trace.outcome.by == "P"
        assert trace.outcome.recovery == "RSELF"

    def test_detection_firing_after_the_horizon_never_wins(self):
        # The error is raised at tick 2, so DTIME's 15-tick timeout fires at 17.
        only_q = frozenset({"Q"})
        late = run(race_fixture(), cfg(seed=MISS_SEED, horizon=16, enabled_detectors=only_q))
        assert late.outcome.kind == "failed-at-boundary"
        assert times(late, "error-raised") == [2]
        assert not times(late, "timer-expired") and not times(late, "error-detected")
        on_time = run(race_fixture(), cfg(seed=MISS_SEED, horizon=17, enabled_detectors=only_q))
        assert times(on_time, "error-detected") == [17]

    def test_empty_detector_set_means_undetected_failure(self):
        trace = run(race_fixture(), cfg(seed=0, enabled_detectors=frozenset()))
        assert trace.outcome.kind == "failed-at-boundary"
        assert not times(trace, "error-detected")


class TestDetectorDictatesRecovery:
    def test_winner_recovery_steps_appear_and_losers_do_not(self):
        hit = run(race_fixture(), cfg(seed=HIT_SEED))
        hit_steps = {e.details["activity"] for e in hit.events if e.kind == "recovery-step"}
        assert {"summon", "verify", "r_answer", "r_assist"} <= hit_steps
        assert "fix_local" not in hit_steps

        miss = run(race_fixture(), cfg(seed=MISS_SEED))
        miss_steps = {e.details["activity"] for e in miss.events if e.kind == "recovery-step"}
        assert {"fix_local", "resume"} <= miss_steps
        assert "summon" not in miss_steps

    def test_recovery_message_flow_reaches_backup(self):
        trace = run(race_fixture(), cfg(seed=HIT_SEED))
        sent = [e for e in trace.events if e.kind == "message-sent"]
        assert sent and sent[0].details["channel"] == "HelpLine"
        delivered = [e for e in trace.events if e.kind == "message-delivered"]
        assert delivered and delivered[0].actor == "R"


class TestSuspension:
    def test_origin_nominal_work_stops_at_activation(self):
        trace = run(race_fixture(), cfg(seed=HIT_SEED))
        t_fault = times(trace, "fault-activated")[0]
        late_p_ends = [
            e
            for e in trace.events
            if e.kind == "activity-end" and e.actor == "P" and e.time > t_fault
        ]
        assert not late_p_ends

    def test_recovery_start_suspends_every_nominal_graph(self):
        trace = run(race_fixture(), cfg(seed=HIT_SEED))
        t_start = times(trace, "recovery-started")[0]
        late_nominal = [
            e
            for e in trace.events
            if e.kind in ("activity-start", "activity-end") and e.time > t_start
        ]
        assert not late_nominal


class TestOutcomesAndHorizon:
    def test_nominal_completion(self):
        trace = run(race_fixture(), SimConfig(horizon=60))
        assert trace.outcome.kind == "nominal"
        ends = {e.details["activity"]: e.time for e in trace.events if e.kind == "activity-end"}
        assert ends["p_done"] == 7 and ends["q_log"] == 8

    def test_nominal_horizon_exhaustion(self):
        trace = run(race_fixture(), SimConfig(horizon=3))
        assert trace.outcome.kind == "horizon-exhausted"

    def test_fault_run_can_exhaust_horizon_mid_recovery(self):
        # Detection fires at tick 4; recovery would start at 5, past the
        # horizon.
        trace = run(race_fixture(), cfg(seed=MISS_SEED, horizon=4))
        assert trace.outcome.kind == "horizon-exhausted"

    def test_undetectable_error_fails_at_quiescence(self):
        trace = run(race_fixture(), cfg(seed=MISS_SEED, horizon=3))
        assert trace.outcome.kind == "failed-at-boundary"
        failure = trace.events[-1]
        assert failure.kind == "failure-observed"
        assert failure.details["chain"] == "CH"
        assert trace.metrics["MFail"] == 1

    def test_an_activation_that_never_fires_ends_not_activated(self):
        model = coin_race_fixture()
        traces = [run(model, cfg(seed=seed)) for seed in range(10)]
        kinds = [trace.outcome.kind for trace in traces]
        assert kinds.count("not-activated") == 4
        assert set(kinds) == {"recovered", "not-activated"}
        for trace in traces:
            if trace.outcome == Outcome("not-activated"):
                assert not times(trace, "fault-activated")
                assert times(trace, "activity-end")[-1] == 8  # the nominal flow ran out
        assert enumerate_outcomes(model, cfg()) == {
            ("P", "recovered"),
            ("Q", "recovered"),
            (None, "not-activated"),
        }


class TestMessaging:
    def test_nominal_message_latency(self):
        trace = run(race_fixture(), SimConfig(horizon=60))
        sent = next(e for e in trace.events if e.kind == "message-sent")
        delivered = next(e for e in trace.events if e.kind == "message-delivered")
        assert sent.time == 6 and delivered.time == 7
        assert delivered.details["channel"] == "LinkPQ"

    def test_dead_link_loses_the_message(self):
        model = race_fixture()
        dead = dataclasses.replace(model.connections["LinkPQ"], reliability=0.0)
        model = dataclasses.replace(
            model, connections={**model.connections, "LinkPQ": dead}
        )
        trace = run(model, SimConfig(horizon=60))
        assert times(trace, "message-lost")
        assert not times(trace, "message-delivered")
        # The watcher never hears back, so the run stalls short of
        # nominal completion.
        assert trace.outcome.kind == "horizon-exhausted"

    def test_lossy_link_enumeration_and_containment(self):
        model = race_fixture()
        flaky = dataclasses.replace(model.connections["LinkPQ"], reliability=0.5)
        model = dataclasses.replace(
            model, connections={**model.connections, "LinkPQ": flaky}
        )
        config = SimConfig(horizon=60)
        expected = enumerate_outcomes(model, config)
        assert expected == {(None, "nominal"), (None, "horizon-exhausted")}
        for seed in range(20):
            trace = run(model, SimConfig(horizon=60, seed=seed))
            assert summarize(trace) in expected


class TestEnumeration:
    def test_full_race_outcome_set(self):
        outcomes = enumerate_outcomes(race_fixture(), cfg(seed=0))
        assert outcomes == {("P", "recovered"), ("Q", "recovered")}

    def test_seeded_runs_stay_inside_enumerated_set(self):
        model = race_fixture()
        expected = enumerate_outcomes(model, cfg(seed=0))
        for seed in range(25):
            assert summarize(run(model, cfg(seed=seed))) in expected

    def test_nominal_enumeration_is_single(self):
        assert enumerate_outcomes(race_fixture(), SimConfig(horizon=60)) == {
            (None, "nominal")
        }

    def test_bound_rejects_large_graphs(self):
        with pytest.raises(BoundExceededError, match="bound is 3"):
            enumerate_outcomes(race_fixture(), cfg(seed=0), bound=3)

    @pytest.mark.parametrize("bound", ["12", 2.5, True, None])
    def test_a_bound_that_is_no_int_is_refused(self, bound):
        # 2.5 would refuse race_fixture's graphs of four nodes if the
        # graph-size check came first.
        with pytest.raises(InvalidConfigError) as info:
            enumerate_outcomes(race_fixture(), cfg(seed=0), bound=bound)
        assert str(info.value) == f"bound must be int, not {bound!r}"


def _one_draw_of_each_kind():
    """``race_fixture`` with every kind of draw, each kind of its own
    probability: a ``Probabilistic(0.3)`` activation over ``p_serve`` and
    ``p_done``, the send between them over a link of reliability 0.9, and
    third-party reports of p 0.6 (DTHIRD) and 0.7 (DTHIRD2) in the race,
    beside a certain one (DSURE, p 1) that never draws."""
    model = race_fixture()
    activation = dataclasses.replace(
        model.activations["ACT"],
        region=frozenset({"p_serve", "p_done"}),
        trigger=Probabilistic(0.3),
    )
    link = dataclasses.replace(model.connections["LinkPQ"], reliability=0.9)
    reports = (
        DetectionSpec("DTHIRD", "CH", "Q", ThirdPartyReport(0.6, 1), "RTHIRD"),
        DetectionSpec("DTHIRD2", "CH", "P", ThirdPartyReport(0.7, 1), "RSELF"),
        DetectionSpec("DSURE", "CH", "P", ThirdPartyReport(1.0, 3), "RSELF"),
    )
    return dataclasses.replace(
        model,
        activations={"ACT": activation},
        connections={**model.connections, "LinkPQ": link},
        detections={**model.detections, **{spec.id: spec for spec in reports}},
    )


def test_draws_come_in_the_documented_order():
    # docs/semantics.md section 2: the activation draws at p_serve's
    # start (False), the send at its completion (True), the activation
    # again at p_done's start (True), then each uncertain report in
    # spec-id order; the recovery's send over a certain link never draws.
    sampler = ScriptedSampler((False, True, True, True, True))
    trace = simulator._Engine(_one_draw_of_each_kind(), cfg(), sampler).run()
    assert sampler.probabilities == [0.3, 0.9, 0.3, 0.6, 0.7]
    assert trace.outcome == Outcome("recovered", by="Q", recovery="RTHIRD")


class TestBranchingGraphs:
    @staticmethod
    def branching_model():
        graph = ActivityGraph(
            id="GB",
            owner="G",
            nodes={
                "start": action("start", 1),
                "choose": Activity("choose", ActivityKind.DECISION),
                "easy": action("easy", 1),
                "tough": action("tough", 2),
                "done": action("done", 1),
            },
            edges=(
                Edge("start", "choose"),
                Edge("choose", "easy"),
                Edge("choose", "tough", guard="hard"),
                Edge("easy", "done"),
                Edge("tough", "done"),
            ),
            entry="start",
            exits=frozenset({"done"}),
        )
        return build_model(
            name="Branching",
            constituents=[ConstituentSystem("G", "Chooser", "GB")],
            processes=[graph],
        )

    def test_guard_input_selects_branch(self):
        model = self.branching_model()
        trace = run(model, SimConfig(horizon=30, guard_inputs={"choose": "hard"}))
        ends = {e.details["activity"] for e in trace.events if e.kind == "activity-end"}
        assert "tough" in ends and "easy" not in ends

    def test_missing_or_unmatched_guard_takes_default(self):
        model = self.branching_model()
        for guards in ({}, {"choose": "banana"}):
            trace = run(model, SimConfig(horizon=30, guard_inputs=guards))
            ends = {e.details["activity"] for e in trace.events if e.kind == "activity-end"}
            assert "easy" in ends and "tough" not in ends

    def test_no_default_and_no_match_is_a_config_error(self):
        base = self.branching_model()
        graph = base.processes["GB"]
        edges = tuple(
            dataclasses.replace(e, guard="soft") if e.src == "choose" and e.guard is None else e
            for e in graph.edges
        )
        model = dataclasses.replace(
            base, processes={"GB": dataclasses.replace(graph, edges=edges)}
        )
        with pytest.raises(InvalidConfigError, match="no default branch"):
            run(model, SimConfig(horizon=30, guard_inputs={"choose": "banana"}))

    def test_fork_join_waits_for_slowest_branch(self):
        graph = ActivityGraph(
            id="GF",
            owner="F",
            nodes={
                "split": Activity("split", ActivityKind.FORK),
                "quick": action("quick", 1),
                "slow": action("slow", 2),
                "meet": Activity("meet", ActivityKind.JOIN),
                "tail": action("tail", 1),
            },
            edges=(
                Edge("split", "quick"),
                Edge("split", "slow"),
                Edge("quick", "meet"),
                Edge("slow", "meet"),
                Edge("meet", "tail"),
            ),
            entry="split",
            exits=frozenset({"tail"}),
        )
        model = build_model(
            name="Forked",
            constituents=[ConstituentSystem("F", "Forker", "GF")],
            processes=[graph],
        )
        trace = run(model, SimConfig(horizon=30))
        assert trace.outcome.kind == "nominal"
        ends = {e.details["activity"]: e.time for e in trace.events if e.kind == "activity-end"}
        assert ends == {"split": 0, "quick": 1, "slow": 2, "meet": 2, "tail": 3}
        starts = [e for e in trace.events if e.kind == "activity-start" and e.details["activity"] == "meet"]
        assert len(starts) == 1 and starts[0].time == 2


class TestMetrics:
    def test_metrics_match_an_independent_scan(self):
        trace = run(race_fixture(), cfg(seed=HIT_SEED))
        raised = min(e.time for e in trace.events if e.kind == "error-raised")
        detected = min(e.time for e in trace.events if e.kind == "error-detected")
        assert trace.metrics["MDetect"] == detected - raised
        assert trace.metrics["MFail"] == sum(
            1 for e in trace.events if e.kind == "failure-observed"
        )

    def test_absent_endpoints_yield_none_not_zero(self):
        nominal = run(race_fixture(), SimConfig(horizon=60))
        assert nominal.metrics["MDetect"] is None
        assert nominal.metrics["MServe"] == 4
        faulted = run(race_fixture(), cfg(seed=HIT_SEED))
        assert faulted.metrics["MServe"] is None

    def test_unknown_event_pattern_is_rejected(self):
        trace = run(race_fixture(), SimConfig(horizon=60))
        bogus = MetricSpec("X", Count("no-such-kind:thing"))
        with pytest.raises(UnknownEventPatternError):
            compute_metrics(trace, [bogus])


class TestTraceExport:
    def test_one_record_per_event_plus_summary(self):
        trace = run(race_fixture(), cfg(seed=HIT_SEED))
        text = format_trace(trace)
        lines = text.splitlines()
        assert len(lines) == len(trace.events) + 1
        for line in lines[:-1]:
            record = json.loads(line)
            assert set(record) == {"time", "kind", "actor", "details"}
        summary = json.loads(lines[-1])["summary"]
        assert summary["outcome"] == "recovered"
        assert summary["by"] == "Q"
        assert summary["metrics"]["MDetect"] == 1
        assert summary["events"] == len(trace.events)

    def test_write_trace_round_trips(self, tmp_path):
        trace = run(race_fixture(), cfg(seed=MISS_SEED))
        path = tmp_path / "run.jsonl"
        write_trace(trace, path)
        assert path.read_text(encoding="utf-8") == format_trace(trace)

    def test_every_event_kind_is_in_the_published_vocabulary(self):
        from fmaf.model import EVENT_KINDS

        for config in (
            SimConfig(horizon=60),
            cfg(seed=HIT_SEED),
            cfg(seed=MISS_SEED, enabled_detectors=frozenset({"Q"})),
            cfg(seed=0, recovery_enabled=False),
        ):
            trace = run(race_fixture(), config)
            assert {e.kind for e in trace.events} <= set(EVENT_KINDS)
