"""View projections: focus handling, region counts, DOT determinism."""

from __future__ import annotations

import dataclasses

import pytest

from fmaf.model import DetectionStyle, FailureObservation
from fmaf.simulator import SimConfig, run
from fmaf.viewgen import (
    VIEW_KINDS,
    MissingFocusError,
    UnknownChainError,
    ViewCluster,
    ViewEdge,
    ViewError,
    ViewGraph,
    ViewNode,
    _quote,
    project,
    to_dot,
)

from _builders import checker_fixture, fixture_mutants, race_fixture


def clusters_of(graph, kind: str):
    return [c for c in graph.clusters if c.kind == kind]


def node_ids(graph) -> set[str]:
    return {n.id for n in graph.nodes}


class TestFocusHandling:
    @pytest.mark.parametrize(
        "kind", ["tcv", "ftcv", "fav", "recovery", "erroneous-process"]
    )
    def test_focus_required(self, kind):
        with pytest.raises(MissingFocusError):
            project(race_fixture(), kind)

    def test_unknown_chain(self):
        with pytest.raises(UnknownChainError):
            project(race_fixture(), "tcv", focus="GHOST")

    def test_unknown_view_kind(self):
        with pytest.raises(ViewError, match="unknown view kind"):
            project(race_fixture(), "sideways")

    def test_scenario_view_needs_a_trace(self):
        with pytest.raises(MissingFocusError, match="trace"):
            project(race_fixture(), "erroneous-scenario")

    def test_all_kinds_are_projectable(self):
        model = race_fixture()
        trace = run(model, SimConfig(scenario="CH", seed=1, horizon=60))
        for kind in VIEW_KINDS:
            graph = project(
                model,
                kind,
                focus="CH" if kind not in ("fts", "fef", "erroneous-scenario") else None,
                trace=trace,
            )
            assert graph.view_kind == kind


class TestThreatChainView:
    def test_progression_and_boundary(self):
        graph = project(race_fixture(), "tcv", focus="CH")
        ids = node_ids(graph)
        assert {"threat:Tf", "threat:Te", "threat:Tx", "sos-boundary"} <= ids
        labels = {e.label for e in graph.edges}
        assert {"raises", "propagates to", "observed at"} <= labels

    def test_one_cluster_per_involved_constituent(self):
        graph = project(race_fixture(), "tcv", focus="CH")
        assert len(graph.clusters) == 2
        origin = next(c for c in graph.clusters if "P" in c.members)
        assert {"threat:Tf", "threat:Te"} <= set(origin.members)

    def test_detector_annotation_edges(self):
        graph = project(race_fixture(), "tcv", focus="CH")
        detect_edges = {(e.src, e.dst) for e in graph.edges if e.style_class == "detects"}
        assert detect_edges == {("threat:Te", "P"), ("threat:Te", "Q")}

    def test_internal_observation_has_no_boundary_node(self):
        model = race_fixture()
        chain = dataclasses.replace(
            model.chains["CH"], failure_observation=FailureObservation.INTERNAL
        )
        model = dataclasses.replace(model, chains={"CH": chain})
        graph = project(model, "tcv", focus="CH")
        assert "sos-boundary" not in node_ids(graph)


class TestConstituentConnectionView:
    def test_recovery_only_connection_included(self):
        graph = project(race_fixture(), "ftcv", focus="CH")
        helpline = [e for e in graph.edges if e.label == "HelpLine"]
        assert helpline and helpline[0].style_class == "recovery-only"

    def test_recovery_owners_always_present(self):
        model = race_fixture()
        graph = project(model, "ftcv", focus="CH")
        owners = set()
        for det in model.detections_for("CH"):
            owners |= set(model.recoveries[det.recovery].graphs)
        assert owners <= node_ids(graph)


class TestActivationView:
    def test_separate_style_has_one_region_per_detector(self):
        graph = project(race_fixture(), "fav", focus="CH")
        detection = clusters_of(graph, "detection-region")
        assert len(detection) == 2  # detectors P and Q
        assert len(clusters_of(graph, "activation-region")) == 1
        assert len(clusters_of(graph, "erroneous-region")) == 1

    def test_shared_style_merges_into_one_region(self):
        model = race_fixture()
        detections = {
            did: dataclasses.replace(d, style=DetectionStyle.SHARED_REGION)
            for did, d in model.detections.items()
        }
        model = dataclasses.replace(model, detections=detections)
        graph = project(model, "fav", focus="CH")
        detection = clusters_of(graph, "detection-region")
        assert len(detection) == 1
        assert len(detection[0].members) == 3  # all three markers together
        assert len(graph.clusters) == 3  # activation + erroneous + shared detection

    def test_activation_region_holds_fault_and_region_activities(self):
        graph = project(race_fixture(), "fav", focus="CH")
        activation = clusters_of(graph, "activation-region")[0]
        assert set(activation.members) == {"threat:Tf", "p_serve"}

    def test_erroneous_region_is_strictly_downstream(self):
        graph = project(race_fixture(), "fav", focus="CH")
        erroneous = clusters_of(graph, "erroneous-region")[0]
        assert set(erroneous.members) == {"p_report", "p_done"}

    def test_recovery_start_markers_use_recovery_names(self):
        graph = project(race_fixture(), "fav", focus="CH")
        labels = {n.label for n in graph.nodes if n.shape_class == "marker"}
        assert "Start Recovery origin restarts itself" in labels
        assert "Start Recovery watcher takes over" in labels

    def test_environment_origin_cannot_be_projected(self):
        bad = next(
            m
            for rid, label, m in fixture_mutants()
            if label == "chain origin in the environment"
        )
        with pytest.raises(ViewError, match="outside the constituents"):
            project(bad, "fav", focus="CH1")

    @pytest.mark.parametrize("kind", ["fav", "erroneous-process"])
    def test_origin_process_views_refuse_what_they_cannot_project(self, kind):
        env_origin = next(
            m
            for rid, label, m in fixture_mutants()
            if label == "chain origin in the environment"
        )
        with pytest.raises(ViewError) as excinfo:
            project(env_origin, kind, focus="CH1")
        assert str(excinfo.value) == (
            "chain 'CH1' originates outside the constituents; no nominal process to project"
        )
        model = race_fixture()
        origin = dataclasses.replace(model.constituents["P"], nominal_process="NOPE")
        dangling = dataclasses.replace(model, constituents={**model.constituents, "P": origin})
        with pytest.raises(ViewError) as excinfo:
            project(dangling, kind, focus="CH")
        assert str(excinfo.value) == (
            "chain 'CH': the nominal process 'NOPE' of 'P' is not in the model"
        )

    def test_projection_soundness(self):
        model = race_fixture()
        graph = project(model, "fav", focus="CH")
        activities = set(model.processes["GP"].nodes)
        threats = {f"threat:{t}" for t in model.threat_nodes}
        markers = {f"detect:{d}" for d in model.detections}
        allowed = activities | threats | markers | {"sos-boundary", "erroneous-state"}
        assert node_ids(graph) <= allowed


class TestRecoveryView:
    def test_per_constituent_lanes(self):
        graph = project(race_fixture(), "recovery", focus="CH")
        lanes = {c.label: c.members for c in clusters_of(graph, "lane")}
        assert set(lanes) == {"Worker", "Watcher", "Backup"}
        assert any("fix_local" in m for m in lanes["Worker"])
        assert any("q_takeover" in m for m in lanes["Watcher"])

    def test_cross_lane_message_edge(self):
        graph = project(race_fixture(), "recovery", focus="CH")
        messages = [e for e in graph.edges if e.style_class == "message"]
        assert len(messages) == 1
        assert messages[0].label == "HelpLine"
        assert "summon" in messages[0].src and "r_answer" in messages[0].dst


class TestErroneousViews:
    def test_process_splices_error_into_nominal_flow(self):
        model = race_fixture()
        graph = project(model, "erroneous-process", focus="CH")
        assert {"p_setup", "p_serve", "threat:Te", "threat:Tx", "sos-boundary"} <= node_ids(graph)
        raises = [e for e in graph.edges if e.label == "raises"]
        assert [(e.src, e.dst) for e in raises] == [("p_serve", "threat:Te")]

    def test_scenario_view_orders_interactions(self):
        model = race_fixture()
        trace = run(model, SimConfig(scenario="CH", seed=1, horizon=60))
        graph = project(model, "erroneous-scenario", trace=trace)
        labels = [e.label for e in graph.edges]
        assert labels == sorted(labels, key=lambda s: int(s.split(".")[0]))
        assert any("error detected" in s for s in labels)

    def test_failed_run_reaches_the_boundary(self):
        model = race_fixture()
        trace = run(
            model,
            SimConfig(scenario="CH", seed=0, horizon=60, recovery_enabled=False),
        )
        graph = project(model, "erroneous-scenario", trace=trace)
        assert "sos-boundary" in node_ids(graph)
        assert any(e.dst == "sos-boundary" for e in graph.edges)


class TestChainCatalogView:
    def test_every_chain_appears(self):
        graph = project(checker_fixture(), "fef")
        assert node_ids(graph) == {"threat:Nf", "threat:Ne", "threat:Nx"}
        assert {e.label for e in graph.edges} == {"CH1"}


class TestDotOutput:
    def test_empty_graph_skeleton(self):
        assert to_dot(ViewGraph("tcv")) == "digraph tcv { }\n"

    def test_dashed_kind_is_quoted(self):
        text = to_dot(ViewGraph("erroneous-scenario"))
        assert text == 'digraph "erroneous-scenario" { }\n'

    def test_counts_match_view_graph(self):
        graph = project(race_fixture(), "tcv", focus="CH")
        text = to_dot(graph)
        lines = text.splitlines()
        edge_lines = [l for l in lines if " -> " in l]
        node_lines = [l for l in lines if " [label=" in l and " -> " not in l]
        assert len(edge_lines) == len(graph.edges)
        assert len(node_lines) == len(graph.nodes)

    def test_deterministic_bytes(self):
        model = race_fixture()
        for kind, focus in [("tcv", "CH"), ("fav", "CH"), ("fts", None)]:
            a = to_dot(project(model, kind, focus=focus))
            b = to_dot(project(model, kind, focus=focus))
            assert a == b

    def test_repeated_edges_collapse_to_first_occurrence(self):
        model = race_fixture()
        gp = model.processes["GP"]
        doubled = dataclasses.replace(gp, edges=gp.edges + gp.edges)
        twice = dataclasses.replace(model, processes={**model.processes, "GP": doubled})
        graph = project(twice, "fav", focus="CH")
        flow = [(e.src, e.dst) for e in graph.edges if e.style_class == "flow"]
        assert flow == [(e.src, e.dst) for e in gp.edges]
        assert to_dot(graph) == to_dot(project(model, "fav", focus="CH"))

    def test_labels_are_escaped(self):
        graph = ViewGraph(
            "fts",
            nodes=(ViewNode("n1", 'say "hi"\nthere', "constituent"),),
        )
        text = to_dot(graph)
        assert '\\"hi\\"' in text and "\\n" in text


def _reference_quote(text: str) -> str:
    """The DOT quoting rule written as three unconditional replaces."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


_AWKWARD = [
    "",
    "plain",
    "back\\slash",
    'say "hi"',
    "line\nbreak",
    "cr\rreturn",
    "tab\there",
    "caf\u00e9 \u2014 \u6d88\u9632",
    '\\"\n\r\t mixed',
    "\\n is not a newline",
    '"',
    "\\",
    "\n",
]


class TestDotEscaping:
    @pytest.mark.parametrize("text", _AWKWARD)
    def test_quote_matches_the_reference(self, text):
        assert _quote(text) == _reference_quote(text)

    @pytest.mark.parametrize("text", _AWKWARD)
    def test_every_quoted_place_in_a_document(self, text):
        # The text as a node id (also at both edge ends), node label, edge
        # label, cluster id, label and kind, and in a quoted view kind.
        other = text + "'"
        graph = ViewGraph(
            "v-" + text,
            nodes=(ViewNode(text, text, "constituent"), ViewNode(other, text, "environment")),
            edges=(ViewEdge(text, other, text, "message"), ViewEdge(other, text)),
            clusters=(ViewCluster(text, text, text, (text,)),),
        )
        q = _reference_quote
        # An empty edge label is left out, not written as label="".
        edge_attrs = f"label={q(text)}, style=dashed" if text else "style=dashed"
        assert to_dot(graph) == "\n".join([
            f"digraph {q('v-' + text)} {{",
            f"  subgraph {q('cluster_0_' + text)} {{",
            f"    label={q(text)};",
            f"    class={q(text)};",
            f"    {q(text)} [label={q(text)}, shape=box, style=rounded];",
            "  }",
            f"  {q(other)} [label={q(text)}, shape=box, style=dashed];",
            f"  {q(text)} -> {q(other)} [{edge_attrs}];",
            f"  {q(other)} -> {q(text)};",
            "}",
        ]) + "\n"


class TestViewGraphValidation:
    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ViewError, match="unique"):
            ViewGraph(
                "fts",
                nodes=(ViewNode("a", "", "activity"), ViewNode("a", "", "activity")),
            )

    def test_edges_must_reference_nodes(self):
        with pytest.raises(ViewError, match="unknown nodes"):
            ViewGraph("fts", nodes=(), edges=(ViewEdge("a", "b"),))

    def test_cluster_must_list_known_nodes(self):
        with pytest.raises(ViewError) as excinfo:
            ViewGraph(
                "tcv",
                nodes=(ViewNode("a", "", "activity"),),
                clusters=(ViewCluster("c", "", "constituent", ("a", "x")),),
            )
        assert str(excinfo.value) == "cluster 'c' lists unknown node 'x'"

    def test_node_may_belong_to_one_cluster_only(self):
        with pytest.raises(ViewError) as excinfo:
            ViewGraph(
                "tcv",
                nodes=(ViewNode("a", "", "activity"),),
                clusters=(
                    ViewCluster("c", "", "constituent", ("a",)),
                    ViewCluster("d", "", "constituent", ("a",)),
                ),
            )
        assert str(excinfo.value) == "node 'a' belongs to two clusters"
