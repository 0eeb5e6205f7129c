"""Parsing, diagnostics and canonical serialization."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random

import pytest

from fmaf import dsl
from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.checker import check
from fmaf.model import (
    ActivationSpec,
    ActivityKind,
    ConnectionKind,
    DetectionStyle,
    FailureObservation,
    OnEntry,
    SelfReport,
    ThirdPartyReport,
    Timeout,
    build_model,
)

from _builders import mini_sos, random_model

SMALL = """
sos Mini {
  cs Alpha "Alpha system" {
    nominal AWork
    provides [SvcIF]
  }
  cs Beta { nominal BWork requires [SvcIF] }
  env Outside "the world"
  connection LinkAB: Alpha <-> Beta { interface SvcIF latency 2t reliability 0.9 }
  fault F1.f "power loss" category Power
  error F1.e "stale data"
  failure F1.x "no service"
  chain F1 {
    fault F1.f
    error F1.e
    failure F1.x
    origin Alpha
    detectors [Beta, Alpha]
  }
  process AWork owner Alpha {
    entry Step1
    exits [Done]
    action Step1 "first step" 2t
    send Tell on LinkAB 1t
    action Done
    edge Step1 -> Tell
    edge Tell -> Done
  }
  process BWork owner Beta {
    entry Listen
    exits [Idle]
    receive Listen on LinkAB
    action Idle 1t
    edge Listen -> Idle
  }
  process RecB owner Beta {
    entry Fix
    exits [Fixed]
    action Fix "repair" 3t
    timer Cool 2t
    action Fixed
    edge Fix -> Cool
    edge Cool -> Fixed
  }
  activation F1.act {
    chain F1
    origin Alpha
    region [Step1, Tell]
    trigger at_time 1t
  }
  detection F1.det {
    chain F1
    detector Beta
    condition timeout 5t watching Alpha
    recovery R1
  }
  recovery R1 "fix it" {
    graph Beta RecB
    success [Fixed]
  }
  metric TT "time to fix" {
    elapsed "error-raised:F1" -> "recovery-complete"
    target 10t
  }
}
"""


def errors(result: dsl.ParseResult) -> list[str]:
    return [str(d) for d in result.diagnostics if d.severity == "error"]


def rebuild(m, **parts):
    """``m`` built again by ``build_model``, with the named parts replaced."""
    kwargs = {
        part: list(getattr(m, part).values())
        for part in (
            "constituents", "environment", "connections", "threat_nodes", "chains",
            "processes", "activations", "detections", "recoveries", "metrics",
        )
    }
    return build_model(name=m.name, **{**kwargs, **parts})


class TestParseBasics:
    def test_empty_model(self):
        r = dsl.parse("sos Empty { }")
        assert r.ok and not r.diagnostics
        m = r.model
        assert m.name == "Empty"
        assert not m.constituents and not m.chains and not m.processes

    def test_small_model_content(self):
        r = dsl.parse(SMALL)
        assert r.ok, errors(r)
        m = r.model
        assert set(m.constituents) == {"Alpha", "Beta"}
        assert m.constituents["Alpha"].provided_interfaces == frozenset({"SvcIF"})
        conn = m.connections["LinkAB"]
        assert (conn.interface_id, conn.latency, conn.reliability) == ("SvcIF", 2, 0.9)
        chain = m.chains["F1"]
        assert chain.detectors == ("Beta", "Alpha")  # order is meaningful
        assert chain.failure_observation is FailureObservation.SOS_BOUNDARY
        graph = m.processes["AWork"]
        assert graph.nodes["Tell"].kind is ActivityKind.SEND
        assert graph.nodes["Tell"].channel == "LinkAB"
        det = m.detections["F1.det"]
        assert det.condition == Timeout(5, "Alpha")
        assert det.style is DetectionStyle.SEPARATE_REGION
        assert m.recoveries["R1"].success_exits == frozenset({"Fixed"})
        assert m.metrics["TT"].target == 10

    def test_comments_and_crlf(self):
        body = (
            "sos X { # comment\r\n"
            "  cs A { nominal P } # another\r\n"
            "  process P owner A { entry N exits [N] action N }\r\n"
            "}"
        )
        r = dsl.parse(body)
        assert r.ok, errors(r)
        r2 = dsl.parse(body.replace("\r\n", "\n"))
        assert r.model == r2.model

    def test_trigger_and_condition_variants(self):
        src = """sos X {
          cs A { nominal P }
          process P owner A { entry N exits [N] action N }
          fault f "d"  error e "d"  failure x "d"
          chain C { fault f error e failure x origin A detectors [A] }
          activation On1 { chain C origin A region [N] trigger on_entry N }
          activation On2 { chain C origin A region [N] trigger probabilistic 0.25 }
          detection D1 { chain C detector A condition self_report 2t recovery R }
          detection D2 { chain C detector A condition third_party 0.5 1t
                         style shared recovery R }
          process Q owner A { entry M exits [M] action M }
          recovery R { graph A Q }
        }"""
        r = dsl.parse(src)
        assert r.ok, errors(r)
        m = r.model
        assert m.activations["On1"].trigger == OnEntry("N")
        assert m.activations["On2"].trigger.probability == 0.25
        assert m.detections["D1"].condition == SelfReport(2)
        assert m.detections["D2"].condition == ThirdPartyReport(0.5, 1)
        assert m.detections["D2"].style is DetectionStyle.SHARED_REGION

    def test_unrecoverable_chain(self):
        src = """sos X {
          cs A { nominal P }
          process P owner A { entry N exits [N] action N }
          fault f "d"  error e "d"  failure x "d"
          chain C { fault f error e failure x origin A unrecoverable observed internal }
        }"""
        r = dsl.parse(src)
        assert r.ok, errors(r)
        chain = r.model.chains["C"]
        assert chain.unrecoverable and not chain.detectors
        assert chain.failure_observation is FailureObservation.INTERNAL

    def test_same_activity_id_in_two_graphs(self):
        src = """sos X {
          cs A { nominal P }
          process P owner A {
            entry cause exits [done]
            decision cause
            action done  action alt
            edge cause -> done when "ok"
            edge cause -> alt
            edge alt -> done
          }
          process Q owner A {
            entry cause exits [wrap]
            decision cause
            action wrap  action alt
            edge cause -> wrap when "ok"
            edge cause -> alt
            edge alt -> wrap
          }
        }"""
        r = dsl.parse(src)
        assert r.ok, errors(r)
        assert r.model.find_activity("cause") == ["P", "Q"]

    def test_parse_file(self, tmp_path):
        path = tmp_path / "m.fmaf"
        path.write_text(SMALL, encoding="utf-8")
        r = dsl.parse_file(path)
        assert r.ok and r.model.name == "Mini"


class TestDiagnostics:
    def test_unknown_reference_span(self):
        src = (
            "sos X {\n"
            "  cs A { nominal P }\n"
            "  process P owner A { entry N exits [N] action N }\n"
            "  activation Z {\n"
            "    chain Ghost\n"
            "    origin A\n"
            "    region [N]\n"
            "    trigger at_time 0t\n"
            "  }\n"
            "}"
        )
        r = dsl.parse(src)
        assert not r.ok and r.model is None
        (d,) = r.diagnostics
        assert d.severity == "error"
        assert (d.span.line, d.span.col) == (5, 11)
        assert "unknown chain 'Ghost'" in d.message

    def test_duplicate_id_names_both_positions(self):
        src = (
            "sos X {\n"
            "  cs A { nominal P }\n"
            "  cs A { nominal P }\n"
            "  process P owner A { entry N exits [N] action N }\n"
            "}"
        )
        r = dsl.parse(src)
        assert not r.ok
        (d,) = r.diagnostics
        assert (d.span.line, d.span.col) == (3, 6)
        assert "duplicate element id 'A'" in d.message
        assert "first declared at 2:6" in d.message

    def test_syntax_error_reports_expected_token(self):
        r = dsl.parse("sos X { cs A nominal P } }")
        assert not r.ok
        (d,) = r.diagnostics
        assert "expected '{'" in d.message
        assert "'nominal'" in d.message

    def test_first_syntax_error_aborts(self):
        r = dsl.parse("sos X { cs ] cs ] }")
        assert len(r.diagnostics) == 1

    def test_unterminated_string(self):
        r = dsl.parse('sos X {\n  fault F "oops\n}')
        assert not r.ok
        assert "unterminated string" in r.diagnostics[0].message
        assert r.diagnostics[0].span.line == 2

    def test_semantic_errors_are_collected_together(self):
        src = """sos X {
          cs A { nominal Nope }
          env A
          connection C: A <-> Ghost
          process P owner A { entry N exits [N] action N }
        }"""
        r = dsl.parse(src)
        assert not r.ok
        msgs = " | ".join(errors(r))
        assert "unknown process 'Nope'" in msgs
        assert "duplicate element id 'A'" in msgs
        assert "unknown element 'Ghost'" in msgs

    def test_chain_kind_mismatch(self):
        src = """sos X {
          cs A { nominal P }
          process P owner A { entry N exits [N] action N }
          fault f "d"  error e "d"  failure x "d"
          chain C { fault e error e failure x origin A detectors [A] }
        }"""
        r = dsl.parse(src)
        assert not r.ok
        assert any(
            "has kind error" in m and "as its fault" in m for m in errors(r)
        )

    def test_graph_structure_error_lands_on_process(self):
        src = """sos X {
          cs A { nominal P }
          process P owner A {
            entry N
            exits [M]
            action N  action M  fork Split
            edge N -> Split
            edge Split -> M
          }
        }"""
        r = dsl.parse(src)
        assert not r.ok
        (d,) = r.diagnostics
        assert d.span.line == 3  # the process declaration
        assert "fork" in d.message

    def test_detector_must_be_listed_by_chain(self):
        src = """sos X {
          cs A { nominal P }
          cs B { nominal Q }
          process P owner A { entry N exits [N] action N }
          process Q owner B { entry M exits [M] action M }
          fault f "d"  error e "d"  failure x "d"
          chain C { fault f error e failure x origin A detectors [A] }
          detection D { chain C detector B condition self_report 1t recovery R }
          recovery R { graph A P }
        }"""
        r = dsl.parse(src)
        assert not r.ok
        assert any("not listed by chain 'C'" in m for m in errors(r))

    def test_metric_pattern_validation(self):
        base = """sos X {{
          cs A {{ nominal P }}
          process P owner A {{ entry N exits [N] action N }}
          metric M {{ count "{pattern}" }}
        }}"""
        r = dsl.parse(base.format(pattern="no-such-kind"))
        assert not r.ok and any("no-such-kind" in m for m in errors(r))
        r = dsl.parse(base.format(pattern="activity-end:Ghost"))
        assert not r.ok and any("'Ghost'" in m for m in errors(r))
        r = dsl.parse(base.format(pattern="activity-end:N"))
        assert r.ok

    def test_missing_required_fields(self):
        r = dsl.parse("sos X { cs A { } }")
        assert not r.ok
        assert any("no 'nominal'" in m for m in errors(r))
        r = dsl.parse(
            "sos X { cs A { nominal P }\n"
            "process P owner A { entry N exits [N] action N }\n"
            "chain C { origin A detectors [A] } }"
        )
        assert not r.ok
        msgs = " ".join(errors(r))
        assert "no 'fault'" in msgs and "no 'failure'" in msgs

    def test_repeated_field(self):
        src = """sos X {
          cs A { nominal P nominal P }
          process P owner A { entry N exits [N] action N }
        }"""
        r = dsl.parse(src)
        assert not r.ok
        assert any("repeated 'nominal'" in m for m in errors(r))

    def test_malformed_duration(self):
        r = dsl.parse("sos X { cs A { nominal 5x } }")
        assert not r.ok
        assert "malformed number" in r.diagnostics[0].message

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff11"])
    def test_non_ascii_digits_are_unexpected_characters(self, digit):
        for src, col in ((f"sos X {{ {digit} }}", 9), (f"sos X {{ 1{digit} }}", 10)):
            r = dsl.parse(src)
            assert not r.ok
            (d,) = r.diagnostics
            assert d.message == f"unexpected character {digit!r}"
            assert (d.span.line, d.span.col) == (1, col)

    def test_non_ascii_digit_is_no_duration(self):
        r = dsl.parse(
            "sos X { cs A { nominal P } connection C: A <-> A { latency \u0663t } }"
        )
        assert not r.ok
        assert r.diagnostics[0].message == "unexpected character '\u0663'"

    def test_latency_requires_tick_suffix(self):
        r = dsl.parse("sos X { cs A { nominal P } connection C: A <-> A { latency 2 } }")
        assert not r.ok
        assert any("tick count like 2t" in m for m in errors(r))


# A clean model; each duplicate-id test appends one declaration at line 13,
# then the closing brace.
DUP_BASE = (
    "sos X {\n"
    "  cs A { nominal P }\n"
    "  cs B { nominal Q }\n"
    "  process P owner A { entry N exits [N] action N }\n"
    "  process Q owner B { entry M exits [M] action M }\n"
    "  connection C: A <-> B\n"
    '  fault f "d"  error e "d"  failure x "d"\n'
    "  chain K { fault f error e failure x origin A detectors [B] }\n"
    "  activation T { chain K origin A region [N] trigger at_time 1t }\n"
    "  detection D { chain K detector B condition self_report 1t recovery R }\n"
    "  recovery R { graph B Q success [M] }\n"
    '  metric Z { count "activity-end:N" }\n'
)


class TestDiagnosticCorpus:
    """Exact message and position of each lexer diagnostic and each
    diagnostic whose span the parser keeps from a token or reference."""

    @pytest.mark.parametrize(
        "src, expected",
        [
            ('sos X { fault F "oops', "1:17: error: unterminated string literal"),
            ('sos X {\n  fault F "oops\n}', "2:11: error: unterminated string literal"),
            ('sos X { fault F "a\\qb" }', "1:19: error: unknown escape in string literal"),
            ('sos X { fault F "a\\', "1:19: error: unknown escape in string literal"),
            ("sos X { cs A { nominal 5x } }", "1:24: error: malformed number '5x'..."),
            ("sos X { cs A { nominal 12.t } }", "1:24: error: malformed number '12.'..."),
            ("sos X { cs A { nominal 7tx } }", "1:24: error: malformed number '7t'..."),
            ("sos X { cs A { nominal 0.9x } }", "1:24: error: malformed number '0.9x'..."),
            ("sos X { cs A { nominal 0.9t } }", "1:24: error: malformed number '0.9t'..."),
            ("sos X { cs A { nominal 0.9_ } }", "1:24: error: malformed number '0.9_'..."),
            ("sos X { cs A { nominal 0.9.1 } }", "1:24: error: malformed number '0.9.'..."),
            ("sos X {\n\t\t@ }", "2:3: error: unexpected character '@'"),
            ("sos X {\r\n\t é }", "2:3: error: unexpected character 'é'"),
            ("sos X {\r\n  ² }", "2:3: error: unexpected character '²'"),
            ("sos X {\r  - }", "2:3: error: unexpected character '-'"),
            (
                "sos X { # no newline after this comment",
                "1:9: error: expected a declaration keyword or '}', found end of input",
            ),
        ],
    )
    def test_lexer_diagnostics(self, src, expected):
        assert [str(d) for d in dsl.parse(src).diagnostics] == [expected]

    @pytest.mark.parametrize(
        "extra, expected",
        [
            ("  env A\n", "13:7: error: duplicate element id 'A' (first declared at 2:6)"),
            (
                "  connection C: B <-> A\n",
                "13:14: error: duplicate connection id 'C' (first declared at 6:14)",
            ),
            (
                '  failure x "again"\n',
                "13:11: error: duplicate threat node id 'x' (first declared at 7:37)",
            ),
            (
                "  chain K { fault f error e failure x origin A detectors [B] }\n",
                "13:9: error: duplicate chain id 'K' (first declared at 8:9)",
            ),
            (
                "  process Q owner B { entry M exits [M] action M }\n",
                "13:11: error: duplicate process id 'Q' (first declared at 5:11)",
            ),
            (
                "  activation T { chain K origin A region [N] trigger at_time 2t }\n",
                "13:14: error: duplicate activation id 'T' (first declared at 9:14)",
            ),
            (
                "  detection D { chain K detector B condition self_report 2t recovery R }\n",
                "13:13: error: duplicate detection id 'D' (first declared at 10:13)",
            ),
            (
                "  recovery R { graph B Q }\n",
                "13:12: error: duplicate recovery id 'R' (first declared at 11:12)",
            ),
            (
                '  metric Z { count "activity-end:M" }\n',
                "13:10: error: duplicate metric id 'Z' (first declared at 12:10)",
            ),
            (
                "  process P2 owner A { entry N exits [N] action N action N }\n",
                "13:58: error: duplicate activity (in process 'P2') id 'N' "
                "(first declared at 13:49)",
            ),
        ],
    )
    def test_duplicate_ids(self, extra, expected):
        assert dsl.parse(DUP_BASE + "}").ok
        r = dsl.parse(DUP_BASE + extra + "}")
        assert [str(d) for d in r.diagnostics] == [expected]

    @pytest.mark.parametrize(
        "src, expected",
        [
            (
                "sos X {\n  cs A { nominal P nominal P }\n"
                "  process P owner A { entry N exits [N] action N }\n}",
                "2:20: error: repeated 'nominal' in cs A",
            ),
            (
                "sos X {\n  cs A { nominal Nope }\n"
                "  process P owner A { entry N exits [N] action N }\n}",
                "2:18: error: unknown process 'Nope'",
            ),
            (
                "sos X {\n  cs A { nominal P }\n"
                "  process P owner A { entry N exits [N] action N }\n"
                '  metric M { count "activity-end:Ghost" }\n}',
                "4:20: error: event pattern qualifier 'Ghost' matches no declared "
                "element, threat, chain, connection or activity",
            ),
            (
                "sos X {\n  cs A { nominal P }\n  process P owner A {\n"
                "    entry N exits [M] action N action M fork S\n"
                "    edge N -> S edge S -> M\n  }\n}",
                "3:11: error: activity graph 'P': fork 'S' needs >= 2 out-edges",
            ),
            *(
                (
                    "sos X {\n  cs B { nominal Q }\n"
                    "  process Q owner B { entry M exits [M] action M }\n"
                    "  process Q2 owner B { entry M2 exits [M2] action M2 }\n"
                    f"  recovery R {{ graph B {first} graph B {second} success [M] }}\n}}",
                    f"5:{col}: error: recovery 'R' gives constituent 'B' more than one graph",
                )
                for first, second, col in (("Q", "Q2", 32), ("Q2", "Q", 33))
            ),
        ],
    )
    def test_reference_spans(self, src, expected):
        assert [str(d) for d in dsl.parse(src).diagnostics] == [expected]

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    def test_clean_parse_builds_spans_only_for_its_diagnostics(self, name, monkeypatch):
        bundle = load_bundle(name)
        text = bundle.model_file.read_text(encoding="utf-8")
        made = []

        def counting_span(line, col):
            made.append((line, col))
            return real_span(line, col)

        real_span = dsl.SourceSpan
        monkeypatch.setattr(dsl, "SourceSpan", counting_span)
        r = dsl.parse(text)
        assert r.ok
        assert len(made) == len(r.diagnostics)
        duplicate = f"  env {next(iter(bundle.model.constituents))}\n}}\n"
        assert not dsl.parse(text.rstrip()[:-1] + duplicate).ok
        assert len(made) == 2, "the duplicate's span and its first declaration's"


class TestCanonicalForm:
    def test_serialize_empty(self):
        r = dsl.parse("sos Empty { }")
        assert dsl.serialize(r.model) == "sos Empty { }\n"

    def test_declaration_order_never_matters(self):
        r1 = dsl.parse(SMALL)
        # Reorder: move chains/threats before constituents, flip edge order.
        reordered = """
        sos Mini {
          metric TT "time to fix" { elapsed "error-raised:F1" -> "recovery-complete" target 10t }
          chain F1 { fault F1.f error F1.e failure F1.x origin Alpha detectors [Beta, Alpha] }
          failure F1.x "no service"
          error F1.e "stale data"
          fault F1.f "power loss" category Power
          recovery R1 "fix it" { graph Beta RecB success [Fixed] }
          detection F1.det { chain F1 detector Beta condition timeout 5t watching Alpha recovery R1 }
          activation F1.act { chain F1 origin Alpha region [Tell, Step1] trigger at_time 1t }
          process RecB owner Beta {
            exits [Fixed]
            edge Cool -> Fixed
            edge Fix -> Cool
            action Fixed
            timer Cool 2t
            action Fix "repair" 3t
            entry Fix
          }
          process BWork owner Beta { entry Listen exits [Idle] action Idle 1t receive Listen on LinkAB edge Listen -> Idle }
          process AWork owner Alpha {
            entry Step1 exits [Done]
            action Done
            send Tell on LinkAB 1t
            action Step1 "first step" 2t
            edge Tell -> Done
            edge Step1 -> Tell
          }
          connection LinkAB: Alpha <-> Beta { reliability 0.9 latency 2t interface SvcIF }
          env Outside "the world"
          cs Beta { requires [SvcIF] nominal BWork }
          cs Alpha "Alpha system" { provides [SvcIF] nominal AWork }
        }
        """
        r2 = dsl.parse(reordered)
        assert r1.ok and r2.ok, errors(r1) + errors(r2)
        assert r1.model == r2.model
        assert dsl.serialize(r1.model) == dsl.serialize(r2.model)

    def test_serialize_then_parse_is_identity(self):
        m = mini_sos()
        text = dsl.serialize(m)
        r = dsl.parse(text)
        assert r.ok, errors(r)
        assert r.model == m
        assert dsl.serialize(r.model) == text

    def test_defaults_are_omitted(self):
        src = """sos X {
          cs A { nominal P }
          cs B { nominal Q }
          process P owner A { entry N exits [N] action N }
          process Q owner B { entry M exits [M] action M }
          connection C: A <-> B { kind nominal latency 1t reliability 1.0 interface C }
        }"""
        r = dsl.parse(src)
        text = dsl.serialize(r.model)
        assert "connection C: A <-> B\n" in text
        assert "latency" not in text and "reliability" not in text

    def test_string_escapes_round_trip(self):
        src = r'''sos X {
          cs A "with \"quotes\" and \\ and \n and \t" { nominal P }
          process P owner A {
            entry N exits [D]
            decision N
            action D  action E
            edge N -> D when "a \"guarded\" label"
            edge N -> E
            edge E -> D
          }
        }'''
        r = dsl.parse(src)
        assert r.ok, errors(r)
        assert r.model.constituents["A"].name == 'with "quotes" and \\ and \n and \t'
        text = dsl.serialize(r.model)
        r2 = dsl.parse(text)
        assert r2.ok and r2.model == r.model

    def test_random_models_round_trip(self):
        for seed in range(40):
            rng = random.Random(seed)
            m = random_model(rng)
            text = dsl.serialize(m)
            r = dsl.parse(text)
            assert r.ok, (seed, errors(r))
            assert r.model == m, seed
            assert dsl.serialize(r.model) == text, seed

    def test_serialized_bytes_are_pinned(self):
        # The canonical bytes of the bundles (as parsed) and of random_model
        # seeds 0-299.  Only a deliberate change to the canonical form may
        # move this digest.
        digest = hashlib.sha256()
        for name in BUNDLE_NAMES:
            digest.update(dsl.serialize(load_bundle(name).model).encode())
        for seed in range(300):
            digest.update(dsl.serialize(random_model(random.Random(seed))).encode())
        assert digest.hexdigest() == (
            "8af1d93114460487582b0babe7543fa208a78577d3617cc2317843005a6a2808"
        )

    def test_environment_origin_activation_round_trips(self):
        # build_model accepts any element as an activation origin; the
        # parser must too, leaving the checker's R2 to report it.
        m = load_bundle("fault3").model
        template = m.activations["F3.2.act"]
        caller = ActivationSpec(
            "F3.1.act", "F3.1", "Caller", template.region, template.trigger
        )
        m = rebuild(m, activations=[*m.activations.values(), caller])
        r = dsl.parse(dsl.serialize(m))
        assert r.ok, errors(r)
        assert r.model == m
        assert any(
            f.rule_id == "R2" and f.subject == "F3.1.act" for f in check(r.model)
        )

    def test_numbers_keep_every_digit(self):
        rng = random.Random(5)
        values = [1.0 - rng.random() for _ in range(2000)]  # (0, 1]
        values += [10 ** rng.uniform(-12, -4) for _ in range(2000)]
        values += [math.ldexp(rng.getrandbits(52) | 1, -1074) for _ in range(200)]
        values += [5e-324, 2.2250738585072014e-308, 3e-21, 1.5e-17, 1 / 30000]
        for x in values:
            text = dsl._num(x)
            assert float(text) == x, (x, text)
            number, eof = dsl._lex(text)
            assert (number.kind, number.text, eof.kind) == ("number", text, "eof")
        assert dsl._num(1 / 30000) == "0.000033333333333333335"
        assert dsl._num(1e-05) == "0.00001"

    def test_small_reliability_round_trips(self):
        m = load_bundle("fault3").model
        first = next(iter(m.connections))
        m = rebuild(
            m,
            connections=[
                dataclasses.replace(c, reliability=1 / 30000) if c.id == first else c
                for c in m.connections.values()
            ],
        )
        text = dsl.serialize(m)
        assert "reliability 0.000033333333333333335\n" in text
        r = dsl.parse(text)
        assert r.ok, errors(r)
        assert r.model == m


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
