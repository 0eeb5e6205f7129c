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
    Activity,
    ActivityKind,
    ConnectionKind,
    DetectionStyle,
    ElapsedBetween,
    FailureObservation,
    FmafError,
    OnEntry,
    Probabilistic,
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


# The model fields that a block's own code fills, which its table cannot state.
_OWN_FIELDS = {
    "fault": {"kind"}, "error": {"kind"}, "failure": {"kind"}, "process": {"nodes", "edges"},
}


def test_block_tables_name_fields_of_their_model_classes():
    for kw, block in dsl._BLOCKS.items():
        fields = {f.name: f for f in dataclasses.fields(block.cls)}
        keys = [key for key, _, _ in block.header if key is not None]
        assert keys[0] == "ident" and "id" in fields, kw  # the word after the keyword
        named = {"id", *keys[1:], *(f.attr or f.key for f in block.fields)}
        assert named <= fields.keys(), kw
        assert all(f.attr != f.key for f in block.fields), kw  # named only where they differ
        left = {name for name, f in fields.items() if f.init} - named
        assert left == _OWN_FIELDS.get(kw, set()), kw


class TestParseBasics:
    def test_empty_model(self):
        r = dsl.parse("sos Empty { }")
        assert r.ok and not r.diagnostics
        m = r.model
        assert m.name == "Empty"
        assert not m.constituents and not m.chains and not m.processes

    def test_an_empty_id_list_is_an_empty_set(self):
        r = dsl.parse(
            "sos X {\n  cs A { nominal P provides [] requires [] }\n"
            "  process P owner A { entry a exits [a] action a 1t }\n}\n"
        )
        assert r.ok, errors(r)
        cs = r.model.constituents["A"]
        assert cs.provided_interfaces == cs.required_interfaces == frozenset()

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


def _process_source(statement: str) -> str:
    """A model whose process P holds ``statement`` on line 5."""
    return (
        "sos X {\n  cs A { nominal P }\n  connection L: A <-> B\n"
        f"  process P owner A {{\n    {statement}\n  }}\n}}\n"
    )


# Each process statement with the one diagnostic that parse gives it.
_PROCESS_STATEMENTS = {
    'send s "n" L': "5:16: error: expected 'on', found 'L'",
    "receive r": "6:3: error: expected 'on', found '}'",
    "send s on 5": "5:15: error: expected connection id, found number 5",
    "send s on L 2": "5:17: error: expected a process statement, found number 2",
    "edge": "6:3: error: expected edge source activity, found '}'",
    "edge 3 -> b": "5:10: error: expected edge source activity, found number 3",
    "edge a b": "5:12: error: expected '->' between the edge endpoints, found 'b'",
    "edge a -> 3t": "5:15: error: expected edge target activity, found duration 3t",
    "edge a -> b when": "6:3: error: expected the guard label, found '}'",
    "edge a -> b when c": "5:22: error: expected the guard label, found 'c'",
    'action "x"': '5:12: error: expected activity id, found string "x"',
    "action a 2t 3t": "5:17: error: expected a process statement, found duration 3t",
    'action a "n" "m"': '5:18: error: expected a process statement, found string "m"',
    "timer t 5": "5:13: error: expected the timer bound as a tick count like 2t, found number 5",
    'timer t "n"': "6:3: error: expected the timer bound as a tick count like 2t, found '}'",
    "timer t 2.5": (
        "5:13: error: expected the timer bound as a tick count like 2t, found number 2.5"
    ),
    "frobnicate a": (
        "5:5: error: expected an activity kind, 'entry', 'exits', 'edge' or '}' "
        "in process P, found 'frobnicate'"
    ),
    "entry": "6:3: error: expected entry activity id, found '}'",
    "exits a": "5:11: error: expected '[' opening the exit activity id list, found 'a'",
    "exits [a b]": "5:14: error: expected ']' closing the exit activity id list, found 'b'",
    "exits [a,]": "5:14: error: expected exit activity id, found ']'",
    "[": "5:5: error: expected a process statement, found '['",
    "action a -1t": "5:14: error: unexpected character '-'",
    "action a on L": (
        "5:14: error: expected an activity kind, 'entry', 'exits', 'edge' or '}' "
        "in process P, found 'on'"
    ),
    "fork f 2t": "5:12: error: expected a process statement, found duration 2t",
}

# Each rule of Activity.__post_init__: fields that break it, the message
# the constructor gives, and a statement of the same shape, which parse
# refuses with its _PROCESS_STATEMENTS diagnostic.
_ACTIVITY_RULES = {
    "bad id": (dict(id='"x"', kind=ActivityKind.ACTION), "not a valid identifier", 'action "x"'),
    "negative duration": (
        dict(id="a", kind=ActivityKind.ACTION, duration=-1), "negative duration", "action a -1t"
    ),
    "send without on": (dict(id="s", kind=ActivityKind.SEND), "requires a channel", 'send s "n" L'),
    "receive without on": (
        dict(id="r", kind=ActivityKind.RECEIVE), "requires a channel", "receive r"
    ),
    "on on another kind": (
        dict(id="a", kind=ActivityKind.ACTION, channel="L"), "channel on non-messaging",
        "action a on L",
    ),
    "timer without a bound": (
        dict(id="t", kind=ActivityKind.TIMER), "timer requires a non-negative bound", "timer t 5"
    ),
    "bound on another kind": (
        dict(id="f", kind=ActivityKind.FORK, timer_bound=2), "timer_bound on non-timer",
        "fork f 2t",
    ),
}


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
        diagnostics = dsl.parse(src).diagnostics
        assert [str(d) for d in diagnostics] == [expected]
        assert [d.severity for d in diagnostics] == ["error"]

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

    @pytest.mark.parametrize("statement, expected", _PROCESS_STATEMENTS.items())
    def test_process_statement_syntax(self, statement, expected):
        assert errors(dsl.parse(_process_source(statement))) == [expected]

    @pytest.mark.parametrize(
        "fields, message, statement", _ACTIVITY_RULES.values(), ids=list(_ACTIVITY_RULES)
    )
    def test_the_grammar_refuses_what_activity_refuses(self, fields, message, statement):
        # parse builds activities without running Activity.__post_init__,
        # so each of its rules must be a grammar rule.
        with pytest.raises(FmafError, match=message):
            Activity(**fields)
        assert errors(dsl.parse(_process_source(statement))) == [_PROCESS_STATEMENTS[statement]]

    @pytest.mark.parametrize(
        "src, expected",
        [
            ("sos X cs", "1:7: error: expected '{' opening the sos block, found 'cs'"),
            (
                "sos X {\n  connection L: A <-> B { kind bogus }\n}\n",
                "2:32: error: expected 'nominal' or 'recovery_only', found 'bogus'",
            ),
            (
                "sos X {\n  cs A { nominal P }\n"
                "  process P owner A { entry N exits [N] action N 1t }\n"
                "  activation Z {\n    chain C\n    origin A\n    region [N]\n"
                "    trigger probabilistic 1.5\n  }\n}\n",
                "8:13: error: probabilistic trigger: probability outside [0, 1]",
            ),
        ],
        ids=["sos-brace", "connection-kind", "trigger-probability"],
    )
    def test_block_syntax_and_values(self, src, expected):
        assert [str(d) for d in dsl.parse(src).diagnostics] == [expected]

    @pytest.mark.parametrize(
        "line, old, new, expected",
        [
            (
                140, "trigger at_time", "trigger bogus",
                "140:13: error: expected 'at_time', 'on_entry' or 'probabilistic', "
                "found 'bogus'",
            ),
            (
                146, "condition timeout", "condition bogus",
                "146:15: error: expected 'self_report', 'timeout' or 'third_party', "
                "found 'bogus'",
            ),
        ],
        ids=["trigger-kind", "condition-kind"],
    )
    def test_unknown_trigger_and_condition_kinds(self, line, old, new, expected):
        lines = load_bundle("fault1").model_file.read_text(encoding="utf-8").split("\n")
        assert lines[line - 1].count(old) == 1
        lines[line - 1] = lines[line - 1].replace(old, new)
        assert [str(d) for d in dsl.parse("\n".join(lines)).diagnostics] == [expected]

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


# A clean model naming every kind of reference; each span-corpus case edits
# one of its lines.
REF_BASE = (
    "sos X {\n"
    "  cs A { nominal P }\n"
    "  cs B { nominal Q }\n"
    "  env E { uses [C] }\n"
    "  connection C: A <-> B\n"
    "  connection L: B <-> E\n"
    '  fault f "d"  error e "d"  failure x "d"\n'
    "  chain K { fault f error e failure x origin A detectors [B] }\n"
    "  process P owner A { entry N exits [M] action N 1t send S on C action M\n"
    "    edge N -> S edge S -> M }\n"
    "  process Q owner B { entry R exits [T] receive R on C action T edge R -> T }\n"
    "  process Rp owner B { entry F exits [G] action F 1t action G edge F -> G }\n"
    "  process W owner A { entry V exits [V] action V }\n"
    "  activation T1 { chain K origin A region [N] trigger on_entry N }\n"
    "  detection D { chain K detector B condition timeout 5t watching A recovery Rec }\n"
    "  recovery Rec { graph B Rp success [G] }\n"
    '  metric Z { elapsed "activity-end:N" -> "recovery-complete" }\n'
    "}"
)

# A word in undeclared references only, never an id of random_model.
UNDECLARED = "Undeclared"


def _edited(line: int, old: str, new: str) -> str:
    lines = REF_BASE.split("\n")
    assert lines[line - 1].count(old) == 1, (line, old)
    lines[line - 1] = lines[line - 1].replace(old, new)
    return "\n".join(lines)


def _renamings(m, new: str):
    """Each way to rename one reference of ``m`` to ``new``, in a fixed
    order: the collection and the object that replaces the one of the same
    id there."""
    R = dataclasses.replace

    def swap(items, old):
        return type(items)(new if x == old else x for x in items)

    for c in m.connections.values():
        yield "connections", R(c, provider=new)
        yield "connections", R(c, consumer=new)
    for e in m.environment.values():
        for ref in sorted(e.connections_used):
            yield "environment", R(e, connections_used=swap(e.connections_used, ref))
    for cs in m.constituents.values():
        yield "constituents", R(cs, nominal_process=new)
    for g in m.processes.values():
        yield "processes", R(g, owner=new)
        yield "processes", R(g, entry=new)
        for ex in sorted(g.exits):
            yield "processes", R(g, exits=swap(g.exits, ex))
        for i, edge in enumerate(g.edges):
            for end in ("src", "dst"):
                renamed = (*g.edges[:i], R(edge, **{end: new}), *g.edges[i + 1:])
                yield "processes", R(g, edges=renamed)
        for a in g.nodes.values():
            if a.channel is not None:
                yield "processes", R(g, nodes={**g.nodes, a.id: R(a, channel=new)})
    for ch in m.chains.values():
        for slot in ("fault", "error", "failure", "origin"):
            yield "chains", R(ch, **{slot: new})
        for det in ch.detectors:
            yield "chains", R(ch, detectors=swap(ch.detectors, det))
    for a in m.activations.values():
        yield "activations", R(a, threat=new)
        yield "activations", R(a, origin_constituent=new)
        for ref in sorted(a.region):
            yield "activations", R(a, region=swap(a.region, ref))
        if isinstance(a.trigger, OnEntry):
            yield "activations", R(a, trigger=OnEntry(new))
    for d in m.detections.values():
        for slot in ("threat", "detector", "recovery"):
            yield "detections", R(d, **{slot: new})
        if isinstance(d.condition, Timeout):
            yield "detections", R(d, condition=R(d.condition, watched=new))
    for r in m.recoveries.values():
        for cs, graph in r.graphs.items():
            others = {k: v for k, v in r.graphs.items() if k != cs}
            yield "recoveries", R(r, graphs={**others, new: graph})
            yield "recoveries", R(r, graphs={**r.graphs, cs: new})
        for exits in ("success_exits", "abort_exits"):
            for ex in sorted(getattr(r, exits)):
                yield "recoveries", R(r, **{exits: swap(getattr(r, exits), ex)})
    for x in m.metrics.values():
        kind = x.kind
        patterns = (kind.a, kind.b) if isinstance(kind, ElapsedBetween) else (kind.pattern,)
        for i, pattern in enumerate(patterns):
            event, _, qualifier = pattern.partition(":")
            if qualifier:
                renamed = list(patterns)
                renamed[i] = f"{event}:{new}"
                yield "metrics", R(x, kind=type(kind)(*renamed))


def _span_of(text: str, word: str) -> tuple[int, int]:
    """Line and column of the one word of ``text`` that holds ``word``."""
    i = text.index(word)
    assert text.find(word, i + 1) < 0
    if text[i - 1] == ":":  # the qualifier of an event pattern string
        i = text.rindex('"', 0, i)
    return text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i)


class TestReferenceResolution:
    """Each reference problem of parsed source is found by the rules
    ``build_model`` applies, and reported at the word that makes it."""

    @pytest.mark.parametrize(
        "line, old, new, expected",
        [
            pytest.param(
                2, "nominal P", "nominal Ghost", ["2:18: error: unknown process 'Ghost'"],
                id="cs nominal",
            ),
            pytest.param(
                2, "nominal P", "nominal Q",
                ["2:18: error: activity graph 'Q': nominal process of 'A' is owned by 'B'"],
                id="cs nominal owned by another",
            ),
            pytest.param(
                4, "[C]", "[C, Ghost]", ["4:20: error: unknown connection 'Ghost'"],
                id="env uses",
            ),
            pytest.param(
                5, "C: A", "C: Ghost", ["5:17: error: unknown element 'Ghost'"],
                id="connection provider",
            ),
            pytest.param(
                5, "<-> B", "<-> Ghost", ["5:23: error: unknown element 'Ghost'"],
                id="connection consumer",
            ),
            pytest.param(
                8, "fault f", "fault Ghost", ["8:19: error: unknown threat node 'Ghost'"],
                id="chain fault",
            ),
            pytest.param(
                8, "error e", "error Ghost", ["8:27: error: unknown threat node 'Ghost'"],
                id="chain error",
            ),
            pytest.param(
                8, "failure x", "failure Ghost", ["8:37: error: unknown threat node 'Ghost'"],
                id="chain failure",
            ),
            pytest.param(
                8, "fault f", "fault e",
                [
                    "8:19: error: threat node 'e' has kind error, but chain 'K' uses it as "
                    "its fault"
                ],
                id="chain fault of another kind",
            ),
            pytest.param(
                8, "origin A", "origin Ghost", ["8:46: error: unknown element 'Ghost'"],
                id="chain origin",
            ),
            pytest.param(
                8, "[B]", "[B, Ghost]", ["8:62: error: unknown element 'Ghost'"],
                id="chain detectors",
            ),
            pytest.param(
                13, "owner A", "owner Ghost", ["13:19: error: unknown constituent 'Ghost'"],
                id="process owner",
            ),
            pytest.param(
                9, "owner A", "owner Ghost", ["9:19: error: unknown constituent 'Ghost'"],
                id="owner of a nominal process",
            ),
            pytest.param(
                9, "entry N", "entry Ghost", ["9:29: error: unknown activity 'Ghost'"],
                id="process entry",
            ),
            pytest.param(
                9, "exits [M]", "exits [Ghost]", ["9:38: error: unknown activity 'Ghost'"],
                id="process exits",
            ),
            pytest.param(
                10, "edge N", "edge Ghost", ["10:10: error: unknown activity 'Ghost'"],
                id="edge source",
            ),
            pytest.param(
                10, "-> M", "-> Ghost", ["10:27: error: unknown activity 'Ghost'"],
                id="edge target",
            ),
            pytest.param(
                9, "on C", "on Ghost", ["9:63: error: unknown connection 'Ghost'"],
                id="channel",
            ),
            pytest.param(
                9, "on C", "on L",
                [
                    "9:11: error: activity graph 'P': activity 'S' uses channel 'L' whose "
                    "endpoints exclude owner 'A'",
                ],
                id="channel whose ends exclude the owner",
            ),
            pytest.param(
                14, "chain K", "chain Ghost", ["14:25: error: unknown chain 'Ghost'"],
                id="activation chain",
            ),
            pytest.param(
                14, "origin A", "origin Ghost", ["14:34: error: unknown element 'Ghost'"],
                id="activation origin",
            ),
            pytest.param(
                14, "[N]", "[N, Ghost]", ["14:47: error: unknown activity 'Ghost'"],
                id="activation region",
            ),
            pytest.param(
                14, "[N]", "[Ghost2, N, Ghost1]",
                [
                    "14:44: error: unknown activity 'Ghost2'",
                    "14:55: error: unknown activity 'Ghost1'",
                ],
                id="activation region, two unknown",
            ),
            pytest.param(
                14, "on_entry N", "on_entry Ghost", ["14:64: error: unknown activity 'Ghost'"],
                id="activation trigger",
            ),
            pytest.param(
                15, "chain K", "chain Ghost", ["15:23: error: unknown chain 'Ghost'"],
                id="detection chain",
            ),
            pytest.param(
                15, "detector B", "detector Ghost", ["15:34: error: unknown element 'Ghost'"],
                id="detection detector",
            ),
            pytest.param(
                15, "detector B", "detector A",
                ["15:34: error: detector 'A' is not listed by chain 'K'"],
                id="detection detector not listed",
            ),
            pytest.param(
                15, "watching A", "watching Ghost", ["15:66: error: unknown element 'Ghost'"],
                id="detection watched element",
            ),
            pytest.param(
                15, "recovery Rec", "recovery Ghost", ["15:77: error: unknown recovery 'Ghost'"],
                id="detection recovery",
            ),
            pytest.param(
                16, "graph B", "graph Ghost", ["16:24: error: unknown constituent 'Ghost'"],
                id="recovery constituent",
            ),
            pytest.param(
                16, "B Rp", "B Ghost", ["16:26: error: unknown process 'Ghost'"],
                id="recovery graph",
            ),
            pytest.param(
                16, "B Rp", "A Rp",
                [
                    "16:26: error: activity graph 'Rp': recovery 'Rec' maps it to 'A' but "
                    "owner is 'B'"
                ],
                id="recovery graph of another owner",
            ),
            pytest.param(
                16, "[G]", "[Ghost]", ["16:38: error: unknown exit 'Ghost'"],
                id="recovery success exit",
            ),
            pytest.param(
                16, "[G]", "[G] abort [Ghost]", ["16:48: error: unknown exit 'Ghost'"],
                id="recovery abort exit",
            ),
            pytest.param(
                17, '"activity-end:N"', '"no-such-kind"',
                ["17:22: error: unknown event kind 'no-such-kind'"],
                id="metric event kind",
            ),
            pytest.param(
                17, '"activity-end:N"', '"activity-end:Ghost"',
                [
                    "17:22: error: event pattern qualifier 'Ghost' matches no declared element, "
                    "threat, chain, connection or activity",
                ],
                id="metric start qualifier",
            ),
            pytest.param(
                17, '"recovery-complete"', '"recovery-complete:Ghost"',
                [
                    "17:42: error: event pattern qualifier 'Ghost' matches no declared element, "
                    "threat, chain, connection or activity",
                ],
                id="metric end qualifier",
            ),
            pytest.param(
                17,
                'elapsed "activity-end:N" -> "recovery-complete"',
                'count "activity-end:Ghost"',
                [
                    "17:20: error: event pattern qualifier 'Ghost' matches no declared element, "
                    "threat, chain, connection or activity",
                ],
                id="metric count qualifier",
            ),
            pytest.param(
                8, "fault f ", "", ["8:9: error: chain K has no 'fault' field"],
                id="a chain not built, named by an activation",
            ),
            pytest.param(
                9, "exits [M] ", "", ["9:11: error: process P has no 'exits'"],
                id="a process not built, named in a region",
            ),
            pytest.param(
                2, " nominal P ", " ", ["2:6: error: cs A has no 'nominal' process"],
                id="a cs not built, named as an endpoint",
            ),
            pytest.param(
                5, "A <-> B", "A <-> B { reliability 1.5 }",
                ["5:14: error: connection 'C': reliability outside [0, 1]"],
                id="a connection not built, named as a channel",
            ),
        ],
    )
    def test_span_corpus(self, line, old, new, expected):
        assert dsl.parse(REF_BASE).ok
        assert [str(d) for d in dsl.parse(_edited(line, old, new)).diagnostics] == expected

    def test_self_joined_connection_is_one_diagnostic(self):
        r = dsl.parse(_edited(5, "<-> B", "<-> A"))
        assert errors(r) == ["5:14: error: connection 'C': provider equals consumer"]

    def test_each_malformed_graph_is_reported(self):
        src = _edited(11, "edge R -> T", "edge R -> T edge T -> R")
        src = src.replace("edge F -> G }", "edge F -> G edge G -> F }")
        r = dsl.parse(src)
        assert errors(r) == [
            "11:11: error: activity graph 'Q': exits ['T'] must be exactly the sink nodes []",
            "12:11: error: activity graph 'Rp': exits ['G'] must be exactly the sink nodes []",
        ]

    def test_renamed_reference_is_reported_at_its_word(self):
        # One reference of each random model renamed to an undeclared id:
        # parse reports that word, and build_model raises for that id.
        seen = set()
        for seed in range(200):
            m = random_model(random.Random(seed))
            renamings: dict[str, list] = {}
            for collection, obj in _renamings(m, UNDECLARED):
                renamings.setdefault(collection, []).append(obj)
            # Collections in turn, so that each of them is tried.
            collection = sorted(renamings)[seed % len(renamings)]
            obj = random.Random(seed).choice(renamings[collection])
            parts = {collection: [*({**getattr(m, collection), obj.id: obj}).values()]}
            text = dsl.serialize(
                dataclasses.replace(m, **{collection: {o.id: o for o in parts[collection]}})
            )
            r = dsl.parse(text)
            assert not r.ok, seed
            spans = [(d.span.line, d.span.col) for d in r.diagnostics]
            assert _span_of(text, UNDECLARED) in spans, (seed, collection, errors(r))
            with pytest.raises(FmafError) as e:
                rebuild(m, **parts)
            assert UNDECLARED in str(e.value), seed
            seen.add(collection)
        assert len(seen) == 9, seen  # every collection that holds references


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

    def test_carriage_returns_round_trip(self):
        # parse reads a raw '\r' as a line break, so the serializer escapes it.
        m = load_bundle("fault3").model
        cs = next(iter(m.constituents.values()))
        node = next(iter(m.threat_nodes.values()))
        proc, edge = next(
            (p, e) for p in m.processes.values() for e in p.edges if e.guard is not None
        )
        edges = tuple(
            dataclasses.replace(e, guard="a\rb\r\n") if e is edge else e for e in proc.edges
        )
        m = rebuild(
            m,
            constituents=[
                dataclasses.replace(c, name="c\rd") if c is cs else c
                for c in m.constituents.values()
            ],
            threat_nodes=[
                dataclasses.replace(t, description="\r") if t is node else t
                for t in m.threat_nodes.values()
            ],
            processes=[
                dataclasses.replace(p, edges=edges) if p is proc else p
                for p in m.processes.values()
            ],
        )
        text = dsl.serialize(m)
        assert "\r" not in text
        assert '"c\\rd"' in text and '"a\\rb\\r\\n"' in text
        r = dsl.parse(text)
        assert r.ok, errors(r)
        assert r.model == m

    def test_bare_id_fields_round_trip(self):
        # Interface ids and category tags are written as bare ids; a keyword
        # of the grammar is an id there too.
        m = load_bundle("fault3").model
        conn = next(iter(m.connections.values()))
        cs = next(iter(m.constituents.values()))
        node = next(iter(m.threat_nodes.values()))
        m = rebuild(
            m,
            connections=[
                dataclasses.replace(c, interface_id="kind") if c is conn else c
                for c in m.connections.values()
            ],
            constituents=[
                dataclasses.replace(
                    c,
                    provided_interfaces=frozenset({"on", "interface"}),
                    required_interfaces=frozenset({"when", "x.y_1"}),
                )
                if c is cs
                else c
                for c in m.constituents.values()
            ],
            threat_nodes=[
                dataclasses.replace(t, category="category") if t is node else t
                for t in m.threat_nodes.values()
            ],
        )
        r = dsl.parse(dsl.serialize(m))
        assert r.ok, errors(r)
        assert r.model == m

    def test_random_models_round_trip(self):
        for seed in range(40):
            rng = random.Random(seed)
            m = random_model(rng)
            text = dsl.serialize(m)
            r = dsl.parse(text)
            assert r.ok, (seed, errors(r))
            assert r.model == m, seed
            assert dsl.serialize(r.model) == text, seed

    def test_parsed_activities_keep_their_constructor_rules(self):
        # parse builds activities without running Activity.__post_init__;
        # dataclasses.replace runs it.
        for seed in range(200):
            r = dsl.parse(dsl.serialize(random_model(random.Random(seed))))
            assert r.ok, (seed, errors(r))
            for graph in r.model.processes.values():
                for activity in graph.nodes.values():
                    assert dataclasses.replace(activity) == activity, (seed, activity)

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
            assert dsl._words(text) == [text, ""]
        assert dsl._num(1 / 30000) == "0.000033333333333333335"
        assert dsl._num(1e-05) == "0.00001"

    @pytest.mark.parametrize(
        "value, text", [(1e-05, "0.00001"), (5e-324, "0." + "0" * 323 + "5")]
    )
    def test_tiny_reliabilities_and_probabilities_round_trip(self, value, text):
        m = load_bundle("fault2").model
        first = next(iter(m.connections))
        connections = [
            dataclasses.replace(c, reliability=value) if c.id == first else c
            for c in m.connections.values()
        ]
        activations = [
            dataclasses.replace(a, trigger=Probabilistic(value))
            for a in m.activations.values()
        ]
        m = rebuild(m, connections=connections, activations=activations)
        serialized = dsl.serialize(m)
        assert f"reliability {text}\n" in serialized
        assert f"trigger probabilistic {text}\n" in serialized
        r = dsl.parse(serialized)
        assert r.ok, errors(r)
        assert r.model == m

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
