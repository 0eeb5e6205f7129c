"""Textual format for SoS fault tolerance models.

:func:`parse` turns source text into a :class:`~fmaf.model.SosModel`, or
into a list of diagnostics carrying 1-based line/column positions when the
text is unacceptable.  :func:`serialize` writes the canonical textual form,
which :func:`parse` accepts back unchanged.  Canonical means: declaration
order never matters.  Two equal models serialize to identical bytes, and
``parse(serialize(m)).model == m`` for every valid model ``m``.

The grammar is documented in ``docs/grammar.md``.  In brief::

    sos Name {
      cs Id "display name" { nominal Proc provides [..] requires [..] }
      env Id "display name" { uses [..] }
      connection Id: A <-> B { interface I kind nominal latency 1t reliability 0.9 }
      fault Id "description" category Tag
      chain Id { fault F error E failure X origin A detectors [B] }
      process Id owner A { entry N exits [M] action N "name" 1t edge N -> M }
      activation Id { chain C origin A region [N] trigger on_entry N }
      detection Id { chain C detector B condition timeout 5t watching A recovery R }
      recovery Id "name" { graph A ProcId success [Done] abort [] }
      metric Id "name" { elapsed "activity-end:N" -> "activity-end:M" target 20t }
    }

Comments run from ``#`` to end of line.  Durations are integer tick counts
written with a ``t`` suffix.  Keywords are only reserved at the start of a
declaration or field, so ``cause`` or ``fault.radio`` are fine as ids.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .model import (
    Activity,
    ActivityGraph,
    ActivityKind,
    ActivationSpec,
    AtTime,
    Connection,
    ConnectionKind,
    ConstituentSystem,
    Count,
    DetectionSpec,
    DetectionStyle,
    Edge,
    ElapsedBetween,
    EnvironmentEntity,
    FailureObservation,
    FmafError,
    GraphStructureError,
    MetricSpec,
    OnEntry,
    Probabilistic,
    RecoverySpec,
    SelfReport,
    SosModel,
    ThirdPartyReport,
    ThreatChain,
    ThreatKind,
    ThreatNode,
    Timeout,
    build_model,
    split_event_pattern,
)

__all__ = [
    "SourceSpan",
    "Diagnostic",
    "ParseResult",
    "parse",
    "parse_file",
    "serialize",
]


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """1-based position of a token in the source text."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """An error or warning at a source position."""

    severity: str  # "error" or "warning"
    span: SourceSpan
    message: str

    def __str__(self) -> str:
        return f"{self.span}: {self.severity}: {self.message}"


@dataclass(frozen=True, slots=True)
class ParseResult:
    """Either a model or the error diagnostics that prevented one.

    ``model`` is ``None`` exactly when ``diagnostics`` contains at least
    one error; warnings may accompany a successful parse.
    """

    model: SosModel | None
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.model is not None


# ---------------------------------------------------------------------------
# Lexer


_K_IDENT = "ident"
_K_STRING = "string"
_K_NUMBER = "number"
_K_DURATION = "duration"
_K_EOF = "eof"


class _Token(NamedTuple):
    kind: str
    text: str
    value: object
    line: int
    col: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col)

    def describe(self) -> str:
        if self.kind == _K_IDENT:
            return f"'{self.text}'"
        if self.kind == _K_EOF:
            return "end of input"
        if self.kind in (_K_STRING, _K_NUMBER, _K_DURATION):
            return f"{self.kind} {self.text}"
        return f"'{self.text}'"


class _Abort(Exception):
    def __init__(self, diagnostic: Diagnostic) -> None:
        self.diagnostic = diagnostic
        super().__init__(diagnostic.message)


def _err(span: SourceSpan, message: str) -> _Abort:
    return _Abort(Diagnostic("error", span, message))


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
_ESCAPE = re.compile(r"\\(.)")

_DECIMAL = r"[0-9]+(?:\.[0-9]+)?"
_STRING_CHARS = r'[^"\\\n]*(?:\\[\\"nt][^"\\\n]*)*'

# Blanks, then one token.  Letters and digits are spelled out as ASCII
# because ``\w`` and ``\d`` accept other scripts.  The match fails on a
# malformed string, a number or duration that runs into an identifier
# character, and any character that starts no token; _lex_error then
# names the fault.
_MASTER = re.compile(
    rf"""[ \t]*(?:
        (?P<ident>[A-Za-z][A-Za-z0-9_.]*)
      | (?P<punct><->|->|[{{}}\[\],:])
      | (?P<nl>\n)
      | (?P<string>"{_STRING_CHARS}")
      | (?P<duration>[0-9]+t)(?![A-Za-z0-9_.])
      | (?P<number>{_DECIMAL})(?![A-Za-z0-9_.])
      | (?P<comment>\#[^\n]*)
      | (?P<eof>\Z)
    )""",
    re.VERBOSE,
)
_STRING_BODY = re.compile(_STRING_CHARS)
_NUMBER = re.compile(_DECIMAL)
_BLANKS = re.compile(r"[ \t]*")
# Builds a token or reference without the Python-level __new__ of NamedTuple.
_new = tuple.__new__


def _lex(text: str) -> list[_Token]:
    # Both newline conventions lex identically.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    end = len(text)
    toks: list[_Token] = []
    append = toks.append
    match = _MASTER.match
    pos = 0
    line = 1
    base = -1  # offset of the current line's column 0
    while True:
        m = match(text, pos)
        if m is None:
            raise _lex_error(text, pos, line, base)
        kind = m.lastgroup
        word = m[kind]
        pos = m.end()
        if kind == "nl":
            line += 1
            base = pos - 1
            continue
        col = pos - len(word) - base
        if kind == "ident":
            append(_new(_Token, (_K_IDENT, word, word, line, col)))
        elif kind == "punct":
            append(_new(_Token, (word, word, word, line, col)))
        elif kind == "string":
            value = word[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], value)
                word = f'"{value}"'
            append(_new(_Token, (_K_STRING, word, value, line, col)))
        elif kind == "duration":
            append(_new(_Token, (_K_DURATION, word, int(word[:-1]), line, col)))
        elif kind == "number":
            append(_new(_Token, (_K_NUMBER, word, float(word), line, col)))
        elif pos == end:
            # End of input, or a comment that runs to it: the EOF span is
            # then the comment's '#', because a comment never moves the
            # column on.
            append(_new(_Token, (_K_EOF, "", None, line, col)))
            return toks


def _lex_error(text: str, pos: int, line: int, base: int) -> _Abort:
    """The diagnostic for the token at ``pos`` that _MASTER failed to match."""
    i = _BLANKS.match(text, pos).end()
    span = SourceSpan(line, i - base)
    c = text[i]
    if c == '"':
        j = _STRING_BODY.match(text, i + 1).end()
        if j < len(text) and text[j] == "\\":
            return _err(SourceSpan(line, j - base), "unknown escape in string literal")
        return _err(span, "unterminated string literal")
    if c in "0123456789":
        j = _NUMBER.match(text, i).end()
        return _err(span, f"malformed number {text[i:j + 1]!r}...")
    return _err(span, f"unexpected character {c!r}")


# ---------------------------------------------------------------------------
# Raw declaration records (everything span-tagged for diagnostics)


class _Ref(NamedTuple):
    text: str
    line: int
    col: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col)


# Records filled field by field are plain slotted classes, and records
# built whole are ``NamedTuple``s, not dataclasses: a dataclass costs
# about a millisecond to build at import.  The parser reads and writes
# these fields often enough that a dict-backed record such as
# ``SimpleNamespace`` parses the bundles measurably slower.


class _CsRec:
    __slots__ = ("ident", "name", "nominal", "provides", "requires")

    def __init__(self, ident: _Ref, name: str) -> None:
        self.ident = ident
        self.name = name
        self.nominal: _Ref | None = None
        self.provides: list[_Ref] = []
        self.requires: list[_Ref] = []


class _EnvRec:
    __slots__ = ("ident", "name", "uses")

    def __init__(self, ident: _Ref, name: str) -> None:
        self.ident = ident
        self.name = name
        self.uses: list[_Ref] = []


class _ConnRec:
    __slots__ = ("ident", "provider", "consumer", "interface", "kind", "latency",
                 "reliability")

    def __init__(self, ident: _Ref, provider: _Ref, consumer: _Ref) -> None:
        self.ident = ident
        self.provider = provider
        self.consumer = consumer
        self.interface: str | None = None
        self.kind = ConnectionKind.NOMINAL
        self.latency = 1
        self.reliability = 1.0


class _ThreatRec:
    __slots__ = ("ident", "kind", "description", "category")

    def __init__(self, ident: _Ref, kind: ThreatKind, description: str) -> None:
        self.ident = ident
        self.kind = kind
        self.description = description
        self.category: str | None = None


class _ChainRec:
    __slots__ = ("ident", "fault", "error", "failure", "origin", "detectors", "observed",
                 "unrecoverable")

    def __init__(self, ident: _Ref) -> None:
        self.ident = ident
        self.fault: _Ref | None = None
        self.error: _Ref | None = None
        self.failure: _Ref | None = None
        self.origin: _Ref | None = None
        self.detectors: list[_Ref] = []
        self.observed = FailureObservation.SOS_BOUNDARY
        self.unrecoverable = False


class _NodeRec(NamedTuple):
    ident: _Ref
    kind: ActivityKind
    name: str
    duration: int
    channel: _Ref | None
    timer_bound: int | None


class _EdgeRec(NamedTuple):
    src: _Ref
    dst: _Ref
    guard: str | None


class _ProcRec:
    __slots__ = ("ident", "owner", "entry", "exits", "nodes", "edges")

    def __init__(self, ident: _Ref, owner: _Ref) -> None:
        self.ident = ident
        self.owner = owner
        self.entry: _Ref | None = None
        self.exits: list[_Ref] = []
        self.nodes: list[_NodeRec] = []
        self.edges: list[_EdgeRec] = []


class _ActRec:
    __slots__ = ("ident", "chain", "origin", "region", "trigger", "on_entry")

    def __init__(self, ident: _Ref) -> None:
        self.ident = ident
        self.chain: _Ref | None = None
        self.origin: _Ref | None = None
        self.region: list[_Ref] = []
        self.trigger: AtTime | Probabilistic | None = None
        self.on_entry: _Ref | None = None  # trigger on_entry keeps its span


class _DetRec:
    __slots__ = ("ident", "chain", "detector", "condition", "watching", "timeout_bound",
                 "style", "recovery")

    def __init__(self, ident: _Ref) -> None:
        self.ident = ident
        self.chain: _Ref | None = None
        self.detector: _Ref | None = None
        self.condition: SelfReport | ThirdPartyReport | None = None
        self.watching: _Ref | None = None  # timeout target keeps its span
        self.timeout_bound: int | None = None
        self.style = DetectionStyle.SEPARATE_REGION
        self.recovery: _Ref | None = None


class _RecvRec:
    __slots__ = ("ident", "name", "graphs", "success", "abort")

    def __init__(self, ident: _Ref, name: str) -> None:
        self.ident = ident
        self.name = name
        self.graphs: list[tuple[_Ref, _Ref]] = []  # (cs, graph)
        self.success: list[_Ref] = []
        self.abort: list[_Ref] = []


class _MetricRec:
    __slots__ = ("ident", "name", "elapsed", "count", "target")

    def __init__(self, ident: _Ref, name: str) -> None:
        self.ident = ident
        self.name = name
        self.elapsed: tuple[_Ref, _Ref] | None = None  # pattern strings with spans
        self.count: _Ref | None = None
        self.target: int | None = None


# ---------------------------------------------------------------------------
# Parser


_TOP_KEYWORDS = (
    "cs",
    "env",
    "connection",
    "fault",
    "error",
    "failure",
    "chain",
    "process",
    "activation",
    "detection",
    "recovery",
    "metric",
)

_NODE_KEYWORDS = {
    "action": ActivityKind.ACTION,
    "send": ActivityKind.SEND,
    "receive": ActivityKind.RECEIVE,
    "fork": ActivityKind.FORK,
    "join": ActivityKind.JOIN,
    "decision": ActivityKind.DECISION,
    "timer": ActivityKind.TIMER,
}


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.toks = tokens
        self.i = 0
        self.diags: list[Diagnostic] = []
        self.sos_name: _Ref | None = None
        self.cs: list[_CsRec] = []
        self.envs: list[_EnvRec] = []
        self.conns: list[_ConnRec] = []
        self.threats: list[_ThreatRec] = []
        self.chains: list[_ChainRec] = []
        self.procs: list[_ProcRec] = []
        self.acts: list[_ActRec] = []
        self.dets: list[_DetRec] = []
        self.recvs: list[_RecvRec] = []
        self.metrics: list[_MetricRec] = []

    # -- token helpers

    def _tok(self) -> _Token:
        return self.toks[self.i]

    def _at(self, kind: str) -> bool:
        return self._tok().kind == kind

    def _at_kw(self, word: str) -> bool:
        t = self._tok()
        return t.kind == _K_IDENT and t.text == word

    def _advance(self) -> _Token:
        t = self.toks[self.i]
        if t.kind != _K_EOF:
            self.i += 1
        return t

    def _expect(self, kind: str, what: str) -> _Token:
        t = self._tok()
        if t.kind != kind:
            raise _err(t.span, f"expected {what}, found {t.describe()}")
        return self._advance()

    def _expect_kw(self, word: str) -> _Token:
        t = self._tok()
        if not self._at_kw(word):
            raise _err(t.span, f"expected '{word}', found {t.describe()}")
        return self._advance()

    def _ident(self, what: str) -> _Ref:
        t = self._expect(_K_IDENT, what)
        return _new(_Ref, (t.text, t.line, t.col))

    def _opt_string(self) -> str:
        if self._at(_K_STRING):
            return str(self._advance().value)
        return ""

    def _string(self, what: str) -> _Token:
        return self._expect(_K_STRING, what)

    def _duration(self, what: str) -> int:
        t = self._tok()
        if t.kind != _K_DURATION:
            raise _err(
                t.span, f"expected {what} as a tick count like 2t, found {t.describe()}"
            )
        self._advance()
        return int(t.value)  # type: ignore[arg-type]

    def _opt_duration(self) -> int | None:
        if self._at(_K_DURATION):
            return int(self._advance().value)  # type: ignore[arg-type]
        return None

    def _number(self, what: str) -> float:
        t = self._tok()
        if t.kind == _K_NUMBER:
            self._advance()
            return float(t.value)  # type: ignore[arg-type]
        raise _err(t.span, f"expected {what}, found {t.describe()}")

    def _idlist(self, what: str) -> list[_Ref]:
        self._expect("[", f"'[' opening the {what} list")
        out: list[_Ref] = []
        if self._at("]"):
            self._advance()
            return out
        out.append(self._ident(what))
        while self._at(","):
            self._advance()
            out.append(self._ident(what))
        self._expect("]", f"']' closing the {what} list")
        return out

    def _dup_field(self, already: bool, t: _Token, fname: str, block: str) -> bool:
        """Report a repeated single-occurrence field; keep the first value."""
        if already:
            self.diags.append(
                Diagnostic("error", t.span, f"repeated '{fname}' in {block}")
            )
        return already

    # -- grammar

    def parse_sos(self) -> None:
        self._expect_kw("sos")
        self.sos_name = self._ident("model name")
        self._expect("{", "'{' opening the sos block")
        while not self._at("}"):
            t = self._tok()
            if t.kind != _K_IDENT:
                raise _err(
                    t.span,
                    f"expected a declaration keyword or '}}', found {t.describe()}",
                )
            if t.text == "cs":
                self._parse_cs()
            elif t.text == "env":
                self._parse_env()
            elif t.text == "connection":
                self._parse_connection()
            elif t.text in ("fault", "error", "failure"):
                self._parse_threat()
            elif t.text == "chain":
                self._parse_chain()
            elif t.text == "process":
                self._parse_process()
            elif t.text == "activation":
                self._parse_activation()
            elif t.text == "detection":
                self._parse_detection()
            elif t.text == "recovery":
                self._parse_recovery()
            elif t.text == "metric":
                self._parse_metric()
            else:
                raise _err(
                    t.span,
                    "expected one of "
                    + ", ".join(f"'{k}'" for k in _TOP_KEYWORDS)
                    + f", found {t.describe()}",
                )
        self._advance()  # }
        t = self._tok()
        if t.kind != _K_EOF:
            raise _err(t.span, f"trailing content after sos block: {t.describe()}")

    def _parse_cs(self) -> None:
        self._advance()
        rec = _CsRec(self._ident("constituent id"), "")
        rec.name = self._opt_string()
        self._expect("{", "'{' opening the cs block")
        block = f"cs {rec.ident.text}"
        while not self._at("}"):
            t = self._tok()
            if self._at_kw("nominal"):
                self._advance()
                ref = self._ident("process id")
                if not self._dup_field(rec.nominal is not None, t, "nominal", block):
                    rec.nominal = ref
            elif self._at_kw("provides"):
                self._advance()
                refs = self._idlist("interface id")
                if not self._dup_field(bool(rec.provides), t, "provides", block):
                    rec.provides = refs
            elif self._at_kw("requires"):
                self._advance()
                refs = self._idlist("interface id")
                if not self._dup_field(bool(rec.requires), t, "requires", block):
                    rec.requires = refs
            else:
                raise _err(
                    t.span,
                    f"expected 'nominal', 'provides', 'requires' or '}}' in {block}, "
                    f"found {t.describe()}",
                )
        self._advance()
        if rec.nominal is None:
            self.diags.append(
                Diagnostic("error", rec.ident.span, f"{block} has no 'nominal' process")
            )
        self.cs.append(rec)

    def _parse_env(self) -> None:
        self._advance()
        rec = _EnvRec(self._ident("environment entity id"), "")
        rec.name = self._opt_string()
        if self._at("{"):
            self._advance()
            block = f"env {rec.ident.text}"
            while not self._at("}"):
                t = self._tok()
                if self._at_kw("uses"):
                    self._advance()
                    refs = self._idlist("connection id")
                    if not self._dup_field(bool(rec.uses), t, "uses", block):
                        rec.uses = refs
                else:
                    raise _err(
                        t.span,
                        f"expected 'uses' or '}}' in {block}, found {t.describe()}",
                    )
            self._advance()
        self.envs.append(rec)

    def _parse_connection(self) -> None:
        self._advance()
        ident = self._ident("connection id")
        self._expect(":", "':' after the connection id")
        provider = self._ident("endpoint id")
        self._expect("<->", "'<->' between the connection endpoints")
        consumer = self._ident("endpoint id")
        rec = _ConnRec(ident, provider, consumer)
        if self._at("{"):
            self._advance()
            block = f"connection {ident.text}"
            seen: set[str] = set()
            while not self._at("}"):
                t = self._tok()
                if self._at_kw("interface"):
                    self._advance()
                    val = self._ident("interface id")
                    if not self._dup_field("interface" in seen, t, "interface", block):
                        rec.interface = val.text
                    seen.add("interface")
                elif self._at_kw("kind"):
                    self._advance()
                    kt = self._tok()
                    if self._at_kw("nominal"):
                        kind = ConnectionKind.NOMINAL
                    elif self._at_kw("recovery_only"):
                        kind = ConnectionKind.RECOVERY_ONLY
                    else:
                        raise _err(
                            kt.span,
                            f"expected 'nominal' or 'recovery_only', found {kt.describe()}",
                        )
                    self._advance()
                    if not self._dup_field("kind" in seen, t, "kind", block):
                        rec.kind = kind
                    seen.add("kind")
                elif self._at_kw("latency"):
                    self._advance()
                    val2 = self._duration("the link latency")
                    if not self._dup_field("latency" in seen, t, "latency", block):
                        rec.latency = val2
                    seen.add("latency")
                elif self._at_kw("reliability"):
                    self._advance()
                    val3 = self._number("a reliability between 0 and 1")
                    if not self._dup_field(
                        "reliability" in seen, t, "reliability", block
                    ):
                        rec.reliability = val3
                    seen.add("reliability")
                else:
                    raise _err(
                        t.span,
                        f"expected 'interface', 'kind', 'latency', 'reliability' or '}}' "
                        f"in {block}, found {t.describe()}",
                    )
            self._advance()
        self.conns.append(rec)

    def _parse_threat(self) -> None:
        kw = self._advance()
        kind = ThreatKind(kw.text)
        ident = self._ident(f"{kw.text} id")
        desc = self._string("the threat description").value
        rec = _ThreatRec(ident, kind, str(desc))
        if self._at_kw("category"):
            self._advance()
            rec.category = self._ident("category tag").text
        self.threats.append(rec)

    def _parse_chain(self) -> None:
        self._advance()
        rec = _ChainRec(self._ident("chain id"))
        self._expect("{", "'{' opening the chain block")
        block = f"chain {rec.ident.text}"
        seen: set[str] = set()
        while not self._at("}"):
            t = self._tok()
            if t.kind != _K_IDENT:
                raise _err(t.span, f"expected a chain field, found {t.describe()}")
            if t.text in ("fault", "error", "failure", "origin"):
                self._advance()
                ref = self._ident(f"{t.text} id")
                if not self._dup_field(t.text in seen, t, t.text, block):
                    setattr(rec, t.text, ref)
                seen.add(t.text)
            elif t.text == "detectors":
                self._advance()
                refs = self._idlist("detector id")
                if not self._dup_field("detectors" in seen, t, "detectors", block):
                    rec.detectors = refs
                seen.add("detectors")
            elif t.text == "observed":
                self._advance()
                ot = self._tok()
                if self._at_kw("boundary"):
                    obs = FailureObservation.SOS_BOUNDARY
                elif self._at_kw("internal"):
                    obs = FailureObservation.INTERNAL
                else:
                    raise _err(
                        ot.span,
                        f"expected 'boundary' or 'internal', found {ot.describe()}",
                    )
                self._advance()
                if not self._dup_field("observed" in seen, t, "observed", block):
                    rec.observed = obs
                seen.add("observed")
            elif t.text == "unrecoverable":
                self._advance()
                rec.unrecoverable = True
            else:
                raise _err(
                    t.span,
                    f"expected 'fault', 'error', 'failure', 'origin', 'detectors', "
                    f"'observed', 'unrecoverable' or '}}' in {block}, found {t.describe()}",
                )
        self._advance()
        for f in ("fault", "error", "failure", "origin"):
            if getattr(rec, f) is None:
                self.diags.append(
                    Diagnostic("error", rec.ident.span, f"{block} has no '{f}' field")
                )
        self.chains.append(rec)

    def _parse_process(self) -> None:
        self._advance()
        ident = self._ident("process id")
        self._expect_kw("owner")
        owner = self._ident("owner constituent id")
        rec = _ProcRec(ident, owner)
        self._expect("{", "'{' opening the process block")
        block = f"process {ident.text}"
        while not self._at("}"):
            t = self._tok()
            if t.kind != _K_IDENT:
                raise _err(t.span, f"expected a process statement, found {t.describe()}")
            if t.text in _NODE_KEYWORDS:
                self._advance()
                kind = _NODE_KEYWORDS[t.text]
                nid = self._ident("activity id")
                name = self._opt_string()
                channel: _Ref | None = None
                duration = 0
                bound: int | None = None
                if kind in (ActivityKind.SEND, ActivityKind.RECEIVE):
                    self._expect_kw("on")
                    channel = self._ident("connection id")
                    duration = self._opt_duration() or 0
                elif kind is ActivityKind.ACTION:
                    duration = self._opt_duration() or 0
                elif kind is ActivityKind.TIMER:
                    bound = self._duration("the timer bound")
                rec.nodes.append(_new(_NodeRec, (nid, kind, name, duration, channel, bound)))
            elif t.text == "entry":
                self._advance()
                ref = self._ident("entry activity id")
                if not self._dup_field(rec.entry is not None, t, "entry", block):
                    rec.entry = ref
            elif t.text == "exits":
                self._advance()
                refs = self._idlist("exit activity id")
                if not self._dup_field(bool(rec.exits), t, "exits", block):
                    rec.exits = refs
            elif t.text == "edge":
                self._advance()
                src = self._ident("edge source activity")
                self._expect("->", "'->' between the edge endpoints")
                dst = self._ident("edge target activity")
                guard: str | None = None
                if self._at_kw("when"):
                    self._advance()
                    guard = str(self._string("the guard label").value)
                rec.edges.append(_new(_EdgeRec, (src, dst, guard)))
            else:
                raise _err(
                    t.span,
                    f"expected an activity kind, 'entry', 'exits', 'edge' or '}}' "
                    f"in {block}, found {t.describe()}",
                )
        self._advance()
        if rec.entry is None:
            self.diags.append(
                Diagnostic("error", ident.span, f"{block} has no 'entry'")
            )
        if not rec.exits:
            self.diags.append(
                Diagnostic("error", ident.span, f"{block} has no 'exits'")
            )
        self.procs.append(rec)

    def _parse_activation(self) -> None:
        self._advance()
        rec = _ActRec(self._ident("activation id"))
        self._expect("{", "'{' opening the activation block")
        block = f"activation {rec.ident.text}"
        seen: set[str] = set()
        while not self._at("}"):
            t = self._tok()
            if self._at_kw("chain"):
                self._advance()
                ref = self._ident("chain id")
                if not self._dup_field("chain" in seen, t, "chain", block):
                    rec.chain = ref
                seen.add("chain")
            elif self._at_kw("origin"):
                self._advance()
                ref = self._ident("origin constituent id")
                if not self._dup_field("origin" in seen, t, "origin", block):
                    rec.origin = ref
                seen.add("origin")
            elif self._at_kw("region"):
                self._advance()
                refs = self._idlist("region activity id")
                if not self._dup_field("region" in seen, t, "region", block):
                    rec.region = refs
                seen.add("region")
            elif self._at_kw("trigger"):
                self._advance()
                dup = self._dup_field("trigger" in seen, t, "trigger", block)
                seen.add("trigger")
                tt = self._tok()
                if self._at_kw("at_time"):
                    self._advance()
                    trig: AtTime | Probabilistic = AtTime(self._duration("the trigger time"))
                    if not dup:
                        rec.trigger = trig
                elif self._at_kw("on_entry"):
                    self._advance()
                    ref = self._ident("trigger activity id")
                    if not dup:
                        rec.on_entry = ref
                elif self._at_kw("probabilistic"):
                    self._advance()
                    p = self._number("a probability between 0 and 1")
                    try:
                        trig = Probabilistic(p)
                    except FmafError as e:
                        raise _err(tt.span, str(e)) from None
                    if not dup:
                        rec.trigger = trig
                else:
                    raise _err(
                        tt.span,
                        f"expected 'at_time', 'on_entry' or 'probabilistic', "
                        f"found {tt.describe()}",
                    )
            else:
                raise _err(
                    t.span,
                    f"expected 'chain', 'origin', 'region', 'trigger' or '}}' in {block}, "
                    f"found {t.describe()}",
                )
        self._advance()
        for fname, val in (
            ("chain", rec.chain),
            ("origin", rec.origin),
            ("region", rec.region or None),
            ("trigger", rec.trigger or rec.on_entry),
        ):
            if val is None:
                self.diags.append(
                    Diagnostic("error", rec.ident.span, f"{block} has no '{fname}' field")
                )
        self.acts.append(rec)

    def _parse_detection(self) -> None:
        self._advance()
        rec = _DetRec(self._ident("detection id"))
        self._expect("{", "'{' opening the detection block")
        block = f"detection {rec.ident.text}"
        seen: set[str] = set()
        while not self._at("}"):
            t = self._tok()
            if self._at_kw("chain"):
                self._advance()
                ref = self._ident("chain id")
                if not self._dup_field("chain" in seen, t, "chain", block):
                    rec.chain = ref
                seen.add("chain")
            elif self._at_kw("detector"):
                self._advance()
                ref = self._ident("detector id")
                if not self._dup_field("detector" in seen, t, "detector", block):
                    rec.detector = ref
                seen.add("detector")
            elif self._at_kw("condition"):
                self._advance()
                dup = self._dup_field("condition" in seen, t, "condition", block)
                seen.add("condition")
                ct = self._tok()
                if self._at_kw("self_report"):
                    self._advance()
                    cond: SelfReport | ThirdPartyReport = SelfReport(
                        self._duration("the self-report delay")
                    )
                    if not dup:
                        rec.condition = cond
                elif self._at_kw("timeout"):
                    self._advance()
                    bound = self._duration("the timeout bound")
                    self._expect_kw("watching")
                    watched = self._ident("watched element id")
                    if not dup:
                        rec.timeout_bound = bound
                        rec.watching = watched
                elif self._at_kw("third_party"):
                    self._advance()
                    p = self._number("a report probability between 0 and 1")
                    delay = self._duration("the report delay")
                    try:
                        cond = ThirdPartyReport(p, delay)
                    except FmafError as e:
                        raise _err(ct.span, str(e)) from None
                    if not dup:
                        rec.condition = cond
                else:
                    raise _err(
                        ct.span,
                        f"expected 'self_report', 'timeout' or 'third_party', "
                        f"found {ct.describe()}",
                    )
            elif self._at_kw("style"):
                self._advance()
                st = self._tok()
                if self._at_kw("separate"):
                    style = DetectionStyle.SEPARATE_REGION
                elif self._at_kw("shared"):
                    style = DetectionStyle.SHARED_REGION
                else:
                    raise _err(
                        st.span, f"expected 'separate' or 'shared', found {st.describe()}"
                    )
                self._advance()
                if not self._dup_field("style" in seen, t, "style", block):
                    rec.style = style
                seen.add("style")
            elif self._at_kw("recovery"):
                self._advance()
                ref = self._ident("recovery id")
                if not self._dup_field("recovery" in seen, t, "recovery", block):
                    rec.recovery = ref
                seen.add("recovery")
            else:
                raise _err(
                    t.span,
                    f"expected 'chain', 'detector', 'condition', 'style', 'recovery' "
                    f"or '}}' in {block}, found {t.describe()}",
                )
        self._advance()
        for fname, val in (
            ("chain", rec.chain),
            ("detector", rec.detector),
            ("condition", rec.condition or rec.watching),
            ("recovery", rec.recovery),
        ):
            if val is None:
                self.diags.append(
                    Diagnostic("error", rec.ident.span, f"{block} has no '{fname}' field")
                )
        self.dets.append(rec)

    def _parse_recovery(self) -> None:
        self._advance()
        ident = self._ident("recovery id")
        name = self._opt_string()
        rec = _RecvRec(ident, name)
        self._expect("{", "'{' opening the recovery block")
        block = f"recovery {ident.text}"
        seen: set[str] = set()
        while not self._at("}"):
            t = self._tok()
            if self._at_kw("graph"):
                self._advance()
                cs = self._ident("constituent id")
                graph = self._ident("process id")
                rec.graphs.append((cs, graph))
            elif self._at_kw("success"):
                self._advance()
                refs = self._idlist("success exit id")
                if not self._dup_field("success" in seen, t, "success", block):
                    rec.success = refs
                seen.add("success")
            elif self._at_kw("abort"):
                self._advance()
                refs = self._idlist("abort exit id")
                if not self._dup_field("abort" in seen, t, "abort", block):
                    rec.abort = refs
                seen.add("abort")
            else:
                raise _err(
                    t.span,
                    f"expected 'graph', 'success', 'abort' or '}}' in {block}, "
                    f"found {t.describe()}",
                )
        self._advance()
        if not rec.graphs:
            self.diags.append(
                Diagnostic("error", ident.span, f"{block} declares no graphs")
            )
        self.recvs.append(rec)

    def _parse_metric(self) -> None:
        self._advance()
        ident = self._ident("metric id")
        name = self._opt_string()
        rec = _MetricRec(ident, name)
        self._expect("{", "'{' opening the metric block")
        block = f"metric {ident.text}"
        seen: set[str] = set()
        while not self._at("}"):
            t = self._tok()
            if self._at_kw("elapsed"):
                self._advance()
                a = self._string("the start event pattern")
                self._expect("->", "'->' between the event patterns")
                b = self._string("the end event pattern")
                if not self._dup_field(
                    "kind" in seen, t, "elapsed or count", block
                ):
                    rec.elapsed = (_Ref(str(a.value), a.line, a.col), _Ref(str(b.value), b.line, b.col))
                seen.add("kind")
            elif self._at_kw("count"):
                self._advance()
                pat = self._string("the event pattern")
                if not self._dup_field(
                    "kind" in seen, t, "elapsed or count", block
                ):
                    rec.count = _Ref(str(pat.value), pat.line, pat.col)
                seen.add("kind")
            elif self._at_kw("target"):
                self._advance()
                val = self._duration("the target tick count")
                if not self._dup_field("target" in seen, t, "target", block):
                    rec.target = val
                seen.add("target")
            else:
                raise _err(
                    t.span,
                    f"expected 'elapsed', 'count', 'target' or '}}' in {block}, "
                    f"found {t.describe()}",
                )
        self._advance()
        if rec.elapsed is None and rec.count is None:
            self.diags.append(
                Diagnostic(
                    "error", ident.span, f"{block} has neither 'elapsed' nor 'count'"
                )
            )
        self.metrics.append(rec)

    # -- semantic analysis and assembly

    def _error(self, span: SourceSpan, message: str) -> None:
        self.diags.append(Diagnostic("error", span, message))

    def _check_duplicates(self) -> None:
        def scan(refs: list[_Ref], what: str) -> None:
            first: dict[str, _Ref] = {}
            for ref in refs:
                if ref.text in first:
                    self._error(
                        ref.span,
                        f"duplicate {what} id {ref.text!r} "
                        f"(first declared at {first[ref.text].span})",
                    )
                else:
                    first[ref.text] = ref

        scan([r.ident for r in self.cs] + [r.ident for r in self.envs], "element")
        scan([r.ident for r in self.conns], "connection")
        scan([r.ident for r in self.threats], "threat node")
        scan([r.ident for r in self.chains], "chain")
        scan([r.ident for r in self.procs], "process")
        scan([r.ident for r in self.acts], "activation")
        scan([r.ident for r in self.dets], "detection")
        scan([r.ident for r in self.recvs], "recovery")
        scan([r.ident for r in self.metrics], "metric")
        for proc in self.procs:
            scan(
                [n.ident for n in proc.nodes],
                f"activity (in process {proc.ident.text!r})",
            )

    def _check_references(self) -> None:
        cs_ids = {r.ident.text for r in self.cs}
        env_ids = {r.ident.text for r in self.envs}
        elements = cs_ids | env_ids
        conn_ids = {r.ident.text for r in self.conns}
        threat_by_id = {r.ident.text: r for r in self.threats}
        chain_by_id = {r.ident.text: r for r in self.chains}
        proc_by_id = {r.ident.text: r for r in self.procs}
        recovery_ids = {r.ident.text for r in self.recvs}
        all_activities = {
            n.ident.text for proc in self.procs for n in proc.nodes
        }

        def need(ref: _Ref | None, pool: set[str], what: str) -> None:
            if ref is not None and ref.text not in pool:
                self._error(ref.span, f"unknown {what} {ref.text!r}")

        for r in self.cs:
            if r.nominal is not None:
                proc = proc_by_id.get(r.nominal.text)
                if proc is None:
                    self._error(
                        r.nominal.span, f"unknown process {r.nominal.text!r}"
                    )
                elif proc.owner.text != r.ident.text:
                    self._error(
                        r.nominal.span,
                        f"process {r.nominal.text!r} is owned by "
                        f"{proc.owner.text!r}, not by cs {r.ident.text!r}",
                    )
        for e in self.envs:
            for ref in e.uses:
                need(ref, conn_ids, "connection")
        for c in self.conns:
            need(c.provider, elements, "element")
            need(c.consumer, elements, "element")
            if c.provider.text == c.consumer.text and c.provider.text in elements:
                self._error(
                    c.consumer.span,
                    f"connection {c.ident.text!r} joins {c.provider.text!r} to itself",
                )
        for ch in self.chains:
            for fname, want in (
                ("fault", ThreatKind.FAULT),
                ("error", ThreatKind.ERROR),
                ("failure", ThreatKind.FAILURE),
            ):
                ref = getattr(ch, fname)
                if ref is None:
                    continue
                node = threat_by_id.get(ref.text)
                if node is None:
                    self._error(ref.span, f"unknown threat node {ref.text!r}")
                elif node.kind is not want:
                    self._error(
                        ref.span,
                        f"threat node {ref.text!r} has kind "
                        f"{node.kind.value}, but chain {ch.ident.text!r} uses it "
                        f"as its {fname}",
                    )
            need(ch.origin, elements, "element")
            for ref in ch.detectors:
                need(ref, elements, "element")
        for p in self.procs:
            need(p.owner, cs_ids, "constituent")
            local = {n.ident.text for n in p.nodes}
            where = f"activity in process {p.ident.text!r}"
            if p.entry is not None and p.entry.text not in local:
                self._error(p.entry.span, f"unknown {where}: {p.entry.text!r}")
            for ref in p.exits:
                if ref.text not in local:
                    self._error(ref.span, f"unknown {where}: {ref.text!r}")
            for n in p.nodes:
                if n.channel is not None:
                    need(n.channel, conn_ids, "connection")
            for edge in p.edges:
                for ref in (edge.src, edge.dst):
                    if ref.text not in local:
                        self._error(ref.span, f"unknown {where}: {ref.text!r}")
        for a in self.acts:
            need(a.chain, set(chain_by_id), "chain")
            need(a.origin, elements, "element")
            for ref in a.region:
                need(ref, all_activities, "activity")
            need(a.on_entry, all_activities, "activity")
        for d in self.dets:
            need(d.chain, set(chain_by_id), "chain")
            need(d.detector, elements, "element")
            need(d.watching, elements, "element")
            need(d.recovery, recovery_ids, "recovery")
            if (
                d.detector is not None
                and d.chain is not None
                and d.chain.text in chain_by_id
                and d.detector.text in elements
            ):
                listed = {ref.text for ref in chain_by_id[d.chain.text].detectors}
                if d.detector.text not in listed:
                    self._error(
                        d.detector.span,
                        f"detector {d.detector.text!r} is not listed by "
                        f"chain {d.chain.text!r}",
                    )
        for rv in self.recvs:
            exit_owner: dict[str, str] = {}
            for cs_ref, graph_ref in rv.graphs:
                need(cs_ref, cs_ids, "constituent")
                proc = proc_by_id.get(graph_ref.text)
                if proc is None:
                    self._error(graph_ref.span, f"unknown process {graph_ref.text!r}")
                    continue
                if proc.owner.text != cs_ref.text:
                    self._error(
                        graph_ref.span,
                        f"process {graph_ref.text!r} is owned by "
                        f"{proc.owner.text!r}, not by {cs_ref.text!r}",
                    )
                for ref in proc.exits:
                    if ref.text in exit_owner and exit_owner[ref.text] != proc.ident.text:
                        self._error(
                            graph_ref.span,
                            f"recovery {rv.ident.text!r}: exit id {ref.text!r} "
                            f"appears in more than one of its graphs",
                        )
                    exit_owner.setdefault(ref.text, proc.ident.text)
            known_exits = set(exit_owner)
            for ref in rv.success + rv.abort:
                if ref.text not in known_exits:
                    self._error(
                        ref.span,
                        f"unknown exit {ref.text!r} (not an exit of any graph of "
                        f"recovery {rv.ident.text!r})",
                    )

        qualifier_pool = (
            set(threat_by_id) | elements | conn_ids | set(chain_by_id) | all_activities
        )
        for m in self.metrics:
            pats = []
            if m.elapsed is not None:
                pats.extend(m.elapsed)
            if m.count is not None:
                pats.append(m.count)
            for pat in pats:
                try:
                    _kind, qualifier = split_event_pattern(pat.text)
                except FmafError as e:
                    self._error(pat.span, str(e))
                    continue
                if qualifier is not None and qualifier not in qualifier_pool:
                    self._error(
                        pat.span,
                        f"event pattern qualifier {qualifier!r} matches no "
                        f"declared element, threat, chain, connection or activity",
                    )

    def _assemble(self) -> ParseResult:
        assert self.sos_name is not None
        constituents = []
        for r in self.cs:
            try:
                constituents.append(
                    ConstituentSystem(
                        id=r.ident.text,
                        name=r.name,
                        nominal_process=r.nominal.text if r.nominal else "",
                        provided_interfaces=frozenset(x.text for x in r.provides),
                        required_interfaces=frozenset(x.text for x in r.requires),
                    )
                )
            except FmafError as e:
                self._error(r.ident.span, str(e))
        environment = []
        for r in self.envs:
            try:
                environment.append(
                    EnvironmentEntity(
                        id=r.ident.text,
                        name=r.name,
                        connections_used=frozenset(x.text for x in r.uses),
                    )
                )
            except FmafError as e:
                self._error(r.ident.span, str(e))
        connections = []
        for r in self.conns:
            try:
                connections.append(
                    Connection(
                        id=r.ident.text,
                        interface_id=r.interface if r.interface is not None else r.ident.text,
                        provider=r.provider.text,
                        consumer=r.consumer.text,
                        kind=r.kind,
                        latency=r.latency,
                        reliability=r.reliability,
                    )
                )
            except FmafError as e:
                self._error(r.ident.span, str(e))
        threat_nodes = []
        for r in self.threats:
            try:
                threat_nodes.append(
                    ThreatNode(
                        id=r.ident.text,
                        kind=r.kind,
                        description=r.description,
                        category=r.category,
                    )
                )
            except FmafError as e:
                self._error(r.ident.span, str(e))
        chains = []
        for r in self.chains:
            if None in (r.fault, r.error, r.failure, r.origin):
                continue  # already reported
            try:
                chains.append(
                    ThreatChain(
                        id=r.ident.text,
                        fault=r.fault.text,  # type: ignore[union-attr]
                        error=r.error.text,  # type: ignore[union-attr]
                        failure=r.failure.text,  # type: ignore[union-attr]
                        origin=r.origin.text,  # type: ignore[union-attr]
                        detectors=tuple(x.text for x in r.detectors),
                        failure_observation=r.observed,
                        unrecoverable=r.unrecoverable,
                    )
                )
            except FmafError as e:
                self._error(r.ident.span, str(e))
        processes = []
        proc_idents = {r.ident.text: r.ident for r in self.procs}
        for r in self.procs:
            if r.entry is None or not r.exits:
                continue  # already reported
            try:
                nodes = {
                    n.ident.text: Activity(
                        id=n.ident.text,
                        kind=n.kind,
                        name=n.name,
                        duration=n.duration,
                        channel=n.channel.text if n.channel else None,
                        timer_bound=n.timer_bound,
                    )
                    for n in r.nodes
                }
                processes.append(
                    ActivityGraph(
                        id=r.ident.text,
                        owner=r.owner.text,
                        nodes=nodes,
                        edges=tuple(
                            Edge(e.src.text, e.dst.text, e.guard) for e in r.edges
                        ),
                        entry=r.entry.text,
                        exits=frozenset(x.text for x in r.exits),
                    )
                )
            except FmafError as e:
                self._error(r.ident.span, str(e))
        activations = []
        for r in self.acts:
            trigger = r.trigger
            if r.on_entry is not None:
                trigger = OnEntry(r.on_entry.text)  # type: ignore[assignment]
            if r.chain is None or r.origin is None or trigger is None:
                continue  # already reported
            try:
                activations.append(
                    ActivationSpec(
                        id=r.ident.text,
                        threat=r.chain.text,
                        origin_constituent=r.origin.text,
                        region=frozenset(x.text for x in r.region),
                        trigger=trigger,
                    )
                )
            except FmafError as e:
                self._error(r.ident.span, str(e))
        detections = []
        for r in self.dets:
            condition = r.condition
            if r.watching is not None and r.timeout_bound is not None:
                try:
                    condition = Timeout(r.timeout_bound, r.watching.text)
                except FmafError as e:
                    self._error(r.ident.span, str(e))
                    continue
            if r.chain is None or r.detector is None or condition is None or r.recovery is None:
                continue  # already reported
            try:
                detections.append(
                    DetectionSpec(
                        id=r.ident.text,
                        threat=r.chain.text,
                        detector=r.detector.text,
                        condition=condition,
                        recovery=r.recovery.text,
                        style=r.style,
                    )
                )
            except FmafError as e:
                self._error(r.ident.span, str(e))
        recoveries = []
        for r in self.recvs:
            if not r.graphs:
                continue  # already reported
            try:
                recoveries.append(
                    RecoverySpec(
                        id=r.ident.text,
                        name=r.name,
                        graphs={cs.text: g.text for cs, g in r.graphs},
                        success_exits=frozenset(x.text for x in r.success),
                        abort_exits=frozenset(x.text for x in r.abort),
                    )
                )
            except FmafError as e:
                self._error(r.ident.span, str(e))
        metrics = []
        for r in self.metrics:
            kind: ElapsedBetween | Count
            if r.elapsed is not None:
                kind = ElapsedBetween(r.elapsed[0].text, r.elapsed[1].text)
            elif r.count is not None:
                kind = Count(r.count.text)
            else:
                continue  # already reported
            try:
                metrics.append(
                    MetricSpec(id=r.ident.text, kind=kind, name=r.name, target=r.target)
                )
            except FmafError as e:
                self._error(r.ident.span, str(e))

        if any(d.severity == "error" for d in self.diags):
            return ParseResult(None, tuple(self.diags))

        try:
            model = build_model(
                name=self.sos_name.text,
                constituents=constituents,
                environment=environment,
                connections=connections,
                threat_nodes=threat_nodes,
                chains=chains,
                processes=processes,
                activations=activations,
                detections=detections,
                recoveries=recoveries,
                metrics=metrics,
            )
        except GraphStructureError as e:
            self._error(proc_idents.get(e.graph_id, self.sos_name).span, str(e))
            return ParseResult(None, tuple(self.diags))
        except FmafError as e:
            self._error(self.sos_name.span, str(e))
            return ParseResult(None, tuple(self.diags))
        return ParseResult(model, tuple(self.diags))

    def finish(self) -> ParseResult:
        self._check_duplicates()
        self._check_references()
        return self._assemble()


def parse(text: str) -> ParseResult:
    """Parse model source text.

    Returns a :class:`ParseResult`; syntax errors abort at the first
    offence, semantic problems (duplicate ids, unresolved references,
    malformed graphs) are collected together with their source positions.
    """
    try:
        tokens = _lex(text)
    except _Abort as a:
        return ParseResult(None, (a.diagnostic,))
    parser = _Parser(tokens)
    try:
        parser.parse_sos()
    except _Abort as a:
        parser.diags.append(a.diagnostic)
        return ParseResult(None, tuple(parser.diags))
    return parser.finish()


def parse_file(path: str | Path) -> ParseResult:
    return parse(Path(path).read_text(encoding="utf-8-sig"))


# ---------------------------------------------------------------------------
# Serializer


def _quote(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


def _num(x: float) -> str:
    # The grammar has no exponent form, so a repr that uses one is written
    # out as the same decimal in positional digits.
    s = repr(x)
    if "e" in s:
        from decimal import Decimal  # here, so that most processes never load it

        s = format(Decimal(s), "f")
        if "." not in s:
            s += ".0"
    return s


def _idlist_text(ids) -> str:
    return "[" + ", ".join(ids) + "]"


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def put(self, text: str) -> None:
        self.lines.append("  " * self.depth + text)

    def block(self, header: str, body) -> None:
        """Emit ``header { body }``, collapsing an empty body to one line."""
        opened = len(self.lines)
        self.put(header + " {")
        self.depth += 1
        body()
        self.depth -= 1
        if len(self.lines) == opened + 1:
            self.lines[opened] = self.lines[opened][:-1].rstrip() + " { }"
        else:
            self.put("}")


def serialize(model: SosModel) -> str:
    """Canonical text for a model; ``parse`` reads it back to an equal value."""
    w = _Writer()

    def body() -> None:
        for cs in model.constituents.values():
            header = f"cs {cs.id}"
            if cs.name:
                header += f" {_quote(cs.name)}"

            def cs_body(cs=cs) -> None:
                w.put(f"nominal {cs.nominal_process}")
                if cs.provided_interfaces:
                    w.put(f"provides {_idlist_text(sorted(cs.provided_interfaces))}")
                if cs.required_interfaces:
                    w.put(f"requires {_idlist_text(sorted(cs.required_interfaces))}")

            w.block(header, cs_body)
        for env in model.environment.values():
            header = f"env {env.id}"
            if env.name:
                header += f" {_quote(env.name)}"
            if env.connections_used:
                w.block(
                    header,
                    lambda env=env: w.put(
                        f"uses {_idlist_text(sorted(env.connections_used))}"
                    ),
                )
            else:
                w.put(header)
        for conn in model.connections.values():
            header = f"connection {conn.id}: {conn.provider} <-> {conn.consumer}"
            fields: list[str] = []
            if conn.interface_id != conn.id:
                fields.append(f"interface {conn.interface_id}")
            if conn.kind is not ConnectionKind.NOMINAL:
                fields.append("kind recovery_only")
            if conn.latency != 1:
                fields.append(f"latency {conn.latency}t")
            if conn.reliability != 1.0:
                fields.append(f"reliability {_num(conn.reliability)}")
            if fields:
                w.block(header, lambda fields=fields: [w.put(f) for f in fields])
            else:
                w.put(header)
        for want in (ThreatKind.FAULT, ThreatKind.ERROR, ThreatKind.FAILURE):
            for node in model.threat_nodes.values():
                if node.kind is not want:
                    continue
                line = f"{node.kind.value} {node.id} {_quote(node.description)}"
                if node.category:
                    line += f" category {node.category}"
                w.put(line)
        for chain in model.chains.values():

            def chain_body(chain=chain) -> None:
                w.put(f"fault {chain.fault}")
                w.put(f"error {chain.error}")
                w.put(f"failure {chain.failure}")
                w.put(f"origin {chain.origin}")
                if chain.detectors:
                    w.put(f"detectors {_idlist_text(chain.detectors)}")
                if chain.failure_observation is not FailureObservation.SOS_BOUNDARY:
                    w.put("observed internal")
                if chain.unrecoverable:
                    w.put("unrecoverable")

            w.block(f"chain {chain.id}", chain_body)
        for proc in model.processes.values():

            def proc_body(proc=proc) -> None:
                w.put(f"entry {proc.entry}")
                w.put(f"exits {_idlist_text(sorted(proc.exits))}")
                for node in proc.nodes.values():
                    line = f"{node.kind.value} {node.id}"
                    if node.name:
                        line += f" {_quote(node.name)}"
                    if node.kind in (ActivityKind.SEND, ActivityKind.RECEIVE):
                        line += f" on {node.channel}"
                        if node.duration:
                            line += f" {node.duration}t"
                    elif node.kind is ActivityKind.TIMER:
                        line += f" {node.timer_bound}t"
                    elif node.kind is ActivityKind.ACTION and node.duration:
                        line += f" {node.duration}t"
                    w.put(line)
                for edge in proc.edges:
                    line = f"edge {edge.src} -> {edge.dst}"
                    if edge.guard is not None:
                        line += f" when {_quote(edge.guard)}"
                    w.put(line)

            w.block(f"process {proc.id} owner {proc.owner}", proc_body)
        for act in model.activations.values():

            def act_body(act=act) -> None:
                w.put(f"chain {act.threat}")
                w.put(f"origin {act.origin_constituent}")
                w.put(f"region {_idlist_text(sorted(act.region))}")
                trig = act.trigger
                if isinstance(trig, AtTime):
                    w.put(f"trigger at_time {trig.time}t")
                elif isinstance(trig, OnEntry):
                    w.put(f"trigger on_entry {trig.activity}")
                else:
                    w.put(f"trigger probabilistic {_num(trig.probability)}")

            w.block(f"activation {act.id}", act_body)
        for det in model.detections.values():

            def det_body(det=det) -> None:
                w.put(f"chain {det.threat}")
                w.put(f"detector {det.detector}")
                cond = det.condition
                if isinstance(cond, SelfReport):
                    w.put(f"condition self_report {cond.delay}t")
                elif isinstance(cond, Timeout):
                    w.put(f"condition timeout {cond.bound}t watching {cond.watched}")
                else:
                    w.put(
                        f"condition third_party {_num(cond.probability)} {cond.delay}t"
                    )
                if det.style is not DetectionStyle.SEPARATE_REGION:
                    w.put("style shared")
                w.put(f"recovery {det.recovery}")

            w.block(f"detection {det.id}", det_body)
        for recv in model.recoveries.values():
            header = f"recovery {recv.id}"
            if recv.name:
                header += f" {_quote(recv.name)}"

            def recv_body(recv=recv) -> None:
                for cs_id, graph_id in recv.graphs.items():
                    w.put(f"graph {cs_id} {graph_id}")
                if recv.success_exits:
                    w.put(f"success {_idlist_text(sorted(recv.success_exits))}")
                if recv.abort_exits:
                    w.put(f"abort {_idlist_text(sorted(recv.abort_exits))}")

            w.block(header, recv_body)
        for metric in model.metrics.values():
            header = f"metric {metric.id}"
            if metric.name:
                header += f" {_quote(metric.name)}"

            def metric_body(metric=metric) -> None:
                kind = metric.kind
                if isinstance(kind, ElapsedBetween):
                    w.put(f"elapsed {_quote(kind.a)} -> {_quote(kind.b)}")
                else:
                    w.put(f"count {_quote(kind.pattern)}")
                if metric.target is not None:
                    w.put(f"target {metric.target}t")

            w.block(header, metric_body)

    w.block(f"sos {model.name}", body)
    return "\n".join(w.lines) + "\n"
