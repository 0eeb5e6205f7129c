"""Textual format for SoS fault tolerance models.

:func:`parse` turns source text into a :class:`~fmaf.model.SosModel`, or
into a list of diagnostics carrying 1-based line/column positions when the
text is unacceptable.  :func:`serialize` writes the canonical textual form,
which :func:`parse` accepts back unchanged.  Canonical means: declaration
order never matters.  A model keeps every collection in id order however
it was built (by :func:`parse`, ``build_model``, ``SosModel(...)`` or
``dataclasses.replace``), so two equal models serialize to identical
bytes, and ``parse(serialize(m)).model == m`` for every valid model ``m``.

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
    DanglingReferenceError,
    DetectionSpec,
    DetectionStyle,
    Edge,
    ElapsedBetween,
    EnvironmentEntity,
    FailureObservation,
    FmafError,
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
    _ID_CHAR,
    _IDENTIFIER,
    _frozen_value,
    _problems,
    _slot_maker,
)

__all__ = [
    "SourceSpan",
    "Diagnostic",
    "ParseResult",
    "parse",
    "parse_file",
    "serialize",
]


@_frozen_value
class SourceSpan:
    """1-based position of a token in the source text."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@_frozen_value
class Diagnostic:
    """An error at a source position."""

    severity: str  # always "error": ``parse`` emits no warnings
    span: SourceSpan
    message: str

    def __str__(self) -> str:
        return f"{self.span}: {self.severity}: {self.message}"


@_frozen_value
class ParseResult:
    """Either a model or the error diagnostics that prevented one.

    ``model`` is ``None`` exactly when ``diagnostics`` is not empty.
    Every diagnostic is an error; warnings about a model that parses come
    from the checker.
    """

    model: SosModel | None
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.model is not None


# ---------------------------------------------------------------------------
# Lexer
#
# A token is its source text, a "word".  Its kind follows from its first
# character: a letter starts an identifier, '"' a string, a digit a
# duration when the word ends in 't' and a number otherwise, anything else
# is punctuation, and the empty word stands for the end of input.  Positions
# are found only when a diagnostic needs one.


class _Abort(Exception):
    def __init__(self, diagnostic: Diagnostic) -> None:
        self.diagnostic = diagnostic
        super().__init__(diagnostic.message)


def _err(span: SourceSpan, message: str) -> _Abort:
    return _Abort(Diagnostic("error", span, message))


# Each escape letter and the character it stands for, the backslash first
# so that the serializer can replace them in this order.
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_ESCAPE = re.compile(r"\\(.)")

_DECIMAL = r"[0-9]+(?:\.[0-9]+)?"
_STRING_CHARS = rf'[^"\\\n]*(?:\\[{re.escape("".join(_ESCAPES))}][^"\\\n]*)*'
_JUNK = r"[ \t\n]*(?:\#[^\n]*[ \t\n]*)*"  # blanks and comments

# Each match is one word (group 1) with the blanks and comments after it.
# The first alternative takes the blanks and comments before the first
# word, so matches tile the text and ``findall`` gives ``""`` and then
# every word.  Digits are spelled out as ASCII, as identifier characters
# are in ``model``, because ``\d`` accepts other scripts.  A malformed
# string, a number or duration that runs into an identifier character, or
# a character that starts no word leaves only the catch-all, which swallows
# the rest of the text outside group 1, so the list then ends in ``""``;
# _lex_error names the fault.
_TOKEN = re.compile(
    rf"""\A{_JUNK}
      | (?:
          ( {_IDENTIFIER.pattern}
          | <->|->|[{{}}\[\],:]
          | "{_STRING_CHARS}"
          | [0-9]+t(?!{_ID_CHAR})
          | {_DECIMAL}(?!{_ID_CHAR})
          )
        | [\s\S]+
        ){_JUNK}""",
    re.VERBOSE,
)
_STRING_BODY = re.compile(_STRING_CHARS)
_NUMBER = re.compile(_DECIMAL)


def _words(text: str) -> list[str] | None:
    """Every word of ``text`` and then ``""``, or None if it does not lex."""
    words = _TOKEN.findall(text)
    if len(words) > 1 and not words[-1]:
        return None
    del words[0]
    words.append("")
    return words


def _unquote(word: str) -> str:
    """The value of a string word."""
    s = word[1:-1]
    return _ESCAPE.sub(lambda e: _ESCAPES[e[1]], s) if "\\" in s else s


def _positions(text: str) -> list[tuple[int, int]]:
    """(line, column) of every word of ``text`` and then of its end.

    Raises the diagnostic of the first word that only the catch-all took.
    """
    spots: list[tuple[int, int]] = []
    line = 1
    base = -1  # offset of the current line's column 0
    last = 0  # end of the last word
    for m in _TOKEN.finditer(text):
        start = m.start()
        if m[1] is not None:
            spots.append((line, start - base))
            last = m.end(1)
        elif m[0][:1] not in " \t\n#":  # the catch-all, not the leading blanks
            raise _lex_error(text, start, line, base)
        lines = text.count("\n", start, m.end())
        if lines:
            line += lines
            base = text.rfind("\n", start, m.end())
    # End of input, or a comment that runs to it: the EOF span is then the
    # comment's '#', because a comment never moves the column on.
    hash_at = text.find("#", max(base + 1, last))
    end = hash_at if hash_at >= 0 else len(text)
    spots.append((line, end - base))
    return spots


def _lex_error(text: str, i: int, line: int, base: int) -> _Abort:
    """The diagnostic for the word at ``i`` that only the catch-all matched."""
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


def _describe(word: str) -> str:
    c = word[:1]
    if not c:
        return "end of input"
    if c == '"':
        return f'string "{_unquote(word)}"'
    if c.isdigit():
        return f"{'duration' if word[-1] == 't' else 'number'} {word}"
    return f"'{word}'"


def _alternatives(words) -> str:
    quoted = [f"'{w}'" for w in words]
    return ", ".join(quoted[:-1]) + " or " + quoted[-1]


# ---------------------------------------------------------------------------
# Block tables
#
# One table per declaration keyword drives the parser and the assembly: the
# model class it declares, its header items, whether a braced body follows,
# and its fields.  The parser reads each declaration into a plain dict.
# Ids, and strings whose diagnostics point at them, are kept as the index
# of their word, so a span is made only when a diagnostic is emitted.

# Value kinds.  Next to the kind, ``what`` names the value in diagnostics;
# for a keyword choice it maps each keyword to its value, and for a
# sub-form it gives the items, (kind, what) each, or maps each keyword
# that picks a form to (items, build).  A literal word stands as its own
# kind, and its value is None.
_ID = "id"
_IDS = "id list"
_STR = "string"
_DUR = "duration"
_NUM = "number"
_CHOICE = "keyword choice"
_FORM = "sub-form"
_FLAG = "flag"
_NAME = "name"  # the optional display string of a header

_REQUIRED = "required"


class _Field(NamedTuple):
    """One field of a block body: a keyword, then a value of ``kind``."""

    keyword: str
    kind: str
    what: object
    default: object = _REQUIRED
    repeated: bool = False  # a list of every value, never a repeat error
    slot: str = ""  # fields that exclude each other share one record key
    attr: str = ""  # the model field it fills, when not named like its record key

    @property
    def key(self) -> str:
        return self.slot or self.keyword


class _Block(NamedTuple):
    cls: type  # the model class of a declaration
    header: tuple  # (record key, or None for a literal word; kind; what) per item
    body: str  # "{": a braced body follows; "{?": it may; "": fields follow the header
    fields: tuple[_Field, ...]
    missing: str = ""  # the message for a missing required field, from block and key
    nonword: str = ""  # what is expected where a non-word starts a field


_HAS_NO_FIELD = "{} has no '{}' field"

_BLOCKS = {
    "cs": _Block(
        ConstituentSystem,
        (("ident", _ID, "constituent id"), ("name", _NAME, None)),
        "{",
        (
            _Field("nominal", _ID, "process id", attr="nominal_process"),
            _Field("provides", _IDS, "interface id", (), attr="provided_interfaces"),
            _Field("requires", _IDS, "interface id", (), attr="required_interfaces"),
        ),
        "{} has no '{}' process",
    ),
    "env": _Block(
        EnvironmentEntity,
        (("ident", _ID, "environment entity id"), ("name", _NAME, None)),
        "{?",
        (_Field("uses", _IDS, "connection id", (), attr="connections_used"),),
    ),
    "connection": _Block(
        Connection,
        (
            ("ident", _ID, "connection id"),
            (None, ":", "':' after the connection id"),
            ("provider", _ID, "endpoint id"),
            (None, "<->", "'<->' between the connection endpoints"),
            ("consumer", _ID, "endpoint id"),
        ),
        "{?",
        (
            _Field("interface", _ID, "interface id", None, attr="interface_id"),
            _Field(
                "kind",
                _CHOICE,
                {"nominal": ConnectionKind.NOMINAL, "recovery_only": ConnectionKind.RECOVERY_ONLY},
                ConnectionKind.NOMINAL,
            ),
            _Field("latency", _DUR, "the link latency", 1),
            _Field("reliability", _NUM, "a reliability between 0 and 1", 1.0),
        ),
    ),
    **{
        kind.value: _Block(
            ThreatNode,
            (("ident", _ID, f"{kind.value} id"), ("description", _STR, "the threat description")),
            "",
            (_Field("category", _ID, "category tag", None),),
        )
        for kind in ThreatKind
    },
    "chain": _Block(
        ThreatChain,
        (("ident", _ID, "chain id"),),
        "{",
        (
            _Field("fault", _ID, "fault id"),
            _Field("error", _ID, "error id"),
            _Field("failure", _ID, "failure id"),
            _Field("origin", _ID, "origin id"),
            _Field("detectors", _IDS, "detector id", ()),
            _Field(
                "observed",
                _CHOICE,
                {
                    "boundary": FailureObservation.SOS_BOUNDARY,
                    "internal": FailureObservation.INTERNAL,
                },
                FailureObservation.SOS_BOUNDARY,
                attr="failure_observation",
            ),
            _Field("unrecoverable", _FLAG, None, False),
        ),
        _HAS_NO_FIELD,
        "a chain field",
    ),
    # Activity statements and edges are read on a path of their own
    # (_Parser.process).
    "process": _Block(
        ActivityGraph,
        (
            ("ident", _ID, "process id"),
            (None, "owner", "'owner'"),
            ("owner", _ID, "owner constituent id"),
        ),
        "{",
        (
            _Field("entry", _ID, "entry activity id"),
            _Field("exits", _IDS, "exit activity id"),
        ),
        "{} has no '{}'",
        "a process statement",
    ),
    "activation": _Block(
        ActivationSpec,
        (("ident", _ID, "activation id"),),
        "{",
        (
            _Field("chain", _ID, "chain id", attr="threat"),
            _Field("origin", _ID, "origin constituent id", attr="origin_constituent"),
            _Field("region", _IDS, "region activity id"),
            _Field(
                "trigger",
                _FORM,
                {
                    "at_time": (((_DUR, "the trigger time"),), AtTime),
                    "on_entry": (((_ID, "trigger activity id"),), None),
                    "probabilistic": (((_NUM, "a probability between 0 and 1"),), Probabilistic),
                },
            ),
        ),
        _HAS_NO_FIELD,
    ),
    "detection": _Block(
        DetectionSpec,
        (("ident", _ID, "detection id"),),
        "{",
        (
            _Field("chain", _ID, "chain id", attr="threat"),
            _Field("detector", _ID, "detector id"),
            _Field(
                "condition",
                _FORM,
                {
                    "self_report": (((_DUR, "the self-report delay"),), SelfReport),
                    "timeout": (
                        (
                            (_DUR, "the timeout bound"),
                            ("watching", "'watching'"),
                            (_ID, "watched element id"),
                        ),
                        None,
                    ),
                    "third_party": (
                        (
                            (_NUM, "a report probability between 0 and 1"),
                            (_DUR, "the report delay"),
                        ),
                        ThirdPartyReport,
                    ),
                },
            ),
            _Field(
                "style",
                _CHOICE,
                {
                    "separate": DetectionStyle.SEPARATE_REGION,
                    "shared": DetectionStyle.SHARED_REGION,
                },
                DetectionStyle.SEPARATE_REGION,
            ),
            _Field("recovery", _ID, "recovery id"),
        ),
        _HAS_NO_FIELD,
    ),
    "recovery": _Block(
        RecoverySpec,
        (("ident", _ID, "recovery id"), ("name", _NAME, None)),
        "{",
        (
            _Field(
                "graph",
                _FORM,
                ((_ID, "constituent id"), (_ID, "process id")),
                repeated=True,
                attr="graphs",
            ),
            _Field("success", _IDS, "success exit id", (), attr="success_exits"),
            _Field("abort", _IDS, "abort exit id", (), attr="abort_exits"),
        ),
        "{} declares no graphs",
    ),
    "metric": _Block(
        MetricSpec,
        (("ident", _ID, "metric id"), ("name", _NAME, None)),
        "{",
        (
            _Field(
                "elapsed",
                _FORM,
                (
                    (_STR, "the start event pattern"),
                    ("->", "'->' between the event patterns"),
                    (_STR, "the end event pattern"),
                ),
                slot="elapsed or count",
                attr="kind",
            ),
            _Field("count", _STR, "the event pattern", slot="elapsed or count", attr="kind"),
            _Field("target", _DUR, "the target tick count", None),
        ),
        "{} has neither 'elapsed' nor 'count'",
    ),
}

_FIELDS = {kw: {f.keyword: f for f in b.fields} for kw, b in _BLOCKS.items()}
# Each record key with its default, or _REQUIRED; fields sharing a slot share a key.
_DEFAULTS = {kw: {f.key: f.default for f in b.fields} for kw, b in _BLOCKS.items()}
# Each model field a block's table names, with the record key and the kind
# of the value that fills it; the header's ``ident`` fills ``id``.
_COLUMNS = {
    kw: {
        **{"id" if key == "ident" else key: (key, kind) for key, kind, _ in b.header if key},
        **{f.attr or f.key: (f.key, f.kind) for f in b.fields},
    }
    for kw, b in _BLOCKS.items()
}
_NODE_KINDS = {kind.value: kind for kind in ActivityKind}
_MESSAGING = (ActivityKind.SEND, ActivityKind.RECEIVE)
# _Parser.process reads an activity only as the grammar allows, which keeps
# every rule of Activity.__post_init__: its id is an identifier word, a
# duration or bound a [0-9]+t word, 'on CHANNEL' comes exactly with send
# and receive, and a bound exactly with timer.  Edges have no rules.
_activity = _slot_maker(Activity)
_edge = _slot_maker(Edge)
_THREATS = tuple(kind.value for kind in ThreatKind)

# The word diagnostics use for each reference category that differs from it.
_CATEGORY_WORDS = {"threat chain": "chain", "activity graph": "process", "graph exit": "exit"}
_QUALIFIER = (
    "event pattern qualifier {!r} matches no declared element, threat, chain, connection "
    "or activity"
)


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str, words: list[str]) -> None:
        self.text = text
        self.words = words
        self.spots: list[tuple[int, int]] | None = None  # found when a span is needed
        self.diags: list[Diagnostic] = []
        # Records by declaration keyword, in declaration order; the three
        # threat keywords share one list.
        self.recs: dict[str, list[dict]] = {kw: [] for kw in _BLOCKS}
        for kw in _THREATS:
            self.recs[kw] = self.recs["fault"]
        # Id words of declarations the model leaves out: those missing a
        # required field, and every declaration of an id after its first.
        self.left_out: set[int] = set()

    # -- positions and diagnostics

    def span(self, i: int) -> SourceSpan:
        """The position of word ``i``."""
        if self.spots is None:
            self.spots = _positions(self.text)
        return SourceSpan(*self.spots[i])

    def error(self, i: int, message: str) -> None:
        self.diags.append(Diagnostic("error", self.span(i), message))

    def expected(self, i: int, what: str) -> _Abort:
        return _err(self.span(i), f"expected {what}, found {_describe(self.words[i])}")

    # -- values

    def ident(self, i: int, what: str) -> int:
        if not self.words[i][:1].isalpha():
            raise self.expected(i, what)
        return i

    def value(self, kind: str, what, i: int) -> tuple[object, int]:
        """The value of ``kind`` at word ``i``, and the index after it.

        Ids and strings are kept as their word's index; a literal keyword
        or punctuation (its own kind) has the value None.
        """
        w = self.words[i]
        if kind == _ID:
            if w[:1].isalpha():
                return i, i + 1
        elif kind == _IDS:
            return self.idlist(i, what)
        elif kind == _STR:
            if w[:1] == '"':
                return i, i + 1
        elif kind == _DUR:
            if w[:1].isdigit() and w[-1] == "t":
                return int(w[:-1]), i + 1
            what = f"{what} as a tick count like 2t"
        elif kind == _NUM:
            if w[:1].isdigit() and w[-1] != "t":
                return float(w), i + 1
        elif kind == _CHOICE:
            if w in what:
                return what[w], i + 1
            what = _alternatives(what)
        elif kind == _FORM:
            return self.form(what, i)
        elif kind == _NAME:
            return (_unquote(w), i + 1) if w[:1] == '"' else ("", i)
        elif w == kind:
            return None, i + 1
        raise self.expected(i, what)

    def idlist(self, i: int, what: str) -> tuple[list[int], int]:
        words = self.words
        if words[i] != "[":
            raise self.expected(i, f"'[' opening the {what} list")
        refs: list[int] = []
        i += 1
        if words[i] == "]":
            return refs, i + 1
        refs.append(self.ident(i, what))
        i += 1
        while words[i] == ",":
            refs.append(self.ident(i + 1, what))
            i += 2
        if words[i] != "]":
            raise self.expected(i, f"']' closing the {what} list")
        return refs, i + 1

    def form(self, what, i: int) -> tuple[object, int]:
        """A sub-form: its items, after the keyword that picks them if any.

        The value is ``build(*values)`` over the items that are not literal
        words; without ``build`` it is those values, or the only one.
        """
        at = i
        if isinstance(what, dict):
            if self.words[i] not in what:
                raise self.expected(i, _alternatives(what))
            items, build = what[self.words[i]]
            i += 1
        else:
            items, build = what, None
        values = []
        for kind, item_what in items:
            v, i = self.value(kind, item_what, i)
            if v is not None:
                values.append(v)
        if build is None:
            return values[0] if len(values) == 1 else tuple(values), i
        try:
            return build(*values), i
        except FmafError as e:
            raise _err(self.span(at), str(e)) from None

    # -- grammar

    def parse_sos(self) -> None:
        words = self.words
        if words[0] != "sos":
            raise self.expected(0, "'sos'")
        self.ident(1, "model name")
        if words[2] != "{":
            raise self.expected(2, "'{' opening the sos block")
        i = 3
        while (w := words[i]) != "}":
            if w in _BLOCKS:
                i = self.block(w, i)
            elif w[:1].isalpha():
                raise self.expected(i, "one of " + ", ".join(f"'{k}'" for k in _BLOCKS))
            else:
                raise self.expected(i, "a declaration keyword or '}'")
        if words[i + 1]:
            raise _err(
                self.span(i + 1), f"trailing content after sos block: {_describe(words[i + 1])}"
            )

    def block(self, kw: str, i: int) -> int:
        """Read the declaration at word ``i`` into a record; the index after it."""
        words = self.words
        spec = _BLOCKS[kw]
        fields = _FIELDS[kw]
        rec: dict = {}
        i += 1
        for key, kind, what in spec.header:
            value, i = self.value(kind, what, i)
            if key is not None:
                rec[key] = value
        ident = rec["ident"]  # the word after the keyword
        name = f"{kw} {words[ident]}"
        if not spec.body:
            f = fields.get(words[i])
            if f is not None:
                i = self.field(rec, f, i, name)
        elif spec.body == "{" or words[i] == "{":
            if words[i] != "{":
                raise self.expected(i, f"'{{' opening the {kw} block")
            i += 1
            if kw == "process":
                i = self.process(rec, i, name)
            else:
                while (w := words[i]) != "}":
                    f = fields.get(w)
                    if f is None:
                        raise self.stray(kw, i, name)
                    i = self.field(rec, f, i, name)
            i += 1
        for key, default in _DEFAULTS[kw].items():
            if default is not _REQUIRED:
                rec.setdefault(key, default)
            elif not rec.get(key):
                self.error(ident, spec.missing.format(name, key))
                self.left_out.add(ident)
        self.recs[kw].append(rec)
        return i

    def stray(self, kw: str, i: int, name: str) -> _Abort:
        """The error for word ``i``, which starts no field of block ``kw``."""
        spec = _BLOCKS[kw]
        if spec.nonword and not self.words[i][:1].isalpha():
            return self.expected(i, spec.nonword)
        keywords = [f.keyword for f in spec.fields]
        if kw == "process":
            listing = "an activity kind, " + _alternatives(keywords + ["edge", "}"])
        else:
            listing = _alternatives(keywords + ["}"])
        return self.expected(i, f"{listing} in {name}")

    def field(self, rec: dict, f: _Field, i: int, name: str) -> int:
        """Read field ``f`` at word ``i`` into ``rec``; a repeat keeps the first."""
        if f.kind == _FLAG:
            rec[f.key] = True
            return i + 1
        value, j = self.value(f.kind, f.what, i + 1)
        if f.repeated:
            rec.setdefault(f.key, []).append(value)
        elif f.key in rec:
            self.error(i, f"repeated '{f.key}' in {name}")
        else:
            rec[f.key] = value
        return j

    def process(self, rec: dict, i: int, name: str) -> int:
        """A process body up to its '}': activities and edges on a path of their own.

        An activity is ``(id, kind, name, duration, channel, bound)`` and an
        edge ``(src, dst, guard)``, ids and channel as word indices.
        """
        words = self.words
        nodes: list[tuple] = []
        edges: list[tuple] = []
        rec["nodes"] = nodes
        rec["edges"] = edges
        while True:
            w = words[i]
            if w == "edge":
                if not words[i + 1][:1].isalpha():
                    raise self.expected(i + 1, "edge source activity")
                if words[i + 2] != "->":
                    raise self.expected(i + 2, "'->' between the edge endpoints")
                if not words[i + 3][:1].isalpha():
                    raise self.expected(i + 3, "edge target activity")
                src = i + 1
                i += 4
                guard = None
                if words[i] == "when":
                    if words[i + 1][:1] != '"':
                        raise self.expected(i + 1, "the guard label")
                    guard = _unquote(words[i + 1])
                    i += 2
                edges.append((src, src + 2, guard))
            elif w in _NODE_KINDS:
                kind = _NODE_KINDS[w]
                if not words[i + 1][:1].isalpha():
                    raise self.expected(i + 1, "activity id")
                ident = i + 1
                i += 2
                label = ""
                if words[i][:1] == '"':
                    label = _unquote(words[i])
                    i += 1
                channel = None
                duration = 0
                bound = None
                if kind in _MESSAGING:
                    if words[i] != "on":
                        raise self.expected(i, "'on'")
                    if not words[i + 1][:1].isalpha():
                        raise self.expected(i + 1, "connection id")
                    channel = i + 1
                    i += 2
                if kind is ActivityKind.TIMER:
                    w = words[i]
                    if not (w[:1].isdigit() and w[-1] == "t"):
                        raise self.expected(i, "the timer bound as a tick count like 2t")
                    bound = int(w[:-1])
                    i += 1
                elif kind is ActivityKind.ACTION or channel is not None:
                    w = words[i]
                    if w[:1].isdigit() and w[-1] == "t":
                        duration = int(w[:-1])
                        i += 1
                nodes.append((ident, kind, label, duration, channel, bound))
            elif w == "}":
                return i
            else:
                f = _FIELDS["process"].get(w)
                if f is None:
                    raise self.stray("process", i, name)
                i = self.field(rec, f, i, name)

    # -- semantic analysis and assembly

    def check_duplicates(self) -> None:
        """Report each id declared again in its namespace; each declaration
        after the first is left out, each activity after the first kept."""
        words = self.words
        recs = self.recs

        def scan(refs, what: str) -> list[int]:
            first: dict[str, int] = {}
            again = []
            for ref in refs:
                text = words[ref]
                if text in first:
                    self.error(
                        ref,
                        f"duplicate {what} id {text!r} "
                        f"(first declared at {self.span(first[text])})",
                    )
                    again.append(ref)
                else:
                    first[text] = ref
            return again

        left_out = self.left_out
        left_out.update(scan([r["ident"] for kw in ("cs", "env") for r in recs[kw]], "element"))
        for kw in ("connection", "fault", "chain", "process", "activation", "detection",
                   "recovery", "metric"):
            what = "threat node" if kw == "fault" else kw
            left_out.update(scan([r["ident"] for r in recs[kw]], what))
        for proc in recs["process"]:
            scan(
                [n[0] for n in proc["nodes"]],
                f"activity (in process {words[proc['ident']]!r})",
            )

    def word_of(self, kw: str, rec: dict, field: str | None, ref: str | None) -> int:
        """The word of block ``kw``'s record ``rec`` that gives ``ref`` in the
        model field ``field``, or else the record's id."""
        columns = _COLUMNS[kw]
        value = rec.get(columns[field][0] if field in columns else field)
        if field == "nodes":
            value = [n[4] for n in value]  # the channels
        elif field == "condition":
            value = value[1]  # a timeout's watched element
        for i in _indices(value):
            w = self.words[i]
            if (_unquote(w) if w[:1] == '"' else w) == ref:
                return i
        return rec["ident"]

    def assemble(self) -> ParseResult:
        """The model of the declarations, or every diagnostic against them.

        A declaration left out or not built has a diagnostic of its own, so
        references to what it declares get none.  Each declaration is built
        from its record: a block's own code gives the model fields that its
        table cannot state, or None after reporting what a model cannot
        hold, and the table fills the rest by value kind.
        """
        words = self.words

        def build(kw: str, r: dict, own):
            values = {} if own is None else own(r)
            if values is None:
                return None
            for attr, (key, kind) in _COLUMNS[kw].items():
                if attr in values:
                    continue
                value = r[key]
                if kind == _ID:
                    value = None if value is None else words[value]
                elif kind == _IDS:
                    value = frozenset(map(words.__getitem__, value))
                elif kind == _STR:
                    value = _unquote(words[value])
                values[attr] = value
            return _BLOCKS[kw].cls(**values)

        def threat(r):
            return {"kind": ThreatKind(words[r["ident"] - 1])}  # the declaration keyword

        def chain(r):
            return {"detectors": tuple(map(words.__getitem__, r["detectors"]))}  # kept in order

        def connection(r):
            return {"interface_id": words[r["ident"]]} if r["interface"] is None else {}

        def process(r):
            return {
                "nodes": {
                    words[n]: _activity(
                        words[n], kind, label, duration, channel and words[channel], bound
                    )
                    for n, kind, label, duration, channel, bound in r["nodes"]
                },
                "edges": tuple(_edge(words[s], words[d], guard) for s, d, guard in r["edges"]),
            }

        def activation(r):
            trigger = r["trigger"]
            return {"trigger": OnEntry(words[trigger])} if type(trigger) is int else {}

        def detection(r):
            condition = r["condition"]
            if type(condition) is not tuple:
                return {}
            return {"condition": Timeout(condition[0], words[condition[1]])}

        def recovery(r):
            # A model maps each constituent to one graph, so only the parser
            # can see a second one.
            ident = words[r["ident"]]
            graphs: dict[str, str] = {}
            for c, g in r["graph"]:
                if words[c] in graphs:
                    self.error(
                        c, f"recovery {ident!r} gives constituent {words[c]!r} more than one graph"
                    )
                graphs[words[c]] = words[g]
            return {"graphs": graphs} if len(graphs) == len(r["graph"]) else None

        def metric(r):
            measure = r["elapsed or count"]
            if type(measure) is tuple:
                a, b = measure
                return {"kind": ElapsedBetween(_unquote(words[a]), _unquote(words[b]))}
            return {"kind": Count(_unquote(words[measure]))}

        parts = {}
        records = {}  # (collection, id) -> the block and record of what was built
        # (category, id) of each reference target declared but not built:
        # references to it are not reported again.
        unbuilt: set[tuple[str, str]] = set()
        # Each block: the model collection it fills, the code for what its
        # table cannot state, and the reference categories under which its
        # declarations are named.
        for kw, collection, own, targets in (
            ("cs", "constituents", None, ("element", "constituent", "event label")),
            ("env", "environment", None, ("element", "event label")),
            ("connection", "connections", connection, ("connection", "event label")),
            ("fault", "threat_nodes", threat, ("threat node", "event label")),
            ("chain", "chains", chain, ("threat chain", "event label")),
            ("process", "processes", process, ("activity graph",)),
            ("activation", "activations", activation, ()),
            ("detection", "detections", detection, ()),
            ("recovery", "recoveries", recovery, ("recovery",)),
            ("metric", "metrics", metric, ()),
        ):
            made = {}
            for r in self.recs[kw]:
                value = None
                if r["ident"] not in self.left_out:
                    try:
                        value = build(kw, r, own)
                    except FmafError as e:
                        self.error(r["ident"], str(e))
                if value is not None:
                    made[value.id] = value
                    records[collection, value.id] = kw, r
                    continue
                unbuilt.update((category, words[r["ident"]]) for category in targets)
                if kw == "process":
                    names = [words[n[0]] for n in r["nodes"]]
                    unbuilt.update((c, a) for a in names for c in ("activity", "event label"))
            parts[collection] = made

        model = SosModel(words[1], **parts)
        for error, collection, ident, field, ref in _problems(model):
            if isinstance(error, RecursionError):
                raise error
            message = str(error)
            if isinstance(error, DanglingReferenceError):
                category = error.category
                # The activities a graph names are its own, always built.
                local = collection == "processes" and category == "activity"
                if not local and (category, error.ref) in unbuilt:
                    continue
                if category == "event label":
                    message = _QUALIFIER.format(error.ref)
                else:
                    message = f"unknown {_CATEGORY_WORDS.get(category, category)} {error.ref!r}"
            self.error(self.word_of(*records[collection, ident], field, ref), message)
        if self.diags:
            # The resolver meets problems in model order: list them in source
            # order, each once.
            diags = sorted(dict.fromkeys(self.diags), key=lambda d: (d.span.line, d.span.col))
            return ParseResult(None, tuple(diags))
        object.__setattr__(model, "_checked", True)
        return ParseResult(model, ())


def _indices(value) -> list[int]:
    """The word indices in a record value: an index, or lists and tuples of them."""
    if type(value) is int:
        return [value]
    if type(value) in (list, tuple):
        return [i for v in value for i in _indices(v)]
    return []


def parse(text: str) -> ParseResult:
    """Parse model source text.

    Returns a :class:`ParseResult`; syntax errors abort at the first
    offence, semantic problems (duplicate ids, unresolved references,
    malformed graphs) are collected together with their source positions,
    in source order.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    words = _words(text)
    if words is None:
        try:
            _positions(text)  # finds the word that only the catch-all took, and says why
        except _Abort as a:
            return ParseResult(None, (a.diagnostic,))
    parser = _Parser(text, words)
    try:
        parser.parse_sos()
    except _Abort as a:
        parser.diags.append(a.diagnostic)
        return ParseResult(None, tuple(parser.diags))
    parser.check_duplicates()
    return parser.assemble()


def parse_file(path: str | Path) -> ParseResult:
    return parse(Path(path).read_text(encoding="utf-8-sig"))


# ---------------------------------------------------------------------------
# Serializer


_QUOTES = [(char, "\\" + letter) for letter, char in _ESCAPES.items()]


def _quote(s: str) -> str:
    for char, escaped in _QUOTES:
        s = s.replace(char, escaped)
    return f'"{s}"'


def _num(x: float) -> str:
    # The grammar has no exponent form, so a repr that uses one is written
    # out as the same decimal in positional digits.  Only reliabilities and
    # probabilities come here, and the model keeps them in [0, 1], where
    # such a repr is below 1e-4 and its positional form has a point.
    s = repr(x)
    if "e" in s:
        from decimal import Decimal  # here, so that most processes never load it

        s = format(Decimal(s), "f")
    return s


def _idlist_text(ids) -> str:
    return "[" + ", ".join(ids) + "]"


def _named(header: str, name: str) -> str:
    return f"{header} {_quote(name)}" if name else header


def serialize(model: SosModel) -> str:
    """Canonical text for a model; ``parse`` reads it back to an equal value."""
    lines = [f"sos {model.name} {{"]

    def put(header: str, fields: list[str]) -> None:
        """A declaration, with its fields in braces if it has any."""
        if fields:
            lines.append(f"  {header} {{")
            lines.extend(f"    {f}" for f in fields)
            lines.append("  }")
        else:
            lines.append(f"  {header}")

    for cs in model.constituents.values():
        fields = [f"nominal {cs.nominal_process}"]
        if cs.provided_interfaces:
            fields.append(f"provides {_idlist_text(sorted(cs.provided_interfaces))}")
        if cs.required_interfaces:
            fields.append(f"requires {_idlist_text(sorted(cs.required_interfaces))}")
        put(_named(f"cs {cs.id}", cs.name), fields)
    for env in model.environment.values():
        fields = []
        if env.connections_used:
            fields.append(f"uses {_idlist_text(sorted(env.connections_used))}")
        put(_named(f"env {env.id}", env.name), fields)
    for conn in model.connections.values():
        fields = []
        if conn.interface_id != conn.id:
            fields.append(f"interface {conn.interface_id}")
        if conn.kind is not ConnectionKind.NOMINAL:
            fields.append("kind recovery_only")
        if conn.latency != 1:
            fields.append(f"latency {conn.latency}t")
        if conn.reliability != 1.0:
            fields.append(f"reliability {_num(conn.reliability)}")
        put(f"connection {conn.id}: {conn.provider} <-> {conn.consumer}", fields)
    for want in (ThreatKind.FAULT, ThreatKind.ERROR, ThreatKind.FAILURE):
        for node in model.threat_nodes.values():
            if node.kind is not want:
                continue
            line = f"{node.kind.value} {node.id} {_quote(node.description)}"
            if node.category:
                line += f" category {node.category}"
            put(line, [])
    for chain in model.chains.values():
        fields = [
            f"fault {chain.fault}",
            f"error {chain.error}",
            f"failure {chain.failure}",
            f"origin {chain.origin}",
        ]
        if chain.detectors:
            fields.append(f"detectors {_idlist_text(chain.detectors)}")
        if chain.failure_observation is not FailureObservation.SOS_BOUNDARY:
            fields.append("observed internal")
        if chain.unrecoverable:
            fields.append("unrecoverable")
        put(f"chain {chain.id}", fields)
    for proc in model.processes.values():
        fields = [f"entry {proc.entry}", f"exits {_idlist_text(sorted(proc.exits))}"]
        for node in proc.nodes.values():
            line = _named(f"{node.kind.value} {node.id}", node.name)
            if node.kind in _MESSAGING:
                line += f" on {node.channel}"
                if node.duration:
                    line += f" {node.duration}t"
            elif node.kind is ActivityKind.TIMER:
                line += f" {node.timer_bound}t"
            elif node.kind is ActivityKind.ACTION and node.duration:
                line += f" {node.duration}t"
            fields.append(line)
        for edge in proc.edges:
            line = f"edge {edge.src} -> {edge.dst}"
            if edge.guard is not None:
                line += f" when {_quote(edge.guard)}"
            fields.append(line)
        put(f"process {proc.id} owner {proc.owner}", fields)
    for act in model.activations.values():
        trig = act.trigger
        if isinstance(trig, AtTime):
            trigger = f"at_time {trig.time}t"
        elif isinstance(trig, OnEntry):
            trigger = f"on_entry {trig.activity}"
        else:
            trigger = f"probabilistic {_num(trig.probability)}"
        fields = [
            f"chain {act.threat}",
            f"origin {act.origin_constituent}",
            f"region {_idlist_text(sorted(act.region))}",
            f"trigger {trigger}",
        ]
        put(f"activation {act.id}", fields)
    for det in model.detections.values():
        cond = det.condition
        if isinstance(cond, SelfReport):
            condition = f"self_report {cond.delay}t"
        elif isinstance(cond, Timeout):
            condition = f"timeout {cond.bound}t watching {cond.watched}"
        else:
            condition = f"third_party {_num(cond.probability)} {cond.delay}t"
        fields = [f"chain {det.threat}", f"detector {det.detector}", f"condition {condition}"]
        if det.style is not DetectionStyle.SEPARATE_REGION:
            fields.append("style shared")
        fields.append(f"recovery {det.recovery}")
        put(f"detection {det.id}", fields)
    for recv in model.recoveries.values():
        fields = [f"graph {cs_id} {graph_id}" for cs_id, graph_id in recv.graphs.items()]
        if recv.success_exits:
            fields.append(f"success {_idlist_text(sorted(recv.success_exits))}")
        if recv.abort_exits:
            fields.append(f"abort {_idlist_text(sorted(recv.abort_exits))}")
        put(_named(f"recovery {recv.id}", recv.name), fields)
    for metric in model.metrics.values():
        kind = metric.kind
        if isinstance(kind, ElapsedBetween):
            fields = [f"elapsed {_quote(kind.a)} -> {_quote(kind.b)}"]
        else:
            fields = [f"count {_quote(kind.pattern)}"]
        if metric.target is not None:
            fields.append(f"target {metric.target}t")
        put(_named(f"metric {metric.id}", metric.name), fields)

    if len(lines) == 1:
        return f"sos {model.name} {{ }}\n"
    lines.append("}")
    return "\n".join(lines) + "\n"
