"""The front end's lexer against the character-loop reference.

``dsl._words`` is what ``parse`` reads: one ``findall`` of the token
regex gives every word, a token's source text, and a catch-all
alternative makes a text that does not lex end the list in ``""``.
``dsl._positions`` runs the same regex with ``finditer`` only when a
diagnostic needs a position: it gives each word's line and column and
then the end's, or raises the diagnostic of the word that only the
catch-all took.  ``reference_lex`` below is the character-by-character
lexer the regex replaced, with one correction: a decimal number that runs
into an identifier character (``0.9x``) is a malformed number, as an
integer one always was.  ``_words`` with ``_positions`` must give the
reference's token texts at the reference's positions, or fail with the
reference's diagnostic, which ``parse`` must report too.
"""

from __future__ import annotations

import random

import pytest

from fmaf import dsl
from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.dsl import SourceSpan

from _builders import random_model

_IDENT_HEAD = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_DIGITS = set("0123456789")
_IDENT_TAIL = _IDENT_HEAD | _DIGITS | set("_.")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def reference_lex(text: str) -> list[tuple]:
    """(kind, text, value, span) per token, or raises ``dsl._Abort``."""
    err = dsl._err
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    toks: list[tuple] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = SourceSpan(line, col)
        if c == '"':
            i += 1
            col += 1
            parts: list[str] = []
            while True:
                if i >= n or text[i] == "\n":
                    raise err(span, "unterminated string literal")
                ch = text[i]
                if ch == '"':
                    i += 1
                    col += 1
                    break
                if ch == "\\":
                    if i + 1 >= n or text[i + 1] not in _ESCAPES:
                        raise err(SourceSpan(line, col), "unknown escape in string literal")
                    parts.append(_ESCAPES[text[i + 1]])
                    i += 2
                    col += 2
                    continue
                parts.append(ch)
                i += 1
                col += 1
            value = "".join(parts)
            toks.append(("string", f'"{value}"', value, span))
            continue
        if c in _IDENT_HEAD:
            j = i
            while j < n and text[j] in _IDENT_TAIL:
                j += 1
            word = text[i:j]
            toks.append(("ident", word, word, span))
            col += j - i
            i = j
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1] in _DIGITS:
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
                if j < n and text[j] in _IDENT_TAIL:
                    raise err(span, f"malformed number {text[i:j + 1]!r}...")
                word = text[i:j]
                toks.append(("number", word, float(word), span))
            elif j < n and text[j] == "t" and (j + 1 >= n or text[j + 1] not in _IDENT_TAIL):
                word = text[i:j]
                toks.append(("duration", word + "t", int(word), span))
                j += 1
            else:
                word = text[i:j]
                if j < n and text[j] in _IDENT_TAIL:
                    raise err(span, f"malformed number {text[i:j + 1]!r}...")
                toks.append(("number", word, float(word), span))
            col += j - i
            i = j
            continue
        if text.startswith("<->", i):
            toks.append(("<->", "<->", "<->", span))
            i += 3
            col += 3
            continue
        if text.startswith("->", i):
            toks.append(("->", "->", "->", span))
            i += 2
            col += 2
            continue
        if c in "{}[],:":
            toks.append((c, c, c, span))
            i += 1
            col += 1
            continue
        raise err(span, f"unexpected character {c!r}")
    toks.append(("eof", "", None, SourceSpan(line, col)))
    return toks


EDGE_CASES = [
    "",
    " \t ",
    "#",
    "# only a comment",
    "x # c",
    "\n\n  # c\n",
    '"abc',
    '"abc\ndef"',
    '"a\\qb"',
    '"a\\',
    '"a\\\nb"',
    '"tab\there" "e\\"sc\\\\aped\\n\\t"',
    '"cr\\r lf\\n"',
    '  x "ok" "bad\\x"',
    "12x 3",
    "12.",
    "12.t",
    "12.5.3",
    "0.9x",
    "0.9t",
    "0.9_",
    "0.9.1",
    "7t",
    "7tx",
    "7t.",
    "7t²",
    "1²",
    "²",
    "5 < 6",
    "a <- b",
    "a - b",
    "a <-> b -> c {}[],:",
    "café",
    "\ttab\tx é",
    "a\r\nb\rc\né",
    "a\r\r\né",
    "x\x00",
]


def lexed(text: str) -> list[tuple[str, SourceSpan]]:
    """Each word of ``text`` with its span, as ``parse`` reads the text.

    Raises the ``_Abort`` of ``_positions`` for a text that does not lex,
    after checking that ``_words`` refuses it too and ``parse`` reports it.
    """
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    words = dsl._words(text)
    try:
        spots = dsl._positions(text)
    except dsl._Abort as a:
        assert words is None, repr(text)
        assert dsl.parse(text).diagnostics == (a.diagnostic,), repr(text)
        raise
    assert words is not None and len(words) == len(spots), repr(text)
    return [(w, SourceSpan(*spot)) for w, spot in zip(words, spots)]


def outcome(tokens):
    """The (text, span) pairs ``tokens()`` gives, or the diagnostic it raises."""
    try:
        return tokens()
    except dsl._Abort as a:
        return a.diagnostic


def assert_same(text: str) -> None:
    """The words and spans of ``lexed`` against the reference's tokens.

    A reference string token's text is its value re-quoted, so a string
    word is compared through ``_unquote``.
    """
    new = outcome(
        lambda: [
            (f'"{dsl._unquote(w)}"' if w[:1] == '"' else w, span) for w, span in lexed(text)
        ]
    )
    old = outcome(lambda: [(t, span) for _, t, _, span in reference_lex(text)])
    assert new == old, repr(text)


def variants(text: str) -> list[str]:
    body = text.rstrip("\n")
    return [
        text,
        text.replace("\n", "\r\n"),
        text.replace("\n", "\r"),
        text.replace("  ", "\t"),
        "\t" + text.replace("\n", " \t\n"),
        body + "\n# trailing comment",
        body + "  # trailing comment",
        body + "#",
    ]


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_bundles_and_their_variants(name):
    for text in variants(load_bundle(name).model_file.read_text(encoding="utf-8")):
        assert_same(text)


def test_serialized_random_models():
    for seed in range(200):
        assert_same(dsl.serialize(random_model(random.Random(seed))))


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases(text):
    assert_same(text)


def test_eof_after_a_final_comment_points_at_its_hash():
    assert dsl._positions("  # note") == [(1, 3)]
    assert dsl._positions("x\n  # note\n")[-1] == (3, 1)


def assert_paths_agree(text: str) -> None:
    """Each word ``_words`` gives stands in the source at its position.

    A diagnostic finds a word's span by the word's index, so the two lists
    must line up; a text that does not lex is checked inside ``lexed``.
    """
    try:
        spanned = lexed(text)
    except dsl._Abort:
        return
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for w, span in spanned:
        assert lines[span.line - 1].startswith(w, span.col - 1), (repr(text), w, span)


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_fast_path_on_bundles_and_their_variants(name):
    for text in variants(load_bundle(name).model_file.read_text(encoding="utf-8")):
        assert_paths_agree(text)


def test_fast_path_on_serialized_random_models():
    for seed in range(300):
        assert_paths_agree(dsl.serialize(random_model(random.Random(seed))))


@pytest.mark.parametrize("text", EDGE_CASES)
def test_fast_path_edge_cases(text):
    assert_paths_agree(text)
