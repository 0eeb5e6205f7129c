"""Property tests of the front end: lexer equivalence and a parse that never raises."""

from __future__ import annotations

import pytest

from fmaf import dsl

from test_lexer import assert_paths_agree, assert_same

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Keywords, ids, string pieces and escapes, comments, digits, '.', 't',
# arrows and their halves, braces, a non-ASCII digit and letters, blanks
# and every newline convention.
_PIECES = [
    "sos", "cs", "process", "edge", "fault.radio", "F2.1a", "x_1", "t", "e",
    '"', "\\", '\\"', "\\n", "\\t", "\\r", "\\q", "#", " ", "\t", "\n", "\r", "\r\n",
    "0", "7", "12", ".", "_", "<->", "->", "<", "-", ">", "{", "}", "[", "]",
    ",", ":", "²", "٣", "é",
]


@hypothesis.settings(max_examples=250, deadline=None, database=None)
@hypothesis.given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_dsl_alphabet_lexes_like_the_reference(text):
    assert_same(text)


@hypothesis.settings(max_examples=250, deadline=None, database=None)
@hypothesis.given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_dsl_alphabet_fast_path_matches_lex(text):
    assert_paths_agree(text)


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(st.text(max_size=200))
def test_parse_of_arbitrary_text_never_raises(text):
    assert isinstance(dsl.parse(text), dsl.ParseResult)
