"""``docs/grammar.md``'s lexical rules and field reference against the parser's tables."""

from __future__ import annotations

import re
from pathlib import Path

from fmaf import dsl

GRAMMAR = Path(__file__).resolve().parent.parent / "docs" / "grammar.md"


def documented() -> list[tuple]:
    """(block, field, value, count, required) per row of the field reference."""
    text = GRAMMAR.read_text(encoding="utf-8")
    table = text.split("## Field reference", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 5 or cells[0] in ("Block", "---"):
            continue
        blocks, field, value, count, default = cells
        for block in re.findall(r"`([^`]+)`", blocks):
            rows.append((block, field.strip("`"), value, count, default.startswith("required")))
    return rows


def tabled() -> list[tuple]:
    """The same rows built from ``dsl._BLOCKS``."""
    rows = []
    for block, spec in dsl._BLOCKS.items():
        for f in spec.fields:
            value = f.kind
            if isinstance(f.what, dict):
                value += ": " + ", ".join(f"`{k}`" for k in f.what)
            count = "repeated" if f.repeated else "single"
            rows.append((block, f.keyword, value, count, f.default == dsl._REQUIRED))
    return rows


def test_field_reference_matches_the_block_tables():
    assert documented() == tabled()



def test_escape_list_matches_the_escape_table():
    text = GRAMMAR.read_text(encoding="utf-8")
    rule = text.split("- **Strings**", 1)[1].split("\n- ", 1)[0]
    assert re.findall(r"`(\\.)`", rule) == ["\\" + letter for letter in dsl._ESCAPES]
