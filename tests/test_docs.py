"""The README's Limits section against the constants it documents."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# a table row whose first cell names a constant: | `module.NAME` | value |
ROW = re.compile(r"^\| `(\w+)\.([A-Z][A-Z0-9_]*)` \| ([\d ]+) \|", re.M)
# a constant named in the prose with its value: `module.NAME` (value)
MENTION = re.compile(r"`(\w+)\.([A-Z][A-Z0-9_]*)`\s+\((\d[\d ]*)\)")


def _limits() -> str:
    text = README.read_text(encoding="utf-8")
    limits = text[text.index("## Limits") :]
    return limits[: limits.index("\n## ")]


def _check(found: list[tuple[str, str, str]]) -> None:
    for module, name, value in found:
        constant = getattr(importlib.import_module(f"wordeq.{module}"), name, None)
        assert constant is not None, f"{module}.{name} is not in src/wordeq"
        assert constant == int(value.replace(" ", "")), (module, name, value)


def test_limits_table_matches_the_constants():
    rows = ROW.findall(_limits())
    assert len(rows) >= 2, rows
    _check(rows)


def test_limits_prose_matches_the_constants():
    mentions = MENTION.findall(_limits())
    assert mentions, "no constant is named with its value"
    _check(mentions)
