"""The README's Limits table against the constants it documents."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# a table row whose first cell names a constant: | `module.NAME` | value |
ROW = re.compile(r"^\| `(\w+)\.([A-Z][A-Z0-9_]*)` \| ([\d ]+) \|", re.M)


def test_limits_table_matches_the_constants():
    text = README.read_text(encoding="utf-8")
    limits = text[text.index("## Limits") :]
    limits = limits[: limits.index("\n## ")]
    rows = ROW.findall(limits)
    assert len(rows) >= 4, rows
    for module, name, value in rows:
        constant = getattr(importlib.import_module(f"wordeq.{module}"), name, None)
        assert constant is not None, f"{module}.{name} is not in src/wordeq"
        assert constant == int(value.replace(" ", "")), (module, name, value)
