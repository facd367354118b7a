"""List the statements of ``src/wordeq`` that the tier-1 tests never run.

    python tests/uncovered.py > uncovered.txt
    python tests/uncovered.py --diff OLD.txt NEW.txt

It runs the tier-1 suite in this process under ``sys.settrace``, with
``test_criterion_2_oracle_differential`` deselected (it is most of the
suite's time, and slower still traced), then prints, per file, each
statement that never ran: its first line number and its first line.  It
needs only the standard library and pytest, and exits with pytest's
code.

A simple statement counts as run when any of its lines ran, and a
compound one when any line of its header ran (from its first decorator
to the line before its body).  Docstrings and other lone constants,
``global`` and ``nonlocal`` make no code, so they are not listed.  The
package is imported under the trace, so its module-level statements
count; code that the tests run in a subprocess does not.

``--diff`` reads two such listings, say of a merge base and of a change,
and prints each statement that the second lists and the first does not.
Statements are matched by file and text, since line numbers shift; a
text listed twice in one file counts twice.

The file is not a test (pytest does not collect it).
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wordeq"
DESELECT = "tests/test_acceptance.py::test_criterion_2_oracle_differential"


def statements(source: str) -> list[tuple[int, set[int]]]:
    """Each statement's first line and the lines that count as running it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:  # a compound statement: its header
            last = max(first, body[0].lineno - 1)
        else:
            last = node.end_lineno or node.lineno
        out.append((first, set(range(first, last + 1))))
    return sorted(out)


def trace_tests() -> tuple[int, dict[str, set[int]]]:
    """Run the tests under the trace: pytest's exit code, and the lines
    that ran in each file of the package."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    # as the tier-1 command sets it, for the tests that start a subprocess
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, src)
    sys.settrace(on_call)
    try:
        code = pytest.main(
            [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", "--deselect", DESELECT]
        )
    finally:
        sys.settrace(None)
    return int(code), ran


def listed(path: Path) -> list[tuple[str, str, str]]:
    """The (file, first line, text) of each statement a listing names."""
    out = []
    file = None
    for line in path.read_text().splitlines():
        if line.startswith("src/") and line.endswith(" never ran"):
            file = line.split(":")[0]
        elif file and line.startswith("  ") and line.split(maxsplit=1)[0].isdigit():
            first, text = line.split(maxsplit=1)
            out.append((file, first, text))
    return out


def diff(old: Path, new: Path) -> int:
    """Print each statement listed in ``new`` and not in ``old``."""
    left = Counter((file, text) for file, _, text in listed(old))
    added = []
    for file, first, text in listed(new):
        if left[file, text]:
            left[file, text] -= 1
        else:
            added.append(f"{file}:{first}  {text}")
    print(f"{len(added)} statements listed in {new} and not in {old}")
    for line in added:
        print(f"  {line}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.diff:
        return diff(*args.diff)
    code, ran = trace_tests()
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        seen = ran.get(str(path), set())
        missed = [first for first, counts in statements(source) if not counts & seen]
        total += len(missed)
        if missed:
            print(f"\n{path.relative_to(ROOT)}: {len(missed)} never ran")
            for first in missed:
                print(f"  {first:4d}  {lines[first - 1].strip()}")
    print(f"\n{total} statements under {PACKAGE.relative_to(ROOT)} never ran")
    return code


if __name__ == "__main__":
    sys.exit(main())
