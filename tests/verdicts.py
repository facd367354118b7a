"""Dump the solver's verdicts on the benchmark's solve ops, or diff two dumps.

    python tests/verdicts.py [--src DIR] > verdicts.txt
    python tests/verdicts.py --diff OLD.txt NEW.txt

A dump has one line per solve op: the differential, rewrite and arith
workloads at seeds 1-3, in the order a benchmark pass runs them, then the
Boolean sample (300 ``random_boolean_formula`` draws at depth 6, seed 7).
Each line names the op and gives its verdict kind, then the reason of an
``Unsupported`` or the model of a ``Sat``.  ``--src`` puts another
checkout's package first on the import path, so two versions can be
compared on the same inputs: the generators always come from this
checkout's ``perfbench/`` and ``tests/helpers.py``, which are only read.
``--diff`` prints every line that differs and exits 0 either way.

The file is not a test (pytest does not collect it); tier-1 covers the
same verdicts through the benchmark's checks and the tests' own draws.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
WORKLOADS = ("differential", "rewrite", "arith")
BOOLEAN = (7, 6, 300)  # seed, depth, count


def _line(name: str, verdict) -> str:
    kind = type(verdict).__name__
    if hasattr(verdict, "reason"):
        return f"{name}\t{kind}\t{verdict.reason}"
    if hasattr(verdict, "strings"):
        return f"{name}\t{kind}\t{sorted(verdict.strings.items())} {sorted(verdict.ints.items())}"
    return f"{name}\t{kind}"


def dump(src: Path) -> None:
    sys.path[:0] = [str(src), str(ROOT / "perfbench"), str(ROOT / "tests")]
    import wordeq
    import workloads
    from helpers import random_boolean_formula

    for workload in WORKLOADS:
        for seed in SEEDS:
            for i, item in enumerate(workloads.build(workload, seed)):
                for kind, op in item.ops:
                    if kind == "solve":
                        print(_line(f"{workload} {seed} {i} {item.label}", op()[1]))
    seed, depth, count = BOOLEAN
    rng = random.Random(seed)
    for i in range(count):
        phi = random_boolean_formula(rng, depth)
        print(_line(f"boolean {seed} {i}", wordeq.check_sat(phi, "ab")))


def diff(old: Path, new: Path) -> None:
    a = old.read_text().splitlines()
    b = new.read_text().splitlines()
    if len(a) != len(b):
        print(f"{len(a)} ops in {old}, {len(b)} in {new}")
    changed = 0
    for x, y in zip(a, b):
        if x != y:
            changed += 1
            print(f"- {x}\n+ {y}")
    print(f"{changed} of {min(len(a), len(b))} ops changed")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the package to run")
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.diff:
        diff(*args.diff)
    else:
        dump(args.src.resolve())


if __name__ == "__main__":
    main()
