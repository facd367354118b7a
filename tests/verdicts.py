"""Dump the solver's verdicts on the benchmark's solve ops, or diff two dumps.

    python tests/verdicts.py [--src DIR] > verdicts.txt
    python tests/verdicts.py --diff OLD.txt NEW.txt

A dump has one line per solve op: the differential, rewrite and arith
workloads at seeds 1-3, in the order a benchmark pass runs them, then the
Boolean sample (300 ``random_boolean_formula`` draws at depth 6, seed 7)
and the resumed sample (200 ``random_resumed_formula`` draws at each of
seeds 1-10, whose choices resume rewriting under forms of their parent).
Each line names the op and gives its verdict kind, then the reason of an
``Unsupported`` or the model of a ``Sat``.  A solve op's line ends with
the CRC-32 (eight hex digits) of the ``repr`` of the formula the op
parsed, so a change in what the problem reader builds shows as a changed
line even where the verdict stays.  Then one line per reduction
op of seed 1 and per test machine of ``tests/helpers.py`` positivized
at bound 8: its counterexample list, or that its work budget ran out.
``--src`` puts another checkout's package first on the import path, so
two versions can be compared on the same inputs: the generators and the
machines always come from this checkout's ``perfbench/`` and
``tests/helpers.py``, which are only read.  ``--diff`` prints every line
that differs, how many changed and how many of those changed kind, then
one line per change of kind with its count (such as ``Unsupported →
Sat: 3``; a reduction line's kind is ``found`` or ``ran out``).  It
exits 1 when either dump is empty or the two differ in length, as when
a run crashed, and 0 otherwise.

The file is not a test (pytest does not collect it); tier-1 covers the
same verdicts through the benchmark's checks and the tests' own draws.
"""

from __future__ import annotations

import argparse
import random
import sys
import zlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
WORKLOADS = ("differential", "rewrite", "arith")
BOOLEAN = (7, 6, 300)  # seed, depth, count
RESUMED = (range(1, 11), 200)  # seeds, count per seed
MACHINE_BOUND = 8


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
    from helpers import (
        random_boolean_formula,
        random_resumed_formula,
        twocounter_machine,
        updown_machine,
    )

    for workload in WORKLOADS:
        for seed in SEEDS:
            for i, item in enumerate(workloads.build(workload, seed)):
                for kind, op in item.ops:
                    if kind == "solve":
                        phi, verdict = op()
                        line = _line(f"{workload} {seed} {i} {item.label}", verdict)
                        print(f"{line}\t{zlib.crc32(repr(phi).encode()):08x}")
    seed, depth, count = BOOLEAN
    rng = random.Random(seed)
    for i in range(count):
        phi = random_boolean_formula(rng, depth)
        print(_line(f"boolean {seed} {i}", wordeq.check_sat(phi, "ab")))
    seeds, count = RESUMED
    for seed in seeds:
        rng = random.Random(seed)
        for i in range(count):
            phi = random_resumed_formula(rng)
            print(_line(f"resumed {seed} {i}", wordeq.check_sat(phi, "ab")))
    seed = SEEDS[0]
    for i, item in enumerate(workloads.build("reduction", seed)):
        for _, op in item.ops:
            out = op()  # the op returns workloads.Exhausted when it runs out
            found = out if isinstance(out, list) else "ran out"
            print(f"reduction {seed} {i} {item.label}\t{found}")
    for machine in (updown_machine, twocounter_machine):
        m, w, _ = machine()
        sentence = wordeq.positivize(wordeq.encode(m, w))
        try:
            found = wordeq.enumerate_counterexamples(sentence, MACHINE_BOUND)
        except wordeq.ResourceExhausted as e:
            found = e
        print(f"{machine.__name__} {MACHINE_BOUND}\t{found}")


def _kind(line: str) -> str:
    """A verdict line's kind; a reduction line's ``found`` or ``ran out``."""
    field = line.partition("\t")[2].split("\t")[0]
    if field in ("Sat", "Unsat", "Unsupported"):
        return field
    return "found" if field.startswith("[") else "ran out"


def diff(old: Path, new: Path) -> int:
    """Print the lines that differ and the count of each change of kind;
    1 when a dump is empty or the two differ in length, else 0."""
    a = old.read_text().splitlines()
    b = new.read_text().splitlines()
    changed = 0
    moves: Counter[tuple[str, str]] = Counter()
    for x, y in zip(a, b):
        if x != y:
            changed += 1
            if _kind(x) != _kind(y):
                moves[_kind(x), _kind(y)] += 1
            print(f"- {x}\n+ {y}")
    print(f"{changed} of {min(len(a), len(b))} ops changed, {sum(moves.values())} in kind")
    for (x, y), n in sorted(moves.items()):
        print(f"{x} → {y}: {n}")
    if not a or len(a) != len(b):
        print(f"{len(a)} ops in {old}, {len(b)} in {new}: a dump is empty or cut short")
        return 1
    return 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the package to run")
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.diff:
        sys.exit(diff(*args.diff))
    else:
        dump(args.src.resolve())


if __name__ == "__main__":
    main()
