"""Report the work units the benchmark's ops draw from their budgets.

    python tests/draws.py [--src DIR]

Every ``Budget`` that ``wordeq.solver`` or ``wordeq.twocounter`` makes is
recorded, one per ``check_sat`` call or counterexample search, and an
op's draw is what its budgets spent.  One line per workload gives its op
count, the largest draw of one op (with that op's name) and the total:
the solve ops of the differential, rewrite and arith workloads at seeds
1-3, in the order a benchmark pass runs them, then the reduction ops of
seed 1.  A last line gives the compile draw of the largest encodable
machine (60 stuck states on a one-letter input, as in
``test_the_largest_machines_compile_within_the_budget``).  A budget that
ran out counts what it spent before the draw that failed.  ``--src`` puts another checkout's package first on the
import path, so two versions can be compared on the same inputs; the
generators always come from this checkout's ``perfbench/``, which is
only read.

The file is not a test (pytest does not collect it).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# (workload, op kind, seeds)
OPS = (
    ("differential", "solve", (1, 2, 3)),
    ("rewrite", "solve", (1, 2, 3)),
    ("arith", "solve", (1, 2, 3)),
    ("reduction", "reduction", (1,)),
)


def report(src: Path) -> None:
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import wordeq.solver
    import wordeq.twocounter
    import workloads
    from wordeq.errors import Budget

    made: list[Budget] = []

    class Recorded(Budget):
        def __init__(self, size: int | None = None) -> None:
            super().__init__(size)
            self.size = self.left
            made.append(self)

    wordeq.solver.Budget = wordeq.twocounter.Budget = Recorded
    for workload, kind, seeds in OPS:
        draws: list[tuple[int, str]] = []
        for seed in seeds:
            for i, item in enumerate(workloads.build(workload, seed)):
                for op_kind, op in item.ops:
                    if op_kind == kind:
                        made.clear()
                        op()
                        spent = sum(b.size - b.left for b in made)
                        draws.append((spent, f"{workload} {seed} {i} {item.label}"))
        largest, name = max(draws)
        total = sum(n for n, _ in draws)
        print(f"{workload}\t{len(draws)} {kind} ops\tlargest {largest} ({name})\ttotal {total}")
    states = tuple(f"q{i}" for i in range(60))
    machine = wordeq.twocounter.TwoCounterMachine(states, ("0",), "q0", frozenset({"q1"}), ())
    budget = Recorded()
    wordeq.twocounter._compiled_body(wordeq.twocounter.encode(machine, ("0",)), budget)
    print(f"compile\t60-state stuck machine\tdrew {budget.size - budget.left}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the package to run")
    report(ap.parse_args().src.resolve())


if __name__ == "__main__":
    main()
