"""A fixed piece of pure-Python work that measures how fast the machine
runs at the moment.

The machines this benchmark was tuned on are shared, and their speed
drifts: the same ``check_sat`` call took 0.23 s in one second and 0.41 s
in the next, with CPU time equal to wall time, and the median of a 20 s
run moved by a quarter from one run to the next.  The kernel below slows
down with the machine -- it does what the package does most: builds and
hashes small frozen objects, fills dicts, sorts tuples and adds
Fractions -- but it calls nothing in the package, so no change to the
package can change it.  Timed right before and right after a group of
ops, it tells how fast the machine ran during them: over eight fresh
processes, a Frobenius solve took 0.23 s to 0.39 s, while its ratio to
a kernel of this kind stayed within 7% of its middle value.

run.py reports op times scaled by ``K_REF`` over the kernel's time next
to them: seconds at the speed at which the kernel takes ``K_REF``.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# About the kernel's time between ops in benchmark runs on the machine the
# baseline was measured on (2-vCPU VM, Python 3.11.7; 5 ms at best when run
# alone), so that scaled times read close to that machine's seconds.
K_REF = 0.009


@dataclass(frozen=True)
class _Item:
    key: int
    letter: str


def kernel() -> float:
    """Run the fixed work once; return its time in seconds.  The garbage
    collector is paused meanwhile: how long a collection takes depends on
    what the ops before left on the heap, not on the machine."""
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        gc.enable()


def _work() -> None:
    counts: dict[_Item, int] = {}
    acc = Fraction(0)
    pairs = []
    for i in range(2000):
        item = _Item(i % 101, "ab"[i % 2])
        counts[item] = counts.get(item, 0) + 1
        pairs.append((item, i))
        if i % 3 == 0:
            acc += Fraction(i % 7 + 1, i % 5 + 1)
    pairs.sort(key=lambda p: (p[0].key, p[1]))
