#!/usr/bin/env python3
"""Check that the benchmark's generator port reproduces acceptance
criterion 2's draw at seed 2024: 509 formulas, of which the solver finds
219 sat, 231 unsat (with oracle agreement) and 58 unsupported, and 1 on
which the oracle exhausts its default 5M-node budget.

    python3 perfbench/check_draw.py

Takes about a minute, most of it the one exhausting oracle call.
"""

from __future__ import annotations

import random
import sys
from collections import Counter

import run

EXPECTED = {"drawn": 509, "sat": 219, "unsat": 231, "unsupported": 58, "oracle exhausted": 1}


def main() -> int:
    run._load_package()
    import gen
    from wordeq import ResourceExhausted, Unsupported, brute_force_sat, check_sat

    counts: Counter[str] = Counter()

    def keep(phi) -> bool:
        verdict = check_sat(phi, "ab")
        if isinstance(verdict, Unsupported):
            counts["unsupported"] += 1
            return False
        try:
            brute_force_sat(phi, "ab", 8)
        except ResourceExhausted:
            counts["oracle exhausted"] += 1
            return False
        counts[type(verdict).__name__.lower()] += 1
        return True

    counts["drawn"] = len(gen.criterion2_draw(random.Random(2024), keep))
    got = {key: counts[key] for key in EXPECTED}
    print(got)
    if got != EXPECTED:
        print(f"expected {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
