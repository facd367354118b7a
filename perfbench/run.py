#!/usr/bin/env python3
"""Seeded benchmark for wordeq: time to verdict end to end, and self time
per pipeline layer.

    python3 perfbench/run.py --workload rewrite --seed 1 --seconds 20 --trace 0

Runs one workload in this process, on one thread, against the package in
``src/`` of the checkout that holds this file.  It builds the workload's
inputs from the seed, then runs passes over them until ``--seconds`` are
used up (at least three passes), checks every answer, prints a report
and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are scaled to a fixed machine speed measured next to each group of
ops by a calibration kernel (calibrate.py, Run below).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, writing
the spans to ``perfbench/out/``.  ``--workload all`` runs the four
workloads one after another, each in a fresh process so that one
workload's peak memory does not show in the next.  The exit code is 0
only when every answer was right.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("differential", "rewrite", "arith", "reduction")
MIN_PASSES = 3
SETUP_REPEATS = 3
KERNELS_PER_PASS = 24

# (name, unit, better, bound) of every end-to-end metric, in report order
END_TO_END = [
    ("wall_s", "s", "lower", 0.15),
    ("p50_ms", "ms", "lower", 0.25),
    ("tail_ms", "ms", "lower", 0.25),
    ("sat_wall_s", "s", "lower", 0.25),
    ("unsat_wall_s", "s", "lower", 0.25),
    ("decided_share", "share", "higher", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# what the generic names above mean on each workload, for the report
REPORT_NAMES = {
    "solve": {"wall_s": "solve_wall_s", "p50_ms": "solve_p50_ms", "tail_ms": "solve_tail_ms"},
    "reduction": {"wall_s": "reduction_wall_s", "p50_ms": "reduction_p50_ms", "tail_ms": "reduction_tail_ms"},
}


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_package():
    """Import wordeq from this checkout's src/, or exit with 2."""
    src = ROOT / "src"
    if not (src / "wordeq" / "__init__.py").is_file():
        _fail(f"no package at {src / 'wordeq'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import wordeq

    if Path(wordeq.__file__).resolve().parent != (src / "wordeq").resolve():
        _fail(f"imported wordeq from {wordeq.__file__}, not from {src}")
    return wordeq


def _package_caches(wordeq) -> list:
    """Every functools cache on a function defined in the package."""
    import pkgutil
    import importlib

    caches = {}
    for info in pkgutil.iter_modules(wordeq.__path__, "wordeq."):
        if info.name == "wordeq.__main__":
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)) and getattr(obj, "__module__", "").startswith("wordeq"):
                caches[id(obj)] = obj
    return list(caches.values())


def tail_percentile(n: int) -> int:
    """The highest whole percentile of n values with at least ten of them
    beyond it (the median when there are too few)."""
    return max(50, math.floor(100 * (1 - 10 / n)))


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


class Run:
    """One workload's passes and what they measured.

    Every pass runs each item's primary op; the other ops (the oracle on
    differential) run in the first pass and in every traced pass.  The
    pass splits the items into about ``KERNELS_PER_PASS`` groups and times
    the calibration kernel before the first group and after each one.
    An op's time is scaled by ``K_REF`` over the mean of the two kernel
    times around its group, and its figure is the median of its scaled
    times over the passes.
    """

    def __init__(self, workloads, items, primary: str, caches, tracer=None) -> None:
        self.w = workloads
        self.items = items
        self.primary = primary
        self.caches = caches
        self.tracer = tracer
        self.latest: list[dict[str, object]] = [{} for _ in items]
        self.first_class: list[dict[str, str]] = [{} for _ in items]
        self.answers: list[str | None] = [None] * len(items)
        self.decided: dict[tuple[int, str], bool] = {}
        # traced? -> (item index, kind) -> scaled seconds, one per pass that ran the op
        self.times: dict[bool, dict[tuple[int, str], list[float]]] = {False: {}, True: {}}
        self.raw: dict[tuple[int, str], list[float]] = {}  # the same, untraced and unscaled
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def one_pass(self, traced: bool) -> float:
        everything = traced or self.passes == 0
        stride = math.ceil(len(self.items) / KERNELS_PER_PASS)
        group: list[tuple[tuple[int, str], float]] = []
        gc.collect()
        start = perf_counter()
        before = calibrate.kernel()
        if traced:
            self.tracer.install()
        try:
            for i, item in enumerate(self.items):
                if group and i % stride == 0:
                    before = self._close_group(group, before, traced)
                ran = {}
                for kind, op in item.ops:
                    if kind != self.primary and not everything:
                        continue
                    if traced:
                        self.tracer.before_cache_clear()
                    for cache in self.caches:
                        cache.cache_clear()
                    t0 = perf_counter()
                    try:
                        out = self.tracer.run_op(op) if traced else op()
                    except Exception as exc:  # an unexpected exception is a failed op
                        out = exc
                    group.append(((i, kind), perf_counter() - t0))
                    ran[kind] = out
                self._check(i, item, ran)
            self._close_group(group, before, traced)
        finally:
            if traced:
                self.tracer.before_cache_clear()
                self.tracer.uninstall()
        self.passes += 1
        return perf_counter() - start

    def _close_group(self, group, before: float, traced: bool) -> float:
        """Time the kernel after a group of ops and file their scaled times."""
        after = calibrate.kernel()
        scale = calibrate.K_REF / ((before + after) / 2)
        for key, t in group:
            self.times[traced].setdefault(key, []).append(t * scale)
            if not traced:
                self.raw.setdefault(key, []).append(t)
        group.clear()
        return after

    def _check(self, i: int, item, ran: dict[str, object]) -> None:
        self.latest[i].update(ran)
        answer, failures = item.check(self.latest[i])
        self.answers[i] = answer
        for kind, out in ran.items():
            self.decided[(i, kind)] = self.w.decided(out)
            cls = self.w.outcome_class(out)
            first = self.first_class[i].setdefault(kind, cls)
            if cls != first:
                failures.append(f"{kind} op gave {cls}, an earlier pass gave {first}")
        self.attempted += len(ran)
        if failures:
            self.failed += min(len(failures), len(ran))
            self.failures.extend(f"{item.label} #{i}: {f}" for f in failures)

    def op_times(self, kind: str, traced: bool = False) -> dict[int, float]:
        """Each item's median time over the passes for the kind of op."""
        return {i: statistics.median(ts) for (i, k), ts in self.times[traced].items() if k == kind}

    def kind_metrics(self, kind: str) -> dict[str, float]:
        per_op = self.op_times(kind)
        ordered = sorted(per_op.values())
        q = tail_percentile(len(ordered))
        decided = [d for (i, k), d in self.decided.items() if k == kind]
        return {
            "wall_s": sum(ordered),
            "p50_ms": nearest_rank(ordered, 50) * 1000,
            "tail_ms": nearest_rank(ordered, q) * 1000,
            "tail_q": q,
            "tail_beyond": len(ordered) - math.ceil(q / 100 * len(ordered)),
            "ops": len(ordered),
            "decided_share": sum(decided) / len(decided),
            **{f"{answer}_wall_s": sum(t for i, t in per_op.items() if self.answers[i] == answer)
               for answer in ("sat", "unsat")},
        }


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None, import_s: float = 0.0):
    """Set up, measure and check one workload.  Returns (result, report
    lines), where result is the JSON object of the last output line."""
    import workloads
    import spans as tracing
    from wordeq.automata import regex_to_dfa

    wordeq = sys.modules["wordeq"]
    caches = _package_caches(wordeq)
    # set-up times are scaled like op times (see Run)
    before = calibrate.kernel()
    import_s *= calibrate.K_REF / before
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        items = workloads.build(name, seed, sizes)
        workloads.warm_up()
        t = perf_counter() - t0
        after = calibrate.kernel()
        setups.append(t * calibrate.K_REF / ((before + after) / 2))
        before = after
    setup_s = import_s + statistics.median(setups)

    tracer = tracing.Tracer(regex_to_dfa) if trace else None
    run = Run(workloads, items, workloads.PRIMARY[name], caches, tracer)
    traced_passes = 0
    started = perf_counter()
    while True:
        # a traced run alternates untraced and traced passes
        traced = trace and run.passes % 2 == 1
        last = run.one_pass(traced)
        traced_passes += traced
        elapsed = perf_counter() - started
        # stop before a pass that would end past the time given
        if run.passes >= MIN_PASSES * (2 if trace else 1) and elapsed + last > seconds:
            break

    primary = run.kind_metrics(run.primary)
    lines = [f"workload {name}  seed {seed}  items {len(items)}  passes {run.passes}  "
             f"measured {perf_counter() - started:.1f} s"]
    if trace:
        m = tracer.layer_metrics(traced_passes)
        traced_wall = sum(run.op_times(run.primary, traced=True).values())
        m["trace.overhead_share"] = traced_wall / primary["wall_s"] - 1
        gap = tracer.check_self_times()
        if gap > 1e-6:
            run.failures.append(f"self times miss an op's traced time by {gap:.3g} s")
            run.failed += 1
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{name}-{seed}.jsonl")
        metrics = {key: {"value": m[key], "unit": unit} for key, unit, _ in tracing.PER_LAYER}
        total = m["trace.op_s"]
        shares = sorted(((m["solver.self_s" if layer == "solver" else f"{layer}.busy_s"], layer)
                         for layer in tracing.LAYERS), reverse=True)
        lines.append("self time per traced pass: " + ", ".join(
            f"{layer} {v:.4f} s ({v / total:.1%})" for v, layer in shares if v > 0))
        lines.append(f"largest gap between an op's root span and its self-time sum: {gap:.3g} s")
        lines.extend(f"{key:30s} {m[key]:.6g} {unit}" for key, unit, _ in tracing.PER_LAYER)
    else:
        m = {
            **primary,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        metrics = {key: {"value": m[key], "unit": unit} for key, unit, _, _ in END_TO_END}
        aliases = REPORT_NAMES[run.primary]
        for key, unit, _, _ in END_TO_END:
            extra = ""
            if key == "tail_ms":
                extra = f"  (p{m['tail_q']} of {m['ops']} ops, {m['tail_beyond']} beyond it)"
            lines.append(f"{aliases.get(key, key):22s} {m[key]:.6g} {unit}{extra}")
        unscaled = sum(statistics.median(ts) for (_, k), ts in run.raw.items() if k == run.primary)
        lines.append(f"{'(unscaled wall_s)':22s} {unscaled:.6g} s  (times above are scaled to the "
                     f"speed at which the calibration kernel takes {calibrate.K_REF * 1000:g} ms)")
        if any(kind == "oracle" for kind, _ in items[0].ops):
            oracle = run.kind_metrics("oracle")
            lines.append(f"{'oracle_wall_s':22s} {oracle['wall_s']:.6g} s")
            lines.append(f"{'oracle_p50_ms':22s} {oracle['p50_ms']:.6g} ms")
            lines.append(f"{'oracle_decided_share':22s} {oracle['decided_share']:.6g} share")
    lines.append(f"{'failed_share':22s} {run.failed / run.attempted:.6g} share  "
                 f"({run.failed} of {run.attempted} ops)")
    lines.extend(f"FAILED {f}" for f in run.failures[:20])
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, lines


def _run_all(args) -> int:
    """Each workload in a fresh process of this script, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, check=False)
        status = status or done.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # check_sat re-checks every model with an assert; -O would remove it
        # and the benchmark would time a different program.
        _fail("refusing to run under python -O")
    if args.workload == "all":
        return _run_all(args)
    t0 = perf_counter()
    _load_package()
    import_s = perf_counter() - t0
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
