"""Spans around the calls into each pipeline layer, and the per-layer
metrics computed from them.

``Tracer.install`` replaces, in the modules that call them, the public
functions each layer exposes; ``uninstall`` puts the originals back.
Every wrapped call appends a span ``[name, start, end, parent, op,
note]`` to an in-memory list: ``parent`` is the index of the enclosing
span (the op's root span at the top), ``op`` numbers the op, and
``note`` is a small summary of the result that the counters need.
A span's self time is its duration minus the durations of its children;
calls are sequential, so the children never overlap.  The self times of
an op's spans therefore add up to the op's root span.
"""

from __future__ import annotations

import json
from time import perf_counter

import wordeq
import wordeq.normalize
import wordeq.solver
from wordeq.solved_form import OutOfFragment
from wordeq.solved_form import Unsat as EqUnsat


def _count(args, result) -> int:
    return len(result)


def _forms(args, result) -> str | int:
    if isinstance(result, EqUnsat):
        return "unsat"
    if isinstance(result, OutOfFragment):
        return "oof"
    return len(result)


# name -> (layer, module whose global the caller looks up, note(args, result))
WRAPPED = {
    "parse_problem": ("parser", wordeq, None),
    "check_sat": ("solver", wordeq, None),
    "to_dnf": ("normalize", wordeq.solver, _count),
    "eliminate_negations": ("normalize", wordeq.solver, _count),
    "to_solved_form": ("solved_form", wordeq.solver, _forms),
    "implied_length_constraints": ("lengths", wordeq.solver, _count),
    "translate_len_atom": ("lengths", wordeq.solver, lambda args, row: 1),
    "upset_rows": ("lengths", wordeq.solver, lambda args, groups: sum(map(len, groups))),
    "param_membership": ("automata", wordeq.solver, _count),
    "regex_to_dfa": ("automata", wordeq.solver, None),
    "lia_sat": ("lia", wordeq.solver, lambda args, model: (len(args[0]), model is not None)),
    "eval_formula": ("semantics", wordeq.solver, None),
    "brute_force_sat": ("oracle", wordeq, None),
    "encode": ("twocounter", wordeq, None),
    "positivize": ("twocounter", wordeq, None),
    "enumerate_counterexamples": ("twocounter", wordeq, None),
}
NORMALIZE_WRAPPED = ("regex_to_dfa", "dfa_complement", "dfa_to_regex")  # all automata

LAYERS = ("bench", "parser", "normalize", "solved_form", "solver", "lengths",
          "automata", "lia", "semantics", "oracle", "twocounter")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("parser.busy_s", "s", "lower"),
    ("parser.calls", "count", "lower"),
    ("normalize.busy_s", "s", "lower"),
    ("normalize.disjuncts", "count", "lower"),
    ("normalize.branches", "count", "lower"),
    ("solved_form.busy_s", "s", "lower"),
    ("solved_form.calls", "count", "lower"),
    ("solved_form.forms", "count", "lower"),
    ("solved_form.unsat", "count", "lower"),
    ("solved_form.out_of_fragment", "count", "lower"),
    ("solved_form.max_call_ms", "ms", "lower"),
    ("solver.self_s", "s", "lower"),
    ("solver.forms_used_ratio", "ratio", "higher"),
    ("lengths.busy_s", "s", "lower"),
    ("lengths.rows", "count", "lower"),
    ("automata.busy_s", "s", "lower"),
    ("automata.dfa_misses", "count", "lower"),
    ("automata.dfa_hits", "count", "higher"),
    ("automata.boxes", "count", "lower"),
    ("lia.busy_s", "s", "lower"),
    ("lia.calls", "count", "lower"),
    ("lia.sat_ratio", "ratio", "higher"),
    ("lia.rows_mean", "rows", "lower"),
    ("lia.max_call_ms", "ms", "lower"),
    ("semantics.busy_s", "s", "lower"),
    ("semantics.calls", "count", "lower"),
    ("oracle.busy_s", "s", "lower"),
    ("oracle.calls", "count", "lower"),
    ("oracle.exhausted", "count", "lower"),
    ("twocounter.encode_s", "s", "lower"),
    ("twocounter.positivize_s", "s", "lower"),
    ("twocounter.search_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


class Tracer:
    def __init__(self, dfa_cache) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []
        self._dfa_cache = dfa_cache  # the lru_cache'd regex_to_dfa
        self.dfa_hits = 0
        self.dfa_misses = 0
        self.layer_of = {name: layer for name, (layer, _, _) in WRAPPED.items()}
        self.layer_of.update(dict.fromkeys(NORMALIZE_WRAPPED, "automata"), op="bench")

    # -- recording

    def _wrap(self, name: str, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1], self._op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                rec[5] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        for name, (_, module, note) in WRAPPED.items():
            self._patch(module, name, note)
        for name in NORMALIZE_WRAPPED:
            self._patch(wordeq.normalize, name, None)

    def _patch(self, module, name: str, note) -> None:
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, self._wrap(name, original, note))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def run_op(self, fn):
        """Run one op under a root span."""
        self._op += 1
        self._stack.append(-1)
        try:
            return self._wrap("op", fn, None)()
        finally:
            self._stack.pop()

    def before_cache_clear(self) -> None:
        info = self._dfa_cache.cache_info()
        self.dfa_hits += info.hits
        self.dfa_misses += info.misses

    # -- analysis

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, note in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, *_), c in zip(self.spans, child)]

    def check_self_times(self) -> float:
        """Largest gap, over ops, between an op's root span and the sum of
        the self times of its spans (zero up to float rounding)."""
        by_op: dict[int, float] = {}
        root: dict[int, float] = {}
        for rec, s in zip(self.spans, self.self_times()):
            by_op[rec[4]] = by_op.get(rec[4], 0.0) + s
            if rec[3] < 0:
                root[rec[4]] = rec[2] - rec[1]
        return max((abs(by_op[op] - root[op]) for op in root), default=0.0)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, each per traced pass (summed, then divided by
        the number of traced passes)."""
        busy = dict.fromkeys(LAYERS, 0.0)
        tc = {"encode": 0.0, "positivize": 0.0, "enumerate_counterexamples": 0.0}
        counts: dict[str, float] = {}
        max_ms = {"to_solved_form": 0.0, "lia_sat": 0.0}

        def add(key, n=1):
            counts[key] = counts.get(key, 0) + n

        for rec, s in zip(self.spans, self.self_times()):
            name, start, end, _, _, note = rec
            busy[self.layer_of[name]] += s
            add(name)
            if name in tc:
                tc[name] += s
            if name in max_ms:
                max_ms[name] = max(max_ms[name], (end - start) * 1000)
            if name == "to_dnf":
                add("disjuncts", note or 0)
            elif name == "eliminate_negations":
                add("branches", note or 0)
            elif name == "to_solved_form":
                add({"unsat": "sf_unsat", "oof": "sf_oof"}.get(note, "forms"),
                    note if isinstance(note, int) else 1)
            elif name in ("implied_length_constraints", "translate_len_atom", "upset_rows"):
                add("rows", note or 0)
            elif name == "param_membership":
                add("boxes", note or 0)
            elif name == "lia_sat" and isinstance(note, tuple):
                add("lia_rows", note[0])
                add("lia_models", note[1])
            elif name == "brute_force_sat" and note == "ResourceExhausted":
                add("exhausted")
        n = max(passes, 1)

        def c(key):
            return counts.get(key, 0) / n

        def ratio(a, b):
            return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

        m = {f"{layer}.busy_s": busy[layer] / n for layer in LAYERS}
        m.update({
            "parser.calls": c("parse_problem"),
            "normalize.disjuncts": c("disjuncts"),
            "normalize.branches": c("branches"),
            "solved_form.calls": c("to_solved_form"),
            "solved_form.forms": c("forms"),
            "solved_form.unsat": c("sf_unsat"),
            "solved_form.out_of_fragment": c("sf_oof"),
            "solved_form.max_call_ms": max_ms["to_solved_form"],
            "solver.self_s": busy["solver"] / n,
            "solver.forms_used_ratio": ratio("implied_length_constraints", "forms"),
            "lengths.rows": c("rows"),
            "automata.dfa_misses": self.dfa_misses / n,
            "automata.dfa_hits": self.dfa_hits / n,
            "automata.boxes": c("boxes"),
            "lia.calls": c("lia_sat"),
            "lia.sat_ratio": ratio("lia_models", "lia_sat"),
            "lia.rows_mean": ratio("lia_rows", "lia_sat"),
            "lia.max_call_ms": max_ms["lia_sat"],
            "semantics.calls": c("eval_formula"),
            "oracle.calls": c("brute_force_sat"),
            "oracle.exhausted": c("exhausted"),
            "twocounter.encode_s": tc["encode"] / n,
            "twocounter.positivize_s": tc["positivize"] / n,
            "twocounter.search_s": tc["enumerate_counterexamples"] / n,
            "bench.self_s": busy["bench"] / n,
            "trace.op_s": sum(busy.values()) / n,
        })
        del m["solver.busy_s"]
        return m

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op, note in self.spans:
                f.write(json.dumps([name, start, end, parent, op, note]) + "\n")
