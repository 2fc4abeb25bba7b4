"""Per-layer tracing from outside the program.

The tracer replaces chorrev's public functions where the program looks
them up: every module attribute that holds the original function is
pointed at a timing wrapper, so calls between modules (and recursive
calls such as ``order.semantics``) go through it and the spans follow the
real call graph.  Causality methods are timed by a subclass of
``CausalityAnalyzer`` that the benchmark passes in and installs where
``explore`` constructs one.

Spans stay in memory as flat arrays (name, parent, start, end) and are
written out once, after the traced run.  A span's self time is its
duration minus the durations of its children.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from workloads import log_count

# (module, function, span name); several functions may share a span name.
WRAPPED = (
    ("parse", "parse_choreography", "parse"),
    ("model", "validate", "model.validate"),
    ("order", "semantics", "order.semantics"),
    ("order", "well_branched", "order.well_branched"),
    ("projection", "project_system", "projection.project"),
    ("runtime", "enabled_forward", "runtime.enabled_forward"),
    ("runtime", "step_output", "runtime.step"),
    ("runtime", "step_input", "runtime.step"),
    ("runtime", "forget_config", "runtime.forget_config"),
    ("causality", "audit_configuration", "causality.audit"),
    ("reverse", "enabled_reversals", "reverse.enabled_reversals"),
    ("reverse", "step_reverse", "reverse.step_reverse"),
    ("explore", "reachable", "explore.reachable"),
    ("explore", "plain_reachable", "explore.plain_reachable"),
)
ANALYZER_METHODS = (
    ("relation", "causality.relation"),
    ("base_relation", "causality.base_relation"),
    ("rollback_points", "causality.rollback_points"),
)
# Span names whose self time and call count are reported.
TIMED = (
    "parse", "model.validate", "order.semantics", "order.well_branched",
    "projection.project", "runtime.enabled_forward", "runtime.step",
    "runtime.forget_config", "causality.relation", "causality.base_relation",
    "causality.rollback_points", "causality.audit", "reverse.enabled_reversals",
    "reverse.step_reverse", "explore.reachable", "explore.plain_reachable",
)
CALLS = (
    "parse", "order.semantics", "runtime.enabled_forward", "runtime.step",
    "causality.relation", "causality.rollback_points", "reverse.enabled_reversals",
    "reverse.step_reverse", "explore.reachable",
)
COUNTS = (
    "order.le_pairs", "machine.states", "machine.transitions",
    "causality.relation.distinct", "causality.history_logs_max",
    "reverse.candidates", "reverse.logs_removed", "explore.instrumented_configs",
    "explore.plain_configs", "explore.reversal_edges",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.pending_roots: set[int] = set()

    def wrap(self, span, fn, before=None, after=None):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        clock = time.perf_counter
        stack, names, parents, starts, ends = self.stack, self.name, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- observers for the exact counts ---------------------------------

    def _note_root(self, args):
        self.pending_roots.add(id(args[0]))

    def _semantics_done(self, args, order):
        if id(args[0]) in self.pending_roots:
            self.pending_roots.discard(id(args[0]))
            self.counts["order.le_pairs"] += len(order.le)

    def _projected(self, args, system):
        self.pending_roots.discard(id(args[0]))
        for m in system.machines.values():
            self.counts["machine.states"] += len(m.states)
            self.counts["machine.transitions"] += len(m.transitions)

    def _reversals(self, args, candidates):
        self.counts["reverse.candidates"] += len(candidates)

    def _reversed(self, args, cfg):
        self.counts["reverse.logs_removed"] += log_count(args[0]) - log_count(cfg)

    def _explored(self, args, result):
        self.counts["explore.instrumented_configs"] += len(result.configs)
        self.counts["explore.reversal_edges"] += len(result.reversal_edges)

    def _plain(self, args, result):
        self.counts["explore.plain_configs"] += len(result.configs)

    def _related(self, args, rel):
        analyzer, cfg = args[0], args[1]
        if cfg.chi not in analyzer.traced_histories:
            analyzer.traced_histories.add(cfg.chi)
            self.counts["causality.relation.distinct"] += 1
        n = log_count(cfg)
        if n > self.counts["causality.history_logs_max"]:
            self.counts["causality.history_logs_max"] = n

    # -- installation ---------------------------------------------------

    def install(self, ch):
        """Wrap the public functions of the imported package ``ch``; return the analyzer class."""
        modules = [m for name, m in sys.modules.items() if name == "chorrev" or name.startswith("chorrev.")]
        hooks = {
            "order.semantics": (None, self._semantics_done),
            "projection.project": (self._note_root, self._projected),
            "reverse.enabled_reversals": (None, self._reversals),
            "reverse.step_reverse": (None, self._reversed),
            "explore.reachable": (None, self._explored),
            "explore.plain_reachable": (None, self._plain),
        }
        for mod_name, fn_name, span in WRAPPED:
            original = getattr(getattr(ch, mod_name), fn_name)
            wrapper = self.wrap(span, original, *hooks.get(span, (None, None)))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

        base = ch.causality.CausalityAnalyzer
        methods = {
            attr: self.wrap(span, getattr(base, attr), after=self._related if attr == "relation" else None)
            for attr, span in ANALYZER_METHODS
        }

        def __init__(analyzer, system):
            base.__init__(analyzer, system)
            analyzer.traced_histories = set()

        analyzer = type("TimedAnalyzer", (base,), {"__init__": __init__, **methods})
        ch.explore.CausalityAnalyzer = analyzer
        return analyzer

    # -- results ----------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_time = Counter()
        calls = Counter()
        top = 0.0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            name = self.names[self.name[i]]
            self_time[name] += dur - child[i]
            calls[name] += 1
            if self.parent[i] < 0:
                top += dur
        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}.time_s"] = self_time[name]
        for name in CALLS:
            out[f"{name}.calls"] = calls[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        out["trace.coverage"] = top / traced_wall
        out["trace.overhead"] = traced_wall / untraced_wall
        return out

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )


def unit(name: str) -> str:
    if name.endswith(".time_s"):
        return "s"
    return "ratio" if name.startswith("trace.") else "count"


def metric_names() -> list[str]:
    return (
        [f"{n}.time_s" for n in TIMED]
        + [f"{n}.calls" for n in CALLS]
        + list(COUNTS)
        + ["trace.coverage", "trace.overhead"]
    )
