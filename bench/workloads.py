"""The three workloads and their output checks.

Each workload has a ``prepare`` step (the set-up a user pays before the
first operation) and a ``block`` of operations of fixed content for a
given seed and block index.  The measured run repeats blocks until its
time is up; the traced run replays block 0.  Output checks run outside the
timed regions and count into ``failed``.

Calls into the program go through module attributes (``ch.runtime.step_output``,
not a name bound at import) so that the traced run sees them.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
TRAVEL = HERE.parent / "tests" / "data" / "travel.rchor"
GOLDEN = HERE / "golden" / "compile_mix.json"

# check-travel: what ``chorrev explore --bound steps=200,rounds=2`` runs.  The
# plain route is the oracle: its configuration count at each round bound.
CHECK_STEPS, CHECK_ROUNDS, SMOKE_ROUNDS = 200, 2, 1
PLAIN_CONFIGS = {1: 98, 2: 240}

# walk-travel: each episode leads in to a history of a set size, then takes
# one timed step.  Sizes are spread evenly over the block.
WALK_PROBES, WALK_MIN_LOGS, WALK_MAX_LOGS = 50, 20, 110
SMOKE_PROBES, SMOKE_MIN_LOGS, SMOKE_MAX_LOGS = 6, 10, 30
PLAIN_STEPS = 1_000_000  # the plain search ends by the round bound long before this

SMOKE_SLOTS = 6


@dataclass
class Outcome:
    samples: list[float] = field(default_factory=list)  # seconds per timed operation
    attempted: int = 0
    failed: int = 0
    counts: dict = field(default_factory=dict)  # exact counts for the report

    def add(self, other: "Outcome") -> None:
        """Pool another block's operations; the exact counts stay those of the first block."""
        self.samples += other.samples
        self.attempted += other.attempted
        self.failed += other.failed
        self.counts = self.counts or other.counts


def log_count(cfg) -> int:
    return sum(len(cs.consumed) + len(cs.pending) for _, cs in cfg.chi)


def parse_travel(ch):
    return ch.projection.project_system(ch.parse.parse_choreography(TRAVEL.read_text()))


# ---------------------------------------------------------------------------
# check-travel


def check_prepare(ch, analyzer_cls):
    return parse_travel(ch)


def check_block(ch, system, analyzer_cls, seed, index, smoke) -> Outcome:
    rounds = SMOKE_ROUNDS if smoke else CHECK_ROUNDS
    bound = ch.explore.Bound(CHECK_STEPS, rounds)
    gc.collect()
    t = time.perf_counter()
    results = ch.explore.run_checks(system, bound)
    elapsed = time.perf_counter() - t
    expected = PLAIN_CONFIGS[rounds]
    stats = {r.name: r.stats for r in results}
    ok = list(stats) == ["soundness", "completeness", "causal-consistency"] and all(
        r.verdict == "pass" and r.stats["plain_configs"] == expected for r in results
    ) and stats["soundness"]["images"] == stats["completeness"]["images"] == expected
    counts = {
        "instrumented_configs": stats["soundness"]["instrumented_configs"],
        "instrumented_configs_with_reversals": stats["causal-consistency"]["instrumented_configs"],
        "reversal_edges": stats["causal-consistency"]["reversal_edges"],
        "plain_configs": stats["soundness"]["plain_configs"],
    } if ok else {}
    return Outcome([elapsed], 1, 0 if ok else 1, counts)


# ---------------------------------------------------------------------------
# walk-travel


def walk_prepare(ch, analyzer_cls):
    system = parse_travel(ch)
    analyzer_cls(system)
    return system


def _forward(ch, cfg, system):
    """Forward moves, without loop-exit sends so that histories keep growing."""
    return [
        (a, t)
        for a, t in ch.runtime.enabled_forward(cfg, system)
        if not (t.event.polarity == "!" and t.event.message == ch.model.LOOP_END)
    ]


def _apply(ch, cfg, system, move):
    a, t = move
    if t.event.polarity == "!":
        return ch.runtime.step_output(cfg, system, a, t)
    return ch.runtime.step_input(cfg, system, a, t)


def _opens_branch(move) -> bool:
    _, t = move
    return getattr(t.decoration, "choice_state", None) == t.src


def walk_block(ch, system, analyzer_cls, seed, index, smoke) -> Outcome:
    """One block of walk episodes.

    An episode starts from the initial configuration with a new analyzer
    and walks forward, picking uniformly, until the history holds the
    episode's number of logs and a decider is at a choice.  Then comes
    the timed step: list every enabled move (forward moves and reversals,
    the menu ``simulate --interactive`` shows), pick one uniformly and
    apply it.  Pinning the history size of the timed step, rather than
    letting free walks drift (reversals can wipe a history at any time),
    keeps the cost of a block the same across seeds.
    """
    if smoke:
        probes, low, high = SMOKE_PROBES, SMOKE_MIN_LOGS, SMOKE_MAX_LOGS
    else:
        probes, low, high = WALK_PROBES, WALK_MIN_LOGS, WALK_MAX_LOGS
    sizes = [low + (high - low) * i // (probes - 1) for i in range(probes)]
    random.Random(f"walk-block:{seed}:{index}").shuffle(sizes)
    out = Outcome(counts={"episodes": 0, "steps": 0, "reversals": 0, "ended_early": 0, "history_logs_max": 0})
    images, rounds = [], 1
    for e, size in enumerate(sizes):
        erng = random.Random(f"walk:{seed}:{index}:{e}")
        analyzer = analyzer_cls(system)
        cfg = ch.runtime.initial_configuration(system)
        out.counts["episodes"] += 1
        moves = _forward(ch, cfg, system)
        while moves and not (log_count(cfg) >= size and any(map(_opens_branch, moves))):
            cfg = _apply(ch, cfg, system, moves[erng.randrange(len(moves))])
            moves = _forward(ch, cfg, system)
        out.counts["history_logs_max"] = max(out.counts["history_logs_max"], log_count(cfg))
        t = time.perf_counter()
        moves = _forward(ch, cfg, system)
        reversals = ch.reverse.enabled_reversals(cfg, system, analyzer)
        menu = len(moves) + len(reversals)
        if menu:
            pick = erng.randrange(menu)
            if pick < len(moves):
                cfg = _apply(ch, cfg, system, moves[pick])
            else:
                cfg = ch.reverse.step_reverse(cfg, system, reversals[pick - len(moves)], analyzer)
        elapsed = time.perf_counter() - t
        if not menu:
            out.counts["ended_early"] += 1
            continue
        out.samples.append(elapsed)
        out.attempted += 1
        out.counts["steps"] += 1
        out.counts["reversals"] += pick >= len(moves)
        if ch.causality.audit_configuration(cfg, system, analyzer):
            out.failed += 1
        images.append(ch.runtime.forget_config(cfg))
        rounds = max([rounds] + [_markers(ch, cs) for _, cs in cfg.chi])
    plain = ch.explore.plain_reachable(system, ch.explore.Bound(PLAIN_STEPS, rounds))
    out.failed += sum(1 for image in images if image not in plain.configs)
    out.counts["plain_rounds_max"] = rounds
    return out


def _markers(ch, cs) -> int:
    """Loop start markers in one channel's history: the rounds it has seen."""
    return sum(1 for log in cs.consumed + cs.pending if log.message == ch.model.LOOP_START)


# ---------------------------------------------------------------------------
# compile-mix


def compile_prepare(ch, analyzer_cls):
    """Nothing beyond the import: every protocol is parsed and projected in the timed region."""


@functools.cache
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def machine_sizes(system) -> dict[str, list[int]]:
    return {a: [len(m.states), len(m.transitions)] for a, m in sorted(system.machines.items())}


def compile_block(ch, _, analyzer_cls, seed, index, smoke) -> Outcome:
    protocols = gen.block(seed, index, SMOKE_SLOTS if smoke else gen.SLOTS)
    errors = (ch.parse.ParseError, ch.machine.ProjectionError, ch.order.UndefinedSemantics)
    out = Outcome(counts={"protocols": 0, "control_points": 0, "rejections": 0})
    for p in protocols:
        out.attempted += 1
        out.counts["protocols"] += 1
        out.counts["control_points"] += p.cps
        out.counts["rejections"] += p.rejections
        for kind, n in p.mix.items():
            out.counts[f"terms_{kind}"] = out.counts.get(f"terms_{kind}", 0) + n
        out.counts[f"participants_{p.participants}"] = out.counts.get(f"participants_{p.participants}", 0) + 1
        t = time.perf_counter()
        try:
            g = ch.parse.parse_choreography(p.text)
            system = ch.projection.project_system(g)
        except errors:
            out.failed += 1
            continue
        out.samples.append(time.perf_counter() - t)
        want = golden().get(p.key)
        got = {
            "sha1": hashlib.sha1(p.text.encode()).hexdigest(),
            "cps": len(ch.model.control_points(g)),
            "machines": machine_sizes(system),
        }
        if got != want:
            out.failed += 1
    return out


WORKLOADS = {
    "check-travel": (check_prepare, check_block),
    "walk-travel": (walk_prepare, walk_block),
    "compile-mix": (compile_prepare, compile_block),
}
