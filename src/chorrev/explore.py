"""Bounded exploration of a projected system, and the metatheory checks.

Two reachability routes are kept deliberately separate.  ``reachable``
drives the full instrumented semantics (logs, timestamps, the book,
optionally reversals).  ``plain_reachable`` is an independent stepper
over the forgetful image of the machines: plain states and pending
words, nothing else.  The checks compare the two; sharing the stepping
logic between them would make the comparison circular.

``reachable`` keeps one configuration per forward class: configurations
with the same ``forward_key`` (states, book, pending words and consumed
counts) enable the same moves to the same classes, so soundness and
completeness, which read only forgetful images, run on the classes.  With
reversals it keeps every configuration of a live class, one from which
forward moves can reach a reversal, because a rollback reads the
timestamps; no reversal ever reads the history of a dead class.  Keys are
carried along the search: a forward successor's key is its parent's with
the one channel slot the move changed replaced, and only the initial
configuration and reversal targets are keyed from scratch.  The first
member of a class met lists the class's moves in a table of the search,
and every later member only applies them.

Exploration is bounded in two ways: a cap on the number of transitions
(breadth-first depth) and a cap on loop rounds, enforced by refusing to
send a loop's continue marker on a channel that already carries the
maximum number of them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterator, Optional

from . import reverse, runtime
from .causality import CausalityAnalyzer, audit_configuration
from .machine import Transition, forget_machine
from .model import LOOP_START
from .order import CommEvent
from .projection import System
from .reverse import ReversalCandidate, RollbackFailed
from .runtime import Configuration

PlainConfig = tuple


@dataclass(frozen=True)
class Bound:
    max_steps: int
    max_rounds: int

    def __post_init__(self):
        if self.max_steps < 0 or self.max_rounds < 1:
            raise ValueError("bounds must allow at least one round and no negative steps")


@dataclass
class ExplorationResult:
    configs: frozenset[Configuration]
    truncated: bool
    reversal_edges: tuple[tuple[Configuration, ReversalCandidate, Configuration], ...]
    steps_explored: int


@dataclass
class PlainResult:
    configs: frozenset[PlainConfig]
    truncated: bool
    steps_explored: int


def forward_key(cfg: Configuration) -> tuple:
    """What a forward move reads of ``cfg``: the states, the book, and per
    channel the pending word and the multiset of consumed (message, cp).

    The round bound counts markers on both sides of the head, hence the
    multiset, kept sorted.  A forward run's depth, one step per log plus
    one per consumed log, is a function of the key too.  The search keys
    the initial configuration and reversal targets with this and derives
    the key of every forward successor (:func:`_successor_key`).
    """
    return (
        cfg.sigma,
        cfg.book,
        tuple(
            (
                ch,
                tuple((log.message, log.cp) for log in cs.logs[cs.head :]),
                tuple(sorted((log.message, log.cp) for log in cs.logs[: cs.head])),
            )
            for ch, cs in cfg.chi
        ),
    )


def _successor_key(key: tuple, succ: Configuration, ev: CommEvent) -> tuple:
    """``forward_key(succ)``, where ``succ`` is a forward move by ``ev`` out
    of a configuration whose key is ``key``.

    The move changes one channel: an output appends its (message, cp) to
    the pending word, an input moves the word's first entry into the
    sorted consumed multiset.  Every other channel's slot is the parent's.
    """
    chans = key[2]
    i = bisect_left(chans, ev.channel, key=itemgetter(0))
    if i < len(chans) and chans[i][0] == ev.channel:
        _, pending, consumed = chans[i]
        end = i + 1
    else:
        pending = consumed = ()
        end = i
    if ev.polarity == "!":
        slot = (ev.channel, pending + ((ev.message, ev.cp),), consumed)
    else:
        j = bisect_right(consumed, pending[0])
        slot = (ev.channel, pending[1:], consumed[:j] + pending[:1] + consumed[j:])
    return (succ.sigma, succ.book, chans[:i] + (slot,) + chans[end:])


# A forward class's moves within the round bound, in ``enabled_forward``
# order, each as (participant, transition, successor key).
MoveTable = dict[tuple, list[tuple[str, Transition, tuple]]]


def _step(cfg: Configuration, system: System, a: str, t: Transition) -> Configuration:
    if t.event.polarity == "!":
        return runtime.step_output(cfg, system, a, t)
    return runtime.step_input(cfg, system, a, t)


def _successors(
    cfg: Configuration, key: tuple, system: System, bound: Bound, table: MoveTable
) -> list[tuple[Configuration, tuple]]:
    """Each forward successor of ``cfg``, whose key is ``key``, within the
    round bound, with its key.  The first member of a class asked about
    lists the class's moves in ``table``; later members apply them.
    """
    moves = table.get(key)
    if moves is not None:
        return [(_step(cfg, system, a, t), k) for a, t, k in moves]
    moves = table[key] = []
    succs = []
    for a, t in runtime.enabled_forward(cfg, system):
        ev = t.event
        if ev.polarity == "!" and ev.message == LOOP_START:
            # The continue markers of the loop in the channel's history.
            logs = cfg.channel_state(ev.channel).logs
            if sum(log.message == LOOP_START and log.cp == ev.cp for log in logs) >= bound.max_rounds:
                continue
        succ = _step(cfg, system, a, t)
        k = _successor_key(key, succ, ev)
        moves.append((a, t, k))
        succs.append((succ, k))
    return succs


def _depth(cfg: Configuration) -> int:
    """The forward steps that build ``cfg``: one per log and one per
    consumed log.  A reversal only removes logs, so no run reaches ``cfg``
    in fewer steps."""
    return sum(len(cs.logs) + cs.head for _, cs in cfg.chi)


def liveness(
    system: System, bound: Bound, table: Optional[MoveTable] = None
) -> Callable[[Configuration, tuple], bool]:
    """Whether a forward class is live: some forward run from it, within
    the bound, reaches a class where a family passes
    :func:`~chorrev.reverse.reversible_families` (a hot class).

    The returned predicate takes a configuration and its ``forward_key``
    and memoises the answer per class.  Hotness and depth read only the
    key, and so do forward moves, so any member of a class answers for all
    of them.  The children of a class it expands come from the move table
    (see :func:`_successors`), which a search passes as ``table`` to share
    it: a class whose moves either one listed is not asked for them again.
    A hot class deeper than the step bound counts for nothing, as no run
    within the bound reaches it (see :func:`_depth`).  The class graph is
    acyclic, since every forward move adds one to the depth, so one
    iterative post-order pass decides a class and every class below it.
    """
    memo: dict[tuple, bool] = {}
    table = {} if table is None else table

    def live(cfg: Configuration, key: tuple) -> bool:
        answer = memo.get(key)
        if answer is not None:
            return answer
        stack = [(cfg, key)]
        expanded = set()
        while stack:
            c, k = stack[-1]
            if k in memo:
                stack.pop()
            elif k in expanded:
                stack.pop()
                memo[k] = any(memo[b] for _, _, b in table[k])
            elif _depth(c) > bound.max_steps:
                stack.pop()
                memo[k] = False
            elif any(reverse.reversible_families(c, system)):
                stack.pop()
                memo[k] = True
            else:
                expanded.add(k)
                for succ, b in _successors(c, k, system, bound, table):
                    if b not in memo:
                        stack.append((succ, b))
        return memo[key]

    return live


def reachable(
    system: System,
    bound: Bound,
    with_reversals: bool = False,
    analyzer: Optional[CausalityAnalyzer] = None,
) -> ExplorationResult:
    """Breadth-first reachability of the instrumented semantics.

    A configuration is kept whole when its forward class is live (see
    :func:`liveness`) and otherwise as one configuration per
    ``forward_key``.  Without reversals no class counts as live, so
    ``configs`` holds one configuration per class; soundness and
    completeness read only forgetful images, which a class shares.

    With reversals the search is exact where a reversal can read history.
    A forward step into a live class starts in a live class, and a reversal
    within the bound starts in a hot class within the bound, which is live.  So every path to a reversal's
    source runs through live classes, which the search keeps as it would
    keep every configuration: the same sources at the same depth and in the
    same frontier order.  Every reversal edge, in order, and the first
    :class:`~chorrev.reverse.RollbackFailed` are those of the search that
    keeps every configuration.  A dead class's configurations enable no
    reversal and lead only to dead classes, where a forward move reads
    nothing but the key.

    The frontier holds each configuration with its ``forward_key``, and a
    forward successor's key is derived from its parent's (see
    :func:`_successor_key`); :func:`forward_key` runs on the initial
    configuration and on reversal targets only.  A class's moves are
    found once, for the search and :func:`liveness` (see :func:`_successors`).

    ``truncated`` says that the last frontier, at the step bound, has a
    successor not yet met or an enabled reversal, whose edge goes unchecked.
    """
    if with_reversals and analyzer is None:
        analyzer = CausalityAnalyzer(system)
    table: MoveTable = {}
    live = liveness(system, bound, table) if with_reversals else (lambda cfg, k: False)

    def class_of(cfg: Configuration, k: tuple):
        return cfg if live(cfg, k) else k

    init = runtime.initial_configuration(system)
    init_key = forward_key(init)
    seen = {class_of(init, init_key): init}
    frontier = [(init, init_key)]
    edges: list[tuple[Configuration, ReversalCandidate, Configuration]] = []
    depth = 0
    truncated = False
    while frontier:
        if depth == bound.max_steps:
            truncated = any(
                class_of(succ, sk) not in seen
                for cfg, k in frontier
                for succ, sk in _successors(cfg, k, system, bound, table)
            ) or (with_reversals and any(
                reverse.enabled_reversals(cfg, system, analyzer) for cfg, _ in frontier
            ))
            break
        layer: list[tuple[Configuration, tuple]] = []
        for cfg, k in frontier:
            succs = _successors(cfg, k, system, bound, table)
            if with_reversals:
                for cand in reverse.enabled_reversals(cfg, system, analyzer):
                    succ = reverse.step_reverse(cfg, system, cand, analyzer)
                    edges.append((cfg, cand, succ))
                    succs.append((succ, forward_key(succ)))
            for succ, sk in succs:
                # One lookup: ``succ`` comes back only when it was not met before.
                if seen.setdefault(class_of(succ, sk), succ) is succ:
                    layer.append((succ, sk))
        frontier = layer
        depth += 1
    return ExplorationResult(frozenset(seen.values()), truncated, tuple(edges), depth)


# ---------------------------------------------------------------------------
# The plain route


def _plain_node(sigma: dict, words: dict, ghost: dict):
    return (
        tuple(sorted(sigma.items())),
        tuple(sorted((ch, w) for ch, w in words.items() if w)),
        tuple(sorted(ghost.items())),
    )


def _plain_successors(node, machines, bound: Bound) -> Iterator[tuple]:
    sigma_t, words_t, ghost_t = node
    sigma = dict(sigma_t)
    words = dict(words_t)
    ghost = dict(ghost_t)
    for a in sorted(sigma):
        for t in machines[a].out_of(sigma[a]):
            ev = t.event
            if ev.polarity == "!":
                key = (ev.cp, ev.channel)
                if ev.message == LOOP_START and ghost.get(key, 0) >= bound.max_rounds:
                    continue
                ns = dict(sigma)
                ns[a] = t.dst
                nw = dict(words)
                nw[ev.channel] = nw.get(ev.channel, ()) + ((ev.message, ev.cp),)
                ng = dict(ghost)
                if ev.message == LOOP_START:
                    ng[key] = ng.get(key, 0) + 1
                yield _plain_node(ns, nw, ng)
            else:
                w = words.get(ev.channel, ())
                if w and w[0] == (ev.message, ev.cp):
                    ns = dict(sigma)
                    ns[a] = t.dst
                    nw = dict(words)
                    nw[ev.channel] = w[1:]
                    yield _plain_node(ns, nw, ghost)


def plain_reachable(system: System, bound: Bound) -> PlainResult:
    """Reachability of the plain communicating machines, forward only.

    Round counting needs a memory the plain configurations lack (they
    drop consumed messages), so the search state carries ghost marker
    counters that are projected away from the reported set.
    """
    machines = {a: forget_machine(m) for a, m in system.machines.items()}
    start = _plain_node({a: m.initial for a, m in machines.items()}, {}, {})
    seen = {start}
    frontier = [start]
    depth = 0
    truncated = False
    while frontier:
        if depth == bound.max_steps:
            truncated = any(
                succ not in seen
                for node in frontier
                for succ in _plain_successors(node, machines, bound)
            )
            break
        layer = []
        for node in frontier:
            for succ in _plain_successors(node, machines, bound):
                if succ not in seen:
                    seen.add(succ)
                    layer.append(succ)
        frontier = layer
        depth += 1
    configs = frozenset((sigma, words) for sigma, words, _ in seen)
    return PlainResult(configs, truncated, depth)


# ---------------------------------------------------------------------------
# Checks


@dataclass
class CheckResult:
    name: str
    passed: bool
    inconclusive: bool
    details: str
    stats: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        if not self.passed:
            return "fail"
        return "inconclusive" if self.inconclusive else "pass"


def _format_plain(pc: PlainConfig) -> str:
    sigma, words = pc
    states = ", ".join(f"{a}:{q}" for a, q in sigma)
    if not words:
        return f"[{states}] empty channels"
    queues = "; ".join(
        f"{ch}=" + ".".join(m for m, _ in w) for ch, w in words
    )
    return f"[{states}] {queues}"


_NOT_EXHAUSTED = " (state space not exhausted at this bound)"

CHECKS = ("soundness", "completeness", "causal-consistency")


def _inclusion(
    name: str, inner: frozenset, outer: frozenset, truncated: bool, stats: dict, escape: str, summary: str
) -> CheckResult:
    """Pass when every configuration of ``inner`` also lies in ``outer``."""
    missing = sorted(inner - outer)
    if missing:
        return CheckResult(name, False, False, escape + _format_plain(missing[0]), dict(stats))
    detail = f"{len(inner)} {summary}"
    if truncated:
        detail += _NOT_EXHAUSTED
    return CheckResult(name, True, truncated, detail, dict(stats))


def _forward_checks(system: System, bound: Bound, plain: PlainResult) -> dict[str, CheckResult]:
    """Soundness (forward runs of the instrumented semantics stay inside
    the plain one) and completeness (every plain behaviour is realised by
    some instrumented run) from one forward search, which is freed on return.

    The search keeps one configuration per forward class, and the checks
    read only the classes' forgetful images, which every member of a class
    shares; ``instrumented_configs`` counts the classes.
    """
    dec = reachable(system, bound)
    images = frozenset(runtime.forget_config(c) for c in dec.configs)
    stats = {
        "instrumented_configs": len(dec.configs),
        "plain_configs": len(plain.configs),
        "images": len(images),
    }
    truncated = dec.truncated or plain.truncated
    return {
        "soundness": _inclusion(
            "soundness", images, plain.configs, truncated, stats,
            "instrumented run escapes the plain semantics: ",
            "forgetful images, all plain-reachable",
        ),
        "completeness": _inclusion(
            "completeness", plain.configs, images, truncated, stats,
            "plain configuration never realised: ",
            "plain configurations, all realised",
        ),
    }


def _causal_consistency(system: System, bound: Bound, plain: PlainResult) -> CheckResult:
    """Rollbacks land on configurations the plain semantics could reach.

    Every reversal edge found within the bound is checked twice: its
    target must pass the replay audit, and the target's forgetful image
    must lie in the plain reachable set.  A rollback that cannot be
    carried out at all fails the check.
    """
    analyzer = CausalityAnalyzer(system)
    try:
        dec = reachable(system, bound, with_reversals=True, analyzer=analyzer)
    except RollbackFailed as exc:
        stats = {"plain_configs": len(plain.configs)}
        return CheckResult("causal-consistency", False, False, str(exc), stats)
    stats = {
        "instrumented_configs": len(dec.configs),
        "plain_configs": len(plain.configs),
        "reversal_edges": len(dec.reversal_edges),
    }
    for pre, cand, post in dec.reversal_edges:
        problems = audit_configuration(post, system, analyzer)
        if problems:
            detail = (
                f"rollback of {cand.first_output.message} by {cand.participant}"
                f" leaves an inconsistent configuration: {problems[0]}"
            )
            return CheckResult("causal-consistency", False, False, detail, stats)
        if runtime.forget_config(post) not in plain.configs:
            detail = (
                f"rollback of {cand.first_output.message} by {cand.participant}"
                " reaches a configuration outside the plain semantics: "
                + _format_plain(runtime.forget_config(post))
            )
            return CheckResult("causal-consistency", False, False, detail, stats)
    if not dec.reversal_edges:
        detail = "no reversal was enabled within the bound"
        return CheckResult("causal-consistency", True, True, detail, stats)
    inconclusive = dec.truncated or plain.truncated
    detail = f"{len(dec.reversal_edges)} reversal edges, all consistent"
    if inconclusive:
        detail += _NOT_EXHAUSTED
    return CheckResult("causal-consistency", True, inconclusive, detail, stats)


def run_checks(system: System, bound: Bound, names: Optional[list[str]] = None) -> list[CheckResult]:
    """Run the named checks (all of ``CHECKS`` by default), in that order.

    One call runs each search at most once and derives every verdict
    from the shared results: the plain search always, the forward-only
    search for soundness and completeness, the search with reversals for
    causal consistency.
    """
    selected = list(names) if names else list(CHECKS)
    for name in selected:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; pick from {', '.join(CHECKS)}")
    plain = plain_reachable(system, bound)
    verdicts: dict[str, CheckResult] = {}
    if {"soundness", "completeness"} & set(selected):
        verdicts.update(_forward_checks(system, bound, plain))
    if "causal-consistency" in selected:
        verdicts["causal-consistency"] = _causal_consistency(system, bound, plain)
    return [verdicts[name] for name in selected]
