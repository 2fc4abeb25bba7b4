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
configuration and reversal targets are keyed from scratch.

One :class:`ClassTable` interns the keys met as small int ids: a key's
tuple is hashed where it is made, and every later lookup is by id.  The
table decides once per class what every member shares: its moves, listed
by the first member asked and only applied by the others; its reversible
branch families, the class being hot when there is one; and whether it
is live.  It also keeps the first member met.  The search with reversals
asks for reversals only in hot classes, hands over their families, and
builds no successor for a move into a dead class it has already seen.
The forward search is a breadth-first walk over the table's ids that
lists only the classes not listed yet, so ``run_checks`` runs it on the
table the search with reversals filled, and steps only where that search
left a class unlisted.

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


def _step(cfg: Configuration, system: System, a: str, t: Transition) -> Configuration:
    if t.event.polarity == "!":
        return runtime.step_output(cfg, system, a, t)
    return runtime.step_input(cfg, system, a, t)


def _depth(cfg: Configuration) -> int:
    """The forward steps that build ``cfg``: one per log and one per
    consumed log.  A reversal only removes logs, so no run reaches ``cfg``
    in fewer steps."""
    return sum(len(cs.logs) + cs.head for _, cs in cfg.chi)


class ClassTable:
    """The forward classes of one ``run_checks``, each interned as a small int id.

    ``ids`` maps a ``forward_key`` to its id; the initial configuration's
    class is id 0.  Per id the table holds the key; the first member met,
    a configuration built by the checked steps; the class's moves within
    the round bound, in ``enabled_forward`` order, as (participant,
    transition, successor id); its branch families that pass
    :func:`~chorrev.reverse.reversible_families`, the class being hot when
    there is one; and whether it is live, some forward run from it within
    the bound reaching a hot class.  The last three read only the key, so
    any member answers for its class, once; ``None`` marks what no member
    was asked yet.  The search with reversals fills the table, and the
    forward search (:func:`_forward_walk`) walks it, listing the moves of
    any class the first did not reach.
    """

    def __init__(self, system: System, bound: Bound):
        self.system = system
        self.bound = bound
        self.ids: dict[tuple, int] = {}
        self.keys: list[tuple] = []
        self.members: list[Configuration] = []
        self.moves: list[Optional[list[tuple[str, Transition, int]]]] = []
        self.families: list[Optional[tuple]] = []
        self.live: list[Optional[bool]] = []
        init = runtime.initial_configuration(system)
        self.intern(forward_key(init), init)

    def intern(self, key: tuple, member: Configuration) -> int:
        """The id of the class keyed ``key``, a new one if it was not met,
        whose first member is then ``member``."""
        cid = self.ids.setdefault(key, len(self.keys))
        if cid == len(self.keys):
            self.keys.append(key)
            self.members.append(member)
            self.moves.append(None)
            self.families.append(None)
            self.live.append(None)
        return cid

    def successors(
        self, cfg: Configuration, cid: int, wanted: Callable[[int], bool]
    ) -> list[tuple[Configuration, int]]:
        """Each forward successor of ``cfg``, a member of class ``cid``,
        within the round bound, with its class, leaving out the moves into
        a class that ``wanted`` refuses.

        The first member asked about lists the class's moves, and builds
        every successor to key it (see :func:`_successor_key`).  Later
        members build only the successors wanted.
        """
        moves = self.moves[cid]
        if moves is not None:
            return [(_step(cfg, self.system, a, t), b) for a, t, b in moves if wanted(b)]
        moves = self.moves[cid] = []
        key = self.keys[cid]
        succs = []
        for a, t in runtime.enabled_forward(cfg, self.system):
            ev = t.event
            if ev.polarity == "!" and ev.message == LOOP_START:
                # The continue markers of the loop in the channel's history.
                logs = cfg.channel_state(ev.channel).logs
                if sum(log.message == LOOP_START and log.cp == ev.cp for log in logs) >= self.bound.max_rounds:
                    continue
            succ = _step(cfg, self.system, a, t)
            b = self.intern(_successor_key(key, succ, ev), succ)
            moves.append((a, t, b))
            succs.append((succ, b))
        return [(succ, b) for succ, b in succs if wanted(b)]

    def moves_of(self, cid: int) -> list[tuple[str, Transition, int]]:
        """The moves of class ``cid``, listed from its first member if no
        member listed them yet."""
        if self.moves[cid] is None:
            self.successors(self.members[cid], cid, lambda b: False)
        return self.moves[cid]

    def families_of(self, cid: int, cfg: Configuration) -> tuple:
        """The reversible branch families of class ``cid``, of which
        ``cfg`` is a member; the class is hot when there is one."""
        families = self.families[cid]
        if families is None:
            families = self.families[cid] = tuple(reverse.reversible_families(cfg, self.system))
        return families

    def is_live(self, cid: int, cfg: Configuration) -> bool:
        """Whether class ``cid``, of which ``cfg`` is a member, is live.

        A hot class deeper than the step bound counts for nothing, as no
        run within the bound reaches it (see :func:`_depth`).  The class
        graph is acyclic, since every forward move adds one to the depth,
        so one iterative post-order pass decides a class and every class
        below it; it builds only the successors whose class is undecided.
        """
        live = self.live
        if live[cid] is not None:
            return live[cid]

        def undecided(b: int) -> bool:
            return live[b] is None

        stack = [(cfg, cid)]
        expanded = set()
        while stack:
            c, i = stack[-1]
            if live[i] is not None:
                stack.pop()
            elif i in expanded:
                stack.pop()
                live[i] = any(live[b] for _, _, b in self.moves[i])
            elif _depth(c) > self.bound.max_steps:
                stack.pop()
                live[i] = False
            elif self.families_of(i, c):
                stack.pop()
                live[i] = True
            else:
                expanded.add(i)
                stack += self.successors(c, i, undecided)
        return live[cid]


def _forward_walk(table: ClassTable) -> ExplorationResult:
    """The forward search: breadth-first over the class ids of ``table``
    from the initial class, within the step bound.

    It builds no configuration for a class whose moves are listed, and
    lists the moves of any other from its first member.  ``configs`` holds
    the first member of each class met, whose forgetful image every member
    shares.  A class's breadth-first depth is its :func:`_depth`, whatever
    filled the table, so the walk meets the classes, ``truncated`` and
    ``steps_explored`` of the search over every forward configuration.
    """
    seen = {0}
    frontier = [0]
    depth = 0
    truncated = False
    while frontier:
        if depth == table.bound.max_steps:
            truncated = any(b not in seen for cid in frontier for _, _, b in table.moves_of(cid))
            break
        layer = []
        for cid in frontier:
            for _, _, b in table.moves_of(cid):
                if b not in seen:
                    seen.add(b)
                    layer.append(b)
        frontier = layer
        depth += 1
    return ExplorationResult(frozenset(table.members[cid] for cid in seen), truncated, (), depth)


def reachable(
    system: System,
    bound: Bound,
    with_reversals: bool = False,
    analyzer: Optional[CausalityAnalyzer] = None,
    table: Optional[ClassTable] = None,
) -> ExplorationResult:
    """Breadth-first reachability of the instrumented semantics, on the
    ids of ``table`` (a new :class:`ClassTable` if none is passed).

    Without reversals this is :func:`_forward_walk`: one configuration per
    forward class, the first met.  Soundness and completeness read only
    forgetful images, which a class shares.

    With reversals a configuration is kept whole when its forward class is
    live (see :class:`ClassTable`) and otherwise as one configuration per
    class.  The search is exact where a reversal can read history.  A
    forward step into a live class starts in a live class, and a reversal
    within the bound starts in a hot class within the bound, which is live.
    So every path to a reversal's source runs through live classes, which
    the search keeps as it would keep every configuration: the same sources
    at the same depth and in the same frontier order.  Every reversal edge,
    in order, and the first :class:`~chorrev.reverse.RollbackFailed` are
    those of the search that keeps every configuration.  A dead class's
    configurations enable no reversal and lead only to dead classes, where
    a forward move reads nothing but the key.

    The frontier holds each configuration with its class, ``seen`` holds a
    dead class by its id, and a forward successor's key is derived from
    its parent's (see :func:`_successor_key`); :func:`forward_key` runs on
    the initial configuration and on reversal targets only.  Two gates
    save work without changing a result:

    - ``enabled_reversals`` is asked only of members of hot classes, and
      is handed the class's families.  Every reversal passes
      :func:`~chorrev.reverse.reversible_families`, which reads only the
      states, the book and message counts over a channel's whole history.
      The key holds the states and the book, and a channel's counts are
      those of its pending word plus its consumed multiset, so every
      member of a class has the class's families.
    - A move into a class that is known dead and already seen builds no
      configuration: its successor would be dropped as met.

    ``truncated`` says that the last frontier, at the step bound, has a
    successor not yet met or an enabled reversal, whose edge goes unchecked.
    """
    table = ClassTable(system, bound) if table is None else table
    if not with_reversals:
        return _forward_walk(table)
    analyzer = CausalityAnalyzer(system) if analyzer is None else analyzer
    live = table.live

    def class_of(cfg: Configuration, cid: int):
        return cfg if table.is_live(cid, cfg) else cid

    def wanted(cid: int) -> bool:
        return live[cid] is not False or cid not in seen

    def reversals(cfg: Configuration, cid: int) -> list[ReversalCandidate]:
        families = table.families_of(cid, cfg)
        return reverse.enabled_reversals(cfg, system, analyzer, families=families) if families else []

    init = table.members[0]
    seen = {class_of(init, 0): init}
    frontier = [(init, 0)]
    edges: list[tuple[Configuration, ReversalCandidate, Configuration]] = []
    depth = 0
    truncated = False
    while frontier:
        if depth == bound.max_steps:
            truncated = any(
                class_of(succ, b) not in seen
                for cfg, cid in frontier
                for succ, b in table.successors(cfg, cid, wanted)
            ) or any(reversals(cfg, cid) for cfg, cid in frontier)
            break
        layer: list[tuple[Configuration, int]] = []
        for cfg, cid in frontier:
            succs = table.successors(cfg, cid, wanted)
            for cand in reversals(cfg, cid):
                succ = reverse.step_reverse(cfg, system, cand, analyzer)
                edges.append((cfg, cand, succ))
                succs.append((succ, table.intern(forward_key(succ), succ)))
            for succ, b in succs:
                # One lookup: ``succ`` comes back only when it was not met before.
                if seen.setdefault(class_of(succ, b), succ) is succ:
                    layer.append((succ, b))
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


def _forward_checks(dec: ExplorationResult, plain: PlainResult) -> dict[str, CheckResult]:
    """Soundness (forward runs of the instrumented semantics stay inside
    the plain one) and completeness (every plain behaviour is realised by
    some instrumented run) from the forward search ``dec``.

    The search keeps one configuration per forward class, and the checks
    read only the classes' forgetful images, which every member of a class
    shares; ``instrumented_configs`` counts the classes.
    """
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


def _causal_consistency(system: System, bound: Bound, plain: PlainResult, table: ClassTable) -> CheckResult:
    """Rollbacks land on configurations the plain semantics could reach.

    Every reversal edge found within the bound by the search with
    reversals, which fills ``table``, is checked: its target must pass the
    replay audit, and the target's forgetful image must lie in the plain
    reachable set.  Both read only the target, so each distinct target is
    checked once, at its first edge, and the first edge that fails is
    still the one named.  A rollback that cannot be carried out at all
    fails the check.
    """
    analyzer = CausalityAnalyzer(system)
    try:
        dec = reachable(system, bound, with_reversals=True, analyzer=analyzer, table=table)
    except RollbackFailed as exc:
        stats = {"plain_configs": len(plain.configs)}
        return CheckResult("causal-consistency", False, False, str(exc), stats)
    stats = {
        "instrumented_configs": len(dec.configs),
        "plain_configs": len(plain.configs),
        "reversal_edges": len(dec.reversal_edges),
    }
    checked: set[Configuration] = set()
    for pre, cand, post in dec.reversal_edges:
        if post in checked:
            continue
        checked.add(post)
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
    from the shared results: the plain search always, and one
    :class:`ClassTable`.  The search with reversals, for causal
    consistency, fills the table; soundness and completeness then walk it
    (:func:`_forward_walk`), listing only the classes the first search
    left out, as when a rollback failed.  Without causal consistency they
    run the forward search alone.
    """
    selected = list(names) if names else list(CHECKS)
    for name in selected:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; pick from {', '.join(CHECKS)}")
    plain = plain_reachable(system, bound)
    verdicts: dict[str, CheckResult] = {}
    table = None
    if "causal-consistency" in selected:
        table = ClassTable(system, bound)
        verdicts["causal-consistency"] = _causal_consistency(system, bound, plain, table)
    if {"soundness", "completeness"} & set(selected):
        dec = reachable(system, bound) if table is None else _forward_walk(table)
        verdicts.update(_forward_checks(dec, plain))
    return [verdicts[name] for name in selected]
