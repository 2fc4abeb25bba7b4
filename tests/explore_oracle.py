"""The searches that the package's searches replaced, kept as test oracles.

``reachable`` is the first implementation of
:func:`chorrev.explore.reachable` without reversals: it keeps every
configuration it meets, timestamps and sender states included.  On travel
at two loop rounds that is 25,203 configurations for 240 forgetful images,
so the package keeps one configuration per ``forward_key``.

``reachable_with_reversals`` is the search with reversals as it was before
the package kept whole histories only in live forward classes: 33,299
configurations on travel at two loop rounds, of which 1,979 lie in live
classes.

``reachable_by_key`` is the search on classes as it was before the package
interned each forward key as an int in one ``ClassTable`` per search: a
move table keyed by whole keys (``_successors``), a memoised ``liveness``
predicate, no gate on ``enabled_reversals`` and a configuration built for
every listed move.  The differential tests compare each oracle with the
package.

``keyed_successors`` finds the forward moves of every configuration it is
handed, where the package's searches find them once per forward class.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from chorrev import reverse, runtime
from chorrev.causality import CausalityAnalyzer
from chorrev.explore import (
    Bound,
    ExplorationResult,
    _depth,
    _step,
    _successor_key,
    forward_key,
)
from chorrev.machine import Transition
from chorrev.model import LOOP_START
from chorrev.order import CommEvent
from chorrev.projection import System
from chorrev.reverse import ReversalCandidate
from chorrev.runtime import Configuration


def forward_moves(
    cfg: Configuration, system: System, bound: Bound
) -> Iterator[tuple[Configuration, CommEvent]]:
    """Every forward move of ``cfg``, except a loop start past the round
    bound, as the successor and the event of the move."""
    for a, t in runtime.enabled_forward(cfg, system):
        ev = t.event
        if ev.polarity == "?":
            yield runtime.step_input(cfg, system, a, t), ev
            continue
        if ev.message == LOOP_START:
            markers = sum(
                1
                for log in cfg.channel_state(ev.channel).logs
                if log.message == LOOP_START and log.cp == ev.cp
            )
            if markers >= bound.max_rounds:
                continue
        yield runtime.step_output(cfg, system, a, t), ev


def successors(cfg: Configuration, system: System, bound: Bound) -> Iterator[Configuration]:
    """Every forward successor of ``cfg`` within the round bound."""
    return (succ for succ, _ in forward_moves(cfg, system, bound))


def keyed_successors(
    cfg: Configuration, key: tuple, system: System, bound: Bound
) -> list[tuple[Configuration, tuple]]:
    """Every forward successor of ``cfg``, whose key is ``key``, within the
    round bound, with its key: the moves asked of ``cfg`` itself, where
    the package asks them once per forward class."""
    return [(succ, _successor_key(key, succ, ev)) for succ, ev in forward_moves(cfg, system, bound)]


def reachable(system: System, bound: Bound) -> ExplorationResult:
    """Breadth-first search of the forward semantics, keeping every configuration."""
    init = runtime.initial_configuration(system)
    seen = {init}
    frontier = [init]
    depth = 0
    truncated = False
    while frontier:
        if depth == bound.max_steps:
            truncated = any(
                succ not in seen
                for cfg in frontier
                for succ in successors(cfg, system, bound)
            )
            break
        layer = []
        for cfg in frontier:
            for succ in successors(cfg, system, bound):
                if succ not in seen:
                    seen.add(succ)
                    layer.append(succ)
        frontier = layer
        depth += 1
    return ExplorationResult(frozenset(seen), truncated, (), depth)


def reachable_with_reversals(
    system: System, bound: Bound, analyzer: Optional[CausalityAnalyzer] = None
) -> ExplorationResult:
    """Breadth-first search with reversals, keeping every configuration.

    A failed rollback raises :class:`~chorrev.reverse.RollbackFailed`.  A
    reversal enabled at the last frontier leaves the search truncated.
    """
    analyzer = analyzer or CausalityAnalyzer(system)
    init = runtime.initial_configuration(system)
    seen = {init}
    frontier = [init]
    edges: list[tuple[Configuration, ReversalCandidate, Configuration]] = []
    depth = 0
    truncated = False
    while frontier:
        if depth == bound.max_steps:
            truncated = any(
                succ not in seen
                for cfg in frontier
                for succ in successors(cfg, system, bound)
            ) or any(reverse.enabled_reversals(cfg, system, analyzer) for cfg in frontier)
            break
        layer = []
        for cfg in frontier:
            for succ in successors(cfg, system, bound):
                if succ not in seen:
                    seen.add(succ)
                    layer.append(succ)
            for cand in reverse.enabled_reversals(cfg, system, analyzer):
                succ = reverse.step_reverse(cfg, system, cand, analyzer)
                edges.append((cfg, cand, succ))
                if succ not in seen:
                    seen.add(succ)
                    layer.append(succ)
        frontier = layer
        depth += 1
    return ExplorationResult(frozenset(seen), truncated, tuple(edges), depth)


# ---------------------------------------------------------------------------
# The search on classes keyed by whole forward keys


# A forward class's moves within the round bound, in ``enabled_forward``
# order, each as (participant, transition, successor key).
MoveTable = dict[tuple, list[tuple[str, Transition, tuple]]]


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


def reachable_by_key(
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
