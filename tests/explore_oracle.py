"""The searches over every configuration, kept as test oracles.

``reachable`` is the first implementation of
:func:`chorrev.explore.reachable` without reversals: it keeps every
configuration it meets, timestamps and sender states included.  On travel
at two loop rounds that is 25,203 configurations for 240 forgetful images,
so the package keeps one configuration per ``forward_key``.

``reachable_with_reversals`` is the search with reversals as it was before
the package kept whole histories only in live forward classes: 33,299
configurations on travel at two loop rounds, of which 1,979 lie in live
classes.  The differential tests compare each oracle with the package.

``keyed_successors`` finds the forward moves of every configuration it is
handed, where the package's searches find them once per forward class.
"""

from __future__ import annotations

from typing import Iterator, Optional

from chorrev import reverse, runtime
from chorrev.causality import CausalityAnalyzer
from chorrev.explore import Bound, ExplorationResult, _successor_key
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
