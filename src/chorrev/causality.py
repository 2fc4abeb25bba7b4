"""Causal dependencies between the message logs of a configuration.

Rolling back a message must also roll back everything that causally
depended on it.  The dependency relation between logs is built from four
ingredients and then closed under transitivity:

1. logs on the same channel are ordered by their timestamps (the channel
   is a queue fed by a single sender);
2. logs of the same sender are ordered by its send counter across all of
   its channels (the sender's own program order);
3. the static order of the choreography orders logs of different
   channels, except between loop iterations, where the start/end markers
   on the two channels are compared instead: a log of a later round
   depends on a log of an earlier round even when the static order of
   their events says the opposite.  Channels that never carry the loop's
   markers have no observable round, so no such edge is asserted for
   them.  Two marker logs of one multicast map to the same static event
   and are ordered by (2) alone;
4. at each participant, a consumed input precedes a sent output if the
   machine could not have produced that send before that receive in any
   replay of its recorded history.

Each fact is derived once per history: (1) and (2) in one walk over each
sender's logs, (3) once per pair of events with each log's round read
once per loop, and (4) from one count per input channel and output.  The
closure, one bit mask per log closed Warshall-style, is the one form of
the relation cached per history; ``effects`` and ``rollback_points`` read
it, and the tagged edges are dropped after each call.  The replay of (4)
is shared with rollback (to restore receiver states) and with the
configuration audit: one iterative pass over the replay nodes, layered by
move count, finds the end states and clause 4's counts, and only those
are cached per participant and history, never the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional

from .model import Channel, Chor, LOOP_END, LOOP_START, Loop, control_points, subterms
from .order import CommEvent, Event, EventOrder, GateEvent
from .projection import System
from .runtime import Configuration, Log

LogRef = tuple[Channel, Log]

# The log message that marks each kind of loop gate event.
_MARKERS = {"loop_start": LOOP_START, "loop_end": LOOP_END}


@dataclass(frozen=True)
class LoopRef:
    cp: int
    controller: str
    body_cps: frozenset[int]

    def contains_cp(self, cp: int) -> bool:
        return cp == self.cp or cp in self.body_cps


def loops_of(g: Chor) -> list[LoopRef]:
    out = []
    for node in subterms(g):
        if isinstance(node, Loop):
            out.append(
                LoopRef(
                    node.cp,
                    node.controller,
                    frozenset(cp for cp, _ in control_points(node.body)),
                )
            )
    return out


def marker_rounds(loop: LoopRef, logs: tuple[Log, ...]) -> list[Optional[int]]:
    """The iteration of ``loop`` that each of one channel's logs belongs to.

    Rounds are measured by the loop's markers on that channel: a log after
    k end markers, or after k+1 start markers, is in round k.  The round
    is None when no marker of the loop appears at or before the log, so a
    channel that never carries the loop's markers has no rounds at all.
    """
    rounds: list[Optional[int]] = []
    starts = ends = 0
    for log in logs:
        marker = log.message if log.cp == loop.cp else None
        starts += marker == LOOP_START
        rounds.append(max(ends, starts - 1) if starts or ends else None)
        ends += marker == LOOP_END
    return rounds


def ongoing(loop: LoopRef, cfg: Configuration) -> bool:
    """Is the loop still running somewhere in the recorded history?

    It is on a channel whose last marker of the loop is a start, or where
    an end marker sits at or after the head, still in flight.  Each
    channel is read once.
    """
    for _, cs in cfg.chi:
        last = None
        for i, log in enumerate(cs.logs):
            if log.cp == loop.cp and log.message in (LOOP_START, LOOP_END):
                if log.message == LOOP_END and i >= cs.head:
                    return True
                last = log.message
        if last == LOOP_START:
            return True
    return False


def all_log_refs(cfg: Configuration) -> list[LogRef]:
    return [(ch, log) for ch, cs in cfg.chi for log in cs.logs]


class CausalityAnalyzer:
    """Causality queries against one projected system, with caching."""

    def __init__(self, system: System):
        self.system = system
        self.order: EventOrder = system.order
        # The static event of each log, keyed like the log: (cp, message).
        self._events: dict[tuple[int, str], Event] = {}
        for e in self.order.events:
            if isinstance(e, CommEvent) and e.polarity == "!":
                self._events[e.cp, e.message] = e
            elif isinstance(e, GateEvent) and e.kind in _MARKERS:
                self._events[e.cp, _MARKERS[e.kind]] = e
        self.loops = loops_of(system.chor)
        # The outermost loop around each control point: an enclosing loop
        # has the larger body, so it is written last.
        self._outermost: dict[int, LoopRef] = {}
        for L in sorted(self.loops, key=lambda L: len(L.body_cps)):
            self._outermost.update(dict.fromkeys(L.body_cps | {L.cp}, L))
        self._relations: dict[tuple, dict[LogRef, frozenset[LogRef]]] = {}
        self._replays: dict[tuple, tuple[list[list[int]], frozenset[int]]] = {}

    # -- static helpers ------------------------------------------------

    def _innermost_common_loop(self, cp1: int, cp2: int) -> Optional[LoopRef]:
        common = [
            L for L in self.loops if L.contains_cp(cp1) and L.contains_cp(cp2)
        ]
        if not common:
            return None
        return min(common, key=lambda L: len(L.body_cps))

    # -- the relation ----------------------------------------------------

    def base_relation(self, cfg: Configuration) -> dict[tuple[LogRef, LogRef], list[str]]:
        """The asserted dependency edges with the clauses that produced them,
        each pair's tags in clause order."""
        edges: dict[tuple[LogRef, LogRef], list[str]] = {}
        refs = all_log_refs(cfg)

        def add(src: int, dst: int, why: str) -> None:
            edges.setdefault((refs[src], refs[dst]), []).append(why)

        # The channel of each of ``refs``, as its index in ``cfg.chi``.
        chan = [c for c, (_, cs) in enumerate(cfg.chi) for _ in cs.logs]

        # (1) and (2): the logs of each sender, channel by channel
        sent: dict[str, list[int]] = {}
        for k, (ch, _) in enumerate(refs):
            sent.setdefault(ch.sender, []).append(k)
        for ks in sent.values():
            for i, a in enumerate(ks):
                for b in ks[i + 1 :]:
                    if chan[a] == chan[b]:
                        add(a, b, "channel-order")
                    elif refs[a][1].timestamp < refs[b][1].timestamp:
                        add(a, b, "sender-order")
                    elif refs[b][1].timestamp < refs[a][1].timestamp:
                        add(b, a, "sender-order")

        # (3) static order, refined by loop rounds.  The order and the
        # innermost common loop are asked once per pair of events, and the
        # round of each log once per loop.
        rounds: dict[int, list[Optional[int]]] = {}
        by_event: dict[Event, list[int]] = {}
        for k, (_, log) in enumerate(refs):
            by_event.setdefault(self._events[log.cp, log.message], []).append(k)
        for e1, firsts in by_event.items():
            for e2, seconds in by_event.items():
                if e1 is e2 or not self.order.leq(e1, e2):
                    continue
                loop = self._innermost_common_loop(
                    refs[firsts[0]][1].cp, refs[seconds[0]][1].cp
                )
                if loop is not None and loop.cp not in rounds:
                    rounds[loop.cp] = [
                        r for _, cs in cfg.chi for r in marker_rounds(loop, cs.logs)
                    ]
                rank = rounds[loop.cp] if loop is not None else None
                for a in firsts:
                    for b in seconds:
                        if chan[a] == chan[b]:
                            continue
                        if rank is None:
                            add(a, b, "static-order")
                        elif rank[a] is None or rank[b] is None:
                            continue
                        elif rank[a] <= rank[b]:
                            add(a, b, "loop-rounds")
                        else:
                            add(b, a, "loop-rounds")

        # (4) forced receive-before-send order at each participant
        for participant in self.system.machines:
            for pair in self._forced_pairs(cfg, participant):
                edges.setdefault(pair, []).append("replay-order")
        return edges

    def relation(self, cfg: Configuration) -> dict[LogRef, frozenset[LogRef]]:
        """The full dependency relation, reflexive and transitive: for each
        log, the logs that depend on it, itself included.

        Cached per history.  On a miss, each log gets a bit mask over the
        positions of :func:`all_log_refs` from the edges of
        :meth:`base_relation`; the masks are closed Warshall-style, which
        terminates on cycles."""
        cached = self._relations.get(cfg.chi)
        if cached is not None:
            return cached
        refs = all_log_refs(cfg)
        index = {ref: i for i, ref in enumerate(refs)}
        reach = [1 << i for i in range(len(refs))]
        for src, dst in self.base_relation(cfg):
            reach[index[src]] |= 1 << index[dst]
        for k, via in enumerate(reach):
            for i, row in enumerate(reach):
                if row >> k & 1:
                    reach[i] = row | via
        # bin() lists the bits highest first; reversed, bit i lines up with refs[i].
        closure = {
            ref: frozenset(compress(refs, map(int, bin(mask)[:1:-1])))
            for ref, mask in zip(refs, reach)
        }
        self._relations[cfg.chi] = closure
        return closure

    def effects(self, cfg: Configuration, ref: LogRef) -> frozenset[LogRef]:
        """Everything that must be undone together with ``ref`` (inclusive)."""
        return self.relation(cfg)[ref]

    # -- rollback points ---------------------------------------------------

    def rollback_points(self, cfg: Configuration) -> frozenset[LogRef]:
        """Logs history can be rewound to.

        A log outside every loop qualifies only if nothing depends on it.
        A log inside a loop qualifies while its outermost loop is still
        ongoing and everything depending on it belongs to that same loop.
        Each call reads the cached :meth:`relation`, caches nothing itself
        and asks :func:`ongoing` at most once per loop.
        """
        rel = self.relation(cfg)
        # The logs of each outermost loop, or none while it is not ongoing.
        inside: dict[int, frozenset[LogRef]] = {}
        points = []
        for ref, dependants in rel.items():
            encl = self._outermost.get(ref[1].cp)
            if encl is None:
                if len(dependants) == 1:
                    points.append(ref)
                continue
            if encl.cp not in inside:
                inside[encl.cp] = frozenset(
                    other for other in rel if encl.contains_cp(other[1].cp)
                ) if ongoing(encl, cfg) else frozenset()
            if dependants <= inside[encl.cp]:
                points.append(ref)
        return frozenset(points)

    # -- replay ------------------------------------------------------------

    def _replay_setup(self, cfg: Configuration, participant: str):
        """The participant's consumed inputs, one (channel, logs) pair per
        channel in channel order, and its outputs in timestamp order."""
        consumed: list[tuple[Channel, tuple[Log, ...]]] = []
        outputs: list[LogRef] = []
        for ch, cs in cfg.chi:
            if ch.receiver == participant and cs.head:
                consumed.append((ch, cs.logs[: cs.head]))
            if ch.sender == participant:
                outputs.extend((ch, log) for log in cs.logs)
        outputs.sort(key=lambda ref: ref[1].timestamp)
        return tuple(consumed), tuple(outputs)

    def _replay(self, participant: str, consumed, outputs):
        """What every complete replay of a participant's history shows.

        A replay node is (machine state, per-channel consumption index...,
        emission index).  Inputs of one channel replay in queue order,
        outputs in timestamp order, and an output also needs the machine in
        the state its log recorded.  Every move raises one index by one, so
        the nodes fall into layers by move count and the last layer holds
        exactly the final nodes.  One forward pass builds the layers, asking
        each node's moves once; one backward pass marks the nodes that can
        complete and, at each output move into such a node, lowers
        ``fewest[k][j]``: the fewest inputs of channel ``k`` consumed at a
        complete node that emits output ``j``.

        Returns ``(fewest, ends)``, ``ends`` being the machine states of the
        final nodes, empty when no replay completes.  Only these are cached,
        keyed by the participant and its history; the layers are dropped.
        """
        key = (participant, consumed, outputs)
        cached = self._replays.get(key)
        if cached is not None:
            return cached
        machine = self.system.machines[participant]
        # Each layer is a list of (node, [(output index or None, next node)]).
        layers = [[((machine.initial,) + (0,) * (len(consumed) + 1), [])]]
        for _ in range(sum(len(logs) for _, logs in consumed) + len(outputs)):
            reached: dict[tuple, list] = {}
            for node, moves in layers[-1]:
                state = node[0]
                for k, (ch, logs) in enumerate(consumed):
                    i = node[1 + k]
                    if i < len(logs):
                        t = machine.step(state, CommEvent(ch, "?", logs[i].cp, logs[i].message))
                        if t is not None:
                            moves.append((None, (t.dst,) + node[1 : 1 + k] + (i + 1,) + node[2 + k :]))
                j = node[-1]
                if j < len(outputs):
                    ch, log = outputs[j]
                    if state == log.sender_state:
                        t = machine.step(state, CommEvent(ch, "!", log.cp, log.message))
                        if t is not None:
                            moves.append((j, (t.dst,) + node[1:-1] + (j + 1,)))
                for _, nxt in moves:
                    reached.setdefault(nxt, [])
            layers.append(list(reached.items()))
        complete = {node for node, _ in layers[-1]}
        fewest = [[len(logs)] * len(outputs) for _, logs in consumed]
        for layer in reversed(layers[:-1]):
            for node, moves in layer:
                for j, nxt in moves:
                    if nxt in complete:
                        complete.add(node)
                        if j is not None:
                            for k, row in enumerate(fewest):
                                row[j] = min(row[j], node[1 + k])
        result = (fewest, frozenset(node[0] for node, _ in layers[-1]))
        self._replays[key] = result
        return result

    def _forced_pairs(self, cfg: Configuration, participant: str):
        """Input/output log pairs ordered the same way in every replay: the
        inputs of a channel below ``fewest`` for an output precede it."""
        consumed, outputs = self._replay_setup(cfg, participant)
        if not consumed or not outputs:
            return []
        fewest, ends = self._replay(participant, consumed, outputs)
        if not ends:
            return []
        return [
            ((ch, log), outputs[j])
            for (ch, logs), row in zip(consumed, fewest)
            for i, log in enumerate(logs)
            for j in range(len(outputs))
            if i < row[j]
        ]

    def replay_end_states(self, cfg: Configuration, participant: str) -> frozenset[int]:
        """Machine states a full replay of the recorded history can end in."""
        return self._replay(participant, *self._replay_setup(cfg, participant))[1]


def audit_configuration(cfg: Configuration, system: System, analyzer: Optional[CausalityAnalyzer] = None) -> list[str]:
    """Diagnostic consistency check of a configuration against its history.

    For every participant, some complete replay of its consumed inputs and
    sent outputs must exist and be able to end in its current state.
    """
    analyzer = analyzer or CausalityAnalyzer(system)
    problems = []
    for a in sorted(system.machines):
        ends = analyzer.replay_end_states(cfg, a)
        if not ends:
            problems.append(f"{a}: recorded history cannot be replayed at all")
        elif cfg.state_of(a) not in ends:
            problems.append(
                f"{a}: current state {cfg.state_of(a)} unreachable by replay"
                f" (possible: {sorted(ends)})"
            )
    return problems
