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

The clauses are written once, in a helper that lists one log's direct
dependants; which events each event's logs may precede, and the loop
refining each pair, are worked out once per analyzer.  A rollback asks
about one anchor, and by (1) the logs depending on it are a suffix of
each channel: one cut per channel, lowered by a worklist from the anchor
that expands each log once.  A rollback is that cut, one kept length per
channel, from ``rollback_cut`` to the new configuration, and the logs it
removes are :func:`logs_beyond` it.  No closure is built or cached.  The
rollback cuts of the last configuration asked about are kept, so that
listing a reversal and then carrying it out cuts once.  The replay of (4)
is shared with rollback (to restore receiver states) and the
configuration audit; only its end states and clause 4's counts are
cached, per participant and history.

The analyzer's queries are ``cut`` and ``rollback_cut``.  Three views
stay beside them: ``base_relation``, which ``chorrev simulate
--dump-causality`` prints, and the whole-history ``relation`` and
``rollback_points``, which nothing in chorrev calls but the benchmark's
tracer wraps by name.  The per-anchor ``effects`` and rollback-point test
live with the tests, in ``causality_oracle``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
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
    return [
        LoopRef(node.cp, node.controller, frozenset(cp for cp, _ in control_points(node.body)))
        for node in subterms(g)
        if isinstance(node, Loop)
    ]


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


def logs_beyond(cfg: Configuration, kept: list[int]) -> list[LogRef]:
    """The logs a cut removes: each channel's logs past its kept length."""
    return [(ch, log) for (ch, cs), n in zip(cfg.chi, kept) for log in cs.logs[n:]]


class CausalityAnalyzer:
    """Causality queries against one projected system.

    Two things are cached: replays, per participant and history, and the
    :meth:`rollback_cut` answers for the one configuration asked about
    last.
    """

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
        self._replays: dict[tuple, tuple[list[list[int]], frozenset[int]]] = {}
        # The last configuration :meth:`rollback_cut` answered for, and
        # its answers by anchor.
        self._last_cfg: Optional[Configuration] = None
        self._last_answers: dict[LogRef, Optional[list[int]]] = {}
        # For each static event, the events whose logs its logs may precede
        # by (3): each with the innermost loop that refines the pair, or
        # None, and whether the other event comes first statically.
        self._related: dict[Event, list[tuple[Event, Optional[LoopRef], bool]]] = {
            e: [] for e in self._events.values()
        }
        for e1 in self._related:
            for e2 in self._related:
                if e1 is not e2 and self.order.leq(e1, e2):
                    common = [L for L in self.loops if L.contains_cp(e1.cp) and L.contains_cp(e2.cp)]
                    loop = min(common, key=lambda L: len(L.body_cps), default=None)
                    self._related[e1].append((e2, loop, False))
                    if loop is not None:
                        self._related[e2].append((e1, loop, True))

    # -- direct dependencies -----------------------------------------------

    def _dependants(self, cfg: Configuration):
        """The one place the four clauses are written.

        Returns ``(refs, chan, first, dependants)``: the logs of
        :func:`all_log_refs`, each log's channel as its index in
        ``cfg.chi``, where each channel's logs start in ``refs`` (and one
        past the end), and a function from a log's index to its direct
        dependants, (index, clause tag) pairs in clause order.  A
        participant's replay is read when one of its inputs first needs it.
        """
        refs = all_log_refs(cfg)
        chan = [c for c, (_, cs) in enumerate(cfg.chi) for _ in cs.logs]
        first = [0, *accumulate(len(cs.logs) for _, cs in cfg.chi)]
        stamp = [log.timestamp for _, log in refs]
        events = [self._events[log.cp, log.message] for _, log in refs]
        by_event: dict[Event, list[int]] = {}
        for k, e in enumerate(events):
            by_event.setdefault(e, []).append(k)
        # Each loop's ``marker_rounds`` of every log, built when (3) first asks.
        rounds: dict[int, list[Optional[int]]] = {}
        forced: dict[str, dict[Channel, list[tuple[int, int]]]] = {}

        def forced_by(participant: str) -> dict[Channel, list[tuple[int, int]]]:
            # Each consumed channel's (output index, ``fewest``) pairs; none
            # without outputs, or when no replay completes.
            if participant not in forced:
                consumed, outputs = self._replay_setup(cfg, participant)
                fewest, ends = self._replay(participant, consumed, outputs) if outputs else ([], ())
                # The outputs' indices in ``refs``, in timestamp order like ``outputs``.
                index = sorted(
                    (k for c, (ch, _) in enumerate(cfg.chi) if ch.sender == participant
                     for k in range(first[c], first[c + 1])),
                    key=stamp.__getitem__,
                )
                forced[participant] = {
                    ch: list(zip(index, row)) for (ch, _), row in zip(consumed, fewest) if ends
                }
            return forced[participant]

        def dependants(k: int) -> list[tuple[int, str]]:
            ch = refs[k][0]
            c = chan[k]
            i = k - first[c]  # the log's position on its channel
            # (1) the later logs of the channel
            out = [(j, "channel-order") for j in range(k + 1, first[c + 1])]
            # (2) the later logs of the sender on its other channels: a
            # sender stamps a channel's logs in increasing order, so they
            # are a suffix of each
            for d, (other, _) in enumerate(cfg.chi):
                if d != c and other.sender == ch.sender:
                    later = bisect_right(stamp, stamp[k], first[d], first[d + 1])
                    out += [(j, "sender-order") for j in range(later, first[d + 1])]
            # (3) static order, refined by loop rounds
            for other, loop, earlier in self._related[events[k]]:
                if loop is None:
                    out += [(j, "static-order") for j in by_event.get(other, ()) if chan[j] != c]
                    continue
                rank = rounds.get(loop.cp)
                if rank is None:
                    rank = rounds[loop.cp] = [r for _, cs in cfg.chi for r in marker_rounds(loop, cs.logs)]
                if rank[k] is None:
                    continue
                out += [
                    (j, "loop-rounds")
                    for j in by_event.get(other, ())
                    if chan[j] != c
                    and rank[j] is not None
                    and (rank[k] < rank[j] if earlier else rank[k] <= rank[j])
                ]
            # (4) the outputs every replay emits after this consumed input
            if i < cfg.chi[c][1].head:
                row = forced_by(ch.receiver).get(ch, ())
                out += [(j, "replay-order") for j, bound in row if i < bound]
            return out

        return refs, chan, first, dependants

    def base_relation(self, cfg: Configuration) -> dict[tuple[LogRef, LogRef], list[str]]:
        """The asserted dependency edges with the clauses that produced them,
        each pair's tags in clause order."""
        refs, _, _, dependants = self._dependants(cfg)
        edges: dict[tuple[LogRef, LogRef], list[str]] = {}
        for k, ref in enumerate(refs):
            for j, why in dependants(k):
                edges.setdefault((ref, refs[j]), []).append(why)
        return edges

    # -- one anchor at a time ------------------------------------------------

    def cut(self, cfg: Configuration, anchor: LogRef) -> list[int]:
        """How many logs each channel of ``cfg.chi`` keeps once ``anchor``
        and everything depending on it are removed.

        By (1) the logs depending on one log are a suffix of each channel,
        so the up-set of ``anchor`` is one cut per channel.  A worklist
        from ``anchor`` expands each removed log once, and each direct
        dependant lowers its channel's cut.
        """
        refs, chan, first, dependants = self._dependants(cfg)
        cut = first[1:]  # the index in ``refs`` of each channel's first removed log
        k = refs.index(anchor)
        todo = list(range(k, cut[chan[k]]))
        cut[chan[k]] = k
        while todo:
            for j, _ in dependants(todo.pop()):
                c = chan[j]
                if j < cut[c]:
                    todo += range(j, cut[c])
                    cut[c] = j
        return [x - f for x, f in zip(cut, first)]

    def rollback_cut(self, cfg: Configuration, anchor: LogRef) -> Optional[list[int]]:
        """The :meth:`cut` of ``anchor`` if history can be rewound to it,
        otherwise ``None``.

        Both rules read the logs beyond the cut.  An anchor outside every
        loop qualifies only if it is the one log removed.  An anchor inside
        a loop qualifies while its outermost loop is still ongoing and every
        removed log belongs to that same loop.

        The answers for the last configuration asked about are kept, so
        that a reversal listed by one call and carried out by the next pays
        for one :meth:`cut`.  The slot holds that configuration itself and
        is matched by identity, so it cannot answer for another object.
        """
        if cfg is not self._last_cfg:
            self._last_cfg, self._last_answers = cfg, {}
        answers = self._last_answers
        if anchor not in answers:
            answers[anchor] = None
            encl = self._outermost.get(anchor[1].cp)
            if encl is None or ongoing(encl, cfg):
                kept = self.cut(cfg, anchor)
                removed = logs_beyond(cfg, kept)
                if len(removed) == 1 if encl is None else all(encl.contains_cp(log.cp) for _, log in removed):
                    answers[anchor] = kept
        return answers[anchor]

    # -- whole-history views, for the tests and the benchmark's tracer --------

    def relation(self, cfg: Configuration) -> dict[LogRef, frozenset[LogRef]]:
        """The full dependency relation, reflexive and transitive: the logs
        beyond each log's :meth:`cut`.  Nothing in chorrev calls it; it
        stays a method because the benchmark's tracer wraps it by name."""
        return {ref: frozenset(logs_beyond(cfg, self.cut(cfg, ref))) for ref in all_log_refs(cfg)}

    def rollback_points(self, cfg: Configuration) -> frozenset[LogRef]:
        """The logs that have a :meth:`rollback_cut`.  Nothing in chorrev
        calls it; it stays a method because the benchmark's tracer wraps it
        by name."""
        return frozenset(ref for ref in all_log_refs(cfg) if self.rollback_cut(cfg, ref) is not None)

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
