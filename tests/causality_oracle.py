"""The per-pair causality builder that ``chorrev.causality`` replaced.

It is kept as a test-only oracle.  Each clause is asserted pair by pair:
``round_of`` rescans a channel for every pair of clause 3, and whether a
channel carries a loop's markers is asked again for each pair.  The
closure runs one depth-first search per log, clause 4 collects every
unforced (channel, input, output) triple, and ``ongoing`` rescans a
channel for an end marker after each start marker.  The replay graph is
built by a recursive depth-first search for the nodes that can complete,
then a second walk that asks every node's moves again; it is cached whole
per history, as is the closure.  ``test_causality_oracle`` requires the
same tagged edges, relation, effects, rollback points, ``ongoing``,
forced pairs and replay end states from both builders.
"""

from __future__ import annotations

from typing import Optional

from chorrev.causality import CausalityAnalyzer, LogRef, LoopRef, all_log_refs
from chorrev.model import Channel, LOOP_END, LOOP_START
from chorrev.order import CommEvent
from chorrev.runtime import Configuration, Log


def round_of(idx: int, loop: LoopRef, channel_logs: tuple[Log, ...]) -> Optional[int]:
    """The iteration of ``loop`` that the log at position ``idx`` of one
    channel's logs belongs to, or None before the loop's first marker."""
    ends_before = sum(
        1
        for l in channel_logs[:idx]
        if l.cp == loop.cp and l.message == LOOP_END
    )
    starts_at_or_before = sum(
        1
        for l in channel_logs[: idx + 1]
        if l.cp == loop.cp and l.message == LOOP_START
    )
    if ends_before == 0 and starts_at_or_before == 0:
        return None
    return max(ends_before, starts_at_or_before - 1)


def ongoing(loop: LoopRef, cfg: Configuration) -> bool:
    """True while some channel saw a start marker with no end marker after
    it, or an end marker is still in flight."""
    for _, cs in cfg.chi:
        logs = cs.logs
        for i, log in enumerate(logs):
            if log.cp == loop.cp and log.message == LOOP_START:
                if not any(
                    later.cp == loop.cp and later.message == LOOP_END
                    for later in logs[i + 1 :]
                ):
                    return True
        if any(l.cp == loop.cp and l.message == LOOP_END for l in logs[cs.head :]):
            return True
    return False


class OracleAnalyzer(CausalityAnalyzer):
    """The analyzer with the per-pair builder in place of the one-pass one,
    and the recursive replay graph in place of the layered replay."""

    def __init__(self, system):
        super().__init__(system)
        self._closures: dict[tuple, dict[LogRef, frozenset[LogRef]]] = {}
        self._graphs: dict[tuple, tuple] = {}

    def _innermost_common_loop(self, cp1: int, cp2: int) -> Optional[LoopRef]:
        common = [
            L for L in self.loops if L.contains_cp(cp1) and L.contains_cp(cp2)
        ]
        if not common:
            return None
        return min(common, key=lambda L: len(L.body_cps))

    def base_relation(self, cfg: Configuration) -> dict[tuple[LogRef, LogRef], list[str]]:
        edges: dict[tuple[LogRef, LogRef], list[str]] = {}

        def add(src: LogRef, dst: LogRef, why: str) -> None:
            edges.setdefault((src, dst), []).append(why)

        refs = all_log_refs(cfg)
        logs_on: dict[Channel, tuple[Log, ...]] = {ch: cs.logs for ch, cs in cfg.chi}
        where = [i for _, cs in cfg.chi for i in range(len(cs.logs))]

        # (1) queue order per channel
        for ch, logs in logs_on.items():
            for i in range(len(logs)):
                for j in range(i + 1, len(logs)):
                    add((ch, logs[i]), (ch, logs[j]), "channel-order")

        # (2) the sender's program order across its channels
        for i, (ch1, l1) in enumerate(refs):
            for ch2, l2 in refs[i + 1 :]:
                if ch1 is not ch2 and ch1.sender == ch2.sender and ch1 != ch2:
                    if l1.timestamp < l2.timestamp:
                        add((ch1, l1), (ch2, l2), "sender-order")
                    elif l2.timestamp < l1.timestamp:
                        add((ch2, l2), (ch1, l1), "sender-order")

        # (3) static order, refined by loop rounds
        events = [self._events[log.cp, log.message] for _, log in refs]
        for i, (ch1, _) in enumerate(refs):
            e1 = events[i]
            for j, e2 in enumerate(events[i + 1 :], i + 1):
                if e1 is e2 or ch1 == refs[j][0]:
                    continue
                if self.order.leq(e1, e2):
                    a, b = i, j
                elif self.order.leq(e2, e1):
                    a, b = j, i
                else:
                    continue
                first, second = refs[a], refs[b]
                loop = self._innermost_common_loop(first[1].cp, second[1].cp)
                if loop is None:
                    add(first, second, "static-order")
                    continue
                sep1 = any(l.cp == loop.cp for l in logs_on[first[0]])
                sep2 = any(l.cp == loop.cp for l in logs_on[second[0]])
                if not (sep1 and sep2):
                    continue
                n = round_of(where[a], loop, logs_on[first[0]])
                m = round_of(where[b], loop, logs_on[second[0]])
                if n is None or m is None:
                    continue
                if n <= m:
                    add(first, second, "loop-rounds")
                else:
                    add(second, first, "loop-rounds")

        # (4) forced receive-before-send order at each participant
        for participant in self.system.machines:
            for pair in self._forced_pairs(cfg, participant):
                add(pair[0], pair[1], "replay-order")
        return edges

    def relation(self, cfg: Configuration) -> dict[LogRef, frozenset[LogRef]]:
        cached = self._closures.get(cfg.chi)
        if cached is not None:
            return cached
        refs = all_log_refs(cfg)
        succ: dict[LogRef, set[LogRef]] = {r: set() for r in refs}
        for (src, dst) in self.base_relation(cfg):
            succ[src].add(dst)
        closure: dict[LogRef, frozenset[LogRef]] = {}
        for start in refs:
            seen = {start}
            stack = [start]
            while stack:
                for nxt in succ[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            closure[start] = frozenset(seen)
        self._closures[cfg.chi] = closure
        return closure

    def rollback_points(self, cfg: Configuration) -> frozenset[LogRef]:
        points: set[LogRef] = set()
        live: dict[int, bool] = {}
        for ref, dependants in self.relation(cfg).items():
            encl = self._outermost.get(ref[1].cp)
            if encl is None:
                if len(dependants) == 1:
                    points.add(ref)
                continue
            if encl.cp not in live:
                live[encl.cp] = ongoing(encl, cfg)
            if live[encl.cp] and all(
                encl.contains_cp(other[1].cp) for other in dependants
            ):
                points.add(ref)
        return frozenset(points)

    def _replay_setup(self, cfg: Configuration, participant: str):
        consumed: dict[Channel, tuple[Log, ...]] = {}
        outputs: list[LogRef] = []
        for ch, cs in cfg.chi:
            if ch.receiver == participant and cs.head:
                consumed[ch] = cs.logs[: cs.head]
            if ch.sender == participant:
                outputs.extend((ch, log) for log in cs.logs)
        outputs.sort(key=lambda ref: ref[1].timestamp)
        return consumed, tuple(outputs)

    def _replay_graph(self, participant: str, consumed, outputs):
        """All complete replays of a participant's recorded history.

        Returns (channels, start, complete, moves, ends) where ``complete``
        maps replay nodes to whether a full replay is still possible from
        them, ``moves`` lists (node, action, next) triples for reachable
        nodes, and ``ends`` holds the machine states of the final nodes,
        where every full replay stops.  A node is
        (machine state, per-channel consumption index..., emission index).
        Inputs of one channel replay in queue order, outputs in timestamp
        order; an output step additionally requires the machine to be in
        the state the log recorded.
        """
        machine = self.system.machines[participant]
        channels = sorted(consumed)
        key = (
            participant,
            tuple((ch, consumed[ch]) for ch in channels),
            outputs,
        )
        cached = self._graphs.get(key)
        if cached is not None:
            return cached

        start = (machine.initial,) + (0,) * len(channels) + (0,)
        n_ch = len(channels)

        def moves(node):
            state = node[0]
            out = []
            for k in range(n_ch):
                i = node[1 + k]
                queue = consumed[channels[k]]
                if i < len(queue):
                    log = queue[i]
                    ev = CommEvent(channels[k], "?", log.cp, log.message)
                    t = machine.step(state, ev)
                    if t is not None:
                        nxt = (
                            (t.dst,)
                            + node[1 : 1 + k]
                            + (i + 1,)
                            + node[2 + k : ]
                        )
                        out.append((("inp", channels[k], i), nxt))
            j = node[1 + n_ch]
            if j < len(outputs):
                ch, log = outputs[j]
                if state == log.sender_state:
                    ev = CommEvent(ch, "!", log.cp, log.message)
                    t = machine.step(state, ev)
                    if t is not None:
                        nxt = (t.dst,) + node[1:-1] + (j + 1,)
                        out.append((("out", j), nxt))
            return out

        complete: dict[tuple, bool] = {}
        all_moves: list[tuple] = []

        def is_final(node) -> bool:
            return all(
                node[1 + k] == len(consumed[channels[k]]) for k in range(n_ch)
            ) and node[1 + n_ch] == len(outputs)

        def can_complete(node) -> bool:
            if node in complete:
                return complete[node]
            if is_final(node):
                complete[node] = True
                return True
            complete[node] = False
            ok = False
            for action, nxt in moves(node):
                if can_complete(nxt):
                    ok = True
            complete[node] = ok
            return ok

        can_complete(start)
        seen = {start}
        queue = [start]
        while queue:
            node = queue.pop()
            for action, nxt in moves(node):
                if complete.get(nxt):
                    all_moves.append((node, action, nxt))
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)

        ends = frozenset(node[0] for node in complete if is_final(node))
        result = (channels, start, complete, tuple(all_moves), ends)
        self._graphs[key] = result
        return result

    def _forced_pairs(self, cfg: Configuration, participant: str):
        consumed, outputs = self._replay_setup(cfg, participant)
        if not consumed or not outputs:
            return []
        channels, start, complete, moves, _ = self._replay_graph(
            participant, consumed, outputs
        )
        if not complete.get(start):
            return []
        unforced: set[tuple[int, int, int]] = set()  # (channel idx, input idx, output idx)
        for node, action, _ in moves:
            if action[0] != "out":
                continue
            j = action[1]
            for k in range(len(channels)):
                for i in range(node[1 + k], len(consumed[channels[k]])):
                    unforced.add((k, i, j))
        pairs = []
        for k, ch in enumerate(channels):
            for i, log in enumerate(consumed[ch]):
                for j, (och, olog) in enumerate(outputs):
                    if (k, i, j) not in unforced:
                        pairs.append(((ch, log), (och, olog)))
        return pairs

    def replay_end_states(self, cfg: Configuration, participant: str) -> frozenset[int]:
        """Machine states a full replay of the recorded history can end in."""
        *_, ends = self._replay_graph(participant, *self._replay_setup(cfg, participant))
        return ends
