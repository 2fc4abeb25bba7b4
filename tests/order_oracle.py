"""The event order with a materialised closure, kept as a test oracle.

This is the first implementation of :func:`chorrev.order.semantics`: the
order is the frozenset of all ordered pairs, and every sequential
composition recomputes the whole reflexive-transitive closure.  It grows
about n^4 on a straight line of n interactions, so the package now keeps
one down-set bitset per event instead; the differential tests compare
that representation with this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional

from chorrev.model import Choice, Chor, Interaction, Loop, Par, Seq
from chorrev.order import CommEvent, Event, GateEvent, UndefinedSemantics


@dataclass(frozen=True)
class ClosureOrder:
    """A set of events with the precedence relation as a set of pairs."""

    events: frozenset[Event]
    le: frozenset[tuple[Event, Event]]

    @property
    def comm_events(self) -> frozenset[CommEvent]:
        return frozenset(e for e in self.events if isinstance(e, CommEvent))

    def minimal(self, subset: Optional[Iterable[Event]] = None) -> frozenset[Event]:
        pool = self.events if subset is None else frozenset(subset)
        return frozenset(
            e for e in pool if not any(o != e and (o, e) in self.le for o in pool)
        )


def _closure(events: Iterable[Event], edges: set[tuple[Event, Event]]) -> frozenset:
    succ: dict[Event, set[Event]] = {e: set() for e in events}
    for a, b in edges:
        succ[a].add(b)
    pairs: set[tuple[Event, Event]] = set()
    for start in succ:
        seen = {start}
        stack = [start]
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        pairs.update((start, e) for e in seen)
    return frozenset(pairs)


def semantics(g: Chor) -> ClosureOrder:
    if isinstance(g, Interaction):
        snd = CommEvent(g.channel, "!", g.cp, g.message)
        rcv = CommEvent(g.channel, "?", g.cp, g.message)
        return ClosureOrder(
            frozenset({snd, rcv}),
            frozenset({(snd, snd), (rcv, rcv), (snd, rcv)}),
        )
    if isinstance(g, Seq):
        return reduce(seq_compose, map(semantics, g.parts))
    if isinstance(g, Par):
        events: set[Event] = set()
        le: set[tuple[Event, Event]] = set()
        for branch in g.branches:
            sub = semantics(branch)
            events |= sub.events
            le |= sub.le
        return ClosureOrder(frozenset(events), frozenset(le))
    if isinstance(g, Loop):
        body = semantics(g.body)
        start = GateEvent(g.cp, "loop_start", g.controller)
        end = GateEvent(g.cp, "loop_end", g.controller)
        events = body.events | {start, end}
        le = set(body.le)
        le |= {(start, e) for e in events}
        le |= {(e, end) for e in events}
        return ClosureOrder(frozenset(events), frozenset(le))
    if isinstance(g, Choice):
        orders = [semantics(br.body) for br in g.branches]
        subjects = {e.subject for sub in orders for e in sub.minimal()}
        if len(subjects) != 1:
            raise UndefinedSemantics(
                f"choice at control point {g.cp} has no unique deciding participant"
                f" (candidates: {sorted(subjects) or 'none'})"
            )
        gate = GateEvent(g.cp, "choice", next(iter(subjects)))
        events = {gate}
        le = set()
        for sub in orders:
            events |= sub.events
            le |= sub.le
        le |= {(gate, e) for e in events}
        return ClosureOrder(frozenset(events), frozenset(le))
    raise TypeError(f"not a choreography term: {g!r}")


def seq_compose(left: ClosureOrder, right: ClosureOrder) -> ClosureOrder:
    if left.events & right.events:
        raise ValueError("cannot compose overlapping event sets")
    left_subjects = {e.subject for e in left.comm_events}
    first_right = right.minimal(right.comm_events)
    uncovered = sorted(str(e) for e in first_right if e.subject not in left_subjects)
    if uncovered:
        raise UndefinedSemantics(
            "sequential composition undefined: "
            + ", ".join(uncovered)
            + " would happen with no prior involvement of its participant"
        )
    events = left.events | right.events
    edges = set(left.le) | set(right.le)
    edges |= {
        (a, b) for a in left.events for b in right.events if a.subject == b.subject
    }
    return ClosureOrder(frozenset(events), _closure(events, edges))
