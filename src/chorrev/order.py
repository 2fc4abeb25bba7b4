"""Event-order semantics of choreographies.

A choreography denotes a finite set of events with a partial order that
captures causal precedence.  Interactions contribute a send and a receive
event; loops and choices additionally contribute gate events that record
where the iteration or the decision happens.  Parallel branches stay
unordered; sequential composition orders events of the same participant
across the two sides.

Sequential composition is only defined when the right-hand side is
anchored in the left: every participant that can move first on the right
must already take part in a communication on the left.  Otherwise there is
no way for the right side to know that the left side happened, and
:func:`seq_compose` raises :class:`UndefinedSemantics`.

This module also hosts the branching analysis (:func:`well_branched`): a
choice is implementable only if a single participant decides it, the other
participants either sit out the choice entirely or can recognize the taken
branch from their first input, and the guards only watch channels the
decider can see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .model import (
    Channel,
    Choice,
    Chor,
    CountAtom,
    Interaction,
    Issue,
    Loop,
    LOOP_END,
    LOOP_START,
    MemberAtom,
    Par,
    Seq,
    ValidationReport,
    guard_atoms,
    node_at,
    participants,
    subterms,
)


@dataclass(frozen=True)
class CommEvent:
    """A send (polarity ``!``) or receive (polarity ``?``) of one message."""

    channel: Channel
    polarity: str
    cp: int
    message: str

    @property
    def subject(self) -> str:
        return self.channel.sender if self.polarity == "!" else self.channel.receiver

    def __str__(self) -> str:
        return f"{self.channel}{self.polarity}{self.message}/{self.cp}"


@dataclass(frozen=True)
class GateEvent:
    """A bookkeeping event marking a choice or a loop boundary."""

    cp: int
    kind: str  # "choice", "loop_start" or "loop_end"
    subject: str

    def __str__(self) -> str:
        return f"{self.kind}@{self.subject}/{self.cp}"


Event = Union[CommEvent, GateEvent]


class UndefinedSemantics(Exception):
    pass


@dataclass(frozen=True)
class EventOrder:
    """A set of events with a reflexive, transitive precedence relation."""

    events: frozenset[Event]
    le: frozenset[tuple[Event, Event]]

    def leq(self, e1: Event, e2: Event) -> bool:
        return (e1, e2) in self.le

    def lt(self, e1: Event, e2: Event) -> bool:
        return e1 != e2 and (e1, e2) in self.le

    @property
    def comm_events(self) -> frozenset[CommEvent]:
        return frozenset(e for e in self.events if isinstance(e, CommEvent))

    def minimal(self, subset: Optional[Iterable[Event]] = None) -> frozenset[Event]:
        """Events of ``subset`` with no strict predecessor inside ``subset``."""
        pool = self.events if subset is None else frozenset(subset)
        return frozenset(
            e for e in pool if not any(o != e and (o, e) in self.le for o in pool)
        )

    def events_of(self, participant: str) -> frozenset[Event]:
        return frozenset(e for e in self.events if e.subject == participant)


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


def semantics(g: Chor) -> EventOrder:
    """The event order denoted by ``g``.

    Raises :class:`UndefinedSemantics` if a sequential composition is
    undefined or a choice has no unique deciding participant.
    """
    if isinstance(g, Interaction):
        snd = CommEvent(g.channel, "!", g.cp, g.message)
        rcv = CommEvent(g.channel, "?", g.cp, g.message)
        return EventOrder(
            frozenset({snd, rcv}),
            frozenset({(snd, snd), (rcv, rcv), (snd, rcv)}),
        )
    if isinstance(g, Seq):
        return seq_compose(semantics(g.left), semantics(g.right))
    if isinstance(g, Par):
        events: set[Event] = set()
        le: set[tuple[Event, Event]] = set()
        for branch in g.branches:
            sub = semantics(branch)
            events |= sub.events
            le |= sub.le
        return EventOrder(frozenset(events), frozenset(le))
    if isinstance(g, Loop):
        body = semantics(g.body)
        start = GateEvent(g.cp, "loop_start", g.controller)
        end = GateEvent(g.cp, "loop_end", g.controller)
        events = body.events | {start, end}
        le = set(body.le)
        le |= {(start, e) for e in events}
        le |= {(e, end) for e in events}
        return EventOrder(frozenset(events), frozenset(le))
    if isinstance(g, Choice):
        orders = [semantics(br.body) for br in g.branches]
        subjects = _opening_subjects(orders)
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
        return EventOrder(frozenset(events), frozenset(le))
    raise TypeError(f"not a choreography term: {g!r}")


def seq_compose(left: EventOrder, right: EventOrder) -> EventOrder:
    """Compose two event orders sequentially.

    Events of the same participant are ordered left before right.  The
    composition is undefined when some participant can move first on the
    right without taking part in any communication on the left.
    """
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
    return EventOrder(frozenset(events), _closure(events, edges))


def _opening_subjects(branches: Iterable[EventOrder]) -> set[str]:
    """The participants whose events open the given branches of a choice.

    A choice has a deciding participant exactly when this set has one
    member.
    """
    return {e.subject for sub in branches for e in sub.minimal()}


def event_for_log(g: Chor, cp: int, message: str) -> Event:
    """The static event a runtime log entry refers to.

    Message logs point at the send event of their interaction; loop marker
    logs point at the loop's start or end gate.
    """
    node = node_at(g, cp)
    if isinstance(node, Interaction):
        return CommEvent(node.channel, "!", cp, node.message)
    if isinstance(node, Loop):
        if message == LOOP_START:
            return GateEvent(cp, "loop_start", node.controller)
        if message == LOOP_END:
            return GateEvent(cp, "loop_end", node.controller)
    raise KeyError(f"control point {cp} with message {message!r} names no event")


# ---------------------------------------------------------------------------
# Well-branchedness


def guard_local_violations(c: Choice, active: str) -> list[Union[CountAtom, MemberAtom]]:
    """Guard atoms of ``c`` that watch channels the decider is not part of."""
    bad = []
    for br in c.branches:
        for atom in guard_atoms(br.guard):
            if active not in atom.channel.endpoints():
                bad.append(atom)
    return bad


def well_branched(g: Chor) -> ValidationReport:
    """Check that every choice in ``g`` can be implemented locally."""
    issues: list[Issue] = []
    for node in subterms(g):
        if isinstance(node, Choice):
            issues.extend(_check_choice(node))
    return ValidationReport(issues)


def _check_choice(c: Choice) -> list[Issue]:
    issues: list[Issue] = []
    orders = []
    for br in c.branches:
        try:
            orders.append(semantics(br.body))
        except UndefinedSemantics as exc:
            return [Issue("undefined-branch", str(exc), c.cp)]

    subjects = _opening_subjects(orders)
    if len(subjects) != 1:
        return [
            Issue(
                "no-unique-active",
                f"branches are opened by {sorted(subjects) or 'no one'},"
                " expected exactly one deciding participant",
                c.cp,
            )
        ]
    active = next(iter(subjects))
    if c.at is not None and c.at != active:
        issues.append(
            Issue(
                "declared-active-mismatch",
                f"declared @{c.at} but the deciding participant is {active}",
                c.cp,
            )
        )

    for sub in orders:
        for e in sub.minimal():
            if isinstance(e, CommEvent) and e.polarity == "!":
                continue
            if isinstance(e, GateEvent) and e.kind == "loop_start":
                # The branch opens with a loop controlled by the decider;
                # its start markers are the decider's first outputs.
                continue
            if isinstance(e, GateEvent) and e.kind == "choice":
                issues.append(
                    Issue(
                        "branch-opens-with-choice",
                        "a branch immediately opens another choice",
                        c.cp,
                    )
                )
            else:
                issues.append(
                    Issue(
                        "branch-minimal-not-send",
                        f"branch opens with {e}, which is not an output of {active}",
                        c.cp,
                    )
                )

    branch_parts = [participants(br.body) for br in c.branches]
    others = sorted(set().union(*branch_parts) - {active})
    for p in others:
        occurs = [i for i, ps in enumerate(branch_parts) if p in ps]
        if 0 < len(occurs) < len(c.branches):
            issues.append(
                Issue(
                    "participant-partial-occurrence",
                    f"{p} takes part in some branches but not in all",
                    c.cp,
                )
            )
            continue
        if not occurs:
            continue
        firsts: list[frozenset[tuple[str, str]]] = []
        for sub in orders:
            mine = sub.events_of(p)
            mins = sub.minimal(mine)
            entry = set()
            for e in mins:
                if isinstance(e, CommEvent) and e.polarity == "?":
                    entry.add((e.channel.sender, e.message))
                else:
                    issues.append(
                        Issue(
                            "nonactive-initiates",
                            f"{p} would start a branch with {e} instead of waiting"
                            " for a message",
                            c.cp,
                        )
                    )
            firsts.append(frozenset(entry))
        for i in range(len(firsts)):
            for j in range(i + 1, len(firsts)):
                overlap = firsts[i] & firsts[j]
                if overlap:
                    sender, msg = sorted(overlap)[0]
                    issues.append(
                        Issue(
                            "ambiguous-branch-entry",
                            f"{p} first receives {msg} from {sender} in two branches"
                            " and cannot tell them apart",
                            c.cp,
                        )
                    )

    for atom in guard_local_violations(c, active):
        issues.append(
            Issue(
                "guard-not-local",
                f"guard watches {atom.channel}, which does not involve {active}",
                c.cp,
            )
        )
    return issues
