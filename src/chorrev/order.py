"""Event-order semantics of choreographies.

A choreography denotes a finite set of events with a partial order that
captures causal precedence.  Interactions contribute a send and a receive
event; loops and choices additionally contribute gate events that record
where the iteration or the decision happens.  Parallel branches stay
unordered; sequential composition orders events of the same participant
from one part to the next.

Sequential composition is only defined when each part is anchored in the
parts before it: every participant that can move first in a part must
already take part in a communication before it.  Otherwise there is no way
for that part to know that the earlier ones happened, and
:func:`seq_compose` raises :class:`UndefinedSemantics`.

An :class:`EventOrder` keeps one down-set per event: a Python int whose
bits are the indices of the events at or below it.  Each constructor of
:func:`semantics` builds the down-sets of its result from those of its
parts (shifting them past the events placed before), so no closure is ever
recomputed; ``leq`` tests one bit and ``minimal`` one mask per event.  The
relation as a set of pairs, ``EventOrder.le``, is built only on demand.

This module also hosts the branching analysis (:func:`well_branched`): a
choice is implementable only if a single participant decides it, the other
participants either sit out the choice entirely or can recognize the taken
branch from their first input, and the guards only watch channels the
decider can see.  It reads each branch's order off the root order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Union

from .model import (
    Channel,
    Choice,
    Chor,
    CountAtom,
    Interaction,
    Issue,
    Loop,
    MemberAtom,
    Par,
    Seq,
    ValidationReport,
    control_points,
    guard_atoms,
    subterms,
)


class CommEvent(NamedTuple):
    """A send (polarity ``!``) or receive (polarity ``?``) of one message.

    As a named tuple an event hashes and compares in C, and it orders as
    its channel's endpoints, polarity, control point and message.
    """

    channel: Channel
    polarity: str
    cp: int
    message: str

    @property
    def subject(self) -> str:
        return self.channel.sender if self.polarity == "!" else self.channel.receiver

    def __str__(self) -> str:
        return f"{self.channel}{self.polarity}{self.message}/{self.cp}"


class GateEvent(NamedTuple):
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
    """A set of events with a reflexive, transitive precedence relation.

    ``down[i]`` is the down-set of ``event_list[i]`` as a bitset: bit ``j``
    is set when ``event_list[j]`` precedes or equals ``event_list[i]``.
    ``events`` holds the same events as ``event_list``.  ``le``, the
    relation as a set of pairs, is built on first access only; it and the
    index are cached properties, which need an instance dict, so an order
    is a dataclass and not a named tuple.  So are ``_subjects``, each
    event's participant, and ``_comm``, the bitset of the communication
    events: :func:`semantics` fills both in from those of the parts it
    composes, so no event is asked for its subject more than once.
    """

    event_list: tuple[Event, ...]
    down: tuple[int, ...]
    events: frozenset[Event]

    @cached_property
    def _index(self) -> dict[Event, int]:
        return {e: i for i, e in enumerate(self.event_list)}

    @cached_property
    def _subjects(self) -> list[str]:
        return [e.subject for e in self.event_list]

    @cached_property
    def _comm(self) -> int:
        return sum(1 << i for i, e in enumerate(self.event_list) if isinstance(e, CommEvent))

    @cached_property
    def le(self) -> frozenset[tuple[Event, Event]]:
        pairs = []
        for e, d in zip(self.event_list, self.down):
            while d:
                low = d & -d
                pairs.append((self.event_list[low.bit_length() - 1], e))
                d ^= low
        return frozenset(pairs)

    def leq(self, e1: Event, e2: Event) -> bool:
        i = self._index.get(e1)
        j = self._index.get(e2)
        return i is not None and j is not None and self.down[j] >> i & 1 == 1

    @property
    def comm_events(self) -> frozenset[CommEvent]:
        return frozenset(e for e in self.event_list if isinstance(e, CommEvent))

    def minimal(self, subset: Optional[Iterable[Event]] = None) -> frozenset[Event]:
        """Events of ``subset`` with no strict predecessor inside ``subset``."""
        if subset is None:
            indexed = enumerate(zip(self.event_list, self.down))
            return frozenset(e for i, (e, d) in indexed if d == 1 << i)
        pool = frozenset(subset)
        at = {e: self._index[e] for e in pool if e in self._index}
        mask = sum(1 << i for i in at.values())
        return frozenset(
            e for e in pool if e not in at or self.down[at[e]] & mask == 1 << at[e]
        )


def _order(
    event_list: list[Event], down: list[int], events: frozenset[Event], subjects: list[str], comm: int
) -> EventOrder:
    """An order whose subjects and communication events are already known."""
    order = EventOrder(tuple(event_list), tuple(down), events)
    vars(order).update(_subjects=subjects, _comm=comm)
    return order


def _union(
    parts: list[EventOrder], first: Optional[GateEvent] = None, last: Optional[GateEvent] = None
) -> EventOrder:
    """The events of ``parts`` side by side, then ``first`` below all of
    them and ``last`` above all of them, when given.

    Each part's down-sets and communication events are shifted past the
    events before it.
    """
    event_list: list[Event] = []
    down: list[int] = []
    subjects: list[str] = []
    comm = 0
    for sub in parts:
        offset = len(event_list)
        event_list.extend(sub.event_list)
        down.extend(d << offset for d in sub.down)
        subjects.extend(sub._subjects)
        comm |= sub._comm << offset
    gates = [e for e in (first, last) if e is not None]
    events = frozenset(gates).union(*(sub.events for sub in parts))
    if len(events) != len(event_list) + len(gates):
        raise ValueError("cannot compose overlapping event sets")
    if first is not None:
        bit = 1 << len(down)
        down = [d | bit for d in down] + [bit]
    if last is not None:
        down.append((1 << len(down) + 1) - 1)
    event_list += gates
    subjects += [e.subject for e in gates]
    return _order(event_list, down, events, subjects, comm)


def semantics(g: Chor) -> EventOrder:
    """The event order denoted by ``g``.

    Raises :class:`UndefinedSemantics` if a sequential composition is
    undefined or a choice has no unique deciding participant.
    """
    if isinstance(g, Interaction):
        channel = Channel(g.sender, g.receiver)
        snd = CommEvent(channel, "!", g.cp, g.message)
        rcv = CommEvent(channel, "?", g.cp, g.message)
        return _order([snd, rcv], [1, 3], frozenset((snd, rcv)), [g.sender, g.receiver], 3)
    if isinstance(g, Seq):
        return seq_compose(semantics(part) for part in g.parts)
    if isinstance(g, Par):
        return _union([semantics(b) for b in g.branches])
    if isinstance(g, Loop):
        start = GateEvent(g.cp, "loop_start", g.controller)
        end = GateEvent(g.cp, "loop_end", g.controller)
        return _union([semantics(g.body)], start, end)
    if isinstance(g, Choice):
        orders = [semantics(br.body) for br in g.branches]
        # The participants whose events open the branches: one decides.
        subjects = {e.subject for sub in orders for e in sub.minimal()}
        if len(subjects) != 1:
            raise UndefinedSemantics(
                f"choice at control point {g.cp} has no unique deciding participant"
                f" (candidates: {sorted(subjects) or 'none'})"
            )
        return _union(orders, GateEvent(g.cp, "choice", next(iter(subjects))))
    raise TypeError(f"not a choreography term: {g!r}")


def seq_compose(orders: Iterable[EventOrder]) -> EventOrder:
    """Compose event orders sequentially, reading them one at a time.

    Each participant's events are ordered before its events in later
    orders.  The first order in which a participant can move first with no
    communication in the orders before it makes the composition undefined.
    Each order is read through its list of subjects and its bitset of
    communication events.
    """
    event_list: list[Event] = []
    down: list[int] = []
    subjects: list[str] = []
    comm = 0
    events: set[Event] = set()
    # Per participant, everything so far at or below one of its events.
    below: dict[str, int] = {}
    talkers: set[str] = set()
    for k, order in enumerate(orders):
        if not events.isdisjoint(order.events):
            raise ValueError("cannot compose overlapping event sets")
        part, part_down, part_comm = order._subjects, order.down, order._comm
        if k:
            # Communication events with no communication below them whose
            # participant has not communicated before.
            uncovered = sorted(
                str(order.event_list[i])
                for i, p in enumerate(part)
                if p not in talkers and part_comm >> i & 1 and part_down[i] & part_comm == 1 << i
            )
            if uncovered:
                raise UndefinedSemantics(
                    "sequential composition undefined: "
                    + ", ".join(uncovered)
                    + " would happen with no prior involvement of its participant"
                )
        # Per participant with events so far, its events in this order.
        theirs: dict[str, int] = {}
        for i, p in enumerate(part):
            if p in below:
                theirs[p] = theirs.get(p, 0) | 1 << i
        prior = [(mask, below[p]) for p, mask in theirs.items()]
        n = len(event_list)
        for d in part_down:
            new = d << n
            for mask, earlier in prior:
                if d & mask:
                    new |= earlier
            down.append(new)
        for i, p in enumerate(part):
            below[p] = below.get(p, 0) | down[n + i]
            if part_comm >> i & 1:
                talkers.add(p)
        event_list.extend(order.event_list)
        subjects.extend(part)
        comm |= part_comm << n
        events |= order.events
    return _order(event_list, down, frozenset(events), subjects, comm)


# ---------------------------------------------------------------------------
# Well-branchedness


def guard_local_violations(c: Choice, active: str) -> list[Union[CountAtom, MemberAtom]]:
    """Guard atoms of ``c`` that watch channels the decider is not part of."""
    bad = []
    for br in c.branches:
        for atom in guard_atoms(br.guard):
            if active not in atom.channel:
                bad.append(atom)
    return bad


def well_branched(g: Chor, order: EventOrder) -> ValidationReport:
    """Check that every choice in ``g`` can be implemented locally.

    ``order`` is the event order of ``g``, as :func:`semantics` gives it.
    A branch's own order is ``order`` restricted to the events at the
    branch's control points: composition only orders the events of one
    part below those of another, so it adds no pair inside a branch.
    """
    at_cp: dict[int, list[Event]] = {}
    for e in order.event_list:
        at_cp.setdefault(e.cp, []).append(e)
    issues: list[Issue] = []
    for node in subterms(g):
        if isinstance(node, Choice):
            issues.extend(_check_choice(node, order, at_cp))
    return ValidationReport(issues)


def _check_choice(c: Choice, order: EventOrder, at_cp: dict[int, list[Event]]) -> list[Issue]:
    issues: list[Issue] = []
    branches = [
        frozenset(e for cp, _ in control_points(br.body) for e in at_cp.get(cp, ()))
        for br in c.branches
    ]
    (gate,) = at_cp[c.cp]  # the choice's one event, which names its decider
    active = gate.subject
    if c.at is not None and c.at != active:
        issues.append(
            Issue(
                "declared-active-mismatch",
                f"declared @{c.at} but the deciding participant is {active}",
                c.cp,
            )
        )

    # A branch opens with sends, loop starts or choice gates: a receive
    # lies above its send and a loop's end above its start.  The semantics
    # gives the sends to the decider, and a loop opening the branch is one
    # it controls, whose start markers are its first outputs.
    for events in branches:
        for e in order.minimal(events):
            if isinstance(e, GateEvent) and e.kind == "choice":
                issues.append(
                    Issue(
                        "branch-opens-with-choice",
                        "a branch immediately opens another choice",
                        c.cp,
                    )
                )

    branch_parts = [{e.subject for e in events} for events in branches]
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
        for events in branches:
            entry = set()
            for e in order.minimal(x for x in events if x.subject == p):
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
