"""Projection of a choreography onto each participant's machine.

Each construct's transitions are written once, into one list per
participant, from the state the construct is entered in to the exit state
it returns.  An interaction projects to a single send or receive, each
part of a sequence is entered where the part before it exits, the threads
of a ``par`` that the participant takes part in are written apart and
interleaved (a lone one is written in place), and every branch of a choice
runs from the choice's entry to one shared exit, with no silent moves.
Every event carries its construct's control point, so the list is already
deterministic, and :func:`machine.finalize` minimizes and numbers it.

The deciding participant's branch transitions are decorated so they can
later be rolled back; everyone else's machines stay plain.  A decoration
names the branch's family: the choice state, the first output of the
event's thread in the branch, and the guard.  The one walk that writes
the transitions also records each event's family as it writes it, so a
branch is decorated as soon as it is written.

A loop controlled by ``a`` is wired explicitly: ``a`` announces each
iteration by sending a start marker to every other participant of the body
(and re-sends it on repetition), and announces the exit with an end
marker.  The other body participants mirror this with marker receives.

:func:`project_system` is the only entry point: it validates its input
first, so the walk relies on what ``validate`` and ``well_branched``
guarantee, such as a loop body with a participant besides its controller,
and a non-decider that takes part in every branch of a choice or in none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .machine import UNIT, Branch, ProjectionError, RCfsm, Transition, finalize
from .model import (
    Channel,
    Choice,
    Chor,
    Interaction,
    Loop,
    LOOP_END,
    LOOP_START,
    Par,
    Seq,
    participants,
    validate,
)
from .order import CommEvent, EventOrder, GateEvent, semantics, well_branched

# The first output of the current thread, which names the branch family.
Anchor = Optional[CommEvent]


@dataclass
class System:
    """A choreography together with the machines of all its participants.

    ``order`` is the choreography's event order, computed once during
    projection and shared with everything that reads it later.
    """

    chor: Chor
    machines: dict[str, RCfsm]
    order: EventOrder


def _deciders(order: EventOrder) -> dict[int, str]:
    """The deciding participant of each choice, by control point."""
    return {
        e.cp: e.subject
        for e in order.events
        if isinstance(e, GateEvent) and e.kind == "choice"
    }


def project_system(g: Chor) -> System:
    """Project a checked choreography onto all of its participants.

    Raises :class:`ProjectionError` if the choreography is not well formed
    or not well branched, if a decider's choice is nested in a choice it
    also decides, or if a decider's branch is interleaved with another
    ``par`` thread it takes part in; raises :class:`UndefinedSemantics` if
    its event order does not exist.
    """
    report = validate(g)
    if not report.ok:
        raise ProjectionError(f"invalid choreography:\n{report}")
    order = semantics(g)
    wb = well_branched(g, order)
    if not wb.ok:
        raise ProjectionError(f"choreography is not well branched:\n{wb}")
    deciders = _deciders(order)
    machines: dict[str, RCfsm] = {}
    for a in sorted(participants(g)):
        w = _Writer(deciders)
        exit, _ = _project(g, a, 0, w)
        machines[a] = finalize(a, 0, exit, w.transitions)
    return System(g, machines, order)


class _Writer:
    """The transitions of one participant, in the order ``_project`` writes
    them, and the branch family of each event.  State 0 is the initial
    state, and ``states`` hands out the others.
    """

    def __init__(self, deciders: dict[int, str]):
        self.deciders = deciders
        self.transitions: list[Transition] = []
        self.family: dict[CommEvent, Anchor] = {}
        self.states = itertools.count(1)


def _project(g: Chor, a: str, src: int, w: _Writer, anchor: Anchor = None) -> tuple[int, Anchor]:
    """Append ``a``'s transitions for ``g`` from state ``src``, and record
    each event's family in ``w.family`` in the same walk; return the exit
    state and the thread's anchor after ``g``.

    Each part of a sequence starts where the part before it exits.  A term
    that ``a`` takes no part in writes nothing and exits at ``src``.  An
    event's family is ``anchor``, or the event itself when it is an output
    that opens its thread.  A loop that opens a thread anchors on its
    first start marker, and each start marker is its own family.
    """
    if isinstance(g, Interaction):
        polarity = "!" if a == g.sender else "?" if a == g.receiver else None
        if polarity is None:
            return src, anchor
        dst = next(w.states)
        event = CommEvent(g.channel, polarity, g.cp, g.message)
        if anchor is None and polarity == "!":
            anchor = event
        w.family[event] = anchor
        w.transitions.append(Transition(src, event, UNIT, dst))
        return dst, anchor

    if isinstance(g, Seq):
        for part in g.parts:
            src, anchor = _project(part, a, src, w, anchor)
        return src, anchor

    if isinstance(g, Par):
        return _interleave(g, a, src, w, anchor)

    if isinstance(g, Loop):
        members = participants(g.body)
        if a == g.controller:
            others = sorted(members - {a})
            starts = [CommEvent(Channel(a, b), "!", g.cp, LOOP_START) for b in others]
            ends = [CommEvent(Channel(a, b), "!", g.cp, LOOP_END) for b in others]
            w.family.update((e, e if anchor is None else anchor) for e in starts)
            anchor = starts[0] if anchor is None else anchor
        elif a in members:
            ch = Channel(g.controller, a)
            starts = [CommEvent(ch, "?", g.cp, LOOP_START)]
            ends = [CommEvent(ch, "?", g.cp, LOOP_END)]
            w.family[starts[0]] = anchor
        else:
            return src, anchor
        w.family.update(dict.fromkeys(ends, anchor))
        # The start markers into the body, the body, the start markers of
        # the next round back to the body's entry, and the end markers.
        b = _markers(w, src, starts)
        e, found = _project(g.body, a, b, w, anchor)
        _markers(w, e, starts, b)
        return _markers(w, e, ends), found

    if isinstance(g, Choice):
        return _choose(g, a, src, w, anchor)

    raise TypeError(f"not a choreography term: {g!r}")


def _least(anchor: Anchor, found: Iterable[Anchor]) -> Anchor:
    """``anchor`` if the thread has one, else the least anchor that its
    parallel parts opened.  The start markers of one loop share a control
    point, and the first receiver's is the least."""
    if anchor is not None:
        return anchor
    opened = [e for e in found if e is not None]
    return min(opened, key=lambda e: (e.cp, e.channel.receiver), default=None)


def _markers(w: _Writer, src: int, events: list[CommEvent], dst: Optional[int] = None) -> int:
    """Write ``events`` in every order, from ``src`` to ``dst`` or a fresh state.

    ``ids[mask]`` is the state once the events of ``mask``'s bits are written.
    """
    full = (1 << len(events)) - 1
    ids = [src] + [next(w.states) for _ in range(full - 1)]
    ids.append(next(w.states) if dst is None else dst)
    for mask in range(full):
        for i, e in enumerate(events):
            if not mask >> i & 1:
                w.transitions.append(Transition(ids[mask], e, UNIT, ids[mask | 1 << i]))
    return ids[full]


def _choose(g: Choice, a: str, src: int, w: _Writer, anchor: Anchor) -> tuple[int, Anchor]:
    """Write every branch from ``src`` to one exit, the first branch's.

    Each of the decider's branches opens a thread, and the walk that
    writes it records its families, so it is decorated once written: the
    choice state is ``src``, and a transition whose target is the exit
    commits the branch.  Every event it writes has a family: ``well_branched``
    opens each thread of a decider's branch with the decider's output or
    with a loop it controls.  Everyone else's branches continue the thread.
    """
    decider = a == w.deciders[g.cp]
    if not decider and a not in participants(g):
        return src, anchor
    exit = None
    found = []
    for br in g.branches:
        start = len(w.transitions)
        end, first = _project(br.body, a, src, w, None if decider else anchor)
        found.append(first)
        exit = end if exit is None else exit
        written = w.transitions[start:]
        if decider:
            if any(isinstance(t.decoration, Branch) for t in written):
                raise ProjectionError(
                    f"machine of {a} is already decorated; nested choices decided by"
                    " the same participant cannot be projected"
                )
        elif end == exit:
            continue
        for i, t in enumerate(written, start):
            dst = exit if t.dst == end else t.dst
            deco = t.decoration
            if decider:
                deco = Branch(src, w.family[t.event], br.guard, dst == exit)
            w.transitions[i] = Transition(t.src, t.event, deco, dst)
    return exit, _least(anchor, found)


def _interleave(g: Par, a: str, src: int, w: _Writer, anchor: Anchor) -> tuple[int, Anchor]:
    """Write the product of the threads of ``g`` that ``a`` takes part in,
    each written apart first and each continuing the thread.

    A lone such thread is written in place from ``src`` and keeps its
    decorations; with none, nothing is written.  The product writes plain
    transitions, so a thread with branch decorations cannot join one.  The
    threads' states are fresh, so one index by source state serves all.
    """
    branches = [b for b in g.branches if a in participants(b)]
    if not branches:
        return src, anchor
    if len(branches) == 1:
        return _project(branches[0], a, src, w, anchor)
    start = len(w.transitions)
    threads = []
    for branch in branches:
        first = next(w.states)
        threads.append((first, *_project(branch, a, first, w, anchor)))
        if len(threads) > 1 and any(isinstance(t.decoration, Branch) for t in w.transitions[start:]):
            raise ProjectionError(
                "cannot interleave machines that already carry branch decorations"
            )
    out: dict[int, list[Transition]] = {}
    for t in w.transitions[start:]:
        out.setdefault(t.src, []).append(t)
    del w.transitions[start:]
    initial, final, found = zip(*threads)
    ids = {initial: src}
    queue = [initial]
    for state in queue:
        for i, q in enumerate(state):
            for t in out.get(q, ()):
                nxt = state[:i] + (t.dst,) + state[i + 1:]
                if nxt not in ids:
                    ids[nxt] = next(w.states)
                    queue.append(nxt)
                w.transitions.append(Transition(ids[state], t.event, UNIT, ids[nxt]))
    return ids[final], _least(anchor, found)
