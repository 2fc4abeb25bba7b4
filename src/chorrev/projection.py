"""Projection of a choreography onto each participant's machine.

Each construct's transitions are written once, into one list per
participant, from the state the construct is entered in to the exit state
it returns.  An interaction projects to a single send or receive, each
part of a sequence is entered where the part before it exits, parallel
branches are written apart and interleaved, and every branch of a choice
runs from the choice's entry to one shared exit, with no silent moves.
The deciding participant's branch transitions are decorated so they can
later be rolled back; everyone else's machines stay plain.  Every event
carries its construct's control point, so the list is already
deterministic, and :func:`machine.finalize` minimizes and numbers it.

A loop controlled by ``a`` is wired explicitly: ``a`` announces each
iteration by sending a start marker to every other participant of the body
(and re-sends it on repetition), and announces the exit with an end
marker.  The other body participants mirror this with marker receives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

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


def project(g: Chor, participant: str, decorated: bool = True) -> RCfsm:
    """Project ``g`` onto one participant and finalize the machine.

    Raises :class:`UndefinedSemantics` if the event order of ``g`` does
    not exist.
    """
    w = _Writer(_deciders(semantics(g)))
    exit = _project(g, participant, 0, w)
    transitions = w.transitions
    if not decorated:
        transitions = [Transition(t.src, t.event, UNIT, t.dst) for t in transitions]
    return finalize(participant, 0, exit, transitions)


def project_system(g: Chor) -> System:
    """Project a checked choreography onto all of its participants.

    Raises :class:`ProjectionError` if the choreography is not well formed
    or not well branched, and :class:`UndefinedSemantics` if its event
    order does not exist.
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
        machines[a] = finalize(a, 0, _project(g, a, 0, w), w.transitions)
    return System(g, machines, order)


class _Writer:
    """The transitions of one participant, in the order ``_project`` writes
    them.  State 0 is the initial state, and ``states`` hands out the others.
    """

    def __init__(self, deciders: dict[int, str]):
        self.deciders = deciders
        self.transitions: list[Transition] = []
        self.states = itertools.count(1)


def _project(g: Chor, a: str, src: int, w: _Writer) -> int:
    """Append ``a``'s transitions for ``g`` from state ``src``; return its exit state.

    Each part of a sequence starts where the part before it exits.  A term
    that ``a`` takes no part in writes nothing and exits at ``src``.
    """
    if isinstance(g, Interaction):
        polarity = "!" if a == g.sender else "?" if a == g.receiver else None
        if polarity is None:
            return src
        dst = next(w.states)
        event = CommEvent(g.channel, polarity, g.cp, g.message)
        w.transitions.append(Transition(src, event, UNIT, dst))
        return dst

    if isinstance(g, Seq):
        for part in g.parts:
            src = _project(part, a, src, w)
        return src

    if isinstance(g, Par):
        return _interleave(g, a, src, w)

    if isinstance(g, Loop):
        members = participants(g.body)
        if a == g.controller:
            others = sorted(members - {a})
            if not others:
                raise ProjectionError(
                    f"loop at control point {g.cp} has no participant besides its controller"
                )
            starts = [CommEvent(Channel(a, b), "!", g.cp, LOOP_START) for b in others]
            ends = [CommEvent(Channel(a, b), "!", g.cp, LOOP_END) for b in others]
        elif a in members:
            ch = Channel(g.controller, a)
            starts = [CommEvent(ch, "?", g.cp, LOOP_START)]
            ends = [CommEvent(ch, "?", g.cp, LOOP_END)]
        else:
            return src
        # The start markers into the body, the body, the start markers of
        # the next round back to the body's entry, and the end markers.
        b = _markers(w, src, starts)
        e = _project(g.body, a, b, w)
        _markers(w, e, starts, b)
        return _markers(w, e, ends)

    if isinstance(g, Choice):
        return _choose(g, a, src, w)

    raise TypeError(f"not a choreography term: {g!r}")


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


def _choose(g: Choice, a: str, src: int, w: _Writer) -> int:
    """Write every branch from ``src`` to one exit, the first branch's.

    The decider's transitions of a branch are decorated once the branch is
    written: the choice state is ``src``, and a transition whose target is
    the exit commits the branch.
    """
    decider = a == w.deciders[g.cp]
    if not decider:
        occurs = [a in participants(br.body) for br in g.branches]
        if not any(occurs):
            return src
        if not all(occurs):
            raise ProjectionError(
                f"{a} takes part in some but not all branches of the choice"
                f" at control point {g.cp}"
            )
    exit = None
    for br in g.branches:
        start = len(w.transitions)
        end = _project(br.body, a, src, w)
        exit = end if exit is None else exit
        written = w.transitions[start:]
        if decider:
            if any(isinstance(t.decoration, Branch) for t in written):
                raise ProjectionError(
                    f"machine of {a} is already decorated; nested choices decided by"
                    " the same participant cannot be projected"
                )
            families = _family_map(br.body, a, None)
        elif end == exit:
            continue
        for i, t in enumerate(written, start):
            dst = exit if t.dst == end else t.dst
            deco = t.decoration
            if decider:
                first = families.get(t.event)
                if first is None:
                    raise ProjectionError(f"no anchoring output for {t.event} in a branch of {a}")
                deco = Branch(src, first, br.guard, dst == exit)
            w.transitions[i] = Transition(t.src, t.event, deco, dst)
    return exit


def _interleave(g: Par, a: str, src: int, w: _Writer) -> int:
    """Write the product of ``g``'s branches, each written apart first.

    The branches' states are fresh, so one index by source state serves all.
    """
    start = len(w.transitions)
    ends = []
    for branch in g.branches:
        first = next(w.states)
        ends.append((first, _project(branch, a, first, w)))
        if len(ends) > 1 and any(isinstance(t.decoration, Branch) for t in w.transitions[start:]):
            raise ProjectionError(
                "cannot interleave machines that already carry branch decorations"
            )
    out: dict[int, list[Transition]] = {}
    for t in w.transitions[start:]:
        out.setdefault(t.src, []).append(t)
    del w.transitions[start:]
    initial, final = zip(*ends)
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
    return ids[final]


def _family_map(
    g: Chor, a: str, inherited: Optional[CommEvent]
) -> dict[CommEvent, Optional[CommEvent]]:
    """Assign each machine event of ``a`` in ``g`` to its branch family.

    The family of an event is the first output that opened its thread of
    the branch: outputs with no prior anchor found their own family,
    everything after follows the nearest anchor to the left, and parallel
    threads anchor independently.  A loop opening a branch anchors on its
    start markers.
    """
    if isinstance(g, Interaction):
        if a == g.sender:
            e = CommEvent(g.channel, "!", g.cp, g.message)
            return {e: inherited if inherited is not None else e}
        if a == g.receiver:
            return {CommEvent(g.channel, "?", g.cp, g.message): inherited}
        return {}

    if isinstance(g, Seq):
        out: dict[CommEvent, Optional[CommEvent]] = {}
        anchor = inherited
        for part in g.parts:
            families = _family_map(part, a, anchor)
            if anchor is None:
                # The start markers of one loop share a cp; the first receiver's is canonical.
                introduced = filter(None, families.values())
                anchor = min(introduced, key=lambda e: (e.cp, e.channel.receiver), default=None)
            out.update(families)
        return out

    if isinstance(g, Par):
        out = {}
        for branch in g.branches:
            out.update(_family_map(branch, a, inherited))
        return out

    if isinstance(g, Loop):
        members = participants(g.body)
        if a == g.controller:
            others = sorted(members - {a})
            starts = [CommEvent(Channel(a, b), "!", g.cp, LOOP_START) for b in others]
            ends = [CommEvent(Channel(a, b), "!", g.cp, LOOP_END) for b in others]
            out = {}
            if inherited is None:
                canonical = starts[0]
                out.update({e: e for e in starts})
                out.update({e: canonical for e in ends})
                out.update(_family_map(g.body, a, canonical))
            else:
                out.update({e: inherited for e in starts + ends})
                out.update(_family_map(g.body, a, inherited))
            return out
        if a in members:
            ch = Channel(g.controller, a)
            out = {
                CommEvent(ch, "?", g.cp, LOOP_START): inherited,
                CommEvent(ch, "?", g.cp, LOOP_END): inherited,
            }
            out.update(_family_map(g.body, a, inherited))
            return out
        return {}

    if isinstance(g, Choice):
        out = {}
        for br in g.branches:
            out.update(_family_map(br.body, a, inherited))
        return out

    raise TypeError(f"not a choreography term: {g!r}")
