"""Projection of a choreography onto each participant's machine.

Interactions project to a single send or receive, sequencing glues
machines together, parallel branches interleave, and a choice merges the
alternative branch machines on a shared decision state.  The deciding
participant's branch transitions are decorated so they can later be rolled
back; everyone else's machines stay plain.

A loop controlled by ``a`` is wired explicitly: ``a`` announces each
iteration by sending a start marker to every other participant of the body
(and re-sends it on repetition), and announces the exit with an end
marker.  The other body participants mirror this with marker receives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .machine import (
    PMachine,
    ProjectionError,
    RCfsm,
    StateAlloc,
    decorate,
    empty_machine,
    finalize,
    forget_machine,
    join_machines,
    product_machines,
    seq_machines,
    single_event,
    substitute,
)
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
    channels: tuple[Channel, ...]
    order: EventOrder

    @property
    def participants(self) -> tuple[str, ...]:
        return tuple(self.machines)


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
    pm = _project(g, participant, StateAlloc(), _deciders(semantics(g)))
    if not decorated:
        pm = forget_machine(pm)
    return finalize(pm)


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
    wb = well_branched(g)
    if not wb.ok:
        raise ProjectionError(f"choreography is not well branched:\n{wb}")
    alloc = StateAlloc()
    deciders = _deciders(order)
    machines: dict[str, RCfsm] = {}
    for a in sorted(participants(g)):
        machines[a] = finalize(_project(g, a, alloc, deciders))
    channels = sorted(
        {t.event.channel for m in machines.values() for t in m.transitions}
    )
    return System(g, machines, tuple(channels), order)


def _project(g: Chor, a: str, alloc: StateAlloc, deciders: dict[int, str]) -> PMachine:
    if isinstance(g, Interaction):
        if a == g.sender:
            return single_event(a, CommEvent(g.channel, "!", g.cp, g.message), alloc)
        if a == g.receiver:
            return single_event(a, CommEvent(g.channel, "?", g.cp, g.message), alloc)
        return empty_machine(a, alloc)

    if isinstance(g, Seq):
        return seq_machines(*(_project(part, a, alloc, deciders) for part in g.parts))

    if isinstance(g, Par):
        machine = _project(g.branches[0], a, alloc, deciders)
        for branch in g.branches[1:]:
            machine = product_machines(machine, _project(branch, a, alloc, deciders), alloc)
        return machine

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
            entry = _multi_event(a, starts, alloc)
            again = _multi_event(a, starts, alloc)
            leave = _multi_event(a, ends, alloc)
        elif a in members:
            ch = Channel(g.controller, a)
            entry = single_event(a, CommEvent(ch, "?", g.cp, LOOP_START), alloc)
            again = single_event(a, CommEvent(ch, "?", g.cp, LOOP_START), alloc)
            leave = single_event(a, CommEvent(ch, "?", g.cp, LOOP_END), alloc)
        else:
            return empty_machine(a, alloc)
        body = _project(g.body, a, alloc, deciders)
        again = substitute(again, {again.initial: body.interface, again.interface: body.initial})
        leave = substitute(leave, {leave.initial: body.interface})
        combined = PMachine(
            a,
            body.states | again.states | leave.states,
            body.initial,
            leave.interface,
            body.transitions | again.transitions | leave.transitions,
        )
        return seq_machines(entry, combined)

    if isinstance(g, Choice):
        if a == deciders[g.cp]:
            branch_machines = []
            for br in g.branches:
                bm = _project(br.body, a, alloc, deciders)
                families = _family_map(br.body, a, None)
                branch_machines.append(decorate(bm, br.guard, families))
            return join_machines(branch_machines)
        occurs = [a in participants(br.body) for br in g.branches]
        if not any(occurs):
            return empty_machine(a, alloc)
        if not all(occurs):
            raise ProjectionError(
                f"{a} takes part in some but not all branches of the choice"
                f" at control point {g.cp}"
            )
        return join_machines([_project(br.body, a, alloc, deciders) for br in g.branches])

    raise TypeError(f"not a choreography term: {g!r}")


def _multi_event(owner: str, events: list[CommEvent], alloc: StateAlloc) -> PMachine:
    machine = single_event(owner, events[0], alloc)
    for e in events[1:]:
        machine = product_machines(machine, single_event(owner, e, alloc), alloc)
    return machine


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
