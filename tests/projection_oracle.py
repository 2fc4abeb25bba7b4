"""The projection through pre-machines, as first written, kept as a test oracle.

The package used to build each participant's machine with an algebra
over pre-machines, machines with an explicit interface state.
Sequencing glued one machine's interface to the next one's initial state,
a choice joined its branch machines on a shared initial and interface
state, and ``par`` took a product.  Every glue renamed all transitions of
the machine built so far.  The package now writes each construct's
transitions once, between a given entry state and the exit state it
returns, deterministically, and only then minimizes.

This module keeps the algebra, the projection over it, and the
determinizing ``finalize`` that the algebra's joins of branches need.
It also keeps ``_family_map``, the second walk over each decided branch
that worked out its events' families; the package now records each
family in the walk that writes the event.  The two routes share only the
deciders of the root event order, so the differential tests compare
decorations as well as machines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from chorrev.machine import (
    UNIT,
    Branch,
    Decoration,
    DeterminizationConflict,
    ProjectionError,
    RCfsm,
    Transition,
    Unit,
)
from chorrev.model import (
    LOOP_END,
    LOOP_START,
    Channel,
    Choice,
    Chor,
    Guard,
    Interaction,
    Loop,
    Par,
    Seq,
    guard_text,
    participants,
    validate,
)
from chorrev.order import CommEvent, semantics, well_branched
from chorrev.projection import _deciders


# The sort and comparison keys the package's ``finalize`` once used.  The
# determinizing ``finalize`` below still needs them: a row of the subset
# construction may hold one event under two decorations, and the
# decoration's key breaks the tie, guards by their text.


def decoration_key(d: Decoration) -> tuple:
    if isinstance(d, Unit):
        return ("unit",)
    return (d.kind, d.choice_state, event_key(d.first_output), guard_text(d.guard))


def event_key(e: CommEvent) -> tuple:
    return (e.channel.sender, e.channel.receiver, e.polarity, e.cp, e.message)


def label_key(event: CommEvent, decoration: Decoration) -> tuple:
    return (event_key(event), decoration_key(decoration))


class StateAlloc:
    """Hands out fresh state identifiers; shared across one projection."""

    def __init__(self, start: int = 0):
        self._counter = itertools.count(start)

    def fresh(self) -> int:
        return next(self._counter)


@dataclass(frozen=True)
class PMachine:
    """A machine under construction, with a distinguished interface state.

    The interface state is where subsequent behavior will be attached;
    gluing machines together renames interface and initial states into one
    another rather than adding silent transitions.
    """

    owner: str
    states: frozenset[int]
    initial: int
    interface: int
    transitions: frozenset[Transition]

    def out_of(self, state: int) -> list[Transition]:
        return sorted(
            (t for t in self.transitions if t.src == state),
            key=lambda t: label_key(t.event, t.decoration),
        )


def empty_machine(owner: str, alloc: StateAlloc) -> PMachine:
    q = alloc.fresh()
    return PMachine(owner, frozenset({q}), q, q, frozenset())


def single_event(owner: str, event: CommEvent, alloc: StateAlloc) -> PMachine:
    q0 = alloc.fresh()
    qe = alloc.fresh()
    return PMachine(
        owner,
        frozenset({q0, qe}),
        q0,
        qe,
        frozenset({Transition(q0, event, UNIT, qe)}),
    )


def _sub_state(mapping: dict[int, int], s: int) -> int:
    return mapping.get(s, s)


def _sub_decoration(mapping: dict[int, int], d: Decoration) -> Decoration:
    if isinstance(d, Branch):
        return d._replace(choice_state=_sub_state(mapping, d.choice_state))
    return d


def substitute(m: PMachine, mapping: dict[int, int]) -> PMachine:
    """Rename states of ``m``, in transitions and inside decorations alike."""
    return PMachine(
        m.owner,
        frozenset(_sub_state(mapping, s) for s in m.states),
        _sub_state(mapping, m.initial),
        _sub_state(mapping, m.interface),
        frozenset(
            Transition(
                _sub_state(mapping, t.src),
                t.event,
                _sub_decoration(mapping, t.decoration),
                _sub_state(mapping, t.dst),
            )
            for t in m.transitions
        ),
    )


def seq_machines(*machines: PMachine) -> PMachine:
    """Run each machine to its interface, then continue as the next one."""
    if len({m.owner for m in machines}) > 1:
        raise ProjectionError("cannot sequence machines of different participants")
    # An empty machine's initial state is its interface: glue from the right.
    glue: dict[int, int] = {}
    for m, nxt in reversed(list(zip(machines, machines[1:]))):
        glue[m.interface] = glue.get(nxt.initial, nxt.initial)
    whole = PMachine(
        machines[0].owner,
        frozenset().union(*(m.states for m in machines)),
        machines[0].initial,
        machines[-1].interface,
        frozenset().union(*(m.transitions for m in machines)),
    )
    return substitute(whole, glue)


def join_machines(machines: list[PMachine]) -> PMachine:
    """Merge alternative machines by sharing their initial and interface."""
    if not machines:
        raise ValueError("nothing to join")
    base = machines[0]
    states = set(base.states)
    transitions = set(base.transitions)
    for m in machines[1:]:
        if m.owner != base.owner:
            raise ProjectionError("cannot join machines of different participants")
        renamed = substitute(m, {m.initial: base.initial, m.interface: base.interface})
        states |= renamed.states
        transitions |= renamed.transitions
    return PMachine(base.owner, frozenset(states), base.initial, base.interface, frozenset(transitions))


def product_machines(m1: PMachine, m2: PMachine, alloc: StateAlloc) -> PMachine:
    """Interleave two independent machines of the same participant."""
    if m1.owner != m2.owner:
        raise ProjectionError("cannot interleave machines of different participants")
    for m in (m1, m2):
        if any(not isinstance(t.decoration, Unit) for t in m.transitions):
            raise ProjectionError(
                "cannot interleave machines that already carry branch decorations"
            )
    ids: dict[tuple[int, int], int] = {}
    for s1 in sorted(m1.states):
        for s2 in sorted(m2.states):
            ids[(s1, s2)] = alloc.fresh()
    transitions: set[Transition] = set()
    for (s1, s2), src in ids.items():
        for t in m1.transitions:
            if t.src == s1:
                transitions.add(Transition(src, t.event, t.decoration, ids[(t.dst, s2)]))
        for t in m2.transitions:
            if t.src == s2:
                transitions.add(Transition(src, t.event, t.decoration, ids[(s1, t.dst)]))
    return PMachine(
        m1.owner,
        frozenset(ids.values()),
        ids[(m1.initial, m2.initial)],
        ids[(m1.interface, m2.interface)],
        frozenset(transitions),
    )


def decorate(m: PMachine, guard: Guard, families: dict[CommEvent, Optional[CommEvent]]) -> PMachine:
    """Mark every transition of a branch machine with its reversal data.

    ``families`` maps each event of the machine to the first output that
    identifies its branch family.  Transitions entering the interface become
    committed, all others ongoing.  The machine must not carry decorations
    yet (a nested choice decided by the same participant has no meaningful
    two-level decoration).
    """
    if any(not isinstance(t.decoration, Unit) for t in m.transitions):
        raise ProjectionError(
            f"machine of {m.owner} is already decorated; nested choices decided by"
            " the same participant cannot be projected"
        )
    q_hat = m.initial
    transitions = set()
    for t in m.transitions:
        first = families.get(t.event)
        if first is None:
            raise ProjectionError(
                f"no anchoring output for {t.event} in a branch of {m.owner}"
            )
        deco = Branch(q_hat, first, guard, t.dst == m.interface)
        transitions.add(Transition(t.src, t.event, deco, t.dst))
    return PMachine(m.owner, m.states, m.initial, m.interface, frozenset(transitions))


def forget_pmachine(m: PMachine) -> PMachine:
    """Erase decorations, keeping everything else as it is."""
    return PMachine(
        m.owner,
        m.states,
        m.initial,
        m.interface,
        frozenset(Transition(t.src, t.event, UNIT, t.dst) for t in m.transitions),
    )


def finalize(
    owner: str, initial: int, exit: int, transitions: Iterable[Transition]
) -> RCfsm:
    """Determinize, minimize and renumber the machine of ``owner`` that
    runs ``transitions`` from ``initial`` and accepts in ``exit``.

    Decoration references to choice states are carried through both
    constructions; if a referenced state ends up in several subset states,
    or two distinct choice states fall into one equivalence class, the
    machine cannot be presented faithfully and an error is raised.
    """
    by_src: dict[int, dict[tuple, set[int]]] = {}
    labels_of: dict[int, dict[tuple, tuple[CommEvent, Decoration]]] = {}
    for t in transitions:
        key = label_key(t.event, t.decoration)
        by_src.setdefault(t.src, {}).setdefault(key, set()).add(t.dst)
        labels_of.setdefault(t.src, {})[key] = (t.event, t.decoration)

    # Subset construction from the initial state.
    start = frozenset({initial})
    subset_ids: dict[frozenset[int], int] = {start: 0}
    order: list[frozenset[int]] = [start]
    sub_trans: dict[int, list[tuple[tuple, CommEvent, Decoration, int]]] = {}
    queue = [start]
    while queue:
        cur = queue.pop(0)
        cur_id = subset_ids[cur]
        merged: dict[tuple, tuple[CommEvent, Decoration, set[int]]] = {}
        for s in cur:
            for key, dsts in by_src.get(s, {}).items():
                event, deco = labels_of[s][key]
                if key in merged:
                    merged[key][2].update(dsts)
                else:
                    merged[key] = (event, deco, set(dsts))
        rows = []
        for key in sorted(merged):
            event, deco, dsts = merged[key]
            target = frozenset(dsts)
            if target not in subset_ids:
                subset_ids[target] = len(order)
                order.append(target)
                queue.append(target)
            rows.append((key, event, deco, subset_ids[target]))
        sub_trans[cur_id] = rows

    n = len(order)
    accepting = {i for i, subset in enumerate(order) if exit in subset}

    # Partition refinement.
    block = [0 if i in accepting else 1 for i in range(n)]
    while True:
        signatures = {}
        for i in range(n):
            sig = (block[i], tuple((key, block[dst]) for key, _, _, dst in sub_trans[i]))
            signatures.setdefault(sig, []).append(i)
        if len(signatures) == len(set(block)):
            break
        new_block = [0] * n
        for b, (_, members) in enumerate(sorted(signatures.items(), key=lambda kv: kv[1][0])):
            for i in members:
                new_block[i] = b
        block = new_block

    # Where did each original state end up?
    class_of_pstate: dict[int, set[int]] = {}
    for i, subset in enumerate(order):
        for s in subset:
            class_of_pstate.setdefault(s, set()).add(block[i])

    def remap_choice_state(q: int) -> int:
        classes = class_of_pstate.get(q)
        if classes is None:
            raise ProjectionError(
                f"decoration of {owner} references unreachable state {q}"
            )
        if len(classes) > 1:
            raise ProjectionError(
                f"decoration of {owner} references state {q}, which was split"
                " during determinization"
            )
        return next(iter(classes))

    # Breadth-first renumbering of the equivalence classes.
    initial_class = block[0]
    numbering: dict[int, int] = {initial_class: 0}
    bfs = [initial_class]
    class_rep: dict[int, int] = {}
    for i in range(n):
        class_rep.setdefault(block[i], i)
    visited = {initial_class}
    while bfs:
        cls = bfs.pop(0)
        rep = class_rep[cls]
        for key, _, _, dst in sub_trans[rep]:
            dcls = block[dst]
            if dcls not in visited:
                visited.add(dcls)
                numbering[dcls] = len(numbering)
                bfs.append(dcls)

    choice_state_targets: dict[int, int] = {}

    def final_decoration(d: Decoration) -> Decoration:
        if isinstance(d, Unit):
            return d
        cls = remap_choice_state(d.choice_state)
        if cls not in numbering:
            raise ProjectionError(
                f"decoration of {owner} references a state outside the reachable part"
            )
        new_q = numbering[cls]
        prior = choice_state_targets.get(new_q)
        if prior is not None and prior != d.choice_state:
            raise ProjectionError(
                f"two distinct choice states of {owner} were merged into one"
            )
        choice_state_targets[new_q] = d.choice_state
        return d._replace(choice_state=new_q)

    transitions: list[Transition] = []
    emitted = set()
    for cls, num in numbering.items():
        rep = class_rep[cls]
        for key, event, deco, dst in sub_trans[rep]:
            dnum = numbering[block[dst]]
            t = Transition(num, event, final_decoration(deco), dnum)
            marker = (num, key)
            if marker not in emitted:
                emitted.add(marker)
                transitions.append(t)
    transitions.sort(key=lambda t: (t.src, label_key(t.event, t.decoration)))

    finals = frozenset(
        numbering[block[i]] for i in range(n) if i in accepting and block[i] in numbering
    )

    seen: dict[tuple[int, tuple], Transition] = {}
    for t in transitions:
        marker = (t.src, event_key(t.event))
        if marker in seen and seen[marker] != t:
            raise DeterminizationConflict(
                f"machine of {owner} has two different transitions for"
                f" {t.event} from state {t.src}"
            )
        seen[marker] = t

    count = len(numbering)
    return RCfsm(owner, tuple(range(count)), 0, tuple(transitions), finals)


def finalize_pmachine(m: PMachine) -> RCfsm:
    """Determinize, minimize and renumber a pre-machine."""
    return finalize(m.owner, m.initial, m.interface, m.transitions)


# ---------------------------------------------------------------------------
# Projection over pre-machines


def project(g: Chor, participant: str, decorated: bool = True) -> RCfsm:
    """One participant's machine through pre-machines, decorated or plain.

    It validates nothing, so it keeps the refusals that only invalid or
    ill-branched input reaches: a loop with its controller alone, and a
    participant in some branches of a choice only.
    """
    pm = _project(g, participant, StateAlloc(), _deciders(semantics(g)))
    if not decorated:
        pm = forget_pmachine(pm)
    return finalize_pmachine(pm)


def project_system(g: Chor) -> dict[str, RCfsm]:
    """The machines of ``projection.project_system``, through pre-machines."""
    report = validate(g)
    if not report.ok:
        raise ProjectionError(f"invalid choreography:\n{report}")
    order = semantics(g)
    wb = well_branched(g, order)
    if not wb.ok:
        raise ProjectionError(f"choreography is not well branched:\n{wb}")
    alloc = StateAlloc()
    deciders = _deciders(order)
    return {
        a: finalize_pmachine(_project(g, a, alloc, deciders)) for a in sorted(participants(g))
    }


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
        threads = [branch for branch in g.branches if a in participants(branch)]
        if not threads:
            return empty_machine(a, alloc)
        machine = _project(threads[0], a, alloc, deciders)
        for branch in threads[1:]:
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
