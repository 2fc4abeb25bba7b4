"""Communicating finite-state machines with branch decorations.

A participant's behavior is a finite-state machine whose transitions are
labeled with send/receive events.  Transitions that implement a branch of a
choice additionally carry a decoration: which state took the decision,
which first output identifies the branch, and under which guard the branch
may be undone.  That decoration is one :class:`Branch`; its ``committed``
flag is set on the transitions that leave the branch for good and clear
(the branch is ``ongoing``) while it may still be rolled back.

Machines are built with a small algebra (sequencing, merging of
alternatives, parallel product) over pre-machines that carry an explicit
interface state, and are then determinized, minimized and renumbered into
their presentation form.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Union

from .model import Guard, guard_text
from .order import CommEvent


class ProjectionError(Exception):
    pass


class DeterminizationConflict(ProjectionError):
    pass


# ---------------------------------------------------------------------------
# Decorations


@dataclass(frozen=True)
class Unit:
    def __str__(self) -> str:
        return "unit"


UNIT = Unit()


@dataclass(frozen=True)
class Branch:
    """The decoration of a branch transition: the decision it belongs to."""

    choice_state: int
    first_output: CommEvent
    guard: Guard
    committed: bool

    @property
    def kind(self) -> str:
        return "committed" if self.committed else "ongoing"

    def __str__(self) -> str:
        return f"{self.kind}({self.choice_state}, {self.first_output}, {guard_text(self.guard)})"


Decoration = Union[Unit, Branch]


def decoration_key(d: Decoration) -> tuple:
    if isinstance(d, Unit):
        return ("unit",)
    return (d.kind, d.choice_state, event_key(d.first_output), guard_text(d.guard))


def event_key(e: CommEvent) -> tuple:
    return (e.channel.sender, e.channel.receiver, e.polarity, e.cp, e.message)


def label_key(event: CommEvent, decoration: Decoration) -> tuple:
    return (event_key(event), decoration_key(decoration))


@dataclass(frozen=True)
class Transition:
    src: int
    event: CommEvent
    decoration: Decoration
    dst: int

    def __str__(self) -> str:
        deco = "" if isinstance(self.decoration, Unit) else f" {self.decoration}"
        return f"{self.src} --{self.event}{deco}--> {self.dst}"


class StateAlloc:
    """Hands out fresh state identifiers; shared across one projection."""

    def __init__(self, start: int = 0):
        self._counter = itertools.count(start)

    def fresh(self) -> int:
        return next(self._counter)


# ---------------------------------------------------------------------------
# Pre-machines and their algebra


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
        return dataclasses.replace(d, choice_state=_sub_state(mapping, d.choice_state))
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


def forget_machine(m: "PMachine | RCfsm") -> "PMachine | RCfsm":
    """Erase decorations, keeping everything else as it is."""
    if isinstance(m, PMachine):
        return PMachine(
            m.owner,
            m.states,
            m.initial,
            m.interface,
            frozenset(Transition(t.src, t.event, UNIT, t.dst) for t in m.transitions),
        )
    return RCfsm(
        m.owner,
        m.states,
        m.initial,
        tuple(Transition(t.src, t.event, UNIT, t.dst) for t in m.transitions),
        m.finals,
        dict(m.aliases),
    )


# ---------------------------------------------------------------------------
# Presentation machines


@dataclass(frozen=True)
class RCfsm:
    """A finished machine: deterministic, minimal, canonically numbered.

    The lookups by state, by (state, event) and of the branch families
    at a state go through indexes built on first use, so projecting a
    machine never builds them.
    """

    owner: str
    states: tuple[int, ...]
    initial: int
    transitions: tuple[Transition, ...]
    finals: frozenset[int]
    aliases: dict[int, str]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RCfsm):
            return NotImplemented
        return (
            self.owner == other.owner
            and self.states == other.states
            and self.initial == other.initial
            and self.transitions == other.transitions
            and self.finals == other.finals
        )

    def __hash__(self) -> int:
        return hash((self.owner, self.states, self.initial, self.transitions, self.finals))

    def alias(self, state: int) -> str:
        return self.aliases.get(state, str(state))

    @cached_property
    def _by_state(self) -> dict[int, tuple[Transition, ...]]:
        index: dict[int, list[Transition]] = {}
        for t in self.transitions:
            index.setdefault(t.src, []).append(t)
        return {q: tuple(ts) for q, ts in index.items()}

    @cached_property
    def _by_label(self) -> dict[tuple[int, CommEvent], Transition]:
        index: dict[tuple[int, CommEvent], Transition] = {}
        for t in self.transitions:
            index.setdefault((t.src, t.event), t)
        return index

    @cached_property
    def families(self) -> dict[int, tuple[tuple[int, CommEvent, Guard], ...]]:
        """Per state, the branch families decorating its outgoing
        transitions, as (choice state, first output, guard), deduplicated
        and in transition order."""
        index: dict[int, dict[tuple[int, CommEvent, Guard], None]] = {}
        for t in self.transitions:
            d = t.decoration
            if isinstance(d, Branch):
                index.setdefault(t.src, {})[d.choice_state, d.first_output, d.guard] = None
        return {q: tuple(fams) for q, fams in index.items()}

    def out_of(self, state: int) -> list[Transition]:
        return list(self._by_state.get(state, ()))

    def step(self, state: int, event: CommEvent) -> Optional[Transition]:
        """The first transition from ``state`` on ``event``; a valid machine has at most one."""
        return self._by_label.get((state, event))


def finalize(m: PMachine) -> RCfsm:
    """Determinize, minimize and renumber a pre-machine.

    Decoration references to choice states are carried through both
    constructions; if a referenced state ends up in several subset states,
    or two distinct choice states fall into one equivalence class, the
    machine cannot be presented faithfully and an error is raised.
    """
    by_src: dict[int, dict[tuple, set[int]]] = {}
    labels_of: dict[int, dict[tuple, tuple[CommEvent, Decoration]]] = {}
    for t in m.transitions:
        key = label_key(t.event, t.decoration)
        by_src.setdefault(t.src, {}).setdefault(key, set()).add(t.dst)
        labels_of.setdefault(t.src, {})[key] = (t.event, t.decoration)

    # Subset construction from the initial state.
    start = frozenset({m.initial})
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
    accepting = {i for i, subset in enumerate(order) if m.interface in subset}

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
                f"decoration of {m.owner} references unreachable state {q}"
            )
        if len(classes) > 1:
            raise ProjectionError(
                f"decoration of {m.owner} references state {q}, which was split"
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
                f"decoration of {m.owner} references a state outside the reachable part"
            )
        new_q = numbering[cls]
        prior = choice_state_targets.get(new_q)
        if prior is not None and prior != d.choice_state:
            raise ProjectionError(
                f"two distinct choice states of {m.owner} were merged into one"
            )
        choice_state_targets[new_q] = d.choice_state
        return dataclasses.replace(d, choice_state=new_q)

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
                f"machine of {m.owner} has two different transitions for"
                f" {t.event} from state {t.src}"
            )
        seen[marker] = t

    count = len(numbering)
    aliases = {i: f"q{i}{m.owner}" for i in range(count)}
    return RCfsm(
        m.owner,
        tuple(range(count)),
        0,
        tuple(transitions),
        finals,
        aliases,
    )


def to_dot(m: RCfsm) -> str:
    """Render a machine in Graphviz format."""
    lines = [f'digraph "{m.owner}" {{', "  rankdir=LR;", '  node [shape=circle];']
    lines.append('  __start [shape=point, label=""];')
    for s in m.states:
        shape = "doublecircle" if s in m.finals else "circle"
        lines.append(f'  "{m.alias(s)}" [shape={shape}];')
    lines.append(f'  __start -> "{m.alias(m.initial)}";')
    for t in m.transitions:
        label = str(t.event)
        if isinstance(t.decoration, Branch):
            label += (
                f"\\n{t.decoration.kind}({m.alias(t.decoration.choice_state)},"
                f" {t.decoration.first_output.message})"
            )
        lines.append(f'  "{m.alias(t.src)}" -> "{m.alias(t.dst)}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
