"""Communicating finite-state machines with branch decorations.

A participant's behavior is a finite-state machine whose transitions are
labeled with send/receive events.  Transitions that implement a branch of a
choice additionally carry a decoration: which state took the decision,
which first output identifies the branch, and under which guard the branch
may be undone.  That decoration is one :class:`Branch`; its ``committed``
flag is set on the transitions that leave the branch for good and clear
(the branch is ``ongoing``) while it may still be rolled back.

Projection writes a participant's transitions from an initial state to
an exit state (see :mod:`chorrev.projection`); :func:`finalize` then
determinizes, minimizes and renumbers them into their presentation form.
"""

from __future__ import annotations

import dataclasses
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


def forget_machine(m: RCfsm) -> RCfsm:
    """Erase decorations, keeping everything else as it is."""
    return RCfsm(
        m.owner,
        m.states,
        m.initial,
        tuple(Transition(t.src, t.event, UNIT, t.dst) for t in m.transitions),
        m.finals,
        dict(m.aliases),
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
                f"machine of {owner} has two different transitions for"
                f" {t.event} from state {t.src}"
            )
        seen[marker] = t

    count = len(numbering)
    aliases = {i: f"q{i}{owner}" for i in range(count)}
    return RCfsm(
        owner,
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
