"""Communicating finite-state machines with branch decorations.

A participant's behavior is a finite-state machine whose transitions are
labeled with send/receive events.  Transitions that implement a branch of a
choice additionally carry a decoration: which state took the decision,
which first output identifies the branch, and under which guard the branch
may be undone.  That decoration is one :class:`Branch`; its ``committed``
flag is set on the transitions that leave the branch for good and clear
(the branch is ``ongoing``) while it may still be rolled back.

Projection writes a participant's transitions from an initial state to
an exit state, at most one per state and event (see
:mod:`chorrev.projection`); :func:`finalize` then minimizes and renumbers
them into their presentation form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Union

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
    """The decoration of a plain transition.

    A dataclass: as an empty named tuple it would equal ``()``.
    """

    def __str__(self) -> str:
        return "unit"


UNIT = Unit()


class Branch(NamedTuple):
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


class Transition(NamedTuple):
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
    machine never builds them.  They are cached properties, which need an
    instance dict, so a machine is a dataclass and not a named tuple.
    """

    owner: str
    states: tuple[int, ...]
    initial: int
    transitions: tuple[Transition, ...]
    finals: frozenset[int]

    def alias(self, state: int) -> str:
        return f"q{state}{self.owner}"

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
    )


def finalize(
    owner: str, initial: int, exit: int, transitions: Iterable[Transition]
) -> RCfsm:
    """Minimize and renumber the deterministic machine of ``owner`` that
    runs ``transitions`` from ``initial`` and accepts in ``exit``.

    A state may have one transition per event; an exact repetition counts
    once, and a different second one raises :class:`DeterminizationConflict`.
    Decoration references to choice states follow their states into the
    equivalence classes; if two distinct choice states fall into one class,
    the machine cannot be presented faithfully and an error is raised.
    """
    rows: dict[int, dict[CommEvent, Transition]] = {}
    for t in transitions:
        prior = rows.setdefault(t.src, {}).setdefault(t.event, t)
        if prior is not t and prior != t:
            raise DeterminizationConflict(
                f"machine of {owner} has two different transitions for"
                f" {t.event} from state {t.src}"
            )

    # Number the reachable states breadth-first, each state's transitions
    # in event order (only a state with several needs sorting); out[i]
    # lists (transition, target number).  Refinement starts from the
    # partition by acceptance and by the sequence of (event, decoration)
    # labels, which its first round would reach anyway; each label is
    # hashed once.
    number = {initial: 0}
    order = [initial]
    out: list[list[tuple[Transition, int]]] = []
    block: list[int] = []
    firsts: dict[tuple, int] = {}
    for q in order:
        row = rows.get(q, {})
        listed = []
        key: list = [q == exit]
        for t in [row[e] for e in sorted(row)] if len(row) > 1 else row.values():
            j = number.get(t.dst)
            if j is None:
                j = number[t.dst] = len(order)
                order.append(t.dst)
            listed.append((t, j))
            key += (t.event, t.decoration)
        out.append(listed)
        block.append(firsts.setdefault(tuple(key), len(firsts)))

    # Partition refinement.  Each round numbers the blocks by their first
    # member; on states numbered breadth-first in event order, that is
    # the breadth-first numbering of the minimal machine.  The states of
    # one block have the same labels, so a state's signature is its block
    # and its targets' blocks in label order.
    targets = [[j for _, j in row] for row in out]
    blocks = len(firsts)
    while blocks < len(order):  # a partition into single states is stable
        signatures: dict[tuple[int, ...], list[int]] = {}
        for i, row in enumerate(targets):
            sig = (block[i], *[block[j] for j in row])
            signatures.setdefault(sig, []).append(i)
        stable = len(signatures) == blocks
        blocks = len(signatures)
        for b, members in enumerate(signatures.values()):
            for i in members:
                block[i] = b
        if stable:
            break
    heads: dict[int, int] = {}  # each block's first member
    for i, b in enumerate(block):
        heads.setdefault(b, i)

    choice_state_targets: dict[int, int] = {}

    def final_decoration(d: Decoration) -> Decoration:
        if isinstance(d, Unit):
            return d
        i = number.get(d.choice_state)
        if i is None:
            raise ProjectionError(
                f"decoration of {owner} references unreachable state {d.choice_state}"
            )
        q = block[i]
        if choice_state_targets.setdefault(q, d.choice_state) != d.choice_state:
            raise ProjectionError(
                f"two distinct choice states of {owner} were merged into one"
            )
        return Branch(q, d.first_output, d.guard, d.committed)

    final = tuple(
        Transition(b, t.event, final_decoration(t.decoration), block[j])
        for b, i in heads.items()
        for t, j in out[i]
    )
    finals = frozenset({block[number[exit]]} if exit in number else ())
    return RCfsm(owner, tuple(range(blocks)), 0, final, finals)


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
