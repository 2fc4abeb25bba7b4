"""Abstract syntax for reversible choreographies.

A choreography describes the message flow of a protocol from a global point
of view.  The node types mirror the surface syntax:

    interaction   A -> B : m          one message m from A to B
    sequence      G ; G'
    parallel      par { G | G' }
    loop          loop @A { G }       A decides whether to iterate
    choice        choice @A { {G} unless g + {G'} unless g' }

Every interaction, par, loop and choice carries a control point: a positive
integer that is unique inside one choreography.  Control points give each
message in flight a stable identity; the runtime and the causality analysis
key on them.

Guards (the ``unless`` clauses of a choice) talk about the communication
history of a channel: how often a message was exchanged, or whether it was
exchanged at all.  ``ff`` and ``&&`` are definable from the other guard
forms; :func:`desugar` performs that rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

# Messages used internally to mark loop starts and loop ends.  They are not
# part of the surface syntax; projection introduces them.
LOOP_START = "†"  # †
LOOP_END = "‡"  # ‡

COUNT_OPS = ("<", "<=", "==", ">=", ">")


class Channel(NamedTuple):
    """A directed point-to-point channel between two participants.

    A channel is the pair of its endpoints: as a named tuple it hashes,
    compares and orders in C, and ``a in channel`` asks whether ``a`` is
    one of them.  Channels key every configuration's queues.
    """

    sender: str
    receiver: str

    def __str__(self) -> str:
        return f"{self.sender}->{self.receiver}"


# ---------------------------------------------------------------------------
# Guards
#
# Guards, like the choreography terms below, stay dataclasses: as named
# tuples ``GTrue() == GFalse() == ()`` and ``Or(a, b) == And(a, b)``.


@dataclass(frozen=True)
class GTrue:
    def __str__(self) -> str:
        return "tt"


@dataclass(frozen=True)
class GFalse:
    def __str__(self) -> str:
        return "ff"


@dataclass(frozen=True)
class CountAtom:
    """Compare the number of ``message`` exchanges on ``channel`` with a bound."""

    message: str
    channel: Channel
    op: str
    bound: int

    def __str__(self) -> str:
        return f"count({self.message}, {self.channel}) {self.op} {self.bound}"


@dataclass(frozen=True)
class MemberAtom:
    """Did ``message`` ever travel on ``channel``?"""

    message: str
    channel: Channel

    def __str__(self) -> str:
        return f"{self.message} in {self.channel}"


@dataclass(frozen=True)
class Not:
    inner: "Guard"

    def __str__(self) -> str:
        return guard_text(self)


@dataclass(frozen=True)
class Or:
    left: "Guard"
    right: "Guard"

    def __str__(self) -> str:
        return guard_text(self)


@dataclass(frozen=True)
class And:
    left: "Guard"
    right: "Guard"

    def __str__(self) -> str:
        return guard_text(self)


Guard = Union[GTrue, GFalse, CountAtom, MemberAtom, Not, Or, And]


def desugar(g: Guard) -> Guard:
    """Rewrite ``ff`` and ``&&`` into the core guard forms.

    ``ff`` becomes ``!tt`` and ``a && b`` becomes ``!(!a || !b)``.  The
    result evaluates identically in every channel state.
    """
    if isinstance(g, And):
        return Not(Or(Not(desugar(g.left)), Not(desugar(g.right))))
    if isinstance(g, GFalse):
        return Not(GTrue())
    if isinstance(g, Not):
        return Not(desugar(g.inner))
    if isinstance(g, Or):
        return Or(desugar(g.left), desugar(g.right))
    return g


def guard_atoms(g: Guard) -> Iterator[Union[CountAtom, MemberAtom]]:
    if isinstance(g, (CountAtom, MemberAtom)):
        yield g
    elif isinstance(g, Not):
        yield from guard_atoms(g.inner)
    elif isinstance(g, (Or, And)):
        yield from guard_atoms(g.left)
        yield from guard_atoms(g.right)


_GUARD_PREC = {Or: 1, And: 2, Not: 3}


def guard_text(g: Guard) -> str:
    """Render a guard in surface syntax (parseable back to the same tree)."""

    def render(h: Guard, need: int) -> str:
        prec = _GUARD_PREC.get(type(h), 4)
        if isinstance(h, Not):
            s = "!" + render(h.inner, 3)
        elif isinstance(h, Or):
            s = render(h.left, 1) + " || " + render(h.right, 2)
        elif isinstance(h, And):
            s = render(h.left, 2) + " && " + render(h.right, 3)
        else:
            s = str(h)
        return "(" + s + ")" if prec < need else s

    return render(g, 0)


# ---------------------------------------------------------------------------
# Choreography terms
#
# Dataclasses, like guards, so that a term equals only a term of its own
# kind: a named tuple equals any tuple of the same fields.


@dataclass(frozen=True)
class Interaction:
    sender: str
    receiver: str
    message: str
    cp: int

    @property
    def channel(self) -> Channel:
        return Channel(self.sender, self.receiver)

    def __str__(self) -> str:
        return f"{self.sender} -> {self.receiver} : {self.message} @cp {self.cp}"


@dataclass(frozen=True)
class Seq:
    """One ``;`` chain of two or more parts, run left to right.

    A part that is itself a ``Seq`` was parenthesised and is kept apart,
    because definedness of ``;`` is not associative.
    """

    parts: tuple["Chor", ...]


@dataclass(frozen=True)
class Par:
    branches: tuple["Chor", ...]
    cp: int


@dataclass(frozen=True)
class Loop:
    controller: str
    body: "Chor"
    cp: int


@dataclass(frozen=True)
class ChoiceBranch:
    body: "Chor"
    guard: Guard


@dataclass(frozen=True)
class Choice:
    branches: tuple[ChoiceBranch, ...]
    cp: int
    # Optional participant annotation from the source text (``choice @A``).
    # The deciding participant is computed from the branches; the annotation
    # is cross-checked against it during well-branchedness analysis.
    at: str | None = None


Chor = Union[Interaction, Seq, Par, Loop, Choice]


def subterms(g: Chor) -> Iterator[Chor]:
    """All subterms of ``g`` in preorder (not descending into guards)."""
    yield g
    if isinstance(g, Seq):
        for part in g.parts:
            yield from subterms(part)
    elif isinstance(g, Par):
        for b in g.branches:
            yield from subterms(b)
    elif isinstance(g, Loop):
        yield from subterms(g.body)
    elif isinstance(g, Choice):
        for br in g.branches:
            yield from subterms(br.body)


def control_points(g: Chor) -> list[tuple[int, Chor]]:
    """Control points in preorder, paired with the node that carries them."""
    return [(node.cp, node) for node in subterms(g) if not isinstance(node, Seq)]


def participants(g: Chor) -> frozenset[str]:
    """All participants: interaction endpoints and loop controllers."""
    out: set[str] = set()
    for node in subterms(g):
        if isinstance(node, Interaction):
            out.add(node.sender)
            out.add(node.receiver)
        elif isinstance(node, Loop):
            out.add(node.controller)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Issue:
    kind: str
    detail: str
    cp: int | None = None

    def __str__(self) -> str:
        where = f" (control point {self.cp})" if self.cp is not None else ""
        return f"{self.kind}: {self.detail}{where}"


@dataclass
class ValidationReport:
    issues: list[Issue]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(i) for i in self.issues)


def validate(g: Chor) -> ValidationReport:
    """Check the well-formedness conditions every choreography must satisfy.

    Control points must be positive and pairwise distinct, par and choice
    need at least two branches, a loop's controller must take part in its
    body, channels must connect two distinct participants, and count bounds
    must be nonnegative.
    """
    issues: list[Issue] = []
    seen: dict[int, Chor] = {}
    for cp, node in control_points(g):
        if not isinstance(cp, int) or cp < 1:
            issues.append(
                Issue("nonpositive-control-point", f"control point {cp!r} on {_describe(node)}")
            )
            continue
        if cp in seen:
            issues.append(
                Issue(
                    "duplicate-control-point",
                    f"{_describe(node)} reuses the control point of {_describe(seen[cp])}",
                    cp,
                )
            )
        else:
            seen[cp] = node

    for node in subterms(g):
        if isinstance(node, Interaction):
            if node.sender == node.receiver:
                issues.append(
                    Issue("self-channel", f"{node.sender} sends {node.message} to itself", node.cp)
                )
        elif isinstance(node, Par):
            if len(node.branches) < 2:
                issues.append(Issue("par-arity", "par needs at least two branches", node.cp))
        elif isinstance(node, Loop):
            if node.controller not in participants(node.body):
                issues.append(
                    Issue(
                        "loop-controller-absent",
                        f"controller {node.controller} does not occur in the loop body",
                        node.cp,
                    )
                )
        elif isinstance(node, Choice):
            if len(node.branches) < 2:
                issues.append(Issue("choice-arity", "choice needs at least two branches", node.cp))
            for br in node.branches:
                for atom in guard_atoms(br.guard):
                    if atom.channel.sender == atom.channel.receiver:
                        issues.append(
                            Issue(
                                "self-channel",
                                f"guard channel {atom.channel} connects a participant to itself",
                                node.cp,
                            )
                        )
                    if isinstance(atom, CountAtom):
                        if atom.op not in COUNT_OPS:
                            issues.append(
                                Issue("bad-operator", f"unknown comparison {atom.op!r}", node.cp)
                            )
                        if atom.bound < 0:
                            issues.append(
                                Issue(
                                    "nonnegative-bound",
                                    f"count bound {atom.bound} is negative",
                                    node.cp,
                                )
                            )
    return ValidationReport(issues)


def _describe(node: Chor) -> str:
    if isinstance(node, Interaction):
        return f"interaction {node.sender}->{node.receiver}:{node.message}"
    if isinstance(node, Par):
        return "par"
    if isinstance(node, Loop):
        return f"loop @{node.controller}"
    if isinstance(node, Choice):
        return "choice"
    return "term"


# ---------------------------------------------------------------------------
# Pretty printing


def pretty(g: Chor) -> str:
    """Render a choreography as surface syntax.

    The output carries explicit ``@cp`` annotations, so parsing it back
    reproduces the identical tree.
    """
    lines: list[str] = []
    _emit(g, 0, lines)
    return "\n".join(lines) + "\n"


def _ann(node: Chor) -> str:
    return f" @cp {node.cp}"


def _emit(g: Chor, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    if isinstance(g, Seq):
        for i, part in enumerate(g.parts):
            if isinstance(part, Seq):
                lines.append(f"{pad}(")
                _emit(part, depth + 1, lines)
                lines.append(f"{pad})")
            else:
                _emit(part, depth, lines)
            if i + 1 < len(g.parts):
                lines[-1] += " ;"
    elif isinstance(g, Interaction):
        lines.append(f"{pad}{g.sender} -> {g.receiver} : {g.message}{_ann(g)}")
    elif isinstance(g, Par):
        lines.append(f"{pad}par{_ann(g)} {{")
        for i, b in enumerate(g.branches):
            if i:
                lines.append(f"{pad}|")
            _emit(b, depth + 1, lines)
        lines.append(f"{pad}}}")
    elif isinstance(g, Loop):
        lines.append(f"{pad}loop{_ann(g)} @{g.controller} {{")
        _emit(g.body, depth + 1, lines)
        lines.append(f"{pad}}}")
    elif isinstance(g, Choice):
        at = f" @{g.at}" if g.at else ""
        lines.append(f"{pad}choice{_ann(g)}{at} {{")
        for i, br in enumerate(g.branches):
            lead = "+ " if i else ""
            lines.append(f"{pad}  {lead}{{")
            _emit(br.body, depth + 2, lines)
            lines.append(f"{pad}  }} unless {guard_text(br.guard)}")
        lines.append(f"{pad}}}")
    else:
        raise TypeError(f"not a choreography term: {g!r}")
