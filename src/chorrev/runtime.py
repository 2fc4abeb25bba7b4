"""Forward execution of a projected system.

A configuration records, for every participant, its current machine state;
for every channel, the sequence of message logs sent on it and how many of
them the receiver has consumed; and a book of decision states, remembering
which branch families were already tried there and whether the
alternatives are exhausted.

A log carries the message, the state the sender was in when it sent it,
the control point of the originating construct, and a timestamp that is
local to the sender (its send counter across all of its channels).  Logs
are never discarded by forward execution; consuming an input only moves
the channel's head index past its log.  This is what makes rollback
possible later.

Searches hash configurations far more often than they build them, so a
configuration computes its hash once, at construction.  Its parts are
named tuples: logs, channel states and book entries, like channels, cache
no hash, since the interpreter hashes and compares a tuple in C.  A
configuration is its three sorted tuples and that hash, nothing more:
its lookups scan the tuples, which hold one slot per participant,
channel or open decision.  A forward step builds its successor from the
parent's tuples: it replaces the mover's state and one channel, and
shares every other channel and, unless the move commits out of a
branch, the book.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Optional

from .machine import Branch, Decoration, Transition
from .model import (
    And,
    Channel,
    CountAtom,
    GFalse,
    GTrue,
    Guard,
    MemberAtom,
    Not,
    Or,
)
from .order import CommEvent
from .projection import System

FULL = "full"
PENDING = "pending"


class NotEnabled(Exception):
    pass


class Log(NamedTuple):
    message: str
    sender_state: int
    cp: int
    timestamp: int

    def __str__(self) -> str:
        return f"({self.message}, {self.sender_state}, {self.cp}, {self.timestamp})"


class ChannelState(NamedTuple):
    """Every log sent on one channel, oldest first, and ``head``, the number
    of them the receiver has consumed.

    ``consumed`` and ``pending`` are the two sides of the head.  A channel
    state caches no hash: as a named tuple it hashes in C.
    """

    logs: tuple[Log, ...] = ()
    head: int = 0

    @property
    def consumed(self) -> tuple[Log, ...]:
        return self.logs[: self.head]

    @property
    def pending(self) -> tuple[Log, ...]:
        return self.logs[self.head :]


EMPTY_CHANNEL = ChannelState()


class BookEntry(NamedTuple):
    tried: frozenset[tuple[CommEvent, Guard]] = frozenset()
    exhausted: bool = False


EMPTY_ENTRY = BookEntry()


@dataclass(frozen=True)
class Configuration:
    """An immutable, canonically ordered snapshot of the whole system.

    ``sigma`` and ``book`` are sorted by participant (and state), ``chi``
    by channel, and ``chi`` holds no empty channel and ``book`` no empty
    entry.  :meth:`make` canonicalises dict input; the forward and
    backward steps keep the order themselves, sharing the parts of the
    parent they leave alone.  The hash is computed once, at construction;
    it is not a field.  Every ``seen`` lookup of a search hashes a
    configuration, so it is the one type that caches its hash, and a
    dataclass rather than a named tuple.  There are no dict views: the
    lookups scan the tuples.
    """

    sigma: tuple[tuple[str, int], ...]
    chi: tuple[tuple[Channel, ChannelState], ...]
    book: tuple[tuple[str, int, BookEntry], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.sigma, self.chi, self.book)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def make(
        sigma: dict[str, int],
        chi: dict[Channel, ChannelState],
        book: dict[tuple[str, int], BookEntry],
    ) -> "Configuration":
        """The canonical configuration of three dicts: sorted, without
        empty channels or empty book entries."""
        return Configuration(
            tuple(sorted(sigma.items())),
            tuple(
                sorted(
                    ((c, s) for c, s in chi.items() if s.logs),
                    key=lambda pair: pair[0],
                )
            ),
            tuple(
                sorted(
                    ((a, q, e) for (a, q), e in book.items() if e != EMPTY_ENTRY),
                    key=lambda triple: (triple[0], triple[1]),
                )
            ),
        )

    def state_of(self, participant: str) -> int:
        for a, q in self.sigma:
            if a == participant:
                return q
        raise KeyError(participant)

    def channel_state(self, channel: Channel) -> ChannelState:
        for ch, cs in self.chi:
            if ch == channel:
                return cs
        return EMPTY_CHANNEL

    def book_entry(self, participant: str, state: int) -> BookEntry:
        for a, q, e in self.book:
            if a == participant and q == state:
                return e
        return EMPTY_ENTRY


def initial_configuration(system: System) -> Configuration:
    return Configuration.make(
        {a: m.initial for a, m in system.machines.items()}, {}, {}
    )


def next_timestamp(cfg: Configuration, sender: str) -> int:
    """One past the largest timestamp the sender ever stamped on a log.

    A sender stamps each log one past all it holds, and a rollback only
    cuts a suffix of a channel's logs, so a channel's last log holds its
    largest timestamp (``chi`` holds no empty channel).
    """
    return 1 + max((cs.logs[-1].timestamp for ch, cs in cfg.chi if ch.sender == sender), default=0)


# ---------------------------------------------------------------------------
# Guards


def message_count(cfg: Configuration, message: str, channel: Channel, scope: str = FULL) -> int:
    cs = cfg.channel_state(channel)
    logs = cs.logs[cs.head :] if scope == PENDING else cs.logs
    return sum(1 for log in logs if log.message == message)


_OPS = {
    "<": lambda n, k: n < k,
    "<=": lambda n, k: n <= k,
    "==": lambda n, k: n == k,
    ">=": lambda n, k: n >= k,
    ">": lambda n, k: n > k,
}


def eval_guard(g: Guard, cfg: Configuration, scope: str = FULL) -> bool:
    if isinstance(g, GTrue):
        return True
    if isinstance(g, GFalse):
        return False
    if isinstance(g, CountAtom):
        return _OPS[g.op](message_count(cfg, g.message, g.channel, scope), g.bound)
    if isinstance(g, MemberAtom):
        return message_count(cfg, g.message, g.channel, scope) >= 1
    if isinstance(g, Not):
        return not eval_guard(g.inner, cfg, scope)
    if isinstance(g, Or):
        return eval_guard(g.left, cfg, scope) or eval_guard(g.right, cfg, scope)
    if isinstance(g, And):
        return eval_guard(g.left, cfg, scope) and eval_guard(g.right, cfg, scope)
    raise TypeError(f"not a guard: {g!r}")


# ---------------------------------------------------------------------------
# Steps


def _tried_here(entry: BookEntry, deco: Branch) -> bool:
    """Is the family of ``deco`` barred: tried at its decision state, whose
    book entry is ``entry``, while alternatives remain?"""
    return (deco.first_output, deco.guard) in entry.tried and not entry.exhausted


def output_blocked_by_guard(
    cfg: Configuration, participant: str, deco: Decoration, scope: str = FULL
) -> bool:
    """Guard-sensitive blocking: a revertible output whose guard holds waits."""
    if not isinstance(deco, Branch):
        return False
    entry = cfg.book_entry(participant, deco.choice_state)
    return not entry.exhausted and eval_guard(deco.guard, cfg, scope)


def _refused(template: str, cfg: Configuration, participant: str, t: Transition) -> NotEnabled:
    """The refusal of a step, its reason filled in.

    The checks below return ``None`` when a step is enabled and otherwise
    the template of the reason: the searches ask them about every
    transition out of every state they visit, and only a step that raises
    fills the template in.
    """
    cs = cfg.channel_state(t.event.channel)
    head = cs.logs[cs.head] if cs.head < len(cs.logs) else None
    return NotEnabled(template.format(participant=participant, t=t, head=head))


def _check_output(
    cfg: Configuration,
    participant: str,
    t: Transition,
    scope: str,
    block_on_guard: bool,
) -> Optional[str]:
    if t.event.polarity != "!":
        return "not an output transition"
    if cfg.state_of(participant) != t.src:
        return "{participant} is not in state {t.src}"
    d = t.decoration
    if isinstance(d, Branch) and _tried_here(cfg.book_entry(participant, d.choice_state), d):
        return "this branch family was already tried here"
    if block_on_guard and output_blocked_by_guard(cfg, participant, d, scope):
        return "the branch guard holds, the output is blocked"
    return None


def _check_input(cfg: Configuration, participant: str, t: Transition) -> Optional[str]:
    if t.event.polarity != "?":
        return "not an input transition"
    if cfg.state_of(participant) != t.src:
        return "{participant} is not in state {t.src}"
    cs = cfg.channel_state(t.event.channel)
    if cs.head == len(cs.logs):
        return "nothing pending on {t.event.channel}"
    head = cs.logs[cs.head]
    if head.message != t.event.message or head.cp != t.event.cp:
        return (
            "the head of {t.event.channel} is {head}, which does not match"
            " {t.event.message}/{t.event.cp}"
        )
    return None


def _with_state(
    sigma: tuple[tuple[str, int], ...], participant: str, state: int
) -> tuple[tuple[str, int], ...]:
    """``sigma`` with the participant's slot replaced."""
    i = bisect_left(sigma, participant, key=itemgetter(0))
    return sigma[:i] + ((participant, state),) + sigma[i + 1 :]


def _with_channel(
    chi: tuple[tuple[Channel, ChannelState], ...], channel: Channel, cs: ChannelState
) -> tuple[tuple[Channel, ChannelState], ...]:
    """``chi`` with the channel's slot replaced, or inserted in channel order."""
    i = bisect_left(chi, channel, key=itemgetter(0))
    end = i + 1 if i < len(chi) and chi[i][0] == channel else i
    return chi[:i] + ((channel, cs),) + chi[end:]


def _successor(
    cfg: Configuration, participant: str, t: Transition, cs: ChannelState
) -> Configuration:
    """``cfg`` after ``participant`` took ``t``, leaving ``cs`` on its channel.

    Only the mover's state and the one channel are new; the other slots
    are the parent's.  So is the book, except under the book rule: a move
    that commits out of a branch clears the entry of its decision state.
    Filtering the sorted book keeps it sorted and free of empty entries.
    """
    book = cfg.book
    d = t.decoration
    if isinstance(d, Branch) and d.committed:
        book = tuple(
            e for e in book if e[0] != participant or e[1] != d.choice_state
        )
    return Configuration(
        _with_state(cfg.sigma, participant, t.dst),
        _with_channel(cfg.chi, t.event.channel, cs),
        book,
    )


def step_output(
    cfg: Configuration,
    system: System,
    participant: str,
    t: Transition,
    scope: str = FULL,
    block_on_guard: bool = False,
) -> Configuration:
    """Send a message: stamp a log and append it to the channel's logs."""
    refusal = _check_output(cfg, participant, t, scope, block_on_guard)
    if refusal is not None:
        raise _refused(refusal, cfg, participant, t)
    ev = t.event
    log = Log(ev.message, cfg.state_of(participant), ev.cp, next_timestamp(cfg, participant))
    cs = cfg.channel_state(ev.channel)
    return _successor(cfg, participant, t, ChannelState(cs.logs + (log,), cs.head))


def step_input(
    cfg: Configuration, system: System, participant: str, t: Transition
) -> Configuration:
    """Receive the log at the channel's head, moving the head past it."""
    refusal = _check_input(cfg, participant, t)
    if refusal is not None:
        raise _refused(refusal, cfg, participant, t)
    cs = cfg.channel_state(t.event.channel)
    return _successor(cfg, participant, t, ChannelState(cs.logs, cs.head + 1))


def enabled_forward(
    cfg: Configuration,
    system: System,
    scope: str = FULL,
    block_on_guard: bool = False,
) -> list[tuple[str, Transition]]:
    """All forward moves available in ``cfg``, in a deterministic order."""
    moves = []
    for a in sorted(system.machines):
        machine = system.machines[a]
        state = cfg.state_of(a)
        for t in machine.out_of(state):
            if t.event.polarity == "!":
                if _check_output(cfg, a, t, scope, block_on_guard) is None:
                    moves.append((a, t))
            else:
                if _check_input(cfg, a, t) is None:
                    moves.append((a, t))
    return moves


def find_transition(
    cfg: Configuration,
    system: System,
    participant: str,
    polarity: str,
    cp: int,
    channel: Optional[Channel] = None,
    message: Optional[str] = None,
) -> Transition:
    """Resolve a schedule directive to a unique transition at the current state.

    The control point alone is ambiguous for loop markers (the controller
    multicasts them over several channels, and the continue and stop
    markers share the loop's control point), so directives may name the
    channel and the message as well.
    """
    machine = system.machines[participant]
    state = cfg.state_of(participant)
    matches = [
        t
        for t in machine.out_of(state)
        if t.event.polarity == polarity
        and t.event.cp == cp
        and (channel is None or t.event.channel == channel)
        and (message is None or t.event.message == message)
    ]
    if not matches:
        raise NotEnabled(
            f"{participant} has no {'output' if polarity == '!' else 'input'}"
            f" for control point {cp} at its current state"
        )
    if len(matches) > 1:
        raise NotEnabled(
            f"control point {cp} is ambiguous for {participant} here;"
            " name the channel in the directive"
        )
    return matches[0]


def forget_config(cfg: Configuration) -> tuple:
    """The plain image of a configuration: states plus pending words.

    Consumed logs, sender states, timestamps and the book are forgotten;
    what remains is comparable with the plain communicating-machine
    semantics.
    """
    words = []
    for ch, cs in cfg.chi:
        if cs.head < len(cs.logs):
            words.append((ch, tuple((log.message, log.cp) for log in cs.logs[cs.head :])))
    return (cfg.sigma, tuple(words))
