"""Backward execution: undoing a tried branch and its consequences.

A reversal is decided by the participant that owns a choice: at a state
whose outgoing transitions carry decorations, it may pick one of the
decorated branch families, provided that family's guard now holds, the
decision state's alternatives are not exhausted, and the family's first
output is still anchored in the recorded history at a point the system can
rewind to.  Everything that causally depends on that first output is then
removed.  A causally closed set of logs is one suffix per channel, so a
rollback is a cut: the number of logs each channel keeps, which the
causality analyzer computes and :func:`rho` applies in one step.  Senders
rewind to the states recorded in the removed logs, receivers of removed
inputs are restored by replaying what is left of their history, and the
decision state's book is updated so the same family is not immediately
retried.

Listing the reversals of a configuration and carrying one out share their
work.  :func:`enabled_reversals` takes the families that pass
:func:`reversible_families` from a caller that holds them, as the search
does per forward class; :func:`step_reverse` checks only the candidate it
is handed; and both read the anchor's cut from the analyzer, which keeps
the answers for the configuration it was asked about last.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Iterator, Optional, Sequence

from .causality import CausalityAnalyzer, LogRef
from .model import Guard
from .order import CommEvent
from .projection import System
from .runtime import (
    FULL,
    BookEntry,
    ChannelState,
    Configuration,
    Log,
    NotEnabled,
    eval_guard,
)


@dataclass(frozen=True)
class ReversalCandidate:
    """An enabled reversal: who undoes which branch family, and its anchor.

    A dataclass: a candidate is read by field name and no search hashes,
    compares or orders one, so being a tuple would buy it nothing.
    """

    participant: str
    choice_state: int
    first_output: CommEvent
    guard: Guard
    anchor: LogRef


class RollbackFailed(Exception):
    """An enabled reversal whose rollback cannot be carried out."""


def rho(
    cfg: Configuration,
    system: System,
    kept: Sequence[int],
    analyzer: Optional[CausalityAnalyzer] = None,
) -> Configuration:
    """Roll the configuration back to a cut: ``kept[i]`` is the number of
    logs that ``cfg.chi[i]`` keeps.

    A causally closed set of logs is one suffix per channel, so a cut
    names it.  Each channel's logs beyond the cut go in one step, and its
    head moves back to the cut if the receiver had consumed any of them.
    Each sender rewinds to the state stored in its earliest removed log.
    Removing the logs one at a time, most dependent first, gives the same
    configuration in every legal order, and this one cut is that
    configuration.

    Then every participant that lost an already consumed input is restored
    by replaying its remaining history; the replayed state is
    authoritative because the literal sender rewind cannot account for
    inputs the receiver keeps.  A malformed cut, or a history that does
    not replay to exactly one state, raises :class:`ValueError`.
    """
    if len(kept) != len(cfg.chi) or any(
        not 0 <= n <= len(cs.logs) for n, (_, cs) in zip(kept, cfg.chi)
    ):
        raise ValueError(
            f"a cut keeps 0 to all logs of each of the {len(cfg.chi)} channels,"
            f" not {list(kept)}"
        )
    analyzer = analyzer or CausalityAnalyzer(system)
    chi = []
    rewound: set[str] = set()  # receivers that lose a consumed input
    earliest: dict[str, Log] = {}  # each sender's first removed log
    for (ch, cs), n in zip(cfg.chi, kept):
        if n == len(cs.logs):
            chi.append((ch, cs))
            continue
        if n < cs.head:
            rewound.add(ch.receiver)
        if n:
            chi.append((ch, ChannelState(cs.logs[:n], min(cs.head, n))))
        first = cs.logs[n]
        earliest[ch.sender] = min(first, earliest.get(ch.sender, first), key=attrgetter("timestamp"))
    states = {a: log.sender_state for a, log in earliest.items()}
    interim = Configuration(
        tuple((a, states.get(a, q)) for a, q in cfg.sigma), tuple(chi), cfg.book
    )
    if not rewound:
        return interim
    for p in sorted(rewound):
        ends = analyzer.replay_end_states(interim, p)
        if len(ends) != 1:
            raise ValueError(
                f"the history of {p} replays to {sorted(ends)}, not to one state"
            )
        (states[p],) = ends
    return Configuration(
        tuple((a, states.get(a, q)) for a, q in cfg.sigma), interim.chi, cfg.book
    )


def _latest_anchor(
    cfg: Configuration, first: CommEvent, choice_state: int
) -> Optional[Log]:
    cs = cfg.channel_state(first.channel)
    for log in reversed(cs.logs):
        if (
            log.message == first.message
            and log.cp == first.cp
            and log.sender_state == choice_state
        ):
            return log
    return None


def reversible_families(
    cfg: Configuration, system: System, scope: str = FULL
) -> Iterator[tuple[str, int, CommEvent, Guard]]:
    """The history-free half of the reversal test, in a deterministic order.

    Yields ``(participant, decision state, first output, guard)`` for each
    branch family of a participant's current state whose alternatives are
    not exhausted and whose guard holds.  This reads only the states, the
    book and message counts, never a timestamp or a sender state.
    """
    for a in sorted(system.machines):
        for q_hat, first, guard in system.machines[a].families.get(cfg.state_of(a), ()):
            if not cfg.book_entry(a, q_hat).exhausted and eval_guard(guard, cfg, scope):
                yield a, q_hat, first, guard


def enabled_reversals(
    cfg: Configuration,
    system: System,
    analyzer: Optional[CausalityAnalyzer] = None,
    scope: str = FULL,
    families: Optional[Sequence[tuple[str, int, CommEvent, Guard]]] = None,
) -> list[ReversalCandidate]:
    """All reversals available in ``cfg``, in a deterministic order.

    A participant can reverse a branch family of its current state when
    the family passes :func:`reversible_families` and its first output is
    recorded at a point history can rewind to.  A caller that already
    holds the families of ``cfg`` (a search holds them per forward class)
    passes them as ``families``; otherwise they are computed here.
    """
    analyzer = analyzer or CausalityAnalyzer(system)
    if families is None:
        families = reversible_families(cfg, system, scope)
    out = []
    for a, q_hat, first, guard in families:
        log = _latest_anchor(cfg, first, q_hat)
        if log is None:
            continue
        anchor = (first.channel, log)
        if analyzer.rollback_cut(cfg, anchor) is not None:
            out.append(ReversalCandidate(a, q_hat, first, guard, anchor))
    return out


def step_reverse(
    cfg: Configuration,
    system: System,
    candidate: ReversalCandidate,
    analyzer: Optional[CausalityAnalyzer] = None,
    scope: str = FULL,
) -> Configuration:
    """Undo a branch family: roll back its first output and all effects.

    The candidate must still be enabled in ``cfg``: its family belongs to
    the participant's current state, the decision state is not exhausted,
    the guard holds, the family's latest anchor is still the candidate's,
    and history can be rewound to it.  Only the candidate's own family is
    checked; its cut comes from :meth:`~CausalityAnalyzer.rollback_cut`,
    which keeps the answers for the configuration asked about last.

    The rollback is the cut of the family's anchor (see :func:`rho`).  The
    decision state's book gains the reversed family; its exhausted flag
    records whether every family is now either tried or permitted by its
    guard in the rolled-back state, in which case the next attempt starts
    with a clean slate.  When :func:`rho` refuses the cut,
    :class:`RollbackFailed` names the participant and the reversed message.
    """
    analyzer = analyzer or CausalityAnalyzer(system)
    a, q_hat = candidate.participant, candidate.choice_state
    first, guard = candidate.first_output, candidate.guard
    machine = system.machines.get(a)
    kept = None
    if (
        machine is not None
        and (q_hat, first, guard) in machine.families.get(cfg.state_of(a), ())
        and not cfg.book_entry(a, q_hat).exhausted
        and eval_guard(guard, cfg, scope)
        and candidate.anchor == (first.channel, _latest_anchor(cfg, first, q_hat))
    ):
        kept = analyzer.rollback_cut(cfg, candidate.anchor)
    if kept is None:
        raise NotEnabled(f"reversal of {candidate.first_output} is not enabled")
    try:
        rolled = rho(cfg, system, kept, analyzer)
    except ValueError as exc:
        raise RollbackFailed(
            f"rollback of {candidate.first_output.message} by {candidate.participant}"
            f" cannot be carried out: {exc}"
        ) from exc
    tried = rolled.book_entry(a, q_hat).tried | {(first, guard)}
    exhausted = all(
        (f, g) in tried or eval_guard(g, rolled, scope)
        for q, f, g in machine.families.get(q_hat, ())
        if q == q_hat
    )
    # The decision state's slot of the sorted book, replaced or inserted.
    book = rolled.book
    i = bisect_left(book, (a, q_hat), key=itemgetter(0, 1))
    end = i + (i < len(book) and book[i][:2] == (a, q_hat))
    book = book[:i] + ((a, q_hat, BookEntry(tried, exhausted)),) + book[end:]
    return Configuration(rolled.sigma, rolled.chi, book)
