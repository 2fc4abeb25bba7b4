"""Backward execution: undoing a tried branch and its consequences.

A reversal is decided by the participant that owns a choice: at a state
whose outgoing transitions carry decorations, it may pick one of the
decorated branch families, provided that family's guard now holds, the
decision state's alternatives are not exhausted, and the family's first
output is still anchored in the recorded history at a point the system can
rewind to.  Everything that causally depends on that first output is then
removed: a causally closed set of logs is the end of each channel's logs,
so the rollback cuts those ends off in one step.  Senders rewind to the
states recorded in the removed logs, receivers of removed inputs are
restored by replaying what is left of their history, and the decision
state's book is updated so the same family is not immediately retried.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .causality import CausalityAnalyzer, LogRef, all_log_refs
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
    targets: Iterable[LogRef],
    analyzer: Optional[CausalityAnalyzer] = None,
) -> Configuration:
    """Remove a causally closed set of logs from the configuration.

    On every channel the targets must be the last of its logs; they are
    cut off in one step, and the head moves back to the cut if the
    receiver had consumed any of them.  Each sender rewinds to the state
    stored in its earliest removed log.  Removing the logs one at a time,
    most dependent first, gives the same configuration in every legal
    order, and this one cut is that configuration.

    Then every participant that lost an already consumed input is restored
    by replaying its remaining history; the replayed state is
    authoritative because the literal sender rewind cannot account for
    inputs the receiver keeps.  A history that does not replay to exactly
    one state raises :class:`ValueError`.
    """
    analyzer = analyzer or CausalityAnalyzer(system)
    targets = set(targets)
    if not targets <= set(all_log_refs(cfg)):
        raise ValueError("targets must be logs of the configuration")

    sigma = cfg.sigma_dict()
    chi = cfg.chi_dict()
    book = cfg.book_dict()
    rewound: set[str] = set()  # receivers that lose a consumed input
    earliest: dict[str, Log] = {}  # each sender's first removed log

    for ch, cs in cfg.chi:
        kept = len(cs.logs)
        while kept and (ch, cs.logs[kept - 1]) in targets:
            kept -= 1
        stray = [log for log in cs.logs[:kept] if (ch, log) in targets]
        if stray:
            raise ValueError(
                f"cannot remove {stray[-1]} from the middle of {ch}; the target set"
                " is not causally closed"
            )
        if kept == len(cs.logs):
            continue
        if kept < cs.head:
            rewound.add(ch.receiver)
        chi[ch] = ChannelState(cs.logs[:kept], min(cs.head, kept))
        first = cs.logs[kept]
        if ch.sender not in earliest or first.timestamp < earliest[ch.sender].timestamp:
            earliest[ch.sender] = first
    for sender, log in earliest.items():
        sigma[sender] = log.sender_state

    interim = Configuration.make(sigma, chi, book)
    for p in sorted(rewound):
        ends = analyzer.replay_end_states(interim, p)
        if len(ends) != 1:
            raise ValueError(
                f"the history of {p} replays to {sorted(ends)}, not to one state"
            )
        (sigma[p],) = ends
    return Configuration.make(sigma, chi, book)


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
) -> list[ReversalCandidate]:
    """All reversals available in ``cfg``, in a deterministic order.

    A participant can reverse a branch family of its current state when
    the family passes :func:`reversible_families` and its first output is
    recorded at a point history can rewind to.
    """
    analyzer = analyzer or CausalityAnalyzer(system)
    return [cand for cand, _ in _enabled(cfg, system, analyzer, scope)]


def _enabled(
    cfg: Configuration, system: System, analyzer: CausalityAnalyzer, scope: str
) -> Iterator[tuple[ReversalCandidate, frozenset[LogRef]]]:
    """Each reversal of :func:`enabled_reversals` with its anchor's effects."""
    for a, q_hat, first, guard in reversible_families(cfg, system, scope):
        log = _latest_anchor(cfg, first, q_hat)
        if log is None:
            continue
        anchor = (first.channel, log)
        effects = analyzer.rollback_effects(cfg, anchor)
        if effects is not None:
            yield ReversalCandidate(a, q_hat, first, guard, anchor), effects


def step_reverse(
    cfg: Configuration,
    system: System,
    candidate: ReversalCandidate,
    analyzer: Optional[CausalityAnalyzer] = None,
    scope: str = FULL,
) -> Configuration:
    """Undo a branch family: roll back its first output and all effects.

    The decision state's book gains the reversed family; its exhausted
    flag records whether every family is now either tried or permitted by
    its guard in the rolled-back state, in which case the next attempt
    starts with a clean slate.  When :func:`rho` refuses the effects,
    :class:`RollbackFailed` names the participant and the reversed message.
    """
    analyzer = analyzer or CausalityAnalyzer(system)
    effects = next(
        (fx for cand, fx in _enabled(cfg, system, analyzer, scope) if cand == candidate), None
    )
    if effects is None:
        raise NotEnabled(f"reversal of {candidate.first_output} is not enabled")
    try:
        rolled = rho(cfg, system, effects, analyzer)
    except ValueError as exc:
        raise RollbackFailed(
            f"rollback of {candidate.first_output.message} by {candidate.participant}"
            f" cannot be carried out: {exc}"
        ) from exc
    book = rolled.book_dict()
    q_hat = candidate.choice_state
    key = (candidate.participant, q_hat)
    entry = book.get(key, BookEntry())
    tried = entry.tried | {(candidate.first_output, candidate.guard)}
    exhausted = all(
        (first, guard) in tried or eval_guard(guard, rolled, scope)
        for q, first, guard in system.machines[candidate.participant].families.get(q_hat, ())
        if q == q_hat
    )
    book[key] = BookEntry(tried, exhausted)
    return Configuration.make(rolled.sigma_dict(), rolled.chi_dict(), book)
