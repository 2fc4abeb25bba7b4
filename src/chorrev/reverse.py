"""Backward execution: undoing a tried branch and its consequences.

A reversal is decided by the participant that owns a choice: at a state
whose outgoing transitions carry decorations, it may pick one of the
decorated branch families, provided that family's guard now holds, the
decision state's alternatives are not exhausted, and the family's first
output is still anchored in the recorded history at a point the system can
rewind to.  Everything that causally depends on that first output is then
removed, senders rewind to the states recorded in the removed logs,
receivers of removed inputs are restored by replaying what is left of
their history, and the decision state's book is updated so the same
family is not immediately retried.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

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


def _ref_sort_key(ref: LogRef):
    ch, log = ref
    return (ch.sender, ch.receiver, log.timestamp, log.cp, log.message)


def maximal_logs(
    targets: Iterable[LogRef], relation: frozenset[tuple[LogRef, LogRef]]
) -> set[LogRef]:
    """Targets on which no other target causally depends."""
    pool = set(targets)
    return {
        r for r in pool if not any(r != o and (r, o) in relation for o in pool)
    }


def rho(
    cfg: Configuration,
    system: System,
    targets: Iterable[LogRef],
    analyzer: Optional[CausalityAnalyzer] = None,
    order: Optional[list[LogRef]] = None,
) -> Configuration:
    """Remove a causally closed set of logs from the configuration.

    Logs are peeled off in dependency order (most dependent first).  Each
    one leaves from the end of its channel's logs, taking the head back
    with it if the receiver had consumed it, and rewinds its sender to the
    state stored in the log.  When ``order`` is given it must list the
    targets in a legal removal order; otherwise a deterministic legal
    order is chosen.  The result does not depend on the choice.

    After the removal pass, every participant that lost an already
    consumed input is restored by replaying its remaining history; the
    replayed state is authoritative because the literal sender rewind
    cannot account for inputs the receiver keeps.  A history that does not
    replay to exactly one state raises :class:`ValueError`.
    """
    analyzer = analyzer or CausalityAnalyzer(system)
    relation = analyzer.relation(cfg)
    remaining = set(targets)
    if not remaining <= set(all_log_refs(cfg)):
        raise ValueError("targets must be logs of the configuration")
    sequence = list(order) if order is not None else None
    if sequence is not None and (
        len(sequence) != len(remaining) or set(sequence) != remaining
    ):
        raise ValueError("order must enumerate exactly the target logs")

    sigma = cfg.sigma_dict()
    chi = cfg.chi_dict()
    book = cfg.book_dict()
    rewound: set[str] = set()  # receivers that lose a consumed input

    while remaining:
        maximals = maximal_logs(remaining, relation)
        if sequence is not None:
            ref = sequence.pop(0)
            if ref not in maximals:
                raise ValueError(
                    f"illegal removal order: {ref[1]} still has dependants"
                )
        else:
            ref = min(maximals, key=_ref_sort_key)
        ch, log = ref
        cs = chi[ch]
        if cs.logs[-1] != log:
            raise ValueError(
                f"cannot remove {log} from the middle of {ch}; the target set"
                " is not causally closed"
            )
        if cs.head == len(cs.logs):
            rewound.add(ch.receiver)
        chi[ch] = ChannelState(cs.logs[:-1], min(cs.head, len(cs.logs) - 1))
        sigma[ch.sender] = log.sender_state
        remaining.discard(ref)

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


def enabled_reversals(
    cfg: Configuration,
    system: System,
    analyzer: Optional[CausalityAnalyzer] = None,
    scope: str = FULL,
) -> list[ReversalCandidate]:
    """All reversals available in ``cfg``, in a deterministic order.

    A participant can reverse a branch family of its current state when
    the family's alternatives are not exhausted, its guard holds, and the
    family's first output is recorded at a point history can rewind to.
    """
    analyzer = analyzer or CausalityAnalyzer(system)
    out: list[ReversalCandidate] = []
    rollback_cache: Optional[frozenset[LogRef]] = None
    for a in sorted(system.machines):
        for q_hat, first, guard in system.machines[a].families.get(cfg.state_of(a), ()):
            entry = cfg.book_entry(a, q_hat)
            if entry.exhausted:
                continue
            if not eval_guard(guard, cfg, scope):
                continue
            anchor_log = _latest_anchor(cfg, first, q_hat)
            if anchor_log is None:
                continue
            anchor = (first.channel, anchor_log)
            if rollback_cache is None:
                rollback_cache = analyzer.rollback_points(cfg)
            if anchor not in rollback_cache:
                continue
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

    The decision state's book gains the reversed family; its exhausted
    flag records whether every family is now either tried or permitted by
    its guard in the rolled-back state, in which case the next attempt
    starts with a clean slate.  When :func:`rho` refuses the effects,
    :class:`RollbackFailed` names the participant and the reversed message.
    """
    analyzer = analyzer or CausalityAnalyzer(system)
    live = enabled_reversals(cfg, system, analyzer, scope)
    if candidate not in live:
        raise NotEnabled(f"reversal of {candidate.first_output} is not enabled")
    effects = analyzer.effects(cfg, candidate.anchor)
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
