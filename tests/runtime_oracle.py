"""The runtime as first written, over two queues per channel, kept as a test oracle.

A channel state used to be two queues, the logs its receiver had consumed
and the logs still pending.  The package now keeps one log sequence per
channel and a head index, builds a forward successor from the parent's
tuples, replacing one state and one channel, and spells out a refusal
only when a step raises.  This module keeps the first implementations:

- the forward steps copy the three parts of the configuration into
  dicts, change them (the book through ``upd_out``/``upd_inp``), and
  canonicalise the result with ``Configuration.make``, with the refusal
  texts built by the checks;
- ``rho`` removes one log at a time, most dependent first (or in a
  given legal order), from the end of the pending queue, or from the end
  of the consumed queue once nothing is pending;
- ``next_timestamp`` scans every log on the sender's channels, where the
  package reads only each channel's last log.

Channel states cross into the package's form only through ``queues``;
the differential tests compare the two.
"""

from __future__ import annotations

from typing import Iterable, Optional

from chorrev.causality import CausalityAnalyzer, LogRef, all_log_refs
from chorrev.machine import Branch, Decoration, Transition
from chorrev.projection import System
from chorrev.runtime import (
    EMPTY_CHANNEL,
    EMPTY_ENTRY,
    FULL,
    BookEntry,
    Configuration,
    Log,
    NotEnabled,
    _tried_here,
    output_blocked_by_guard,
)

from conftest import book_dict, chi_dict, queues, sigma_dict


def next_timestamp(cfg: Configuration, sender: str) -> int:
    """One past the largest timestamp on any log the sender holds."""
    latest = 0
    for ch, cs in cfg.chi:
        if ch.sender == sender:
            for log in cs.logs:
                latest = max(latest, log.timestamp)
    return latest + 1


def upd_inp(
    book: dict[tuple[str, int], BookEntry], participant: str, deco: Decoration
) -> dict[tuple[str, int], BookEntry]:
    """Book update for an input: committing out of a branch clears its entry.

    ``book`` is never mutated; when nothing changes it is returned itself.
    """
    if isinstance(deco, Branch) and deco.committed:
        book = dict(book)
        book.pop((participant, deco.choice_state), None)
    return book


def upd_out(
    book: dict[tuple[str, int], BookEntry], participant: str, deco: Decoration
) -> Optional[dict[tuple[str, int], BookEntry]]:
    """Book update for an output; ``None`` when the family is barred."""
    if isinstance(deco, Branch) and _tried_here(
        book.get((participant, deco.choice_state), EMPTY_ENTRY), deco
    ):
        return None
    return upd_inp(book, participant, deco)


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
        return f"{participant} is not in state {t.src}"
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
        return f"{participant} is not in state {t.src}"
    cs = cfg.channel_state(t.event.channel)
    if not cs.pending:
        return f"nothing pending on {t.event.channel}"
    head = cs.pending[0]
    if head.message != t.event.message or head.cp != t.event.cp:
        return (
            f"the head of {t.event.channel} is {head}, which does not match"
            f" {t.event.message}/{t.event.cp}"
        )
    return None


def step_output(
    cfg: Configuration,
    system: System,
    participant: str,
    t: Transition,
    scope: str = FULL,
    block_on_guard: bool = False,
) -> Configuration:
    """Send a message: stamp a log and append it to the channel's pending queue."""
    reason = _check_output(cfg, participant, t, scope, block_on_guard)
    if reason is not None:
        raise NotEnabled(reason)
    book = upd_out(book_dict(cfg), participant, t.decoration)
    assert book is not None
    sigma = sigma_dict(cfg)
    chi = chi_dict(cfg)
    log = Log(t.event.message, sigma[participant], t.event.cp, next_timestamp(cfg, participant))
    cs = chi.get(t.event.channel, EMPTY_CHANNEL)
    chi[t.event.channel] = queues(cs.consumed, cs.pending + (log,))
    sigma[participant] = t.dst
    return Configuration.make(sigma, chi, book)


def step_input(
    cfg: Configuration, system: System, participant: str, t: Transition
) -> Configuration:
    """Receive the head of the pending queue, moving its log to consumed."""
    reason = _check_input(cfg, participant, t)
    if reason is not None:
        raise NotEnabled(reason)
    sigma = sigma_dict(cfg)
    chi = chi_dict(cfg)
    cs = chi[t.event.channel]
    head = cs.pending[0]
    chi[t.event.channel] = queues(cs.consumed + (head,), cs.pending[1:])
    sigma[participant] = t.dst
    book = upd_inp(book_dict(cfg), participant, t.decoration)
    return Configuration.make(sigma, chi, book)


def _ref_sort_key(ref: LogRef):
    ch, log = ref
    return (ch.sender, ch.receiver, log.timestamp, log.cp, log.message)


def maximal_logs(
    targets: Iterable[LogRef], relation: dict[LogRef, frozenset[LogRef]]
) -> set[LogRef]:
    """Targets on which no other target causally depends."""
    pool = set(targets)
    return {r for r in pool if not any(r != o and o in relation[r] for o in pool)}


def rho(
    cfg: Configuration,
    system: System,
    targets: Iterable[LogRef],
    analyzer: Optional[CausalityAnalyzer] = None,
    order: Optional[list[LogRef]] = None,
) -> Configuration:
    """Remove a causally closed set of logs, most dependent first, then
    replay every receiver that lost a consumed input.

    When ``order`` is given it must list the targets in a legal removal
    order; otherwise a deterministic legal order is chosen.
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

    sigma = sigma_dict(cfg)
    chi = chi_dict(cfg)
    book = book_dict(cfg)
    removed_consumed: set[LogRef] = set()

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
        if cs.pending and cs.pending[-1] == log:
            cs = queues(cs.consumed, cs.pending[:-1])
        elif not cs.pending and cs.consumed and cs.consumed[-1] == log:
            cs = queues(cs.consumed[:-1], ())
            removed_consumed.add(ref)
        else:
            raise ValueError(
                f"cannot remove {log} from the middle of {ch}; the target set"
                " is not causally closed"
            )
        chi[ch] = cs
        sigma[ch.sender] = log.sender_state
        remaining.discard(ref)

    interim = Configuration.make(sigma, chi, book)
    for p in sorted({ch.receiver for ch, _ in removed_consumed}):
        ends = analyzer.replay_end_states(interim, p)
        if len(ends) != 1:
            raise ValueError(
                f"the history of {p} replays to {sorted(ends)}, not to one state"
            )
        (sigma[p],) = ends
    return Configuration.make(sigma, chi, book)
