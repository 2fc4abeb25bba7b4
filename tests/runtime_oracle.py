"""The forward steps through dicts and ``Configuration.make``, kept as a test oracle.

This is the first implementation of :func:`chorrev.runtime.step_output`
and :func:`chorrev.runtime.step_input`: copy the three parts of the
configuration into dicts, change them, and canonicalise the result with
``Configuration.make``.  The package now builds a successor from the
parent's tuples, replacing one state and one channel; the differential
tests compare the two.
"""

from __future__ import annotations

from chorrev.machine import Transition
from chorrev.projection import System
from chorrev.runtime import (
    EMPTY_CHANNEL,
    FULL,
    ChannelState,
    Configuration,
    Log,
    NotEnabled,
    _check_input,
    _check_output,
    next_timestamp,
    upd_inp,
    upd_out,
)


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
    book = upd_out(cfg.book_dict(), participant, t.decoration)
    assert book is not None
    sigma = cfg.sigma_dict()
    chi = cfg.chi_dict()
    log = Log(t.event.message, sigma[participant], t.event.cp, next_timestamp(cfg, participant))
    cs = chi.get(t.event.channel, EMPTY_CHANNEL)
    chi[t.event.channel] = ChannelState(cs.consumed, cs.pending + (log,))
    sigma[participant] = t.dst
    return Configuration.make(sigma, chi, book)


def step_input(
    cfg: Configuration, system: System, participant: str, t: Transition
) -> Configuration:
    """Receive the head of the pending queue, moving its log to consumed."""
    reason = _check_input(cfg, participant, t)
    if reason is not None:
        raise NotEnabled(reason)
    sigma = cfg.sigma_dict()
    chi = cfg.chi_dict()
    cs = chi[t.event.channel]
    head = cs.pending[0]
    chi[t.event.channel] = ChannelState(cs.consumed + (head,), cs.pending[1:])
    sigma[participant] = t.dst
    book = upd_inp(cfg.book_dict(), participant, t.decoration)
    return Configuration.make(sigma, chi, book)
