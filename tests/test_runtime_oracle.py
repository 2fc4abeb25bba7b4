"""The forward steps and ``rho`` against the two-queue oracle in ``runtime_oracle``.

``step_output`` and ``step_input`` build a successor from the parent's
tuples and configurations hash once, at construction.  Both are exact
when every move gives the configuration the oracle gives, with the same
hash, and when equal configurations hash equal whichever route built
them.  ``rho`` moves a channel's head back where the oracle moves a log
between queues; both must remove the same logs to the same configuration,
or refuse with the same text.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import causality_oracle
import explore_oracle
import runtime_oracle
from chorrev import runtime
from chorrev.causality import CausalityAnalyzer, all_log_refs
from chorrev.explore import Bound, reachable
from chorrev.machine import ProjectionError, Unit
from chorrev.model import Channel
from chorrev.order import UndefinedSemantics
from chorrev.parse import parse_choreography
from chorrev.projection import project_system
from chorrev.reverse import RollbackFailed, enabled_reversals, rho, step_reverse
from chorrev.runtime import ChannelState, Configuration, Log, NotEnabled

from conftest import DATA, book_dict, queues, retry_after, sigma_dict
from test_order_oracle import build, interactions, pairs, shapes


def outcome(step, *args):
    try:
        return step(*args)
    except (NotEnabled, ValueError) as exc:
        return str(exc)


def assert_canonical(cfg):
    channels = [ch for ch, _ in cfg.chi]
    assert channels == sorted(set(channels))
    assert all(cs.consumed or cs.pending for _, cs in cfg.chi)
    assert [a for a, _ in cfg.sigma] == sorted({a for a, _ in cfg.sigma})


def assert_steps_match(cfg, system):
    """Every transition out of every participant's state, enabled or not,
    steps to the oracle's configuration or fails with its reason."""
    for a in sorted(system.machines):
        for t in system.machines[a].out_of(cfg.state_of(a)):
            if t.event.polarity == "!":
                pairs = [
                    (
                        outcome(runtime.step_output, cfg, system, a, t, runtime.FULL, block),
                        outcome(runtime_oracle.step_output, cfg, system, a, t, runtime.FULL, block),
                    )
                    for block in (False, True)
                ]
            else:
                pairs = [
                    (
                        outcome(runtime.step_input, cfg, system, a, t),
                        outcome(runtime_oracle.step_input, cfg, system, a, t),
                    )
                ]
            for new, old in pairs:
                assert new == old
                if isinstance(new, str):
                    continue
                assert hash(new) == hash(old)
                assert new.book == old.book
                assert_canonical(new)
                # Untouched channels, and the book under a plain move, are the parent's.
                before = dict(cfg.chi)
                for ch, cs in new.chi:
                    if ch != t.event.channel:
                        assert cs is before[ch]
                if isinstance(t.decoration, Unit):
                    assert new.book is cfg.book


@pytest.fixture(scope="module")
def travel_reversal_search(travel_system):
    # Every configuration of the search, not only those of live classes.
    return explore_oracle.reachable_with_reversals(travel_system, Bound(200, 1))


def test_travel_reversal_search_steps_match_the_oracle(travel_system, travel_reversal_search):
    assert len(travel_reversal_search.configs) == 907
    for cfg in travel_reversal_search.configs:
        assert_steps_match(cfg, travel_system)


def _reached_with_reversals(system, bound):
    """The forward configurations within ``bound``, and what their reversals reach."""
    forward = explore_oracle.reachable(system, bound).configs
    analyzer = CausalityAnalyzer(system)
    rolled = set()
    for cfg in forward:
        for cand in enabled_reversals(cfg, system, analyzer):
            try:
                rolled.add(step_reverse(cfg, system, cand, analyzer))
            except RollbackFailed:
                pass
    return forward, rolled


def first_reversal(system, rounds):
    """The fewest forward steps after which ``system`` enables a reversal."""
    analyzer = CausalityAnalyzer(system)
    frontier = {runtime.initial_configuration(system)}
    seen = set(frontier)
    steps = 0
    while not any(enabled_reversals(cfg, system, analyzer) for cfg in frontier):
        frontier = {
            succ
            for cfg in frontier
            for succ in explore_oracle.successors(cfg, system, Bound(steps + 1, rounds))
        } - seen
        assert frontier, "no reversal is ever enabled"
        seen |= frontier
        steps += 1
    return steps


# A prefix of at most two interactions and no loop of its own keeps the
# search small at the depth of the first reversal; the retry may loop.
prefixes = interactions | st.tuples(
    st.sampled_from(["seq", "par", "choice"]), st.lists(interactions, min_size=2, max_size=2)
)
retries = st.tuples(prefixes, pairs, st.booleans())


def _projected(term):
    try:
        return project_system(term)
    except (ProjectionError, UndefinedSemantics):
        return None


def generated_searches(shape, retry, rounds, steps):
    """The systems of a generated example, each with what
    ``_reached_with_reversals`` reaches in it.

    ``shape`` must project, and is searched within ``steps``.  The
    ``retry_after`` term of ``retry``, when it projects, is searched up to
    its first reversal, and some rollback must succeed there: ``shapes``
    alone almost never reverses.
    """
    system = _projected(build(shape))
    assume(system is not None)
    searched = [(system, set().union(*_reached_with_reversals(system, Bound(steps, rounds))))]
    prefix, pair, looped = retry
    system = _projected(retry_after(prefix, *pair, looped))
    if system is not None:
        forward, rolled = _reached_with_reversals(system, Bound(first_reversal(system, rounds), rounds))
        assert rolled
        searched.append((system, forward | rolled))
    return searched


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(shapes, retries, st.integers(1, 2), st.integers(0, 6))
def test_generated_systems_step_like_the_oracle(shape, retry, rounds, steps):
    for system, cfgs in generated_searches(shape, retry, rounds, steps):
        for cfg in cfgs:
            assert_steps_match(cfg, system)


def assert_rho_matches(cfg, system, analyzer, anchor):
    """``rho`` rolls back to the cut of ``anchor`` and reaches the oracle's
    configuration, which removes its effects one log at a time, or both
    refuse with one text; returns the refusal text or ``None``."""
    new = outcome(rho, cfg, system, analyzer.cut(cfg, anchor), analyzer)
    old = outcome(
        runtime_oracle.rho, cfg, system, causality_oracle.effects(analyzer, cfg, anchor), analyzer
    )
    assert new == old
    if isinstance(new, str):
        return new
    assert hash(new) == hash(old)
    assert_canonical(new)
    return None


def test_travel_reversal_edges_roll_back_like_the_oracle(travel_system, travel_reversal_search):
    analyzer = CausalityAnalyzer(travel_system)
    edges = travel_reversal_search.reversal_edges
    assert len(edges) == 168
    for pre, cand, post in edges:
        assert assert_rho_matches(pre, travel_system, analyzer, cand.anchor) is None
        # The edge adds only the book entry of the reversed family.
        assert post.chi == rho(pre, travel_system, analyzer.cut(pre, cand.anchor), analyzer).chi


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(shapes, retries, st.integers(1, 2), st.integers(0, 6))
def test_generated_systems_roll_back_like_the_oracle(shape, retry, rounds, steps):
    # The cut of every log, not only of reversal anchors: removals of
    # consumed logs and refused replays are compared too.
    for system, cfgs in generated_searches(shape, retry, rounds, steps):
        analyzer = CausalityAnalyzer(system)
        for cfg in cfgs:
            for ref in all_log_refs(cfg):
                assert_rho_matches(cfg, system, analyzer, ref)


def test_a_refused_rollback_is_refused_like_the_oracle():
    # A receiver that consumed the loop's exit marker after the rewound
    # input keeps it; neither route can replay what is left.
    system = project_system(
        parse_choreography((DATA / "rollback_consumed_marker.rchor").read_text())
    )
    analyzer = CausalityAnalyzer(system)
    refusals = set()
    for cfg in explore_oracle.reachable(system, Bound(12, 1)).configs:
        for cand in enabled_reversals(cfg, system, analyzer):
            refusals.add(assert_rho_matches(cfg, system, analyzer, cand.anchor))
    assert refusals == {None, "the history of C replays to [], not to one state"}


def _rebuilt(cfg):
    """``cfg`` from dicts of new channel, log and channel-state objects."""
    chi = {
        Channel(ch.sender, ch.receiver): queues(
            tuple(log._replace() for log in cs.consumed),
            tuple(log._replace() for log in cs.pending),
        )
        for ch, cs in cfg.chi
    }
    return Configuration.make(sigma_dict(cfg), chi, book_dict(cfg))


def test_equal_configurations_hash_equal_by_every_route(travel_system, travel_reversal_search):
    for cfg in travel_reversal_search.configs:
        made = _rebuilt(cfg)
        assert made == cfg and hash(made) == hash(cfg)
        assert len({made, cfg}) == 1
    # Forward steps from the initial configuration, with no rollback on the
    # way.  rho keeps the book, so a rollback of a forward configuration
    # often lands on a configuration the forward steps reach as well.
    forward = explore_oracle.reachable(travel_system, Bound(200, 1)).configs
    by_repr = {repr(cfg): cfg for cfg in forward}
    analyzer = CausalityAnalyzer(travel_system)
    met = 0
    for pre, cand, _ in travel_reversal_search.reversal_edges:
        rolled = rho(pre, travel_system, analyzer.cut(pre, cand.anchor), analyzer)
        twin = by_repr.get(repr(rolled))
        if twin is not None:
            met += 1
            assert twin == rolled and hash(twin) == hash(rolled)
            assert len({twin, rolled}) == 1
            assert rolled in forward
    assert met == 136


def test_the_hash_is_not_a_field(replan_config):
    names = ("sigma", "chi", "book")
    assert tuple(f.name for f in dataclasses.fields(Configuration)) == names
    assert "_hash" not in repr(replan_config)
    assert hash(replan_config) == hash(tuple(getattr(replan_config, n) for n in names))
    cs = replan_config.chi[0][1]
    assert ChannelState._fields == ("logs", "head")
    assert "_hash" not in repr(cs)
    assert hash(cs) == hash((cs.logs, cs.head))
    log = cs.logs[0]
    assert Log._fields == ("message", "sender_state", "cp", "timestamp")
    assert "_hash" not in repr(log)
    assert hash(log) == hash(tuple(log))
    ch = replan_config.chi[0][0]
    assert Channel._fields == ("sender", "receiver")
    assert "_hash" not in repr(ch)
    assert hash(ch) == hash(tuple(ch))


def test_channels_and_logs_print_as_before():
    ch = Channel("A", "B")
    assert (str(ch), repr(ch)) == ("A->B", "Channel(sender='A', receiver='B')")
    log = Log("m", 0, 3, 1)
    assert (str(log), repr(log)) == (
        "(m, 0, 3, 1)",
        "Log(message='m', sender_state=0, cp=3, timestamp=1)",
    )


def test_next_timestamp_reads_the_last_logs_like_the_full_scan(travel_system):
    # Every configuration and reversal target of the search with reversals
    # at two rounds, for every participant as the sender.
    result = reachable(travel_system, Bound(200, 2), with_reversals=True)
    cfgs = set(result.configs) | {post for _, _, post in result.reversal_edges}
    for cfg in cfgs:
        for a in travel_system.machines:
            assert runtime.next_timestamp(cfg, a) == runtime_oracle.next_timestamp(cfg, a)
