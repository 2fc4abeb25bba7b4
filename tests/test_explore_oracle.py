"""The searches on classes against the full searches in ``explore_oracle``.

``reachable`` without reversals keeps one configuration per
``forward_key``.  That is exact when configurations with equal keys have
equal successor keys; then the forgetful images, ``truncated`` and
``steps_explored`` are those of the search over every configuration.

With reversals it keeps whole configurations only in live classes, those
from which a forward run can reach a reversal.  The reversal edges, in
order, and the text of a failed rollback must be those of the search that
keeps every configuration, and so must every configuration of a live class.

Both searches list a class's moves once, for the first member they meet;
every configuration they expand must still get the successors, in order
and with their keys, that its own moves give.
"""

from collections import defaultdict

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import chorrev.explore
import explore_oracle
from chorrev.explore import Bound, forward_key, liveness, reachable
from chorrev.machine import ProjectionError
from chorrev.order import UndefinedSemantics
from chorrev.parse import parse_choreography
from chorrev.projection import project_system
from chorrev.reverse import RollbackFailed
from chorrev.runtime import forget_config

from conftest import DATA, retry_after
from test_order_oracle import build, pairs, shapes

RETRY = """
choice {
  { A -> B : m ; B -> A : r } unless count(m, A->B) >= 1
  + { A -> B : y ; B -> A : s } unless count(y, A->B) >= 1
}
"""


def assert_same_search(system, bound):
    full = explore_oracle.reachable(system, bound)
    classes = reachable(system, bound)
    assert {forget_config(c) for c in classes.configs} == {forget_config(c) for c in full.configs}
    assert (classes.truncated, classes.steps_explored) == (full.truncated, full.steps_explored)
    keys = {forward_key(c) for c in classes.configs}
    assert len(keys) == len(classes.configs)
    assert keys == {forward_key(c) for c in full.configs}
    return full, classes


@pytest.mark.parametrize("steps", [0, 1, 5, 10, 15, 20, 25, 30, 35, 200])
def test_travel_one_round_matches_the_full_search(travel_system, steps):
    assert_same_search(travel_system, Bound(steps, 1))


def test_travel_one_round_has_121_classes(travel_system):
    full, classes = assert_same_search(travel_system, Bound(200, 1))
    assert (len(full.configs), len(classes.configs)) == (795, 121)


@pytest.mark.parametrize("source", ["A -> B : m", RETRY, "loop @ A { A -> B : m }"])
@pytest.mark.parametrize("bound", [Bound(0, 1), Bound(1, 1), Bound(3, 2), Bound(30, 1), Bound(30, 2)])
def test_small_systems_match_the_full_search(source, bound):
    assert_same_search(project_system(parse_choreography(source)), bound)


# The full search grows with the interleavings of a par's sends on one
# channel; at most 7 steps keep each example well under a second.  About
# 70 % of the shapes do not project, which can trip the filter health check.
@settings(
    max_examples=120,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(shapes, st.integers(1, 2), st.integers(0, 7))
def test_generated_systems_match_the_full_search(shape, rounds, steps):
    try:
        system = project_system(build(shape))
    except (ProjectionError, UndefinedSemantics):
        assume(False)
    assert_same_search(system, Bound(steps, rounds))


def test_equal_keys_have_equal_successor_keys(travel_system):
    bound = Bound(200, 1)
    successor_keys = defaultdict(set)
    for cfg in explore_oracle.reachable(travel_system, bound).configs:
        successor_keys[forward_key(cfg)].add(
            frozenset(forward_key(s) for s in explore_oracle.successors(cfg, travel_system, bound))
        )
    assert len(successor_keys) == 121
    assert all(len(sets) == 1 for sets in successor_keys.values())


def outcome(search, *args, **kwargs):
    """The search's result, or the text of the rollback it could not carry out."""
    try:
        return search(*args, **kwargs)
    except RollbackFailed as exc:
        return str(exc)


def assert_same_search_with_reversals(system, bound):
    full = outcome(explore_oracle.reachable_with_reversals, system, bound)
    kept = outcome(reachable, system, bound, with_reversals=True)
    if isinstance(full, str) or isinstance(kept, str):
        assert kept == full
        return full, kept
    assert kept.reversal_edges == full.reversal_edges
    assert (kept.truncated, kept.steps_explored) == (full.truncated, full.steps_explored)
    assert {forward_key(c) for c in kept.configs} == {forward_key(c) for c in full.configs}
    assert {forget_config(c) for c in kept.configs} == {forget_config(c) for c in full.configs}
    live = liveness(system, bound)
    whole = {c for c in full.configs if live(c, forward_key(c))}
    assert {c for c in kept.configs if live(c, forward_key(c))} == whole
    dead = {forward_key(c) for c in kept.configs if c not in whole}
    assert len(kept.configs) == len(whole) + len(dead)
    return full, kept


@pytest.mark.parametrize("steps", [*range(36), 200])
def test_travel_one_round_with_reversals_matches_the_full_search(travel_system, steps):
    assert_same_search_with_reversals(travel_system, Bound(steps, 1))


def test_travel_two_rounds_with_reversals_keeps_live_classes_whole(travel_system):
    full, kept = assert_same_search_with_reversals(travel_system, Bound(200, 2))
    assert (len(full.configs), len(kept.configs), len(kept.reversal_edges)) == (33299, 2590, 808)


@pytest.mark.parametrize("source", ["A -> B : m", RETRY, "loop @ A { A -> B : m }"])
@pytest.mark.parametrize("bound", [Bound(0, 1), Bound(1, 1), Bound(3, 2), Bound(30, 1), Bound(30, 2)])
def test_small_systems_with_reversals_match_the_full_search(source, bound):
    assert_same_search_with_reversals(project_system(parse_choreography(source)), bound)


@pytest.mark.parametrize("name", ["static_order_loop", "rollback_consumed_marker"])
def test_looped_choices_with_reversals_match_the_full_search(name):
    system = project_system(parse_choreography((DATA / f"{name}.rchor").read_text()))
    refusals = set()
    for steps in range(36):
        full, _ = assert_same_search_with_reversals(system, Bound(steps, 1))
        if isinstance(full, str):
            refusals.add(full)
    # Only the consumed marker's search meets a rollback that fails.
    assert len(refusals) == (name == "rollback_consumed_marker")


@settings(
    max_examples=120,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(shapes, st.integers(1, 2), st.integers(0, 7))
def test_generated_systems_with_reversals_match_the_full_search(shape, rounds, steps):
    try:
        system = project_system(build(shape))
    except (ProjectionError, UndefinedSemantics):
        assume(False)
    assert_same_search_with_reversals(system, Bound(steps, rounds))


@settings(
    max_examples=60,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(shapes, pairs, st.booleans(), st.integers(1, 2), st.integers(0, 8))
def test_generated_retries_match_the_full_search(prefix, pair, looped, rounds, steps):
    try:
        system = project_system(retry_after(prefix, *pair, looped))
    except (ProjectionError, UndefinedSemantics):
        assume(False)
    assert_same_search_with_reversals(system, Bound(steps, rounds))


# -- keys carried along the search, moves listed once per class ---------------


def search_checking_keys(system, bound):
    """Run both searches with every carried key checked against
    ``forward_key`` of its successor, and the successors of every
    configuration they expand checked, in order and with their keys,
    against those ``explore_oracle.keyed_successors`` finds for that
    configuration alone.  Return the events of the moves whose keys were
    checked and the key of each configuration expanded."""
    carried = chorrev.explore._successor_key
    table_driven = chorrev.explore._successors
    moves = []
    expanded = []

    def checked(key, succ, ev):
        k = carried(key, succ, ev)
        assert k == forward_key(succ), ev
        moves.append(ev)
        return k

    def compared(cfg, key, system, bound, table):
        succs = table_driven(cfg, key, system, bound, table)
        assert key == forward_key(cfg)
        assert succs == explore_oracle.keyed_successors(cfg, key, system, bound)
        expanded.append(key)
        return succs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chorrev.explore, "_successor_key", checked)
        mp.setattr(chorrev.explore, "_successors", compared)
        reachable(system, bound)
        try:
            reachable(system, bound, with_reversals=True)
        except RollbackFailed:
            pass
    return moves, expanded


@pytest.mark.parametrize("name", ["travel", "static_order_loop"])
def test_carried_keys_are_the_forward_keys_at_two_rounds(name):
    system = project_system(parse_choreography((DATA / f"{name}.rchor").read_text()))
    moves, expanded = search_checking_keys(system, Bound(200, 2))
    assert {ev.polarity for ev in moves} == {"!", "?"}
    # Most configurations apply the moves the first member of their class listed.
    assert len(expanded) > 2 * len(set(expanded))


@settings(
    max_examples=60,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(shapes, pairs, st.booleans(), st.integers(1, 2), st.integers(0, 8))
def test_carried_keys_are_the_forward_keys_on_generated_retries(prefix, pair, looped, rounds, steps):
    try:
        system = project_system(retry_after(prefix, *pair, looped))
    except (ProjectionError, UndefinedSemantics):
        assume(False)
    search_checking_keys(system, Bound(steps, rounds))
