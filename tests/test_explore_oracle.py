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
and with their keys, that its own moves give, save those into a class
known dead and already seen.

The class table of each search must give what the search keyed by whole
keys (``explore_oracle.reachable_by_key``) gives, configuration for
configuration.  Its gate on ``enabled_reversals`` rests on hotness being
a property of the forward class, which is checked on the search that
keeps every configuration.
"""

from collections import defaultdict

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import chorrev.explore
import explore_oracle
from chorrev.causality import CausalityAnalyzer
from chorrev.explore import Bound, ClassTable, forward_key, reachable
from chorrev.machine import ProjectionError
from chorrev.order import UndefinedSemantics
from chorrev.parse import parse_choreography
from chorrev.projection import project_system
from chorrev.reverse import RollbackFailed, enabled_reversals, reversible_families
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


def assert_hotness_is_a_class_property(system, full):
    """The proof obligation of the search's gate on ``enabled_reversals``:
    on every configuration of ``full``, a search that keeps them all,
    members of one forward class agree on whether a family passes
    ``reversible_families``, and a configuration of a class that is not
    hot enables no reversal.  Return the number of classes of each kind."""
    analyzer = CausalityAnalyzer(system)
    hot = defaultdict(set)
    for cfg in full.configs:
        answer = any(reversible_families(cfg, system))
        hot[forward_key(cfg)].add(answer)
        if not answer:
            assert enabled_reversals(cfg, system, analyzer) == []
    assert all(len(answers) == 1 for answers in hot.values())
    return {answer: sum(answers == {answer} for answers in hot.values()) for answer in (False, True)}


def assert_same_search_with_reversals(system, bound):
    full = outcome(explore_oracle.reachable_with_reversals, system, bound)
    kept = outcome(reachable, system, bound, with_reversals=True)
    if isinstance(full, str) or isinstance(kept, str):
        assert kept == full
        return full, kept
    assert kept.reversal_edges == full.reversal_edges
    assert (kept.truncated, kept.steps_explored) == (full.truncated, full.steps_explored)
    assert_hotness_is_a_class_property(system, full)
    assert {forward_key(c) for c in kept.configs} == {forward_key(c) for c in full.configs}
    assert {forget_config(c) for c in kept.configs} == {forget_config(c) for c in full.configs}
    live = explore_oracle.liveness(system, bound)
    table = ClassTable(system, bound)
    for c in full.configs:
        assert table.is_live(table.intern(forward_key(c), c), c) == live(c, forward_key(c))
    whole = {c for c in full.configs if live(c, forward_key(c))}
    assert {c for c in kept.configs if live(c, forward_key(c))} == whole
    dead = {forward_key(c) for c in kept.configs if c not in whole}
    assert len(kept.configs) == len(whole) + len(dead)
    return full, kept


def test_travel_one_round_hotness_is_a_class_property(travel_system):
    full = explore_oracle.reachable_with_reversals(travel_system, Bound(200, 1))
    classes = assert_hotness_is_a_class_property(travel_system, full)
    assert classes[True] and classes[False]


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
    configuration alone that the search wants.  Return the events of the
    moves whose keys were checked and the key of each configuration
    expanded."""
    carried = chorrev.explore._successor_key
    table_driven = chorrev.explore.ClassTable.successors
    moves = []
    expanded = []

    def checked(key, succ, ev):
        k = carried(key, succ, ev)
        assert k == forward_key(succ), ev
        moves.append(ev)
        return k

    def compared(table, cfg, cid, wanted):
        succs = table_driven(table, cfg, cid, wanted)
        key = table.keys[cid]
        assert key == forward_key(cfg)
        own = explore_oracle.keyed_successors(cfg, key, system, bound)
        assert [(succ, table.keys[b]) for succ, b in succs] == [
            (succ, k) for succ, k in own if wanted(table.ids[k])
        ]
        expanded.append(key)
        return succs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chorrev.explore, "_successor_key", checked)
        mp.setattr(chorrev.explore.ClassTable, "successors", compared)
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


# -- the class table against the search keyed by whole keys -------------------


def assert_same_as_keyed_search(system, bound, with_reversals):
    """The same configurations, edges in order, ``truncated`` and
    ``steps_explored`` as ``explore_oracle.reachable_by_key``, or the same
    refused rollback."""
    keyed = outcome(explore_oracle.reachable_by_key, system, bound, with_reversals)
    tabled = outcome(reachable, system, bound, with_reversals)
    if isinstance(keyed, str) or isinstance(tabled, str):
        assert tabled == keyed
        return keyed
    assert tabled.configs == keyed.configs
    assert tabled.reversal_edges == keyed.reversal_edges
    assert (tabled.truncated, tabled.steps_explored) == (keyed.truncated, keyed.steps_explored)
    return keyed


@pytest.mark.parametrize("with_reversals", [False, True])
@pytest.mark.parametrize("rounds", [1, 2])
def test_travel_class_table_matches_the_keyed_search(travel_system, rounds, with_reversals):
    assert_same_as_keyed_search(travel_system, Bound(200, rounds), with_reversals)


@pytest.mark.parametrize("name", ["static_order_loop", "rollback_consumed_marker"])
def test_looped_choices_class_table_matches_the_keyed_search(name):
    system = project_system(parse_choreography((DATA / f"{name}.rchor").read_text()))
    refusals = set()
    for steps in range(36):
        for with_reversals in (False, True):
            keyed = assert_same_as_keyed_search(system, Bound(steps, 1), with_reversals)
            if isinstance(keyed, str):
                refusals.add(keyed)
    assert len(refusals) == (name == "rollback_consumed_marker")


@settings(
    max_examples=120,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(shapes, st.integers(1, 2), st.integers(0, 7), st.booleans())
def test_generated_systems_class_table_matches_the_keyed_search(shape, rounds, steps, with_reversals):
    try:
        system = project_system(build(shape))
    except (ProjectionError, UndefinedSemantics):
        assume(False)
    assert_same_as_keyed_search(system, Bound(steps, rounds), with_reversals)


@settings(
    max_examples=60,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(shapes, pairs, st.booleans(), st.integers(1, 2), st.integers(0, 8), st.booleans())
def test_generated_retries_class_table_matches_the_keyed_search(prefix, pair, looped, rounds, steps, with_reversals):
    try:
        system = project_system(retry_after(prefix, *pair, looped))
    except (ProjectionError, UndefinedSemantics):
        assume(False)
    assert_same_as_keyed_search(system, Bound(steps, rounds), with_reversals)
