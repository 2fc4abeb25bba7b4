"""The forward search on classes against the full search in ``explore_oracle``.

``reachable`` without reversals keeps one configuration per
``forward_key``.  That is exact when configurations with equal keys have
equal successor keys; then the forgetful images, ``truncated`` and
``steps_explored`` are those of the search over every configuration.
"""

from collections import defaultdict

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import explore_oracle
from chorrev.explore import Bound, forward_key, reachable
from chorrev.machine import ProjectionError
from chorrev.order import UndefinedSemantics
from chorrev.parse import parse_choreography
from chorrev.projection import project_system
from chorrev.runtime import forget_config

from test_order_oracle import build, shapes

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
