"""The one-pass causality builder against the per-pair one in ``causality_oracle``.

Both must give the same tagged edges, each pair's tags in clause order,
the same relation and effects, the same rollback points, the same
answer from ``ongoing`` for every loop, and for every participant the
same forced pairs, in order, and the same replay end states.  The inputs
are the histories of travel's searches with reversals, long seeded
travel histories, and the generated systems of ``test_runtime_oracle``.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import causality_oracle
import explore_oracle
from chorrev import causality
from chorrev.causality import CausalityAnalyzer, all_log_refs
from chorrev.explore import Bound, reachable

from conftest import seeded_history
from test_order_oracle import shapes
from test_runtime_oracle import generated_searches, retries


def assert_same_causality(system, cfgs):
    new = CausalityAnalyzer(system)
    old = causality_oracle.OracleAnalyzer(system)
    for cfg in cfgs:
        assert new.base_relation(cfg) == old.base_relation(cfg)
        relation = new.relation(cfg)
        assert relation == old.relation(cfg)
        assert list(relation) == all_log_refs(cfg)
        for ref in relation:
            assert new.effects(cfg, ref) == old.effects(cfg, ref)
        assert new.rollback_points(cfg) == old.rollback_points(cfg)
        for loop in new.loops:
            assert causality.ongoing(loop, cfg) == causality_oracle.ongoing(loop, cfg)
        for participant in system.machines:
            assert new._forced_pairs(cfg, participant) == old._forced_pairs(cfg, participant)
            assert new.replay_end_states(cfg, participant) == old.replay_end_states(cfg, participant)


def one_per_history(cfgs):
    return list({cfg.chi: cfg for cfg in cfgs}.values())


class RecordingAnalyzer(CausalityAnalyzer):
    """An analyzer that keeps one configuration per history it relates."""

    def __init__(self, system):
        super().__init__(system)
        self.asked = {}

    def relation(self, cfg):
        self.asked.setdefault(cfg.chi, cfg)
        return super().relation(cfg)


def test_every_history_of_the_one_round_search(travel_system):
    searched = explore_oracle.reachable_with_reversals(travel_system, Bound(200, 1))
    histories = one_per_history(searched.configs)
    assert len(searched.configs) == 907
    assert_same_causality(travel_system, histories)


def test_the_histories_the_two_round_search_analyses(travel_system):
    analyzer = RecordingAnalyzer(travel_system)
    reachable(travel_system, Bound(200, 2), with_reversals=True, analyzer=analyzer)
    assert len(analyzer.asked) == 744
    assert_same_causality(travel_system, analyzer.asked.values())


@pytest.mark.parametrize("logs", [57, 113, 225])
def test_long_travel_histories(travel_system, logs):
    cfg = seeded_history(travel_system, logs, seed=logs)
    assert len(all_log_refs(cfg)) == logs
    assert_same_causality(travel_system, [cfg])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(shapes, retries, st.integers(1, 2), st.integers(0, 6))
def test_generated_systems(shape, retry, rounds, steps):
    for system, cfgs in generated_searches(shape, retry, rounds, steps):
        assert_same_causality(system, one_per_history(cfgs))
