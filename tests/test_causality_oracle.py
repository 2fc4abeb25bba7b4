"""The per-anchor causality queries against the per-pair builder in ``causality_oracle``.

Both must give the same tagged edges, each pair's tags in clause order,
the same relation and effects, each effect set a suffix of every
channel, the same rollback points, anchor by anchor and as a set, the same
answer from ``ongoing`` for every loop, and for every participant the
same forced pairs, in order, and the same replay end states.  The inputs
are the histories of travel's searches with reversals, long seeded
travel histories, every history of the searches with reversals over
``static_order_loop`` and ``rollback_consumed_marker``, and the generated
systems of ``test_runtime_oracle``.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import causality_oracle
import explore_oracle
from chorrev import causality
from chorrev.causality import CausalityAnalyzer, all_log_refs
from chorrev.explore import Bound, reachable
from chorrev.parse import parse_choreography
from chorrev.projection import project_system

from conftest import DATA, forced_pairs, seeded_history
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
        points = old.rollback_points(cfg)
        for ref in relation:
            effects = causality_oracle.effects(new, cfg, ref)
            assert effects == old.effects(cfg, ref)
            assert causality_oracle.is_rollback_point(new, cfg, ref) == (ref in points)
            for ch, cs in cfg.chi:
                removed = [i for i, log in enumerate(cs.logs) if (ch, log) in effects]
                assert removed == list(range(len(cs.logs) - len(removed), len(cs.logs)))
        assert new.rollback_points(cfg) == points
        for loop in new.loops:
            assert causality.ongoing(loop, cfg) == causality_oracle.ongoing(loop, cfg)
        for participant in system.machines:
            assert forced_pairs(new, cfg, participant) == old._forced_pairs(cfg, participant)
            assert new.replay_end_states(cfg, participant) == old.replay_end_states(cfg, participant)


def one_per_history(cfgs):
    return list({cfg.chi: cfg for cfg in cfgs}.values())


class RecordingAnalyzer(CausalityAnalyzer):
    """An analyzer that keeps one configuration per history it cuts: the
    rollback-point test and ``effects`` both ask through ``cut``."""

    def __init__(self, system):
        super().__init__(system)
        self.asked = {}

    def cut(self, cfg, anchor):
        self.asked.setdefault(cfg.chi, cfg)
        return super().cut(cfg, anchor)


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


@pytest.mark.parametrize(
    "name, bound, histories",
    [("static_order_loop", Bound(200, 2), 560), ("rollback_consumed_marker", Bound(11, 1), 169)],
)
def test_every_history_of_the_small_protocols(name, bound, histories):
    system = project_system(parse_choreography((DATA / f"{name}.rchor").read_text()))
    searched = explore_oracle.reachable_with_reversals(system, bound)
    assert len(one_per_history(searched.configs)) == histories
    assert_same_causality(system, one_per_history(searched.configs))


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
