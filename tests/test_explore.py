import dataclasses
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import chorrev.explore
import chorrev.reverse
import chorrev.runtime
from chorrev.causality import CausalityAnalyzer
from chorrev.explore import (
    CHECKS,
    Bound,
    CheckResult,
    plain_reachable,
    reachable,
    run_checks,
)
from chorrev.machine import ProjectionError
from chorrev.model import Channel
from chorrev.order import UndefinedSemantics
from chorrev.parse import parse_choreography
from chorrev.projection import project_system
from chorrev.runtime import forget_config

from conftest import DAG, DATA, book_dict, chi_dict, retry_after, sigma_dict
from test_order_oracle import pairs, shapes

AB = Channel("A", "B")


@pytest.fixture(scope="module")
def ping_system():
    return project_system(parse_choreography("A -> B : m"))


@pytest.fixture(scope="module")
def retry_system():
    return project_system(
        parse_choreography(
            """
            choice {
              { A -> B : m ; B -> A : r } unless count(m, A->B) >= 1
              + { A -> B : y ; B -> A : s } unless count(y, A->B) >= 1
            }
            """
        )
    )


def test_bound_validation():
    with pytest.raises(ValueError):
        Bound(-1, 1)
    with pytest.raises(ValueError):
        Bound(10, 0)
    Bound(0, 1)


def test_single_interaction_exhausts_in_two_steps(ping_system):
    res = reachable(ping_system, Bound(10, 1))
    assert not res.truncated
    # two productive layers plus the closing empty one
    assert res.steps_explored == 3
    assert {forget_config(c) for c in res.configs} == {
        ((("A", 0), ("B", 0)), ()),
        ((("A", 1), ("B", 0)), ((AB, (("m", 1),)),)),
        ((("A", 1), ("B", 1)), ()),
    }
    plain = plain_reachable(ping_system, Bound(10, 1))
    assert not plain.truncated
    assert plain.configs == {forget_config(c) for c in res.configs}


def test_truncation_is_reported(ping_system):
    short = reachable(ping_system, Bound(1, 1))
    assert short.truncated
    assert len(short.configs) == 2
    plain_short = plain_reachable(ping_system, Bound(1, 1))
    assert plain_short.truncated
    assert len(plain_short.configs) == 2


def test_round_cap_limits_both_routes():
    system = project_system(parse_choreography("loop @ A { A -> B : m }"))
    res = reachable(system, Bound(100, 2), with_reversals=False)
    assert not res.truncated
    seen_markers = max(
        sum(1 for log in c.channel_state(AB).logs if log.message == DAG)
        for c in res.configs
    )
    assert seen_markers == 2
    plain = plain_reachable(system, Bound(100, 2))
    assert not plain.truncated
    worst = max(
        (sum(1 for m, _ in w if m == DAG) for _, words in plain.configs for _, w in words),
        default=0,
    )
    assert worst == 2


def test_reversal_edges_are_collected(retry_system):
    res = reachable(retry_system, Bound(20, 1), with_reversals=True)
    assert not res.truncated
    assert len(res.reversal_edges) > 0
    for pre, cand, post in res.reversal_edges:
        assert cand.participant == "A"
        assert post in res.configs


def test_all_checks_pass_on_the_travel_system(travel_system):
    results = run_checks(travel_system, Bound(200, 1))
    assert [r.name for r in results] == [
        "soundness",
        "completeness",
        "causal-consistency",
    ]
    assert all(r.verdict == "pass" for r in results)
    sound, complete, causal = results
    assert sound.stats["images"] == sound.stats["plain_configs"]
    assert causal.stats["reversal_edges"] > 0


def test_checks_pass_on_the_retry_system(retry_system):
    results = run_checks(retry_system, Bound(30, 1))
    assert all(r.verdict == "pass" for r in results)


def test_checks_pass_on_a_choice_in_a_par_thread():
    system = project_system(parse_choreography((DATA / "choice_in_par.rchor").read_text()))
    sound, complete, causal = run_checks(system, Bound(60, 1))
    assert all(r.verdict == "pass" for r in (sound, complete, causal))
    assert sound.stats["images"] == complete.stats["plain_configs"] == 40
    assert causal.stats["reversal_edges"] == 40


def test_truncated_check_is_inconclusive(travel_system):
    (res,) = run_checks(travel_system, Bound(5, 2), names=["soundness"])
    assert res.passed and res.inconclusive
    assert res.verdict == "inconclusive"
    assert "not exhausted" in res.details


def test_no_reversals_is_inconclusive(ping_system):
    (res,) = run_checks(ping_system, Bound(10, 1), names=["causal-consistency"])
    assert res.verdict == "inconclusive"
    assert "no reversal" in res.details


def test_unknown_check_name(travel_system):
    with pytest.raises(ValueError, match="unknown check"):
        run_checks(travel_system, Bound(1, 1), names=["confluence"])


def _count_searches(monkeypatch) -> dict:
    calls = {"forward": 0, "reversals": 0, "plain": 0}
    real_reachable = chorrev.explore.reachable
    real_plain = chorrev.explore.plain_reachable

    def counted_reachable(system, bound, with_reversals=False, **kwargs):
        calls["reversals" if with_reversals else "forward"] += 1
        return real_reachable(system, bound, with_reversals, **kwargs)

    def counted_plain(system, bound):
        calls["plain"] += 1
        return real_plain(system, bound)

    monkeypatch.setattr(chorrev.explore, "reachable", counted_reachable)
    monkeypatch.setattr(chorrev.explore, "plain_reachable", counted_plain)
    return calls


@pytest.mark.parametrize(
    "names, expected",
    [
        (None, {"forward": 0, "reversals": 1, "plain": 1}),
        (["causal-consistency"], {"forward": 0, "reversals": 1, "plain": 1}),
        (["completeness", "soundness"], {"forward": 1, "reversals": 0, "plain": 1}),
    ],
)
def test_one_run_explores_each_route_at_most_once(retry_system, monkeypatch, names, expected):
    calls = _count_searches(monkeypatch)
    run_checks(retry_system, Bound(30, 1), names)
    assert calls == expected


def test_unknown_name_is_refused_before_any_search(travel_system, monkeypatch):
    calls = _count_searches(monkeypatch)
    with pytest.raises(ValueError, match="unknown check"):
        run_checks(travel_system, Bound(200, 1), names=["soundness", "confluence"])
    assert calls == {"forward": 0, "reversals": 0, "plain": 0}


def assert_shared_run_equals_single_checks(system, bound):
    shared = run_checks(system, bound)
    single = [run_checks(system, bound, [name])[0] for name in CHECKS]
    assert [dataclasses.asdict(r) for r in shared] == [dataclasses.asdict(r) for r in single]
    assert [r.name for r in shared] == list(CHECKS)


@pytest.mark.parametrize("system_name", ["ping_system", "retry_system", "travel_system"])
def test_shared_run_equals_single_checks(system_name, request):
    assert_shared_run_equals_single_checks(request.getfixturevalue(system_name), Bound(200, 1))


# The forward checks of a shared run walk the class table that the search
# with reversals filled.  On rollback_consumed_marker that search stops at
# a refused rollback, and the walk lists the classes it left out: only two
# on the last frontier at Bound(12, 1), but 148 at Bound(30, 2), where the
# forward checks pass.
@pytest.mark.parametrize(
    "name, bound",
    [
        ("travel", Bound(200, 2)),
        ("static_order_loop", Bound(200, 2)),
        ("choice_in_par", Bound(200, 2)),
        ("rollback_consumed_marker", Bound(12, 1)),
        ("rollback_consumed_marker", Bound(30, 2)),
    ],
)
def test_shared_run_equals_single_checks_on_the_data_files(name, bound):
    system = project_system(parse_choreography((DATA / f"{name}.rchor").read_text()))
    assert_shared_run_equals_single_checks(system, bound)


@settings(
    max_examples=60,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(shapes, pairs, st.booleans(), st.integers(1, 2), st.integers(0, 8))
def test_shared_run_equals_single_checks_on_generated_retries(prefix, pair, looped, rounds, steps):
    try:
        system = project_system(retry_after(prefix, *pair, looped))
    except (ProjectionError, UndefinedSemantics):
        assume(False)
    assert_shared_run_equals_single_checks(system, Bound(steps, rounds))


def test_checks_come_back_in_the_requested_order(retry_system):
    names = ["causal-consistency", "soundness"]
    assert [r.name for r in run_checks(retry_system, Bound(30, 1), names)] == names


def test_forward_checks_do_not_share_their_stats(retry_system):
    sound, complete = run_checks(retry_system, Bound(30, 1), ["soundness", "completeness"])
    assert sound.stats == complete.stats
    assert sound.stats is not complete.stats


def test_run_checks_work_counts_on_travel_at_two_rounds(travel_system, monkeypatch):
    """The layer calls of one ``run_checks``, counted through the module
    attributes the searches call.  One class table serves every check:
    each of its 894 classes has its families decided and its moves listed
    once, the forward steps leave out moves into a dead class already
    seen, the forward checks walk the table without a step of their own,
    reversals are listed in hot classes only, and each of the 316 distinct
    targets of the 808 reversal edges is audited once."""
    calls = Counter()

    def counted(owner, name, tag):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            calls[tag] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    counted(chorrev.reverse, "reversible_families", "reversible_families")
    counted(chorrev.runtime, "step_output", "step")
    counted(chorrev.runtime, "step_input", "step")
    counted(chorrev.runtime, "enabled_forward", "enabled_forward")
    counted(chorrev.reverse, "enabled_reversals", "enabled_reversals")
    counted(chorrev.reverse, "step_reverse", "step_reverse")
    counted(CausalityAnalyzer, "cut", "cut")
    counted(chorrev.explore, "audit_configuration", "audit")
    assert all(r.verdict == "pass" for r in run_checks(travel_system, Bound(200, 2)))
    assert calls == {
        "reversible_families": 894,
        "enabled_forward": 894,
        "step": 5649,
        "enabled_reversals": 1432,
        "step_reverse": 808,
        "cut": 808,
        "audit": 316,
    }


def test_verdict_precedence():
    assert CheckResult("x", False, True, "").verdict == "fail"
    assert CheckResult("x", True, True, "").verdict == "inconclusive"
    assert CheckResult("x", True, False, "").verdict == "pass"


# -- the checks must notice broken semantics ----------------------------------


def test_soundness_catches_a_corrupted_receive(ping_system, monkeypatch):
    real = chorrev.runtime.step_input

    def stuck_receiver(cfg, system, participant, t):
        out = real(cfg, system, participant, t)
        sigma = sigma_dict(out)
        sigma[participant] = t.src  # pretend the receiver never moved
        return chorrev.runtime.Configuration.make(
            sigma, chi_dict(out), book_dict(out)
        )

    monkeypatch.setattr(chorrev.runtime, "step_input", stuck_receiver)
    (res,) = run_checks(ping_system, Bound(10, 1), names=["soundness"])
    assert res.verdict == "fail"
    assert "escapes the plain semantics" in res.details


def test_completeness_catches_dropped_moves(ping_system, monkeypatch):
    real = chorrev.runtime.enabled_forward

    def lossy(cfg, system, scope=chorrev.runtime.FULL, block_on_guard=False):
        return real(cfg, system, scope, block_on_guard)[1:]

    monkeypatch.setattr(chorrev.runtime, "enabled_forward", lossy)
    (res,) = run_checks(ping_system, Bound(10, 1), names=["completeness"])
    assert res.verdict == "fail"
    assert "never realised" in res.details


def test_causal_consistency_catches_a_broken_rollback(retry_system, monkeypatch):
    real = chorrev.reverse.step_reverse

    def mangled(cfg, system, candidate, analyzer=None, scope=chorrev.runtime.FULL):
        out = real(cfg, system, candidate, analyzer, scope)
        sigma = sigma_dict(out)
        sigma[candidate.participant] = 99
        return chorrev.runtime.Configuration.make(
            sigma, chi_dict(out), book_dict(out)
        )

    monkeypatch.setattr(chorrev.reverse, "step_reverse", mangled)
    (res,) = run_checks(retry_system, Bound(20, 1), names=["causal-consistency"])
    assert res.verdict == "fail"
    assert "inconsistent configuration" in res.details


def test_causal_consistency_catches_a_rollback_outside_the_plain_semantics(retry_system, monkeypatch):
    # The audit reads no pending word, so only the plain inclusion notices
    # one that no plain run leaves behind.
    real = chorrev.runtime.forget_config

    def with_a_stray_word(cfg):
        sigma, words = real(cfg)
        return sigma, words + ((Channel("Z", "Z"), (("stray", 0),)),)

    monkeypatch.setattr(chorrev.runtime, "forget_config", with_a_stray_word)
    (res,) = run_checks(retry_system, Bound(20, 1), names=["causal-consistency"])
    assert res.verdict == "fail"
    assert res.details == (
        "rollback of m by A reaches a configuration outside the plain semantics:"
        " [A:0, B:0] Z->Z=stray"
    )
