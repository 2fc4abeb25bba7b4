import sys

import pytest
from click.testing import CliRunner

from chorrev import causality, model, order
from chorrev.causality import (
    CausalityAnalyzer,
    LoopRef,
    all_log_refs,
    audit_configuration,
    loops_of,
    marker_rounds,
    ongoing,
)
from chorrev.cli import main
from chorrev.explore import Bound, reachable, run_checks
from chorrev.model import Channel
from chorrev.parse import parse_choreography
from chorrev.projection import project_system
from chorrev.runtime import Configuration, Log

from conftest import (
    DAG,
    DATA,
    DDAG,
    REPLAN_PREFIX,
    book_dict,
    chi_dict,
    drive,
    forced_pairs,
    queues,
    seeded_history,
    sigma_dict,
)

AB = Channel("A", "B")
AC = Channel("A", "C")
BC = Channel("B", "C")
TB = Channel("T", "B")
TD = Channel("T", "D")
BT = Channel("B", "T")

CH = "channel-order"
SO = "sender-order"
LR = "loop-rounds"
ST = "static-order"
RP = "replay-order"


@pytest.fixture(scope="module")
def loop_system():
    return project_system(parse_choreography("loop @ A { A -> B : m ; A -> C : y }"))


@pytest.fixture(scope="module")
def loop_run(loop_system):
    # the controller runs two full rounds on its own; nobody receives
    script = [
        ("out", "A", 1, AB, DAG),
        ("out", "A", 1, AC, DAG),
        ("out", "A", 2, None, None),
        ("out", "A", 3, None, None),
    ]
    return drive(loop_system, script * 2)


def refs(cfg, ch):
    return [(ch, log) for log in cfg.channel_state(ch).logs]


def test_loops_of_travel(travel_chor):
    (loop,) = loops_of(travel_chor)
    assert loop == LoopRef(1, "T", frozenset(range(2, 11)))
    assert loop.contains_cp(1) and loop.contains_cp(10)
    assert not loop.contains_cp(11)


def test_round_of_counts_markers():
    loop = LoopRef(1, "A", frozenset({2}))
    logs = (
        Log(DAG, 0, 1, 1),
        Log("m", 1, 2, 2),
        Log(DAG, 2, 1, 3),
        Log("m", 3, 2, 4),
        Log(DDAG, 4, 1, 5),
    )
    assert marker_rounds(loop, logs) == [0, 0, 1, 1, 1]
    bare = (Log("m", 0, 2, 1),)
    assert marker_rounds(loop, bare) == [None]


def test_two_round_base_relation_is_exact(loop_system, loop_run):
    b1, m1, b2, m2 = refs(loop_run, AB)
    c1, y1, c2, y2 = refs(loop_run, AC)
    assert [r[1].timestamp for r in (b1, c1, m1, y1, b2, c2, m2, y2)] == list(
        range(1, 9)
    )

    base = CausalityAnalyzer(loop_system).base_relation(loop_run)
    expected = {
        # queue order on each channel
        (b1, m1): {CH}, (b1, b2): {CH}, (b1, m2): {CH},
        (m1, b2): {CH}, (m1, m2): {CH}, (b2, m2): {CH},
        (c1, y1): {CH}, (c1, c2): {CH}, (c1, y2): {CH},
        (y1, c2): {CH}, (y1, y2): {CH}, (c2, y2): {CH},
        # marker logs of one multicast: program order only
        (b1, c1): {SO}, (b1, c2): {SO}, (c1, b2): {SO}, (b2, c2): {SO},
        # cross-channel pairs with observable rounds
        (b1, y1): {SO, LR}, (b1, y2): {SO, LR},
        (y1, b2): {SO, LR}, (b2, y2): {SO, LR},
        (c1, m1): {SO, LR}, (c1, m2): {SO, LR},
        (m1, c2): {SO, LR}, (c2, m2): {SO, LR},
        (m1, y1): {SO, LR}, (m1, y2): {SO, LR},
        (y1, m2): {SO, LR}, (m2, y2): {SO, LR},
    }
    assert {pair: set(tags) for pair, tags in base.items()} == expected


def test_round_rule_inverts_the_static_order(loop_system, loop_run):
    _, m1, b2, m2 = refs(loop_run, AB)
    _, y1, _, _ = refs(loop_run, AC)
    base = CausalityAnalyzer(loop_system).base_relation(loop_run)
    # statically the body sends m before y, but round 0 precedes round 1
    assert LR in base[(y1, m2)]
    assert (m2, y1) not in base
    assert LR in base[(y1, b2)]
    assert (b2, y1) not in base


def test_relation_is_reflexive_transitive(loop_system, loop_run):
    analyzer = CausalityAnalyzer(loop_system)
    rel = analyzer.relation(loop_run)
    b1, _, _, m2 = refs(loop_run, AB)
    _, _, _, y2 = refs(loop_run, AC)
    assert set(rel) == set(all_log_refs(loop_run))
    assert all(ref in dependants for ref, dependants in rel.items())
    assert b1 in rel[b1]
    assert y2 in rel[b1]
    assert m2 in rel[b1]
    assert b1 not in rel[m2]
    assert analyzer.effects(loop_run, b1) == rel[b1]


def test_rollback_points_inside_an_ongoing_loop(loop_system, loop_run):
    analyzer = CausalityAnalyzer(loop_system)
    assert analyzer.rollback_points(loop_run) == set(all_log_refs(loop_run))


def test_ongoing_loop_detection(loop_system):
    loop = loops_of(loop_system.chor)[0]
    started = drive(loop_system, [("out", "A", 1, AB, DAG)])
    assert ongoing(loop, started)

    finished = drive(
        loop_system,
        [
            ("out", "A", 1, AB, DAG),
            ("out", "A", 1, AC, DAG),
            ("out", "A", 2, None, None),
            ("out", "A", 3, None, None),
            ("out", "A", 1, AB, DDAG),
            ("out", "A", 1, AC, DDAG),
            ("inp", "B", 1, None, DAG),
            ("inp", "B", 2, None, None),
            ("inp", "C", 1, None, DAG),
            ("inp", "C", 3, None, None),
        ],
    )
    # stop markers still in flight keep the loop alive
    assert ongoing(loop, finished)
    done = drive(
        loop_system,
        [("inp", "B", 1, None, DDAG), ("inp", "C", 1, None, DDAG)],
        finished,
    )
    assert not ongoing(loop, done)


# -- dependencies without loops ---------------------------------------------


@pytest.fixture(scope="module")
def chain_system():
    return project_system(parse_choreography("A -> B : m ; B -> C : n"))


def test_static_and_replay_order_on_a_chain(chain_system):
    cfg = drive(
        chain_system,
        [("out", "A", 1, None, None), ("inp", "B", 1, None, None), ("out", "B", 2, None, None)],
    )
    analyzer = CausalityAnalyzer(chain_system)
    (m_ref,) = refs(cfg, AB)
    (n_ref,) = refs(cfg, BC)
    base = analyzer.base_relation(cfg)
    assert set(base[(m_ref, n_ref)]) == {ST, RP}
    assert analyzer.effects(cfg, m_ref) == {m_ref, n_ref}
    # outside any loop, only history-maximal logs can be rewound to
    assert analyzer.rollback_points(cfg) == {n_ref}


@pytest.fixture(scope="module")
def par_system():
    return project_system(parse_choreography("par { A -> B : m | B -> C : n }"))


def test_concurrent_logs_are_unrelated(par_system):
    cfg = drive(
        par_system,
        [("out", "A", 2, None, None), ("out", "B", 3, None, None), ("inp", "B", 2, None, None)],
    )
    base = CausalityAnalyzer(par_system).base_relation(cfg)
    (m_ref,) = refs(cfg, AB)
    (n_ref,) = refs(cfg, BC)
    assert (m_ref, n_ref) not in base
    assert (n_ref, m_ref) not in base


def test_recorded_interleaving_can_force_order(par_system):
    # same system, but B consumed m before sending n: its machine state at
    # the send pins every replay to that order
    cfg = drive(
        par_system,
        [("out", "A", 2, None, None), ("inp", "B", 2, None, None), ("out", "B", 3, None, None)],
    )
    base = CausalityAnalyzer(par_system).base_relation(cfg)
    (m_ref,) = refs(cfg, AB)
    (n_ref,) = refs(cfg, BC)
    assert set(base[(m_ref, n_ref)]) == {RP}


# -- the worked two-round history -------------------------------------------


def test_booking_effects_cone(travel_system, replan_config, dest_log):
    analyzer = CausalityAnalyzer(travel_system)
    tb = replan_config.channel_state(TB)
    td = replan_config.channel_state(TD)
    bt = replan_config.channel_state(BT)
    dest_ref = (TB, dest_log)
    assert analyzer.effects(replan_config, dest_ref) == {
        dest_ref,
        (BT, bt.consumed[0]),   # the answered price
        (TD, td.pending[1]),    # the booking update
        (TD, td.pending[2]),    # second-round marker to D
        (TB, tb.consumed[2]),   # second-round marker to B
    }


def test_every_log_of_the_run_is_a_rollback_point(travel_system, replan_config):
    analyzer = CausalityAnalyzer(travel_system)
    points = analyzer.rollback_points(replan_config)
    assert points == set(all_log_refs(replan_config))
    assert len(points) == 7


def test_a_loop_log_with_a_dependant_after_the_loop_is_no_rollback_point():
    # The end marker is still in flight, so the loop is ongoing, but the
    # send after the loop depends on every log of it.
    system = project_system(parse_choreography("loop @ A { A -> B : m } ; A -> C : z"))
    cfg = drive(
        system,
        [
            ("out", "A", 1, None, DAG),
            ("out", "A", 2, None, None),
            ("out", "A", 1, None, DDAG),
            ("out", "A", 3, None, None),
        ],
    )
    (z_ref,) = refs(cfg, AC)
    assert CausalityAnalyzer(system).rollback_points(cfg) == {z_ref}


def test_rollback_points_are_kept_per_history(travel_system):
    # The search queries each configuration, and step_reverse queries it
    # again; only the last configuration's answers are kept, so every
    # query gives the same points, and a fresh analyzer agrees with a used one.
    analyzer = CausalityAnalyzer(travel_system)
    searched = reachable(travel_system, Bound(200, 1), with_reversals=True, analyzer=analyzer)
    for cfg in searched.configs:
        points = analyzer.rollback_points(cfg)
        assert isinstance(points, frozenset)
        assert analyzer.rollback_points(cfg) == points
        assert points == CausalityAnalyzer(travel_system).rollback_points(cfg)


def test_rollback_answers_are_kept_for_the_last_configuration_only(travel_system, replan_config, dest_log):
    # Two histories that share the booking anchor: the first round alone,
    # whose cone of dest has three logs, and the replan run, where it has five.
    first_round = drive(travel_system, REPLAN_PREFIX[:8])
    anchor = (TB, dest_log)
    analyzer = CausalityAnalyzer(travel_system)
    answers = [
        (cfg, analyzer.rollback_cut(cfg, anchor))
        for cfg in (replan_config, first_round, replan_config, first_round)
    ]
    removed = [sum(len(cs.logs) for _, cs in cfg.chi) - sum(kept) for cfg, kept in answers]
    assert removed == [5, 3, 5, 3]
    for cfg, kept in answers:
        assert kept == CausalityAnalyzer(travel_system).rollback_cut(cfg, anchor)


def test_search_cuts_once_per_reversal_edge(travel_system, monkeypatch):
    # enabled_reversals lists a reversal and step_reverse carries it out on
    # the same configuration; the second asks for the effects the first cut.
    cuts = 0
    cut = CausalityAnalyzer.cut

    def counting_cut(self, cfg, anchor):
        nonlocal cuts
        cuts += 1
        return cut(self, cfg, anchor)

    monkeypatch.setattr(CausalityAnalyzer, "cut", counting_cut)
    (res,) = run_checks(travel_system, Bound(200, 2), names=["causal-consistency"])
    assert res.verdict == "pass"
    assert res.stats["reversal_edges"] == 808
    assert cuts == 808


def test_rollback_points_ask_each_loop_once(travel_system, monkeypatch):
    # Whether a loop is ongoing depends on the history, not on the log
    # asking, and a log has one outermost loop, so each per-anchor query
    # asks it at most once.  The search asks through rollback_cut.
    asked = 0
    calls = 0
    is_ongoing = causality.ongoing
    query = CausalityAnalyzer.rollback_cut

    def counting_ongoing(loop, cfg):
        nonlocal asked
        asked += 1
        return is_ongoing(loop, cfg)

    def counting_calls(self, cfg, ref):
        nonlocal calls
        calls += 1
        return query(self, cfg, ref)

    monkeypatch.setattr(causality, "ongoing", counting_ongoing)
    monkeypatch.setattr(CausalityAnalyzer, "rollback_cut", counting_calls)
    results = run_checks(travel_system, Bound(200, 1))
    assert all(r.passed for r in results)
    assert calls > 0 and asked > 0
    assert asked <= calls


def test_searches_and_runs_never_build_a_whole_history_view(travel_system, monkeypatch):
    # The search and a simulated run ask about one anchor at a time; the
    # whole-history relation and rollback points are views for tests only.
    def refuse(self, cfg):
        raise AssertionError("a whole-history view was built")

    monkeypatch.setattr(CausalityAnalyzer, "relation", refuse)
    monkeypatch.setattr(CausalityAnalyzer, "rollback_points", refuse)
    results = run_checks(travel_system, Bound(200, 2))
    assert all(r.passed for r in results)
    result = CliRunner().invoke(
        main, ["simulate", str(DATA / "travel.rchor"), "--auto", "200", "--seed", "11"]
    )
    assert result.exit_code == 0, result.output
    assert result.output.count(" reverses branch ") == 2


# -- replay and audit ---------------------------------------------------------


def test_replay_end_states(travel_system, replan_config):
    analyzer = CausalityAnalyzer(travel_system)
    assert analyzer.replay_end_states(replan_config, "B") == frozenset({1})
    assert analyzer.replay_end_states(replan_config, "D") == frozenset({0})
    assert analyzer.replay_end_states(replan_config, "T") == frozenset({3})


def test_audit_accepts_the_real_run(travel_system, replan_config):
    assert audit_configuration(replan_config, travel_system) == []


def test_audit_flags_wrong_state(travel_system, replan_config):
    sigma = sigma_dict(replan_config)
    sigma["B"] = 5
    broken = Configuration.make(sigma, chi_dict(replan_config), book_dict(replan_config))
    problems = audit_configuration(broken, travel_system)
    assert problems == ["B: current state 5 unreachable by replay (possible: [1])"]


def test_audit_flags_impossible_history(travel_system, replan_config):
    chi = chi_dict(replan_config)
    tb = chi[TB]
    chi[TB] = queues(
        (tb.consumed[1], tb.consumed[0], tb.consumed[2]), tb.pending
    )
    broken = Configuration.make(sigma_dict(replan_config), chi, book_dict(replan_config))
    problems = audit_configuration(broken, travel_system)
    assert any("cannot be replayed at all" in p for p in problems)


def test_an_impossible_history_forces_no_pairs(travel_system, replan_config):
    # With no complete replay every count stays at its maximum; the pairs
    # would all read as forced if the empty end states were not checked.
    chi = chi_dict(replan_config)
    tb = chi[TB]
    chi[TB] = queues((tb.consumed[1], tb.consumed[0], tb.consumed[2]), tb.pending)
    broken = Configuration.make(sigma_dict(replan_config), chi, book_dict(replan_config))
    analyzer = CausalityAnalyzer(travel_system)
    assert analyzer.replay_end_states(broken, "B") == frozenset()
    assert forced_pairs(analyzer, broken, "B") == []
    assert forced_pairs(analyzer, replan_config, "B") != []


def test_a_thousand_log_history_replays_without_recursion(travel_system):
    # A forward walk that never sends the loop's end marker keeps growing
    # one history; its replay must not nest a call per log.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        cfg = seeded_history(travel_system, 1000, seed=1)
        analyzer = CausalityAnalyzer(travel_system)
        for participant in travel_system.machines:
            ends = analyzer.replay_end_states(cfg, participant)
            assert ends == frozenset({cfg.state_of(participant)})
        assert audit_configuration(cfg, travel_system, analyzer) == []
        pairs = {p: forced_pairs(analyzer, cfg, p) for p in travel_system.machines}
    finally:
        sys.setrecursionlimit(limit)
    assert len(all_log_refs(cfg)) == 1000
    assert pairs["B"] and pairs["T"]


def test_logs_find_their_events_without_a_tree_walk_each(travel_system, monkeypatch):
    # A log's static event is looked up in an index built once per
    # analyzer, so the walks over the protocol do not grow with the
    # history: a search over two loop rounds walks it as often as one.
    calls = []
    walk = model.subterms

    def counting(g):
        calls[-1] += 1
        return walk(g)

    for module in (model, order, causality):
        monkeypatch.setattr(module, "subterms", counting)
    for rounds in (1, 2):
        calls.append(0)
        results = run_checks(travel_system, Bound(200, rounds))
        assert all(r.passed for r in results)
    assert calls[0] == calls[1] > 0
