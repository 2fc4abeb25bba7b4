import itertools

import pytest

from chorrev.causality import CausalityAnalyzer
from chorrev.explore import Bound, reachable
from chorrev.machine import Branch
from chorrev.model import Channel, CountAtom
from chorrev.order import CommEvent
from chorrev.parse import parse_choreography
from chorrev.projection import project_system
from chorrev.reverse import (
    ReversalCandidate,
    enabled_reversals,
    reversible_families,
    rho,
    step_reverse,
)
from chorrev.runtime import (
    BookEntry,
    Configuration,
    Log,
    PENDING,
    NotEnabled,
    enabled_forward,
    initial_configuration,
    step_output,
)

import runtime_oracle
from conftest import DAG, DDAG, REPLAN_PREFIX, chi_dict, drive, queues, sigma_dict

AB = Channel("A", "B")
CD = Channel("C", "D")
TB = Channel("T", "B")
TD = Channel("T", "D")
BT = Channel("B", "T")

DEST = CommEvent(TB, "!", 8, "dest")
BOOKED = CountAtom("upd", TD, ">=", 1)


# -- removal ------------------------------------------------------------------


def test_rho_of_the_booking_cone(travel_system, replan_config, dest_log):
    analyzer = CausalityAnalyzer(travel_system)
    kept = analyzer.cut(replan_config, (TB, dest_log))
    rolled = rho(replan_config, travel_system, kept, analyzer)
    assert sigma_dict(rolled) == {"T": 3, "B": 1, "D": 0}
    assert chi_dict(rolled) == {
        TD: queues((), (Log(DAG, 0, 1, 1),)),
        TB: queues((Log(DAG, 2, 1, 2),), ()),
    }
    # removal itself never touches the book
    assert rolled.book == replan_config.book == ()


def test_rho_replays_receivers_not_just_senders(travel_system, replan_config, dest_log):
    # B sent fullPrice from state 4; a literal sender rewind would leave it
    # there, but its surviving history only supports the branch entry state
    analyzer = CausalityAnalyzer(travel_system)
    kept = analyzer.cut(replan_config, (TB, dest_log))
    rolled = rho(replan_config, travel_system, kept, analyzer)
    assert rolled.state_of("B") == 1
    bt = replan_config.channel_state(BT)
    assert bt.consumed[0].sender_state == 4


@pytest.fixture(scope="module")
def split_system():
    return project_system(parse_choreography("par { A -> B : m | C -> D : n }"))


def split_run(split_system):
    return drive(
        split_system,
        [("out", "A", 2, None, None), ("out", "C", 3, None, None)],
    )


def test_rho_is_order_independent(split_system):
    cfg = split_run(split_system)
    m_ref = (AB, cfg.channel_state(AB).pending[0])
    n_ref = (CD, cfg.channel_state(CD).pending[0])
    outcomes = set()
    legal = 0
    for perm in itertools.permutations([m_ref, n_ref]):
        outcomes.add(
            runtime_oracle.rho(cfg, split_system, [m_ref, n_ref], order=list(perm))
        )
        legal += 1
    assert legal == 2
    # The cut that keeps no log of either channel removes m and n.
    assert outcomes == {rho(cfg, split_system, [0, 0])}
    assert next(iter(outcomes)) == initial_configuration(split_system)


def test_rho_rejects_illegal_orders(chain_run):
    cfg, system, m_ref, n_ref = chain_run
    with pytest.raises(ValueError, match="illegal removal order"):
        runtime_oracle.rho(cfg, system, [m_ref, n_ref], order=[m_ref, n_ref])
    with pytest.raises(ValueError, match="enumerate exactly"):
        runtime_oracle.rho(cfg, system, [m_ref, n_ref], order=[n_ref])
    legal = runtime_oracle.rho(cfg, system, [m_ref, n_ref], order=[n_ref, m_ref])
    assert legal == rho(cfg, system, [0, 0])


@pytest.fixture(scope="module")
def chain_run():
    system = project_system(parse_choreography("A -> B : m ; B -> C : n"))
    cfg = drive(
        system,
        [("out", "A", 1, None, None), ("inp", "B", 1, None, None), ("out", "B", 2, None, None)],
    )
    m_ref = (AB, cfg.channel_state(AB).consumed[0])
    n_ref = (Channel("B", "C"), cfg.channel_state(Channel("B", "C")).pending[0])
    return cfg, system, m_ref, n_ref


def test_rho_refuses_a_malformed_cut(travel_system, replan_config):
    # The replan run holds one log on BT and three each on TB and TD.
    assert [len(cs.logs) for _, cs in replan_config.chi] == [1, 3, 3]
    for kept in ([1, 3], [1, 3, 3, 0], [1, -1, 3], [1, 3, 4]):
        with pytest.raises(ValueError, match="a cut keeps"):
            rho(replan_config, travel_system, kept)
    assert rho(replan_config, travel_system, [1, 3, 3]) == replan_config


def test_rho_refuses_a_history_that_does_not_replay():
    system = project_system(parse_choreography("A -> B : m ; A -> B : n"))
    # B's consumed queue is doctored to hold n before m; once m goes, the
    # n that is left cannot be replayed from B's initial state
    n_log, m_log = Log("n", 1, 2, 1), Log("m", 0, 1, 2)
    cfg = Configuration.make({"A": 2, "B": 2}, {AB: queues((n_log, m_log), ())}, {})
    with pytest.raises(ValueError, match=r"history of B replays to \[\]"):
        rho(cfg, system, [1])


# -- the reversal step on the travel system -----------------------------------


def test_only_the_booking_family_is_revertible(travel_system, replan_config, dest_log):
    live = enabled_reversals(replan_config, travel_system)
    assert live == [
        ReversalCandidate("T", 3, DEST, BOOKED, (TB, dest_log))
    ]


def test_step_reverse_matches_the_worked_example(travel_system, replan_config, dest_log):
    (candidate,) = enabled_reversals(replan_config, travel_system)
    post = step_reverse(replan_config, travel_system, candidate)
    assert post == Configuration.make(
        {"T": 3, "B": 1, "D": 0},
        {
            TD: queues((), (Log(DAG, 0, 1, 1),)),
            TB: queues((Log(DAG, 2, 1, 2),), ()),
        },
        {("T", 3): BookEntry(frozenset({(DEST, BOOKED)}), True)},
    )


def test_reversal_requires_a_current_candidate(travel_system, replan_config):
    stale = ReversalCandidate(
        "T", 3, CommEvent(TB, "!", 4, "flight"), CountAtom("upd", TD, "<", 1), (TB, Log("flight", 3, 4, 9))
    )
    with pytest.raises(NotEnabled):
        step_reverse(replan_config, travel_system, stale)


def test_forward_moves_reopen_after_reversal(travel_system, replan_config):
    (candidate,) = enabled_reversals(replan_config, travel_system)
    post = step_reverse(replan_config, travel_system, candidate)
    moves = {str(t.event) for _, t in enabled_forward(post, travel_system)}
    # the decision state is exhausted, so even the undone booking may rerun
    assert moves == {
        "T->B!flight/4",
        "T->B!car/6",
        "T->B!dest/8",
        f"T->D?{DAG}/1",
    }


# -- retries and exhaustion ----------------------------------------------------

# Both branches answer the request, so taking one does not commit it right
# away; the decider can change its mind while it waits for the reply.
RETRY_SOURCE = """
choice {
  { A -> B : m ; B -> A : r } unless count(m, A->B) >= 1
  + { A -> B : y ; B -> A : s } unless count(y, A->B) >= 1
}
"""


@pytest.fixture(scope="module")
def retry_system():
    return project_system(parse_choreography(RETRY_SOURCE))


def test_first_reversal_leaves_alternatives_open(retry_system):
    cfg = drive(retry_system, [("out", "A", 2, None, None)])
    (candidate,) = enabled_reversals(cfg, retry_system)
    assert candidate.participant == "A"
    assert candidate.first_output.message == "m"
    post = step_reverse(cfg, retry_system, candidate)
    entry = post.book_entry("A", candidate.choice_state)
    assert {ev.message for ev, _ in entry.tried} == {"m"}
    assert entry.exhausted is False
    assert post.channel_state(AB).logs == ()
    # the tried family is blocked, its alternative is not
    moves = {t.event.message for _, t in enabled_forward(post, retry_system)}
    assert moves == {"y"}


def test_second_reversal_exhausts_the_state(retry_system):
    cfg = drive(retry_system, [("out", "A", 2, None, None)])
    (first,) = enabled_reversals(cfg, retry_system)
    post = step_reverse(cfg, retry_system, first)
    post = drive(retry_system, [("out", "A", 4, None, None)], post)
    (second,) = enabled_reversals(post, retry_system)
    assert second.first_output.message == "y"
    done = step_reverse(post, retry_system, second)
    entry = done.book_entry("A", second.choice_state)
    assert {ev.message for ev, _ in entry.tried} == {"m", "y"}
    assert entry.exhausted is True
    # exhaustion blocks further reversals and reopens every branch
    assert enabled_reversals(done, retry_system) == []
    moves = {t.event.message for _, t in enabled_forward(done, retry_system)}
    assert moves == {"m", "y"}
    # a retried branch keeps the book until its commit clears it
    retried = drive(retry_system, [("out", "A", 2, None, None)], done)
    assert retried.book_entry("A", second.choice_state) == entry
    committed = drive(
        retry_system,
        [("inp", "B", 2, None, None), ("out", "B", 3, None, None), ("inp", "A", 3, None, None)],
        retried,
    )
    assert committed.book == ()


def test_reversing_twice_needs_a_fresh_anchor(retry_system):
    cfg = drive(retry_system, [("out", "A", 2, None, None)])
    (candidate,) = enabled_reversals(cfg, retry_system)
    post = step_reverse(cfg, retry_system, candidate)
    with pytest.raises(NotEnabled):
        step_reverse(post, retry_system, candidate)


def test_guard_premise(retry_system):
    # nothing has been sent, so neither branch guard holds yet
    cfg = initial_configuration(retry_system)
    assert enabled_reversals(cfg, retry_system) == []


def test_committed_branches_offer_no_reversal(retry_system):
    cfg = drive(
        retry_system,
        [
            ("out", "A", 2, None, None),
            ("inp", "B", 2, None, None),
            ("out", "B", 3, None, None),
            ("inp", "A", 3, None, None),
        ],
    )
    assert cfg.book == ()
    assert enabled_reversals(cfg, retry_system) == []


def test_exhausted_premise(retry_system):
    cfg = drive(retry_system, [("out", "A", 2, None, None)])
    q_hat = enabled_reversals(cfg, retry_system)[0].choice_state
    tired = Configuration.make(
        sigma_dict(cfg),
        chi_dict(cfg),
        {("A", q_hat): BookEntry(frozenset(), True)},
    )
    assert enabled_reversals(tired, retry_system) == []


def test_anchor_premise_needs_the_decision_state(retry_system):
    cfg = drive(retry_system, [("out", "A", 2, None, None)])
    doctored = (Log("m", 99, 2, 1),)
    broken = Configuration.make(sigma_dict(cfg), {AB: queues((), doctored)}, {})
    assert enabled_reversals(broken, retry_system) == []


@pytest.fixture(scope="module")
def looped_system():
    return project_system(
        parse_choreography(
            """
            loop @ A {
              choice {
                { A -> B : m ; B -> A : r } unless count(m, A->B) >= 1
                + { A -> B : y ; B -> A : s } unless count(y, A->B) >= 1
              }
            }
            """
        )
    )


def test_anchor_premise_needs_an_ongoing_loop(looped_system):
    # a closed loop offers no rollback points, whatever the guards say
    machine = looped_system.machines["A"]
    q_hat = next(
        t.decoration.choice_state
        for t in machine.transitions
        if isinstance(t.decoration, Branch)
    )
    b_final = next(iter(looped_system.machines["B"].finals))
    closed = Configuration.make(
        {"A": q_hat, "B": b_final},
        {
            AB: queues(
                (Log(DAG, 0, 1, 1), Log("m", q_hat, 3, 2), Log(DDAG, 99, 1, 3)),
                (),
            )
        },
        {},
    )
    assert enabled_reversals(closed, looped_system) == []


# -- a stale candidate, and the families a search hands over --------------------


def test_step_reverse_refuses_a_candidate_whose_anchor_moved(looped_system):
    # A sends m in the first loop round and again in the second, in the
    # same state: the first round's candidate names an anchor that is no
    # longer the family's latest.
    round_ = [("out", "A", 1, None, DAG), ("inp", "B", 1, None, DAG), ("out", "A", 3, None, None)]
    first = drive(looped_system, round_)
    (stale,) = enabled_reversals(first, looped_system)
    second = drive(
        looped_system,
        [("inp", "B", 3, None, None), ("out", "B", 4, None, None), ("inp", "A", 4, None, None), *round_],
        first,
    )
    (fresh,) = enabled_reversals(second, looped_system)
    assert fresh.anchor != stale.anchor
    assert (fresh.participant, fresh.choice_state, fresh.first_output, fresh.guard) == (
        stale.participant, stale.choice_state, stale.first_output, stale.guard
    )
    with pytest.raises(NotEnabled, match="is not enabled"):
        step_reverse(second, looped_system, stale)
    step_reverse(second, looped_system, fresh)


def test_step_reverse_refuses_a_candidate_whose_guard_no_longer_holds(retry_system):
    # Counting pending messages only, the guard of m holds while m waits on
    # A->B and fails once B has consumed it; nothing else changes for A.
    sent = drive(retry_system, [("out", "A", 2, None, None)])
    (candidate,) = enabled_reversals(sent, retry_system, scope=PENDING)
    consumed = drive(retry_system, [("inp", "B", 2, None, None)], sent)
    with pytest.raises(NotEnabled, match="is not enabled"):
        step_reverse(consumed, retry_system, candidate, scope=PENDING)
    step_reverse(consumed, retry_system, candidate)


def test_step_reverse_refuses_a_candidate_whose_book_entry_is_exhausted(retry_system):
    cfg = drive(retry_system, [("out", "A", 2, None, None)])
    (candidate,) = enabled_reversals(cfg, retry_system)
    tired = Configuration.make(
        sigma_dict(cfg), chi_dict(cfg), {("A", candidate.choice_state): BookEntry(frozenset(), True)}
    )
    with pytest.raises(NotEnabled, match="is not enabled"):
        step_reverse(tired, retry_system, candidate)


def test_families_handed_over_give_the_same_reversals(travel_system):
    analyzer = CausalityAnalyzer(travel_system)
    searched = reachable(travel_system, Bound(200, 1), with_reversals=True, analyzer=analyzer)
    listed = 0
    for cfg in searched.configs:
        families = tuple(reversible_families(cfg, travel_system))
        own = enabled_reversals(cfg, travel_system, analyzer)
        assert enabled_reversals(cfg, travel_system, analyzer, families=families) == own
        listed += len(own)
    assert listed > 0
