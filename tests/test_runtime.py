from collections import Counter

import pytest

from chorrev import runtime
from chorrev.explore import Bound, reachable
from chorrev.machine import Branch, Unit
from chorrev.model import And, Channel, CountAtom, GFalse, GTrue, MemberAtom, Not, Or
from chorrev.order import CommEvent
from chorrev.runtime import (
    EMPTY_CHANNEL,
    EMPTY_ENTRY,
    FULL,
    PENDING,
    BookEntry,
    Configuration,
    Log,
    NotEnabled,
    enabled_forward,
    eval_guard,
    find_transition,
    forget_config,
    initial_configuration,
    message_count,
    next_timestamp,
    output_blocked_by_guard,
    step_input,
    step_output,
)

import explore_oracle
from conftest import DAG, DDAG, REPLAN_PREFIX, book_dict, chi_dict, drive, queues, sigma_dict
from runtime_oracle import upd_inp, upd_out

TB = Channel("T", "B")
TD = Channel("T", "D")
BT = Channel("B", "T")


def test_initial_configuration(travel_system):
    cfg = initial_configuration(travel_system)
    assert sigma_dict(cfg) == {"B": 0, "D": 0, "T": 0}
    assert cfg.chi == ()
    assert cfg.book == ()


def test_timestamps_count_per_sender(travel_system):
    cfg = drive(travel_system, REPLAN_PREFIX)
    td = cfg.channel_state(TD)
    tb = cfg.channel_state(TB)
    # T's sends are numbered across both of its channels
    t_stamps = sorted(l.timestamp for l in td.logs + tb.logs)
    assert t_stamps == [1, 2, 3, 4, 5, 6]
    # B's counter is independent of T's
    assert [l.timestamp for l in cfg.channel_state(BT).logs] == [1]
    assert next_timestamp(cfg, "T") == 7
    assert next_timestamp(cfg, "B") == 2
    assert next_timestamp(cfg, "D") == 1


def test_output_logs_pre_step_state(travel_system):
    cfg = initial_configuration(travel_system)
    t = find_transition(cfg, travel_system, "T", "!", 1, TD, DAG)
    after = step_output(cfg, travel_system, "T", t)
    (log,) = after.channel_state(TD).pending
    assert log == Log(DAG, 0, 1, 1)
    assert after.state_of("T") == t.dst != 0


def test_input_moves_head_to_consumed(travel_system):
    cfg = drive(travel_system, REPLAN_PREFIX[:2])
    t = find_transition(cfg, travel_system, "B", "?", 1)
    after = step_input(cfg, travel_system, "B", t)
    tb = after.channel_state(TB)
    assert [l.message for l in tb.consumed] == [DAG]
    assert tb.pending == ()
    assert after.state_of("B") == 1


def test_inputs_are_fifo(travel_system):
    # T requests flight then car; B must take them in order
    cfg = drive(
        travel_system,
        REPLAN_PREFIX[:3]
        + [("out", "T", 4, None, None), ("out", "T", 6, None, None)],
    )
    car_first = find_transition(cfg, travel_system, "B", "?", 6)
    with pytest.raises(NotEnabled, match="does not match"):
        step_input(cfg, travel_system, "B", car_first)
    flight_first = find_transition(cfg, travel_system, "B", "?", 4)
    step_input(cfg, travel_system, "B", flight_first)


def test_input_needs_something_pending(travel_system):
    cfg = drive(travel_system, REPLAN_PREFIX[:1])  # only T->D carries a marker
    t = travel_system.machines["B"].out_of(0)[0]
    with pytest.raises(NotEnabled, match="nothing pending"):
        step_input(cfg, travel_system, "B", t)


def test_the_search_spells_out_no_refusal(travel_system, monkeypatch):
    # The searches ask about every transition out of every state they
    # visit; a refusal stays a fixed template there, and only a raising
    # step fills it in.  Filled in, the search meets dozens of texts.
    refusals = Counter()
    for name in ("_check_output", "_check_input"):
        check = getattr(runtime, name)

        def counting(*args, check=check):
            refusal = check(*args)
            refusals[refusal] += 1
            return refusal

        monkeypatch.setattr(runtime, name, counting)

    def spelled_out(*args):
        raise AssertionError("a refusal was formatted inside the search")

    monkeypatch.setattr(runtime, "_refused", spelled_out)
    reachable(travel_system, Bound(200, 1), with_reversals=True)
    assert set(refusals) == {
        None,
        "this branch family was already tried here",
        "nothing pending on {t.event.channel}",
        "the head of {t.event.channel} is {head}, which does not match"
        " {t.event.message}/{t.event.cp}",
    }


def test_step_checks_source_state(travel_system):
    cfg = initial_configuration(travel_system)
    wrong = travel_system.machines["T"].out_of(3)[0]
    with pytest.raises(NotEnabled, match="not in state"):
        step_output(cfg, travel_system, "T", wrong)


def test_step_checks_polarity(travel_system):
    cfg = drive(travel_system, REPLAN_PREFIX[:2])
    inp = travel_system.machines["B"].out_of(0)[0]
    with pytest.raises(NotEnabled, match="not an output"):
        step_output(cfg, travel_system, "B", inp)
    out = travel_system.machines["T"].out_of(3)[0]
    with pytest.raises(NotEnabled, match="not an input"):
        step_input(cfg, travel_system, "T", out)


def test_enabled_forward_initialy_only_the_controller_moves(travel_system):
    cfg = initial_configuration(travel_system)
    moves = enabled_forward(cfg, travel_system)
    assert [(a, str(t.event)) for a, t in moves] == [
        ("T", f"T->B!{DAG}/1"),
        ("T", f"T->D!{DAG}/1"),
    ]
    assert moves == enabled_forward(cfg, travel_system)


def test_enabled_forward_mixes_participants(travel_system):
    cfg = drive(travel_system, REPLAN_PREFIX[:2])
    moves = {(a, str(t.event)) for a, t in enabled_forward(cfg, travel_system)}
    assert moves == {
        ("B", f"T->B?{DAG}/1"),
        ("D", f"T->D?{DAG}/1"),
        ("T", "T->B!flight/4"),
        ("T", "T->B!car/6"),
        ("T", "T->B!dest/8"),
    }


# -- guards -----------------------------------------------------------------


def cfg_with(consumed=(), pending=()):
    return Configuration.make({}, {TD: queues(consumed, pending)}, {})


UPD = Log("upd", 10, 10, 3)


def test_message_count_scopes():
    cfg = cfg_with(consumed=[UPD], pending=[UPD])
    assert message_count(cfg, "upd", TD, FULL) == 2
    assert message_count(cfg, "upd", TD, PENDING) == 1
    assert message_count(cfg, "upd", TB) == 0


def test_guard_scope_on_configurations(travel_system):
    cfg = drive(travel_system, REPLAN_PREFIX)
    cfg = drive(
        travel_system,
        [("inp", "D", 1, None, DAG), ("inp", "D", 10, None, None)],
        cfg,
    )
    booked = CountAtom("upd", TD, ">=", 1)
    assert eval_guard(booked, cfg, FULL)
    assert not eval_guard(booked, cfg, PENDING)


@pytest.mark.parametrize(
    "op,bound,expected",
    [("<", 2, True), ("<=", 1, True), ("==", 1, True), (">=", 2, False), (">", 0, True)],
)
def test_guard_operators(op, bound, expected):
    cfg = cfg_with(consumed=[UPD])
    assert eval_guard(CountAtom("upd", TD, op, bound), cfg) is expected


def test_guard_connectives():
    cfg = cfg_with(pending=[UPD])
    has_upd = MemberAtom("upd", TD)
    assert eval_guard(has_upd, cfg)
    assert not eval_guard(MemberAtom("ack", TD), cfg)
    assert not eval_guard(GFalse(), cfg)
    assert eval_guard(Not(GFalse()), cfg)
    assert eval_guard(Or(GFalse(), has_upd), cfg)
    assert not eval_guard(And(has_upd, Not(has_upd)), cfg)


# -- the decision book ------------------------------------------------------

FLIGHT = CommEvent(TB, "!", 4, "flight")
TRIED = BookEntry(tried=frozenset({(FLIGHT, GTrue())}))


def test_upd_out_blocks_tried_family():
    deco = Branch(3, FLIGHT, GTrue(), committed=False)
    assert upd_out({("T", 3): TRIED}, "T", deco) is None


def test_upd_out_allows_tried_family_once_exhausted():
    deco = Branch(3, FLIGHT, GTrue(), committed=False)
    book = {("T", 3): BookEntry(TRIED.tried, exhausted=True)}
    assert upd_out(book, "T", deco) == book


def test_upd_out_fresh_family_passes_through():
    deco = Branch(3, CommEvent(TB, "!", 6, "car"), GTrue(), committed=False)
    book = {("T", 3): TRIED}
    assert upd_out(book, "T", deco) == book


def test_commit_clears_the_entry():
    deco = Branch(3, FLIGHT, GTrue(), committed=True)
    assert upd_out({("T", 3): BookEntry(TRIED.tried, True)}, "T", deco) == {}
    assert upd_inp({("T", 3): TRIED}, "T", deco) == {}


def test_upd_inp_keeps_ongoing_entries():
    deco = Branch(3, FLIGHT, GTrue(), committed=False)
    assert upd_inp({("T", 3): TRIED}, "T", deco) == {("T", 3): TRIED}


def test_unit_decoration_never_blocks(travel_system):
    cfg = initial_configuration(travel_system)
    assert upd_out({}, "T", Unit()) == {}
    assert not output_blocked_by_guard(cfg, "T", Unit())


def test_output_blocked_by_guard(travel_system):
    cfg = initial_configuration(travel_system)
    live = Branch(3, FLIGHT, GTrue(), committed=False)
    assert output_blocked_by_guard(cfg, "T", live)
    assert not output_blocked_by_guard(cfg, "T", Branch(3, FLIGHT, GFalse(), committed=False))
    # exhaustion lifts the block
    tired = Configuration_with_book(cfg, {("T", 3): BookEntry(frozenset(), True)})
    assert not output_blocked_by_guard(tired, "T", live)


def Configuration_with_book(cfg, book):
    from chorrev.runtime import Configuration

    return Configuration.make(sigma_dict(cfg), chi_dict(cfg), book)


def test_block_on_guard_mode(travel_system):
    cfg = drive(travel_system, REPLAN_PREFIX[:3])
    flight = find_transition(cfg, travel_system, "T", "!", 4)
    # the price-query guard holds before any booking, so strict mode waits
    with pytest.raises(NotEnabled, match="blocked"):
        step_output(cfg, travel_system, "T", flight, block_on_guard=True)
    step_output(cfg, travel_system, "T", flight)
    dest = find_transition(cfg, travel_system, "T", "!", 8)
    step_output(cfg, travel_system, "T", dest, block_on_guard=True)


@pytest.fixture(scope="module")
def travel_reversal_search(travel_system):
    # Every configuration of the search, not only those of live classes.
    return explore_oracle.reachable_with_reversals(travel_system, Bound(200, 1))


def test_a_configuration_is_its_tuples_and_hash(travel_reversal_search):
    # No lookup leaves a cached view behind on a searched configuration.
    assert len(travel_reversal_search.configs) == 907
    for cfg in travel_reversal_search.configs:
        assert sorted(vars(cfg)) == ["_hash", "book", "chi", "sigma"]


def test_lookups_agree_with_the_dicts(travel_system, travel_reversal_search):
    for cfg in travel_reversal_search.configs:
        sigma, chi, book = sigma_dict(cfg), chi_dict(cfg), book_dict(cfg)
        assert all(cfg.state_of(a) == q for a, q in sigma.items())
        assert all(cfg.channel_state(Channel(*ch)) is cs for ch, cs in chi.items())
        assert all(cfg.book_entry(a, q) is e for (a, q), e in book.items())
    cfg = initial_configuration(travel_system)
    with pytest.raises(KeyError):
        cfg.state_of("nobody")
    assert cfg.channel_state(TB) is EMPTY_CHANNEL
    assert cfg.book_entry("T", 3) is EMPTY_ENTRY


def test_only_a_commit_changes_the_book(travel_system, travel_reversal_search):
    # A move that commits out of a branch drops exactly its decision
    # state's entry; every other move shares the parent's book.
    dropped = 0
    for cfg in travel_reversal_search.configs:
        for a, t in enabled_forward(cfg, travel_system):
            step = step_output if t.event.polarity == "!" else step_input
            succ = step(cfg, travel_system, a, t)
            d = t.decoration
            if isinstance(d, Branch) and d.committed:
                key = (a, d.choice_state)
                book = book_dict(cfg)
                dropped += book.pop(key, None) is not None
                assert book_dict(succ) == book
                # Another decision state of the same participant keeps its entry.
                other = Configuration_with_book(cfg, {**book, (a, -1): TRIED})
                assert step(other, travel_system, a, t).book_entry(a, -1) is TRIED
            else:
                assert succ.book is cfg.book
    assert dropped > 0


# -- directive resolution ---------------------------------------------------


def test_find_transition_disambiguation(travel_system):
    cfg = drive(travel_system, REPLAN_PREFIX[:8])  # T sits at the loop gate
    with pytest.raises(NotEnabled, match="ambiguous"):
        find_transition(cfg, travel_system, "T", "!", 1)
    with pytest.raises(NotEnabled, match="ambiguous"):
        find_transition(cfg, travel_system, "T", "!", 1, TD)
    t = find_transition(cfg, travel_system, "T", "!", 1, TD, DAG)
    assert str(t.event) == f"T->D!{DAG}/1"
    s = find_transition(cfg, travel_system, "T", "!", 1, TB, DDAG)
    assert str(s.event) == f"T->B!{DDAG}/1"
    with pytest.raises(NotEnabled, match="no output"):
        find_transition(cfg, travel_system, "T", "!", 99)


def test_forget_config(travel_system):
    cfg = initial_configuration(travel_system)
    assert forget_config(cfg) == ((("B", 0), ("D", 0), ("T", 0)), ())
    one = drive(travel_system, REPLAN_PREFIX[:1])
    sigma, words = forget_config(one)
    assert dict(sigma)["T"] == 2
    assert words == ((TD, ((DAG, 1),)),)
    # consumed logs and the book leave no trace in the image
    full = drive(travel_system, REPLAN_PREFIX[:3])
    _, words = forget_config(full)
    assert all(ch != TB for ch, _ in words)
