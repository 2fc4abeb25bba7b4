import pytest

from chorrev.causality import CausalityAnalyzer
from chorrev.model import LOOP_END, LOOP_START, Channel, Chor, Interaction, Loop, control_points
from chorrev.order import (
    CommEvent,
    GateEvent,
    UndefinedSemantics,
    semantics,
    well_branched,
)
from chorrev.parse import parse_choreography


def ev(sender, receiver, pol, cp, msg):
    return CommEvent(Channel(sender, receiver), pol, cp, msg)


def lt(order, e1, e2):
    """Strict precedence in ``order``."""
    return e1 != e2 and order.leq(e1, e2)


def test_single_interaction():
    order = semantics(parse_choreography("A -> B : m"))
    snd = ev("A", "B", "!", 1, "m")
    rcv = ev("A", "B", "?", 1, "m")
    assert order.events == {snd, rcv}
    assert order.leq(snd, rcv)
    assert not order.leq(rcv, snd)
    assert order.minimal() == {snd}


# The definedness table for sequencing two interactions: the right side
# must open with a participant the left side already involved.
SEQ_SHAPES = [
    ("A -> B : m ; A -> C : n", True),
    ("A -> B : m ; B -> C : n", True),
    ("A -> B : m ; B -> A : n", True),
    ("A -> B : m ; A -> B : n", True),
    ("A -> B : m ; C -> D : n", False),
]


@pytest.mark.parametrize("src,defined", SEQ_SHAPES)
def test_seq_definedness_table(src, defined):
    if defined:
        semantics(parse_choreography(src))
    else:
        with pytest.raises(UndefinedSemantics):
            semantics(parse_choreography(src))


def test_seq_cross_edges_same_subject_only():
    order = semantics(parse_choreography("A -> B : m ; B -> C : n"))
    assert lt(order, ev("A", "B", "!", 1, "m"), ev("B", "C", "!", 2, "n"))
    assert lt(order, ev("A", "B", "?", 1, "m"), ev("B", "C", "!", 2, "n"))
    # A's send precedes B's send only through B's receive (transitively)
    assert lt(order, ev("A", "B", "!", 1, "m"), ev("B", "C", "?", 2, "n"))


def test_par_keeps_branches_unordered():
    order = semantics(parse_choreography("par { A -> B : m | C -> D : n }"))
    a = ev("A", "B", "!", 2, "m")
    c = ev("C", "D", "!", 3, "n")
    assert not lt(order, a, c) and not lt(order, c, a)
    assert order.minimal() == {a, c}


def test_travel_event_census(travel_chor):
    order = semantics(travel_chor)
    comm = order.comm_events
    assert len(comm) == 14
    assert len(order.events) == 17
    gates = {e for e in order.events if isinstance(e, GateEvent)}
    assert gates == {
        GateEvent(1, "loop_start", "T"),
        GateEvent(1, "loop_end", "T"),
        GateEvent(2, "choice", "T"),
    }


def test_travel_order_facts(travel_chor):
    order = semantics(travel_chor)
    start = GateEvent(1, "loop_start", "T")
    end = GateEvent(1, "loop_end", "T")
    gate = GateEvent(2, "choice", "T")
    flight = ev("T", "B", "!", 4, "flight")
    flight_price_in = ev("B", "T", "?", 5, "flightPrice")
    car = ev("T", "B", "!", 6, "car")
    car_price_in = ev("B", "T", "?", 7, "carPrice")
    dest = ev("T", "B", "!", 8, "dest")
    full_price_in = ev("B", "T", "?", 9, "fullPrice")
    upd = ev("T", "D", "!", 10, "upd")
    upd_in = ev("T", "D", "?", 10, "upd")

    assert order.minimal() == {start}
    assert lt(order, start, gate)
    assert lt(order, gate, flight)
    assert lt(order, gate, dest)
    assert lt(order, flight, flight_price_in)
    assert lt(order, dest, full_price_in)
    # the two par threads are unordered
    assert not lt(order, flight, car) and not lt(order, car, flight)
    assert not lt(order, flight_price_in, car_price_in)
    assert not lt(order, car_price_in, flight_price_in)
    # everything in the choice precedes the update that follows it
    assert lt(order, full_price_in, upd)
    assert lt(order, flight_price_in, upd)
    assert lt(order, upd, upd_in)
    # the loop's end gate closes over every event, including D's receive
    assert all(order.leq(e, end) for e in order.events)
    assert all(order.leq(start, e) for e in order.events)


def test_active_participant_travel(travel_chor):
    from chorrev.model import Choice, subterms

    choice = next(n for n in subterms(travel_chor) if isinstance(n, Choice))
    assert GateEvent(choice.cp, "choice", "T") in semantics(travel_chor).events


def node_at(g: Chor, cp: int) -> Chor:
    """The subterm carrying control point ``cp`` (KeyError if absent)."""
    for c, node in control_points(g):
        if c == cp:
            return node
    raise KeyError(cp)


def event_for_log(g: Chor, cp: int, message: str):
    """The static event a runtime log entry refers to, found by a tree walk.

    Message logs point at the send event of their interaction; loop marker
    logs point at the loop's start or end gate.
    """
    node = node_at(g, cp)
    if isinstance(node, Interaction):
        return CommEvent(node.channel, "!", cp, node.message)
    if isinstance(node, Loop):
        if message == LOOP_START:
            return GateEvent(cp, "loop_start", node.controller)
        if message == LOOP_END:
            return GateEvent(cp, "loop_end", node.controller)
    raise KeyError(f"control point {cp} with message {message!r} names no event")


def test_event_for_log(travel_chor):
    assert event_for_log(travel_chor, 8, "dest") == ev("T", "B", "!", 8, "dest")
    assert event_for_log(travel_chor, 1, LOOP_START) == GateEvent(1, "loop_start", "T")
    assert event_for_log(travel_chor, 1, LOOP_END) == GateEvent(1, "loop_end", "T")
    with pytest.raises(KeyError):
        event_for_log(travel_chor, 3, "whatever")


def test_the_analyzer_index_agrees_with_the_walk(travel_system):
    index = CausalityAnalyzer(travel_system)._events
    assert len(index) == 9  # seven messages and the two loop markers
    for (cp, message), event in index.items():
        assert event_for_log(travel_system.chor, cp, message) == event


def test_choice_with_no_unique_decider():
    with pytest.raises(UndefinedSemantics):
        semantics(
            parse_choreography(
                "choice { { A -> B : m } unless tt + { C -> B : y } unless tt }"
            )
        )


# -- well-branchedness ------------------------------------------------------


def branched(g):
    return well_branched(g, semantics(g))


def kinds(src):
    return sorted(i.kind for i in branched(parse_choreography(src)).issues)


def test_travel_is_well_branched(travel_chor):
    assert branched(travel_chor).ok


def test_wb_no_unique_active():
    # The event order is undefined, so there is no order to check.
    with pytest.raises(UndefinedSemantics, match="no unique deciding participant"):
        kinds("choice { { A -> B : m } unless tt + { C -> B : y } unless tt }")


def test_wb_undefined_branch():
    with pytest.raises(UndefinedSemantics, match="sequential composition undefined"):
        kinds(
            "choice { { A -> B : m ; C -> D : n } unless tt + { A -> B : y } unless tt }"
        )


def test_wb_declared_active_mismatch():
    assert kinds(
        "choice @ B { { A -> B : m } unless tt + { A -> B : y } unless tt }"
    ) == ["declared-active-mismatch"]


def test_wb_branch_opens_with_choice():
    src = """
    choice {
      { choice { { A -> B : m } unless tt + { A -> C : n } unless tt } } unless tt
      + { A -> D : z } unless tt
    }
    """
    assert "branch-opens-with-choice" in kinds(src)


def test_wb_partial_occurrence():
    assert kinds(
        "choice { { A -> B : m ; A -> C : x } unless tt + { A -> B : y } unless tt }"
    ) == ["participant-partial-occurrence"]


def test_wb_nonactive_initiates():
    src = """
    choice {
      { loop @ A { B -> A : r ; A -> B : m } } unless tt
      + { A -> B : z } unless tt
    }
    """
    assert "nonactive-initiates" in kinds(src)


def test_wb_ambiguous_branch_entry():
    src = """
    choice {
      { A -> B : m ; B -> A : x } unless tt
      + { A -> B : m ; B -> A : y } unless tt
    }
    """
    assert "ambiguous-branch-entry" in kinds(src)


def test_wb_guard_not_local():
    src = """
    choice {
      { A -> B : m } unless count(z, C->D) >= 1
      + { A -> B : y } unless tt
    }
    """
    assert kinds(src) == ["guard-not-local"]


def test_wb_branch_opening_loop_by_active_is_fine():
    src = """
    choice {
      { loop @ A { A -> B : m } } unless tt
      + { A -> B : z } unless tt
    }
    """
    assert branched(parse_choreography(src)).ok
