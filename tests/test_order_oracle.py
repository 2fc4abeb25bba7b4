"""The down-set order against the closure-based oracle in ``order_oracle``.

The random terms of this module also check that ``pretty`` prints every
term so that it parses back to the same tree.
"""

import pytest
from hypothesis import given, settings, strategies as st

import order_oracle
from chorrev.model import Choice, Interaction, Par, pretty, subterms
from chorrev.order import CommEvent, UndefinedSemantics, semantics, seq_compose
from chorrev.parse import parse_choreography

from conftest import DATA, build

PARTICIPANTS = "ABCD"

interactions = st.tuples(
    st.just("inter"),
    st.sampled_from(PARTICIPANTS),
    st.sampled_from(PARTICIPANTS),
    st.sampled_from("mn"),
).filter(lambda t: t[1] != t[2])
pairs = st.tuples(st.sampled_from(PARTICIPANTS), st.sampled_from(PARTICIPANTS)).filter(
    lambda p: p[0] != p[1]
)


def _compound(inner):
    return st.one_of(
        st.tuples(st.just("seq"), st.lists(inner, min_size=2, max_size=4)),
        st.tuples(st.just("par"), st.lists(inner, min_size=2, max_size=3)),
        st.tuples(st.just("loop"), st.sampled_from(PARTICIPANTS), inner),
        st.tuples(st.just("choice"), st.lists(inner, min_size=2, max_size=3)),
    )


shapes = st.recursive(interactions, _compound, max_leaves=10)


def outcome(sem, g):
    try:
        return sem(g), None
    except UndefinedSemantics as exc:
        return None, str(exc)


def assert_same_order(g):
    order, error = outcome(semantics, g)
    expected, expected_error = outcome(order_oracle.semantics, g)
    assert error == expected_error
    if expected is None:
        return
    assert order.events == expected.events
    assert order.le == expected.le
    assert order.minimal() == expected.minimal()
    assert order.minimal(order.comm_events) == expected.minimal(expected.comm_events)
    for p in PARTICIPANTS:
        mine = frozenset(e for e in order.events if e.subject == p)
        assert order.minimal(mine) == expected.minimal(mine)
    assert {
        (a, b) for a in order.events for b in order.events if order.leq(a, b)
    } == expected.le


@settings(max_examples=300, deadline=None)
@given(shapes)
def test_generated_terms_match_the_closure_oracle(shape):
    assert_same_order(build(shape))


@settings(max_examples=300, deadline=None)
@given(shapes)
def test_generated_terms_print_and_parse_back(shape):
    g = build(shape)
    assert parse_choreography(pretty(g)) == g


def _opens_a_branch(e):
    """Whether ``e`` may be minimal in a branch: a send, a loop start or a
    choice gate, never a receive (it lies above its send) or a loop end
    (it lies above its start)."""
    if isinstance(e, CommEvent):
        return e.polarity == "!"
    return e.kind in ("loop_start", "choice")


@settings(max_examples=300, deadline=None)
@given(shapes)
def test_branches_open_with_sends_loop_starts_or_choices(shape):
    # Why ``well_branched`` needs no issue for any other opening event.
    for node in subterms(build(shape)):
        if not isinstance(node, Choice):
            continue
        try:
            semantics(node)
        except UndefinedSemantics:
            continue
        for br in node.branches:
            opening = semantics(br.body).minimal()
            assert all(_opens_a_branch(e) for e in opening), opening


@pytest.mark.parametrize("path", sorted(DATA.glob("*.rchor")), ids=lambda p: p.name)
def test_recorded_protocols_match_the_closure_oracle(path):
    assert_same_order(parse_choreography(path.read_text()))


def test_undefined_terms_give_the_oracle_message():
    g = parse_choreography("A -> B : m ; choice { { C -> D : x } unless tt + { D -> C : y } unless tt }")
    assert_same_order(g)
    with pytest.raises(UndefinedSemantics, match="no unique deciding participant"):
        semantics(g)


def test_a_chain_reports_its_first_undefined_step():
    # The choice has no unique decider either, but the chain is undefined
    # one step earlier, and that is the error reported.
    g = parse_choreography(
        "A -> B : x ; C -> D : y ; choice { { A -> B : p } unless tt + { B -> A : q } unless tt }"
    )
    assert_same_order(g)
    with pytest.raises(UndefinedSemantics) as exc:
        semantics(g)
    assert str(exc.value) == (
        "sequential composition undefined: C->D!y/2"
        " would happen with no prior involvement of its participant"
    )


def test_overlapping_event_sets_are_refused():
    one = semantics(Interaction("A", "B", "m", 1))
    with pytest.raises(ValueError, match="cannot compose overlapping event sets"):
        seq_compose([one, one])
    repeated = Interaction("A", "B", "m", 1)
    with pytest.raises(ValueError, match="cannot compose overlapping event sets"):
        semantics(Par((repeated, repeated), 2))
