import random

import pytest
from hypothesis import HealthCheck, assume, given, settings

from chorrev.machine import (
    UNIT,
    Branch,
    DeterminizationConflict,
    ProjectionError,
    RCfsm,
    Transition,
    Unit,
    finalize,
    forget_machine,
    to_dot,
)
from chorrev.model import Channel, GTrue, Not
from chorrev.order import CommEvent, UndefinedSemantics
from chorrev.parse import parse_choreography
from chorrev.projection import project_system

from conftest import DATA, random_decoration_inputs, random_pmachine
from projection_oracle import (
    StateAlloc,
    decorate,
    empty_machine,
    finalize as oracle_finalize,
    finalize_pmachine,
    forget_pmachine,
    join_machines,
    product_machines,
    seq_machines,
    single_event,
    substitute,
)
from test_order_oracle import build, shapes


def validate_machine(m: RCfsm) -> list[str]:
    """Structural sanity checks; returns a list of problems (empty if fine).

    The determinism check is what ``RCfsm.step``'s (state, event) index
    relies on: at most one transition per state and event.
    """
    problems = []
    states = set(m.states)
    if m.initial not in states:
        problems.append("initial state is unknown")
    for t in m.transitions:
        if t.src not in states or t.dst not in states:
            problems.append(f"transition {t} leaves the state set")
        if t.event.subject != m.owner:
            problems.append(f"transition {t} does not belong to {m.owner}")
        if not isinstance(t.decoration, Unit):
            if t.decoration.choice_state not in states:
                problems.append(f"decoration of {t} references an unknown state")
    seen = {}
    for t in m.transitions:
        marker = (t.src, t.event)
        if marker in seen:
            problems.append(f"nondeterministic on {t.event} from {t.src}")
        seen[marker] = t
    for f in m.finals:
        if f not in states:
            problems.append("final state is unknown")
    return problems


def out_ev(cp, msg, frm="A", to="B"):
    return CommEvent(Channel(frm, to), "!", cp, msg)


def in_ev(cp, msg, frm="B", to="A"):
    return CommEvent(Channel(frm, to), "?", cp, msg)


def test_single_event_shape():
    alloc = StateAlloc()
    m = single_event("A", out_ev(1, "m"), alloc)
    assert m.owner == "A"
    assert len(m.states) == 2
    assert m.initial != m.interface
    (t,) = m.transitions
    assert t.src == m.initial and t.dst == m.interface
    assert isinstance(t.decoration, Unit)


def test_seq_glues_at_interface():
    alloc = StateAlloc()
    m1 = single_event("A", out_ev(1, "m"), alloc)
    m2 = single_event("A", out_ev(2, "n"), alloc)
    m = seq_machines(m1, m2)
    assert m.initial == m1.initial
    assert m.interface == m2.interface
    assert len(m.states) == 3
    assert len(m.transitions) == 2
    # the glued state is reachable as m2's initial
    mid = next(t.dst for t in m.transitions if t.src == m.initial)
    assert mid == m2.initial


def test_seq_of_many_glues_like_nested_pairs():
    # empty parts share their initial and interface state, in a row too
    alloc = StateAlloc()
    parts = [
        single_event("A", out_ev(1, "m"), alloc),
        empty_machine("A", alloc),
        empty_machine("A", alloc),
        single_event("A", in_ev(2, "n"), alloc),
        empty_machine("A", alloc),
    ]
    nested = parts[0]
    for m in parts[1:]:
        nested = seq_machines(nested, m)
    assert seq_machines(*parts) == nested
    assert len(nested.states) == 3


def test_seq_rejects_mixed_owners():
    alloc = StateAlloc()
    with pytest.raises(ProjectionError):
        seq_machines(
            single_event("A", out_ev(1, "m"), alloc),
            single_event("B", out_ev(2, "n", "B", "C"), alloc),
        )


def test_join_shares_endpoints():
    alloc = StateAlloc()
    m1 = single_event("A", out_ev(1, "m"), alloc)
    m2 = single_event("A", out_ev(2, "n"), alloc)
    m = join_machines([m1, m2])
    assert m.initial == m1.initial
    assert m.interface == m1.interface
    assert len(m.out_of(m.initial)) == 2
    assert all(t.dst == m.interface for t in m.transitions)


def test_product_interleaves():
    alloc = StateAlloc()
    m1 = single_event("A", out_ev(1, "m"), alloc)
    m2 = single_event("A", in_ev(2, "n"), alloc)
    m = product_machines(m1, m2, alloc)
    assert len(m.states) == 4
    assert len(m.transitions) == 4
    assert len(m.out_of(m.initial)) == 2
    # both orders end in the joint interface
    finals = {t.dst for t in m.transitions if not m.out_of(t.dst)}
    assert finals == {m.interface}


def test_product_refuses_decorated_operands():
    alloc = StateAlloc()
    ev = out_ev(1, "m")
    m1 = decorate(single_event("A", ev, alloc), GTrue(), {ev: ev})
    m2 = single_event("A", out_ev(2, "n"), alloc)
    with pytest.raises(ProjectionError):
        product_machines(m1, m2, alloc)


def test_decorate_marks_commit_at_interface():
    alloc = StateAlloc()
    first = out_ev(1, "m")
    m = seq_machines(
        single_event("A", first, alloc),
        single_event("A", in_ev(2, "r"), alloc),
    )
    d = decorate(m, GTrue(), {t.event: first for t in m.transitions})
    by_event = {t.event: t.decoration for t in d.transitions}
    assert not by_event[first].committed
    assert by_event[in_ev(2, "r")].committed
    for deco in by_event.values():
        assert isinstance(deco, Branch)
        assert deco.choice_state == m.initial
        assert deco.first_output == first
        assert deco.guard == GTrue()


def test_decorate_twice_is_an_error():
    alloc = StateAlloc()
    ev = out_ev(1, "m")
    d = decorate(single_event("A", ev, alloc), GTrue(), {ev: ev})
    with pytest.raises(ProjectionError):
        decorate(d, GTrue(), {ev: ev})


def test_decorate_requires_total_families():
    alloc = StateAlloc()
    ev = out_ev(1, "m")
    m = single_event("A", ev, alloc)
    with pytest.raises(ProjectionError):
        decorate(m, GTrue(), {})
    with pytest.raises(ProjectionError):
        decorate(m, GTrue(), {ev: None})


def test_forget_inverts_decorate_randomized():
    rng = random.Random(20240811)
    for _ in range(200):
        m = random_pmachine(rng)
        guard, families = random_decoration_inputs(rng, m)
        assert forget_pmachine(decorate(m, guard, families)) == m


def test_substitute_renames_inside_decorations():
    alloc = StateAlloc()
    ev = out_ev(1, "m")
    d = decorate(single_event("A", ev, alloc), GTrue(), {ev: ev})
    renamed = substitute(d, {d.initial: 77})
    assert renamed.initial == 77
    (t,) = renamed.transitions
    assert t.src == 77
    assert t.decoration.choice_state == 77


def test_finalize_merges_duplicate_alternatives():
    alloc = StateAlloc()
    ev = out_ev(1, "m")
    m = join_machines([single_event("A", ev, alloc), single_event("A", ev, alloc)])
    f = finalize_pmachine(m)
    assert f.states == (0, 1)
    assert len(f.transitions) == 1
    assert f.finals == frozenset({1})
    assert f.alias(0) == "q0A" and f.alias(1) == "q1A"


def test_finalize_determinizes_shared_prefix():
    alloc = StateAlloc()
    ev = out_ev(1, "m")
    m = join_machines(
        [
            seq_machines(single_event("A", ev, alloc), single_event("A", out_ev(2, "x"), alloc)),
            seq_machines(single_event("A", ev, alloc), single_event("A", out_ev(3, "y"), alloc)),
        ]
    )
    f = finalize_pmachine(m)
    assert len([t for t in f.transitions if t.src == 0]) == 1
    mid = f.transitions[0].dst
    assert {t.event for t in f.out_of(mid)} == {out_ev(2, "x"), out_ev(3, "y")}
    assert validate_machine(f) == []


def test_finalize_is_canonical():
    # Where a random pre-machine is already deterministic, the package's
    # finalize must also agree with the oracle's determinizing one.
    rng = random.Random(7)
    deterministic = 0
    for _ in range(50):
        m = random_pmachine(rng)
        shift = {s: s + 1000 for s in m.states}
        expected = finalize_pmachine(m)
        assert finalize_pmachine(substitute(m, shift)) == expected
        if len({(t.src, t.event) for t in m.transitions}) == len(m.transitions):
            deterministic += 1
            assert finalize(m.owner, m.initial, m.interface, m.transitions) == expected
    assert deterministic >= 40


def test_finalize_tells_states_apart_by_their_decorations():
    # Two copies of a random machine behind two first outputs: a state of
    # one copy merges with its twin in the other exactly when the labels
    # ahead of them agree, decorations included, as in the oracle's
    # finalize.  Every decoration names the fresh initial state.
    rng = random.Random(11)
    kept_apart = merged = 0
    for _ in range(200):
        m = random_pmachine(rng)
        if len({(t.src, t.event) for t in m.transitions}) != len(m.transitions):
            continue
        shift = max(m.states) + 1
        initial = 2 * shift

        def twin(q):
            return q if q == m.interface else q + shift

        def label(t):
            if rng.random() < 0.6:
                return UNIT
            return Branch(initial, t.event, rng.choice([GTrue(), Not(GTrue())]), rng.random() < 0.5)

        transitions = [
            Transition(initial, out_ev(100, "left"), UNIT, m.initial),
            Transition(initial, out_ev(101, "right"), UNIT, twin(m.initial)),
        ]
        transitions += [Transition(t.src, t.event, label(t), t.dst) for t in m.transitions]
        transitions += [Transition(twin(t.src), t.event, label(t), twin(t.dst)) for t in m.transitions]
        f = finalize(m.owner, initial, m.interface, transitions)
        assert f == oracle_finalize(m.owner, initial, m.interface, transitions)
        if len(f.states) == len(m.states) + 1:
            merged += 1
        else:
            kept_apart += 1
    assert merged >= 20 and kept_apart >= 20, (merged, kept_apart)


@pytest.mark.parametrize(
    "second",
    [
        Transition(0, out_ev(1, "m"), Unit(), 2),
        Transition(0, out_ev(1, "m"), Branch(0, out_ev(1, "m"), GTrue(), True), 1),
    ],
    ids=["target", "decoration"],
)
def test_finalize_refuses_two_transitions_on_one_event(second):
    first = Transition(0, out_ev(1, "m"), Unit(), 1)
    with pytest.raises(DeterminizationConflict, match="two different transitions"):
        finalize("A", 0, 1, [first, second])


def test_finalize_keeps_a_repeated_transition_once():
    t = Transition(0, out_ev(1, "m"), Unit(), 1)
    f = finalize("A", 0, 1, [t, Transition(0, out_ev(1, "m"), Unit(), 1), t])
    assert f.transitions == (t,)
    assert f.states == (0, 1) and f.finals == frozenset({1})


def test_finalize_conflicting_decorations():
    alloc = StateAlloc()
    ev = out_ev(1, "m")
    d1 = decorate(single_event("A", ev, alloc), GTrue(), {ev: ev})
    d2 = decorate(single_event("A", ev, alloc), Not(GTrue()), {ev: ev})
    with pytest.raises(DeterminizationConflict):
        finalize_pmachine(join_machines([d1, d2]))


def test_finalize_refuses_to_merge_two_choice_states():
    # States 1 and 2 are equivalent, and the decorations from state 0
    # name each of them as a choice state.
    def deco(q):
        return Branch(q, out_ev(1, "m"), GTrue(), False)

    transitions = [
        Transition(0, out_ev(1, "m"), Unit(), 1),
        Transition(0, out_ev(2, "n"), Unit(), 2),
        Transition(0, out_ev(3, "p"), deco(1), 4),
        Transition(0, out_ev(4, "q"), deco(2), 4),
        Transition(1, out_ev(5, "y"), Unit(), 4),
        Transition(2, out_ev(5, "y"), Unit(), 4),
    ]
    with pytest.raises(ProjectionError, match="two distinct choice states of A"):
        finalize("A", 0, 4, transitions)


def test_forget_on_presentation_machine():
    alloc = StateAlloc()
    ev = out_ev(1, "m")
    d = decorate(single_event("A", ev, alloc), GTrue(), {ev: ev})
    f = finalize_pmachine(d)
    bare = forget_machine(f)
    assert isinstance(bare, RCfsm)
    assert bare.states == f.states
    assert bare.finals == f.finals
    assert [bare.alias(q) for q in bare.states] == [f.alias(q) for q in f.states] == ["q0A", "q1A"]
    assert all(isinstance(t.decoration, Unit) for t in bare.transitions)
    assert [t.event for t in bare.transitions] == [t.event for t in f.transitions]


def test_step_and_out_of():
    alloc = StateAlloc()
    m = seq_machines(
        single_event("A", out_ev(1, "m"), alloc),
        single_event("A", in_ev(2, "r"), alloc),
    )
    f = finalize_pmachine(m)
    t = f.step(0, out_ev(1, "m"))
    assert t is not None and t.dst == 1
    assert f.step(0, in_ev(2, "r")) is None
    assert [x.event for x in f.out_of(1)] == [in_ev(2, "r")]


def test_validate_catches_foreign_events():
    ev = CommEvent(Channel("B", "C"), "!", 1, "m")
    broken = RCfsm("A", (0, 1), 0, (Transition(0, ev, Unit(), 1),), frozenset({1}))
    assert broken.alias(1) == "q1A"
    problems = validate_machine(broken)
    assert any("does not belong" in p for p in problems)


def test_to_dot_mentions_decorations():
    alloc = StateAlloc()
    ev = out_ev(1, "m")
    d = decorate(single_event("A", ev, alloc), GTrue(), {ev: ev})
    dot = to_dot(finalize_pmachine(d))
    assert dot.startswith('digraph "A"')
    assert "doublecircle" in dot
    assert "committed(q0A, m)" in dot


# -- the indexes of a finished machine against linear scans ----------------------


def scanned_families(m, state):
    """The branch families out of ``state`` by a scan of every transition."""
    seen = []
    for t in m.transitions:
        d = t.decoration
        if t.src == state and isinstance(d, Branch):
            if (d.choice_state, d.first_output, d.guard) not in seen:
                seen.append((d.choice_state, d.first_output, d.guard))
    return seen


def assert_indexes_match_scans(m):
    assert validate_machine(m) == []
    events = {t.event for t in m.transitions}
    for q in m.states + (len(m.states),):
        scan = [t for t in m.transitions if t.src == q]
        out = m.out_of(q)
        assert out == scan
        assert out is not m.out_of(q)
        for e in events:
            assert m.step(q, e) == next((t for t in scan if t.event == e), None)
        assert list(m.families.get(q, ())) == scanned_families(m, q)


def machines_of(system):
    for a in sorted(system.machines):
        m = system.machines[a]
        yield m
        yield forget_machine(m)


@pytest.mark.parametrize("path", sorted(DATA.glob("*.rchor")), ids=lambda p: p.name)
def test_indexes_match_scans_on_the_data_files(path):
    system = project_system(parse_choreography(path.read_text()))
    for m in machines_of(system):
        assert_indexes_match_scans(m)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(shapes)
def test_indexes_match_scans_on_generated_systems(shape):
    try:
        system = project_system(build(shape))
    except (ProjectionError, UndefinedSemantics):
        assume(False)
    for m in machines_of(system):
        assert_indexes_match_scans(m)


def test_projection_builds_no_index(travel_source):
    system = project_system(parse_choreography(travel_source))
    for m in system.machines.values():
        assert not {"_by_state", "_by_label", "families"} & set(vars(m))
