import os
import subprocess
import sys
from pathlib import Path

import pytest

import chorrev
from chorrev import model, order
from chorrev.causality import CausalityAnalyzer
from chorrev.machine import ProjectionError, Unit
from chorrev.model import Channel, CountAtom, subterms, validate
from chorrev.order import CommEvent, UndefinedSemantics
from chorrev.parse import parse_choreography
from chorrev.projection import project_system

from conftest import DAG, DATA, DDAG

TB = Channel("T", "B")
TD = Channel("T", "D")

BOOKED_YET = CountAtom("upd", TD, ">=", 1)
NOT_BOOKED = CountAtom("upd", TD, "<", 1)


def outs(m, alias):
    state = next(s for s in m.states if m.alias(s) == alias)
    return {
        (m.alias(t.src), str(t.event), m.alias(t.dst)): t.decoration
        for t in m.out_of(state)
    }


def edge_set(m):
    return {(m.alias(t.src), str(t.event), m.alias(t.dst)) for t in m.transitions}


def test_driver_machine_is_exactly_four_states(travel_system):
    d = travel_system.machines["D"]
    assert len(d.states) == 4
    assert d.finals == frozenset({3})
    assert edge_set(d) == {
        ("q0D", f"T->D?{DAG}/1", "q1D"),
        ("q1D", "T->D?upd/10", "q2D"),
        ("q2D", f"T->D?{DAG}/1", "q1D"),
        ("q2D", f"T->D?{DDAG}/1", "q3D"),
    }
    assert all(isinstance(t.decoration, Unit) for t in d.transitions)


def test_broker_machine_shape(travel_system):
    b = travel_system.machines["B"]
    assert len(b.states) == 12
    assert b.finals == frozenset({11})
    assert all(isinstance(t.decoration, Unit) for t in b.transitions)
    # the branch entry state offers all three requests
    entry = outs(b, "q1B")
    assert set(entry) == {
        ("q1B", "T->B?flight/4", "q2B"),
        ("q1B", "T->B?car/6", "q3B"),
        ("q1B", "T->B?dest/8", "q4B"),
    }
    # the booking path answers with the full price and reaches the loop gate
    assert set(outs(b, "q4B")) == {("q4B", "B->T!fullPrice/9", "q8B")}
    assert set(outs(b, "q8B")) == {
        ("q8B", f"T->B?{DAG}/1", "q1B"),
        ("q8B", f"T->B?{DDAG}/1", "q11B"),
    }
    assert outs(b, "q11B") == {}


def test_traveler_branch_decorations(travel_system):
    t = travel_system.machines["T"]
    assert len(t.states) == 17
    assert t.finals == frozenset({16})

    flight = CommEvent(TB, "!", 4, "flight")
    car = CommEvent(TB, "!", 6, "car")
    dest = CommEvent(TB, "!", 8, "dest")

    decorated = [x for x in t.transitions if not isinstance(x.decoration, Unit)]
    assert len(decorated) == 14
    # every decoration points back at the single decision state
    assert {x.decoration.choice_state for x in decorated} == {3}
    assert t.alias(3) == "q3T"

    by_family = {}
    for x in decorated:
        by_family.setdefault(x.decoration.first_output, set()).add(
            (str(x.event), x.decoration.kind, x.decoration.guard)
        )
    assert set(by_family) == {flight, car, dest}
    assert by_family[dest] == {
        ("T->B!dest/8", "ongoing", BOOKED_YET),
        ("B->T?fullPrice/9", "committed", BOOKED_YET),
    }
    # each par thread keeps its own anchor: the price receive belongs to the
    # request that triggered it
    assert ("B->T?flightPrice/5", "committed", NOT_BOOKED) in by_family[flight]
    assert ("B->T?carPrice/7", "committed", NOT_BOOKED) in by_family[car]
    assert all(g == NOT_BOOKED for (_, _, g) in by_family[flight] | by_family[car])

    committed = {x for x in decorated if x.decoration.committed}
    assert {x.dst for x in committed} == {10}
    assert set(outs(t, "q10T")) == {("q10T", "T->D!upd/10", "q13T")}


def test_traveler_loop_gate_offers_both_markers(travel_system):
    t = travel_system.machines["T"]
    assert set(outs(t, "q13T")) == {
        ("q13T", f"T->B!{DAG}/1", "q1T"),
        ("q13T", f"T->B!{DDAG}/1", "q14T"),
        ("q13T", f"T->D!{DAG}/1", "q2T"),
        ("q13T", f"T->D!{DDAG}/1", "q15T"),
    }
    # stop markers can go out in either order
    assert set(outs(t, "q14T")) == {("q14T", f"T->D!{DDAG}/1", "q16T")}
    assert set(outs(t, "q15T")) == {("q15T", f"T->B!{DDAG}/1", "q16T")}


def test_finals_are_sinks(travel_system):
    for m in travel_system.machines.values():
        for f in m.finals:
            assert m.out_of(f) == []


def test_par_projection_is_a_diamond():
    g = parse_choreography("par { A -> B : m | A -> C : n }")
    a = project_system(g).machines["A"]
    assert len(a.states) == 4
    assert len(a.transitions) == 4
    assert a.finals == frozenset({3})
    assert {str(t.event) for t in a.out_of(0)} == {"A->B!m/2", "A->C!n/3"}


def test_a_choice_in_a_par_thread_projects_like_the_choice_alone():
    # B takes part in the choice's thread only, so its machine is the
    # choice's, decorations included; A interleaves both threads plainly.
    g = parse_choreography((DATA / "choice_in_par.rchor").read_text())
    choice = g.branches[0]
    machines = project_system(g).machines
    assert machines["B"] == project_system(choice).machines["B"]
    assert any(not isinstance(t.decoration, Unit) for t in machines["B"].transitions)
    assert all(isinstance(t.decoration, Unit) for t in machines["A"].transitions)


def test_nested_choice_same_decider_cannot_project():
    g = parse_choreography(
        """
        choice {
          { A -> B : m ;
            choice { { A -> B : x } unless tt + { A -> B : y } unless tt }
          } unless tt
          + { A -> B : z } unless tt
        }
        """
    )
    with pytest.raises(ProjectionError, match="already decorated"):
        project_system(g)


def test_project_system_rejects_invalid():
    g = parse_choreography("loop @ C { A -> B : m }")
    with pytest.raises(ProjectionError, match="invalid"):
        project_system(g)


def test_project_system_rejects_ill_branched():
    g = parse_choreography(
        "choice { { A -> B : m ; A -> C : x } unless tt + { A -> B : y } unless tt }"
    )
    with pytest.raises(ProjectionError, match="well branched"):
        project_system(g)


def test_project_system_rejects_undefined():
    g = parse_choreography("A -> B : m ; C -> D : n")
    with pytest.raises(UndefinedSemantics):
        project_system(g)


# -- how often the event order is computed --------------------------------------

# Choices nested three deep, each decided by a different participant.
NESTED = """
choice {
  { A -> B : x3 ;
    choice {
      { B -> C : x2 ;
        choice { { C -> D : x1 } unless tt + { C -> D : y1 } unless tt }
      } unless tt
      + { B -> C : y2 ; C -> D : z2 } unless tt
    }
  } unless tt
  + { A -> B : y3 ; B -> C : w3 ; C -> D : v3 } unless tt
}
"""


@pytest.fixture
def semantics_calls(monkeypatch):
    """Count calls of ``semantics``, wherever the package looks it up."""
    calls = []
    original = order.semantics

    def counted(g):
        calls.append(g)
        return original(g)

    for name, module in list(sys.modules.items()):
        if name == "chorrev" or name.startswith("chorrev."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_semantics_visits_each_subterm_once(semantics_calls):
    g = parse_choreography(NESTED)
    order.semantics(g)
    assert len(semantics_calls) == len(list(subterms(g)))


def test_projection_and_analysis_reuse_the_root_order(semantics_calls):
    g = parse_choreography(NESTED)
    system = project_system(g)
    # the root order visits each subterm once; well-branchedness reads the
    # branches' orders off it, and the projection adds nothing
    assert len(semantics_calls) == len(list(subterms(g)))
    semantics_calls.clear()
    CausalityAnalyzer(system)
    assert semantics_calls == []


def test_subterm_walks_grow_linearly_with_loop_nesting(monkeypatch):
    # Validation and projection read each subterm's participants off a
    # table built once, so doubling the depth of a loop nest doubles the
    # walks over its subterms; asking each loop for its body's participants
    # would make them grow with the square of the depth.  Both the
    # ``subterms`` walks and the nodes the participant table visits count.
    calls = [0]

    def counting(original):
        def counted(*args):
            calls[0] += 1
            return original(*args)

        return counted

    original = model.subterms
    for name, module in list(sys.modules.items()):
        if (name == "chorrev" or name.startswith("chorrev.")) and vars(module).get("subterms") is original:
            monkeypatch.setattr(module, "subterms", counting(original))
    monkeypatch.setattr(model, "_participant_walk", counting(model._participant_walk))
    made = {}
    for depth in (50, 100):
        source = "A -> B : x"
        for _ in range(depth):
            source = f"loop @A {{ A -> B : x ; {source} }}"
        g = parse_choreography(source)
        calls[0] = 0
        validate(g)
        project_system(g)
        made[depth] = calls[0]
    assert 0 < made[100] <= 2.1 * made[50], made


def test_branch_families_do_not_depend_on_the_hash_seed():
    # The loop's three start markers share a control point; the branch
    # after the loop must anchor on the same one in every process.
    source = (
        "choice @A { { loop @A { A -> B : x ; A -> C : y ; A -> D : w } ;"
        " A -> B : z ; A -> C : v ; A -> D : u } unless count(z, A->B) >= 1"
        " + { A -> B : p ; A -> C : q ; A -> D : r } unless tt }"
    )
    script = (
        "import sys\n"
        "from chorrev.parse import parse_choreography\n"
        "from chorrev.projection import project_system\n"
        "system = project_system(parse_choreography(sys.argv[1]))\n"
        "print(repr(system.machines['A'].transitions))\n"
    )
    src = str(Path(chorrev.__file__).resolve().parents[1])
    outputs = set()
    for seed in range(1, 11):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", script, source],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1
