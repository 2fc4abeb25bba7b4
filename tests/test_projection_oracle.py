"""The projection that writes each construct once against the pre-machine
algebra in ``projection_oracle``.

Both routes must give equal machines with equal aliases, for every
participant, or refuse with the same error text.  The oracle determinizes
its pre-machines with its own ``finalize``, so each machine is also
checked against the package's ``finalize``, which takes deterministic
input only.  The routes share only the deciders of the root event order:
each works out the branch families, and so the decorations, on its own.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings

import projection_oracle
from chorrev.machine import ProjectionError
from chorrev.model import participants, validate
from chorrev.order import UndefinedSemantics, semantics, well_branched
from chorrev.parse import parse_choreography
from chorrev.projection import project_system

from conftest import DATA
from test_order_oracle import build, shapes

# The refusals left to the package for a checked choreography, and the
# three that only the oracle's unvalidated ``project`` keeps.
LEFT = ("already decorated", "cannot interleave")
DEAD = (
    "no participant besides its controller",
    "some but not all branches",
    "no anchoring output",
)


def aliases(m):
    return [m.alias(q) for q in m.states]


def outcome(route, g):
    """The machines ``route`` returns, each with its owner and aliases, or
    the type and text of its refusal."""
    try:
        machines = route(g)
    except (ProjectionError, UndefinedSemantics) as exc:
        return type(exc), str(exc)
    if not isinstance(machines, dict):
        machines = machines.machines
    return [(a, m, aliases(m)) for a, m in machines.items()]


def assert_same_projection(g):
    """Compare both routes on ``g``; return whether ``project_system`` succeeds."""
    system = outcome(project_system, g)
    assert system == outcome(projection_oracle.project_system, g)
    return isinstance(system, list)


@pytest.mark.parametrize("path", sorted(DATA.glob("*.rchor")), ids=lambda p: p.name)
def test_the_data_files_project_like_the_oracle(path):
    assert assert_same_projection(parse_choreography(path.read_text()))


@pytest.mark.parametrize(
    "source",
    [
        # nested choices of one decider
        "choice { { A -> B : m ; choice { { A -> B : x } unless tt + { A -> B : y } unless tt } }"
        " unless tt + { A -> B : n } unless tt }",
        # a decider's branch interleaved with another thread
        "par { choice { { A -> B : m } unless tt + { A -> B : n } unless tt } | A -> C : x }",
        # a participant in some branches only
        "choice { { A -> B : m ; B -> C : x } unless tt + { A -> B : n } unless tt }",
        # a loop with its controller alone
        "loop @ A { A -> A : m }",
    ],
)
def test_refusals_match_the_oracle(source):
    assert not assert_same_projection(parse_choreography(source))


@pytest.mark.parametrize(
    "source",
    [
        # A -> D : z follows the par, so it anchors on the least par anchor,
        # A -> B : x at control point 8, not on the first branch's y.
        (
            "choice @cp 1 { { par @cp 2 { A -> C : y @cp 9 | A -> B : x @cp 8 }"
            " ; A -> D : z @cp 10 } unless tt"
            " + { A -> B : n @cp 3 ; A -> C : n @cp 4 ; A -> D : n @cp 5 } unless tt }"
        ),
        # A branch opened by a loop with three start markers: each marker is
        # its own family, and the body and end markers anchor on the first.
        (
            "choice { { loop @ A { A -> B : x ; A -> C : y ; A -> D : w } ; A -> B : z }"
            " unless tt + { A -> B : n ; A -> C : n ; A -> D : n } unless tt }"
        ),
        # B's choice inside one par thread of A's branch continues that
        # thread for A.  B takes part in that thread only, so its decorated
        # branch is written in place, not interleaved.
        (
            "choice { { par { A -> B : x ; choice { { B -> A : p ; A -> D : r } unless tt"
            " + { B -> A : q ; A -> D : s } unless tt } | A -> C : y } } unless tt"
            " + { A -> B : n ; A -> C : n ; A -> D : n } unless tt }"
        ),
    ],
    ids=["output-after-par", "loop-opens-branch", "choice-in-par-thread"],
)
def test_branch_families_match_the_oracle(source):
    assert assert_same_projection(parse_choreography(source))


def checked(g):
    """Whether ``g`` passes ``validate`` and ``well_branched``."""
    if not validate(g).ok:
        return False
    try:
        return well_branched(g, semantics(g)).ok
    except UndefinedSemantics:
        return False


@settings(
    max_examples=1000, deadline=None, print_blob=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(shapes)
def test_generated_terms_project_like_the_oracle(shape):
    # Only checked terms: elsewhere both routes share the refusal of
    # ``validate``, ``semantics`` or ``well_branched``.
    g = build(shape)
    assume(checked(g))
    system = outcome(project_system, g)
    assert system == outcome(projection_oracle.project_system, g)
    if isinstance(system, list):
        return
    assert system[0] is ProjectionError and any(r in system[1] for r in LEFT), system
    # The oracle's walk keeps the refusals the package dropped.  A system it
    # projects walked every participant without meeting one; this one
    # stopped at its first refusal, so each participant is projected alone.
    for a in sorted(participants(g)):
        try:
            projection_oracle.project(g, a)
        except ProjectionError as exc:
            assert not any(r in str(exc) for r in DEAD), exc
