"""The projection that writes each construct once against the pre-machine
algebra in ``projection_oracle``.

Both routes must give equal machines with equal aliases, for every
participant, decorated and plain, or refuse with the same error text.
The oracle determinizes its pre-machines with its own ``finalize``, so
each machine is also checked against the package's ``finalize``, which
takes deterministic input only.
"""

import pytest
from hypothesis import given, settings

import projection_oracle
from chorrev.machine import ProjectionError, RCfsm
from chorrev.model import participants
from chorrev.order import UndefinedSemantics
from chorrev.parse import parse_choreography
from chorrev.projection import System, project, project_system

from conftest import DATA
from test_order_oracle import build, shapes


def aliases(m):
    return [m.alias(q) for q in m.states]


def outcome(route, *args):
    """The machines ``route`` returns, each with its owner and aliases, or
    the type and text of its refusal."""
    try:
        result = route(*args)
    except (ProjectionError, UndefinedSemantics) as exc:
        return type(exc), str(exc)
    if isinstance(result, RCfsm):
        return result, aliases(result)
    machines = result.machines if isinstance(result, System) else result
    return [(a, m, aliases(m)) for a, m in machines.items()]


def assert_same_projection(g):
    """Compare both routes on ``g``; return whether ``project_system`` succeeds.

    Each participant is then projected plain.  ``project`` checks neither
    validity nor well-branchedness, so where ``project_system`` refuses,
    each decorated projection is compared instead, refusals included.
    """
    system = outcome(project_system, g)
    assert system == outcome(projection_oracle.project_system, g)
    projected = isinstance(system, list)
    for a in sorted(participants(g)):
        assert outcome(project, g, a, not projected) == outcome(
            projection_oracle.project, g, a, not projected
        )
    return projected


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


@settings(max_examples=1000, deadline=None, print_blob=True)
@given(shapes)
def test_generated_terms_project_like_the_oracle(shape):
    assert_same_projection(build(shape))
