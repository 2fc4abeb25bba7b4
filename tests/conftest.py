import itertools
import json
import random
from pathlib import Path

import pytest

import projection_oracle
from chorrev.causality import all_log_refs
from chorrev.model import (
    LOOP_END,
    Channel,
    Choice,
    ChoiceBranch,
    CountAtom,
    GTrue,
    Interaction,
    Loop,
    Not,
    Par,
    Seq,
)
from chorrev.order import CommEvent
from chorrev.parse import parse_choreography
from chorrev.projection import project_system
from chorrev.runtime import (
    ChannelState,
    enabled_forward,
    find_transition,
    initial_configuration,
    step_input,
    step_output,
)

DATA = Path(__file__).parent / "data"

DAG = "†"
DDAG = "‡"


@pytest.fixture(scope="session")
def travel_source():
    return (DATA / "travel.rchor").read_text()


@pytest.fixture(scope="session")
def travel_chor(travel_source):
    return parse_choreography(travel_source)


@pytest.fixture(scope="session")
def travel_system(travel_chor):
    return project_system(travel_chor)


def queues(consumed=(), pending=()):
    """The channel state whose head splits its logs into these two queues."""
    return ChannelState(tuple(consumed) + tuple(pending), len(consumed))


def sigma_dict(cfg):
    """A configuration's states as a dict, by participant."""
    return dict(cfg.sigma)


def chi_dict(cfg):
    """A configuration's channel states as a dict, by channel."""
    return dict(cfg.chi)


def book_dict(cfg):
    """A configuration's book as a dict, by (participant, decision state)."""
    return {(a, q): e for a, q, e in cfg.book}


def drive(system, script, cfg=None):
    """Execute (kind, participant, cp, channel, message) tuples in order."""
    if cfg is None:
        cfg = initial_configuration(system)
    for kind, who, cp, ch, msg in script:
        t = find_transition(cfg, system, who, "!" if kind == "out" else "?", cp, ch, msg)
        if kind == "out":
            cfg = step_output(cfg, system, who, t)
        else:
            cfg = step_input(cfg, system, who, t)
    return cfg


# The scripted run behind the worked rollback example: two loop rounds are
# opened, the first books via dest, and the second round stops right after
# B re-enters the branch state.
REPLAN_PREFIX = [
    ("out", "T", 1, Channel("T", "D"), DAG),
    ("out", "T", 1, Channel("T", "B"), DAG),
    ("inp", "B", 1, None, DAG),
    ("out", "T", 8, None, None),
    ("inp", "B", 8, None, None),
    ("out", "B", 9, None, None),
    ("inp", "T", 9, None, None),
    ("out", "T", 10, None, None),
    ("out", "T", 1, Channel("T", "D"), DAG),
    ("out", "T", 1, Channel("T", "B"), DAG),
    ("inp", "B", 1, None, DAG),
]


@pytest.fixture(scope="session")
def replan_config(travel_system):
    return drive(travel_system, REPLAN_PREFIX)


@pytest.fixture
def schedule_path():
    return DATA / "travel_replan.schedule.json"


@pytest.fixture
def dest_log(replan_config):
    tb = replan_config.channel_state(Channel("T", "B"))
    return tb.consumed[1]


def seeded_history(system, logs, seed):
    """A forward walk that never leaves a loop, stopped at ``logs`` logs."""
    rng = random.Random(seed)
    cfg = initial_configuration(system)
    while len(all_log_refs(cfg)) < logs:
        moves = [
            (a, t)
            for a, t in enabled_forward(cfg, system)
            if not (t.event.polarity == "!" and t.event.message == LOOP_END)
        ]
        a, t = moves[rng.randrange(len(moves))]
        step = step_output if t.event.polarity == "!" else step_input
        cfg = step(cfg, system, a, t)
    return cfg


def forced_pairs(analyzer, cfg, participant):
    """The replay-order edges out of the participant's consumed inputs, input
    by input in channel order and each input's outputs in timestamp order,
    as the analyzer's one derivation of the clauses lists them."""
    refs, _, _, dependants = analyzer._dependants(cfg)
    return [
        (ref, refs[j])
        for k, ref in enumerate(refs)
        if ref[0].receiver == participant
        for j, why in dependants(k)
        if why == "replay-order"
    ]


def load_json(path):
    return json.loads(Path(path).read_text())


def random_pmachine(rng, owner="A", depth=3):
    """A small random pre-machine built through the oracle's algebra."""
    alloc = projection_oracle.StateAlloc()
    peers = ["B", "C", "D"]

    def leaf():
        peer = rng.choice(peers)
        cp = rng.randint(1, 9)
        msg = rng.choice(["m", "n", "x", "y"])
        if rng.random() < 0.5:
            event = CommEvent(Channel(owner, peer), "!", cp, msg)
        else:
            event = CommEvent(Channel(peer, owner), "?", cp, msg)
        return projection_oracle.single_event(owner, event, alloc)

    def build(d):
        if d == 0 or rng.random() < 0.35:
            return leaf()
        op = rng.choice(["seq", "join", "prod"])
        left, right = build(d - 1), build(d - 1)
        if op == "seq":
            return projection_oracle.seq_machines(left, right)
        if op == "join":
            return projection_oracle.join_machines([left, right])
        return projection_oracle.product_machines(left, right, alloc)

    return build(depth)


def random_decoration_inputs(rng, m, owner="A"):
    """A guard and a total family map suitable for decorating ``m``."""
    anchor = CommEvent(Channel(owner, "B"), "!", 1, "m")
    families = {t.event: anchor for t in m.transitions}
    guard = GTrue() if rng.random() < 0.5 else Not(GTrue())
    return guard, families


def build(shape, cps=None):
    """A choreography term of ``shape`` with fresh control points in preorder."""
    cps = itertools.count(1) if cps is None else cps
    kind = shape[0]
    if kind == "inter":
        return Interaction(shape[1], shape[2], shape[3], next(cps))
    if kind == "seq":
        return Seq(tuple(build(part, cps) for part in shape[1]))
    cp = next(cps)
    if kind == "par":
        return Par(tuple(build(b, cps) for b in shape[1]), cp)
    if kind == "loop":
        return Loop(shape[1], build(shape[2], cps), cp)
    return Choice(tuple(ChoiceBranch(build(b, cps), GTrue()) for b in shape[1]), cp)


def retry_after(prefix, decider, receiver, looped):
    """The term of ``prefix`` followed by a choice the decider can reverse.

    Each branch sends a first message and waits for a reply, so the decider
    stays inside the branch, and its guard holds once that message is sent:
    the shape of ``test_explore_oracle.RETRY``, which
    ``test_order_oracle.shapes`` alone almost never produces.
    """
    cps = itertools.count(1)
    loop_cp = next(cps) if looped else None
    head = build(prefix, cps)
    choice_cp = next(cps)

    def branch(message, reply):
        body = Seq((
            Interaction(decider, receiver, message, next(cps)),
            Interaction(receiver, decider, reply, next(cps)),
        ))
        return ChoiceBranch(body, CountAtom(message, Channel(decider, receiver), ">=", 1))

    term = Seq((head, Choice((branch("p", "r"), branch("q", "s")), choice_cp)))
    return Loop(decider, term, loop_cp) if looped else term
