"""End-to-end acceptance gate.

Each scenario below covers one release criterion, prints a single
``criterion NN: PASS``/``FAIL`` line (visible with ``pytest -s``) and
fails when it runs past its wall-clock budget.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager

import pytest
from click.testing import CliRunner

from chorrev import machine
from chorrev.causality import CausalityAnalyzer, all_log_refs
from chorrev.cli import main
from chorrev.explore import Bound, run_checks
from chorrev.model import Channel, CountAtom, Interaction, Loop, Seq, validate
from chorrev.order import CommEvent, UndefinedSemantics, semantics
from chorrev.parse import parse_choreography
from chorrev.projection import project_system
from chorrev.reverse import enabled_reversals, rho, step_reverse
from chorrev.runtime import BookEntry, Configuration, Log

import order_oracle
import projection_oracle
import runtime_oracle
from conftest import DAG, DATA, drive, queues, retry_after

TB = Channel("T", "B")
TD = Channel("T", "D")
BT = Channel("B", "T")

TRAVEL = str(DATA / "travel.rchor")


@contextmanager
def criterion(num, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        print(f"criterion {num:02d}: FAIL ({elapsed:.2f}s, budget {budget:g}s)")
        raise AssertionError(
            f"criterion {num:02d} blew its {budget:g}s budget: {elapsed:.2f}s"
        )
    print(f"criterion {num:02d}: PASS ({elapsed:.2f}s)")


def test_criterion_01_validation_gate(travel_chor):
    with criterion(1, 1.0):
        report = validate(travel_chor)
        assert report.ok and not report.issues

        # the concrete syntax already refuses a twice-annotated control
        # point, so the duplicate is built directly on the syntax tree
        dup = Seq((Interaction("A", "B", "m", 1), Interaction("B", "C", "n", 1)))
        assert [i.kind for i in validate(dup).issues] == ["duplicate-control-point"]

        stray = parse_choreography("loop @ A { B -> C : m }")
        assert [i.kind for i in validate(stray).issues] == ["loop-controller-absent"]


def test_criterion_02_sequential_composition_table():
    with criterion(2, 1.0):
        table = [
            ("A -> B : m ; A -> C : n", True),
            ("A -> B : m ; B -> C : n", True),
            ("A -> B : m ; B -> A : n", True),
            ("A -> B : m ; A -> B : n", True),
            ("A -> B : m ; C -> D : n", False),
        ]
        for src, defined in table:
            if defined:
                semantics(parse_choreography(src))
            else:
                with pytest.raises(UndefinedSemantics):
                    semantics(parse_choreography(src))


def random_retry(rng, depth=2):
    """``retry_after`` a seeded random prefix of the kind ``test_order_oracle.shapes`` draws."""

    def shape(d):
        if d == 0 or rng.random() < 0.4:
            sender, receiver = rng.sample("ABCD", 2)
            return ("inter", sender, receiver, rng.choice("mn"))
        kind = rng.choice(["seq", "par", "loop", "choice"])
        if kind == "loop":
            return ("loop", rng.choice("ABCD"), shape(d - 1))
        return (kind, [shape(d - 1) for _ in range(rng.randint(2, 3))])

    return retry_after(shape(depth), *rng.sample("ABCD", 2), rng.random() < 0.5)


def same_traces(m1, m2):
    """Whether two deterministic machines, every state of which can reach
    a final one, accept the same event sequences."""
    seen = {(m1.initial, m2.initial)}
    queue = list(seen)
    for q1, q2 in queue:
        out1 = {t.event: t.dst for t in m1.out_of(q1)}
        out2 = {t.event: t.dst for t in m2.out_of(q2)}
        if (q1 in m1.finals) != (q2 in m2.finals) or out1.keys() != out2.keys():
            return False
        for e, d1 in out1.items():
            if (d1, out2[e]) not in seen:
                seen.add((d1, out2[e]))
                queue.append((d1, out2[e]))
    return True


def test_criterion_03_decoration_erasure_roundtrip():
    # Decorations conservatively extend the plain machines: erasing them
    # from a projected machine leaves the traces of the plain projection.
    with criterion(3, 10.0):
        rng = random.Random(20260815)
        compared = 0
        while compared < 1000:
            g = random_retry(rng)
            try:
                system = project_system(g)
            except (machine.ProjectionError, UndefinedSemantics):
                continue
            for a, m in system.machines.items():
                if any(isinstance(t.decoration, machine.Branch) for t in m.transitions):
                    plain = projection_oracle.project(g, a, decorated=False)
                    assert machine.forget_machine(plain) == plain
                    assert same_traces(machine.forget_machine(m), plain)
                    compared += 1


def test_criterion_04_bounded_soundness(travel_system):
    with criterion(4, 300.0):
        (result,) = run_checks(travel_system, Bound(200, 2), ["soundness"])
        assert result.passed and not result.inconclusive
        assert result.stats["instrumented_configs"] > 0


def test_criterion_05_bounded_completeness(travel_system):
    with criterion(5, 300.0):
        (result,) = run_checks(travel_system, Bound(200, 2), ["completeness"])
        assert result.passed and not result.inconclusive
        assert result.stats["images"] == result.stats["plain_configs"]


def test_criterion_06_bounded_causal_consistency(travel_system):
    with criterion(6, 600.0):
        (result,) = run_checks(travel_system, Bound(200, 2), ["causal-consistency"])
        assert result.passed and not result.inconclusive
        assert result.stats["reversal_edges"] > 0


def test_criterion_07_scripted_rollback_shapes(travel_system, replan_config):
    with criterion(7, 10.0):
        pre = replan_config

        td = pre.channel_state(TD)
        assert td.consumed == ()
        assert [log.message for log in td.pending] == [DAG, "upd", DAG]

        tb = pre.channel_state(TB)
        assert tb.pending == ()
        assert [log.message for log in tb.consumed] == [DAG, "dest", DAG]

        bt = pre.channel_state(BT)
        assert bt.pending == ()
        assert [log.message for log in bt.consumed] == ["fullPrice"]

        traveler_stamps = sorted(
            log.timestamp for log in td.logs + tb.logs
        )
        assert traveler_stamps == [1, 2, 3, 4, 5, 6]
        assert [log.timestamp for log in bt.consumed] == [1]

        (candidate,) = enabled_reversals(pre, travel_system)
        post = step_reverse(pre, travel_system, candidate)
        dest = CommEvent(TB, "!", 8, "dest")
        booked = CountAtom("upd", TD, ">=", 1)
        assert post == Configuration.make(
            {"T": 3, "B": 1, "D": 0},
            {
                TD: queues((), (Log(DAG, 0, 1, 1),)),
                TB: queues((Log(DAG, 2, 1, 2),), ()),
            },
            {("T", 3): BookEntry(frozenset({(dest, booked)}), True)},
        )
        assert post.state_of("D") == travel_system.machines["D"].initial


def _removal_outcomes(source, script):
    """Run the one-log-at-a-time oracle rho under every permutation of the
    whole log set.

    Returns (legal outcomes, illegal count) after checking the fixture is
    small and has at least two incomparable maximal logs, and that every
    legal outcome is the package's rho of the cut that keeps no log.
    """
    system = project_system(parse_choreography(source))
    cfg = drive(system, script)
    targets = list(all_log_refs(cfg))
    assert len(targets) <= 6
    analyzer = CausalityAnalyzer(system)
    maximals = runtime_oracle.maximal_logs(targets, analyzer.relation(cfg))
    assert len(maximals) >= 2

    outcomes, illegal = [], 0
    for perm in itertools.permutations(targets):
        try:
            outcomes.append(
                runtime_oracle.rho(cfg, system, targets, analyzer, order=list(perm))
            )
        except ValueError:
            illegal += 1
    assert len(outcomes) + illegal == math.factorial(len(targets))
    rolled = rho(cfg, system, [0] * len(cfg.chi), analyzer)
    assert all(outcome == rolled for outcome in outcomes)
    return outcomes, illegal


def test_criterion_08_rollback_order_independence():
    with criterion(8, 30.0):
        fixtures = [
            # two pending sends on disjoint channels: both orders legal
            ("par { A -> B : m | C -> D : x }",
             [("out", "A", 2, None, None), ("out", "C", 3, None, None)],
             2),
            # three independent threads: every order legal
            ("par { A -> B : m | C -> D : x | E -> F : y }",
             [("out", "A", 2, None, None), ("out", "C", 3, None, None),
              ("out", "E", 4, None, None)],
             6),
            # a queued pair next to a free log: the queue forces half out
            ("par { ( A -> B : m ; A -> B : n ) | C -> D : x }",
             [("out", "A", 2, None, None), ("out", "A", 3, None, None),
              ("out", "C", 4, None, None)],
             3),
            # two consume-then-forward chains rolled back across four logs
            ("par { ( A -> B : m ; B -> C : n ) | ( D -> E : x ; E -> F : y ) }",
             [("out", "A", 2, None, None), ("inp", "B", 2, None, None),
              ("out", "B", 3, None, None), ("out", "D", 4, None, None),
              ("inp", "E", 4, None, None), ("out", "E", 5, None, None)],
             6),
        ]
        for source, script, legal in fixtures:
            outcomes, _ = _removal_outcomes(source, script)
            assert len(outcomes) == legal, source
            assert len(set(outcomes)) == 1, source


def test_criterion_09_loop_round_ordering_oracle():
    with criterion(9, 5.0):
        system = project_system(
            parse_choreography("loop @ A { A -> B : m ; A -> C : y }")
        )
        ab, ac = Channel("A", "B"), Channel("A", "C")
        script = [
            ("out", "A", 1, ab, DAG),
            ("out", "A", 1, ac, DAG),
            ("out", "A", 2, None, None),
            ("out", "A", 3, None, None),
        ]
        cfg = drive(system, script * 2)
        b1, m1, b2, m2 = [(ab, log) for log in cfg.channel_state(ab).logs]
        c1, y1, c2, y2 = [(ac, log) for log in cfg.channel_state(ac).logs]

        base = CausalityAnalyzer(system).base_relation(cfg)
        ch, so, lr = "channel-order", "sender-order", "loop-rounds"
        expected = {
            # queue order on each channel
            (b1, m1): {ch}, (b1, b2): {ch}, (b1, m2): {ch},
            (m1, b2): {ch}, (m1, m2): {ch}, (b2, m2): {ch},
            (c1, y1): {ch}, (c1, c2): {ch}, (c1, y2): {ch},
            (y1, c2): {ch}, (y1, y2): {ch}, (c2, y2): {ch},
            # marker logs of one multicast: program order only
            (b1, c1): {so}, (b1, c2): {so}, (c1, b2): {so}, (b2, c2): {so},
            # cross-channel pairs ordered by observable rounds
            (b1, y1): {so, lr}, (b1, y2): {so, lr},
            (y1, b2): {so, lr}, (b2, y2): {so, lr},
            (c1, m1): {so, lr}, (c1, m2): {so, lr},
            (m1, c2): {so, lr}, (c2, m2): {so, lr},
            (m1, y1): {so, lr}, (m1, y2): {so, lr},
            (y1, m2): {so, lr}, (m2, y2): {so, lr},
        }
        assert {pair: set(tags) for pair, tags in base.items()} == expected

        # round 0 logs precede round 1 logs even where the loop body
        # sends the other way, and never the reverse
        for earlier, later in [(y1, b2), (y1, m2), (m1, c2)]:
            assert lr in base[(earlier, later)]
            assert (later, earlier) not in base


def test_criterion_10_trace_schedule_roundtrip(tmp_path):
    with criterion(10, 120.0):
        runner = CliRunner()
        trace = tmp_path / "trace.json"
        replay = tmp_path / "replay.json"
        for seed in range(200):
            first = runner.invoke(
                main,
                ["simulate", TRAVEL, "--auto", "100", "--seed", str(seed),
                 "--trace", str(trace)],
            )
            assert first.exit_code == 0, first.output
            second = runner.invoke(
                main,
                ["simulate", TRAVEL, "--schedule", str(trace),
                 "--trace", str(replay)],
            )
            assert second.exit_code == 0, second.output
            a = json.loads(trace.read_text())
            b = json.loads(replay.read_text())
            assert a["final"] == b["final"], f"seed {seed} diverged"


def test_criterion_11_straight_line_scales():
    n = 300
    lines = [
        f"A -> B : m{k} ;" if k % 2 else f"B -> A : m{k} ;" for k in range(1, n + 1)
    ]
    source = " ".join(lines)[:-2]
    with criterion(11, 10.0):
        chor = parse_choreography(source)
        order = semantics(chor)
        system = project_system(chor)
        assert len(order.events) == 2 * n
        assert len(system.machines["A"].transitions) == n

    # the first 40 interactions are ordered as the closure oracle orders them
    prefix = order_oracle.semantics(parse_choreography(" ".join(lines[:40])[:-2]))
    assert {
        (a, b) for a in prefix.events for b in prefix.events if order.leq(a, b)
    } == prefix.le


def test_criterion_12_thousand_interaction_chain():
    n = 1000
    source = " ; ".join(
        f"A -> B : m{k}" if k % 2 else f"B -> A : m{k}" for k in range(1, n + 1)
    )
    with criterion(12, 10.0):
        chor = parse_choreography(source)
        order = semantics(chor)
        system = project_system(chor)
        assert isinstance(chor, Seq) and len(chor.parts) == n
        assert len(order.events) == 2 * n
        assert len(system.machines["A"].transitions) == n


def test_criterion_13_forward_checks_at_three_rounds(travel_system):
    with criterion(13, 10.0):
        results = run_checks(travel_system, Bound(200, 3), ["soundness", "completeness"])
        assert [r.verdict for r in results] == ["pass", "pass"]
        assert results[0].stats == {"instrumented_configs": 1414, "plain_configs": 375, "images": 375}
