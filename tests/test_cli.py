import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from chorrev.cli import main

from conftest import DATA, load_json

TRAVEL = str(DATA / "travel.rchor")
# A receiver consumes the loop's exit marker after the input a rollback removes.
CONSUMED_MARKER = str(DATA / "rollback_consumed_marker.rchor")
ROLLBACK_FAILURE = (
    "rollback of m6 by E cannot be carried out:"
    " the history of C replays to [], not to one state"
)


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- check ---------------------------------------------------------------------


def test_check_accepts_travel(runner):
    result = runner.invoke(main, ["check", TRAVEL])
    assert result.exit_code == 0
    assert "ok" in result.output
    assert "control points: 10" in result.output


def test_check_rejects_duplicate_annotations(runner, tmp_path):
    path = write(tmp_path, "dup.rchor", "A -> B : m @cp 2 ; B -> C : n @cp 2")
    result = runner.invoke(main, ["check", path])
    assert result.exit_code == 2
    assert "annotated twice" in result.output


def test_check_reports_missing_controller(runner, tmp_path):
    path = write(tmp_path, "bad.rchor", "loop @ C { A -> B : m }")
    result = runner.invoke(main, ["check", path])
    assert result.exit_code == 1
    assert "loop-controller-absent" in result.output


def test_check_reports_undefined_composition(runner, tmp_path):
    path = write(tmp_path, "undef.rchor", "A -> B : m ; C -> D : n")
    result = runner.invoke(main, ["check", path])
    assert result.exit_code == 1
    assert "undefined semantics" in result.output

    # the first undefined step of a chain is reported, not the choice after it
    path = write(
        tmp_path,
        "first.rchor",
        "A -> B : x ; C -> D : y ; choice { { A -> B : p } unless tt + { B -> A : q } unless tt }",
    )
    result = runner.invoke(main, ["check", path, "--json"])
    assert result.exit_code == 1
    assert json.loads(result.output)["undefined"] == (
        "sequential composition undefined: C->D!y/2"
        " would happen with no prior involvement of its participant"
    )


def test_check_json_payload(runner, tmp_path):
    result = runner.invoke(main, ["check", TRAVEL, "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload == {
        "ok": True,
        "issues": [],
        "undefined": None,
        "participants": ["B", "D", "T"],
        "controlPoints": 10,
    }

    bad = write(tmp_path, "wb.rchor",
                "choice { { A -> B : m ; A -> C : x } unless tt"
                " + { A -> B : y } unless tt }")
    result = runner.invoke(main, ["check", bad, "--json"])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["ok"] is False
    assert [i["kind"] for i in payload["issues"]] == ["participant-partial-occurrence"]


@pytest.mark.parametrize(
    "text, undefined",
    [
        (
            "choice { { A -> B : m } unless tt + { C -> B : y } unless tt }",
            "choice at control point 1 has no unique deciding participant"
            " (candidates: ['A', 'C'])",
        ),
        (
            "choice { { A -> B : m ; C -> D : n } unless tt + { A -> B : y } unless tt }",
            "sequential composition undefined: C->D!n/3"
            " would happen with no prior involvement of its participant",
        ),
    ],
    ids=["no-unique-decider", "undefined-branch"],
)
def test_check_json_of_a_choice_without_an_order(runner, tmp_path, text, undefined):
    # A choice whose event order is undefined gets no branching issues.
    path = write(tmp_path, "undef.rchor", text)
    result = runner.invoke(main, ["check", path, "--json"])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert (payload["ok"], payload["issues"], payload["undefined"]) == (False, [], undefined)


def test_parse_errors_exit_two(runner, tmp_path):
    path = write(tmp_path, "broken.rchor", "A -> B")
    result = runner.invoke(main, ["check", path])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "text",
    [
        "(" * 1000 + "A -> B : m" + ")" * 1000,
    ],
    ids=["nested-parentheses"],
)
def test_deep_input_exits_two_without_a_traceback(runner, tmp_path, text):
    path = write(tmp_path, "deep.rchor", text)
    result = runner.invoke(main, ["check", path])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "nested too deeply" in result.output
    assert "Traceback" not in result.output


def nested(levels, inner, outer):
    """``inner`` wrapped ``levels`` times by the ``{}`` of ``outer``."""
    for _ in range(levels):
        inner = outer.format(inner)
    return inner


# Accepted by the parser, but deeper than validation, the event order and
# projection can recurse.
@pytest.mark.parametrize("command", ["check", "project", "explore"])
@pytest.mark.parametrize(
    "text",
    [
        nested(250, "A -> B : x", "loop @A {{ A -> B : x ; {} }}"),
        nested(200, "A -> B : m", "choice {{ {{ A -> B : x ; {} }} unless tt + {{ A -> B : y }} unless tt }}"),
        nested(360, "A -> B : m", "(A -> B : m ; {})"),
    ],
    ids=["loops", "choices", "parenthesised-chains"],
)
def test_deep_terms_the_parser_accepts_exit_two_without_a_traceback(runner, tmp_path, text, command):
    path = write(tmp_path, "deep.rchor", text)
    args = [command, path] + (["--bound", "steps=5,rounds=1"] if command == "explore" else [])
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output == "parse error: input nested too deeply\n"


@pytest.mark.parametrize("command", ["check", "project"])
@pytest.mark.parametrize(
    "text",
    [
        " ; ".join(["A -> B : m"] * 1000),
        " ; ".join(f"A -> B : m{i} @cp {i}" for i in range(1, 1001)),
    ],
    ids=["flat-chain", "annotated-chain"],
)
def test_long_chain_exits_zero(runner, tmp_path, text, command):
    path = write(tmp_path, "long.rchor", text)
    result = runner.invoke(main, [command, path])
    assert result.exit_code == 0
    assert result.exception is None
    assert "Traceback" not in result.output


def test_input_that_is_not_utf8_exits_two_without_a_traceback(runner, tmp_path):
    path = tmp_path / "latin.rchor"
    path.write_bytes(b"A -> B : m\xff")
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ")
    assert "not UTF-8 text" in result.output
    assert "Traceback" not in result.output


def test_missing_file_exits_two(runner):
    result = runner.invoke(main, ["check", "nowhere.rchor"])
    assert result.exit_code == 2


# -- project -------------------------------------------------------------------


def test_project_lists_machines(runner):
    result = runner.invoke(main, ["project", TRAVEL])
    assert result.exit_code == 0
    assert "T: 17 states, initial q0T, final q16T" in result.output
    assert "D: 4 states, initial q0D, final q3D" in result.output
    assert "[branch of q3T: dest unless count(upd, T->D) >= 1]" in result.output
    assert "[commits branch of q3T: dest unless count(upd, T->D) >= 1]" in result.output


def test_project_matches_the_recorded_output(runner):
    result = runner.invoke(main, ["project", TRAVEL])
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / "project_travel.txt").read_bytes()


def test_project_dot_matches_the_recorded_files(runner, tmp_path):
    result = runner.invoke(main, ["project", TRAVEL, "--dot", str(tmp_path)])
    assert result.exit_code == 0
    assert result.stdout_bytes.startswith((DATA / "project_travel.txt").read_bytes())
    for a in ("B", "D", "T"):
        golden = DATA / f"project_travel_{a}.dot"
        assert (tmp_path / f"{a}.dot").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("name", ["static_order_loop", "rollback_consumed_marker"])
def test_project_of_looped_choices_matches_the_recorded_output(runner, name):
    result = runner.invoke(main, ["project", str(DATA / f"{name}.rchor")])
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / f"project_{name}.txt").read_bytes()


@pytest.mark.parametrize("name", ["static_order_loop", "rollback_consumed_marker"])
def test_project_dot_of_looped_choices_matches_the_recorded_files(runner, tmp_path, name):
    result = runner.invoke(main, ["project", str(DATA / f"{name}.rchor"), "--dot", str(tmp_path)])
    assert result.exit_code == 0
    assert result.stdout_bytes.startswith((DATA / f"project_{name}.txt").read_bytes())
    goldens = sorted(DATA.glob(f"project_{name}_*.dot"))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        g.name.removeprefix(f"project_{name}_") for g in goldens
    ]
    for golden in goldens:
        assert (tmp_path / golden.name.removeprefix(f"project_{name}_")).read_bytes() == golden.read_bytes()


def test_project_single_participant(runner):
    result = runner.invoke(main, ["project", TRAVEL, "--participant", "D"])
    assert result.exit_code == 0
    assert "D: 4 states" in result.output
    assert "q0T" not in result.output


def test_project_unknown_participant(runner):
    result = runner.invoke(main, ["project", TRAVEL, "--participant", "Z"])
    assert result.exit_code == 1
    assert "no participant 'Z'" in result.output


def test_project_rejects_ill_branched(runner, tmp_path):
    path = write(tmp_path, "wb.rchor",
                 "choice { { A -> B : m ; A -> C : x } unless tt + { A -> B : y } unless tt }")
    result = runner.invoke(main, ["project", path])
    assert result.exit_code == 1
    assert "well branched" in result.output


def test_project_writes_dot_files(runner, tmp_path):
    out = tmp_path / "dots"
    result = runner.invoke(main, ["project", TRAVEL, "--dot", str(out)])
    assert result.exit_code == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["B.dot", "D.dot", "T.dot"]
    assert (out / "D.dot").read_text().startswith('digraph "D"')


def test_project_dot_into_a_file_exits_two(runner, tmp_path):
    blocker = tmp_path / "some_file"
    blocker.write_text("")
    result = runner.invoke(main, ["project", TRAVEL, "--dot", str(blocker / "sub")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "error: " in result.output and "Not a directory" in result.output
    assert "Traceback" not in result.output


# -- simulate ------------------------------------------------------------------


def test_simulate_needs_exactly_one_mode(runner):
    result = runner.invoke(main, ["simulate", TRAVEL])
    assert result.exit_code == 2
    assert "exactly one" in result.output
    result = runner.invoke(
        main, ["simulate", TRAVEL, "--auto", "3", "--interactive"]
    )
    assert result.exit_code == 2


def test_simulate_replans_the_booking(runner, schedule_path, tmp_path):
    trace_path = tmp_path / "trace.json"
    result = runner.invoke(
        main,
        ["simulate", TRAVEL, "--schedule", str(schedule_path), "--trace", str(trace_path)],
    )
    assert result.exit_code == 0
    assert "T reverses branch dest@8 of q3T: 5 logs undone, exhausted=true" in result.output
    assert "finished after 12 steps" in result.output

    trace = load_json(trace_path)
    assert trace["seed"] == 0
    assert trace["guardScope"] == "full"
    assert len(trace["entries"]) == 12
    rev = trace["entries"][-1]
    assert rev["kind"] == "rev"
    assert rev["anchor"] == {
        "channel": "T->B",
        "message": "dest",
        "cp": 8,
        "timestamp": 3,
        "senderState": "q3T",
    }
    assert [d["message"] for d in rev["removed"]] == [
        "fullPrice",
        "dest",
        "†",
        "upd",
        "†",
    ]
    assert trace["final"]["sigma"] == {"T": "q3T", "B": "q1B", "D": "q0D"}
    assert trace["final"]["channels"] == {
        "T->B": {
            "consumed": [
                {"channel": "T->B", "message": "†", "cp": 1, "timestamp": 2, "senderState": "q2T"}
            ],
            "pending": [],
        },
        "T->D": {
            "consumed": [],
            "pending": [
                {"channel": "T->D", "message": "†", "cp": 1, "timestamp": 1, "senderState": "q0T"}
            ],
        },
    }
    assert trace["final"]["book"] == [
        {
            "participant": "T",
            "state": "q3T",
            "tried": [
                {"message": "dest", "cp": 8, "channel": "T->B", "guard": "count(upd, T->D) >= 1"}
            ],
            "exhausted": True,
        }
    ]


def test_simulate_trace_into_a_missing_directory_exits_two(runner, tmp_path):
    trace_path = tmp_path / "missing" / "x.json"
    result = runner.invoke(main, ["simulate", TRAVEL, "--auto", "3", "--trace", str(trace_path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "error: " in result.output and "No such file or directory" in result.output
    assert "Traceback" not in result.output
    # The run stops before its first step: the error is the only line.
    assert "finished after" not in result.output
    assert result.output.splitlines() == [result.output.strip()]
    assert not trace_path.parent.exists()


def test_simulate_schedule_accepts_wrapped_entries(runner, tmp_path, schedule_path):
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"entries": load_json(schedule_path)}))
    result = runner.invoke(main, ["simulate", TRAVEL, "--schedule", str(wrapped)])
    assert result.exit_code == 0


def test_simulate_stuck_schedule_exits_one(runner, tmp_path):
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps([{"kind": "inp", "participant": "B", "cp": 8}]))
    trace_path = tmp_path / "trace.json"
    trace_path.write_text("kept\n")
    result = runner.invoke(main, ["simulate", TRAVEL, "--schedule", str(path), "--trace", str(trace_path)])
    assert result.exit_code == 1
    assert "stuck" in result.output
    # A stuck run writes no trace, and leaves an existing file as it was.
    assert trace_path.read_text() == "kept\n"


@pytest.mark.parametrize(
    "text, problem",
    [
        ("[{", "Expecting property name"),
        ("[" * 100_000, "recursion"),
        ('"out"', "expected a list of directives"),
        ('{"steps": []}', "expected a list of directives"),
    ],
)
def test_simulate_unreadable_schedule_exits_two(runner, tmp_path, text, problem):
    path = tmp_path / "bad.json"
    path.write_text(text)
    result = runner.invoke(main, ["simulate", TRAVEL, "--schedule", str(path)])
    assert result.exit_code == 2
    assert "malformed schedule" in result.output
    assert problem in result.output


FIRST_SEND = {"kind": "out", "participant": "T", "cp": 1, "channel": "T->D", "message": "†"}


@pytest.mark.parametrize(
    "bad, problem",
    [
        (["out", "T", 1], "must be a JSON object"),
        ({"kind": "jump", "participant": "T", "cp": 1}, "unknown kind 'jump'"),
        ({"participant": "T", "cp": 1}, "unknown kind None"),
        ({"kind": "out", "participant": "T"}, "missing 'cp'"),
        ({"kind": "out", "participant": "T", "cp": "1"}, "'cp' must be an integer"),
        ({"kind": "rev", "participant": "T", "cp": 8.5}, "'cp' must be an integer"),
        ({"kind": "auto"}, "missing 'steps'"),
        ({"kind": "auto", "steps": True}, "'steps' must be an integer"),
        ({"kind": "out", "cp": 1}, "missing 'participant'"),
        ({"kind": "rev", "message": "dest"}, "missing 'participant'"),
        ({"kind": "out", "participant": "Z", "cp": 1}, "unknown participant 'Z'"),
        ({"kind": "out", "participant": "T", "cp": 1, "channel": "TD"}, "malformed channel"),
        ({"kind": "out", "participant": "T", "cp": 1, "channel": "T->Z"}, "malformed channel"),
        ({"kind": "out", "participant": "T", "cp": 1, "channel": "T->B->D"}, "malformed channel"),
        ({"kind": "out", "participant": "T", "cp": 1, "channel": "->D"}, "malformed channel"),
    ],
)
def test_simulate_malformed_directive_exits_two_before_any_step(runner, tmp_path, bad, problem):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([FIRST_SEND, bad]))
    result = runner.invoke(main, ["simulate", TRAVEL, "--schedule", str(path)])
    assert result.exit_code == 2
    assert "malformed schedule" in result.output
    assert "directive 2" in result.output
    assert problem in result.output
    assert "T sends" not in result.output


@pytest.mark.parametrize(
    "args, problem",
    [
        (["--auto", "-3"], "-3 is not in the range x>=0"),
        (["--auto", "5", "--max-steps", "-2"], "-2 is not in the range x>=0"),
        (["--schedule", "SCHEDULE"], "'steps' must not be negative"),
    ],
    ids=["auto", "max-steps", "auto-directive"],
)
def test_simulate_negative_step_counts_exit_two(runner, tmp_path, args, problem):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps([FIRST_SEND, {"kind": "auto", "steps": -1}]))
    args = [str(path) if arg == "SCHEDULE" else arg for arg in args]
    result = runner.invoke(main, ["simulate", TRAVEL, *args])
    assert result.exit_code == 2
    assert problem in result.output
    assert "finished after" not in result.output


def test_simulate_runs_the_first_send_alone(runner, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps([FIRST_SEND]))
    result = runner.invoke(main, ["simulate", TRAVEL, "--schedule", str(path)])
    assert result.exit_code == 0
    assert "T sends" in result.output


def test_simulate_budget_exhaustion_exits_three(runner, schedule_path):
    result = runner.invoke(
        main,
        ["simulate", TRAVEL, "--schedule", str(schedule_path), "--max-steps", "4"],
    )
    assert result.exit_code == 3


def test_simulate_auto_is_reproducible(runner):
    args = ["simulate", TRAVEL, "--auto", "40", "--seed", "7"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output


def test_simulate_auto_directive_in_schedules(runner, tmp_path):
    path = tmp_path / "auto.json"
    path.write_text(json.dumps([{"kind": "auto", "steps": 25}]))
    result = runner.invoke(
        main, ["simulate", TRAVEL, "--schedule", str(path), "--seed", "3"]
    )
    # the run may finish early when no forward move or reversal is left,
    # which counts as normal completion, not truncation
    assert result.exit_code == 0
    assert "finished after" in result.output


def test_simulate_trace_replays_to_the_same_final(runner, tmp_path):
    trace_path = tmp_path / "trace.json"
    result = runner.invoke(
        main,
        ["simulate", TRAVEL, "--auto", "60", "--seed", "11", "--trace", str(trace_path)],
    )
    assert result.exit_code == 0
    trace = load_json(trace_path)

    replay_path = tmp_path / "replay.json"
    result = runner.invoke(
        main,
        ["simulate", TRAVEL, "--schedule", str(trace_path), "--trace", str(replay_path)],
    )
    assert result.exit_code == 0
    replay = load_json(replay_path)
    assert replay["final"] == trace["final"]
    assert replay["entries"] == trace["entries"]


def test_simulate_dump_causality(runner, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps(
            [
                {"kind": "out", "participant": "T", "cp": 1, "channel": "T->D", "message": "†"},
                {"kind": "out", "participant": "T", "cp": 1, "channel": "T->B", "message": "†"},
            ]
        )
    )
    result = runner.invoke(
        main, ["simulate", TRAVEL, "--schedule", str(path), "--dump-causality"]
    )
    assert result.exit_code == 0
    assert "dependencies of the recorded history:" in result.output
    assert "†@1#1(T->D) << †@1#2(T->B)  via sender-order" in result.output


# Recorded before a channel became one log sequence with a head index:
# the stdout of a seeded run with two reversals, and the traces of that run
# and of the replan schedule, whose rollback removes consumed logs.  They
# run from the repository root, so the trace's "source" is the relative path.
REPO = DATA.parent.parent
TRAVEL_FROM_REPO = "tests/data/travel.rchor"


def test_simulate_dump_causality_matches_the_recorded_output(runner, monkeypatch):
    monkeypatch.chdir(REPO)
    result = runner.invoke(
        main, ["simulate", TRAVEL_FROM_REPO, "--auto", "200", "--seed", "11", "--dump-causality"]
    )
    assert result.exit_code == 0
    golden = DATA / "simulate_travel_seed11_causality.txt"
    assert result.stdout_bytes == golden.read_bytes()
    assert result.output.count(" reverses branch ") == 2
    assert result.output.count(" << ") == 192


def test_simulate_dump_with_static_order_matches_the_recorded_output(runner, monkeypatch):
    # Interactions before a loop give static-order edges, which travel,
    # all of whose body is a loop, never has; this run shows all five tags.
    monkeypatch.chdir(REPO)
    result = runner.invoke(
        main,
        ["simulate", "tests/data/static_order_loop.rchor", "--auto", "40", "--seed", "2", "--dump-causality"],
    )
    assert result.exit_code == 0
    golden = DATA / "simulate_static_order_seed2_causality.txt"
    assert result.stdout_bytes == golden.read_bytes()
    assert result.output.count(" reverses branch ") == 4
    for tag in ("channel-order", "sender-order", "static-order", "loop-rounds", "replay-order"):
        assert tag in result.output


@pytest.mark.parametrize(
    "run, golden",
    [
        (["--auto", "200", "--seed", "11"], "simulate_travel_seed11_trace.json"),
        (["--schedule", "tests/data/travel_replan.schedule.json"], "simulate_travel_replan_trace.json"),
    ],
)
def test_simulate_trace_matches_the_recorded_output(runner, monkeypatch, tmp_path, run, golden):
    monkeypatch.chdir(REPO)
    trace = tmp_path / "trace.json"
    result = runner.invoke(main, ["simulate", TRAVEL_FROM_REPO, *run, "--trace", str(trace)])
    assert result.exit_code == 0
    assert trace.read_bytes() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("channel", ["T->B", "T -> B", " T->  B "])
def test_a_rev_directive_names_its_channel_with_any_spacing(runner, monkeypatch, tmp_path, channel):
    # A rev directive's channel is read like an out or inp directive's.
    monkeypatch.chdir(REPO)
    directives = json.loads((DATA / "travel_replan.schedule.json").read_text(encoding="utf-8"))
    directives[-1]["channel"] = channel
    schedule = tmp_path / "replan.json"
    schedule.write_text(json.dumps(directives), encoding="utf-8")
    trace = tmp_path / "trace.json"
    result = runner.invoke(main, ["simulate", TRAVEL_FROM_REPO, "--schedule", str(schedule), "--trace", str(trace)])
    assert result.exit_code == 0, result.output
    assert trace.read_bytes() == (DATA / "simulate_travel_replan_trace.json").read_bytes()


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # The schedule holds a dagger and so do the dot files: under the C
    # locale with no UTF-8 mode they are still read and written as UTF-8.
    env = {
        **os.environ,
        "LC_ALL": "C",
        "PYTHONUTF8": "0",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONPATH": str(REPO / "src"),
    }

    def chorrev(*args):
        run = subprocess.run(
            [sys.executable, "-m", "chorrev.cli", *args], cwd=REPO, env=env, capture_output=True
        )
        assert (run.returncode, run.stderr) == (0, b"")

    trace = tmp_path / "replan.json"
    chorrev("simulate", TRAVEL_FROM_REPO, "--schedule", "tests/data/travel_replan.schedule.json", "--trace", str(trace))
    assert trace.read_bytes() == (DATA / "simulate_travel_replan_trace.json").read_bytes()
    chorrev("project", TRAVEL_FROM_REPO, "--dot", str(tmp_path / "dot"))
    for a in ("B", "D", "T"):
        assert (tmp_path / "dot" / f"{a}.dot").read_bytes() == (DATA / f"project_travel_{a}.dot").read_bytes()


def test_the_package_runs_as_a_module():
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "chorrev", "check", TRAVEL_FROM_REPO],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith(f"{TRAVEL_FROM_REPO}: ok")


def test_simulate_interactive_quits(runner):
    result = runner.invoke(main, ["simulate", TRAVEL, "--interactive"], input="q\n")
    assert result.exit_code == 0
    assert "finished after 0 steps" in result.output


def test_simulate_interactive_takes_steps(runner):
    result = runner.invoke(
        main, ["simulate", TRAVEL, "--interactive"], input="0\n1\nq\n"
    )
    assert result.exit_code == 0
    assert "finished after 2 steps" in result.output


# -- explore -------------------------------------------------------------------


def test_explore_travel_passes(runner):
    result = runner.invoke(
        main, ["explore", TRAVEL, "--bound", "steps=200,rounds=1"]
    )
    assert result.exit_code == 0
    assert "soundness: pass" in result.output
    assert "completeness: pass" in result.output
    assert "causal-consistency: pass" in result.output


def test_explore_single_check_json(runner):
    result = runner.invoke(
        main,
        ["explore", TRAVEL, "--bound", "steps=200,rounds=1", "--check", "soundness", "--json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload) == 1
    assert payload[0]["name"] == "soundness"
    assert payload[0]["verdict"] == "pass"
    assert payload[0]["stats"]["images"] == payload[0]["stats"]["plain_configs"]


@pytest.mark.parametrize("check", ["all", "soundness", "completeness", "causal-consistency"])
def test_explore_json_matches_the_recorded_output(runner, check):
    result = runner.invoke(
        main,
        ["explore", TRAVEL, "--bound", "steps=200,rounds=1", "--check", check, "--json"],
    )
    assert result.exit_code == 0
    golden = DATA / f"explore_travel_s200_r1_{check}.json"
    assert result.stdout_bytes == golden.read_bytes()


@pytest.mark.parametrize("protocol", ["travel", "static_order_loop"])
def test_explore_json_at_two_rounds_matches_the_recorded_output(runner, protocol):
    # travel: 532 forward classes; with reversals 2,590 configurations
    # (1,979 in live classes, one for each of 611 dead ones) and 808
    # reversal edges.  static_order_loop: 155 classes, 549 configurations
    # with reversals, 168 reversal edges and 80 plain configurations.
    result = runner.invoke(
        main,
        ["explore", str(DATA / f"{protocol}.rchor"), "--bound", "steps=200,rounds=2", "--json"],
    )
    assert result.exit_code == 0
    golden = DATA / f"explore_{protocol}_s200_r2_all.json"
    assert result.stdout_bytes == golden.read_bytes()


def test_explore_truncation_exits_three(runner):
    result = runner.invoke(
        main, ["explore", TRAVEL, "--bound", "steps=3,rounds=1", "--check", "soundness"]
    )
    assert result.exit_code == 3
    assert "inconclusive" in result.output


def test_explore_is_inconclusive_while_reversals_wait_at_the_last_frontier(runner):
    # At 19 steps the last frontier still enables reversals: 4 edges are
    # checked within the bound, 8 when the search runs out.
    result = runner.invoke(
        main,
        ["explore", str(DATA / "static_order_loop.rchor"), "--bound", "steps=19,rounds=1",
         "--check", "causal-consistency"],
    )
    assert result.exit_code == 3
    assert result.output == (
        "causal-consistency: inconclusive\n"
        "  4 reversal edges, all consistent (state space not exhausted at this bound)\n"
    )


@pytest.mark.parametrize("steps", [12, 16])
def test_explore_fails_a_rollback_that_cannot_be_carried_out(runner, steps):
    result = runner.invoke(
        main,
        ["explore", CONSUMED_MARKER, "--bound", f"steps={steps},rounds=1",
         "--check", "causal-consistency", "--json"],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    (verdict,) = json.loads(result.output)
    assert verdict["verdict"] == "fail"
    assert verdict["details"] == ROLLBACK_FAILURE


def test_explore_text_names_the_failed_rollback(runner):
    result = runner.invoke(main, ["explore", CONSUMED_MARKER, "--bound", "steps=16,rounds=1"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "soundness: pass" in result.output
    assert f"causal-consistency: fail\n  {ROLLBACK_FAILURE}\n" in result.output


def test_simulate_failed_rollback_exits_one(runner):
    schedule = DATA / "rollback_consumed_marker.schedule.json"
    result = runner.invoke(main, ["simulate", CONSUMED_MARKER, "--schedule", str(schedule)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.endswith(f"error: {ROLLBACK_FAILURE}\n")


def test_explore_rejects_malformed_bounds(runner):
    result = runner.invoke(main, ["explore", TRAVEL, "--bound", "steps=3"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["explore", TRAVEL, "--bound", "steps=3,rounds=0"])
    assert result.exit_code == 2
    # a repeated key is refused, not silently overwritten by its last value
    result = runner.invoke(main, ["explore", TRAVEL, "--bound", "steps=5,rounds=1,steps=0"])
    assert result.exit_code == 2
    assert "--bound gives steps more than once" in result.output
    result = runner.invoke(main, ["explore", TRAVEL, "--bound", "steps=abc,rounds=1"])
    assert result.exit_code == 2
    assert "--bound steps must be an integer, not 'abc'" in result.output
    assert "invalid literal" not in result.output
    result = runner.invoke(main, ["explore", TRAVEL, "--bound", "steps=3,rounds=1.5"])
    assert result.exit_code == 2
    assert "--bound rounds must be an integer, not '1.5'" in result.output


def test_explore_rejects_unknown_check(runner):
    result = runner.invoke(
        main, ["explore", TRAVEL, "--bound", "steps=3,rounds=1", "--check", "magic"]
    )
    assert result.exit_code == 2


# -- colour handling -------------------------------------------------------------


def test_color_can_be_forced(runner, monkeypatch):
    monkeypatch.setenv("CHORREV_COLOR", "1")
    result = runner.invoke(main, ["check", TRAVEL])
    assert "\x1b[32m" in result.output
    monkeypatch.setenv("CHORREV_COLOR", "0")
    result = runner.invoke(main, ["check", TRAVEL])
    assert "\x1b[" not in result.output
