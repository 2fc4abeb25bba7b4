"""Command line front end.

Exit codes: 0 success, 1 semantic failure (invalid choreography, stuck
schedule, failed check), 2 parse or usage error, 3 exploration or
simulation truncated before reaching a verdict.  Set CHORREV_COLOR=0 or
1 to force colours off or on.
"""

from __future__ import annotations

import errno
import json
import os
import random
import sys
from pathlib import Path
from typing import NoReturn, Optional

import click

from . import runtime
from .causality import CausalityAnalyzer, logs_beyond
from .explore import CHECKS, Bound, run_checks
from .machine import Branch, ProjectionError, RCfsm, to_dot
from .model import Channel, control_points, guard_text, participants, validate
from .order import UndefinedSemantics, semantics, well_branched
from .parse import ParseError, parse_choreography
from .projection import System, project_system
from .reverse import ReversalCandidate, RollbackFailed, enabled_reversals, step_reverse
from .runtime import (
    Configuration,
    NotEnabled,
    find_transition,
    initial_configuration,
)

_COLOR = {"0": False, "1": True}


def _color() -> Optional[bool]:
    return _COLOR.get(os.environ.get("CHORREV_COLOR", ""), None)


def _echo(text: str, nl: bool = True, **style) -> None:
    click.echo(click.style(text, **style) if style else text, color=_color(), nl=nl)


def _verdict_style(verdict: str) -> dict:
    return {
        "pass": {"fg": "green"},
        "fail": {"fg": "red", "bold": True},
        "inconclusive": {"fg": "yellow"},
    }.get(verdict, {})


def _file_error(exc: OSError) -> NoReturn:
    """Exit on a file that cannot be read or written."""
    click.echo(f"error: {exc}", err=True)
    sys.exit(2)


def _check_parent(path: str) -> None:
    """Exit before any work when the directory of an output file is missing."""
    parent = Path(path).parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        _file_error(OSError(code, os.strerror(code), str(parent)))


def _load(path: str):
    try:
        # utf-8-sig: a byte-order mark some editors write is not part of the text.
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        _file_error(exc)
    except UnicodeDecodeError as exc:
        click.echo(f"error: {path} is not UTF-8 text: {exc}", err=True)
        sys.exit(2)
    try:
        return parse_choreography(text)
    except ParseError as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)


def _too_deep() -> NoReturn:
    """Exit as the parser does on input nested too deeply: validation, the
    event order and projection recurse deeper per level than the parser."""
    click.echo(str(ParseError("input nested too deeply")), err=True)
    sys.exit(2)


def _project(g) -> System:
    try:
        return project_system(g)
    except (ProjectionError, UndefinedSemantics) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except RecursionError:
        _too_deep()


def _parse_channel(text: str) -> Channel:
    s, r = text.split("->", 1)
    return Channel(s.strip(), r.strip())


@click.group()
def main():
    """Compile, simulate, and check reversible choreographies."""


# ---------------------------------------------------------------------------
# check


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="machine readable report")
def check(file, as_json):
    """Validate a choreography: well-formedness and well-branchedness."""
    g = _load(file)
    try:
        issues = list(validate(g).issues)
        semantics_error = None
        if not issues:
            try:
                issues = list(well_branched(g, semantics(g)).issues)
            except UndefinedSemantics as exc:
                semantics_error = str(exc)
    except RecursionError:
        _too_deep()
    ok = not issues and semantics_error is None
    if as_json:
        payload = {
            "ok": ok,
            "issues": [
                {"kind": i.kind, "detail": i.detail, "cp": i.cp} for i in issues
            ],
            "undefined": semantics_error,
            "participants": sorted(participants(g)),
            "controlPoints": len(control_points(g)),
        }
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if ok:
            _echo(f"{file}: ok", fg="green")
            _echo(
                f"  participants: {', '.join(sorted(participants(g)))};"
                f" control points: {len(control_points(g))}"
            )
        else:
            _echo(f"{file}: invalid", fg="red", bold=True)
            if semantics_error is not None:
                _echo(f"  undefined semantics: {semantics_error}")
            for issue in issues:
                where = f" (control point {issue.cp})" if issue.cp is not None else ""
                _echo(f"  {issue.kind}{where}: {issue.detail}")
    sys.exit(0 if ok else 1)


# ---------------------------------------------------------------------------
# project


def _transition_text(m: RCfsm, t) -> str:
    ev = t.event
    base = (
        f"  {m.alias(t.src)} --{ev.channel}{ev.polarity}{ev.message}@{ev.cp}-->"
        f" {m.alias(t.dst)}"
    )
    d = t.decoration
    if isinstance(d, Branch):
        base += (
            f"  [{'commits branch' if d.committed else 'branch'} of {m.alias(d.choice_state)}:"
            f" {d.first_output.message} unless {guard_text(d.guard)}]"
        )
    return base


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--participant", help="only this participant's machine")
@click.option("--dot", "dot_dir", type=click.Path(file_okay=False), help="write Graphviz files here")
def project(file, participant, dot_dir):
    """Project a choreography onto reversible communicating machines."""
    g = _load(file)
    system = _project(g)
    if participant is not None and participant not in system.machines:
        click.echo(
            f"error: no participant {participant!r};"
            f" the choreography involves {', '.join(sorted(system.machines))}",
            err=True,
        )
        sys.exit(1)
    targets = [participant] if participant else sorted(system.machines)
    for a in targets:
        m = system.machines[a]
        finals = ", ".join(m.alias(s) for s in sorted(m.finals))
        _echo(f"{a}: {len(m.states)} states, initial {m.alias(m.initial)}, final {finals}", bold=True)
        for s in m.states:
            for t in m.out_of(s):
                _echo(_transition_text(m, t))
    if dot_dir:
        try:
            os.makedirs(dot_dir, exist_ok=True)
            for a in targets:
                path = Path(dot_dir) / f"{a}.dot"
                path.write_text(to_dot(system.machines[a]), encoding="utf-8")
                _echo(f"wrote {path}")
        except OSError as exc:
            _file_error(exc)
    sys.exit(0)


# ---------------------------------------------------------------------------
# simulate


def _log_json(m: RCfsm, ch: Channel, log) -> dict:
    return {
        "channel": str(ch),
        "message": log.message,
        "cp": log.cp,
        "timestamp": log.timestamp,
        "senderState": m.alias(log.sender_state),
    }


def _config_json(cfg: Configuration, system: System) -> dict:
    channels = {}
    for ch, cs in cfg.chi:
        m = system.machines[ch.sender]
        channels[str(ch)] = {
            "consumed": [_log_json(m, ch, log) for log in cs.consumed],
            "pending": [_log_json(m, ch, log) for log in cs.pending],
        }
    book = []
    for a, q, entry in cfg.book:
        m = system.machines[a]
        book.append(
            {
                "participant": a,
                "state": m.alias(q),
                "tried": sorted(
                    (
                        {
                            "message": ev.message,
                            "cp": ev.cp,
                            "channel": str(ev.channel),
                            "guard": guard_text(gd),
                        }
                        for ev, gd in entry.tried
                    ),
                    key=lambda d: (d["channel"], d["cp"], d["message"]),
                ),
                "exhausted": entry.exhausted,
            }
        )
    return {
        "sigma": {a: system.machines[a].alias(q) for a, q in cfg.sigma},
        "channels": channels,
        "book": book,
    }


class _Simulation:
    def __init__(self, system: System, scope: str, block_on_guard: bool):
        self.system = system
        self.scope = scope
        self.block = block_on_guard
        self.analyzer = CausalityAnalyzer(system)
        self.cfg = initial_configuration(system)
        self.entries: list[dict] = []
        self.steps = 0

    def moves(self) -> list:
        """Every enabled move, forward ones first: ``("fwd", (participant,
        transition))`` or ``("rev", candidate)``."""
        forward = runtime.enabled_forward(self.cfg, self.system, self.scope, self.block)
        reversals = enabled_reversals(self.cfg, self.system, self.analyzer, self.scope)
        return [("fwd", mv) for mv in forward] + [("rev", c) for c in reversals]

    def apply(self, move) -> dict:
        kind, item = move
        return self.apply_forward(*item) if kind == "fwd" else self.apply_reversal(item)

    def apply_forward(self, a: str, t) -> dict:
        m = self.system.machines[a]
        pre = self.cfg
        if t.event.polarity == "!":
            self.cfg = runtime.step_output(pre, self.system, a, t, self.scope, self.block)
            log = self.cfg.channel_state(t.event.channel).logs[-1]
            kind = "out"
        else:
            self.cfg = runtime.step_input(pre, self.system, a, t)
            cs = self.cfg.channel_state(t.event.channel)
            log = cs.logs[cs.head - 1]
            kind = "inp"
        entry = {
            "kind": kind,
            "participant": a,
            "channel": str(t.event.channel),
            "message": t.event.message,
            "cp": t.event.cp,
            "timestamp": log.timestamp,
            "fromState": m.alias(t.src),
            "toState": m.alias(t.dst),
        }
        self.entries.append(entry)
        self.steps += 1
        return entry

    def apply_reversal(self, cand: ReversalCandidate) -> dict:
        m = self.system.machines[cand.participant]
        pre = self.cfg
        self.cfg = step_reverse(pre, self.system, cand, self.analyzer, self.scope)
        # The analyzer still holds the cuts of ``pre``: this asks no second ``cut``.
        removed = logs_beyond(pre, self.analyzer.rollback_cut(pre, cand.anchor))
        entry = {
            "kind": "rev",
            "participant": cand.participant,
            "choiceState": m.alias(cand.choice_state),
            "channel": str(cand.first_output.channel),
            "message": cand.first_output.message,
            "cp": cand.first_output.cp,
            "guard": guard_text(cand.guard),
            "anchor": _log_json(m, cand.anchor[0], cand.anchor[1]),
            "removed": sorted(
                (
                    _log_json(self.system.machines[ch.sender], ch, log)
                    for ch, log in removed
                ),
                key=lambda d: (d["channel"], d["timestamp"]),
            ),
            "exhausted": self.cfg.book_entry(cand.participant, cand.choice_state).exhausted,
        }
        self.entries.append(entry)
        self.steps += 1
        return entry

    def random_step(self, rng: random.Random) -> Optional[dict]:
        pool = self.moves()
        if not pool:
            return None
        return self.apply(pool[rng.randrange(len(pool))])


def _describe_entry(entry: dict) -> str:
    if entry["kind"] in ("out", "inp"):
        arrow = "sends" if entry["kind"] == "out" else "receives"
        return (
            f"{entry['participant']} {arrow} {entry['message']}@{entry['cp']}"
            f" on {entry['channel']} (ts {entry['timestamp']},"
            f" {entry['fromState']} -> {entry['toState']})"
        )
    removed = len(entry["removed"])
    return (
        f"{entry['participant']} reverses branch {entry['message']}@{entry['cp']}"
        f" of {entry['choiceState']}: {removed} logs undone,"
        f" exhausted={str(entry['exhausted']).lower()}"
    )


def _match_reversal(sim: _Simulation, d: dict) -> ReversalCandidate:
    cands = enabled_reversals(sim.cfg, sim.system, sim.analyzer, sim.scope)
    hits = []
    for c in cands:
        m = sim.system.machines[c.participant]
        if c.participant != d["participant"]:
            continue
        if "message" in d and c.first_output.message != d["message"]:
            continue
        if "cp" in d and c.first_output.cp != d["cp"]:
            continue
        if "channel" in d and c.first_output.channel != _parse_channel(d["channel"]):
            continue
        if "choiceState" in d and m.alias(c.choice_state) != d["choiceState"]:
            continue
        hits.append(c)
    if not hits:
        raise NotEnabled(f"no reversal matches directive {d}")
    if len(hits) > 1:
        raise NotEnabled(f"directive {d} is ambiguous between {len(hits)} reversals")
    return hits[0]


_DIRECTIVE_KINDS = ("out", "inp", "rev", "auto")


def _directive_problem(d, system: System) -> Optional[str]:
    """What makes a schedule directive malformed, or None if nothing does."""
    if not isinstance(d, dict):
        return "a directive must be a JSON object"
    kind = d.get("kind")
    if kind not in _DIRECTIVE_KINDS:
        return f"unknown kind {kind!r}; expected one of {', '.join(_DIRECTIVE_KINDS)}"
    required = {"out": "cp", "inp": "cp", "auto": "steps"}.get(kind)
    for key in ("cp", "steps"):
        if key == required and key not in d:
            return f"missing {key!r}"
        if key in d and (not isinstance(d[key], int) or isinstance(d[key], bool)):
            return f"{key!r} must be an integer"
    if d.get("steps", 0) < 0:
        return "'steps' must not be negative"
    if kind != "auto":
        who = d.get("participant")
        if who is None:
            return "missing 'participant'"
        if not isinstance(who, str) or who not in system.machines:
            return f"unknown participant {who!r}"
    channel = d.get("channel")
    if channel is not None and not (
        isinstance(channel, str)
        and len(ends := channel.split("->")) == 2
        and all(end.strip() in system.machines for end in ends)
    ):
        return f"malformed channel {channel!r}; expected SENDER->RECEIVER, two participants"
    return None


def _load_schedule(path: str, system: System) -> list:
    """Read a schedule and check every directive before any of them runs."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        directives = raw.get("entries") if isinstance(raw, dict) else raw
        if not isinstance(directives, list):
            raise ValueError('expected a list of directives or {"entries": [...]}')
        for i, d in enumerate(directives, 1):
            problem = _directive_problem(d, system)
            if problem is not None:
                raise ValueError(f"directive {i} {json.dumps(d, ensure_ascii=False)}: {problem}")
    except (OSError, ValueError, RecursionError) as exc:
        click.echo(f"error: malformed schedule {path}: {exc}", err=True)
        sys.exit(2)
    return directives


def _run_directive(sim: _Simulation, d: dict, rng: random.Random, max_steps: int) -> bool:
    """Execute one validated schedule directive; False when the step budget ran out."""
    kind = d["kind"]
    if kind == "auto":
        for _ in range(d["steps"]):
            if sim.steps >= max_steps:
                return False
            if sim.random_step(rng) is None:
                break
        return True
    if sim.steps >= max_steps:
        return False
    if kind == "rev":
        sim.apply_reversal(_match_reversal(sim, d))
        return True
    ch = _parse_channel(d["channel"]) if "channel" in d else None
    t = find_transition(
        sim.cfg,
        sim.system,
        d["participant"],
        "!" if kind == "out" else "?",
        d["cp"],
        ch,
        d.get("message"),
    )
    sim.apply_forward(d["participant"], t)
    return True


def _state_line(sim: _Simulation) -> str:
    states = ", ".join(
        f"{a}:{sim.system.machines[a].alias(q)}" for a, q in sim.cfg.sigma
    )
    queues = []
    for ch, cs in sim.cfg.chi:
        if cs.pending:
            queues.append(f"{ch}=" + ".".join(log.message for log in cs.pending))
    queue_text = "; ".join(queues) if queues else "all queues empty"
    return f"[{states}] {queue_text}"


def _interactive_loop(sim: _Simulation, max_steps: int) -> None:
    while sim.steps < max_steps:
        pool = sim.moves()
        if not pool:
            _echo("no moves available; the run is over")
            return
        _echo(_state_line(sim), bold=True)
        for i, (kind, item) in enumerate(pool):
            if kind == "fwd":
                a, t = item
                ev = t.event
                word = "send" if ev.polarity == "!" else "receive"
                _echo(f"  {i}: {a} {word} {ev.message}@{ev.cp} on {ev.channel}")
            else:
                _echo(
                    f"  {i}: {item.participant} reverse branch"
                    f" {item.first_output.message}@{item.first_output.cp}"
                )
        try:
            answer = click.prompt("step (number, q to stop)", default="q", show_default=False)
        except (EOFError, click.Abort):
            return
        if str(answer).strip().lower() in ("q", "quit", ""):
            return
        try:
            index = int(answer)
        except ValueError:
            index = -1
        if not 0 <= index < len(pool):
            _echo("not a listed move", fg="yellow")
            continue
        entry = sim.apply(pool[index])
        _echo("  " + _describe_entry(entry))


def _dump_causality(sim: _Simulation) -> None:
    base = sim.analyzer.base_relation(sim.cfg)
    if not base:
        _echo("no dependencies recorded")
        return
    _echo("dependencies of the recorded history:", bold=True)

    def label(ref):
        ch, log = ref
        return f"{log.message}@{log.cp}#{log.timestamp}({ch})"

    lines = sorted(
        f"  {label(a)} << {label(b)}  via {', '.join(sorted(set(tags)))}"
        for (a, b), tags in base.items()
    )
    for line in lines:
        _echo(line)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--schedule", "schedule_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--interactive", is_flag=True)
@click.option("--auto", type=click.IntRange(min=0), help="run this many random steps")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-steps", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False))
@click.option("--guard-scope", type=click.Choice(["pending", "full"]), default="full", show_default=True)
@click.option("--block-on-guard", is_flag=True, help="hold revertible outputs while their guard holds")
@click.option("--dump-causality", is_flag=True)
def simulate(file, schedule_path, interactive, auto, seed, max_steps, trace_path,
             guard_scope, block_on_guard, dump_causality):
    """Run the reversible system of a choreography."""
    modes = sum(1 for flag in (schedule_path, interactive, auto is not None) if flag)
    if modes != 1:
        raise click.UsageError("pick exactly one of --schedule, --interactive, --auto")
    if trace_path is not None:
        _check_parent(trace_path)
    g = _load(file)
    system = _project(g)
    directives = None if schedule_path is None else _load_schedule(schedule_path, system)
    sim = _Simulation(system, guard_scope, block_on_guard)
    rng = random.Random(seed)
    truncated = False
    try:
        if directives is not None:
            for d in directives:
                if not _run_directive(sim, d, rng, max_steps):
                    truncated = True
                    break
                if sim.entries and d["kind"] != "auto":
                    _echo("  " + _describe_entry(sim.entries[-1]))
        elif auto is not None:
            budget = min(auto, max_steps)
            truncated = auto > max_steps
            for _ in range(budget):
                entry = sim.random_step(rng)
                if entry is None:
                    truncated = False
                    break
                _echo("  " + _describe_entry(entry))
        else:
            _interactive_loop(sim, max_steps)
    except NotEnabled as exc:
        click.echo(f"error: the run got stuck: {exc}", err=True)
        sys.exit(1)
    except RollbackFailed as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    _echo(f"finished after {sim.steps} steps", bold=True)
    _echo(_state_line(sim))
    if dump_causality:
        _dump_causality(sim)
    if trace_path is not None:
        trace = {
            "source": file,
            "seed": seed,
            "guardScope": guard_scope,
            "entries": sim.entries,
            "final": _config_json(sim.cfg, system),
        }
        try:
            Path(trace_path).write_text(json.dumps(trace, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        except OSError as exc:
            _file_error(exc)
        _echo(f"wrote {trace_path}")
    sys.exit(3 if truncated else 0)


# ---------------------------------------------------------------------------
# explore


def _parse_bound(text: str) -> Bound:
    parts = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise click.UsageError(f"malformed bound piece {piece!r}; expected steps=N,rounds=N")
        key, _, value = (part.strip() for part in piece.partition("="))
        if key in parts:
            raise click.UsageError(f"--bound gives {key} more than once")
        try:
            parts[key] = int(value)
        except ValueError:
            raise click.UsageError(f"--bound {key} must be an integer, not {value!r}") from None
    if set(parts) != {"steps", "rounds"}:
        raise click.UsageError("--bound needs exactly the keys steps and rounds")
    try:
        return Bound(parts["steps"], parts["rounds"])
    except ValueError as exc:
        raise click.UsageError(str(exc))


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--bound", required=True, help="steps=N,rounds=N")
@click.option("--check", "check_name", default="all", show_default=True,
              type=click.Choice(["all", *CHECKS]))
@click.option("--json", "as_json", is_flag=True)
def explore(file, bound, check_name, as_json):
    """Bounded exploration: compare the reversible and plain semantics."""
    g = _load(file)
    system = _project(g)
    b = _parse_bound(bound)
    names = None if check_name == "all" else [check_name]
    results = run_checks(system, b, names)
    if as_json:
        payload = [
            {
                "name": r.name,
                "verdict": r.verdict,
                "passed": r.passed,
                "inconclusive": r.inconclusive,
                "details": r.details,
                "stats": r.stats,
            }
            for r in results
        ]
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in results:
            _echo(f"{r.name}: ", nl=False)
            _echo(r.verdict, **_verdict_style(r.verdict))
            _echo(f"  {r.details}")
    if any(not r.passed for r in results):
        sys.exit(1)
    if any(r.inconclusive for r in results):
        sys.exit(3)
    sys.exit(0)


if __name__ == "__main__":
    main()
