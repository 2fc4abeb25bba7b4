"""Seeded generator of well-formed, well-branched choreographies for compile-mix.

Every protocol is valid by construction:

- each term of a ``;`` chain starts with a participant of the term before
  it, so every sequential composition is defined;
- a sender has always appeared earlier in its scope, and a choice branch
  is a fresh scope opened by its decider that introduces all of its
  participants before nesting anything, so every other participant's
  first event in a branch is a receive and occurs in every branch;
- message names are unique, so first receives tell branches apart;
- choice guards only watch channels of the decider;
- a loop body starts with its controller, so the controller occurs in it.

Protocols come from a fixed catalogue.  A block of the workload has one
slot per size from 10 to 50 control points (100 slots, 3 to 5
participants by slot), and the workload seed picks one of ``VARIANTS``
protocols for each slot.  Stratifying sizes this way keeps the mix of
small and large protocols, whose cost grows steeply with size, the same on
every seed; the golden file covers the whole catalogue.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

SLOTS = 100
VARIANTS = 10
MIN_CPS, MAX_CPS = 10, 50
NAMES = "ABCDE"
OPS = ("<", "<=", "==", ">=", ">")
MIN_SIZE = {"inter": 1, "loop": 2, "par": 3, "choice": 3}
REQUIRED = ("par", "choice", "loop")


def slot_shape(slot: int) -> tuple[int, int]:
    """(control points, participants) of a catalogue slot."""
    return MIN_CPS + (MAX_CPS - MIN_CPS) * slot // (SLOTS - 1), 3 + slot % 3


@dataclass
class Protocol:
    key: str
    text: str
    cps: int
    participants: int
    mix: Counter
    rejections: int


class _Builder:
    def __init__(self, rng: random.Random, parts: list[str]):
        self.rng = rng
        self.parts = parts
        self.messages = 0
        self.mix: Counter = Counter()

    def split(self, total: int, pieces: int) -> list[int]:
        """``total`` as ``pieces`` positive parts."""
        cuts = sorted(self.rng.sample(range(1, total), pieces - 1))
        return [b - a for a, b in zip([0] + cuts, cuts + [total])]

    def chain(self, budget, starter, scope, known, depth, required=(), banned=frozenset(), in_par=False):
        """A ``;`` chain of terms using exactly ``budget`` control points.

        Returns the text and the participants involved, and adds every
        participant the chain introduces to ``known``.  The chain opens by
        introducing the participants of ``scope`` it does not know yet, as
        far as the budget left for ``required`` constructs allows.
        ``banned`` lists the deciders of enclosing choices.
        """
        kinds = list(required)
        self.rng.shuffle(kinds)
        terms, involved, prev = [], set(), {starter}
        while budget > 0:
            s = self.rng.choice(sorted(prev & known))
            kind, size = self.pick(budget, kinds, depth, known, scope, s not in banned and not in_par)
            budget -= size
            text, prev = self.term(kind, size, s, scope, known, depth, banned, in_par)
            terms.append(text)
            involved |= prev
        return " ; ".join(terms), involved

    def pick(self, budget, kinds, depth, known, scope, may_choose) -> tuple[str, int]:
        rest = sum(MIN_SIZE[k] for k in kinds)
        if any(p not in known for p in scope) and budget - 1 >= rest:
            return "inter", 1
        if kinds:
            if budget - 1 >= rest and self.rng.random() < 0.3:
                return "inter", 1
            kind = kinds.pop()
            rest -= MIN_SIZE[kind]
            return kind, self.rng.randint(MIN_SIZE[kind], max(MIN_SIZE[kind], min(budget - rest, 12)))
        options = ["inter"] * 5
        if depth < 3 and budget >= 3:
            options.append("par")
            # The projection can neither interleave a decider's branch machine
            # with a par sibling nor nest two choices of the same decider.
            if may_choose:
                options.append("choice")
        if depth < 2 and budget >= 2:
            options.append("loop")
        kind = self.rng.choice(options)
        return kind, self.rng.randint(MIN_SIZE[kind], min(budget, 10) if kind != "inter" else 1)

    def term(self, kind, size, s, scope, known, depth, banned, in_par) -> tuple[str, set]:
        self.mix[kind] += 1
        if kind == "inter":
            fresh = [p for p in scope if p not in known]
            r = self.rng.choice(fresh or [p for p in scope if p != s])
            known.add(r)
            self.messages += 1
            return f"{s} -> {r} : m{self.messages}", {s, r}
        if kind == "loop":
            body, parts = self.chain(size - 1, s, scope, known, depth + 1, banned=banned, in_par=in_par)
            return f"loop @{s} {{ {body} }}", parts
        pieces = min(self.rng.choice((2, 2, 3)), size - 1)
        if kind == "par":
            branches, parts, after = [], set(), set(known)
            for b in self.split(size - 1, pieces):
                mine = set(known)
                text, inv = self.chain(b, s, scope, mine, depth + 1, banned=banned, in_par=True)
                branches.append(text)
                parts |= inv
                after |= mine
            known |= after
            return "par { " + " | ".join(branches) + " }", parts
        budgets = self.split(size - 1, pieces)
        others = [p for p in scope if p != s]
        fresh = [p for p in others if p not in known]
        self.rng.shuffle(fresh)
        width = self.rng.randint(1, min(len(others), min(budgets)))
        stale = [p for p in others if p not in fresh]
        branch_scope = [s] + sorted((fresh + self.rng.sample(stale, len(stale)))[:width])
        branches, parts = [], set()
        for b in budgets:
            text, inv = self.chain(b, s, branch_scope, {s}, depth + 1, banned=banned | {s})
            branches.append(f"{{ {text} }} unless {self.guard(s)}")
            parts |= inv
        known |= parts
        at = f" @{s}" if self.rng.random() < 0.5 else ""
        return f"choice{at} {{ " + " + ".join(branches) + " }", parts

    def guard(self, d: str) -> str:
        def atom() -> str:
            other = self.rng.choice([p for p in self.parts if p != d])
            a, b = (d, other) if self.rng.random() < 0.5 else (other, d)
            msg = f"m{self.rng.randint(1, self.messages)}"
            if self.rng.random() < 0.3:
                return f"{msg} in {a}->{b}"
            return f"count({msg}, {a}->{b}) {self.rng.choice(OPS)} {self.rng.randint(0, 2)}"

        roll = self.rng.random()
        if roll < 0.6:
            return atom()
        if roll < 0.8:
            return f"!{atom()}"
        return f"{atom()} {self.rng.choice(('&&', '||'))} {atom()}"


def generate(slot: int, variant: int) -> Protocol:
    """Catalogue protocol ``variant`` of ``slot``; the same key gives the same text.

    A draw that misses a participant is rejected and redrawn from the next
    sub-seed; the count of such rejections is reported and should be 0.
    """
    cps, n_parts = slot_shape(slot)
    key = f"{slot}-{variant}"
    parts = list(NAMES[:n_parts])
    for attempt in range(100):
        b = _Builder(random.Random(f"compile-mix:{key}:{attempt}"), parts)
        text, involved = b.chain(cps, parts[0], parts, {parts[0]}, 0, required=REQUIRED)
        if sum(b.mix.values()) != cps:
            raise AssertionError(f"generator used the wrong number of control points on {key}")
        if involved == set(parts):
            return Protocol(key, text, cps, n_parts, b.mix, attempt)
    raise AssertionError(f"no draw of {key} involves every participant")


def block(seed: int, index: int, slots: int = SLOTS) -> list[Protocol]:
    """Block ``index`` of the stream for ``seed``: one protocol per slot, shuffled."""
    rng = random.Random(f"compile-mix-block:{seed}:{index}")
    chosen = [generate(slot, rng.randrange(VARIANTS)) for slot in range(slots)]
    rng.shuffle(chosen)
    return chosen
