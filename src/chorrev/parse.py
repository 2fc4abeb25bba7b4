"""Parser for the choreography surface syntax.

The grammar::

    chor   := term (";" term)*
    term   := inter | par | loop | choice | "(" chor ")"
    inter  := ID "->" ID ":" ID cpann?
    par    := "par" cpann? "{" chor ("|" chor)+ "}"
    loop   := "loop" cpann? "@" ID "{" chor "}"
    choice := "choice" cpann? ("@" ID)? "{" branch ("+" branch)+ "}"
    branch := "{" chor "}" "unless" guard
    cpann  := "@cp" INT
    guard  := "tt" | "ff" | atom | "!" guard | guard "||" guard
            | guard "&&" guard | "(" guard ")"
    atom   := "count" "(" ID "," ID "->" ID ")" op INT
            | ID "in" ID "->" ID
    op     := "<" | "<=" | "==" | ">=" | ">"

``//`` starts a line comment.  Identifiers are ``[A-Za-z][A-Za-z0-9_]*``;
the words ``par loop choice unless count in tt ff`` are reserved.  ``!``
binds tighter than ``&&``, which binds tighter than ``||``.  A ``;`` chain
is one ``Seq`` node, and parentheses inside it keep their grouping.

Control points may be annotated explicitly with ``@cp N`` on every
construct, or omitted everywhere, in which case constructs are numbered
1, 2, 3, ... in preorder.  Mixing the two styles is rejected, as are
duplicate annotations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NoReturn

from .model import (
    And,
    Channel,
    Choice,
    ChoiceBranch,
    Chor,
    CountAtom,
    GFalse,
    GTrue,
    Guard,
    Interaction,
    Loop,
    MemberAtom,
    Not,
    Or,
    Par,
    Seq,
    subterms,
)

KEYWORDS = frozenset({"par", "loop", "choice", "unless", "count", "in", "tt", "ff"})


class ParseError(Exception):
    def __init__(
        self,
        message: str,
        line: int | None = None,
        col: int | None = None,
        source: str | None = None,
    ):
        self.message = message
        self.line = line
        self.col = col
        self.source = source
        super().__init__(self._format())

    def _format(self) -> str:
        if self.line is None:
            return f"parse error: {self.message}"
        head = f"parse error at line {self.line}, column {self.col}: {self.message}"
        if self.source is not None:
            lines = self.source.splitlines()
            if 1 <= self.line <= len(lines):
                snippet = lines[self.line - 1]
                # The snippet's tabs stay in the padding, so that the caret
                # lines up under the column however wide a tab is shown.
                pad = "".join("\t" if c == "\t" else " " for c in snippet[: self.col - 1])
                caret = pad.ljust(self.col - 1) + "^"
                return f"{head}\n  {snippet}\n  {caret}"
        return head


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_SPEC = [
    ("skip", r"[ \t\r\n]+|//[^\n]*"),
    ("@cp", r"@cp\b"),
    ("int", r"\d+"),
    ("id", r"[A-Za-z][A-Za-z0-9_]*"),
    ("->", r"->"),
    ("||", r"\|\|"),
    ("&&", r"&&"),
    ("<=", r"<="),
    (">=", r">="),
    ("==", r"=="),
    ("<", r"<"),
    (">", r">"),
    (";", r";"),
    (":", r":"),
    ("{", r"\{"),
    ("}", r"\}"),
    ("|", r"\|"),
    ("+", r"\+"),
    ("@", r"@"),
    ("(", r"\("),
    (")", r"\)"),
    (",", r","),
    ("!", r"!"),
]
# One scan finds every token.  A match is the skipped text before a token,
# then the token (by the first pattern of ``_TOKEN_SPEC`` that matches), a
# character no pattern takes, or nothing at the end of the input.
_SCAN_RE = re.compile(
    f"((?:{_TOKEN_SPEC[0][1]})*)"
    f"(?:({'|'.join(rx for _, rx in _TOKEN_SPEC[1:])})|(.)|\\Z)"
)
# A token of fixed text is its own kind; otherwise it is a name or a number.
_FIXED = KEYWORDS | {kind for kind, _ in _TOKEN_SPEC if kind not in ("skip", "int", "id")}


def _kind(lexeme: str) -> str:
    if lexeme in _FIXED:
        return lexeme
    return "id" if lexeme[0].isalpha() else "int"


def _scan(text: str) -> list[tuple[str, str, str]]:
    """The matches of ``_SCAN_RE`` in ``text`` that end in a token.

    Each is the skipped text before the token, the token, and ``""``.
    Raises :class:`ParseError` at the first character that no token takes.
    """
    found: list[tuple[str, str, str]] = []
    for match in _SCAN_RE.findall(text):
        if match[1]:
            found.append(match)
        elif match[2]:
            pos = sum(len(skipped) + len(lexeme) for skipped, lexeme, _ in found) + len(match[0])
            line_start = text.rfind("\n", 0, pos) + 1
            raise ParseError(
                f"unexpected character {match[2]!r}",
                text.count("\n", 0, pos) + 1,
                pos - line_start + 1,
                text,
            )
    return found


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, each with its line and column.

    No token spans a line end, so lines are counted in the skipped text.
    """
    tokens: list[Token] = []
    line = 1
    pos = 0
    line_start = 0  # the offset of the current line's first character
    for skipped, lexeme, _ in _scan(text):
        if skipped:
            if "\n" in skipped:
                line += skipped.count("\n")
                line_start = pos + skipped.rfind("\n") + 1
            pos += len(skipped)
        tokens.append(Token(_kind(lexeme), lexeme, line, pos - line_start + 1))
        pos += len(lexeme)
    return tokens


class _Parser:
    """Recursive descent over the token texts and kinds of one scan.

    A token's line and column matter only to an error, so ``tokens``, the
    full :class:`Token` list, is made only when one is raised.
    """

    def __init__(self, source: str):
        self.source = source
        self.texts = [lexeme for _, lexeme, _ in _scan(source)]
        # Each token's kind, read once, and None past the last token.
        self.kinds = [*map(_kind, self.texts), None]
        self.pos = 0
        self.annotations: list[tuple[int, int]] = []  # (value, token index)
        self.unannotated = 0

    @cached_property
    def tokens(self) -> list[Token]:
        return tokenize(self.source)

    # -- token plumbing ----------------------------------------------------

    def accept(self, kind: str) -> bool:
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, what: str | None = None) -> str:
        """Consume a token of ``kind`` and return its text."""
        pos = self.pos
        if self.kinds[pos] == kind:
            self.pos = pos + 1
            return self.texts[pos]
        self.fail(what or f"expected {kind!r}")

    def fail(self, message: str, at: int | None = None) -> NoReturn:
        """Raise ``message`` at token ``at``, by default the next one."""
        at = self.pos if at is None else at
        if at < len(self.texts):
            tok = self.tokens[at]
            raise ParseError(message, tok.line, tok.col, self.source)
        if self.texts:
            last = self.tokens[-1]
            raise ParseError(
                f"unexpected end of input; {message}",
                last.line,
                last.col + len(last.text),
                self.source,
            )
        raise ParseError(f"empty input; {message}", 1, 1, self.source)

    # -- choreography grammar ----------------------------------------------

    def chor(self) -> Chor:
        terms = [self.term()]
        while self.kinds[self.pos] == ";":
            self.pos += 1
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else Seq(tuple(terms))

    def term(self) -> Chor:
        kind = self.kinds[self.pos]
        if kind == "id":
            sender = self.texts[self.pos]
            self.pos += 1
            self.expect("->", "expected '->' after the sender")
            receiver = self.expect("id", "expected the receiver name")
            self.expect(":", "expected ':' before the message name")
            message = self.expect("id", "expected the message name")
            return Interaction(sender, receiver, message, self.cpann())
        if kind == "(":
            self.pos += 1
            inner = self.chor()
            self.expect(")")
            return inner
        if kind == "par":
            self.pos += 1
            cp = self.cpann()
            self.expect("{")
            branches = [self.chor()]
            self.expect("|", "par needs at least two branches separated by '|'")
            branches.append(self.chor())
            while self.accept("|"):
                branches.append(self.chor())
            self.expect("}")
            return Par(tuple(branches), cp)
        if kind == "loop":
            self.pos += 1
            cp = self.cpann()
            self.expect("@", "expected '@' and the loop controller")
            controller = self.expect("id", "expected the loop controller name")
            self.expect("{")
            body = self.chor()
            self.expect("}")
            return Loop(controller, body, cp)
        if kind == "choice":
            self.pos += 1
            cp = self.cpann()
            at = None
            if self.accept("@"):
                at = self.expect("id", "expected a participant name after '@'")
            self.expect("{")
            branches = [self.branch()]
            self.expect("+", "choice needs at least two branches separated by '+'")
            branches.append(self.branch())
            while self.accept("+"):
                branches.append(self.branch())
            self.expect("}")
            return Choice(tuple(branches), cp, at)
        self.fail("expected an interaction, 'par', 'loop', 'choice' or '('")

    def branch(self) -> ChoiceBranch:
        self.expect("{", "expected '{' opening a choice branch")
        body = self.chor()
        self.expect("}")
        self.expect("unless", "expected 'unless' and the branch guard")
        return ChoiceBranch(body, self.guard())

    def cpann(self) -> int:
        if self.kinds[self.pos] == "@cp":
            self.pos += 1
            at = self.pos
            value = int(self.expect("int", "expected the control point number"))
            self.annotations.append((value, at))
            return value
        # Called before a construct's children, so this numbers in preorder.
        self.unannotated += 1
        return self.unannotated

    # -- guard grammar -----------------------------------------------------

    def guard(self) -> Guard:
        left = self.guard_and()
        while self.accept("||"):
            left = Or(left, self.guard_and())
        return left

    def guard_and(self) -> Guard:
        left = self.guard_not()
        while self.accept("&&"):
            left = And(left, self.guard_not())
        return left

    def guard_not(self) -> Guard:
        if self.accept("!"):
            return Not(self.guard_not())
        return self.guard_atom()

    def guard_atom(self) -> Guard:
        if self.accept("("):
            inner = self.guard()
            self.expect(")")
            return inner
        if self.accept("tt"):
            return GTrue()
        if self.accept("ff"):
            return GFalse()
        if self.accept("count"):
            self.expect("(")
            message = self.expect("id", "expected the counted message name")
            self.expect(",")
            channel = self.channel()
            self.expect(")")
            op = None
            for kind in ("<=", ">=", "==", "<", ">"):
                if self.accept(kind):
                    op = kind
                    break
            if op is None:
                self.fail("expected a comparison (<, <=, ==, >=, >)")
            bound = int(self.expect("int", "expected the count bound"))
            return CountAtom(message, channel, op, bound)
        if self.kinds[self.pos] == "id":
            message = self.texts[self.pos]
            self.pos += 1
            self.expect("in", "expected 'in' after the message name")
            return MemberAtom(message, self.channel())
        self.fail("expected a guard")

    def channel(self) -> Channel:
        sender = self.expect("id", "expected the channel sender")
        self.expect("->", "expected '->' in the channel")
        receiver = self.expect("id", "expected the channel receiver")
        return Channel(sender, receiver)


def parse_choreography(text: str) -> Chor:
    """Parse surface syntax into a choreography tree.

    Raises :class:`ParseError` for syntax errors, mixed control point
    annotation styles, duplicate annotations and input nested deeper than
    the recursive descent and the tree walks can follow.
    """
    parser = _Parser(text)
    try:
        g = parser.chor()
        # Validation and every later tree walk recurse once per level too.
        for _ in subterms(g):
            pass
    except RecursionError:
        raise ParseError("input nested too deeply") from None
    if parser.kinds[parser.pos] is not None:
        parser.fail("unexpected trailing input")
    if parser.annotations and parser.unannotated:
        parser.fail(
            "control points must be annotated on every construct or on none",
            parser.annotations[0][1],
        )
    seen: set[int] = set()
    for value, at in parser.annotations:
        if value in seen:
            parser.fail(f"control point {value} is annotated twice", at)
        seen.add(value)
    return g


def parse_guard(text: str) -> Guard:
    """Parse a guard expression on its own (mostly useful in tests)."""
    parser = _Parser(text)
    g = parser.guard()
    if parser.kinds[parser.pos] is not None:
        parser.fail("unexpected trailing input")
    return g
