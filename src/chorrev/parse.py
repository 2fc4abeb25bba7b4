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
                caret = " " * (self.col - 1) + "^"
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
# One alternation of the patterns above, each in its own group.  ``|``
# takes the leftmost alternative that matches, as trying them in turn did,
# and ``lastindex`` names the group, hence the kind.
_TOKEN_RE = re.compile("|".join(f"({rx})" for _, rx in _TOKEN_SPEC))
_KINDS = [kind for kind, _ in _TOKEN_SPEC]


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    col = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col, text)
        kind = _KINDS[m.lastindex - 1]
        lexeme = m.group()
        if kind == "id" and lexeme in KEYWORDS:
            kind = lexeme
        if kind != "skip":
            tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.annotations: list[tuple[int, Token]] = []
        self.unannotated = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def accept(self, kind: str) -> Token | None:
        tok = self.peek()
        if tok is not None and tok.kind == kind:
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.accept(kind)
        if tok is None:
            self.fail(what or f"expected {kind!r}")
        return tok

    def fail(self, message: str, token: Token | None = None) -> None:
        tok = token if token is not None else self.peek()
        if tok is None:
            if self.tokens:
                last = self.tokens[-1]
                raise ParseError(
                    f"unexpected end of input; {message}",
                    last.line,
                    last.col + len(last.text),
                    self.source,
                )
            raise ParseError(f"empty input; {message}", 1, 1, self.source)
        raise ParseError(message, tok.line, tok.col, self.source)

    # -- choreography grammar ----------------------------------------------

    def chor(self) -> Chor:
        terms = [self.term()]
        while self.accept(";"):
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else Seq(tuple(terms))

    def term(self) -> Chor:
        if self.accept("("):
            inner = self.chor()
            self.expect(")")
            return inner
        if self.accept("par"):
            cp = self.cpann()
            self.expect("{")
            branches = [self.chor()]
            self.expect("|", "par needs at least two branches separated by '|'")
            branches.append(self.chor())
            while self.accept("|"):
                branches.append(self.chor())
            self.expect("}")
            return Par(tuple(branches), cp)
        if self.accept("loop"):
            cp = self.cpann()
            self.expect("@", "expected '@' and the loop controller")
            controller = self.expect("id", "expected the loop controller name").text
            self.expect("{")
            body = self.chor()
            self.expect("}")
            return Loop(controller, body, cp)
        if self.accept("choice"):
            cp = self.cpann()
            at = None
            if self.accept("@"):
                at = self.expect("id", "expected a participant name after '@'").text
            self.expect("{")
            branches = [self.branch()]
            self.expect("+", "choice needs at least two branches separated by '+'")
            branches.append(self.branch())
            while self.accept("+"):
                branches.append(self.branch())
            self.expect("}")
            return Choice(tuple(branches), cp, at)
        sender = self.peek()
        if sender is None or sender.kind != "id":
            self.fail("expected an interaction, 'par', 'loop', 'choice' or '('")
        self.pos += 1
        self.expect("->", "expected '->' after the sender")
        receiver = self.expect("id", "expected the receiver name").text
        self.expect(":", "expected ':' before the message name")
        message = self.expect("id", "expected the message name").text
        cp = self.cpann()
        return Interaction(sender.text, receiver, message, cp)

    def branch(self) -> ChoiceBranch:
        self.expect("{", "expected '{' opening a choice branch")
        body = self.chor()
        self.expect("}")
        self.expect("unless", "expected 'unless' and the branch guard")
        return ChoiceBranch(body, self.guard())

    def cpann(self) -> int:
        if self.accept("@cp"):
            tok = self.expect("int", "expected the control point number")
            value = int(tok.text)
            self.annotations.append((value, tok))
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
            message = self.expect("id", "expected the counted message name").text
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
            bound = int(self.expect("int", "expected the count bound").text)
            return CountAtom(message, channel, op, bound)
        tok = self.peek()
        if tok is not None and tok.kind == "id":
            self.pos += 1
            self.expect("in", "expected 'in' after the message name")
            return MemberAtom(tok.text, self.channel())
        self.fail("expected a guard")

    def channel(self) -> Channel:
        sender = self.expect("id", "expected the channel sender").text
        self.expect("->", "expected '->' in the channel")
        receiver = self.expect("id", "expected the channel receiver").text
        return Channel(sender, receiver)


def parse_choreography(text: str) -> Chor:
    """Parse surface syntax into a choreography tree.

    Raises :class:`ParseError` for syntax errors, mixed control point
    annotation styles, duplicate annotations and input nested deeper than
    the recursive descent and the tree walks can follow.
    """
    parser = _Parser(tokenize(text), text)
    try:
        g = parser.chor()
        # Validation and every later tree walk recurse once per level too.
        for _ in subterms(g):
            pass
    except RecursionError:
        raise ParseError("input nested too deeply") from None
    leftover = parser.peek()
    if leftover is not None:
        parser.fail("unexpected trailing input")
    if parser.annotations and parser.unannotated:
        _, tok = parser.annotations[0]
        raise ParseError(
            "control points must be annotated on every construct or on none",
            tok.line,
            tok.col,
            text,
        )
    if not parser.annotations:
        return g
    seen: dict[int, Token] = {}
    for value, tok in parser.annotations:
        if value in seen:
            raise ParseError(
                f"control point {value} is annotated twice", tok.line, tok.col, text
            )
        seen[value] = tok
    return g


def parse_guard(text: str) -> Guard:
    """Parse a guard expression on its own (mostly useful in tests)."""
    parser = _Parser(tokenize(text), text)
    g = parser.guard()
    if parser.peek() is not None:
        parser.fail("unexpected trailing input")
    return g
