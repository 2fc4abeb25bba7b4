"""The tokenizer that ``chorrev.parse.tokenize`` replaced.

It is kept as a test-only oracle.  At each position it tries the
patterns of ``_TOKEN_SPEC`` one by one, each compiled on its own, and
takes the first that matches.  ``test_parse_oracle`` requires the same
tokens and the same errors from the one-regex tokenizer.
"""

import re

from chorrev.parse import _TOKEN_SPEC, KEYWORDS, ParseError, Token

_TOKEN_RE = [(kind, re.compile(rx)) for kind, rx in _TOKEN_SPEC]


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    col = 1
    while pos < len(text):
        for kind, rx in _TOKEN_RE:
            m = rx.match(text, pos)
            if m:
                break
        else:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col, text)
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
