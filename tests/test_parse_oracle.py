"""The one-regex tokenizer against the pattern-by-pattern one in ``parse_oracle``.

Both must give the same (kind, text, line, column) tokens, or the same
``ParseError`` text, on every protocol under ``tests/data``, on the
printed form of generated terms, on those with layout between the tokens
and on inputs with a stray character.
"""

import pytest
from hypothesis import given, settings, strategies as st

import parse_oracle
from chorrev.model import pretty
from chorrev.parse import ParseError, tokenize

from conftest import DATA
from test_order_oracle import build, shapes


def outcome(lex, text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lex(text)], None
    except ParseError as exc:
        return None, str(exc)


def assert_same_tokens(text):
    assert outcome(tokenize, text) == outcome(parse_oracle.tokenize, text)


@pytest.mark.parametrize("path", sorted(DATA.glob("*.rchor")), ids=lambda p: p.name)
def test_every_protocol_file(path):
    text = path.read_text(encoding="utf-8")
    tokens, error = outcome(tokenize, text)
    assert error is None and tokens
    assert_same_tokens(text)


@settings(max_examples=200, deadline=None)
@given(shapes)
def test_printed_generated_terms(shape):
    assert_same_tokens(pretty(build(shape)))


# Layout that may stand between two tokens: tabs, CRLF line ends, blank
# lines and comments, which must end at a line end there.
LAYOUT = [" ", "\t", "\r\n", "\n\n", "\n\t\t", " // note\n", "//\r\n", "\t// a -> b ; {\n\n"]


@settings(max_examples=200, deadline=None)
@given(shapes, st.data())
def test_generated_terms_with_layout_between_the_tokens(shape, data):
    tokens = parse_oracle.tokenize(pretty(build(shape)))
    gaps = data.draw(st.lists(st.sampled_from(LAYOUT), min_size=len(tokens), max_size=len(tokens)))
    text = "".join(gap + t.text for gap, t in zip(gaps, tokens))
    # Sometimes a stray character, so that errors are compared too.
    stray = data.draw(st.sampled_from(["", "$", "\u00e9", "\x0b", "/"]))
    at = data.draw(st.integers(0, len(text)))
    # A comment at the end of the input needs no line end.
    text = text[:at] + stray + text[at:] + data.draw(st.sampled_from(["", "\n", "// end", "\r\n// end"]))
    assert_same_tokens(text)


@pytest.mark.parametrize(
    "text",
    [
        "A -> B : m $",
        "A -> B : m ;\n  B -> C : n # tail",
        "choice @cp1 @ A { { A -> B : x } unless count(x, A->B) >= 1 = 2 }",
        "// comment only\n\t@cp 3 & |",
        "A -> B : m ; B -> A : n\r\n~",
        "loop @ A { A -> B : m } unless x in A->B || !tt && ff <= < == > >= , é",
    ],
)
def test_stray_characters(text):
    tokens, error = outcome(tokenize, text)
    assert tokens is None and "unexpected character" in error
    assert_same_tokens(text)
