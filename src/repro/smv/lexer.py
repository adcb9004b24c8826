"""Tokenizer for the SMV subset.

Comments run from ``--`` to end of line (SMV style).  Keywords are
recognized case-sensitively as in SMV.

One ``finditer`` pass does the work: each match skips the blanks and the
comment in front of one token, and its group classifies the token.
Whitespace and comments never become tokens.  ``perfbench/catalog.py``
mirrors the identifier and comment patterns below, so keep them in step.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import ParseError

KEYWORDS = {
    "MODULE",
    "VAR",
    "ASSIGN",
    "SPEC",
    "FAIRNESS",
    "INIT",
    "DEFINE",
    "process",
    "case",
    "esac",
    "next",
    "init",
    "boolean",
    "TRUE",
    "FALSE",
}

_PUNCT = {
    ":=": "assign",
    "<->": "iff",
    "->": "imp",
    "!=": "neq",
    "<=": "le",
    ">=": "ge",
    "<": "lt",
    ">": "gt",
    "=": "eq",
    "..": "dotdot",
    "&": "and",
    "|": "or",
    "!": "not",
    "{": "lbrace",
    "}": "rbrace",
    "(": "lpar",
    ")": "rpar",
    "[": "lbrk",
    "]": "rbrk",
    ";": "semi",
    ":": "colon",
    ",": "comma",
}

#: Token kind of each punctuation mark and keyword; other identifiers and
#: numbers take their regex group's name.
_KINDS = {**_PUNCT, **{word: word for word in KEYWORDS}}

_TOKEN_RE = re.compile(
    r"""
    [^\S\n]*(?:--[^\n]*)?          # blanks, then a comment to end of line
    (?:                            # each group starts with its own characters
        (?P<ident>[A-Za-z_][A-Za-z0-9_.$#-]*)
      | (?P<punct>%s)
      | (?P<newline>\n)
      | (?P<number>\d+)
      | (?P<end>\Z)
      | (?P<bad>.)
    )
    """
    # longest mark first: `<->` before `<=` before `<`
    % "|".join(re.escape(mark) for mark in sorted(_PUNCT, key=len, reverse=True)),
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


#: Builds a :class:`Token` without the Python-level ``__new__`` that
#: ``NamedTuple`` generates.
_new_token = tuple.__new__


def tokenize(source: str) -> list[Token]:
    """Turn SMV source text into a token list (comments/space dropped)."""
    tokens: list[Token] = []
    append = tokens.append
    kind_of = _KINDS.get
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(source):
        group = m.lastgroup
        if group == "newline":
            line += 1
            line_start = m.end()
            continue
        if group == "end":
            break
        start, end = m.span(group)
        text = source[start:end]
        column = start - line_start + 1
        if group == "bad":
            raise ParseError(f"unexpected character {text!r}", line, column)
        append(_new_token(Token, (kind_of(text, group), text, line, column)))
    append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens
