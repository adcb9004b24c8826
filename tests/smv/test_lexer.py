"""Tests for the SMV tokenizer."""

import pytest

from repro.errors import ParseError
from repro.smv.lexer import tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


class TestTokens:
    def test_keywords_get_own_kind(self):
        assert kinds("MODULE main")[:2] == ["MODULE", "ident"]

    def test_assign_vs_colon(self):
        toks = tokenize("next(x) := case 1 : x; esac;")
        assert [t.kind for t in toks[:5]] == ["next", "lpar", "ident", "rpar", "assign"]
        assert "colon" in kinds("1 : x;")

    def test_neq_vs_not(self):
        assert kinds("a != b") == ["ident", "neq", "ident", "eof"]
        assert kinds("!a = b") == ["not", "ident", "eq", "ident", "eof"]

    def test_operators(self):
        assert kinds("a -> b <-> c | d & !e") == [
            "ident", "imp", "ident", "iff", "ident", "or",
            "ident", "and", "not", "ident", "eof",
        ]

    def test_braces_and_commas(self):
        assert kinds("{a, b}") == ["lbrace", "ident", "comma", "ident", "rbrace", "eof"]

    def test_numbers(self):
        assert kinds("01 23") == ["number", "number", "eof"]

    def test_dotted_identifiers(self):
        toks = tokenize("Server.belief1")
        assert toks[0].kind == "ident" and toks[0].text == "Server.belief1"


class TestCommentsAndPositions:
    def test_comments_skipped(self):
        assert kinds("a -- comment with := junk\nb") == ["ident", "ident", "eof"]

    def test_line_numbers(self):
        toks = tokenize("a\n  b")
        assert toks[0].line == 1
        assert toks[1].line == 2 and toks[1].column == 3

    def test_bad_character(self):
        with pytest.raises(ParseError) as info:
            tokenize("a @ b")
        assert "@" in str(info.value)

    def test_eof_token_always_present(self):
        assert tokenize("")[-1].kind == "eof"

    def test_source_may_end_in_blanks_or_a_comment(self):
        assert kinds("a   ") == ["ident", "eof"]
        assert kinds("a -- no newline after this comment") == ["ident", "eof"]
        assert kinds("a\n--") == ["ident", "eof"]

    def test_eof_position(self):
        eof = tokenize("a\n  -- c")[-1]
        assert (eof.line, eof.column) == (2, 7)

    def test_crlf_and_tabs_are_blanks(self):
        toks = tokenize("a\r\n\tb")
        assert [(t.text, t.line, t.column) for t in toks[:2]] == [
            ("a", 1, 1),
            ("b", 2, 2),
        ]

    def test_identifiers_may_contain_dashes(self):
        # `a->b` is the identifier `a-` then `>`: arrows need a blank
        assert [t.text for t in tokenize("a->b")] == ["a-", ">", "b", ""]
        assert kinds("a -> b") == ["ident", "imp", "ident", "eof"]
