"""Tests for the SMV pretty-printer (round-trip through the parser)."""

import pytest

from repro.smv.parser import parse_expr, parse_spec
from repro.smv.pretty import expr_to_str, spec_to_str


class TestExprRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "a = b",
            "a != b",
            "!x",
            "a = b & c = d",
            "a = b | c = d & e",
            "x -> y -> z",
            "{fetch, null}",
            "case a = b : x; 1 : y; esac",
            "(a | b) & c",
            "(a -> b) -> c",
            "(a = b) = c",
            "(a != b) < (c <-> d)",
            "(a <-> b) <-> c",
        ],
    )
    def test_reparse_gives_same_tree(self, text):
        tree = parse_expr(text)
        assert parse_expr(expr_to_str(tree)) == tree

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("(a -> b) -> c", "(a -> b) -> c"),
            ("a -> (b -> c)", "a -> (b -> c)"),
            ("a -> b -> c", "a -> (b -> c)"),
            ("(a = b) = c", "(a = b) = c"),
            ("a = (b = c)", "a = (b = c)"),
            ("(a <-> b) <-> c", "a <-> b <-> c"),
        ],
    )
    def test_nesting_prints_as_it_parses(self, text, printed):
        """``->`` nests right and comparisons do not chain: a left
        operand at the same level keeps its parentheses."""
        assert expr_to_str(parse_expr(text)) == printed


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "belief = valid -> AX belief = valid",
            "AG (x = a -> AF x = b)",
            "A[x = a U x = b]",
            "E[p U q]",
            "!time & response != val",
            "(a = b -> AX (a = b | c = d)) & (e = f -> EX e = g)",
            "(AG p -> EF q) -> r",
            "(x = a) = y -> AX z",
        ],
    )
    def test_reparse_gives_same_tree(self, text):
        tree = parse_spec(text)
        assert parse_spec(spec_to_str(tree)) == tree

    def test_until_renders_with_brackets(self):
        assert spec_to_str(parse_spec("A[p U q]")).startswith("A[")
