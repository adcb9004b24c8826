"""Tests for the SMV parser."""

import pytest

from repro.errors import ParseError
from repro.smv.ast import (
    Assign,
    BinOp,
    BoolLit,
    Case,
    IntLit,
    Name,
    SetLit,
    SpecAtom,
    SpecBinary,
    SpecUnary,
    UnaryOp,
    VarDecl,
)
from repro.smv.parser import parse_expr, parse_module, parse_program, parse_spec

A, B, C, D = (Name(n) for n in "abcd")

MINIMAL = """
MODULE main
VAR
  x : boolean;
  s : {a, b, c};
ASSIGN
  init(x) := 0;
  next(x) := !x;
  next(s) := case x : a; 1 : s; esac;
SPEC x -> AX !x
FAIRNESS x
"""


class TestModuleStructure:
    def test_sections_parsed(self):
        mod = parse_module(MINIMAL)
        assert mod.name == "main"
        assert mod.variables == [
            VarDecl("x", "boolean"),
            VarDecl("s", ("a", "b", "c")),
        ]
        assert [a.kind for a in mod.assigns] == ["init", "next", "next"]
        assert len(mod.specs) == 1
        assert len(mod.fairness) == 1

    def test_numeric_enum_values(self):
        mod = parse_module("MODULE main VAR n : {0, 1, 2};")
        assert mod.variables[0].type == (0, 1, 2)

    def test_unexpected_top_level_token(self):
        with pytest.raises(ParseError):
            parse_module("MODULE main GARBAGE")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_module("MODULE main VAR x : boolean")


class TestExpressions:
    def test_case_branches(self):
        e = parse_expr("case a = b : x; 1 : y; esac")
        assert isinstance(e, Case)
        assert len(e.branches) == 2
        assert e.branches[1][0] == IntLit(1)

    def test_set_literal(self):
        assert parse_expr("{fetch, null}") == SetLit((Name("fetch"), Name("null")))

    def test_comparison_precedence(self):
        e = parse_expr("a = b & c = d")
        assert isinstance(e, BinOp) and e.op == "&"
        assert e.left == BinOp("=", Name("a"), Name("b"))

    def test_not_binds_operand_only(self):
        e = parse_expr("!a & b")
        assert e == BinOp("&", UnaryOp("!", Name("a")), Name("b"))

    def test_implication_right_assoc(self):
        e = parse_expr("a -> b -> c")
        assert e == BinOp("->", Name("a"), BinOp("->", Name("b"), Name("c")))

    @pytest.mark.parametrize(
        "text, tree",
        [
            ("a <-> b <-> c", BinOp("<->", BinOp("<->", A, B), C)),
            ("a -> b <-> c", BinOp("<->", BinOp("->", A, B), C)),
            ("a <-> b -> c", BinOp("<->", A, BinOp("->", B, C))),
            ("a | b -> c | d", BinOp("->", BinOp("|", A, B), BinOp("|", C, D))),
            ("a -> b & c -> d", BinOp("->", A, BinOp("->", BinOp("&", B, C), D))),
            ("a | b & c", BinOp("|", A, BinOp("&", B, C))),
            ("a & b | c & d", BinOp("|", BinOp("&", A, B), BinOp("&", C, D))),
            ("a | b | c", BinOp("|", BinOp("|", A, B), C)),
            ("!a = b", BinOp("=", UnaryOp("!", A), B)),
            ("!!a", UnaryOp("!", UnaryOp("!", A))),
            ("a != b & c < 1", BinOp("&", BinOp("!=", A, B), BinOp("<", C, IntLit(1)))),
            ("(a -> b) -> c", BinOp("->", BinOp("->", A, B), C)),
        ],
    )
    def test_precedence_and_associativity(self, text, tree):
        assert parse_expr(text) == tree

    def test_comparisons_do_not_chain(self):
        with pytest.raises(ParseError, match="trailing input '='"):
            parse_expr("a = b = c")

    def test_true_false_literals(self):
        assert parse_expr("TRUE") == BoolLit(True)
        assert parse_expr("FALSE") == BoolLit(False)

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("a b")


class TestSpecs:
    def test_comparison_atom(self):
        s = parse_spec("belief = valid")
        assert s == SpecAtom(BinOp("=", Name("belief"), Name("valid")))

    def test_temporal_unary(self):
        s = parse_spec("AX belief = valid")
        assert isinstance(s, SpecUnary) and s.op == "AX"

    def test_nested_parenthesized(self):
        s = parse_spec("(belief = valid) -> AX (belief = valid)")
        assert isinstance(s, SpecBinary) and s.op == "->"

    def test_until(self):
        s = parse_spec("A[x = a U x = b]")
        assert isinstance(s, SpecBinary) and s.op == "AU"

    def test_eu(self):
        s = parse_spec("E[p U q]")
        assert s.op == "EU"

    def test_negated_atom(self):
        s = parse_spec("!time")
        assert s == SpecUnary("!", SpecAtom(Name("time")))

    def test_parenthesized_atom_then_comparison(self):
        s = parse_spec("(x) = a")
        assert s == SpecAtom(BinOp("=", Name("x"), Name("a")))

    def test_conjunction_of_implications(self):
        s = parse_spec("(a = b -> AX a = b) & (c = d -> AX c = d)")
        assert isinstance(s, SpecBinary) and s.op == "&"

    def test_connectives_over_temporal_operands(self):
        atom = SpecAtom
        s = parse_spec("AG a -> b -> c <-> d")
        assert s == SpecBinary(
            "<->",
            SpecBinary(
                "->",
                SpecUnary("AG", atom(A)),
                SpecBinary("->", atom(B), atom(C)),
            ),
            atom(D),
        )

    def test_until_requires_u(self):
        with pytest.raises(ParseError):
            parse_spec("A[p V q]")


#: (entry point, source, message, line, column), recorded from the
#: parser before its expression grammar became a precedence-climbing loop.
PARSE_ERRORS = [
    (
        parse_program,
        "-- a comment line\nMODULE main\nVAR x : boolean;\n  x @ y\n",
        "unexpected character '@'", 4, 5,
    ),
    (parse_program, "MODULE main\nVAR\n\tx boolean;\n", "expected 'colon', found 'boolean'", 3, 4),
    (
        parse_program,
        "MODULE main\r\nVAR x : boolean;\r\nASSIGN next(x) := ;\r\n",
        "unexpected token ';' in expression", 3, 19,
    ),
    (
        parse_program,
        "MODULE main\nVAR x : boolean\nASSIGN next(x) := x;\n",
        "expected 'semi', found 'ASSIGN'", 3, 1,
    ),
    (
        parse_program,
        "MODULE main\nVAR x : boolean;\nASSIGN next(x) := x & | x;\n",
        "unexpected token '|' in expression", 3, 23,
    ),
    (parse_program, "MODULE main\nVAR x : 3..1;\n", "empty range 3..1", 2, 12),
    (parse_program, "MODULE main\nVAR x : {a, ;};\n", "bad enum value ';'", 2, 13),
    (parse_spec, "A[x = a V x = b]", "expected 'U' in until", 1, 9),
    (parse_spec, "AG x y", "trailing input 'y'", 1, 6),
    (
        parse_module,
        "MODULE a\nMODULE b\n",
        "multiple modules in source; use parse_program", 2, 1,
    ),
]


@pytest.mark.parametrize(
    "parse, source, message, line, column",
    PARSE_ERRORS,
    ids=[f"{case[0].__name__}-{i}" for i, case in enumerate(PARSE_ERRORS)],
)
def test_parse_error_text_and_position(parse, source, message, line, column):
    with pytest.raises(ParseError) as info:
        parse(source)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"{message} (line {line}, column {column})"
