"""Recursive-descent parser for the SMV subset.

Produces :class:`repro.smv.ast.Module` values.  ``parse_module`` handles a
single module (how the paper checks each component); ``parse_program``
accepts multi-module sources with parameterized instantiation, flattened
by :mod:`repro.smv.modules`.  Binary connectives of expressions and SPEC
formulas are parsed by one precedence-climbing loop over :data:`_BINARY`.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.smv.ast import (
    Assign,
    BinOp,
    BoolLit,
    Case,
    Expr,
    InstanceType,
    IntLit,
    Module,
    Name,
    SetLit,
    SpecAtom,
    SpecBinary,
    SpecNode,
    SpecUnary,
    UnaryOp,
    VarDecl,
)
from repro.smv.lexer import Token, tokenize

_TEMPORAL_UNARY = {"AX", "EX", "AF", "EF", "AG", "EG"}

#: Binary connectives of expressions and SPEC formulas: token kind →
#: (operator, binding power, least binding power of its right operand).
#: A right operand at the operator's own power makes it right-associative
#: (``->``), one above makes it left-associative.
_BINARY = {
    "iff": ("<->", 1, 2),
    "imp": ("->", 2, 2),
    "or": ("|", 3, 4),
    "and": ("&", 4, 5),
}

#: Comparisons bind tighter than every connective and do not chain: both
#: operands are unary expressions, so ``a = b = c`` leaves ``= c`` unparsed.
_CMP_OPS = {"eq": "=", "neq": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


class _Parser:
    def __init__(self, source: str):
        # every parse error is raised before the final ``eof`` is consumed,
        # so the index never runs past the end
        self.tokens = tokenize(source)
        self.i = 0

    # --- token plumbing ---------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text!r}", tok.line, tok.column
            )
        return tok

    def at(self, kind: str) -> bool:
        return self.tokens[self.i].kind == kind

    # --- program structure --------------------------------------------------
    def module(self) -> Module:
        self.expect("MODULE")
        name = self.expect("ident").text
        params: list[str] = []
        if self.at("lpar"):
            self.next()
            while True:
                params.append(self.expect("ident").text)
                if self.at("comma"):
                    self.next()
                    continue
                break
            self.expect("rpar")
        mod = Module(name=name, params=tuple(params))
        while not self.at("eof") and not self.at("MODULE"):
            tok = self.peek()
            if tok.kind == "VAR":
                self.next()
                self._var_section(mod)
            elif tok.kind == "ASSIGN":
                self.next()
                self._assign_section(mod)
            elif tok.kind == "SPEC":
                self.next()
                mod.specs.append(self.spec())
            elif tok.kind == "FAIRNESS":
                self.next()
                mod.fairness.append(self.spec())
            elif tok.kind == "DEFINE":
                self.next()
                self._define_section(mod)
            elif tok.kind == "INIT":
                self.next()
                mod.init_constraints.append(self.expr())
            else:
                raise ParseError(
                    f"unexpected token {tok.text!r} at module level",
                    tok.line,
                    tok.column,
                )
        return mod

    def _var_section(self, mod: Module) -> None:
        while self.at("ident"):
            name = self.next().text
            self.expect("colon")
            if self.at("boolean"):
                self.next()
                decl = VarDecl(name, "boolean")
            elif self.at("number"):
                # integer range type: `name : lo..hi;`
                lo = int(self.next().text)
                self.expect("dotdot")
                hi_tok = self.expect("number")
                hi = int(hi_tok.text)
                if hi < lo:
                    raise ParseError(
                        f"empty range {lo}..{hi}", hi_tok.line, hi_tok.column
                    )
                decl = VarDecl(name, tuple(range(lo, hi + 1)))
            elif self.at("ident") or self.at("process"):
                # submodule instantiation: `name : [process] module(args);`
                is_process = False
                if self.at("process"):
                    self.next()
                    is_process = True
                module_name = self.expect("ident").text
                args: list[Expr] = []
                if self.at("lpar"):
                    self.next()
                    if not self.at("rpar"):
                        args.append(self.expr())
                        while self.at("comma"):
                            self.next()
                            args.append(self.expr())
                    self.expect("rpar")
                decl = VarDecl(
                    name, InstanceType(module_name, tuple(args), is_process)
                )
            else:
                self.expect("lbrace")
                values: list[str | int] = []
                while True:
                    tok = self.next()
                    if tok.kind == "ident":
                        values.append(tok.text)
                    elif tok.kind == "number":
                        values.append(int(tok.text))
                    else:
                        raise ParseError(
                            f"bad enum value {tok.text!r}", tok.line, tok.column
                        )
                    if self.at("comma"):
                        self.next()
                        continue
                    break
                self.expect("rbrace")
                decl = VarDecl(name, tuple(values))
            self.expect("semi")
            mod.variables.append(decl)

    def _define_section(self, mod: Module) -> None:
        while self.at("ident"):
            name = self.next().text
            self.expect("assign")
            body = self.expr()
            self.expect("semi")
            if name in mod.defines:
                raise ParseError(f"duplicate DEFINE for {name!r}")
            mod.defines[name] = body

    def _assign_section(self, mod: Module) -> None:
        while self.at("next") or self.at("init"):
            kind = self.next().kind
            self.expect("lpar")
            target = self.expect("ident").text
            self.expect("rpar")
            self.expect("assign")
            rhs = self.expr()
            self.expect("semi")
            mod.assigns.append(Assign(kind, target, rhs))

    # --- expressions ----------------------------------------------------
    def _climb(self, operand, node, min_bp: int = 1):
        """Precedence climbing over :data:`_BINARY`: ``operand`` parses one
        operand, ``node(op, left, right)`` builds a binary node."""
        left = operand()
        tokens = self.tokens
        while True:
            entry = _BINARY.get(tokens[self.i].kind)
            if entry is None or entry[1] < min_bp:
                return left
            self.i += 1
            left = node(entry[0], left, self._climb(operand, node, entry[2]))

    def expr(self) -> Expr:
        return self._climb(self._cmp, BinOp)

    def _cmp(self) -> Expr:
        left = self._unary()
        op = _CMP_OPS.get(self.tokens[self.i].kind)
        if op is None:
            return left
        self.i += 1
        return BinOp(op, left, self._unary())

    def _unary(self) -> Expr:
        """``!`` applied to a primary, or a primary; ``!`` binds only its
        operand (``!a = b`` is ``(!a) = b``)."""
        tok = self.tokens[self.i]
        self.i += 1
        kind = tok.kind
        if kind == "ident":
            return Name(tok.text)
        if kind == "not":
            return UnaryOp("!", self._unary())
        if kind == "number":
            return IntLit(int(tok.text))
        if kind == "lpar":
            inner = self.expr()
            self.expect("rpar")
            return inner
        if kind == "case":
            branches: list[tuple[Expr, Expr]] = []
            while not self.at("esac"):
                cond = self.expr()
                self.expect("colon")
                value = self.expr()
                self.expect("semi")
                branches.append((cond, value))
            self.i += 1
            return Case(tuple(branches))
        if kind == "lbrace":
            choices = [self.expr()]
            while self.at("comma"):
                self.i += 1
                choices.append(self.expr())
            self.expect("rbrace")
            return SetLit(tuple(choices))
        if kind == "TRUE":
            return BoolLit(True)
        if kind == "FALSE":
            return BoolLit(False)
        raise ParseError(
            f"unexpected token {tok.text!r} in expression", tok.line, tok.column
        )

    # --- SPEC formulas ----------------------------------------------------
    def spec(self) -> SpecNode:
        return self._climb(self._sunary, SpecBinary)

    def _sunary(self) -> SpecNode:
        tok = self.tokens[self.i]
        if tok.kind == "not":
            self.i += 1
            return SpecUnary("!", self._sunary())
        if tok.kind == "ident":
            if tok.text in _TEMPORAL_UNARY:
                self.i += 1
                return SpecUnary(tok.text, self._sunary())
            if tok.text in ("A", "E") and self.tokens[self.i + 1].kind == "lbrk":
                self.i += 2
                left = self.spec()
                u = self.next()
                if not (u.kind == "ident" and u.text == "U"):
                    raise ParseError("expected 'U' in until", u.line, u.column)
                right = self.spec()
                self.expect("rbrk")
                return SpecBinary(tok.text + "U", left, right)
        return self._satom()

    def _satom(self) -> SpecNode:
        if self.at("lpar"):
            self.i += 1
            inner = self.spec()
            self.expect("rpar")
            # allow `(x) = v` by folding a trailing comparison into the atom
            op = _CMP_OPS.get(self.tokens[self.i].kind)
            if op is not None and isinstance(inner, SpecAtom):
                self.i += 1
                return SpecAtom(BinOp(op, inner.expr, self._unary()))
            return inner
        # a bare comparison / literal / variable
        return SpecAtom(self._cmp())


def parse_module(source: str) -> Module:
    """Parse one SMV module from source text.

    >>> mod = parse_module('''
    ... MODULE main
    ... VAR x : boolean;
    ... ASSIGN next(x) := !x;
    ... SPEC x -> AX !x
    ... ''')
    >>> mod.variables[0].name
    'x'
    """
    parser = _Parser(source)
    mod = parser.module()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(
            "multiple modules in source; use parse_program", tok.line, tok.column
        )
    return mod


def parse_program(source: str) -> dict[str, Module]:
    """Parse a multi-module SMV program into {module name: Module}."""
    parser = _Parser(source)
    program: dict[str, Module] = {}
    while not parser.at("eof"):
        mod = parser.module()
        if mod.name in program:
            raise ParseError(f"duplicate module {mod.name!r}")
        program[mod.name] = mod
    if not program:
        raise ParseError("source contains no modules")
    return program


def parse_spec(source: str) -> SpecNode:
    """Parse a standalone SPEC formula (CTL over SMV expressions)."""
    parser = _Parser(source)
    node = parser.spec()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return node


def parse_expr(source: str) -> Expr:
    """Parse a standalone SMV expression."""
    parser = _Parser(source)
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return node
