"""Pretty-printers for SMV expressions and SPEC formulas.

Used by :class:`repro.smv.run.SmvReport` so verdict lines show the source
syntax (``belief = valid -> AX belief = valid``) rather than the encoded
boolean atoms, matching the paper's output figures.
"""

from __future__ import annotations

from repro.smv.ast import (
    BinOp,
    BoolLit,
    Case,
    Expr,
    IntLit,
    Module,
    Name,
    SetLit,
    SpecAtom,
    SpecBinary,
    SpecNode,
    SpecUnary,
    UnaryOp,
)

_BIN_PREC = {"<->": 1, "->": 2, "|": 3, "&": 4, "=": 5, "!=": 5, "<": 5, "<=": 5, ">": 5, ">=": 5}

#: Operators whose left operand at the same level needs parentheses:
#: ``->`` nests to the right and comparisons do not chain, so
#: ``(a -> b) -> c`` and ``(a = b) = c`` keep theirs.
_NON_LEFT = {"->", "=", "!=", "<", "<=", ">", ">="}


def _left_prec(op: str) -> int:
    """The binding a left operand of ``op`` must beat to go bare."""
    return _BIN_PREC[op] + (op in _NON_LEFT)


def expr_to_str(expr: Expr, parent_prec: int = 0) -> str:
    """Render an SMV expression; parenthesizes by precedence."""
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, BoolLit):
        return "1" if expr.value else "0"
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, UnaryOp):
        return f"!{expr_to_str(expr.operand, 6)}"
    if isinstance(expr, BinOp):
        prec = _BIN_PREC[expr.op]
        text = (
            f"{expr_to_str(expr.left, _left_prec(expr.op))} {expr.op} "
            f"{expr_to_str(expr.right, prec + 1)}"
        )
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, SetLit):
        return "{" + ", ".join(expr_to_str(c) for c in expr.choices) + "}"
    if isinstance(expr, Case):
        branches = " ".join(
            f"{expr_to_str(c)} : {expr_to_str(v)};" for c, v in expr.branches
        )
        return f"case {branches} esac"
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def spec_to_str(node: SpecNode, parent_prec: int = 0) -> str:
    """Render a SPEC formula in SMV syntax."""
    if isinstance(node, SpecAtom):
        return expr_to_str(node.expr, parent_prec)
    if isinstance(node, SpecUnary):
        inner = spec_to_str(node.operand, 6)
        if node.op == "!":
            return f"!{inner}"
        return f"{node.op} {inner}"
    if isinstance(node, SpecBinary):
        if node.op in ("AU", "EU"):
            quant = node.op[0]
            return f"{quant}[{spec_to_str(node.left)} U {spec_to_str(node.right)}]"
        prec = _BIN_PREC[node.op]
        text = (
            f"{spec_to_str(node.left, _left_prec(node.op))} {node.op} "
            f"{spec_to_str(node.right, prec + 1)}"
        )
        return f"({text})" if prec < parent_prec else text
    raise TypeError(f"unknown spec node {type(node).__name__}")


def _value_to_str(value) -> str:
    if value is True:
        return "1"
    if value is False:
        return "0"
    return str(value)


def module_to_str(module: Module) -> str:
    """Render a (flattened) module in canonical SMV concrete syntax.

    The output normalizes away source whitespace, comments and ``DEFINE``
    layout, so two sources that elaborate to the same module print
    identically — this is the text :mod:`repro.store` fingerprints.
    """
    header = f"MODULE {module.name}"
    if module.params:
        header += f"({', '.join(module.params)})"
    lines = [header]
    if module.variables:
        lines.append("VAR")
        for decl in module.variables:
            if decl.is_boolean:
                type_text = "boolean"
            elif decl.is_instance:
                inst = decl.type
                args = ", ".join(expr_to_str(a) for a in inst.args)
                prefix = "process " if inst.process else ""
                type_text = f"{prefix}{inst.module}({args})"
            else:
                values = ", ".join(_value_to_str(v) for v in decl.type)
                type_text = "{" + values + "}"
            lines.append(f"  {decl.name} : {type_text};")
    if module.defines:
        lines.append("DEFINE")
        for name in sorted(module.defines):
            lines.append(f"  {name} := {expr_to_str(module.defines[name])};")
    if module.assigns:
        lines.append("ASSIGN")
        for assign in module.assigns:
            lines.append(
                f"  {assign.kind}({assign.target}) := "
                f"{expr_to_str(assign.rhs)};"
            )
    for constraint in module.init_constraints:
        lines.append(f"INIT {expr_to_str(constraint)}")
    for fairness in module.fairness:
        lines.append(f"FAIRNESS {spec_to_str(fairness)}")
    for spec in module.specs:
        lines.append(f"SPEC {spec_to_str(spec)}")
    return "\n".join(lines) + "\n"
