"""Elaboration: parsed SMV modules → typed models over boolean encodings.

Elaboration resolves identifiers (variable vs enum symbol), type-checks
assignments and comparisons, and provides the two translations every
backend needs:

* :meth:`SmvModel.bool_formula` — a boolean-valued SMV expression as a
  propositional :mod:`repro.logic` formula over the *encoded* atoms;
* :meth:`SmvModel.possible_formula` — the condition (over current state)
  under which an assignment right-hand side *may* evaluate to a given
  value; this uniformly handles deterministic expressions, set literals
  ``{a, b}`` and ``case`` cascades, and builds the initial condition;
* :meth:`SmvModel.leaf_choices` — the ``(condition, value)`` pairs of a
  right-hand side's leaves, from which the symbolic compiler builds each
  next-state relation in one pass over its ``case`` cascade.

Boolean variables are encoded by an atom of the same name; an enum
variable ``x`` over ``k`` values becomes bits ``x.0 … `` (see
:mod:`repro.systems.encode`, the paper's Figure 3).
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable

from repro.errors import ElaborationError
from repro.logic.ctl import (
    AF,
    AG,
    AU,
    AX,
    EF,
    EG,
    EU,
    EX,
    And,
    Const,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    TRUE,
    land,
    lor,
)
from repro.logic.restriction import Restriction
from repro.smv.ast import (
    Assign,
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
    VarDecl,
)
from repro.systems.encode import Encoding, FiniteVar

Value = Hashable

_SPEC_UNARY = {"AX": AX, "EX": EX, "AF": AF, "EF": EF, "AG": AG, "EG": EG}


class SmvModel:
    """A type-checked SMV module over a boolean encoding.

    Construction fails with :class:`ElaborationError` on unknown
    variables, duplicate assignments, or values outside a variable's
    domain.
    """

    def __init__(self, module: Module):
        self.module = module
        self.name = module.name
        seen: set[str] = set()
        fvars: list[FiniteVar] = []
        for decl in module.variables:
            if decl.name in seen:
                raise ElaborationError(f"duplicate variable {decl.name!r}")
            seen.add(decl.name)
            domain = (False, True) if decl.is_boolean else tuple(decl.type)
            fvars.append(FiniteVar(decl.name, domain))
        self.encoding = Encoding(fvars)
        self._vars = {v.name: v for v in fvars}
        self._defines: dict[str, Expr] = dict(module.defines)
        for name in self._defines:
            if name in self._vars:
                raise ElaborationError(
                    f"DEFINE {name!r} collides with a declared variable"
                )
        self.next_assign: dict[str, Expr] = {}
        self.init_assign: dict[str, Expr] = {}
        for assign in module.assigns:
            table = self.next_assign if assign.kind == "next" else self.init_assign
            if assign.target in table:
                raise ElaborationError(
                    f"duplicate {assign.kind}() assignment for {assign.target!r}"
                )
            if assign.target not in self._vars:
                raise ElaborationError(
                    f"{assign.kind}() assigns undeclared variable {assign.target!r}"
                )
            table[assign.target] = self.expand_defines(assign.rhs)
        self.init_constraints: list[Expr] = [
            self.expand_defines(e) for e in module.init_constraints
        ]
        # validate every assignment right-hand side eagerly
        for name, rhs in {**self.next_assign, **self.init_assign}.items():
            self.value_set(rhs, self._vars[name].domain)
        for constraint in self.init_constraints:
            self.bool_formula(constraint)
        self.specs: list[Formula] = [self.spec_formula(s) for s in module.specs]
        self.fairness: list[Formula] = [self.spec_formula(s) for s in module.fairness]

    # ------------------------------------------------------------------
    # identifier resolution
    # ------------------------------------------------------------------
    @property
    def variables(self) -> tuple[FiniteVar, ...]:
        """The finite-domain variables, in declaration order."""
        return self.encoding.variables

    def free_variables(self) -> tuple[str, ...]:
        """Variables without a ``next()`` assignment — environment inputs.

        SMV leaves them completely unconstrained: at each step they may
        take any domain value.  The paper's AFS-2 server uses this for the
        clients' ``request`` channels.
        """
        return tuple(
            v.name for v in self.variables if v.name not in self.next_assign
        )

    def is_variable(self, ident: str) -> bool:
        """Whether ``ident`` names a declared variable (else: enum symbol)."""
        return ident in self._vars

    # ------------------------------------------------------------------
    # DEFINE macro expansion
    # ------------------------------------------------------------------
    def expand_defines(self, expr: Expr, _stack: tuple[str, ...] = ()) -> Expr:
        """Inline ``DEFINE`` macros (cycle-checked, arbitrary nesting)."""
        if isinstance(expr, Name):
            body = self._defines.get(expr.ident)
            if body is None:
                return expr
            if expr.ident in _stack:
                raise ElaborationError(
                    f"cyclic DEFINE: {''.join(_stack)}{expr.ident}"
                )
            return self.expand_defines(body, _stack + (expr.ident,))
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, self.expand_defines(expr.operand, _stack))
        if isinstance(expr, BinOp):
            return BinOp(
                expr.op,
                self.expand_defines(expr.left, _stack),
                self.expand_defines(expr.right, _stack),
            )
        if isinstance(expr, SetLit):
            return SetLit(
                tuple(self.expand_defines(c, _stack) for c in expr.choices)
            )
        if isinstance(expr, Case):
            return Case(
                tuple(
                    (
                        self.expand_defines(c, _stack),
                        self.expand_defines(v, _stack),
                    )
                    for c, v in expr.branches
                )
            )
        return expr

    def _expand_spec(self, node: SpecNode) -> SpecNode:
        if isinstance(node, SpecAtom):
            return SpecAtom(self.expand_defines(node.expr))
        if isinstance(node, SpecUnary):
            return SpecUnary(node.op, self._expand_spec(node.operand))
        if isinstance(node, SpecBinary):
            return SpecBinary(
                node.op, self._expand_spec(node.left), self._expand_spec(node.right)
            )
        raise ElaborationError(f"unknown spec node {type(node).__name__}")

    def _coerce(self, value: Value, domain: tuple[Value, ...]) -> Value:
        """Map a literal into ``domain`` (0/1 ↔ booleans), or raise."""
        if domain == (False, True) and value in (0, 1, False, True):
            return bool(value)
        if value in domain:
            return value
        raise ElaborationError(f"value {value!r} is not in domain {domain!r}")

    def _classify(self, expr: Expr) -> tuple[str, object]:
        """Classify a resolved expression: variable / literal / boolean."""
        if isinstance(expr, Name):
            if self.is_variable(expr.ident):
                return ("var", expr.ident)
            return ("lit", expr.ident)
        if isinstance(expr, BoolLit):
            return ("lit", expr.value)
        if isinstance(expr, IntLit):
            return ("lit", expr.value)
        return ("expr", expr)

    # ------------------------------------------------------------------
    # boolean translation
    # ------------------------------------------------------------------
    def bool_formula(self, expr: Expr) -> Formula:
        """A boolean-valued expression as a formula over encoded atoms."""
        if isinstance(expr, Name):
            if self.is_variable(expr.ident):
                var = self._vars[expr.ident]
                if var.domain != (False, True):
                    raise ElaborationError(
                        f"variable {expr.ident!r} used as boolean but has "
                        f"domain {var.domain!r}"
                    )
                return self.encoding.eq_formula(expr.ident, True)
            raise ElaborationError(
                f"enum symbol {expr.ident!r} used in boolean position"
            )
        if isinstance(expr, BoolLit):
            return Const(expr.value)
        if isinstance(expr, IntLit):
            if expr.value in (0, 1):
                return Const(bool(expr.value))
            raise ElaborationError(f"number {expr.value} used as boolean")
        if isinstance(expr, UnaryOp) and expr.op == "!":
            return Not(self.bool_formula(expr.operand))
        if isinstance(expr, BinOp):
            if expr.op in ("=", "!="):
                eq = self._eq_formula(expr.left, expr.right)
                return Not(eq) if expr.op == "!=" else eq
            if expr.op in ("<", "<=", ">", ">="):
                return self._order_formula(expr.op, expr.left, expr.right)
            left, right = self.bool_formula(expr.left), self.bool_formula(expr.right)
            if expr.op == "&":
                return And(left, right)
            if expr.op == "|":
                return Or(left, right)
            if expr.op == "->":
                return Implies(left, right)
            if expr.op == "<->":
                return Iff(left, right)
            raise ElaborationError(f"unknown operator {expr.op!r}")
        if isinstance(expr, Case):
            return self._case_formula(expr, lambda e: self.bool_formula(e))
        if isinstance(expr, SetLit):
            raise ElaborationError("set literal used in boolean position")
        raise ElaborationError(f"cannot interpret {expr!r} as boolean")

    def _case_formula(self, case: Case, leaf) -> Formula:
        """First-match-wins ``case`` as a formula: ⋁ guardᵢ ∧ leaf(eᵢ)."""
        parts: list[Formula] = []
        no_prior: Formula = TRUE
        for cond, value in case.branches:
            guard = self.bool_formula(cond)
            parts.append(land(no_prior, guard, leaf(value)))
            no_prior = land(no_prior, Not(guard))
        return lor(*parts)

    def _eq_formula(self, left: Expr, right: Expr) -> Formula:
        kind_l, val_l = self._classify(left)
        kind_r, val_r = self._classify(right)
        if kind_l == "lit" and kind_r == "var":
            kind_l, val_l, kind_r, val_r = kind_r, val_r, kind_l, val_l
        if kind_l == "var" and kind_r == "lit":
            var = self._vars[str(val_l)]
            return self.encoding.eq_formula(
                var.name, self._coerce(val_r, var.domain)
            )
        if kind_l == "var" and kind_r == "var":
            d1 = self._vars[str(val_l)].domain
            d2 = self._vars[str(val_r)].domain
            shared = [v for v in d1 if v in d2]
            return lor(
                *(
                    And(
                        self.encoding.eq_formula(str(val_l), v),
                        self.encoding.eq_formula(str(val_r), v),
                    )
                    for v in shared
                )
            )
        if kind_l == "lit" and kind_r == "lit":
            return Const(val_l == val_r)
        # fall back to boolean equivalence
        return Iff(self.bool_formula(left), self.bool_formula(right))

    _ORDER = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def _order_formula(self, op: str, left: Expr, right: Expr) -> Formula:
        """Ordering comparison over integer-domain variables (Fig. 3 talk).

        ``x < 2`` over an integer range becomes the disjunction of the
        satisfying value encodings — exactly the paper's mapped formula.
        """
        kind_l, val_l = self._classify(left)
        kind_r, val_r = self._classify(right)
        compare = self._ORDER[op]

        def int_domain(name: str) -> tuple[int, ...]:
            domain = self._vars[name].domain
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in domain):
                raise ElaborationError(
                    f"ordering comparison needs an integer domain, "
                    f"{name!r} has {domain!r}"
                )
            return domain  # type: ignore[return-value]

        if kind_l == "var" and kind_r == "lit":
            values = [v for v in int_domain(str(val_l)) if compare(v, val_r)]
            return self.encoding.in_formula(str(val_l), values)
        if kind_l == "lit" and kind_r == "var":
            values = [v for v in int_domain(str(val_r)) if compare(val_l, v)]
            return self.encoding.in_formula(str(val_r), values)
        if kind_l == "var" and kind_r == "var":
            d1, d2 = int_domain(str(val_l)), int_domain(str(val_r))
            return lor(
                *(
                    And(
                        self.encoding.eq_formula(str(val_l), a),
                        self.encoding.eq_formula(str(val_r), b),
                    )
                    for a in d1
                    for b in d2
                    if compare(a, b)
                )
            )
        if kind_l == "lit" and kind_r == "lit":
            return Const(bool(compare(val_l, val_r)))
        raise ElaborationError(f"cannot order-compare {left!r} and {right!r}")

    # ------------------------------------------------------------------
    # value analysis (assignment right-hand sides)
    # ------------------------------------------------------------------
    def value_set(self, expr: Expr, domain: tuple[Value, ...]) -> list[Value]:
        """Values ``expr`` may produce, each checked against ``domain``."""
        kind, val = self._classify(expr)
        if kind == "lit":
            return [self._coerce(val, domain)]
        if kind == "var":
            var = self._vars[str(val)]
            return [self._coerce(v, domain) for v in var.domain]
        if isinstance(expr, SetLit):
            out: list[Value] = []
            for choice in expr.choices:
                for v in self.value_set(choice, domain):
                    if v not in out:
                        out.append(v)
            return out
        if isinstance(expr, Case):
            out = []
            for _, value in expr.branches:
                for v in self.value_set(value, domain):
                    if v not in out:
                        out.append(v)
            return out
        # boolean-valued expression
        self.bool_formula(expr)  # type-check
        if domain != (False, True):
            raise ElaborationError(
                f"boolean expression assigned to variable with domain {domain!r}"
            )
        return [False, True]

    def possible_formula(
        self, expr: Expr, value: Value, domain: tuple[Value, ...]
    ) -> Formula:
        """Condition under which ``expr`` may evaluate to ``value``.

        The condition is a propositional formula over the *current-state*
        atoms; nondeterminism (set literals) yields overlapping conditions
        for different values.
        """
        if isinstance(expr, SetLit):
            return lor(
                *(self.possible_formula(c, value, domain) for c in expr.choices)
            )
        if isinstance(expr, Case):
            return self._case_formula(
                expr, lambda e: self.possible_formula(e, value, domain)
            )
        return lor(*(c for c, v in self.leaf_choices(expr, domain) if v == value))

    def leaf_choices(
        self, expr: Expr, domain: tuple[Value, ...]
    ) -> list[tuple[Formula, Value]]:
        """``(condition, value)`` for each value a leaf may produce.

        A leaf is any right-hand side but a set literal or a ``case``: a
        literal (always its value), a variable copy (each value the
        copied variable holds) or a boolean expression (``True`` where
        it holds, ``False`` where it does not).  Conditions are over the
        current-state atoms; values are coerced into ``domain`` (which
        :meth:`value_set` has type-checked the leaf against).
        """
        kind, val = self._classify(expr)
        if kind == "lit":
            return [(TRUE, self._coerce(val, domain))]
        if kind == "var":
            var = self._vars[str(val)]
            return [
                (self.encoding.eq_formula(var.name, v), self._coerce(v, domain))
                for v in var.domain
            ]
        body = self.bool_formula(expr)
        return [(Not(body), False), (body, True)]

    # ------------------------------------------------------------------
    # concrete evaluation (explicit backend)
    # ------------------------------------------------------------------
    def eval_bool(self, expr: Expr, env: dict[str, Value]) -> bool:
        """Evaluate a boolean-valued expression under a total assignment."""
        if isinstance(expr, Name):
            if self.is_variable(expr.ident):
                return bool(env[expr.ident])
            raise ElaborationError(f"symbol {expr.ident!r} in boolean position")
        if isinstance(expr, BoolLit):
            return expr.value
        if isinstance(expr, IntLit):
            return bool(expr.value)
        if isinstance(expr, UnaryOp):
            return not self.eval_bool(expr.operand, env)
        if isinstance(expr, BinOp):
            if expr.op in ("=", "!="):
                eq = self._eval_eq(expr.left, expr.right, env)
                return not eq if expr.op == "!=" else eq
            if expr.op in ("<", "<=", ">", ">="):
                side = lambda e: (
                    env[e.ident]
                    if isinstance(e, Name) and self.is_variable(e.ident)
                    else self._classify(e)[1]
                )
                return bool(self._ORDER[expr.op](side(expr.left), side(expr.right)))
            l = self.eval_bool(expr.left, env)
            if expr.op == "&":
                return l and self.eval_bool(expr.right, env)
            if expr.op == "|":
                return l or self.eval_bool(expr.right, env)
            if expr.op == "->":
                return (not l) or self.eval_bool(expr.right, env)
            if expr.op == "<->":
                return l == self.eval_bool(expr.right, env)
        if isinstance(expr, Case):
            for cond, value in expr.branches:
                if self.eval_bool(cond, env):
                    return self.eval_bool(value, env)
            raise ElaborationError("case expression fell through every branch")
        raise ElaborationError(f"cannot evaluate {expr!r} as boolean")

    def _eval_eq(self, left: Expr, right: Expr, env: dict[str, Value]) -> bool:
        kind_l, val_l = self._classify(left)
        kind_r, val_r = self._classify(right)

        def side_value(kind: str, val: object, other_domain: tuple[Value, ...] | None):
            if kind == "var":
                return env[str(val)]
            if kind == "lit":
                if other_domain is not None:
                    try:
                        return self._coerce(val, other_domain)
                    except ElaborationError:
                        return val
                return val
            raise ElaborationError("nested expression in comparison")

        dom_l = self._vars[str(val_l)].domain if kind_l == "var" else None
        dom_r = self._vars[str(val_r)].domain if kind_r == "var" else None
        if kind_l == "expr" or kind_r == "expr":
            return self.eval_bool(left, env) == self.eval_bool(right, env)
        return side_value(kind_l, val_l, dom_r) == side_value(kind_r, val_r, dom_l)

    def eval_values(
        self, expr: Expr, env: dict[str, Value], domain: tuple[Value, ...]
    ) -> list[Value]:
        """Possible next values of an assignment RHS under ``env``."""
        kind, val = self._classify(expr)
        if kind == "lit":
            return [self._coerce(val, domain)]
        if kind == "var":
            return [self._coerce(env[str(val)], domain)]
        if isinstance(expr, SetLit):
            out: list[Value] = []
            for choice in expr.choices:
                for v in self.eval_values(choice, env, domain):
                    if v not in out:
                        out.append(v)
            return out
        if isinstance(expr, Case):
            for cond, value in expr.branches:
                if self.eval_bool(cond, env):
                    return self.eval_values(value, env, domain)
            return []  # fell through: no successor contribution
        return [self.eval_bool(expr, env)]

    # ------------------------------------------------------------------
    # SPEC translation
    # ------------------------------------------------------------------
    def spec_formula(self, node: SpecNode) -> Formula:
        """Translate a SPEC body to boolean CTL over the encoded atoms."""
        node = self._expand_spec(node)
        return self._spec_formula(node)

    def _spec_formula(self, node: SpecNode) -> Formula:
        if isinstance(node, SpecAtom):
            return self.bool_formula(node.expr)
        if isinstance(node, SpecUnary):
            inner = self._spec_formula(node.operand)
            if node.op == "!":
                return Not(inner)
            return _SPEC_UNARY[node.op](inner)
        if isinstance(node, SpecBinary):
            left = self._spec_formula(node.left)
            right = self._spec_formula(node.right)
            ops = {
                "&": And,
                "|": Or,
                "->": Implies,
                "<->": Iff,
                "AU": AU,
                "EU": EU,
            }
            return ops[node.op](left, right)
        raise ElaborationError(f"unknown spec node {type(node).__name__}")

    # ------------------------------------------------------------------
    # initial conditions
    # ------------------------------------------------------------------
    def valid_formula(self) -> Formula:
        """States whose bits decode to real domain values (no junk)."""
        return self.encoding.valid_formula()

    @cached_property
    def restriction(self) -> Restriction:
        """What every SPEC is checked under: the validity + ``init()``
        initial condition and the ``FAIRNESS`` constraints (``TRUE``
        when there are none)."""
        return Restriction(
            init=self.initial_formula(), fairness=tuple(self.fairness) or (TRUE,)
        )

    def initial_formula(self, include_valid: bool = True) -> Formula:
        """Conjunction of the ``init()`` constraints (and validity)."""
        parts: list[Formula] = []
        if include_valid:
            valid = self.valid_formula()
            if valid != TRUE:
                parts.append(valid)
        for constraint in self.init_constraints:
            parts.append(self.bool_formula(constraint))
        for name, rhs in self.init_assign.items():
            domain = self._vars[name].domain
            choice = lor(
                *(
                    And(
                        self.possible_formula(rhs, v, domain),
                        self.encoding.eq_formula(name, v),
                    )
                    for v in self.value_set(rhs, domain)
                )
            )
            parts.append(choice)
        return land(*parts) if parts else TRUE
