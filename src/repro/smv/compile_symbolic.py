"""Symbolic compilation: :class:`SmvModel` → :class:`SymbolicSystem`.

The compiled system holds its relation as one partition per variable,
and nothing else::

    P_v  =  valid ∧ rel(rhs_v)  ∨  ¬valid ∧ frame(v)

where a ``case`` cascade compiles in one pass, first match wins::

    rel(case g_1 : e_1; … esac)  =  ⋁_i ¬g_1 ∧ … ∧ ¬g_{i-1} ∧ g_i ∧ rel(e_i)
    rel({e_1, …})                =  ⋁_i rel(e_i)
    rel(leaf)                    =  ⋁_{val} [leaf may be val] ∧ (v' = val)

Each guard becomes a BDD once (and is shared by every variable whose
``case`` reads it), and the first-match prefix is carried along as a
BDD.  A free variable's next value is any domain value.

The raw relation is ``⋀_v P_v``, the reflexive (paper-style) one
``⋀_v P_v ∨ Id``; ``stutter`` says which.  Images run through the
partitions (:meth:`~repro.systems.symbolic.SymbolicSystem.pre_image`),
and the product is built only when something asks for ``transition``
(``post_image``, ``to_explicit``).

Junk bit patterns (outside every variable's domain) get self-loops so
the relation stays total over the full boolean state space; they are
unreachable from valid states and excluded from checks by the validity
initial condition.  Guards read current atoms only, so the relation is
total exactly when each ``∃ v'. P_v`` is.
"""

from __future__ import annotations

from repro.bdd.formula import prop_to_bdd
from repro.bdd.manager import FALSE, TRUE
from repro.errors import ElaborationError
from repro.smv.ast import Case, Expr, SetLit
from repro.smv.elaborate import SmvModel
from repro.systems.symbolic import SymbolicSystem, primed


def to_symbolic(
    model: SmvModel, reflexive: bool = False
) -> SymbolicSystem:
    """Compile to a symbolic system.

    Parameters
    ----------
    reflexive:
        False (default) keeps SMV's raw synchronous relation — the
        semantics the paper's figures are produced under.  True adds the
        identity relation (stutter closure) producing a paper-style
        component.
    """
    sym = SymbolicSystem(model.encoding.atoms)
    bdd = sym.bdd
    valid = prop_to_bdd(bdd, model.valid_formula())
    invalid = bdd.negate(valid)
    guards: dict[Expr, int] = {}

    def relation(expr: Expr, domain: tuple, targets: dict) -> int:
        """``rel(expr)`` (module docstring); ``targets[val]`` is
        ``v' = val``."""
        if isinstance(expr, Case):
            out, prior = FALSE, TRUE
            for cond, value in expr.branches:
                guard = guards.get(cond)
                if guard is None:
                    guard = guards[cond] = prop_to_bdd(bdd, model.bool_formula(cond))
                taken = bdd.apply("and", prior, guard)
                if taken != FALSE:
                    inner = relation(value, domain, targets)
                    out = bdd.apply("or", out, bdd.apply("and", taken, inner))
                prior = bdd.apply("diff", prior, guard)
                if prior == FALSE:
                    break  # every later branch is shadowed
            return out
        if isinstance(expr, SetLit):
            return bdd.disj(relation(c, domain, targets) for c in expr.choices)
        return bdd.disj(
            bdd.apply("and", prop_to_bdd(bdd, cond), targets[value])
            for cond, value in model.leaf_choices(expr, domain)
        )

    partitions: list[int] = []
    for var in model.variables:
        targets = {
            value: bdd.cube(
                {primed(bit): b for bit, b in var.bit_values(value).items()}
            )
            for value in var.domain
        }
        rhs = model.next_assign.get(var.name)
        if rhs is None:
            constraint = bdd.disj(targets.values())
        else:
            constraint = relation(rhs, var.domain, targets)
        # the variable's constraint on valid states, its stutter on junk
        # states: junk bit patterns only self-loop, which keeps them total
        # and stops a guard like `failure : nocall` from "repairing" one
        # (a transition no finite-domain state has)
        partition = bdd.apply(
            "or",
            bdd.apply("and", valid, constraint),
            bdd.apply("and", invalid, sym.frame(var.bits)),
        )
        # guards read current atoms only, so the partitions' next-state
        # supports are disjoint and ∃x'. ⋀_v P_v = ⋀_v ∃v'. P_v: the
        # relation is total iff every partition is
        if not reflexive and bdd.exists(map(primed, var.bits), partition) != TRUE:
            raise ElaborationError(
                f"module {model.name!r}: some state has no successor — a case "
                f"expression without a default '1 :' branch falls through"
            )
        partitions.append(partition)
    sym.groups = [(frozenset(sym.atoms), partitions)]
    sym.stutter = reflexive
    return sym


def initial_bdd(model: SmvModel, sym: SymbolicSystem) -> int:
    """The model's initial condition (validity + init assigns) as a BDD."""
    return prop_to_bdd(sym.bdd, model.initial_formula())
