"""Property-based fuzzing of the SMV front end.

Random modules (enum/boolean variables, random guarded case assignments
with set-literal nondeterminism, some free variables) are pushed through
both compilation backends and the simulator; all three views of the
semantics must coincide.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.smv.ast import (
    Assign,
    BinOp,
    BoolLit,
    Case,
    IntLit,
    Module,
    Name,
    SetLit,
    UnaryOp,
    VarDecl,
)
from repro.smv.compile_explicit import to_system
from repro.smv.compile_symbolic import to_symbolic
from repro.smv.elaborate import SmvModel
from repro.smv.simulate import simulate
from repro.systems.symbolic import primed

_DOMAINS = {
    "v0": ("a", "b"),
    "v1": ("p", "q", "r"),
    "v2": "boolean",
}


@st.composite
def conditions(draw):
    """A random boolean guard over the fixed variable pool."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        var = draw(st.sampled_from(["v0", "v1"]))
        dom = _DOMAINS[var]
        return BinOp("=", Name(var), Name(draw(st.sampled_from(dom))))
    if kind == 1:
        return Name("v2")
    if kind == 2:
        return UnaryOp("!", draw(conditions()))
    op = draw(st.sampled_from(["&", "|"]))
    return BinOp(op, draw(conditions()), draw(conditions()))


@st.composite
def value_exprs(draw, var: str):
    """A random RHS for ``next(var)``: constant, copy, or set literal."""
    dom = _DOMAINS[var]
    if dom == "boolean":
        return draw(
            st.sampled_from(
                [Name(var), UnaryOp("!", Name(var)), IntLit(0), IntLit(1)]
            )
        )
    choices = [Name(v) for v in dom] + [Name(var)]
    kind = draw(st.integers(0, 1))
    if kind == 0:
        return draw(st.sampled_from(choices))
    picked = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=2))
    return SetLit(tuple(picked))


@st.composite
def modules(draw):
    decls = [
        VarDecl("v0", _DOMAINS["v0"]),
        VarDecl("v1", _DOMAINS["v1"]),
        VarDecl("v2", "boolean"),
    ]
    assigns = []
    for name in ("v0", "v1", "v2"):
        if draw(st.booleans()):
            continue  # leave the variable free
        branches = []
        for _ in range(draw(st.integers(0, 2))):
            branches.append(
                (draw(conditions()), draw(value_exprs(name)))
            )
        branches.append((IntLit(1), draw(value_exprs(name))))  # default
        assigns.append(Assign("next", name, Case(tuple(branches))))
    return Module(name="main", variables=decls, assigns=assigns)


@given(modules())
@settings(max_examples=60, deadline=None)
def test_backends_agree_on_valid_edges(module):
    model = SmvModel(module)
    explicit = to_system(model, reflexive=False)
    symbolic = to_symbolic(model, reflexive=False).to_explicit()
    valid_states = [
        model.encoding.state_of(env)
        for env in model.encoding.all_assignments()
    ]

    def relation(system):
        # compare via successor queries so implicit/explicit self-loop
        # storage (the decoder may detect reflexivity) doesn't matter
        return {(s, t) for s in valid_states for t in system.successors(s)}

    assert relation(symbolic) == relation(explicit)


@given(modules())
@settings(max_examples=40, deadline=None)
def test_partition_matches_monolithic(module):
    model = SmvModel(module)
    sym = to_symbolic(model, reflexive=False)
    assert sym.bdd.conj(sym.partitions) == sym.transition


@given(modules(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_simulation_walks_the_compiled_relation(module, seed):
    model = SmvModel(module)
    system = to_system(model, reflexive=False)
    trace = simulate(model, steps=6, seed=seed)
    for s, t in zip(trace, trace[1:]):
        assert system.has_transition(
            model.encoding.state_of(s), model.encoding.state_of(t)
        )


@given(modules())
@settings(max_examples=30, deadline=None)
def test_partitioned_pre_image_exact_on_random_models(module):
    model = SmvModel(module)
    sym = to_symbolic(model, reflexive=False)
    bdd = sym.bdd
    targets = [bdd.var(sym.atoms[0])]
    xor = bdd.var(sym.atoms[0])
    for name in sym.atoms[1:]:
        xor = bdd.apply("xor", xor, bdd.var(name))
    targets.append(xor)
    next_vars = [primed(a) for a in sym.atoms]
    for target in targets:
        # the monolithic relational product, independent of the partitions
        mono = bdd.and_exists(
            sym.transition,
            bdd.rename(target, {a: primed(a) for a in sym.atoms}),
            next_vars,
        )
        assert sym.pre_image_partitioned(target) == mono


@given(modules())
@settings(max_examples=30, deadline=None)
def test_every_valid_state_total(module):
    """The compiled raw relation is total on finite-domain states."""
    model = SmvModel(module)
    system = to_system(model, reflexive=False)
    for env in model.encoding.all_assignments():
        assert system.successors(model.encoding.state_of(env))
