"""Property-based fuzzing of the SMV front end.

Random modules (enum/boolean variables, random guarded case assignments
with set-literal nondeterminism, some free variables) are pushed through
both compilation backends and the simulator; all three views of the
semantics must coincide.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bdd.manager import TRUE
from repro.bdd.ops import transfer

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
from repro.systems.symbolic import (
    SymbolicSystem,
    expansion_view,
    primed,
    symbolic_expand,
)

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
def modules(draw, fallthrough=False):
    """A random module; with ``fallthrough`` a ``case`` may lack its
    default branch (only a reflexive compile accepts that)."""
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
        if not (fallthrough and branches and draw(st.booleans())):
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
        assert sym.pre_image(target) == mono


#: A ``case`` without its default: no successor from valid states with
#: ``!go``, so only a reflexive compile accepts it, and its partition for
#: ``x`` is not total.
FALLS_THROUGH = Module(
    name="main",
    variables=[VarDecl("x", "boolean"), VarDecl("go", "boolean")],
    assigns=[
        Assign("next", "x", Case(((Name("go"), UnaryOp("!", Name("x"))),)))
    ],
)

#: Extra atoms of an expansion, sorting before and after the module's own.
_EXTRA = ("aux", "zz")


def assert_view_exact(m, extra, targets_of):
    """The expansion view's pre-images are node-equal to the relational
    product over :func:`symbolic_expand`'s materialised relation, moved
    into the view's manager, for every target ``targets_of(view)`` builds
    and its negation."""
    view = expansion_view(m, extra)
    bdd = view.bdd
    expanded = symbolic_expand(m, extra)
    relation = transfer(expanded.transition, expanded.bdd, bdd)
    targets = list(targets_of(view))
    targets += [bdd.negate(t) for t in targets]
    for target in targets:
        expected = bdd.and_exists(
            relation,
            bdd.rename(target, {a: primed(a) for a in view.atoms}),
            [primed(a) for a in view.atoms],
        )
        assert view.pre_image(target) == expected, "view pre-image differs"


def shaped_targets(conjunctions=()):
    """A literal, an xor chain and one conjunction per list of
    ``(atom index, polarity)`` pairs, over the view's atoms."""

    def targets_of(view):
        bdd = view.bdd
        atoms = view.atoms
        xor = bdd.var(atoms[0])
        for name in atoms[1:]:
            xor = bdd.apply("xor", xor, bdd.var(name))
        yield bdd.var(atoms[0])
        yield xor
        for literals in conjunctions:
            yield bdd.conj(
                (bdd.var if positive else bdd.nvar)(atoms[i % len(atoms)])
                for i, positive in literals
            )

    return targets_of


@given(
    st.data(),
    st.integers(0, 2),
    st.lists(
        st.lists(st.tuples(st.integers(0, 9), st.booleans()), min_size=1, max_size=3),
        max_size=2,
    ),
)
@settings(max_examples=40, deadline=None)
def test_expansion_view_matches_materialised_expansion(data, n_extra, conjunctions):
    reflexive = data.draw(st.booleans())
    module = data.draw(modules(fallthrough=reflexive))
    m = to_symbolic(SmvModel(module), reflexive=reflexive)
    assert_view_exact(m, _EXTRA[:n_extra], shaped_targets(conjunctions))


@pytest.mark.parametrize("n_extra", [0, 1, 2])
def test_expansion_view_exact_on_fall_through_module(n_extra):
    m = to_symbolic(SmvModel(FALLS_THROUGH), reflexive=True)
    # the x partition is not total: skipping it takes its ∃x'. P_x mask
    assert m.bdd.exists(["x'"], m.partitions[0]) != TRUE
    assert_view_exact(
        m, _EXTRA[:n_extra], shaped_targets([[(0, True)], [(1, False)]])
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expansion_view_exact_on_afs2(n):
    """Every AFS-2 component's view against the proof's invariant, its
    negation, and each conjunct and its negation."""
    from repro.bdd.formula import prop_to_bdd
    from repro.casestudies.afs2 import Afs2
    from repro.logic.ctl import And

    study = Afs2(n)
    inv = study.invariant()
    formulas, stack = [inv], [inv]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack += [f.left, f.right]
        else:
            formulas.append(f)
    pf = study.proof()
    for m in pf.components.values():
        assert_view_exact(
            m,
            pf.sigma_star - set(m.atoms),
            lambda view: [prop_to_bdd(view.bdd, f) for f in formulas],
        )


@given(modules())
@settings(max_examples=30, deadline=None)
def test_every_valid_state_total(module):
    """The compiled raw relation is total on finite-domain states."""
    model = SmvModel(module)
    system = to_system(model, reflexive=False)
    for env in model.encoding.all_assignments():
        assert system.successors(model.encoding.state_of(env))


def assert_fall_through_verdicts():
    """Verdicts the proof engine reaches on the fall-through module's
    expansion: with ``!go`` only the stutter step is left."""
    from repro.compositional.proof import _Backend
    from repro.logic.ctl import EX, TRUE as F_TRUE, Atom, Implies, Not

    m = to_symbolic(SmvModel(FALLS_THROUGH), reflexive=True)
    checker = _Backend("symbolic").expansion_checker(
        m, frozenset(m.atoms) | {"zz"}
    )
    go = Atom("go")
    assert not checker.holds(Implies(Not(go), EX(go))), "!go -> EX go holds"
    assert checker.holds(EX(F_TRUE)), "EX TRUE fails"


def test_fall_through_verdicts():
    assert_fall_through_verdicts()


# Engine mutants, applied by monkeypatching: each must fail a named
# assertion of the tests above, either a wrong image or a wrong verdict.
def test_mutant_skip_without_totality_mask_is_killed(monkeypatch):
    original = SymbolicSystem._cone_data

    def every_partition_total(self):
        moved, owner, steps, _ = original(self)
        return moved, owner, steps, [TRUE] * len(steps)

    monkeypatch.setattr(SymbolicSystem, "_cone_data", every_partition_total)
    with pytest.raises(AssertionError, match="view pre-image differs"):
        test_expansion_view_exact_on_fall_through_module(1)
    with pytest.raises(AssertionError, match="!go -> EX go holds"):
        assert_fall_through_verdicts()


def test_mutant_without_stutter_disjunct_is_killed(monkeypatch):
    # a class-level data descriptor shadows every system's `stutter`
    monkeypatch.setattr(
        SymbolicSystem,
        "stutter",
        property(lambda self: False, lambda self, value: None),
        raising=False,
    )
    with pytest.raises(AssertionError, match="view pre-image differs"):
        test_expansion_view_exact_on_fall_through_module(1)
    with pytest.raises(AssertionError, match="EX TRUE fails"):
        assert_fall_through_verdicts()
