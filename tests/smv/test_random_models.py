"""Property-based fuzzing of the SMV front end.

Random modules (enum/boolean variables, random guarded case assignments
with set-literal nondeterminism, some free variables) are pushed through
both compilation backends and the simulator; all three views of the
semantics must coincide.  Composites of 2–3 random modules sharing
variables check the symbolic composite view against its materialised
relation and against the explicit composition.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bdd.formula import prop_to_bdd
from repro.bdd.manager import FALSE, TRUE
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
from repro.smv.parser import parse_module
from repro.smv.pretty import module_to_str
from repro.smv.simulate import simulate
from repro.systems.compose import compose_all
from repro.systems.symbolic import SymbolicSystem, composite_view, primed

_DOMAINS = {
    "v0": ("a", "b"),
    "v1": ("p", "q", "r"),
    "v2": "boolean",
    "v3": ("c", "d"),
    "v4": ("s", "t", "u"),
    "v5": "boolean",
}

#: A module's variables: a two-value enum, a three-value enum, a boolean.
NAMES = ("v0", "v1", "v2")


#: Every binary operator the canonical printer must round-trip: the
#: connectives (``->`` nests right, ``<->`` left) and comparisons, which
#: here may also compare comparisons.
ALL_OPS = ("&", "|", "->", "<->", "=", "!=", "<")


@st.composite
def conditions(draw, names=NAMES, ops=("&", "|")):
    """A random boolean guard over the module's variables, joined by
    ``ops``."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        var = draw(st.sampled_from(names[:2]))
        dom = _DOMAINS[var]
        return BinOp("=", Name(var), Name(draw(st.sampled_from(dom))))
    if kind == 1:
        return Name(names[2])
    if kind == 2:
        return UnaryOp("!", draw(conditions(names, ops)))
    op = draw(st.sampled_from(ops))
    return BinOp(op, draw(conditions(names, ops)), draw(conditions(names, ops)))


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
def modules(draw, fallthrough=False, names=NAMES, ops=("&", "|")):
    """A random module over ``names``; with ``fallthrough`` a ``case``
    may lack its default branch (only a reflexive compile accepts that).
    Guards join with ``ops``."""
    decls = [VarDecl(name, _DOMAINS[name]) for name in names]
    assigns = []
    for name in names:
        if draw(st.booleans()):
            continue  # leave the variable free
        branches = []
        for _ in range(draw(st.integers(0, 2))):
            branches.append(
                (draw(conditions(names, ops)), draw(value_exprs(name)))
            )
        if not (fallthrough and branches and draw(st.booleans())):
            branches.append((IntLit(1), draw(value_exprs(name))))  # default
        assigns.append(Assign("next", name, Case(tuple(branches))))
    return Module(name="main", variables=decls, assigns=assigns)


@given(modules(fallthrough=True, ops=ALL_OPS))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_canonical_text_round_trips(module):
    """The parser reads back what the canonical printer writes, and the
    printer is a fixed point: fingerprints hash this text, so it must
    name exactly one module."""
    text = module_to_str(module)
    assert parse_module(text) == module
    assert module_to_str(parse_module(text)) == text


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


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_reflexive_and_total_read_off_the_partitions(data):
    """``is_reflexive``/``is_total`` decided from a compiled group, with
    and without the stutter step, agree with ``Id ⊆ R`` and ``∃x'. R``
    on the materialised relation — and deciding them builds no
    product."""
    module = data.draw(modules(fallthrough=True))
    sym = to_symbolic(SmvModel(module), reflexive=True)
    bdd = sym.bdd
    for stutter in (False, True):
        group = SymbolicSystem(sym.atoms, bdd=bdd)
        group.groups, group.stutter = sym.groups, stutter
        decided = (group.is_reflexive(), group.is_total())
        assert group._transition is None
        relation = group.transition
        assert decided == (
            bdd.apply("diff", group.identity_relation(), relation) == FALSE,
            bdd.exists([primed(a) for a in group.atoms], relation) == TRUE,
        )


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


def paper_composite(view):
    """``R* = ⋁_i (⋀ P_i ∧ frame(Σ*∖moved_i)) ∨ Id`` (paper §3.1), built
    here from the view's groups: it reads neither the view's ``stutter``
    flag nor the image code, so an engine mutant cannot reach it."""
    bdd = view.bdd
    steps = [
        bdd.conj([*parts, view.frame(set(view.atoms) - moved)])
        for moved, parts in view.groups
    ]
    return bdd.disj([*steps, view.identity_relation()])


def assert_view_exact(components, extra, targets_of):
    """The composite view's pre-images are node-equal to the relational
    product over the paper's ``R*`` (:func:`paper_composite`), for every
    target ``targets_of(view)`` builds and its negation; and the view's
    materialised ``transition`` is that ``R*``."""
    view = composite_view(components, extra)
    bdd = view.bdd
    relation = paper_composite(view)
    targets = list(targets_of(view))
    targets += [bdd.negate(t) for t in targets]
    for target in targets:
        expected = bdd.and_exists(
            relation,
            bdd.rename(target, {a: primed(a) for a in view.atoms}),
            [primed(a) for a in view.atoms],
        )
        assert view.pre_image(target) == expected, "view pre-image differs"
    assert view.transition == relation, "materialised relation differs"


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
    assert_view_exact([m], _EXTRA[:n_extra], shaped_targets(conjunctions))


@pytest.mark.parametrize("n_extra", [0, 1, 2])
def test_expansion_view_exact_on_fall_through_module(n_extra):
    m = to_symbolic(SmvModel(FALLS_THROUGH), reflexive=True)
    # the x partition is not total: skipping it takes its ∃x'. P_x mask
    assert m.bdd.exists(["x'"], m.partitions[0]) != TRUE
    assert_view_exact(
        [m], _EXTRA[:n_extra], shaped_targets([[(0, True)], [(1, False)]])
    )


def _conjuncts(f):
    from repro.logic.ctl import And

    if isinstance(f, And):
        yield from _conjuncts(f.left)
        yield from _conjuncts(f.right)
    else:
        yield f


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expansion_view_exact_on_afs2(n):
    """Every AFS-2 component's view against the proof's invariant, its
    negation, and each conjunct and its negation."""
    from repro.casestudies.afs2 import Afs2

    study = Afs2(n)
    inv = study.invariant()
    formulas = [inv, *_conjuncts(inv)]
    pf = study.proof()
    for m in pf.components.values():
        assert_view_exact(
            [m],
            pf.sigma_star - set(m.atoms),
            lambda view: [prop_to_bdd(view.bdd, f) for f in formulas],
        )


#: Each component draws its variables from these pairs, so two
#: components share none, some or all of them.
_POOLS = (("v0", "v3"), ("v1", "v4"), ("v2", "v5"))


@st.composite
def protocols(draw, sizes=(2, 3), fallthrough=True):
    """2–3 random modules whose variables overlap, compiled with one
    ``reflexive`` flag: ``(models, reflexive)``.  With ``fallthrough``, a
    reflexive protocol's ``case`` may lack its default branch."""
    reflexive = draw(st.booleans())
    count = draw(st.sampled_from(sizes))
    models = []
    for _ in range(count):
        names = tuple(draw(st.sampled_from(pool)) for pool in _POOLS)
        module = draw(modules(fallthrough=fallthrough and reflexive, names=names))
        models.append(SmvModel(module))
    return models, reflexive


@given(
    protocols(),
    st.integers(0, 1),
    st.lists(
        st.lists(st.tuples(st.integers(0, 9), st.booleans()), min_size=1, max_size=3),
        max_size=2,
    ),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_composite_view_matches_materialised_relation(protocol, n_extra, conjunctions):
    models, reflexive = protocol
    components = [to_symbolic(m, reflexive=reflexive) for m in models]
    assert_view_exact(components, _EXTRA[:n_extra], shaped_targets(conjunctions))


@given(protocols(sizes=(2,), fallthrough=False))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_composite_view_agrees_with_explicit_compose(protocol):
    """State-set equality with the explicit ``∘`` (the semantics), on the
    valid states the two compilers agree on: every pre-image of a
    literal, its negation and an xor chain.  (The explicit compiler
    rejects a ``case`` without its default branch.)"""
    models, reflexive = protocol
    view = composite_view([to_symbolic(m, reflexive=reflexive) for m in models])
    oracle = SymbolicSystem.from_explicit(
        compose_all([to_system(m, reflexive=reflexive) for m in models])
    )
    assert oracle.atoms == view.atoms
    bdd = oracle.bdd
    valid = bdd.conj(prop_to_bdd(bdd, m.valid_formula()) for m in models)
    for target in shaped_targets()(view):
        for t in (target, view.bdd.negate(target)):
            image = transfer(view.pre_image(t), view.bdd, bdd)
            expected = oracle.pre_image(transfer(t, view.bdd, bdd))
            assert bdd.apply("and", image, valid) == bdd.apply(
                "and", expected, valid
            ), "view differs from explicit compose"


@pytest.mark.parametrize("n", [2, 3])
def test_composite_view_exact_on_afs2(n):
    """The whole AFS-2 composite — server and clients sharing their
    channels — against the invariant, each conjunct and their negations."""
    from repro.casestudies.afs2 import Afs2

    study = Afs2(n)
    inv = study.invariant()
    formulas = [inv, *_conjuncts(inv)]
    pf = study.proof()
    assert_view_exact(
        list(pf.components.values()),
        (),
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
        return [
            (moved, owner, steps, [TRUE] * len(steps))
            for moved, owner, steps, _ in original(self)
        ]

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


def _kills_composite_mutant(afs2=True):
    """The checks a composite mutant must fail: a fixed three-module
    protocol and (with ``afs2``) the AFS-2 composite, both against the
    materialised relation."""
    if afs2:
        with pytest.raises(AssertionError, match="view pre-image differs"):
            test_composite_view_exact_on_afs2(2)
    with pytest.raises(AssertionError, match="view pre-image differs"):
        test_composite_view_exact_on_sharing_protocol()


#: Three modules over overlapping alphabets: each flips its own boolean
#: and copies the shared enum ``v0`` from its neighbour's state.
SHARING = [
    Module(
        name="main",
        variables=[VarDecl("v0", _DOMAINS["v0"]), VarDecl(flag, "boolean")],
        assigns=[
            Assign("next", flag, Case(((IntLit(1), UnaryOp("!", Name(flag))),))),
            Assign(
                "next",
                "v0",
                Case(((Name(flag), Name(value)), (IntLit(1), Name("v0")))),
            ),
        ],
    )
    for flag, value in (("v2", "a"), ("v5", "b"), ("go", "a"))
]


def test_composite_view_exact_on_sharing_protocol():
    components = [to_symbolic(SmvModel(m), reflexive=True) for m in SHARING]
    assert_view_exact(components, (), shaped_targets([[(0, True), (3, False)]]))


def test_mutant_drop_one_component_disjunct_is_killed(monkeypatch):
    original = SymbolicSystem._cone_data

    def without_last_group(self):
        data = original(self)
        return data[:-1] if len(data) > 1 else data

    monkeypatch.setattr(SymbolicSystem, "_cone_data", without_last_group)
    _kills_composite_mutant()


def test_mutant_without_stutter_disjunct_on_composite_is_killed(monkeypatch):
    monkeypatch.setattr(
        SymbolicSystem,
        "stutter",
        property(lambda self: False, lambda self, value: None),
        raising=False,
    )
    # AFS-2's components may idle in their own steps, which hides a
    # missing stutter disjunct; the protocol's flags flip every step
    _kills_composite_mutant(afs2=False)


def test_mutant_rename_all_of_sigma_star_is_killed(monkeypatch):
    original = SymbolicSystem._cone_data

    def every_atom_moved(self):
        everything = frozenset(self.atoms)
        return [
            (everything, owner, steps, masks)
            for _, owner, steps, masks in original(self)
        ]

    monkeypatch.setattr(SymbolicSystem, "_cone_data", every_atom_moved)
    _kills_composite_mutant()
