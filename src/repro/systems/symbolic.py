"""Symbolic (BDD) representation of systems.

A :class:`SymbolicSystem` holds a transition relation as a BDD over
*current* variables (named like the atoms) and *next* variables (atom name
plus a prime), interleaved in the variable order — the standard layout that
keeps transition relations small (the ablation bench
``bench_ablation_var_order`` measures the alternative).

The relation may also be held as a conjunctive partition ``⋀_v P_v`` —
the SMV compiler emits one ``P_v`` per state variable, with disjoint
next-state supports — optionally stutter-closed as ``⋀_v P_v ∨ Id``.
Every pre-image goes through the partition (a system without one is its
own single partition, ``transition``) and touches only the partitions in
the target's cone of influence (:meth:`SymbolicSystem.pre_image`).

Symbolic composition implements the paper's ``R*`` directly at the BDD
level::

    R* = (R ∧ frame(Σ*−Σ)) ∨ (R' ∧ frame(Σ−Σ')) ∨ Id

where ``frame(V) = ⋀_{v∈V} (v ↔ v')`` — each component's step leaves the
other's private propositions untouched, and the identity makes ``R*``
reflexive (it is already implied when the components are reflexive).

A component's expansion ``M ∘ (Σ*∖Σ_M, I)``, where the paper's Lemma 5
discharges obligations, needs neither the frame nor the product:
:func:`expansion_view` images through ``M``'s own partitions over Σ*,
renaming only ``M``'s atoms (the others keep their values) and adding the
stutter step as ``∨ Q``.  :func:`symbolic_expand` materialises the same
relation; it is the reference the view is tested against.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.bdd.manager import BDD, FALSE, TRUE
from repro.bdd.ops import transfer
from repro.errors import SystemError_
from repro.obs.tracer import TRACER
from repro.systems.system import System


def primed(name: str) -> str:
    """Next-state variable name for an atom."""
    return name + "'"


class SymbolicSystem:
    """A system ``(Σ, R)`` with ``R`` stored as a BDD.

    Attributes
    ----------
    bdd:
        The manager; variables are ``a, a', b, b', …`` for sorted atoms.
    atoms:
        The alphabet Σ (sorted tuple).
    transition:
        The relation as one BDD over current+next variables; must be
        total to be a valid paper-system (use :meth:`set_transition` to
        stutter-close).  Assigning it installs a new relation and drops
        the old one's :attr:`partitions`.  An expansion view builds it
        only when asked for.
    partitions:
        Optional conjunctive partition of the relation, one BDD per state
        variable with disjoint next-state supports (set by the SMV
        compiler); ``None`` makes ``transition`` the single partition.
        Replace the list rather than mutate it.
    stutter:
        True when the relation is ``⋀ partitions ∨ Id`` — the partitions
        need not contain the stutter step, and every image adds it.
    component:
        For an expansion view (:func:`expansion_view`), the system it
        expands; ``None`` otherwise.
    """

    def __init__(self, atoms: Iterable[str], bdd: BDD | None = None):
        self.atoms: tuple[str, ...] = tuple(sorted(set(atoms)))
        if bdd is None:
            bdd = BDD()
            for a in self.atoms:
                bdd.add_var(a)
                bdd.add_var(primed(a))
                # sift the pair as one block: any reordering then keeps
                # a' directly below a, so the current→next rename stays
                # order-preserving under every variable order
                bdd.group(a, primed(a))
        self.bdd = bdd
        for a in self.atoms:
            if a not in bdd.var_names or primed(a) not in bdd.var_names:
                raise SystemError_(f"manager lacks variables for atom {a!r}")
        self._transition: int | None = None
        self.partitions: list[int] | None = None
        self.stutter: bool = False
        self.component: SymbolicSystem | None = None
        #: ``(partitions, data)`` for the relation whose cone data
        #: (:meth:`_cone_data`) was last derived.
        self._cone: tuple | None = None
        #: ``(transition, Id ⊆ transition)`` for the last relation
        #: :meth:`is_reflexive` decided (node ids never change meaning).
        self._reflexive: tuple[int, bool] | None = None
        #: ``((transition, reorders), nodes)`` for :meth:`node_count`.
        self._nodes: tuple | None = None

    @property
    def transition(self) -> int:
        if self._transition is None:
            # built on first use: Id for a fresh system, (⋀ P ∧ frame) ∨ Id
            # for an expansion view, framing the atoms its component lacks
            bdd = self.bdd
            t = self.identity_relation()
            if self.component is not None:
                extra = set(self.atoms) - set(self.component.atoms)
                relation = bdd.conj([*self.partitions, self.frame(extra)])
                t = bdd.apply("or", relation, t)
            self._transition = t
            bdd.add_reorder_root(t)
        return self._transition

    @transition.setter
    def transition(self, t: int) -> None:
        self._transition = t
        self.partitions = None
        self.stutter = False
        self.component = None

    # ------------------------------------------------------------------
    # relation builders
    # ------------------------------------------------------------------
    def identity_relation(self) -> int:
        """``Id`` — every variable keeps its value (the stutter step)."""
        return self.frame(self.atoms)

    def frame(self, names: Iterable[str]) -> int:
        """``⋀ (a ↔ a')`` over the given atoms (balanced-tree conjunction)."""
        return self.bdd.conj(
            self.bdd.apply("iff", self.bdd.var(a), self.bdd.var(primed(a)))
            for a in sorted(names, reverse=True)
        )

    def is_reflexive(self) -> bool:
        """True when every state may stutter (``Id ⊆ R``); decided once
        per installed relation."""
        if self._reflexive is None or self._reflexive[0] != self.transition:
            diff = self.bdd.apply(
                "diff", self.identity_relation(), self.transition
            )
            self._reflexive = (self.transition, diff == FALSE)
        return self._reflexive[1]

    def set_transition(self, t: int, reflexive: bool = True) -> None:
        """Install a transition relation (dropping any partition),
        optionally stutter-closing it."""
        if reflexive:
            t = self.bdd.apply("or", t, self.identity_relation())
        self.transition = t
        self.bdd.add_reorder_root(t)

    def reorder(self, method: str = "sift", **kwargs) -> dict[str, int | str]:
        """Sift the variable order for this system's relations.

        Registers the transition relation (if built) and any conjunctive
        partitions as reorder roots and runs :meth:`BDD.reorder`.  All
        previously returned node ids stay valid — reordering changes
        cost, never results.
        """
        bdd = self.bdd
        if self._transition is not None:
            bdd.add_reorder_root(self._transition)
        for p in self.partitions or ():
            bdd.add_reorder_root(p)
        return bdd.reorder(method, **kwargs)

    def state_cube(self, state: frozenset, next_state: bool = False) -> int:
        """BDD of one concrete state (as a full assignment of the atoms)."""
        assignment = {
            (primed(a) if next_state else a): (a in state) for a in self.atoms
        }
        return self.bdd.cube(assignment)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_explicit(cls, system: System) -> "SymbolicSystem":
        """Encode an explicit system's relation edge by edge."""
        sym = cls(system.sigma)
        edges = [
            sym.bdd.apply(
                "and", sym.state_cube(s), sym.state_cube(u, next_state=True)
            )
            for s, u in system.edges
        ]
        if system.reflexive:
            edges.append(sym.identity_relation())
        sym.transition = sym.bdd.disj(edges)
        sym.bdd.add_reorder_root(sym.transition)
        if sym.bdd.reorder_mode == "sift":
            sym.reorder()
        return sym

    def to_explicit(self) -> System:
        """Decode back to an explicit system (exponential; guarded).

        Reflexivity is detected: when the identity relation is contained
        in the transition BDD the result is a reflexive paper-system.
        """
        reflexive = (
            self.bdd.apply("diff", self.identity_relation(), self.transition)
            == FALSE
        )
        names = list(self.atoms) + [primed(a) for a in self.atoms]
        edges = []
        for assignment in self.bdd.iter_sat(self.transition, names):
            s = frozenset(a for a in self.atoms if assignment[a])
            u = frozenset(a for a in self.atoms if assignment[primed(a)])
            if s != u or not reflexive:
                edges.append((s, u))
        return System(self.atoms, edges, reflexive=reflexive)

    # ------------------------------------------------------------------
    # images
    # ------------------------------------------------------------------
    def pre_image(self, s: int) -> int:
        """``EX S``: states with an R-successor in ``S`` (S over current vars).

        With ``S'`` the target renamed to next-state variables, this is
        ``∃x'. ⋀_v P_v ∧ S'`` (``∨ S`` when the system stutters), taken
        over ``S``'s cone of influence only:

        * only the moved atoms in ``S``'s support are renamed — an
          expansion view's other atoms keep their values, so they stay
          current variables and are never quantified;
        * a partition whose next bits meet that support takes one
          relational product, quantifying its own next bits there (next
          supports are disjoint, so no later partition mentions them);
        * any other partition drops out as ``∃v'. P_v``, which is TRUE
          for a total partition and conjoined otherwise — totality is a
          checked fact of the partition BDDs, never an assumption;
        * a moved atom in the support that no partition constrains may
          take either next value, so it is quantified out of ``S``.
        """
        if TRACER.enabled:
            with TRACER.span("image.pre", category="image"):
                return self._pre_image(s)
        return self._pre_image(s)

    def _pre_image(self, s: int) -> int:
        bdd = self.bdd
        moved, owner, steps, masks = self._cone_data()
        support = bdd.support(s) & moved
        free = [a for a in support if a not in owner]
        acc = bdd.exists(free, s) if free else s
        cone = {owner[a] for a in support if a in owner}
        if cone:
            acc = bdd.rename(
                acc, {a: primed(a) for a in support if a in owner}
            )
            for i in sorted(cone):
                acc = bdd.and_exists(acc, *steps[i])
        for i, (partition, names) in enumerate(steps):
            if i in cone:
                continue
            if masks[i] is None:
                masks[i] = bdd.exists(names, partition)
            if masks[i] != TRUE:
                acc = bdd.apply("and", acc, masks[i])
        if self.stutter:
            acc = bdd.apply("or", acc, s)
        return acc

    def clear_caches(self) -> None:
        """Forget the image data derived from the relation: the next
        image re-derives it, doing (and counting) a fresh system's work."""
        self._cone = None

    def _cone_data(self) -> tuple:
        """``(moved, owner, steps, masks)`` for the installed relation.

        ``moved`` are the atoms the relation may change (an expansion
        view's component atoms, else Σ); ``owner`` maps each moved atom
        some partition constrains to that partition's index; ``steps[i]``
        is partition ``i`` with its next-state variables; ``masks[i]`` is
        ``∃v'. P_i``, filled in the first time partition ``i`` is skipped
        (a monolithic relation rarely is, and its mask is costly).  All of
        it is read off the partition BDDs — nothing comes from the model
        that produced them — and derived once per relation; a lone
        partition owns every moved atom.
        """
        parts = self.partitions or [self.transition]
        cached = self._cone
        if cached is not None and cached[0] == parts:
            return cached[1]
        bdd = self.bdd
        moved = frozenset(
            self.component.atoms if self.component is not None else self.atoms
        )
        owner: dict[str, int] = {}
        steps: list[tuple[int, list[str]]] = []
        # a lone partition takes every next bit; walking a monolithic
        # relation for its support would cost more than it saves
        supports = (
            [bdd.support(p) for p in parts]
            if len(parts) > 1
            else [{primed(a) for a in moved}]
        )
        for i, (partition, support) in enumerate(zip(parts, supports)):
            bits = sorted(a for a in moved if primed(a) in support)
            for a in bits:
                if a in owner:
                    raise SystemError_(
                        f"partitions {owner[a]} and {i} both constrain "
                        f"{primed(a)!r}: next-state supports must be disjoint"
                    )
                owner[a] = i
            steps.append((partition, [primed(a) for a in bits]))
        masks: list[int | None] = [None] * len(steps)
        data = (moved, owner, steps, masks)
        self._cone = (list(parts), data)
        return data

    def post_image(self, s: int) -> int:
        """States reachable from ``S`` in one R-step."""
        if TRACER.enabled:
            with TRACER.span("image.post", category="image"):
                image = self.bdd.and_exists(self.transition, s, list(self.atoms))
                return self.bdd.rename(image, {primed(a): a for a in self.atoms})
        image = self.bdd.and_exists(self.transition, s, list(self.atoms))
        return self.bdd.rename(image, {primed(a): a for a in self.atoms})

    def states_bdd_true(self) -> int:
        """The full state space as a BDD (always TRUE — states are 2^Σ)."""
        return TRUE

    def is_total(self) -> bool:
        """Every state has a successor (implied by reflexivity)."""
        has_succ = self.bdd.exists([primed(a) for a in self.atoms], self.transition)
        return has_succ == TRUE

    def node_count(self) -> int:
        """BDD nodes representing the transition relation (SMV metric),
        counted once per relation and variable order.

        An expansion view reports its component's own relation: the
        frame and product it never builds are no part of its checks.
        """
        if self.component is not None:
            return self.component.node_count()
        key = (self.transition, self.bdd.stats.reorders)
        if self._nodes is None or self._nodes[0] != key:
            self._nodes = (key, self.bdd.node_count(self.transition))
        return self._nodes[1]


def symbolic_compose(m1: SymbolicSystem, m2: SymbolicSystem) -> SymbolicSystem:
    """Interleaving composition at the BDD level (paper §3.1).

    The operands may live in different managers; their relations are
    transferred into a fresh manager over the union alphabet.
    """
    out = SymbolicSystem(set(m1.atoms) | set(m2.atoms))
    t1 = transfer(m1.transition, m1.bdd, out.bdd)
    t2 = transfer(m2.transition, m2.bdd, out.bdd)
    frame1 = out.frame(set(out.atoms) - set(m1.atoms))
    frame2 = out.frame(set(out.atoms) - set(m2.atoms))
    lifted1 = out.bdd.apply("and", t1, frame1)
    lifted2 = out.bdd.apply("and", t2, frame2)
    t = out.bdd.apply("or", lifted1, lifted2)
    t = out.bdd.apply("or", t, out.identity_relation())
    out.transition = t
    out.bdd.add_reorder_root(t)
    if out.bdd.reorder_mode == "sift":
        out.reorder()
    return out


def symbolic_compose_all(systems: Sequence[SymbolicSystem]) -> SymbolicSystem:
    """Fold :func:`symbolic_compose` over several systems."""
    if not systems:
        raise SystemError_("symbolic_compose_all needs at least one system")
    acc = systems[0]
    for m in systems[1:]:
        acc = symbolic_compose(acc, m)
    return acc


def symbolic_expand(m: SymbolicSystem, extra_atoms: Iterable[str]) -> SymbolicSystem:
    """Expansion ``m ∘ (Σ', I)`` at the BDD level, materialised: frame,
    product and stutter closure over the union alphabet.  Proof
    obligations use :func:`expansion_view`; this is its reference."""
    identity = SymbolicSystem(extra_atoms)
    return symbolic_compose(m, identity)


def expansion_view(m: SymbolicSystem, extra_atoms: Iterable[str]) -> SymbolicSystem:
    """Expansion ``m ∘ (Σ', I)`` as a view over ``Σ_m ∪ Σ'``.

    The view's manager holds ``m``'s partitions (or its relation, when it
    has none) and nothing else: no frame on ``Σ'`` and no product
    relation.  Its relation ``(R_m ∧ Id_{Σ'}) ∨ Id`` — the relation
    :func:`symbolic_expand` builds — has the pre-image
    ``Q ∨ ∃x'_m. R_m ∧ Q[x_m := x'_m]``, which :meth:`SymbolicSystem.pre_image`
    computes from the partitions alone (``stutter`` set, ``component``
    naming the atoms it renames).  ``transition`` materialises the
    expansion relation only if asked for; ``node_count`` reports ``m``'s.
    """
    view = SymbolicSystem(set(m.atoms) | set(extra_atoms))
    memo: dict[int, int] = {}
    partitions = [
        transfer(p, m.bdd, view.bdd, memo) for p in m.partitions or [m.transition]
    ]
    view.partitions = partitions
    view.stutter = True
    view.component = m
    if view.bdd.reorder_mode == "sift":
        view.reorder()
    return view
