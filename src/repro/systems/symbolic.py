"""Symbolic (BDD) representation of systems.

A :class:`SymbolicSystem` holds a transition relation as a BDD over
*current* variables (named like the atoms) and *next* variables (atom name
plus a prime), interleaved in the variable order — the standard layout that
keeps transition relations small (the ablation bench
``bench_ablation_var_order`` measures the alternative).

The relation may also be held as partition *groups*, one per component:
a group is a conjunctive partition ``⋀_v P_v`` of one component's step —
the SMV compiler emits one ``P_v`` per state variable, with disjoint
next-state supports — together with the atoms that step may change.  A
compiled system is one group moving all of Σ, optionally stutter-closed
as ``⋀_v P_v ∨ Id``; a system without groups is its own single partition,
``transition``.  Every pre-image goes through the groups and touches only
the partitions in the target's cone of influence
(:meth:`SymbolicSystem.pre_image`).

The paper's interleaving composite (§3.1)::

    R* = (R ∧ frame(Σ*−Σ)) ∨ (R' ∧ frame(Σ*−Σ')) ∨ Id

where ``frame(V) = ⋀_{v∈V} (v ↔ v')``, is :func:`composite_view`: one
group per component over Σ*, imaged as ``Q ∨ ⋁_i pre_i(Q)`` where
``pre_i`` renames only component ``i``'s atoms (the others keep their
values).  Neither the frames nor the product are built to take an image;
``transition`` materialises ``R*`` only when asked for, and is the
reference the view is tested against.  A component's expansion
``M ∘ (Σ*∖Σ_M, I)``, where the paper's Lemma 5 discharges obligations,
is the one-component view with the extra atoms.
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
        the old one's :attr:`groups`.  A system with groups — a compiled
        system, a composite view — builds it only when asked for
        (``post_image``, ``to_explicit``): ``⋀ P``, or ``⋀ P ∨ Id`` when
        it stutters.  Images, :meth:`is_total`, :meth:`is_reflexive` and
        :meth:`node_count` read the groups instead.
    groups:
        The relation's partition groups, one ``(moved, partitions)`` per
        component: ``partitions`` is a conjunctive partition of that
        component's step, one BDD per state variable with disjoint
        next-state supports; ``moved`` the atoms the step may change
        (the rest keep their values).  The relation is the groups'
        disjunction.  The SMV compiler sets one group moving Σ;
        ``[]`` makes ``transition`` the single partition.  Replace the
        list rather than mutate it.
    stutter:
        True when the relation is that disjunction ``∨ Id`` — the
        partitions need not contain the stutter step, and every image
        adds it.
    """

    def __init__(self, atoms: Iterable[str], bdd: BDD | None = None):
        self.atoms: tuple[str, ...] = tuple(sorted(set(atoms)))
        if bdd is None:
            bdd = BDD()
            for a in self.atoms:
                bdd.add_var(a)
                bdd.add_var(primed(a))
        self.bdd = bdd
        for a in self.atoms:
            if a not in bdd.var_names or primed(a) not in bdd.var_names:
                raise SystemError_(f"manager lacks variables for atom {a!r}")
        self._transition: int | None = None
        self.groups: list[tuple[frozenset[str], list[int]]] = []
        self.stutter: bool = False
        #: A composite view's :meth:`node_count`: its components' own.
        self._view_nodes: int | None = None
        #: ``(groups or transition, data)`` for the relation whose cone
        #: data (:meth:`_cone_data`) was last derived.
        self._cone: tuple | None = None
        #: ``(groups or transition, Id ⊆ R)`` for the last relation
        #: :meth:`is_reflexive` decided (node ids never change meaning).
        self._reflexive: tuple | None = None
        #: ``(groups or transition, nodes)`` for :meth:`node_count`.
        self._nodes: tuple | None = None

    @property
    def transition(self) -> int:
        if self._transition is None:
            # built on first use from the groups — the one place the
            # product relation is ever built:
            # ⋁_i (⋀ P_i ∧ frame(Σ∖moved_i)), ∨ Id when the system
            # stutters (and for a fresh system, which is Id)
            bdd = self.bdd
            t = bdd.disj(
                bdd.conj([*parts, self.frame(set(self.atoms) - moved)])
                for moved, parts in self.groups
            )
            if self.stutter or not self.groups:
                t = bdd.apply("or", t, self.identity_relation())
            self._transition = t
        return self._transition

    @transition.setter
    def transition(self, t: int) -> None:
        self._transition = t
        self.groups = []
        self.stutter = False
        self._view_nodes = None

    @property
    def partitions(self) -> list[int] | None:
        """The conjunctive partition of a one-group system (the SMV
        compiler's); ``None`` without groups or with several."""
        return self.groups[0][1] if len(self.groups) == 1 else None

    def relation_groups(self) -> list[tuple[frozenset[str], list[int]]]:
        """:attr:`groups`, or ``transition`` as one group moving Σ."""
        return self.groups or [(frozenset(self.atoms), [self.transition])]

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
        per installed relation.

        A stuttering system is; a one-group system (or one held whole)
        is iff every partition admits its own next bits' frame,
        ``frame(v) ⊆ P_v`` (next-state supports are disjoint, so
        ``Id ⊆ ⋀_v P_v`` splits per partition) — neither builds the
        product.
        """
        key = self.groups or self.transition
        if self._reflexive is None or self._reflexive[0] != key:
            if self.stutter:
                reflexive = True
            elif len(self.relation_groups()) == 1:
                _, owner, steps, _ = self._cone_data()[0]
                reflexive = all(
                    self.bdd.apply(
                        "diff",
                        self.frame(a for a in owner if owner[a] == i),
                        partition,
                    )
                    == FALSE
                    for i, (partition, _) in enumerate(steps)
                )
            else:
                reflexive = (
                    self.bdd.apply(
                        "diff", self.identity_relation(), self.transition
                    )
                    == FALSE
                )
            self._reflexive = (key, reflexive)
        return self._reflexive[1]

    def set_transition(self, t: int, reflexive: bool = True) -> None:
        """Install a transition relation (dropping any partition),
        optionally stutter-closing it."""
        if reflexive:
            t = self.bdd.apply("or", t, self.identity_relation())
        self.transition = t

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
        return sym

    def to_explicit(self) -> System:
        """Decode back to an explicit system (exponential; guarded).

        Reflexivity is detected: when the identity relation is contained
        in the transition BDD the result is a reflexive paper-system.
        """
        reflexive = self.is_reflexive()
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

        This is ``⋁_i pre_i(S)`` over the partition groups (``∨ S`` when
        the system stutters), each ``pre_i(S) = ∃x'_i. ⋀_v P_v ∧ S'``
        with ``S'`` the target renamed to next-state variables, taken
        over ``S``'s cone of influence only:

        * only the group's moved atoms in ``S``'s support are renamed —
          its other atoms keep their values, so they stay current
          variables and are never quantified; with the stutter step, a
          group that moves none of them images inside ``S`` and is
          skipped;
        * a partition whose next bits meet that support takes one
          relational product, quantifying its own next bits there (next
          supports within a group are disjoint, so no later partition
          mentions them);
        * any other partition drops out as ``∃v'. P_v``, which is TRUE
          for a total partition and conjoined otherwise — totality is a
          checked fact of the partition BDDs, never an assumption;
        * a moved atom in the support that no partition of the group
          constrains may take either next value, so it is quantified out
          of ``S``.
        """
        if TRACER.enabled:
            with TRACER.span("image.pre", category="image"):
                return self._pre_image(s)
        return self._pre_image(s)

    def _pre_image(self, s: int) -> int:
        bdd = self.bdd
        support = bdd.support(s)
        image = s if self.stutter else FALSE
        for moved, owner, steps, masks in self._cone_data():
            local = support & moved
            if self.stutter and not local:
                continue
            free = [a for a in local if a not in owner]
            acc = bdd.exists(free, s) if free else s
            cone = {owner[a] for a in local if a in owner}
            if cone:
                acc = bdd.rename(
                    acc, {a: primed(a) for a in local if a in owner}
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
            image = bdd.apply("or", image, acc)
        return image

    def clear_caches(self) -> None:
        """Forget the image data derived from the relation: the next
        image re-derives it, doing (and counting) a fresh system's work."""
        self._cone = None

    def _cone_data(self) -> list[tuple]:
        """``(moved, owner, steps, masks)`` per group of the installed
        relation.

        ``moved`` are the atoms the group's step may change; ``owner``
        maps each moved atom some partition constrains to that
        partition's index; ``steps[i]`` is partition ``i`` with its
        next-state variables; ``masks[i]`` is ``∃v'. P_i``, filled in the
        first time partition ``i`` is skipped (a monolithic relation
        rarely is, and its mask is costly).  All of it is read off the
        partition BDDs — nothing comes from the model that produced
        them — and derived once per relation; a lone partition owns
        every moved atom of its group.
        """
        key = self.groups or self.transition
        cached = self._cone
        if cached is not None and cached[0] == key:
            return cached[1]
        data = [
            self._group_cone(moved, parts)
            for moved, parts in self.relation_groups()
        ]
        self._cone = (key, data)
        return data

    def _group_cone(self, moved: frozenset[str], parts: list[int]) -> tuple:
        bdd = self.bdd
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
        return moved, owner, steps, [None] * len(steps)

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
        """Every state has a successor (implied by reflexivity).

        Read off the groups: a stuttering system is total, and ``R`` is
        iff ``⋁_i ⋀_v ∃v'. P_v`` is TRUE — a group's partitions have
        disjoint next-state supports, so ``∃x'`` distributes over them.
        """
        if self.stutter:
            return True
        bdd = self.bdd
        has_succ = bdd.disj(
            bdd.conj(bdd.exists(names, partition) for partition, names in steps)
            for _, _, steps, _ in self._cone_data()
        )
        return has_succ == TRUE

    def node_count(self) -> int:
        """BDD nodes representing the relation the checker holds (SMV
        metric), counted once per relation: the sum
        of the partitions' own counts (``transition``'s alone for a
        system without groups), as NuSMV reports a partitioned relation.

        A composite view reports the sum of its components' own counts:
        the frames and product it never builds are no part of its checks.
        """
        if self._view_nodes is not None:
            return self._view_nodes
        key = self.groups or self.transition
        if self._nodes is None or self._nodes[0] != key:
            count = sum(
                self.bdd.node_count(p)
                for _, parts in self.relation_groups()
                for p in parts
            )
            self._nodes = (key, count)
        return self._nodes[1]


def composite_view(
    components: Sequence[SymbolicSystem], extra_atoms: Iterable[str] = ()
) -> SymbolicSystem:
    """The interleaving composite ``M_1 ∘ … ∘ M_k ∘ (Σ', I)`` (paper
    §3.1) as a view over ``Σ* = ⋃ Σ_i ∪ Σ'``.

    The view's manager holds each component's partition groups (its
    relation, when it has none), moved in as they are, and nothing else:
    no frame and no product relation.  Its relation ``R*`` — the
    components' steps each framed by the atoms they lack, ``∨ Id`` — has
    the pre-image ``Q ∨ ⋁_i ∃x'_i. R_i ∧ Q[x_i := x'_i]``, which
    :meth:`SymbolicSystem.pre_image` computes from the groups alone.
    ``transition`` materialises ``R*`` only if asked for; ``node_count``
    reports the sum of the components' own.  A component's expansion,
    where proof obligations run, is ``composite_view([m], extra)``.
    """
    if not components:
        raise SystemError_("composite_view needs at least one system")
    view = SymbolicSystem(set(extra_atoms).union(*(m.atoms for m in components)))
    groups = []
    for m in components:
        memo: dict[int, int] = {}
        groups += [
            (moved, [transfer(p, m.bdd, view.bdd, memo) for p in parts])
            for moved, parts in m.relation_groups()
        ]
    view.groups = groups
    view.stutter = True
    view._view_nodes = sum(m.node_count() for m in components)
    return view
