"""Symbolic (BDD) representation of systems.

A :class:`SymbolicSystem` holds a transition relation as a BDD over
*current* variables (named like the atoms) and *next* variables (atom name
plus a prime), interleaved in the variable order — the standard layout that
keeps transition relations small (the ablation bench
``bench_ablation_var_order`` measures the alternative).

Symbolic composition implements the paper's ``R*`` directly at the BDD
level::

    R* = (R ∧ frame(Σ*−Σ)) ∨ (R' ∧ frame(Σ−Σ')) ∨ Id

where ``frame(V) = ⋀_{v∈V} (v ↔ v')`` — each component's step leaves the
other's private propositions untouched, and the identity makes ``R*``
reflexive (it is already implied when the components are reflexive).
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
        BDD over current+next variables; must be total to be a valid
        paper-system (use :meth:`closed_reflexive` to stutter-close).
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
        self.transition: int = self.identity_relation()
        #: Optional conjunctive partition of ``transition`` (one BDD per
        #: state variable, their conjunction equal to the monolithic
        #: relation).  Set by the SMV compiler; enables the partitioned
        #: pre-image with early quantification.
        self.partitions: list[int] | None = None
        #: When True and partitions are available, :meth:`pre_image` uses
        #: the partitioned algorithm.  The SMV compiler turns this on
        #: whenever it emits a real conjunctive split (≥ 2 partitions).
        self.prefer_partitions: bool = False
        #: Cached quantification schedule for :meth:`pre_image_partitioned`
        #: (per-partition next variables to quantify), invalidated when
        #: :attr:`partitions` is replaced.
        self._partition_schedule: tuple | None = None
        #: ``(transition, Id ⊆ transition)`` for the last relation
        #: :meth:`is_reflexive` decided (node ids never change meaning).
        self._reflexive: tuple[int, bool] | None = None

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
        """Install a transition relation, optionally stutter-closing it."""
        if reflexive:
            t = self.bdd.apply("or", t, self.identity_relation())
        self.transition = t
        self.bdd.add_reorder_root(t)

    def reorder(self, method: str = "sift", **kwargs) -> dict[str, int | str]:
        """Sift the variable order for this system's relations.

        Registers the transition relation (and any conjunctive
        partitions) as reorder roots and runs :meth:`BDD.reorder`.  All
        previously returned node ids stay valid — reordering changes
        cost, never results.
        """
        bdd = self.bdd
        bdd.add_reorder_root(self.transition)
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
        """``EX S``: states with an R-successor in ``S`` (S over current vars)."""
        if TRACER.enabled:
            with TRACER.span("image.pre", category="image"):
                return self._pre_image(s)
        return self._pre_image(s)

    def _pre_image(self, s: int) -> int:
        if self.prefer_partitions and self.partitions:
            return self.pre_image_partitioned(s)
        s_next = self.bdd.rename(s, {a: primed(a) for a in self.atoms})
        return self.bdd.and_exists(
            self.transition, s_next, [primed(a) for a in self.atoms]
        )

    def pre_image_partitioned(self, s: int) -> int:
        """Pre-image via the conjunctive partition with early quantification.

        Conjoins the per-variable transition constraints one by one,
        existentially quantifying each next-state variable in the same
        relational product as the last partition that mentions it (the
        IWLS95-style schedule in its simplest form).  The schedule is
        static — see :meth:`_quantification_schedule` — so an image step
        never walks a BDD just to find its support, and the monolithic
        relation is never needed.
        """
        if not self.partitions:
            raise SystemError_("system has no conjunctive partition")
        bdd = self.bdd
        acc = bdd.rename(s, {a: primed(a) for a in self.atoms})
        for partition, names in zip(self.partitions, self._quantification_schedule()):
            acc = bdd.and_exists(acc, partition, names)
        return acc

    def _quantification_schedule(self) -> list[list[str]]:
        """Next-state variables to quantify at each partition (cached).

        Step ``i`` quantifies the next variables partition ``i`` mentions
        and no later partition does; step 0 also takes every next
        variable no partition mentions (only the target can).  The lists
        depend on the partitions' supports alone, so they are computed
        once per :attr:`partitions` object.
        """
        cached = self._partition_schedule
        if cached is not None and cached[0] is self.partitions:
            return cached[1]
        assert self.partitions is not None
        unmentioned = {primed(a) for a in self.atoms}
        steps: list[set[str]] = []
        for partition in reversed(self.partitions):
            steps.append(self.bdd.support(partition) & unmentioned)
            unmentioned -= steps[-1]
        steps[-1] |= unmentioned
        schedule = [sorted(names) for names in reversed(steps)]
        self._partition_schedule = (self.partitions, schedule)
        return schedule

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
        """BDD nodes representing the transition relation (SMV metric)."""
        return self.bdd.node_count(self.transition)


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
    """Expansion ``m ∘ (Σ', I)`` at the BDD level."""
    identity = SymbolicSystem(extra_atoms)
    return symbolic_compose(m, identity)
