"""The compositional proof engine.

This is the workflow of the paper's Section 4 turned into a machine-checked
calculus.  A :class:`CompositionProof` owns a set of named components
(paper-style reflexive systems over possibly-overlapping alphabets) and
produces :class:`Proven` judgements about their composition **without ever
building the product system**:

* leaf obligations are model checked on single components or on their
  expansions over the composite alphabet (Lemmas 4, 5, 8–10 justify that
  expansions stand in for the composite);
* Rules 1–3 lift universal/existential properties from components to the
  composite;
* Rules 4–5 mint *guarantees* certificates from ``EX`` premises;
* deductive glue (tautologies, case splits, leads-to chaining, fairness
  strengthening per Lemma 11, the inductive-invariant rule of §5) combines
  them into the end-to-end theorems (Afs1)/(Afs2).

Every step records its premises, so a finished proof is a replayable
certificate; :meth:`CompositionProof.verify_monolithic` re-checks every
conclusion on the actual product system — the test suite uses this to
validate the calculus itself.

Unsound applications raise :class:`repro.errors.ProofError` eagerly: a
``Proven`` value can only be produced by a rule whose side conditions were
checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal

from repro.checking.explicit import ExplicitChecker
from repro.checking.result import CheckResult
from repro.checking.symbolic import SymbolicChecker
from repro.errors import ProofError
from repro.logic.ctl import (
    AF,
    AG,
    AU,
    AX,
    And,
    Formula,
    Implies,
    TRUE,
    is_propositional,
    land,
    lor,
)
from repro.logic.restriction import UNRESTRICTED, Restriction
from repro.obs.tracer import TRACER
from repro.compositional.classify import (
    conjuncts,
    is_existential_form,
    is_universal_form,
)
from repro.compositional.properties import (
    Guarantees,
    PropertyClass,
    RestrictedProperty,
)
from repro.compositional.prop_logic import (
    entails,
    is_fairness_monotone,
    is_tautology,
)
from repro.compositional.rules import (
    rule4_guarantee,
    rule4_premise,
    rule5_guarantee,
    rule5_premise,
)
from repro.systems.compose import composite
from repro.systems.symbolic import SymbolicSystem
from repro.systems.system import System


@dataclass(frozen=True)
class ProofStep:
    """One node of a derivation tree."""

    kind: str
    description: str
    premises: tuple["ProofStep", ...] = ()
    obligations: tuple[CheckResult, ...] = ()
    #: For universality-dependent steps: the formula whose per-component
    #: obligations must be re-established when new components join
    #: (see :meth:`CompositionProof.extend`).
    formula: Formula | None = None

    def walk(self) -> list["ProofStep"]:
        """All steps of the subtree, deduplicated, pre-order."""
        seen: set[int] = set()
        out: list[ProofStep] = []
        stack = [self]
        while stack:
            step = stack.pop()
            if id(step) in seen:
                continue
            seen.add(id(step))
            out.append(step)
            stack.extend(step.premises)
        return out

    def leaves(self) -> list["ProofStep"]:
        """All leaf steps (model-checking obligations) of the subtree."""
        if not self.premises:
            return [self]
        out: list[ProofStep] = []
        for p in self.premises:
            out.extend(p.leaves())
        return out

    def size(self) -> int:
        """Number of steps in the subtree."""
        return 1 + sum(p.size() for p in self.premises)


@dataclass(frozen=True)
class Proven:
    """A property of the composite together with its derivation."""

    prop: RestrictedProperty
    step: ProofStep

    @property
    def formula(self) -> Formula:
        return self.prop.formula

    @property
    def restriction(self) -> Restriction:
        return self.prop.restriction

    def __str__(self) -> str:
        return f"{self.prop}   [by {self.step.kind}]"


@dataclass(frozen=True)
class ProvenGuarantee:
    """A guarantees certificate established on a named component."""

    guarantee: Guarantees
    component: str
    step: ProofStep

    def __str__(self) -> str:
        return f"{self.component}: {self.guarantee}"


Component = System | SymbolicSystem


def _atoms_of(system: Component) -> frozenset[str]:
    if isinstance(system, SymbolicSystem):
        return frozenset(system.atoms)
    return system.sigma


def _is_reflexive(system: Component) -> bool:
    if isinstance(system, SymbolicSystem):
        return system.is_reflexive()
    return system.reflexive


@dataclass
class _Backend:
    """Checker factory for one of the two engines."""

    kind: Literal["explicit", "symbolic"]

    def expansion_checker(self, system: Component, sigma_star: frozenset[str]):
        extra = sigma_star - _atoms_of(system)
        # Lemma 5's expansion; symbolically a view imaging through the
        # component's own partitions: no frame, no product relation over Σ*
        return self.component_checker(
            composite([system], self.kind, extra) if extra else system
        )

    def component_checker(self, system: Component):
        if self.kind == "explicit":
            if isinstance(system, SymbolicSystem):
                system = system.to_explicit()
            return ExplicitChecker(system)
        if not isinstance(system, SymbolicSystem):
            system = SymbolicSystem.from_explicit(system)
        return SymbolicChecker(system)


class CompositionProof:
    """Derive properties of ``∘``-composition from component checks.

    Parameters
    ----------
    components:
        Named paper-systems (reflexive).  Alphabets may overlap — shared
        atoms model communication channels, as in the AFS case studies.
    backend:
        ``"explicit"`` (NumPy labeling, default) or ``"symbolic"`` (BDD).
    parallel:
        With ``parallel=N`` for ``N ≥ 2``, leaf obligations are
        discharged through a shared N-worker process pool
        (:mod:`repro.parallel`): universal rules batch all component
        expansions at once, existential rules check candidate witnesses
        speculatively (the first success in component order still wins),
        and :meth:`verify_monolithic` fans the conclusion re-checks out.
        Results, certificates and error messages are identical to a
        sequential run.  ``None`` / ``0`` / ``1`` keep the fully
        sequential in-process path.
    store:
        A :class:`~repro.store.ResultStore` making the proof
        *incremental*: every leaf obligation is content-addressed
        (:func:`~repro.store.fingerprint.obligation_fingerprint`) and
        probed in the store before it is discharged — sequentially or
        through the pool, which never even submits a cached obligation.
        A hit replays the stored :class:`CheckResult` byte-identically,
        bound to the obligation in hand: the record's formula and
        restriction text must match it, or the record is a miss
        (:meth:`CheckResult.replayed`).  A miss checks and writes back
        over the record.  Editing one component of a
        composition re-checks only that component's obligations.  The
        per-run hit/miss record is :meth:`cache_ledger`;
        :meth:`seal_cache` writes the proof-level record.
    progress:
        A :class:`~repro.obs.progress.ProgressConfig`: cache hits
        publish ``obligation.cache_hit`` events through it, and
        pool-discharged obligations carry its routing key so worker
        heartbeats reach the same consumer (the serving layer's
        SSE/state machine).  ``None`` emits nothing.
    """

    def __init__(
        self,
        components: dict[str, Component],
        backend: Literal["explicit", "symbolic"] = "explicit",
        parallel: int | None = None,
        store=None,
        progress=None,
    ):
        if not components:
            raise ProofError("a proof needs at least one component")
        for name, system in components.items():
            if not _is_reflexive(system):
                raise ProofError(
                    f"component {name!r} is not reflexive; the paper's "
                    f"composition theory requires stuttering components "
                    f"(use reflexive_closure() / set_transition(reflexive=True))"
                )
        self.components = dict(components)
        self.sigma_star: frozenset[str] = frozenset().union(
            *(_atoms_of(s) for s in components.values())
        )
        self._backend = _Backend(backend)
        self._expansion_checkers: dict[str, object] = {}
        self.parallel: int | None = (
            parallel if parallel is not None and parallel > 1 else None
        )
        self._component_specs: dict[str, object] = {}
        self.store = store
        self.progress = progress
        #: The incremental layer (``None`` without a store); exposes the
        #: per-run hit/miss ledger as :attr:`ObligationCache.ledger`.
        self.cache = None
        if store is not None:
            from repro.store.obligations import ObligationCache

            self.cache = ObligationCache(store, backend, self.sigma_star)
        self.log: list[ProofStep] = []
        #: every conclusion about the composite, for monolithic re-checking
        self.conclusions: list[Proven] = []

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _expansion(self, name: str):
        checker = self._expansion_checkers.get(name)
        if checker is None:
            try:
                system = self.components[name]
            except KeyError:
                raise ProofError(f"unknown component {name!r}") from None
            checker = self._backend.expansion_checker(system, self.sigma_star)
            self._expansion_checkers[name] = checker
        return checker

    def _record(self, proven: Proven) -> Proven:
        self.log.append(proven.step)
        self.conclusions.append(proven)
        return proven

    def _obligation(
        self, name: str, formula: Formula, restriction: Restriction = UNRESTRICTED
    ) -> CheckResult:
        """Model-check an obligation on a component's expansion (or fail).

        With a store attached, the obligation's fingerprint is probed
        first: a hit replays the stored result — verdict, stats and
        failure explanation byte-identical to the run that wrote it,
        around this ``formula`` and ``restriction`` — without building a
        checker; a miss checks and writes back (failures too, so a
        failing recheck replays the same error).  A record written for
        another formula or restriction is a miss.
        """
        fingerprint = ""
        if self.cache is not None and name in self.components:
            fingerprint, text = self.cache.address(
                name, self.components[name], formula, restriction
            )
            result = self.cache.load(fingerprint, formula, restriction, text)
            if result is not None:
                self.cache.note(
                    name, fingerprint, True, result, text["formula"]
                )
                self._publish_cache_hit(name, result)
                if not result:
                    raise self._failed_obligation(
                        name, formula, restriction, result
                    )
                return result
        with TRACER.span(
            "proof.obligation",
            category="proof",
            component=name,
            formula=str(formula),
        ):
            result = self._expansion(name).holds(formula, restriction)
        if fingerprint:
            self.cache.save(fingerprint, formula, result)
            self.cache.note(
                name, fingerprint, False, result, text["formula"]
            )
        if not result:
            raise self._failed_obligation(name, formula, restriction, result)
        return result

    def _publish_cache_hit(self, name: str, result: CheckResult) -> None:
        progress = self.progress
        if progress is None:
            return
        progress.publish(
            {
                "kind": "obligation.cache_hit",
                "obligation": f"{progress.prefix}{name}",
                "engine": self._backend.kind,
                "holds": bool(result.holds),
            }
        )

    @staticmethod
    def _failed_obligation(
        name: str,
        formula: Formula,
        restriction: Restriction,
        result: CheckResult,
    ) -> ProofError:
        return ProofError(
            f"obligation failed on component {name!r}: "
            f"{RestrictedProperty(formula, restriction)}\n{result.explain()}"
        )

    # -- parallel discharge ---------------------------------------------
    def _spec(self, name: str):
        """The picklable work spec for a component (cached)."""
        from repro.parallel.workitem import spec_of_component

        spec = self._component_specs.get(name)
        if spec is None:
            try:
                system = self.components[name]
            except KeyError:
                raise ProofError(f"unknown component {name!r}") from None
            spec = self._component_specs[name] = spec_of_component(system)
        return spec

    def _check_batch(
        self,
        triples: list[tuple[str, Formula, Restriction]],
    ) -> list[CheckResult]:
        """Check obligations through the worker pool; no failure raises.

        Each triple ``(name, formula, restriction)`` is checked on the
        named component's expansion over the composite alphabet, exactly
        as :meth:`_obligation` does in-process; results come back in
        submission order.  With a store attached the batch goes through
        :meth:`~repro.parallel.pool.ObligationScheduler.run_cached`:
        cached obligations are replayed parent-side and **never
        submitted to the pool** — a hit costs a JSON read, not a worker
        round-trip.  A hit is bound to the obligation in hand: a record
        written for another formula or restriction is a miss.
        """
        from repro.parallel.pool import shared_scheduler
        from repro.parallel.workitem import WorkItem

        cache = self.cache
        progress = self.progress
        items = []
        for name, formula, restriction in triples:
            spec = self._spec(name)  # ProofError for unknown names
            extra = self.sigma_star - _atoms_of(self.components[name])
            fingerprint, text = (
                cache.address(
                    name, self.components[name], formula, restriction
                )
                if cache is not None
                else ("", None)
            )
            items.append(
                WorkItem(
                    system=spec,
                    formula=formula,
                    restriction=restriction,
                    engine=self._backend.kind,
                    expand_to=tuple(sorted(extra)),
                    label=name,
                    progress_key=progress.key if progress is not None else "",
                    progress_obligation=(
                        f"{progress.prefix}{name}"
                        if progress is not None
                        else ""
                    ),
                    progress_interval=(
                        progress.interval if progress is not None else 0.05
                    ),
                    fingerprint=fingerprint,
                    text=text,
                )
            )
        scheduler = shared_scheduler(self.parallel)
        if cache is None:
            outcomes = scheduler.run(items)
        else:
            outcomes = scheduler.run_cached(
                items,
                cache.store,
                on_hit=lambda item, result: self._publish_cache_hit(
                    item.label, result
                ),
            )
            for item, outcome in zip(items, outcomes):
                cache.note(
                    item.label,
                    item.fingerprint,
                    outcome.store_cached,
                    outcome.result,
                    item.text["formula"],
                )
        return [outcome.result for outcome in outcomes]

    def _discharge(
        self,
        triples: list[tuple[str, Formula, Restriction]],
    ) -> tuple[CheckResult, ...]:
        """Discharge a batch of obligations (all must succeed).

        Sequential unless the proof was built with ``parallel=N``; either
        way the first failing obligation (in batch order) raises exactly
        the :class:`ProofError` the sequential engine would.
        """
        if self.parallel is None:
            return tuple(
                self._obligation(name, formula, restriction)
                for name, formula, restriction in triples
            )
        results = self._check_batch(triples)
        for (name, formula, restriction), result in zip(triples, results):
            if not result:
                raise self._failed_obligation(name, formula, restriction, result)
        return tuple(results)

    @staticmethod
    def _require_same_restriction(provens: Iterable[Proven]) -> Restriction:
        restrictions = {p.restriction for p in provens}
        if len(restrictions) != 1:
            raise ProofError(
                "premises carry different restrictions; align them with "
                "strengthen_fairness/strengthen_init first: "
                + ", ".join(str(r) for r in restrictions)
            )
        return next(iter(restrictions))

    # ------------------------------------------------------------------
    # Rules 1–3: universal / existential lifting
    # ------------------------------------------------------------------
    def universal(self, formula: Formula) -> Proven:
        """Rule 2 (∧-closed): check ``formula`` on *every* expansion.

        ``formula`` must be a conjunction of ``p ⇒ AX q`` steps (and
        propositional parts); the conclusion holds of the composite under
        the trivial restriction and may later be carried under fairness
        via :meth:`strengthen_fairness` (Lemma 11).
        """
        prop = RestrictedProperty(formula)
        if not is_universal_form(prop):
            raise ProofError(f"not a Rule-2 universal form: {formula}")
        with TRACER.span(
            "proof.rule2-universal", category="proof", formula=str(formula)
        ):
            obligations = self._discharge(
                [(name, formula, UNRESTRICTED) for name in self.components]
            )
        step = ProofStep(
            kind="rule2-universal",
            description=f"universal property checked on all expansions: {formula}",
            obligations=obligations,
            formula=formula,
        )
        return self._record(Proven(prop, step))

    def existential(
        self,
        formula: Formula,
        witness: str | None = None,
        restriction: Restriction = UNRESTRICTED,
    ) -> Proven:
        """Rules 1/3 (∧-closed): check ``formula`` on *one* expansion.

        ``witness`` names the satisfying component; omitted, each component
        is tried in turn.  The formula must be existential-form
        (propositional under ``(I, {true})``, or conjunctions of
        ``p ⇒ EX/EF/EU q`` steps under the trivial restriction).
        """
        prop = RestrictedProperty(formula, restriction)
        if not is_existential_form(prop):
            raise ProofError(f"not a Rule-1/3 existential form: {prop}")
        names = [witness] if witness is not None else list(self.components)
        failure: ProofError | None = None
        with TRACER.span(
            "proof.rule1/3-existential", category="proof", formula=str(formula)
        ):
            if self.parallel is not None:
                # speculative: check every candidate witness at once; the
                # first success in component order wins, as sequentially.
                results = self._check_batch(
                    [(name, formula, restriction) for name in names]
                )
                candidates = [
                    (name, result)
                    for name, result in zip(names, results)
                    if result
                ]
                if not candidates:
                    failure = self._failed_obligation(
                        names[-1], formula, restriction, results[-1]
                    )
                for name, result in candidates[:1]:
                    step = ProofStep(
                        kind="rule1/3-existential",
                        description=(
                            f"existential property witnessed by component "
                            f"{name!r}: {prop}"
                        ),
                        obligations=(result,),
                    )
                    return self._record(Proven(prop, step))
            else:
                for name in names:
                    try:
                        result = self._obligation(name, formula, restriction)
                    except ProofError as exc:
                        failure = exc
                        continue
                    step = ProofStep(
                        kind="rule1/3-existential",
                        description=(
                            f"existential property witnessed by component "
                            f"{name!r}: {prop}"
                        ),
                        obligations=(result,),
                    )
                    return self._record(Proven(prop, step))
        raise ProofError(
            f"no component witnesses the existential property {prop}"
        ) from failure

    # ------------------------------------------------------------------
    # Rules 4–5: guarantees certificates
    # ------------------------------------------------------------------
    def guarantee_rule4(self, component: str, p: Formula, q: Formula) -> ProvenGuarantee:
        """Establish Rule 4's guarantee by checking ``p ⇒ EX q`` on ``component``.

        The premise is checked on the component's *expansion* over the
        composite alphabet, so ``p`` and ``q`` may mention shared atoms
        (Lemma 8 transfers the ``EX`` step up the expansion).
        """
        premise = rule4_premise(p, q)
        with TRACER.span(
            "proof.rule4", category="proof", component=component
        ):
            (result,) = self._discharge([(component, premise, UNRESTRICTED)])
        guarantee = rule4_guarantee(p, q)
        step = ProofStep(
            kind="rule4",
            description=(
                f"rule 4 on {component!r}: premise {premise} ⊢ {guarantee}"
            ),
            obligations=(result,),
        )
        self.log.append(step)
        return ProvenGuarantee(guarantee, component, step)

    def guarantee_rule5(
        self,
        component: str,
        disjuncts: tuple[Formula, ...],
        q: Formula,
        helpful: int,
    ) -> ProvenGuarantee:
        """Establish Rule 5's guarantee by checking ``p_helpful ⇒ EX q``."""
        premise = rule5_premise(disjuncts, q, helpful)
        with TRACER.span(
            "proof.rule5", category="proof", component=component
        ):
            (result,) = self._discharge([(component, premise, UNRESTRICTED)])
        guarantee = rule5_guarantee(disjuncts, q, helpful)
        step = ProofStep(
            kind="rule5",
            description=(
                f"rule 5 on {component!r}: premise {premise} ⊢ {guarantee}"
            ),
            obligations=(result,),
        )
        self.log.append(step)
        return ProvenGuarantee(guarantee, component, step)

    def apply_guarantee(self, pg: ProvenGuarantee, lhs: Proven) -> Proven:
        """Use a guarantee: composite ⊨ lhs ⊢ composite ⊨ rhs.

        ``lhs`` must be exactly the guarantee's left side (same formula;
        its restriction must be trivial or match the guarantee's).
        """
        want = pg.guarantee.lhs
        if lhs.formula != want.formula:
            raise ProofError(
                f"guarantee left side mismatch:\n  proven: {lhs.formula}\n"
                f"  needed: {want.formula}"
            )
        if lhs.restriction not in (want.restriction, UNRESTRICTED):
            raise ProofError(
                f"guarantee left-side restriction mismatch: {lhs.restriction}"
            )
        step = ProofStep(
            kind="guarantee-apply",
            description=f"discharged left side of {pg.guarantee} ({pg.component})",
            premises=(pg.step, lhs.step),
        )
        return self._record(Proven(pg.guarantee.rhs, step))

    def discharge(self, pg: ProvenGuarantee) -> Proven:
        """Discharge a guarantee's left side automatically, then apply it.

        Each conjunct of the left side is routed by classification:
        universal forms to :meth:`universal`, existential forms to
        :meth:`existential`; the pieces are conjoined back in order.
        """
        parts = conjuncts(pg.guarantee.lhs.formula)
        proven_parts: list[Proven] = []
        for part in parts:
            part_prop = RestrictedProperty(part)
            if is_universal_form(part_prop):
                proven_parts.append(self.universal(part))
            elif is_existential_form(part_prop):
                proven_parts.append(self.existential(part))
            else:
                raise ProofError(
                    f"cannot automatically discharge conjunct: {part}"
                )
        # all conjuncts hold (same trivial restriction), so the original
        # conjunction-tree holds as stated — conclude it structurally
        step = ProofStep(
            kind="conjoin",
            description="reassembled guarantee left side from its conjuncts",
            premises=tuple(p.step for p in proven_parts),
        )
        lhs = self._record(
            Proven(RestrictedProperty(pg.guarantee.lhs.formula), step)
        )
        return self.apply_guarantee(pg, lhs)

    # ------------------------------------------------------------------
    # the inductive-invariant rule (§4.2.3 / §5)
    # ------------------------------------------------------------------
    def invariant(
        self,
        init: Formula,
        inv: Formula,
        fairness: tuple[Formula, ...] = (TRUE,),
    ) -> Proven:
        """``I ⇒ Inv`` (tautology) + ``Inv ⇒ AX Inv`` (universal) ⊢ AG Inv.

        Concludes ``⊨_(I, F) AG Inv`` — sound for any fairness set since
        ``AG`` quantifies paths universally.
        """
        if not (is_propositional(init) and is_propositional(inv)):
            raise ProofError("invariant rule requires propositional I and Inv")
        if not is_tautology(Implies(init, inv)):
            raise ProofError(f"initial condition does not imply invariant: {init}{inv}")
        with TRACER.span(
            "proof.invariant", category="proof", formula=str(inv)
        ):
            preserved = self.universal(Implies(inv, AX(inv)))
        prop = RestrictedProperty(AG(inv), Restriction(init, fairness))
        step = ProofStep(
            kind="invariant",
            description=f"inductive invariant: {init} ⇒ {inv}, {inv} ⇒ AX {inv} ⊢ AG {inv}",
            premises=(preserved.step,),
        )
        return self._record(Proven(prop, step))

    # ------------------------------------------------------------------
    # deductive glue
    # ------------------------------------------------------------------
    def conjoin(self, a: Proven, b: Proven) -> Proven:
        """``⊨_r f`` and ``⊨_r g`` ⊢ ``⊨_r (f ∧ g)``."""
        r = self._require_same_restriction((a, b))
        prop = RestrictedProperty(And(a.formula, b.formula), r)
        step = ProofStep(
            kind="conjoin",
            description=f"conjunction of proven properties",
            premises=(a.step, b.step),
        )
        return self._record(Proven(prop, step))

    def project(self, proven: Proven, index: int) -> Proven:
        """``⊨_r (f₁ ∧ … ∧ fₙ)`` ⊢ ``⊨_r fᵢ``."""
        parts = conjuncts(proven.formula)
        if not (0 <= index < len(parts)):
            raise ProofError(f"conjunct index {index} out of range ({len(parts)})")
        prop = RestrictedProperty(parts[index], proven.restriction)
        step = ProofStep(
            kind="project",
            description=f"conjunct {index} of {proven.formula}",
            premises=(proven.step,),
        )
        return self._record(Proven(prop, step))

    def strengthen_fairness(self, proven: Proven, *extra: Formula) -> Proven:
        """Add fairness constraints (Lemma 11, generalized to A-positive forms).

        Sound only for formulas whose truth is monotone under shrinking the
        fair-path set — checked via polarity analysis.
        """
        if not is_fairness_monotone(proven.formula):
            raise ProofError(
                f"formula is not fairness-monotone (an E-operator occurs "
                f"positively): {proven.formula}"
            )
        r = proven.restriction.and_fairness(*extra)
        prop = RestrictedProperty(proven.formula, r)
        step = ProofStep(
            kind="fairness-strengthen",
            description=f"lemma 11: added fairness {[str(f) for f in extra]}",
            premises=(proven.step,),
        )
        return self._record(Proven(prop, step))

    def strengthen_fairness_to(self, proven: Proven, target: Restriction) -> Proven:
        """Align a proven property to a richer restriction (Lemma 11).

        ``target`` must have the same initial condition and a superset of
        the fairness constraints; the conclusion carries exactly ``target``
        so that several premises can be combined by rules that require
        structurally equal restrictions.
        """
        if target.init != proven.restriction.init:
            raise ProofError("strengthen_fairness_to cannot change the init")
        if not set(proven.restriction.fairness) <= set(target.fairness):
            raise ProofError(
                "target restriction drops fairness constraints; only "
                "strengthening is sound"
            )
        if not is_fairness_monotone(proven.formula):
            raise ProofError(
                f"formula is not fairness-monotone: {proven.formula}"
            )
        prop = RestrictedProperty(proven.formula, target)
        step = ProofStep(
            kind="fairness-strengthen",
            description=f"lemma 11: aligned fairness to {target}",
            premises=(proven.step,),
        )
        return self._record(Proven(prop, step))

    def align_fairness(self, provens: list[Proven]) -> list[Proven]:
        """Strengthen several properties to their combined fairness set.

        The union is ordered canonically (by formula text) so the results
        carry structurally identical restrictions, ready for
        :meth:`conjoin` / :meth:`leads_to` / :meth:`implication_cases`.
        """
        inits = {p.restriction.init for p in provens}
        if len(inits) != 1:
            raise ProofError("align_fairness requires a common initial condition")
        union: set[Formula] = set()
        for p in provens:
            union |= set(p.restriction.fairness)
        target = Restriction(
            next(iter(inits)), tuple(sorted(union, key=str))
        )
        return [self.strengthen_fairness_to(p, target) for p in provens]

    def strengthen_init(self, proven: Proven, init: Formula) -> Proven:
        """``⊨_(I,F) f`` and ``I' ⇒ I`` (tautology) ⊢ ``⊨_(I',F) f``."""
        old = proven.restriction.init
        if not is_tautology(Implies(init, old)):
            raise ProofError(f"new initial condition does not imply {old}")
        prop = RestrictedProperty(
            proven.formula, proven.restriction.with_init(init)
        )
        step = ProofStep(
            kind="init-strengthen",
            description=f"narrowed initial condition to {init}",
            premises=(proven.step,),
        )
        return self._record(Proven(prop, step))

    def to_initial(self, proven: Proven, init: Formula) -> Proven:
        """``⊨_(true,F) (a ⇒ f)`` and ``I ⇒ a`` ⊢ ``⊨_(I,F) f``."""
        if proven.restriction.init != TRUE:
            raise ProofError("to_initial expects a trivially-initialized premise")
        if not isinstance(proven.formula, Implies):
            raise ProofError("to_initial expects an implication")
        if not is_tautology(Implies(init, proven.formula.left)):
            raise ProofError(
                f"initial condition {init} does not imply antecedent "
                f"{proven.formula.left}"
            )
        prop = RestrictedProperty(
            proven.formula.right, proven.restriction.with_init(init)
        )
        step = ProofStep(
            kind="to-initial",
            description=f"moved antecedent into the restriction: {init}",
            premises=(proven.step,),
        )
        return self._record(Proven(prop, step))

    def implication_cases(
        self, antecedent: Formula, cases: list[Proven]
    ) -> Proven:
        """Case split: ``aᵢ ⇒ f`` for all i and ``x ⇒ ⋁ aᵢ`` ⊢ ``x ⇒ f``."""
        if not cases:
            raise ProofError("implication_cases needs at least one case")
        r = self._require_same_restriction(cases)
        consequents = set()
        antecedents = []
        for c in cases:
            if not isinstance(c.formula, Implies):
                raise ProofError(f"case is not an implication: {c.formula}")
            antecedents.append(c.formula.left)
            consequents.add(c.formula.right)
        if len(consequents) != 1:
            raise ProofError("cases must share one consequent")
        if not is_tautology(Implies(antecedent, lor(*antecedents))):
            raise ProofError(
                f"{antecedent} does not imply the disjunction of the cases"
            )
        prop = RestrictedProperty(
            Implies(antecedent, next(iter(consequents))), r
        )
        step = ProofStep(
            kind="cases",
            description=f"case split on {antecedent}",
            premises=tuple(c.step for c in cases),
        )
        return self._record(Proven(prop, step))

    # ------------------------------------------------------------------
    # leads-to reasoning (§5's "series of basic liveness properties")
    # ------------------------------------------------------------------
    @staticmethod
    def _leads_to_shape(f: Formula) -> tuple[Formula, Formula]:
        """Decompose ``p ⇒ A(p U q)`` or ``p ⇒ AF q`` into ``(p, q)``."""
        if isinstance(f, Implies):
            if isinstance(f.right, AU) and f.right.left == f.left:
                return f.left, f.right.right
            if isinstance(f.right, AF):
                return f.left, f.right.operand
        raise ProofError(f"not a leads-to shape (p ⇒ A(p U q) / p ⇒ AF q): {f}")

    def au_to_af(self, proven: Proven) -> Proven:
        """``⊨_r (p ⇒ A(p U q))`` ⊢ ``⊨_r (p ⇒ AF q)`` (until is strong)."""
        p, q = self._leads_to_shape(proven.formula)
        prop = RestrictedProperty(Implies(p, AF(q)), proven.restriction)
        step = ProofStep(
            kind="au-to-af",
            description=f"A(p U q) implies AF q",
            premises=(proven.step,),
        )
        return self._record(Proven(prop, step))

    def af_weaken(self, proven: Proven, weaker: Formula) -> Proven:
        """``⊨_r (p ⇒ AF q)`` and ``q ⇒ q'`` ⊢ ``⊨_r (p ⇒ AF q')``."""
        p, q = self._leads_to_shape(proven.formula)
        if not is_tautology(Implies(q, weaker)):
            raise ProofError(f"{q} does not propositionally imply {weaker}")
        prop = RestrictedProperty(Implies(p, AF(weaker)), proven.restriction)
        step = ProofStep(
            kind="af-weaken",
            description=f"weakened target to {weaker}",
            premises=(proven.step,),
        )
        return self._record(Proven(prop, step))

    def af_reflexive(
        self, p: Formula, restriction: Restriction = UNRESTRICTED
    ) -> Proven:
        """Axiom: ``⊨_r (p ⇒ AF p)`` — "eventually" includes "now".

        Valid for any restriction: every (fair) path from a ``p``-state
        satisfies ``p`` at its first position.
        """
        prop = RestrictedProperty(Implies(p, AF(p)), restriction)
        step = ProofStep(
            kind="af-reflexive",
            description=f"p ⇒ AF p for p = {p}",
        )
        return self._record(Proven(prop, step))

    def af_conjoin_stable(
        self, afs: list[Proven], stables: list[Proven]
    ) -> Proven:
        """Stable goals reached separately are eventually reached together.

        Premises: ``⊨_r (x ⇒ AF aᵢ)`` for a common antecedent ``x`` and
        restriction ``r``, plus ``⊨ (aᵢ ⇒ AX aᵢ)`` (each goal is *stable* —
        once true it stays true; proven under the trivial restriction,
        which transfers to any fairness by Lemma 11).  Conclusion:
        ``⊨_r (x ⇒ AF (a₁ ∧ … ∧ aₙ))``.

        Soundness: along any fair path from ``x``, goal ``aᵢ`` becomes true
        at some position and, being stable, remains true; at the maximum of
        those positions all goals hold simultaneously.
        """
        if not afs or len(afs) != len(stables):
            raise ProofError("need matching AF and stability premises")
        r = self._require_same_restriction(afs)
        antecedents = set()
        goals: list[Formula] = []
        for af in afs:
            f = af.formula
            if not (isinstance(f, Implies) and isinstance(f.right, AF)):
                raise ProofError(f"not an x ⇒ AF a premise: {f}")
            antecedents.add(f.left)
            goals.append(f.right.operand)
        if len(antecedents) != 1:
            raise ProofError("AF premises must share one antecedent")
        for goal, stable in zip(goals, stables):
            expected = Implies(goal, AX(goal))
            if stable.formula != expected:
                raise ProofError(
                    f"stability premise mismatch: need {expected}, "
                    f"have {stable.formula}"
                )
            if not stable.restriction.is_trivial and stable.restriction != r:
                raise ProofError(
                    "stability premises must hold unrestricted (or under "
                    "the same restriction)"
                )
        prop = RestrictedProperty(
            Implies(next(iter(antecedents)), AF(land(*goals))), r
        )
        step = ProofStep(
            kind="af-conjoin-stable",
            description=f"{len(goals)} stable goals reached jointly",
            premises=tuple(p.step for p in afs)
            + tuple(s.step for s in stables),
        )
        return self._record(Proven(prop, step))

    def leads_to(self, first: Proven, second: Proven) -> Proven:
        """Transitivity: ``p ↝ q`` and ``a ↝ b`` with ``q ⇒ a`` ⊢ ``p ⇒ AF b``.

        Both premises are leads-to shapes (``x ⇒ A(x U y)`` or
        ``x ⇒ AF y``) under the *same* restriction; fairness constraints
        are suffix-closed, so the suffix of a fair path is fair and the
        chained conclusion is sound.
        """
        r = self._require_same_restriction((first, second))
        p, q = self._leads_to_shape(first.formula)
        a, b = self._leads_to_shape(second.formula)
        if not is_tautology(Implies(q, a)):
            raise ProofError(
                f"cannot chain: {q} does not propositionally imply {a}"
            )
        prop = RestrictedProperty(Implies(p, AF(b)), r)
        step = ProofStep(
            kind="leads-to",
            description=f"{p}{q}{b}",
            premises=(first.step, second.step),
        )
        return self._record(Proven(prop, step))

    def chain(self, links: list[Proven]) -> Proven:
        """Fold :meth:`leads_to` over a list of leads-to links."""
        if not links:
            raise ProofError("chain needs at least one link")
        acc = links[0]
        for nxt in links[1:]:
            acc = self.leads_to(acc, nxt)
        if not isinstance(acc.formula.right, AF):  # single-link chains
            acc = self.au_to_af(acc)
        return acc

    def ag_weaken(self, proven: Proven, weaker: Formula) -> Proven:
        """``⊨_r AG f`` and ``f ⇒ g`` ⊢ ``⊨_r AG g`` (AG is monotone)."""
        if not isinstance(proven.formula, AG):
            raise ProofError(f"ag_weaken expects AG, got {proven.formula}")
        if not is_tautology(Implies(proven.formula.operand, weaker)):
            raise ProofError(
                f"{proven.formula.operand} does not propositionally imply {weaker}"
            )
        prop = RestrictedProperty(AG(weaker), proven.restriction)
        step = ProofStep(
            kind="ag-weaken",
            description=f"weakened invariant to {weaker}",
            premises=(proven.step,),
        )
        return self._record(Proven(prop, step))

    # ------------------------------------------------------------------
    # incremental composition
    # ------------------------------------------------------------------
    def extend(self, extra: dict[str, Component]) -> "CompositionProof":
        """Grow the system: add components, migrating every conclusion.

        The paper's point that guarantees (and existential properties) are
        "immediately inherited by any system that contains the component"
        made incremental: existential facts, guarantee premises and the
        deductive glue survive untouched (expansion preserves them —
        Lemma 5); only *universal* steps impose obligations on newcomers,
        so exactly those formulas are re-checked on each new component's
        expansion.  Raises :class:`ProofError` if a new component breaks
        one, naming the culprit.
        """
        overlap = set(extra) & set(self.components)
        if overlap:
            raise ProofError(f"component names already in use: {sorted(overlap)}")
        grown = CompositionProof(
            {**self.components, **extra},
            backend=self._backend.kind,
            parallel=self.parallel,
            store=self.store,
            progress=self.progress,
        )
        # every distinct universal formula in any recorded derivation
        universal_formulas: dict[Formula, None] = {}
        for proven in self.conclusions:
            for step in proven.step.walk():
                if step.kind == "rule2-universal" and step.formula is not None:
                    universal_formulas.setdefault(step.formula, None)
        with TRACER.span(
            "proof.extend",
            category="proof",
            components=",".join(sorted(extra)),
        ):
            new_obligations = grown._discharge(
                [
                    (name, formula, UNRESTRICTED)
                    for formula in universal_formulas
                    for name in extra
                ]
            )
        for proven in self.conclusions:
            step = ProofStep(
                kind="extend",
                description=(
                    f"inherited by the extension with {sorted(extra)} "
                    f"(universal obligations re-checked on newcomers)"
                ),
                premises=(proven.step,),
                obligations=new_obligations,
            )
            grown._record(Proven(proven.prop, step))
        return grown

    # ------------------------------------------------------------------
    # validation and reporting
    # ------------------------------------------------------------------
    def verify_monolithic(self) -> list[tuple[Proven, CheckResult]]:
        """Re-check every recorded conclusion on the real composite.

        This is the soundness oracle used by the test suite: the whole
        point of the calculus is that these monolithic checks are
        *redundant*.
        """
        with TRACER.span("proof.verify_monolithic", category="proof"):
            if self.parallel is not None:
                return self._verify_monolithic_parallel()
            backend = self._backend
            checker = backend.component_checker(
                composite(self.components.values(), backend.kind)
            )
            out = []
            for proven in self.conclusions:
                out.append(
                    (proven, checker.holds(proven.formula, proven.restriction))
                )
            return out

    def _verify_monolithic_parallel(self) -> list[tuple[Proven, CheckResult]]:
        """Fan the conclusion re-checks out over the worker pool.

        Workers build (and cache) the composite from a
        :class:`~repro.parallel.workitem.ComposeSpec` of the component
        specs, so it is constructed once per worker, then every
        conclusion is one independent work item.
        """
        from repro.parallel.pool import shared_scheduler
        from repro.parallel.workitem import ComposeSpec, WorkItem

        spec = ComposeSpec(
            parts=tuple(self._spec(name) for name in self.components)
        )
        items = [
            WorkItem(
                system=spec,
                formula=proven.formula,
                restriction=proven.restriction,
                engine=self._backend.kind,
                label="verify_monolithic",
            )
            for proven in self.conclusions
        ]
        outcomes = shared_scheduler(self.parallel).run(items)
        return [
            (proven, outcome.result)
            for proven, outcome in zip(self.conclusions, outcomes)
        ]

    # ------------------------------------------------------------------
    # the incremental cache
    # ------------------------------------------------------------------
    def cache_ledger(self) -> dict | None:
        """The run's hit/miss ledger (JSON-safe), or ``None`` uncached.

        One entry per discharged obligation, in discharge order:
        component, fingerprint, whether it was replayed from the store,
        and the verdict — the artifact
        ``tests/store/test_incremental_proof.py`` asserts on ("only the
        edited component's obligations ran").
        """
        return self.cache.ledger_dict() if self.cache is not None else None

    def seal_cache(self, meta: dict | None = None) -> str | None:
        """Write the proof-level store record; returns its fingerprint.

        The record is keyed by the *multiset* of this run's obligation
        fingerprints (:func:`~repro.store.fingerprint.proof_fingerprint`),
        so an edited composition seals under a new address while every
        untouched obligation still replays.  No-op (``None``) without a
        store.
        """
        if self.cache is None:
            return None
        return self.cache.seal(meta)

    def summary(self) -> str:
        """Human-readable account of the proof so far."""
        lines = [
            f"components: {', '.join(sorted(self.components))}",
            f"composite alphabet: {len(self.sigma_star)} atomic propositions",
            f"conclusions ({len(self.conclusions)}):",
        ]
        for proven in self.conclusions:
            lines.append(f"  {proven}")
        obligations = sum(
            len(step.obligations) for s in self.log for step in s.leaves()
        )
        lines.append(f"model-checking obligations discharged: {obligations}")
        return "\n".join(lines)
