"""Symbolic (BDD-based) fair-CTL model checker — the SMV stand-in.

Implements the same fair-CTL semantics as the explicit checker but with
state sets as BDDs and the one-step operator as a relational product, the
algorithmics of McMillan-era SMV.  Statistics reported per check mirror
the paper's output figures ("BDD nodes allocated", "BDD nodes representing
transition relation").
"""

from __future__ import annotations

from repro.bdd.manager import BDD, FALSE, TRUE
from repro.checking.result import CheckResult, CheckStats
from repro.errors import CheckError
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
    Atom,
    Const,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    is_propositional,
)
from repro.logic.ctl import TRUE as F_TRUE
from repro.logic.restriction import UNRESTRICTED, Restriction
from repro.obs.progress import PROGRESS
from repro.obs.tracer import TRACER
from repro.systems.symbolic import SymbolicSystem

#: Cap on failing states decoded into a :class:`CheckResult`.
MAX_REPORTED = 8


def _operands(f: Formula, kind: type) -> list[Formula]:
    """The operands of a propositional tree of ``kind`` (``And`` or
    ``Or``) nodes rooted at ``f``, left to right; ``[f]`` otherwise.

    Each operand's support is smaller than the whole's, so an image of it
    touches fewer transition partitions (its cone of influence).
    """
    if not (isinstance(f, kind) and is_propositional(f)):
        return [f]
    out: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, kind):
            stack.extend((g.right, g.left))
        else:
            out.append(g)
    return out


class SymbolicChecker:
    """Fair-CTL model checker over a :class:`SymbolicSystem`.

    Example
    -------
    >>> from repro.systems.system import System
    >>> from repro.logic import parse_ctl
    >>> m = SymbolicSystem.from_explicit(
    ...     System.from_pairs({"x"}, [((), ("x",))]))
    >>> bool(SymbolicChecker(m).holds(parse_ctl("!x -> EX x")))
    True
    """

    def __init__(self, system: SymbolicSystem):
        self.system = system
        self.bdd: BDD = system.bdd
        self._memo: dict[tuple[Formula, frozenset[Formula]], int] = {}
        self._fair_memo: dict[frozenset[Formula], int] = {}
        self._iterations = 0

    def reset(self) -> None:
        """Forget every memoized state set, the system's derived image
        data and the manager's operation caches: the next check does,
        and reports, the work of a fresh checker over the same compiled
        system."""
        self._memo.clear()
        self._fair_memo.clear()
        self.system.clear_caches()
        self.bdd.clear_caches()

    # ------------------------------------------------------------------
    # set operators (state sets are BDDs over current variables)
    # ------------------------------------------------------------------
    def _ex(self, s: int) -> int:
        return self.system.pre_image(s)

    def _eu(self, p: int, q: int) -> int:
        """Least fixpoint μZ. q ∨ (p ∧ EX Z) — frontier iteration.

        Each round computes ``pre`` of only the states added in the
        previous round (the frontier) instead of the whole accumulated
        set: ``pre`` distributes over union, and predecessors of older
        layers were already folded in when those layers were new.
        """
        b = self.bdd
        z = q
        frontier = q
        while frontier != FALSE:
            self._iterations += 1
            if PROGRESS.enabled and PROGRESS.due():
                PROGRESS.tick(
                    "eu", iterations=self._iterations, size=b.nodes_allocated
                )
            if TRACER.enabled:
                with TRACER.span("fixpoint.eu", category="fixpoint"):
                    new = b.apply(
                        "diff", b.apply("and", p, self._ex(frontier)), z
                    )
            else:
                new = b.apply("diff", b.apply("and", p, self._ex(frontier)), z)
            z = b.apply("or", z, new)
            frontier = new
        return z

    def _eg_plain(self, p: int) -> int:
        """Greatest fixpoint νZ. p ∧ EX Z — removal-frontier iteration.

        A state leaves ``Z`` only when its last successor inside ``Z``
        leaves, so after removing a layer ``dead`` only the predecessors
        of ``dead`` need rechecking — not the whole of ``Z``.
        """
        b = self.bdd
        z = p
        self._iterations += 1
        dead = b.apply("diff", z, self._ex(z))
        while dead != FALSE:
            self._iterations += 1
            if PROGRESS.enabled and PROGRESS.due():
                PROGRESS.tick(
                    "eg", iterations=self._iterations, size=b.nodes_allocated
                )
            if TRACER.enabled:
                with TRACER.span("fixpoint.eg", category="fixpoint"):
                    z = b.apply("diff", z, dead)
                    candidates = b.apply("and", z, self._ex(dead))
                    if candidates == FALSE:
                        break
                    dead = b.apply("diff", candidates, self._ex(z))
            else:
                z = b.apply("diff", z, dead)
                candidates = b.apply("and", z, self._ex(dead))
                if candidates == FALSE:
                    break
                dead = b.apply("diff", candidates, self._ex(z))
        return z

    def _eg_fair(self, p: int, fair: frozenset[Formula]) -> int:
        """Emerson–Lei νZ. p ∧ ⋀_c EX E[p U (Z ∧ c)]."""
        constraints = [self._eval(c, frozenset({F_TRUE})) for c in fair]
        z = p
        while True:
            self._iterations += 1
            if PROGRESS.enabled and PROGRESS.due():
                PROGRESS.tick(
                    "eg_fair",
                    iterations=self._iterations,
                    size=self.bdd.nodes_allocated,
                )
            if TRACER.enabled:
                with TRACER.span("fixpoint.eg_fair", category="fixpoint"):
                    nxt = p
                    for cset in constraints:
                        target = self.bdd.apply("and", z, cset)
                        nxt = self.bdd.apply(
                            "and", nxt, self._ex(self._eu(p, target))
                        )
            else:
                nxt = p
                for cset in constraints:
                    target = self.bdd.apply("and", z, cset)
                    nxt = self.bdd.apply("and", nxt, self._ex(self._eu(p, target)))
            if nxt == z:
                return z
            z = nxt

    def _fair_states(self, fair: frozenset[Formula]) -> int:
        cached = self._fair_memo.get(fair)
        if cached is None:
            cached = self._eg_fair(TRUE, fair)
            self._fair_memo[fair] = cached
        return cached

    # ------------------------------------------------------------------
    # formula evaluation
    # ------------------------------------------------------------------
    def states_satisfying(
        self, f: Formula, fairness: tuple[Formula, ...] = (F_TRUE,)
    ) -> int:
        """BDD (over current variables) of the states satisfying ``f``."""
        return self._eval(f, frozenset(fairness))

    def _eval(self, f: Formula, fair: frozenset[Formula]) -> int:
        key = (f, fair)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if TRACER.enabled:
            with TRACER.span(
                "eval." + type(f).__name__,
                category="symbolic.eval",
                formula=str(f),
            ):
                result = self._eval_uncached(f, fair)
        else:
            result = self._eval_uncached(f, fair)
        self._memo[key] = result
        return result

    def _eval_uncached(self, f: Formula, fair: frozenset[Formula]) -> int:
        trivially_fair = fair == frozenset({F_TRUE})
        b = self.bdd
        if isinstance(f, Const):
            return TRUE if f.value else FALSE
        if isinstance(f, Atom):
            if f.name not in self.system.atoms:
                raise CheckError(
                    f"formula mentions {f.name!r} not in Σ = {self.system.atoms}"
                )
            return b.var(f.name)
        if isinstance(f, Not):
            return b.negate(self._eval(f.operand, fair))
        if isinstance(f, And):
            return b.apply("and", self._eval(f.left, fair), self._eval(f.right, fair))
        if isinstance(f, Or):
            return b.apply("or", self._eval(f.left, fair), self._eval(f.right, fair))
        if isinstance(f, Implies):
            return b.apply(
                "implies", self._eval(f.left, fair), self._eval(f.right, fair)
            )
        if isinstance(f, Iff):
            return b.apply("iff", self._eval(f.left, fair), self._eval(f.right, fair))
        if isinstance(f, EX):
            disjuncts = _operands(f.operand, Or)
            if len(disjuncts) > 1:
                # EX distributes over ∨: one small-cone image per disjunct
                return b.disj(self._eval(EX(d), fair) for d in disjuncts)
            p = self._eval(f.operand, fair)
            if not trivially_fair:
                p = b.apply("and", p, self._fair_states(fair))
            return self._ex(p)
        if isinstance(f, AX):
            # AX distributes over ∧: one small-cone image per conjunct
            return b.conj(
                b.negate(self._eval(EX(Not(c)), fair))
                for c in _operands(f.operand, And)
            )
        if isinstance(f, EF):
            return self._eval(EU(F_TRUE, f.operand), fair)
        if isinstance(f, AF):
            return b.negate(self._eval(EG(Not(f.operand)), fair))
        if isinstance(f, AG):
            return b.negate(self._eval(EU(F_TRUE, Not(f.operand)), fair))
        if isinstance(f, EU):
            p = self._eval(f.left, fair)
            q = self._eval(f.right, fair)
            if not trivially_fair:
                q = b.apply("and", q, self._fair_states(fair))
            return self._eu(p, q)
        if isinstance(f, AU):
            p, q = f.left, f.right
            bad = Or(EU(Not(q), And(Not(p), Not(q))), EG(Not(q)))
            return b.negate(self._eval(bad, fair))
        if isinstance(f, EG):
            p = self._eval(f.operand, fair)
            if trivially_fair:
                return self._eg_plain(p)
            return self._eg_fair(p, fair)
        raise CheckError(f"unsupported formula node {type(f).__name__}")

    # ------------------------------------------------------------------
    # public verdicts
    # ------------------------------------------------------------------
    def holds(self, f: Formula, restriction: Restriction = UNRESTRICTED) -> CheckResult:
        """Decide ``M ⊨_r f``; failing states are decoded from the BDD."""
        with TRACER.span(
            "check.symbolic", category="check", formula=str(f)
        ) as span:
            self._iterations = 0
            engine_before = self.bdd.stats.snapshot()
            init = self._eval(restriction.init, frozenset({F_TRUE}))
            sat = self._eval(f, frozenset(restriction.fairness))
            failing_bdd = self.bdd.apply("diff", init, sat)
            failing_states: list[frozenset] = []
            if failing_bdd != FALSE:
                for assignment in self.bdd.iter_sat(
                    failing_bdd, list(self.system.atoms)
                ):
                    failing_states.append(
                        frozenset(a for a in self.system.atoms if assignment[a])
                    )
                    if len(failing_states) >= MAX_REPORTED:
                        break
            engine = self.bdd.stats.delta(engine_before)
            if span.recorded:
                span.add("fixpoint_iterations", self._iterations)
                span.add("bdd.mk_calls", engine.mk_calls)
                span.add("bdd.cache_lookups", engine.cache_lookups)
                span.add("bdd.cache_hits", engine.cache_hits)
            stats = CheckStats(
                user_time=span.elapsed(),
                fixpoint_iterations=self._iterations,
                subformulas_evaluated=len(self._memo),
                bdd_nodes_allocated=self.bdd.nodes_allocated,
                transition_nodes=self.system.node_count(),
                bdd_cache_lookups=engine.cache_lookups,
                bdd_cache_hits=engine.cache_hits,
                bdd_mk_calls=engine.mk_calls,
                bdd_peak_unique_nodes=engine.peak_unique_nodes,
                bdd_op_counters={
                    name: c.as_dict() for name, c in engine.ops.items()
                },
            )
        num_failing = (
            0
            if failing_bdd == FALSE
            # sat_count is exact; // stays exact where float division
            # would round past 2^53
            else self.bdd.sat_count(failing_bdd, len(self.bdd.var_names))
            // (2 ** len(self.system.atoms))
        )
        return CheckResult(
            formula=f,
            restriction=restriction,
            holds=failing_bdd == FALSE,
            failing_states=tuple(failing_states),
            num_failing=num_failing,
            stats=stats,
        )
