"""Explicit-state fair-CTL model checker.

The labeling algorithm of Clarke–Emerson–Sistla, vectorized with NumPy:
states are integers (bitmasks over the sorted alphabet), state sets are
boolean vectors of length ``2^|Σ|``, and the one-step existential
predecessor operator is a scatter over the edge arrays.  Fairness is
handled with the Emerson–Lei fair-EG fixpoint.

This checker quantifies over **all** states (the paper's ``M ⊨ f`` ranges
over every state in ``2^Σ``); restrictions ``r = (I, F)`` narrow the
checked states to those satisfying ``I`` and the path quantifiers to
F-fair paths.

It doubles as the oracle for the symbolic checker in the cross-validation
test suite.
"""

from __future__ import annotations

import numpy as np

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
    TRUE,
)
from repro.logic.restriction import UNRESTRICTED, Restriction
from repro.obs.progress import PROGRESS
from repro.obs.tracer import TRACER
from repro.systems.system import System

#: Cap on reported failing states in a :class:`CheckResult`.
MAX_REPORTED = 8


class ExplicitChecker:
    """Fair-CTL model checker over an explicit :class:`System`.

    Example
    -------
    >>> from repro.logic import parse_ctl
    >>> m = System.from_pairs({"x"}, [((), ("x",))])
    >>> ExplicitChecker(m).holds(parse_ctl("!x -> EX x")).holds
    True
    """

    def __init__(self, system: System):
        self.system = system
        self._atoms = sorted(system.sigma)
        self._bit = {a: i for i, a in enumerate(self._atoms)}
        self._n = 2 ** len(self._atoms)
        src, dst = [], []
        for s, t in system.edges:
            src.append(self._index(s))
            dst.append(self._index(t))
        # Explicit edges; implicit self-loops (reflexive mode) live in _pre.
        self._src = np.asarray(src, dtype=np.int64)
        self._dst = np.asarray(dst, dtype=np.int64)
        # memo: (formula, fairness-key) -> state set
        self._memo: dict[tuple[Formula, frozenset[Formula]], np.ndarray] = {}
        self._fair_memo: dict[frozenset[Formula], np.ndarray] = {}
        # per-atom characteristic vectors, filled lazily (atoms repeat
        # across subformulas; 2^n-element vectors are worth caching)
        self._indices = np.arange(self._n, dtype=np.int64)
        self._atom_cache: dict[str, np.ndarray] = {}
        self._iterations = 0
        self._evaluated = 0

    def reset(self) -> None:
        """Forget every memoized state set: the next check does, and
        reports, the work of a fresh checker over the same system."""
        self._memo.clear()
        self._fair_memo.clear()
        self._evaluated = 0

    # ------------------------------------------------------------------
    # state indexing
    # ------------------------------------------------------------------
    def _index(self, state: frozenset) -> int:
        idx = 0
        for a in state:
            idx |= 1 << self._bit[a]
        return idx

    def state_of_index(self, idx: int) -> frozenset:
        """Inverse of the internal state numbering."""
        return frozenset(a for a, b in self._bit.items() if idx & (1 << b))

    # ------------------------------------------------------------------
    # set operators
    # ------------------------------------------------------------------
    def _pre(self, z: np.ndarray) -> np.ndarray:
        """Existential predecessors ``EX z``.

        In reflexive systems the implicit self-loops make the result a
        superset of ``z``; non-reflexive systems use only their edges.
        """
        out = z.copy() if self.system.reflexive else np.zeros(self._n, dtype=bool)
        if self._src.size:
            mask = z[self._dst]
            out[self._src[mask]] = True
        return out

    def _atom_set(self, name: str) -> np.ndarray:
        cached = self._atom_cache.get(name)
        if cached is not None:
            return cached
        bit = self._bit.get(name)
        if bit is None:
            raise CheckError(
                f"formula mentions {name!r} which is not in Σ = {self._atoms}"
            )
        vec = (self._indices >> bit) % 2 == 1
        self._atom_cache[name] = vec
        return vec

    # ------------------------------------------------------------------
    # fair states (Emerson–Lei)
    # ------------------------------------------------------------------
    def _fair_states(self, fairness: frozenset[Formula]) -> np.ndarray:
        """States with at least one F-fair path: ``EG_fair true``."""
        cached = self._fair_memo.get(fairness)
        if cached is None:
            cached = self._eg_fair(np.ones(self._n, dtype=bool), fairness)
            self._fair_memo[fairness] = cached
        return cached

    def _eu_plain(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Least fixpoint for (unfair) ``E[p U q]`` — frontier iteration.

        Each round scatters ``pre`` of only the newly added states
        instead of the whole accumulated set (``pre`` distributes over
        union, so older layers contribute nothing new).
        """
        z = q.copy()
        frontier = q
        while True:
            self._iterations += 1
            if PROGRESS.enabled and PROGRESS.due():
                PROGRESS.tick(
                    "eu",
                    iterations=self._iterations,
                    size=int(frontier.sum()),
                )
            if TRACER.enabled:
                with TRACER.span("fixpoint.eu", category="fixpoint"):
                    new = p & self._pre(frontier) & ~z
            else:
                new = p & self._pre(frontier) & ~z
            if not new.any():
                return z
            z |= new
            frontier = new

    def _eg_plain(self, p: np.ndarray) -> np.ndarray:
        """Greatest fixpoint νZ. p ∧ EX Z — removal-frontier iteration.

        With a reflexive relation this is ``p`` itself (the first dead
        set is empty), but the general fixpoint is run for safety: a
        state is dropped once all of its successors have left ``Z``, and
        after removing a layer only that layer's predecessors can be
        affected next.
        """
        z = p.copy()
        self._iterations += 1
        dead = z & ~self._pre(z)
        while dead.any():
            self._iterations += 1
            if PROGRESS.enabled and PROGRESS.due():
                PROGRESS.tick(
                    "eg", iterations=self._iterations, size=int(z.sum())
                )
            if TRACER.enabled:
                with TRACER.span("fixpoint.eg", category="fixpoint"):
                    z &= ~dead
                    candidates = z & self._pre(dead)
                    if not candidates.any():
                        break
                    dead = candidates & ~self._pre(z)
            else:
                z &= ~dead
                candidates = z & self._pre(dead)
                if not candidates.any():
                    break
                dead = candidates & ~self._pre(z)
        return z

    def _eg_fair(self, p: np.ndarray, fairness: frozenset[Formula]) -> np.ndarray:
        """Emerson–Lei ``EG_fair p`` = νZ. p ∧ ⋀_c EX E[p U (Z ∧ c)]."""
        # fairness constraints are evaluated under *unrestricted* semantics
        constraint_sets = [self._eval(c, frozenset({TRUE})) for c in fairness]
        z = p.copy()
        while True:
            self._iterations += 1
            if PROGRESS.enabled and PROGRESS.due():
                PROGRESS.tick(
                    "eg_fair", iterations=self._iterations, size=int(z.sum())
                )
            if TRACER.enabled:
                with TRACER.span("fixpoint.eg_fair", category="fixpoint"):
                    nxt = p.copy()
                    for cset in constraint_sets:
                        nxt &= self._pre(self._eu_plain(p, z & cset))
            else:
                nxt = p.copy()
                for cset in constraint_sets:
                    nxt &= self._pre(self._eu_plain(p, z & cset))
            if (nxt == z).all():
                return z
            z = nxt

    # ------------------------------------------------------------------
    # formula evaluation
    # ------------------------------------------------------------------
    def states_satisfying(
        self, f: Formula, fairness: tuple[Formula, ...] = (TRUE,)
    ) -> np.ndarray:
        """Boolean vector of the states satisfying ``f`` over fair paths."""
        return self._eval(f, frozenset(fairness)).copy()

    def _eval(self, f: Formula, fair: frozenset[Formula]) -> np.ndarray:
        key = (f, fair)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self._evaluated += 1
        if TRACER.enabled:
            with TRACER.span(
                "eval." + type(f).__name__,
                category="explicit.eval",
                formula=str(f),
            ):
                result = self._eval_uncached(f, fair)
        else:
            result = self._eval_uncached(f, fair)
        self._memo[key] = result
        return result

    def _eval_uncached(self, f: Formula, fair: frozenset[Formula]) -> np.ndarray:
        trivially_fair = fair == frozenset({TRUE})
        if isinstance(f, Const):
            return np.full(self._n, f.value, dtype=bool)
        if isinstance(f, Atom):
            return self._atom_set(f.name)
        if isinstance(f, Not):
            return ~self._eval(f.operand, fair)
        if isinstance(f, And):
            return self._eval(f.left, fair) & self._eval(f.right, fair)
        if isinstance(f, Or):
            return self._eval(f.left, fair) | self._eval(f.right, fair)
        if isinstance(f, Implies):
            return ~self._eval(f.left, fair) | self._eval(f.right, fair)
        if isinstance(f, Iff):
            return self._eval(f.left, fair) == self._eval(f.right, fair)
        if isinstance(f, EX):
            p = self._eval(f.operand, fair)
            if not trivially_fair:
                p = p & self._fair_states(fair)
            return self._pre(p)
        if isinstance(f, AX):
            # AX p = ¬ EX ¬p  (over fair paths)
            return ~self._eval(EX(Not(f.operand)), fair)
        if isinstance(f, EF):
            return self._eval(EU(TRUE, f.operand), fair)
        if isinstance(f, AF):
            return ~self._eval(EG(Not(f.operand)), fair)
        if isinstance(f, AG):
            return ~self._eval(EU(TRUE, Not(f.operand)), fair)
        if isinstance(f, EU):
            p = self._eval(f.left, fair)
            q = self._eval(f.right, fair)
            if not trivially_fair:
                q = q & self._fair_states(fair)
            return self._eu_plain(p, q)
        if isinstance(f, AU):
            # A[p U q] = ¬(E[¬q U ¬p∧¬q] ∨ EG ¬q)
            p, q = f.left, f.right
            bad = Or(EU(Not(q), And(Not(p), Not(q))), EG(Not(q)))
            return ~self._eval(bad, fair)
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
        """Decide ``M ⊨_r f`` and report failing states if any.

        The initial condition ``I`` is evaluated under unrestricted
        semantics (it is propositional in all of the paper's uses); the
        property ``f`` is evaluated over ``F``-fair paths.
        """
        with TRACER.span(
            "check.explicit", category="check", formula=str(f)
        ) as span:
            self._iterations = 0
            init = self._eval(restriction.init, frozenset({TRUE}))
            sat = self._eval(f, frozenset(restriction.fairness))
            failing = np.flatnonzero(init & ~sat)
            if span.recorded:
                span.add("fixpoint_iterations", self._iterations)
                span.add("subformulas_evaluated", self._evaluated)
            stats = CheckStats(
                user_time=span.elapsed(),
                fixpoint_iterations=self._iterations,
                subformulas_evaluated=self._evaluated,
            )
        return CheckResult(
            formula=f,
            restriction=restriction,
            holds=failing.size == 0,
            failing_states=tuple(
                self.state_of_index(int(i)) for i in failing[:MAX_REPORTED]
            ),
            num_failing=int(failing.size),
            stats=stats,
        )

    def holds_everywhere(self, f: Formula) -> bool:
        """Shorthand: ``M ⊨ f`` with the trivial restriction."""
        return bool(self.holds(f))
