"""Per-obligation incremental checking for compositional proofs.

The paper's thesis is that a compositional proof survives local change:
Srv1–Srv5's certificates outlive client edits.  An
:class:`ObligationCache` makes that a cache policy — each leaf
obligation of a :class:`~repro.compositional.proof.CompositionProof` is
content-addressed by :func:`~repro.store.fingerprint.obligation_fingerprint`
(the component's elaborated behavior, the composite alphabet Σ*, the
formula, the restriction and the engine), and the proof engine probes
the cache before discharging anything.  A hit replays the stored
:class:`~repro.checking.result.CheckResult` byte-identically (stats,
counterexamples, certificate text), rebuilt around the formula and
restriction in hand — a record whose formula or restriction text differs
from the obligation's is a miss (:meth:`CheckResult.replayed`).  A miss
checks and writes back.
Editing one component therefore re-checks exactly that component's
obligations — every other record still replays.

The cache keeps a **ledger**: one entry per obligation in discharge
order, recording the component, the fingerprint, and whether it was
replayed.  :meth:`ObligationCache.seal` writes a proof-level record
keyed by :func:`~repro.store.fingerprint.proof_fingerprint` over the
ledger's fingerprint multiset and flushes the store's counters, so
``repro store stats`` sees the run.

Typical use::

    from repro.casestudies.afs2 import Afs2
    from repro.store import ResultStore

    store = ResultStore('.repro-cache')
    Afs2(3, store=store).prove_safety()          # cold: 4 checks
    pf, _ = Afs2(3, store=store).prove_safety()  # warm: replay
    pf.cache_ledger()['hits']                    # -> 4
    pf.seal_cache()                              # proof-level record

or ``repro demo afs2-safety --cache DIR`` (the stderr summary prints
the hit/miss split).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.checking.result import CheckResult, bound_text
from repro.store.fingerprint import (
    component_fingerprint,
    obligation_fingerprint,
    proof_fingerprint,
)
from repro.store.store import ResultStore, StoreRecord

__all__ = ["ObligationCache", "ObligationLedgerEntry"]


@dataclass(frozen=True)
class ObligationLedgerEntry:
    """One discharged obligation: where its result came from."""

    component: str
    fingerprint: str
    #: True when the result was replayed from the store (no check ran).
    cached: bool
    holds: bool
    formula: str = ""

    def to_dict(self) -> dict:
        return {
            "component": self.component,
            "fingerprint": self.fingerprint,
            "cached": self.cached,
            "holds": self.holds,
            "formula": self.formula,
        }


class ObligationCache:
    """The incremental layer between a proof engine and a result store.

    Parameters
    ----------
    store:
        The backing :class:`~repro.store.ResultStore`.
    engine:
        ``"explicit"`` or ``"symbolic"`` — part of every fingerprint.
    sigma_star:
        The composite alphabet the proof expands components over.

    Component digests are memoized per component *name*, so a proof
    discharging many obligations on the same component canonicalizes
    its behavior once.
    """

    def __init__(self, store: ResultStore, engine: str, sigma_star):
        self.store = store
        self.engine = engine
        self.sigma_star = tuple(sorted(sigma_star))
        self._digests: dict[str, str] = {}
        self.ledger: list[ObligationLedgerEntry] = []

    # -- fingerprints ----------------------------------------------------
    def component_digest(self, name: str, system) -> str:
        """The (memoized) behavior fingerprint of a named component."""
        digest = self._digests.get(name)
        if digest is None:
            digest = self._digests[name] = component_fingerprint(system)
        return digest

    def address(
        self, name: str, system, formula, restriction
    ) -> tuple[str, dict]:
        """The content address of one obligation on ``name``'s expansion,
        and the :func:`~repro.checking.result.bound_text` it was hashed
        over (rendered once, for :meth:`load` to bind a record to)."""
        text = bound_text(formula, restriction)
        fingerprint = obligation_fingerprint(
            self.component_digest(name, system),
            self.sigma_star,
            formula,
            restriction,
            self.engine,
            text=text,
        )
        return fingerprint, text

    # -- store traffic ---------------------------------------------------
    def load(
        self, fingerprint: str, formula, restriction, text: dict
    ) -> CheckResult | None:
        """The stored result for a fingerprint as the verdict on
        ``formula`` under ``restriction`` (``text`` is what
        :meth:`address` returned); ``None`` on a miss, and on a record
        written for another formula or restriction."""
        found = self.store.replay(
            fingerprint, formula, restriction, text, kind="obligation"
        )
        return None if found is None else found[1]

    def save(self, fingerprint: str, formula, result: CheckResult) -> None:
        """Persist a freshly-checked obligation result."""
        self.store.put(
            fingerprint,
            StoreRecord(
                verdict=bool(result.holds),
                result=result.to_dict(),
                spec_text=str(formula),
                kind="obligation",
            ),
            kind="obligation",
        )

    # -- the ledger ------------------------------------------------------
    def note(
        self,
        component: str,
        fingerprint: str,
        cached: bool,
        result: CheckResult,
        formula: str,
    ) -> None:
        """Record one discharged obligation (in discharge order);
        ``formula`` is the obligation's text, as :meth:`address`
        rendered it."""
        self.ledger.append(
            ObligationLedgerEntry(
                component=component,
                fingerprint=fingerprint,
                cached=cached,
                holds=bool(result.holds),
                formula=formula,
            )
        )

    @property
    def hits(self) -> int:
        return sum(1 for entry in self.ledger if entry.cached)

    @property
    def misses(self) -> int:
        return sum(1 for entry in self.ledger if not entry.cached)

    def ledger_dict(self) -> dict:
        """The ledger as a JSON-safe document (the artifact
        ``tests/store/test_incremental_proof.py`` asserts on)."""
        return {
            "engine": self.engine,
            "sigma_star": list(self.sigma_star),
            "hits": self.hits,
            "misses": self.misses,
            "proof_fingerprint": self.proof_digest(),
            "obligations": [entry.to_dict() for entry in self.ledger],
        }

    # -- proof-level records ---------------------------------------------
    def proof_digest(self) -> str:
        """The proof fingerprint: the multiset of ledger fingerprints."""
        return proof_fingerprint(entry.fingerprint for entry in self.ledger)

    def seal(self, meta: dict | None = None) -> str:
        """Write the proof-level record and flush the store's counters.

        The record is keyed by :meth:`proof_digest`, so a recheck after
        editing one component lands on a *different* proof record while
        every untouched obligation record still replays; its ``meta``
        carries the ledger plus any caller extras.  Returns the proof
        fingerprint.
        """
        digest = self.proof_digest()
        self.store.put(
            digest,
            StoreRecord(
                verdict=all(entry.holds for entry in self.ledger),
                meta={**self.ledger_dict(), **(meta or {})},
                kind="report",
            ),
            kind="report",
        )
        self.store.flush_counters()
        return digest
