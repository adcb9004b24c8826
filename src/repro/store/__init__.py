"""Content-addressed result store: verification results as artifacts.

The paper's component developer ships "theorems and proofs in the
documentation" so a composer only re-runs cheap checks — verification
results are *reusable artifacts*.  This package makes that literal: a
canonical fingerprint (SHA-256 over the elaborated module's
pretty-printed form, the spec formula, the restriction, the engine kind
and its options, salted with :data:`~repro.store.fingerprint.STORE_SCHEMA_VERSION`)
addresses a JSON record holding the verdict, the serialized
:class:`~repro.checking.result.CheckStats`, the decoded counterexample
trace, and optional proof-certificate text.

Entry points:

* :class:`ResultStore` — the on-disk store (atomic writes, size cap
  with mtime eviction, hit/miss/evict counters feeding a
  :class:`~repro.obs.metrics.MetricsRegistry`);
* :func:`cached_check` — check an SMV module through a store, reusing
  every spec verdict whose fingerprint already has a record
  (``repro check --cache DIR``, and the substrate of ``repro serve``);
* :class:`ObligationCache` — the per-obligation incremental layer a
  :class:`~repro.compositional.proof.CompositionProof` probes before
  discharging any leaf obligation, so editing one component of a
  composition re-checks only that component's obligations;
* :func:`spec_fingerprint` / :func:`report_fingerprint` /
  :func:`obligation_fingerprint` / :func:`proof_fingerprint` — the
  canonical request fingerprints.

Typical use::

    from repro.store import ResultStore, cached_check

    store = ResultStore('.repro-cache')
    run = cached_check(source, store=store)   # cold: checks
    run = cached_check(source, store=store)   # warm: replays
    print(run.format())                       # byte-identical

A check answered entirely from the store leaves its parsed model and
fingerprints in a bounded memo, so the same text checked again skips
the front end; its verdicts still come from the store records.
"""

from repro.store.cached import CachedRun, cached_check
from repro.store.fingerprint import (
    STORE_SCHEMA_VERSION,
    component_fingerprint,
    fingerprint_payload,
    obligation_fingerprint,
    proof_fingerprint,
    report_fingerprint,
    spec_fingerprint,
)
from repro.store.obligations import ObligationCache, ObligationLedgerEntry
from repro.store.store import ResultStore, StoreRecord

__all__ = [
    "CachedRun",
    "ObligationCache",
    "ObligationLedgerEntry",
    "ResultStore",
    "StoreRecord",
    "STORE_SCHEMA_VERSION",
    "cached_check",
    "component_fingerprint",
    "fingerprint_payload",
    "obligation_fingerprint",
    "proof_fingerprint",
    "report_fingerprint",
    "spec_fingerprint",
]
