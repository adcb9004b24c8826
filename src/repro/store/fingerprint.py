"""Canonical fingerprints addressing model-checking results.

A result is reusable only when the request it answers is identified
*semantically*: two SMV sources differing in whitespace, comments or
``DEFINE`` layout must map to the same record, while any change to the
transition structure, the spec, the restriction, the engine, or the
engine's options must miss.  The fingerprint therefore hashes the
elaborated module's canonical pretty-printed form
(:func:`repro.smv.pretty.module_to_str`) rather than the raw source.

Four fingerprint kinds exist:

* :func:`spec_fingerprint` — one *check* ``M ⊨_r f``.  The module text
  is rendered **without** its ``SPEC`` section, so editing the spec list
  of a module invalidates nothing but the edited specs themselves;
* :func:`report_fingerprint` — the report-level metadata of a whole-
  module run (wall time, BDD totals), keyed over the full module text
  so a replayed report is byte-identical to the run that wrote it;
* :func:`obligation_fingerprint` — one *proof obligation* of the
  compositional calculus: a component's behavior
  (:func:`component_fingerprint`), the composite alphabet Σ* the
  component is expanded over, the obligation formula, the restriction,
  the engine and its options — editing one component of an AFS-style
  proof invalidates exactly that component's obligations;
* :func:`proof_fingerprint` — a whole proof run, keyed by the
  *multiset* of its obligation fingerprints.

Every payload is salted with :data:`STORE_SCHEMA_VERSION`; bump it when
the record layout or the canonicalization changes and old stores become
cold rather than wrong.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from repro.checking.result import bound_text
from repro.logic.ctl import Formula
from repro.logic.restriction import Restriction
from repro.smv.elaborate import SmvModel
from repro.smv.pretty import spec_to_str

__all__ = [
    "STORE_SCHEMA_VERSION",
    "fingerprint_payload",
    "spec_fingerprint",
    "report_fingerprint",
    "component_fingerprint",
    "obligation_fingerprint",
    "proof_fingerprint",
]

#: Store layout / canonicalization version (a salt in every fingerprint).
#: 2: symbolic obligations run on expansion views, whose records carry
#: the view's stats — ``transition_nodes`` is the component's own
#: relation, not the materialised expansion's, and the BDD work counts
#: (mk calls, cache lookups) are the view's.
#: 3: ``transition_nodes`` counts the relation the checker holds, the
#: summed node counts of its partitions, not the product relation's.
#: 4: the BDD variable order is fixed, so stored stats drop their
#: dynamic-ordering counters and obligation fingerprints their mode.
#: 5: the canonical text parenthesizes a left operand of ``->`` that is
#: an implication and a comparison operand that is a comparison, so a
#: report over ``(a -> b) -> c`` no longer hashes ``a -> b -> c``.
STORE_SCHEMA_VERSION = 5


def fingerprint_payload(payload: dict) -> str:
    """SHA-256 hex digest of a JSON-safe payload, canonically serialized."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _restriction_payload(restriction: Restriction) -> dict:
    return {
        "init": str(restriction.init),
        "fairness": [str(f) for f in restriction.fairness],
    }


def _options_payload(options: dict | None) -> dict:
    return {key: options[key] for key in sorted(options)} if options else {}


def behavior_text(model: SmvModel) -> str:
    """The module's canonical text with the ``SPEC`` section stripped.

    This is what per-spec fingerprints hash: the transition structure,
    fairness and initial conditions — everything a verdict depends on
    besides the checked formula itself.  Rendered once per model
    (:attr:`SmvModel.behavior_text`).
    """
    return model.behavior_text


def spec_fingerprint(
    model: SmvModel,
    spec: Formula,
    restriction: Restriction,
    engine: str,
    options: dict | None = None,
    *,
    text: dict | None = None,
) -> str:
    """The content address of one check ``M ⊨_r f``.

    ``spec`` is the *elaborated* CTL formula (over encoded atoms), so
    ``DEFINE`` expansion and enum encoding are already normalized away.
    ``options`` holds engine options (e.g. ``{"reflexive": True}``) —
    only JSON-safe values.  ``text`` is
    :func:`~repro.checking.result.bound_text` of ``spec`` and
    ``restriction`` when the caller already rendered it (to bind a
    replayed record to the same text).
    """
    if text is None:
        text = bound_text(spec, restriction)
    return fingerprint_payload(
        {
            "schema": STORE_SCHEMA_VERSION,
            "kind": "check",
            "module": behavior_text(model),
            "spec": text["formula"],
            "restriction": text["restriction"],
            "engine": engine,
            "options": _options_payload(options),
        }
    )


def report_fingerprint(
    model: SmvModel,
    restriction: Restriction,
    engine: str,
    options: dict | None = None,
) -> str:
    """The content address of a whole-module report's metadata.

    Keyed over the full module text (``SPEC`` lines included): the
    report record replays exactly when, and only when, the same spec
    set is checked again.  The ``SPEC`` lines print last in
    :func:`~repro.smv.pretty.module_to_str`, so that text is
    :func:`behavior_text` followed by them.
    """
    specs = "".join(f"SPEC {spec_to_str(spec)}\n" for spec in model.module.specs)
    return fingerprint_payload(
        {
            "schema": STORE_SCHEMA_VERSION,
            "kind": "report",
            "module": behavior_text(model) + specs,
            "restriction": _restriction_payload(restriction),
            "engine": engine,
            "options": _options_payload(options),
        }
    )


# ----------------------------------------------------------------------
# per-obligation fingerprints (the compositional proof engine)
# ----------------------------------------------------------------------
#: Bounded FIFO memos.  Elaboration and canonical rendering are pure,
#: and an incremental recheck fingerprints every component on every run
#: — the memos keep the replay path free of repeated parser and
#: pretty-printer work.  Source text → elaborated model:
_MODEL_MEMO: dict[str, SmvModel] = {}
#: ``(SMV source, reflexive)`` → :func:`component_fingerprint` digest:
_DIGEST_MEMO: dict[tuple[str, bool], str] = {}
_MEMO_CAP = 64


def _memo_put(memo: dict, key, value):
    while len(memo) >= _MEMO_CAP:
        memo.pop(next(iter(memo)))
    memo[key] = value
    return value


def _model_of_source(source: str) -> SmvModel:
    """Elaborate component SMV source (single module under any name, or
    a full program flattened into ``main``) — the worker pool's rules."""
    from repro.smv.modules import flatten
    from repro.smv.parser import parse_program

    model = _MODEL_MEMO.get(source)
    if model is not None:
        return model
    program = parse_program(source)
    if len(program) == 1 and not any(
        decl.is_instance for decl in next(iter(program.values())).variables
    ):
        model = SmvModel(next(iter(program.values())))
    else:
        model = SmvModel(flatten(program))
    return _memo_put(_MODEL_MEMO, source, model)


def _smv_key(system) -> tuple[str, bool] | None:
    """``(SMV source, reflexive)`` of a symbolic system carrying its
    source, else ``None``."""
    from repro.systems.symbolic import SymbolicSystem

    if isinstance(system, SymbolicSystem):
        source = getattr(system, "smv_source", None)
        if source is not None:
            return source, bool(getattr(system, "smv_reflexive", True))
    return None


def _component_payload(system) -> dict:
    """The canonical JSON-safe description of a component's behavior.

    Explicit systems serialize structurally (sorted atoms, sorted
    edges); symbolic systems carrying their SMV source
    (``smv_source``, attached by
    :class:`repro.casestudies.afs_common.ProtocolComponent`) hash the
    *elaborated module's* canonical text — whitespace, comments and
    ``DEFINE`` layout wash out, any transition edit misses.  Source-less
    symbolic systems fall back to explicit enumeration, which is exact
    but only sensible for small components.
    """
    from repro.systems.symbolic import SymbolicSystem
    from repro.systems.system import System

    key = _smv_key(system)
    if key is not None:
        return {
            "form": "smv",
            "module": behavior_text(_model_of_source(key[0])),
            "reflexive": key[1],
        }
    if isinstance(system, SymbolicSystem):
        system = system.to_explicit()
    if isinstance(system, System):
        return {
            "form": "explicit",
            "atoms": sorted(system.sigma),
            "edges": sorted(
                [sorted(s), sorted(t)] for s, t in system.edges
            ),
            "reflexive": bool(system.reflexive),
        }
    raise TypeError(f"cannot fingerprint a {type(system).__name__}")


def component_fingerprint(system) -> str:
    """The content address of one component's *behavior*.

    This is the per-component half of :func:`obligation_fingerprint`:
    two components with the same canonical behavior share it, and any
    semantic edit (in the canonicalized sense above) changes it.
    Digests of SMV-sourced components are memoized per ``(source,
    reflexive)``, so an unchanged component is rendered once per
    process.
    """
    key = _smv_key(system)
    if key is not None:
        digest = _DIGEST_MEMO.get(key)
        if digest is not None:
            return digest
    payload = _component_payload(system)
    payload["schema"] = STORE_SCHEMA_VERSION
    payload["kind"] = "component"
    digest = fingerprint_payload(payload)
    if key is not None:
        _memo_put(_DIGEST_MEMO, key, digest)
    return digest


def obligation_fingerprint(
    component: object,
    sigma_star: Iterable[str],
    formula: Formula,
    restriction: Restriction,
    engine: str,
    options: dict | None = None,
    *,
    text: dict | None = None,
) -> str:
    """The content address of one compositional proof obligation.

    An obligation is checked on ``component``'s *expansion* over the
    composite alphabet ``sigma_star``, so the alphabet is part of the
    address — adding a component to the composition changes Σ* and
    correctly invalidates every obligation.  ``component`` is the
    component system itself or a precomputed
    :func:`component_fingerprint` digest (callers discharging many
    obligations per component cache the digest).

    ``options`` and ``text`` are as for :func:`spec_fingerprint`.
    """
    digest = (
        component
        if isinstance(component, str)
        else component_fingerprint(component)
    )
    if text is None:
        text = bound_text(formula, restriction)
    return fingerprint_payload(
        {
            "schema": STORE_SCHEMA_VERSION,
            "kind": "obligation",
            "component": digest,
            "sigma_star": sorted(sigma_star),
            "spec": text["formula"],
            "restriction": text["restriction"],
            "engine": engine,
            "options": _options_payload(options),
        }
    )


def proof_fingerprint(obligation_fingerprints: Iterable[str]) -> str:
    """The content address of a whole proof run.

    Keyed by the *multiset* of obligation fingerprints (sorted, with
    duplicates kept): a recheck after editing one component produces a
    different proof fingerprint while every untouched obligation record
    still replays individually.
    """
    return fingerprint_payload(
        {
            "schema": STORE_SCHEMA_VERSION,
            "kind": "proof",
            "obligations": sorted(obligation_fingerprints),
        }
    )
